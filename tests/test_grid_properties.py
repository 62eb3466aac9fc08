"""Property tests for the grid geometry, the cell lookup and density sampling (d = 1, 2, 3)."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualavg import BoxDomain, Density, Grid, sample
from dualavg.errors import DomainError

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def grids(draw, dyadic=False):
    """A grid in d = 1..3; ``dyadic`` makes every cell edge exactly representable."""
    d = draw(st.integers(1, 3))
    if dyadic:
        lower = [float(draw(st.integers(-8, 8))) for _ in range(d)]
        lengths = [2.0 ** draw(st.integers(-2, 3)) for _ in range(d)]
        n = 2 ** draw(st.integers(0, 4))
    else:
        lower = [draw(st.floats(-10, 10)) for _ in range(d)]
        lengths = [draw(st.floats(0.1, 10)) for _ in range(d)]
        n = draw(st.integers(1, 12))
    upper = [lo + length for lo, length in zip(lower, lengths)]
    return Grid(BoxDomain(lower, upper), n)


def brute_force_cell(grid, x):
    """The flat index of the one cell whose closed box (center +- step/2) holds ``x``."""
    half = grid.steps / 2
    inside = np.all(np.abs(grid.centers - x) <= half, axis=1)
    cells = np.nonzero(inside)[0]
    assert cells.size == 1
    return int(cells[0])


@SETTINGS
@given(grids(), st.data())
def test_cell_index_matches_brute_force_on_interior_points(grid, data):
    ks = [data.draw(st.integers(0, grid.n - 1)) for _ in range(grid.dim)]
    fs = [data.draw(st.floats(0.05, 0.95)) for _ in range(grid.dim)]
    x = grid.domain.lower + (np.array(ks) + np.array(fs)) * grid.steps
    assert grid.cell_index(x) == brute_force_cell(grid, x)
    assert grid.cell_index(x) == int(np.ravel_multi_index(tuple(ks), grid.shape))


@SETTINGS
@given(grids(dyadic=True), st.data())
def test_cell_index_interior_boundary_goes_to_lower_cell(grid, data):
    if grid.n == 1:
        return
    axis = data.draw(st.integers(0, grid.dim - 1))
    ks = [data.draw(st.integers(0, grid.n - 1)) for _ in range(grid.dim)]
    edge = data.draw(st.integers(1, grid.n - 1))
    x = grid.domain.lower + (np.array(ks) + 0.5) * grid.steps
    x[axis] = grid.domain.lower[axis] + edge * grid.steps[axis]
    expected = list(ks)
    expected[axis] = edge - 1
    assert grid.cell_index(x) == int(np.ravel_multi_index(tuple(expected), grid.shape))


@SETTINGS
@given(grids(), st.data())
def test_cell_index_domain_edges(grid, data):
    assert grid.cell_index(grid.domain.upper) == grid.n_cells - 1
    assert grid.cell_index(grid.domain.lower) == 0
    axis = data.draw(st.integers(0, grid.dim - 1))
    ks = [data.draw(st.integers(0, grid.n - 1)) for _ in range(grid.dim)]
    x = grid.domain.lower + (np.array(ks) + 0.5) * grid.steps
    x[axis] = grid.domain.upper[axis]
    ks[axis] = grid.n - 1
    assert grid.cell_index(x) == int(np.ravel_multi_index(tuple(ks), grid.shape))


@SETTINGS
@given(grids(), st.data())
def test_cell_index_outside_domain_raises(grid, data):
    axis = data.draw(st.integers(0, grid.dim - 1))
    x = (grid.domain.lower + grid.domain.upper) / 2
    where = data.draw(st.sampled_from(["below", "above", "nan", "inf"]))
    if where == "below":
        x[axis] = grid.domain.lower[axis] - data.draw(st.floats(1e-6, 10))
    elif where == "above":
        x[axis] = grid.domain.upper[axis] + data.draw(st.floats(1e-6, 10))
    else:
        x[axis] = math.nan if where == "nan" else math.inf
    with pytest.raises(DomainError):
        grid.cell_index(x)
    with pytest.raises(DomainError):
        grid.cell_index(np.append(x, 0.0))  # wrong dimension


@SETTINGS
@given(grids(), st.integers(0, 2**32 - 1))
def test_sample_lands_in_positive_probability_cells(grid, seed):
    rng = np.random.default_rng(seed)
    weights = rng.random(grid.n_cells) * (rng.random(grid.n_cells) < 0.4)
    weights[rng.integers(grid.n_cells)] += 1.0
    p = Density(grid, weights / (weights.sum() * grid.cell_volume))
    points = [sample(p, rng) for _ in range(20)] + list(sample(p, rng, size=20))
    for x in points:
        assert x.shape == (grid.dim,)
        assert p.values[grid.cell_index(x)] > 0


@SETTINGS
@given(grids())
def test_cells_tile_the_domain(grid):
    assert grid.n_cells == grid.n ** grid.dim == len(grid.centers)
    assert grid.n_cells * grid.cell_volume == pytest.approx(grid.domain.volume, rel=1e-12)
    assert grid.cell_diameter == pytest.approx(grid.domain.diameter / grid.n, rel=1e-12)


@SETTINGS
@given(grids())
def test_stored_geometry_is_immutable(grid):
    for name in ("dim", "shape", "n_cells", "steps", "cell_volume", "cell_diameter", "n"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(grid, name, getattr(grid, name))
    for name in ("dim", "lengths", "volume", "diameter", "lower"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(grid.domain, name, getattr(grid.domain, name))
    for arr in (grid.steps, grid.domain.lengths, grid.domain.lower, grid.centers):
        with pytest.raises(ValueError):
            arr[0] = 0.0
