"""Property tests for the grid geometry, the cell lookup and density sampling (d = 1, 2, 3)."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualavg import BoxDomain, Density, Grid, ball_patch, sample
from dualavg.grids import draw_cell, sampling_cdf
from dualavg.errors import DomainError, ResolutionError

SETTINGS = settings(max_examples=60, deadline=None)


def draw_one_round(grid, cdf, rng):
    """The per-round draw oracle: (cell, point) from one ``sampling_cdf`` row.

    One variate picks the cell through ``draw_cell``, then d more place the
    point uniformly in it.
    """
    cell = draw_cell(cdf, rng.random())
    return cell, grid.centers[cell] + (rng.random(grid.dim) - 0.5) * grid.steps


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
@given(grids(), st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5))
def test_sample_from_generator_sequence_matches_one_call_each(grid, seeds):
    rng = np.random.default_rng(seeds[0])
    weights = rng.random(grid.n_cells) * (rng.random(grid.n_cells) < 0.4)
    weights[rng.integers(grid.n_cells)] += 1.0
    p = Density(grid, weights / (weights.sum() * grid.cell_volume))
    gens = [np.random.default_rng(s) for s in seeds]
    cells, points = sample(p, gens)
    assert cells.shape == (len(seeds), 1) and points.shape == (len(seeds), 1, grid.dim)
    for [cell], [point], s, gen in zip(cells, points, seeds, gens):
        alone = np.random.default_rng(s)
        assert point.tobytes() == sample(p, alone).tobytes()
        # The cell is the one drawn, not a lookup of the point.
        drawn_cell, drawn_point = draw_one_round(grid, sampling_cdf(p),
                                                 np.random.default_rng(s))
        assert cell == drawn_cell and point.tobytes() == drawn_point.tobytes()
        assert gen.random() == alone.random()  # each generator advanced as one call would
    with pytest.raises(ValueError):
        sample(p, gens, size=2)
    # A block of densities: one row serves every generator, R rows one each.
    weights = rng.random((len(seeds), grid.n_cells)) + 1e-3
    block = Density(grid, weights / (weights.sum(axis=1, keepdims=True) * grid.cell_volume))
    for q in (block, Density(grid, block.values[:1])):
        _, points = sample(q, [np.random.default_rng(s) for s in seeds])
        assert points.shape == (len(seeds), 1, grid.dim)
        for i, s in enumerate(seeds):
            row = Density(grid, q.values[i % len(q.values)])
            assert points[i, 0].tobytes() == sample(row, np.random.default_rng(s)).tobytes()
    with pytest.raises(ValueError):
        sample(block, rng)
    if len(seeds) > 1:
        with pytest.raises(ValueError):
            sample(block, [rng])


@SETTINGS
@given(grids(), st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
       st.integers(1, 9))
def test_sample_rounds_matches_one_draw_per_round(grid, seeds, k):
    # With rounds=k the rows are groups of k successive rounds: one
    # random((k, 1 + d)) per generator gives the cells and points of k draws
    # from its group's rows in turn, and leaves it where those draws would.
    # One group serves every generator, and S groups serve one each.
    rng = np.random.default_rng(seeds[0])
    S = len(seeds)
    weights = rng.random((S * k, grid.n_cells)) * (rng.random((S * k, grid.n_cells)) < 0.5)
    weights += 1e-9
    block = Density(grid, weights / (weights.sum(axis=1, keepdims=True) * grid.cell_volume))
    one_group = Density(grid, block.values[:k])
    for q, group_of in ((one_group, lambda i: 0), (block, lambda i: i)):
        gens = [np.random.default_rng(s) for s in seeds]
        cells, points = sample(q, gens, rounds=k)
        assert cells.shape == (S, k) and points.shape == (S, k, grid.dim)
        for i, (s, gen, cell_row, point_row) in enumerate(zip(seeds, gens, cells, points)):
            alone = np.random.default_rng(s)
            group = q.values[group_of(i) * k:(group_of(i) + 1) * k]
            for row, cell, point in zip(group, cell_row, point_row):
                drawn_cell, drawn_point = draw_one_round(grid, sampling_cdf(
                    Density.unchecked(grid, row)), alone)
                assert cell == drawn_cell and point.tobytes() == drawn_point.tobytes()
            assert gen.random() == alone.random()
    with pytest.raises(ValueError):
        sample(one_group, rng, rounds=k)
    if k > 1:
        with pytest.raises(ValueError):  # rows that are no whole number of groups
            sample(Density(grid, block.values[:k - 1]), [rng], rounds=k)
    if S > 1:
        with pytest.raises(ValueError):  # S groups for one generator
            sample(block, [rng], rounds=k)
    if S > 2:
        with pytest.raises(ValueError):  # two groups for S generators
            sample(Density(grid, block.values[:2 * k]),
                   [np.random.default_rng(s) for s in seeds], rounds=k)


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


@SETTINGS
@given(grids(), st.data())
def test_per_axis_centers_are_the_centers_table(grid, data):
    # ``centers`` stays the reference: every per-axis read equals it bit for bit.
    for k in range(grid.dim):
        axis = grid.axis_centers(k)
        assert axis.tobytes() == np.unique(grid.centers[:, k]).tobytes()
        with pytest.raises(ValueError):
            axis[0] = 0.0
    shape = data.draw(st.sampled_from([(), (3,), (2, 4)]))
    cells = np.array(data.draw(st.lists(st.integers(0, grid.n_cells - 1),
                                        min_size=math.prod(shape), max_size=math.prod(shape))),
                     dtype=np.intp).reshape(shape)
    assert grid.cell_centers(cells).tobytes() == grid.centers[cells].tobytes()


@SETTINGS
@given(grids(), st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
       st.integers(1, 5))
def test_sample_points_are_the_centers_table_plus_offsets(grid, seeds, k):
    # Both paths, bit for bit: ``grid.centers[cells] + offsets``.
    rng = np.random.default_rng(seeds[0])
    weights = rng.random((len(seeds) * k, grid.n_cells)) + 1e-3
    block = Density(grid, weights / (weights.sum(axis=1, keepdims=True) * grid.cell_volume))
    points = sample(Density(grid, block.values[0]), np.random.default_rng(seeds[0]), size=k)
    ref = np.random.default_rng(seeds[0])
    cells = draw_cell(sampling_cdf(Density(grid, block.values[0])), ref.random(k))
    offsets = (ref.random((k, grid.dim)) - 0.5) * grid.steps
    assert points.tobytes() == (grid.centers[cells] + offsets).tobytes()

    cells, points = sample(block, [np.random.default_rng(s) for s in seeds], rounds=k)
    variates = np.array([np.random.default_rng(s).random((k, 1 + grid.dim)) for s in seeds])
    offsets = (variates[:, :, 1:] - 0.5) * grid.steps
    assert points.tobytes() == (grid.centers[cells] + offsets).tobytes()


@SETTINGS
@given(grids(), st.integers(1, 4), st.integers(1, 4), st.data())
def test_sample_rejects_a_block_before_any_generator_draws(grid, S, k, data):
    n_rows = data.draw(st.integers(1, S * k + 2).filter(lambda r: r not in (k, S * k)))
    block = Density(grid, np.full((n_rows, grid.n_cells), 1.0 / grid.domain.volume))
    gens = [np.random.default_rng(s) for s in range(S)]
    states = [g.bit_generator.state for g in gens]
    with pytest.raises(ValueError):
        sample(block, gens, rounds=k)
    assert [g.bit_generator.state for g in gens] == states


def scan_patch(grid, x, delta):
    """The reference ball: the squared distance of every row of the (n_cells, d) centers table."""
    dist2 = grid.centers - x
    dist2 *= dist2
    return np.flatnonzero(dist2.sum(axis=1) <= delta * delta)


@SETTINGS
@given(grids(dyadic=True), st.data())
def test_ball_patch_is_the_full_scan(grid, data):
    # Centers at a cell center, anywhere inside or on the domain boundary, per
    # axis; radii at random and at exactly the distance of another cell
    # center (dyadic grids make that distance exact, so the tie is real).
    kinds = [data.draw(st.sampled_from(["center", "inside", "lower", "upper"]))
             for _ in range(grid.dim)]
    x = np.empty(grid.dim)
    for k, kind in enumerate(kinds):
        if kind == "center":
            x[k] = grid.axis_centers(k)[data.draw(st.integers(0, grid.n - 1))]
        elif kind == "inside":
            x[k] = grid.domain.lower[k] + data.draw(st.floats(0, 1)) * grid.domain.lengths[k]
        else:
            x[k] = getattr(grid.domain, kind)[k]
    axis = data.draw(st.integers(0, grid.dim - 1))
    radii = [data.draw(st.floats(1e-3, 2.0)) * grid.domain.diameter,
             data.draw(st.integers(1, max(1, grid.n - 1))) * grid.steps[axis]]
    for delta in radii:
        expected = scan_patch(grid, x, delta)
        if expected.size == 0:
            with pytest.raises(ResolutionError):
                ball_patch(grid, x, delta)
            continue
        cells, volume = ball_patch(grid, x, delta)
        assert cells.tolist() == expected.tolist()
        assert volume == expected.size * grid.cell_volume
    if all(kind == "center" for kind in kinds):
        # The cell ``radii[1]`` away along ``axis`` sits exactly on the sphere.
        tie = x.copy()
        tie[axis] += radii[1]
        if tie[axis] < grid.domain.upper[axis]:
            assert grid.cell_index(tie) in ball_patch(grid, x, radii[1])[0].tolist()
    cells, _ = ball_patch(grid, x, math.inf)
    assert cells.tolist() == list(range(grid.n_cells)) == scan_patch(grid, x, math.inf).tolist()
    for bad in (math.nan, math.inf, -math.inf):
        y = x.copy()
        y[axis] = bad
        with pytest.raises(DomainError, match="not finite"):
            ball_patch(grid, y, 0.5 * grid.domain.diameter)
