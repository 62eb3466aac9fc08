import numpy as np
import pytest

from dualavg import (
    BoxDomain,
    Density,
    DomainError,
    Grid,
    GridFunction,
    GridMismatchError,
    ResolutionError,
    ball_patch,
    integrate,
    l1_distance,
    pair,
    sample,
    sup_norm,
)
from dualavg.grids import dot


@pytest.fixture
def unit_grid():
    return Grid(BoxDomain(0.0, 1.0), 1024)


def test_domain_validation():
    with pytest.raises(DomainError):
        BoxDomain(1.0, 0.0)
    with pytest.raises(DomainError):
        BoxDomain([0.0, 0.0], [1.0])
    dom = BoxDomain([0.0, -1.0], [2.0, 3.0])
    assert dom.volume == pytest.approx(8.0)
    assert dom.dim == 2


def test_grid_cell_volume_sums_to_domain_volume():
    for dom, n in [
        (BoxDomain(0.0, 1.0), 1024),
        (BoxDomain([0.0, 0.0], [2.0, 0.5]), 64),
        (BoxDomain([-1.0, 0.0, 3.0], [1.0, 5.0, 4.0]), 16),
    ]:
        g = Grid(dom, n)
        total = g.n_cells * g.cell_volume
        assert abs(total - dom.volume) <= 1e-12 * dom.volume


def test_grid_centers_strictly_inside():
    g = Grid(BoxDomain([0.0, -2.0], [1.0, 2.0]), 16)
    c = g.centers
    assert np.all(c > g.domain.lower) and np.all(c < g.domain.upper)


def test_integrate_constants(unit_grid):
    assert integrate(GridFunction.constant(unit_grid, 1.0)) == pytest.approx(1.0)
    g2 = Grid(BoxDomain([0.0, 0.0], [2.0, 1.5]), 32)
    assert integrate(GridFunction.constant(g2, 3.0)) == pytest.approx(3.0 * 3.0)


def test_integrate_linear_midpoint(unit_grid):
    f = GridFunction.from_callable(unit_grid, lambda c: c[:, 0])
    assert integrate(f) == pytest.approx(0.5, abs=1e-6)


def test_pair_constant_and_uniform(unit_grid):
    p = Density.uniform(unit_grid)
    assert pair(GridFunction.constant(unit_grid, 4.2), p) == pytest.approx(4.2)
    f = GridFunction.from_callable(unit_grid, lambda c: c[:, 0])
    assert pair(f, p) == pytest.approx(0.5, abs=1e-6)


def test_pair_half_indicator_exact(unit_grid):
    vals = np.zeros(unit_grid.n_cells)
    vals[: unit_grid.n_cells // 2] = 1.0
    f = GridFunction(unit_grid, vals)
    assert pair(f, Density.uniform(unit_grid)) == 0.5


def test_pair_is_bilinear(unit_grid):
    rng = np.random.default_rng(3)
    f = GridFunction(unit_grid, rng.normal(size=unit_grid.n_cells))
    g = GridFunction(unit_grid, rng.normal(size=unit_grid.n_cells))
    p = Density.uniform(unit_grid)
    a, b = 1.7, -0.3
    lhs = pair(a * f + b * g, p)
    rhs = a * pair(f, p) + b * pair(g, p)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert integrate(f * GridFunction.constant(unit_grid, 1.0)) == pytest.approx(
        integrate(f), abs=1e-12
    )


def test_dot_is_blocked_inner_product():
    rng = np.random.default_rng(11)
    for n in (1, 4095, 4096):
        a, b = rng.normal(size=n), rng.normal(size=n)
        assert dot(a, b) == float(a @ b)
    a, b = rng.normal(size=65536 + 7), rng.normal(size=65536 + 7)
    blocks = [float(a[i:i + 4096] @ b[i:i + 4096]) for i in range(0, a.size, 4096)]
    assert dot(a, b) == sum(blocks)
    assert dot(a, b) == pytest.approx(float(a @ b), rel=1e-12)


def test_grid_mismatch_raises(unit_grid):
    other = Grid(BoxDomain(0.0, 2.0), 1024)
    f = GridFunction.constant(unit_grid, 1.0)
    g = GridFunction.constant(other, 1.0)
    with pytest.raises(GridMismatchError):
        pair(f, g)
    with pytest.raises(GridMismatchError):
        l1_distance(f, g)


def test_norms(unit_grid):
    p = Density.uniform(unit_grid)
    assert l1_distance(p, p) == 0.0
    n = unit_grid.n_cells
    left = np.zeros(n)
    left[: n // 2] = 2.0
    right = np.zeros(n)
    right[n // 2 :] = 2.0
    assert l1_distance(Density(unit_grid, left), Density(unit_grid, right)) == pytest.approx(
        2.0, abs=1e-9
    )
    f = GridFunction.from_callable(unit_grid, lambda c: np.sin(2 * np.pi * c[:, 0]))
    assert sup_norm(f) == pytest.approx(1.0, abs=1e-4)


def test_density_invariants(unit_grid):
    with pytest.raises(ValueError):
        Density(unit_grid, np.full(unit_grid.n_cells, -1.0))
    with pytest.raises(ValueError):
        Density(unit_grid, np.full(unit_grid.n_cells, 2.0))
    with pytest.raises(ValueError):
        GridFunction(unit_grid, np.full(unit_grid.n_cells, np.nan))
    ones = np.ones(unit_grid.n_cells) / unit_grid.domain.volume
    assert Density(unit_grid, np.stack([ones, ones])).values.shape == (2, unit_grid.n_cells)
    with pytest.raises(ValueError):  # every row of a block integrates to one
        Density(unit_grid, np.stack([ones, 2.0 * ones]))


def test_sample_point_mass(unit_grid):
    rng = np.random.default_rng(0)
    cell = 137
    p = Density.uniform_on_cells(unit_grid, [cell])
    for _ in range(20):
        x = sample(p, rng)
        assert unit_grid.cell_index(x) == cell


def test_sample_uniform_mean():
    g = Grid(BoxDomain(0.0, 1.0), 1024)
    rng = np.random.default_rng(42)
    pts = sample(Density.uniform(g), rng, size=10**6)
    assert abs(pts[:, 0].mean() - 0.5) < 0.002  # 3 sigma / sqrt(N), sigma^2 = 1/12


def test_sample_stays_in_domain_2d():
    g = Grid(BoxDomain([0.0, 0.0], [1.0, 1.0]), 32)
    rng = np.random.default_rng(7)
    rho = np.exp(-np.sum(g.centers**2, axis=1))
    p = Density(g, rho / (rho.sum() * g.cell_volume))
    pts = sample(p, rng, size=5000)
    assert np.all(pts >= 0.0) and np.all(pts <= 1.0)


def test_sample_cell_frequencies():
    g = Grid(BoxDomain(0.0, 1.0), 64)
    rng = np.random.default_rng(11)
    rho = 1.0 + 0.9 * np.sin(2 * np.pi * g.centers[:, 0])
    p = Density(g, rho / (rho.sum() * g.cell_volume))
    N = 10**6
    pts = sample(p, rng, size=N)
    cells = np.minimum((pts[:, 0] * g.n).astype(int), g.n - 1)
    freq = np.bincount(cells, minlength=g.n_cells) / N
    target = p.values * g.cell_volume
    tol = 5.0 * np.sqrt(target / N)
    assert np.mean(np.abs(freq - target) < tol) >= 0.99


def test_eval_at(unit_grid):
    # Evaluating a grid function at a point reads the cell ``cell_index`` finds.
    f = GridFunction(unit_grid, np.arange(unit_grid.n_cells, dtype=float))
    assert f.values[unit_grid.cell_index(0.77)] == 788.0  # 0.77 * 1024 = 788.48
    assert unit_grid.cell_index(unit_grid.centers[5]) == 5
    with pytest.raises(DomainError):
        unit_grid.cell_index(1.5)


def test_eval_at_boundary_tie_rule():
    g = Grid(BoxDomain(0.0, 1.0), 10)
    # x = 0.3 sits on the boundary between cells 2 and 3 (not a dyadic point,
    # unlike the property tests' boundaries).
    assert g.cell_index(0.3) == 2
    assert g.cell_index(1.0) == 9
    assert g.cell_index(0.0) == 0


def test_ball_patch_volumes():
    g = Grid(BoxDomain(0.0, 1.0), 1000)
    w = g.cell_volume
    _, vol = ball_patch(g, 0.5, 0.5)
    assert abs(vol - 1.0) <= w
    _, vol = ball_patch(g, 0.0, 0.1)
    assert abs(vol - 0.1) <= 2 * w
    _, vol = ball_patch(g, 0.5, 0.1)
    assert abs(vol - 0.2) <= 2 * w


def test_ball_patch_monotone_and_covering():
    g = Grid(BoxDomain([0.0, 0.0], [1.0, 1.0]), 32)
    x = np.array([0.3, 0.8])
    prev = 0.0
    for delta in np.linspace(0.05, 1.5, 30):
        _, vol = ball_patch(g, x, delta)
        assert vol >= prev
        prev = vol
    _, vol = ball_patch(g, x, 10.0)
    slack = g.n ** (g.dim - 1) * g.cell_volume * g.dim
    assert abs(vol - g.domain.volume) <= slack


def test_ball_patch_empty_raises():
    g = Grid(BoxDomain(0.0, 1.0), 10)
    with pytest.raises(ResolutionError):
        # Radius far below the cell size, centered on a cell boundary.
        ball_patch(g, 0.2, 1e-6)
    with pytest.raises(DomainError):
        ball_patch(g, 0.2, -0.1)
