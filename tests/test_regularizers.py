import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualavg import (
    BoxDomain,
    Density,
    DomainError,
    Grid,
    GridFunction,
    NumericalError,
    burg,
    conjugate,
    energy,
    fenchel_coupling,
    hval,
    hvol,
    integrate,
    l1_distance,
    mirror,
    negentropy,
    pair,
    quadratic,
    regularizers,
    tsallis,
)
from dualavg.regularizers import _bisect_multiplier, ambient_distance

ALL_FAMILIES = [negentropy(), quadratic(), burg(), tsallis(0.5)]


@pytest.fixture
def grid():
    return Grid(BoxDomain(0.0, 1.0), 256)


def random_score(grid, rng, scale=2.0):
    return GridFunction(grid, rng.normal(0.0, scale, grid.n_cells))


def random_density(grid, rng):
    vals = np.abs(rng.normal(1.0, 0.7, grid.n_cells)) + 1e-3
    return Density(grid, vals / (vals.sum() * grid.cell_volume))


def test_regularizer_validation():
    with pytest.raises(ValueError):
        tsallis(1.5)
    with pytest.raises(ValueError):
        tsallis(0.0)
    from dualavg import Regularizer

    with pytest.raises(ValueError):
        Regularizer("negentropy", gamma=0.5)
    with pytest.raises(ValueError):
        Regularizer("nope")


def test_hval_examples(grid):
    uniform = Density.uniform(grid)
    assert hval(negentropy(), uniform) == pytest.approx(0.0, abs=1e-9)
    # Uniform density on a box of volume V.
    for V in (0.25, 1.0, 3.0):
        gV = Grid(BoxDomain(0.0, V), 128)
        u = Density.uniform(gV)
        assert hval(quadratic(), u) == pytest.approx(1.0 / (2.0 * V))
        assert hval(negentropy(), u) == pytest.approx(hvol(negentropy(), V), abs=1e-9)
        assert hval(negentropy(), u) == pytest.approx(-math.log(V), abs=1e-9)


def test_hval_infinite_cases(grid):
    half = np.zeros(grid.n_cells)
    half[: grid.n_cells // 2] = 2.0
    p = Density(grid, half)
    # theta(0) = 0 keeps the entropic value finite on supports with zeros...
    assert hval(negentropy(), p) == pytest.approx(math.log(2.0), abs=1e-9)
    assert np.isfinite(hval(tsallis(0.3), p))
    # ...but the Burg barrier blows up.
    assert hval(burg(), p) == math.inf
    with pytest.raises(DomainError):
        fenchel_coupling(burg(), p, GridFunction.constant(grid, 0.0))


def test_hvol_examples():
    assert hvol(negentropy(), 1.0) == 0.0
    assert hvol(negentropy(), math.exp(-1.0)) == pytest.approx(1.0)
    assert hvol(quadratic(), 0.5) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        hvol(negentropy(), 0.0)


def test_hvol_matches_uniform_subset_hval(grid):
    # h of the uniform density on k cells equals hvol(k * w).
    rng = np.random.default_rng(5)
    for reg in ALL_FAMILIES:
        for _ in range(5):
            k = int(rng.integers(8, grid.n_cells))
            cells = rng.choice(grid.n_cells, size=k, replace=False)
            p = Density.uniform_on_cells(grid, cells)
            z = k * grid.cell_volume
            if reg.family == "burg":
                continue  # infinite off-support
            assert hval(reg, p) == pytest.approx(hvol(reg, z), rel=1e-9, abs=1e-9)


def test_mirror_of_zero_is_uniform(grid):
    zero = GridFunction.constant(grid, 0.0)
    for reg in ALL_FAMILIES:
        q = mirror(reg, zero)
        assert np.allclose(q.values, 1.0 / grid.domain.volume, atol=1e-10)


def test_mirror_logit_shift_invariance(grid):
    rng = np.random.default_rng(1)
    y = random_score(grid, rng)
    q1 = mirror(negentropy(), y)
    q2 = mirror(negentropy(), y + 13.7)
    assert np.abs(q1.values - q2.values).max() < 1e-12


def test_mirror_logit_analytic(grid):
    gfine = Grid(BoxDomain(0.0, 1.0), 1024)
    y = GridFunction(gfine, gfine.centers[:, 0])
    q = mirror(negentropy(), y)
    expected = np.exp(gfine.centers[:, 0]) / (math.e - 1.0)
    assert np.abs(q.values - expected).max() < 1e-4


def test_mirror_density_invariants_adversarial(grid):
    rng = np.random.default_rng(2)
    spiky = np.zeros(grid.n_cells)
    spiky[7] = 500.0
    cases = [
        GridFunction(grid, rng.normal(0, 100, grid.n_cells)),  # large dynamic range
        GridFunction(grid, np.full(grid.n_cells, 3.14) + 1e-12 * rng.normal(size=grid.n_cells)),
        GridFunction(grid, spiky),
        GridFunction(grid, -spiky),
    ]
    block = GridFunction(grid, np.stack([y.values for y in cases]))
    for reg in ALL_FAMILIES:
        rows = mirror(reg, block).values  # a block maps each row as it maps alone
        for y, row in zip(cases, rows):
            q = mirror(reg, y)
            assert np.all(q.values >= 0.0)
            assert integrate(q) == pytest.approx(1.0, abs=1e-9)
            assert row.tobytes() == q.values.tobytes()


@pytest.mark.parametrize("reg", [burg(), tsallis(0.5), quadratic()], ids=lambda r: r.family)
@pytest.mark.parametrize("lower,upper,n", [(0.0, 1.0, 256), ([0.0, -1.0], [2.0, 1.0], 16)])
def test_mirror_leaves_its_scores_and_maps_each_row_alone(reg, lower, upper, n):
    # The Newton solves write into buffers of their own: the caller's scores
    # are left as they were, and a block row is the row mapped alone.
    grid = Grid(BoxDomain(lower, upper), n)
    rng = np.random.default_rng(17)
    scores = rng.normal(0.0, 3.0, (3, grid.n_cells))
    scores[1] += 1e6  # scores far from zero
    scores[2] = 0.25  # constant scores
    before = scores.tobytes()
    block = mirror(reg, GridFunction.unchecked(grid, scores)).values
    assert scores.tobytes() == before
    for row, mapped in zip(scores, block):
        alone = mirror(reg, GridFunction.unchecked(grid, row)).values
        assert mapped.tobytes() == alone.tobytes()
    assert scores.tobytes() == before


def test_mirror_rejects_a_block_row_it_cannot_normalise(grid):
    scores = np.zeros((2, grid.n_cells))
    scores[1, 3] = np.inf  # unchecked scores: mirror is the guard
    with pytest.raises(NumericalError, match="non-normalizable"), np.errstate(invalid="ignore"):
        mirror(negentropy(), GridFunction.unchecked(grid, scores))


def test_mirror_shift_invariant_at_large_offsets(grid):
    # base is rounded to the offset's spacing, so y and y + offset have bitwise
    # equal gaps max y - y, and Q(y + offset) must equal Q(y) bit for bit.
    rng = np.random.default_rng(12)
    for offset in (1e4, 1e6, 1e8):
        base = (rng.normal(0.0, 2.0, grid.n_cells) + offset) - offset
        for reg in ALL_FAMILIES:
            q = mirror(reg, GridFunction(grid, base))
            q_shifted = mirror(reg, GridFunction(grid, base + offset))
            assert np.array_equal(q.values, q_shifted.values)


def test_multiplier_solver_newton_count_and_root():
    # phi(x) = exp(-x) - 1/2 is convex and decreasing with root log 2.
    calls = []

    def phi(x):
        calls.append(x)
        return math.exp(-x) - 0.5

    root = _bisect_multiplier(phi, 0.0, 10.0, dphi=lambda x: -math.exp(-x))
    assert abs(root - math.log(2.0)) <= 1e-12
    assert root == calls[-1] and len(calls) <= 8


def test_multiplier_solver_raises_on_miss():
    # A jump across zero: no point has |phi| <= tol, so the bracket collapses.
    def step(x):
        return 0.5 if x < 1.0 else -0.5

    with pytest.raises(NumericalError, match="0.5"):
        _bisect_multiplier(step, 0.0, 2.0, dphi=lambda x: 0.0)
    # Too few iterations for a reachable root.
    with pytest.raises(NumericalError, match="tol"):
        _bisect_multiplier(lambda x: 1.0 / x - 1.0, 1e-3, 2.0, max_iter=2,
                           dphi=lambda x: -1.0 / (x * x))
    # A left end with phi < 0 is not a bracket.
    with pytest.raises(NumericalError, match="bracket"):
        _bisect_multiplier(lambda x: -1.0 - x, 0.0, 1.0, dphi=lambda x: -1.0)


def test_mirror_names_family_on_solver_miss(grid, monkeypatch):
    def miss(phi, lo, hi, tol=1e-12, max_iter=200, *, dphi):
        raise NumericalError("stopped")

    monkeypatch.setattr(regularizers, "_bisect_multiplier", miss)
    y = GridFunction.constant(grid, 0.0)
    for reg in (quadratic(), burg(), tsallis(0.5)):
        with pytest.raises(NumericalError, match=f"^{reg.family} mirror map: stopped"):
            mirror(reg, y)
    assert integrate(mirror(negentropy(), y)) == pytest.approx(1.0)


def _kkt_multiplier(reg, yv, q):
    """Multiplier of Q(y) from its optimality conditions, and their largest violation.

    Burg: 1/q + y = lam.  Quadratic: y - q = lam on the support, y <= lam off
    it.  Tsallis: q^(g-1) / (1-g) + y = mu, with mu = lam + 1/(g(1-g)).
    """
    if reg.family == "burg":
        k = 1.0 / q + yv
    elif reg.family == "quadratic":
        support = q > 0
        k = (yv - q)[support]
    else:
        g = reg.gamma
        k = q ** (g - 1.0) / (1.0 - g) + yv
    lam = float(np.median(k))
    violation = float(np.abs(k - lam).max())
    if reg.family == "quadratic" and not support.all():
        violation = max(violation, float((yv[~support] - lam).max()))
    return lam, violation


def _closed_form_conjugate(reg, yv, lam, w, vol):
    """h*(y) = lam + integral of theta*(y - lam), theta* the scalar conjugate."""
    if reg.family == "quadratic":
        return lam + 0.5 * w * float((np.maximum(yv - lam, 0.0) ** 2).sum())
    if reg.family == "burg":
        return lam - vol - w * float(np.log(lam - yv).sum())
    # In mu: theta*(y - lam) = ((1-g)(mu - y))^(g/(g-1)) / g.
    g = reg.gamma
    mu = lam
    return (mu - 1.0 / (g * (1.0 - g))
            + w * float((((1.0 - g) * (mu - yv)) ** (g / (g - 1.0))).sum()) / g)


@pytest.mark.parametrize("n", [256, 4096, 65536])
@pytest.mark.parametrize("reg", [quadratic(), burg(), tsallis(0.5)], ids=lambda r: r.family)
def test_mirror_kkt_and_closed_form_conjugate(reg, n):
    grid = Grid(BoxDomain(0.0, 2.0), n)
    rng = np.random.default_rng(n)
    x = grid.centers[:, 0]
    y = GridFunction(grid, 3.0 * np.sin(math.pi * x) + rng.normal(0.0, 0.5, n))
    yv = y.values
    q = mirror(reg, y)
    lam, violation = _kkt_multiplier(reg, yv, q.values)
    # The solver stops at |integral - 1| <= 1e-12, which shifts each KKT
    # quantity by about 1e-12 times its size.
    assert violation <= 1e-11 * (1.0 + abs(lam) + float(np.abs(yv).max()))
    if reg.family == "quadratic":
        assert 0 < np.count_nonzero(q.values) < n  # the support is a strict subset
    closed = _closed_form_conjugate(reg, yv, lam, grid.cell_volume, grid.domain.volume)
    assert conjugate(reg, y) == pytest.approx(closed, rel=1e-10, abs=1e-12)


def _counting_solver():
    """A stand-in for ``_bisect_multiplier`` that counts phi evaluations per solve."""
    solve = regularizers._bisect_multiplier
    counts = []

    def counted(phi, lo, hi, *args, **kwargs):
        counts.append(0)

        def counted_phi(x):
            counts[-1] += 1
            return phi(x)

        return solve(counted_phi, lo, hi, *args, **kwargs)

    return counted, counts


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(["burg", "tsallis"]),
    gamma=st.floats(0.05, 0.95),
    dim=st.integers(1, 2),
    n=st.integers(1, 48),
    lengths=st.lists(st.floats(0.05, 20.0), min_size=2, max_size=2),
    scale=st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
    offset=st.floats(-1e3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_mirror_kkt_property(family, gamma, dim, n, lengths, scale, offset, seed):
    reg = burg() if family == "burg" else tsallis(gamma)
    grid = Grid(BoxDomain([0.0] * dim, lengths[:dim]), n)
    yv = offset + scale * np.random.default_rng(seed).standard_normal(grid.n_cells)
    counted, counts = _counting_solver()
    with mock.patch.object(regularizers, "_bisect_multiplier", counted):
        q = mirror(reg, GridFunction(grid, yv))
    assert len(counts) == 1
    assert integrate(q) == pytest.approx(1.0, abs=1e-12)
    lam, violation = _kkt_multiplier(reg, yv, q.values)
    assert violation <= 1e-11 * (1.0 + abs(lam) + float(np.abs(yv).max()))
    if scale == 0.0:
        # Constant scores: the uniform density, from at most 3 phi evaluations.
        assert counts[0] <= 3
        assert np.allclose(q.values, 1.0 / grid.domain.volume, rtol=1e-12, atol=0.0)


def test_conjugate_examples(grid):
    zero = GridFunction.constant(grid, 0.0)
    assert conjugate(negentropy(), zero) == pytest.approx(0.0, abs=1e-12)
    assert conjugate(negentropy(), GridFunction.constant(grid, 2.5)) == pytest.approx(2.5)
    assert conjugate(quadratic(), zero) == pytest.approx(-0.5, abs=1e-9)
    # h*(0) = -min h for every family.
    for reg in ALL_FAMILIES:
        assert conjugate(reg, zero) == pytest.approx(
            -hvol(reg, grid.domain.volume), abs=1e-8
        )


def test_fenchel_coupling_examples(grid):
    rng = np.random.default_rng(3)
    zero = GridFunction.constant(grid, 0.0)
    assert fenchel_coupling(negentropy(), Density.uniform(grid), zero) == pytest.approx(
        0.0, abs=1e-12
    )
    half = np.zeros(grid.n_cells)
    half[: grid.n_cells // 2] = 2.0
    p_half = Density(grid, half)
    assert fenchel_coupling(negentropy(), p_half, zero) == pytest.approx(
        math.log(2.0), abs=1e-6
    )
    for reg in ALL_FAMILIES:
        y = random_score(grid, rng)
        assert fenchel_coupling(reg, mirror(reg, y), y) == pytest.approx(0.0, abs=1e-8)


def test_energy_examples(grid):
    zero = GridFunction.constant(grid, 0.0)
    assert energy(negentropy(), Density.uniform(grid), zero, 1.0) == 0.0
    half = np.zeros(grid.n_cells)
    half[: grid.n_cells // 2] = 2.0
    assert energy(negentropy(), Density(grid, half), zero, 2.0) == pytest.approx(
        math.log(2.0) / 2.0, abs=1e-6
    )
    rng = np.random.default_rng(4)
    y = random_score(grid, rng)
    eta = 0.37
    mu = mirror(negentropy(), eta * y)
    assert energy(negentropy(), mu, y, eta) == pytest.approx(0.0, abs=1e-8)
    with pytest.raises(DomainError):
        energy(negentropy(), mu, y, 0.0)


def test_fenchel_young_inequality(grid):
    rng = np.random.default_rng(6)
    for reg in ALL_FAMILIES:
        for _ in range(50):
            y = random_score(grid, rng)
            p = random_density(grid, rng)
            F = fenchel_coupling(reg, p, y)
            assert F >= -1e-8
            # Equality only at the mirror point: a perturbed mirror has F > 0.
            q = mirror(reg, y)
            if l1_distance(p, q) > 0.05:
                assert F > 1e-8


def test_strong_convexity_lower_bound(grid):
    rng = np.random.default_rng(7)
    for reg in (negentropy(), quadratic()):
        for _ in range(100):
            y = random_score(grid, rng)
            p = random_density(grid, rng)
            F = fenchel_coupling(reg, p, y)
            dist = ambient_distance(reg, mirror(reg, y), p)
            assert F >= 0.5 * reg.modulus * dist**2 - 1e-9


def test_three_point_identity(grid):
    rng = np.random.default_rng(8)
    for reg in ALL_FAMILIES:
        for _ in range(25):
            y = random_score(grid, rng)
            y2 = random_score(grid, rng)
            p = random_density(grid, rng)
            q = mirror(reg, y)
            lhs = fenchel_coupling(reg, p, y2)
            rhs = (
                fenchel_coupling(reg, p, y)
                + fenchel_coupling(reg, q, y2)
                + pair(y2 - y, GridFunction(grid, q.values - p.values))
            )
            assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-7)


def test_key_inequality(grid):
    rng = np.random.default_rng(9)
    for reg in (negentropy(), quadratic()):
        kappa = reg.kappa(grid.domain.volume)
        for _ in range(100):
            y = random_score(grid, rng)
            w = random_score(grid, rng, scale=0.8)
            p = random_density(grid, rng)
            q = mirror(reg, y)
            lhs = fenchel_coupling(reg, p, y + w)
            rhs = (
                fenchel_coupling(reg, p, y)
                + pair(w, GridFunction(grid, q.values - p.values))
                + np.abs(w.values).max() ** 2 * kappa**2 / (2.0 * reg.modulus)
            )
            assert lhs <= rhs + 1e-8


def test_logsumexp_second_order_bound(grid):
    rng = np.random.default_rng(10)
    reg = negentropy()
    for _ in range(50):
        y = random_score(grid, rng)
        w = random_score(grid, rng, scale=1.5)
        lhs = conjugate(reg, y + w)
        base = conjugate(reg, y) + pair(w, mirror(reg, y))
        w2 = w * w
        quad = max(
            pair(w2, mirror(reg, y + float(xi) * w)) for xi in np.linspace(0.0, 1.0, 64)
        )
        assert lhs <= base + 0.5 * quad + 1e-8


def test_kappa_and_modulus_declarations():
    assert negentropy().modulus == 1.0 and negentropy().norm == "tv"
    assert quadratic().modulus == 1.0 and quadratic().norm == "l2"
    assert burg().modulus is None
    assert tsallis(0.7).modulus is None
    assert negentropy().kappa(4.0) == 1.0
    assert quadratic().kappa(4.0) == pytest.approx(2.0)
