import numpy as np
import pytest

from dualavg import (
    BDAConfig,
    BoxDomain,
    ConfigError,
    Density,
    DomainError,
    Grid,
    GridFunction,
    Schedule,
    ball_patch,
    default_trig_stream,
    integrate,
    kernel_estimate,
    mixed_strategy,
    pair,
    run_bda,
    static_regret,
    to_payoff,
)
from tests.test_regret import ConstantStream


@pytest.fixture
def grid():
    return Grid(BoxDomain(0.0, 1.0), 512)


def payoff_stream(grid, seed=0):
    return to_payoff(default_trig_stream(grid, seed=seed))


def test_mixed_strategy_extremes(grid):
    rng = np.random.default_rng(0)
    y = GridFunction(grid, rng.normal(0, 3, grid.n_cells))
    full_explore = mixed_strategy(y, eta=1.0, eps=1.0)
    assert np.allclose(full_explore.values, 1.0, atol=1e-12)
    no_explore = mixed_strategy(GridFunction.constant(grid, 0.0), eta=1.0, eps=0.0)
    assert np.allclose(no_explore.values, 1.0, atol=1e-10)
    with pytest.raises(DomainError):
        mixed_strategy(y, eta=1.0, eps=1.5)


def test_mixed_strategy_floor_and_sup_gap(grid):
    from dualavg import mirror, negentropy

    rng = np.random.default_rng(1)
    vol = grid.domain.volume
    for _ in range(20):
        y = GridFunction(grid, rng.normal(0, 5, grid.n_cells))
        eps = float(rng.uniform(0.01, 0.9))
        x = mixed_strategy(y, eta=1.0, eps=eps)
        assert x.values.min() >= eps / vol - 1e-12
        base = mirror(negentropy(), y)
        # Exact mixing identity: |x - x_tilde| = eps * |x_tilde - 1/vol|.
        gap = np.abs(x.values - base.values).max()
        ident = eps * np.abs(base.values - 1.0 / vol).max()
        assert gap == pytest.approx(ident, abs=1e-12)
        assert gap <= eps * (base.values.max() + 1.0 / vol) + 1e-12
        # Integrated against any [0,1] payoff the gap is <= eps*(1 + 1/vol),
        # which is what the policy-swap argument consumes.
        u = GridFunction(grid, rng.uniform(0.0, 1.0, grid.n_cells))
        assert abs(pair(u, x) - pair(u, base)) <= eps * (1.0 + 1.0 / vol) + 1e-12


def test_kernel_zero_payoff_and_guard(grid):
    uniform = Density.uniform(grid)
    model = kernel_estimate(np.array([0.4]), 0.0, uniform, 0.1)
    assert model.value == 0.0
    assert np.all(model.to_grid_function().values == 0.0)
    with pytest.raises(DomainError):
        kernel_estimate(np.array([0.4]), 1.5, uniform, 0.1)
    point_mass = Density.uniform_on_cells(grid, [3])
    with pytest.raises(DomainError):
        kernel_estimate(np.array([0.9]), 0.5, point_mass, 0.1)


def test_kernel_support_value_oracle():
    # Uniform strategy on [0,1], delta=0.1 at x=0.5: value = 1/(0.2 * 1) = 5.
    g = Grid(BoxDomain(0.0, 1.0), 1000)
    model = kernel_estimate(np.array([0.5]), 1.0, Density.uniform(g), 0.1)
    assert model.value == pytest.approx(5.0, abs=0.05)
    f = model.to_grid_function()
    outside = np.setdiff1d(np.arange(g.n_cells), model.support)
    assert np.all(f.values[outside] == 0.0)


def test_kernel_normalization_random_points(grid):
    rng = np.random.default_rng(2)
    uniform = Density.uniform(grid)
    for _ in range(100):
        x = rng.uniform(0.0, 1.0, size=1)
        delta = float(rng.uniform(3 * grid.cell_diameter, 0.6))
        model = kernel_estimate(x, 0.5, uniform, delta)
        assert integrate(model.kernel()) == pytest.approx(1.0, abs=1e-9)
    # Boundary-clipped patches as well.
    for x0 in (0.0, 1.0):
        model = kernel_estimate(np.array([x0]), 0.5, uniform, 0.05)
        assert integrate(model.kernel()) == pytest.approx(1.0, abs=1e-9)


def test_importance_weighting_identity():
    # E_{X ~ strategy}[v_hat(x0)] recovers the delta-smoothed payoff at x0,
    # hence lies within L*delta of the true payoff (plus CLT noise).
    g = Grid(BoxDomain(0.0, 1.0), 512)
    stream = payoff_stream(g, seed=3)
    u_vals = stream.values(1)
    rng = np.random.default_rng(4)
    raw = 1.0 + 0.8 * np.sin(4 * np.pi * g.centers[:, 0])
    strategy = Density(g, raw / (raw.sum() * g.cell_volume))
    delta = 0.07
    N = 20000
    from dualavg import sample

    draws = sample(strategy, rng, size=N)
    probes = [0.21, 0.52, 0.83]
    estimates = {x0: np.zeros(N) for x0 in probes}
    centers = g.centers[:, 0]
    probe_cells = {x0: g.cell_index(x0) for x0 in probes}
    for i in range(N):
        x_draw = draws[i]
        cell = g.cell_index(x_draw)
        support, vol = ball_patch(g, x_draw, delta)
        val = u_vals[cell] / (vol * strategy.values[cell])
        for x0 in probes:
            if abs(centers[probe_cells[x0]] - x_draw[0]) <= delta:
                estimates[x0][i] = val
    for x0 in probes:
        mean = estimates[x0].mean()
        sd = estimates[x0].std(ddof=1) / np.sqrt(N)
        truth = u_vals[probe_cells[x0]]
        assert abs(mean - truth) <= stream.L * delta + 4 * sd


def test_second_moment_scaling_in_delta():
    # Halving delta doubles the measured second moment (d = 1).
    g = Grid(BoxDomain(0.0, 1.0), 512)
    stream = payoff_stream(g, seed=5)
    u_vals = stream.values(1)
    rng = np.random.default_rng(6)
    y = GridFunction(g, rng.normal(0, 1, g.n_cells))
    eps = 0.3
    x = mixed_strategy(y, eta=1.0, eps=eps)
    from dualavg import mirror, negentropy, sample

    x_tilde = mirror(negentropy(), y)
    N = 10**4
    draws = sample(x, rng, size=N)
    w = g.cell_volume

    def measured_moment(delta):
        acc = 0.0
        for i in range(N):
            cell = g.cell_index(draws[i])
            support, vol = ball_patch(g, draws[i], delta)
            val = u_vals[cell] / (vol * x.values[cell])
            acc += float(x_tilde.values[support].sum() * w) * val * val
        return acc / N

    m1 = measured_moment(0.2)
    m2 = measured_moment(0.1)
    assert m2 / m1 == pytest.approx(2.0, rel=0.3)


def test_run_bda_constant_payoff_zero_regret(grid):
    class ConstPayoff(ConstantStream):
        payoff_convention = True

    stream = ConstPayoff(grid, 0.6)
    trace = run_bda(grid, stream, BDAConfig.defaults(grid), 40, np.random.default_rng(7))
    for tau in (1, 10, 40):
        assert static_regret(trace, tau) == pytest.approx(0.0, abs=1e-9)


def test_run_bda_covering_kernel_keeps_uniform(grid):
    class ConstPayoff(ConstantStream):
        payoff_convention = True

    stream = ConstPayoff(grid, 0.8)
    config = BDAConfig(
        eta=Schedule(1.0, 0.75),
        delta=Schedule(5.0, 0.0, floor=2 * grid.cell_diameter),  # ball covers X
        eps=Schedule(0.5, 0.25),
    )
    trace = run_bda(grid, stream, config, 30, np.random.default_rng(8))
    vol = grid.domain.volume
    assert np.allclose(trace.extras["strategy_min"], 1.0 / vol, atol=1e-9)
    assert np.allclose(trace.expected, 0.8, atol=1e-12)


def test_run_bda_strategy_floor_and_swap_bound(grid):
    stream = payoff_stream(grid, seed=9)
    trace = run_bda(grid, stream, BDAConfig.defaults(grid), 500, np.random.default_rng(10))
    vol = grid.domain.volume
    eps = trace.extras["eps"]
    assert np.all(trace.extras["strategy_min"] >= eps / vol - 1e-12)
    # Policy-swap regret bound against the recorded models: the best-point
    # terms cancel, leaving the expected-payoff gap between policies.
    gap = abs(float((trace.extras["expected_unmixed"] - trace.expected).sum()))
    assert gap <= float(trace.extras["swap_gap"].sum()) + 1e-6


def test_run_bda_replay_matches_trace_and_diagnostics():
    # Independent one-seed replay: the strategy of each round from the plain
    # logit + exploration formula over the scores rebuilt from the trace, and
    # every per-round record and diagnostic of run_bda equal to it bit for bit.
    grid = Grid(BoxDomain(0.0, 2.0), 64)
    stream = payoff_stream(grid, seed=21)
    config = BDAConfig.defaults(grid, eta_coef=3.0)
    trace = run_bda(grid, stream, config, 60, np.random.default_rng(22))
    w, u = grid.cell_volume, 1.0 / grid.domain.volume
    y = np.zeros(grid.n_cells)
    for t in range(1, 61):
        eta, eps, delta = config.eta(t), config.eps_at(t), trace.extras["delta"][t - 1]
        z = np.exp(eta * y - (eta * y).max())
        base = z / (z.sum() * w)
        vals = (1.0 - eps) * base + eps * u
        f = stream.values(t)
        cell = grid.cell_index(trace.actions[t - 1])
        assert trace.realized[t - 1] == f[cell]
        assert trace.expected[t - 1] == f @ vals * w
        assert trace.extras["expected_unmixed"][t - 1] == f @ base * w
        assert trace.extras["swap_gap"][t - 1] == eps * np.abs(base - u).max()
        assert trace.extras["strategy_min"][t - 1] == vals.min()
        assert delta == max(config.delta(t), 2.0 * grid.cell_diameter)
        support, volume = ball_patch(grid, trace.actions[t - 1], delta)
        y[support] += f[cell] / (volume * vals[cell])


def test_run_bda_requires_payoff_convention(grid):
    with pytest.raises(ConfigError):
        run_bda(grid, default_trig_stream(grid, seed=11), BDAConfig.defaults(grid),
                5, np.random.default_rng(12))


def test_run_bda_determinism(grid):
    stream = payoff_stream(grid, seed=13)
    cfg = BDAConfig.defaults(grid)
    t1 = run_bda(grid, stream, cfg, 100, np.random.default_rng(99))
    t2 = run_bda(grid, stream, cfg, 100, np.random.default_rng(99))
    assert np.array_equal(t1.actions, t2.actions)
    assert np.array_equal(t1.expected, t2.expected)


def test_bda_config_validation(grid):
    with pytest.raises(ConfigError):
        BDAConfig(
            eta=Schedule(1.0, 0.75),
            delta=Schedule(0.25, 0.25),
            eps=Schedule(1.5, 0.25),
        )
    cfg = BDAConfig.defaults(grid)
    assert cfg.eta.exponent == pytest.approx(0.75)
    assert cfg.delta.exponent == pytest.approx(0.25)
    assert cfg.eps.exponent == pytest.approx(0.25)
    assert cfg.delta.floor == pytest.approx(2 * grid.cell_diameter)
    # Schedules never fall below their floors / stay in range.
    assert all(cfg.delta(t) >= cfg.delta.floor for t in (1, 10, 10**6))
    assert all(0 < cfg.eps_at(t) <= 1 for t in (1, 10, 10**6))


def test_bda_no_exploration_mode(grid):
    stream = payoff_stream(grid, seed=14)
    cfg = BDAConfig(
        eta=Schedule(1.0, 0.75),
        delta=Schedule(0.25, 0.25, floor=2 * grid.cell_diameter),
        eps=None,
    )
    trace = run_bda(grid, stream, cfg, 50, np.random.default_rng(15))
    assert np.all(trace.extras["eps"] == 0.0)
    assert np.all(trace.extras["strategy_min"] > 0.0)
