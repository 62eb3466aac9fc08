import numpy as np
import pytest

from dualavg import (
    BanditChannel,
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
    mirror,
    mixed_strategy,
    negentropy,
    pair,
    run_bda,
    run_da,
    static_regret,
    to_payoff,
)
from dualavg.grids import draw_cell
from tests.test_regret import ConstantStream


@pytest.fixture
def grid():
    return Grid(BoxDomain(0.0, 1.0), 512)


def payoff_stream(grid, seed=0):
    return to_payoff(default_trig_stream(grid, seed=seed))


def test_mixed_strategy_extremes(grid):
    rng = np.random.default_rng(0)
    x = mirror(negentropy(), GridFunction(grid, rng.normal(0, 3, grid.n_cells)))
    assert np.allclose(mixed_strategy(x, 1.0).values, 1.0, atol=1e-12)
    assert np.array_equal(mixed_strategy(x, 0.0).values, x.values)
    with pytest.raises(DomainError):
        mixed_strategy(x, 1.5)


def test_mirror_is_the_one_logit(grid):
    # The negentropy mirror map is exp(y - max y) divided once by its
    # integral, bit for bit, row by row.
    rng = np.random.default_rng(3)
    block = rng.normal(0, 5, (50, grid.n_cells))
    x = mirror(negentropy(), GridFunction(grid, block)).values
    for row, x_r in zip(block, x):
        z = np.exp(row - row.max())
        assert np.array_equal(x_r, z / (z.sum() * grid.cell_volume))


def test_mixed_strategy_floor_and_sup_gap(grid):
    rng = np.random.default_rng(1)
    vol = grid.domain.volume
    block = rng.normal(0, 5, (20, grid.n_cells))
    for row in block:
        y = GridFunction(grid, row)
        eps = float(rng.uniform(0.01, 0.9))
        base = mirror(negentropy(), y)
        x = Density(grid, mixed_strategy(base, eps).values)
        assert x.values.min() >= eps / vol - 1e-12
        # Exact mixing identity: |x - x_tilde| = eps * |x_tilde - 1/vol|.
        gap = np.abs(x.values - base.values).max()
        ident = eps * np.abs(base.values - 1.0 / vol).max()
        assert gap == pytest.approx(ident, abs=1e-12)
        assert gap <= eps * (base.values.max() + 1.0 / vol) + 1e-12
        # Integrated against any [0,1] payoff the gap is <= eps*(1 + 1/vol),
        # which is what the policy-swap argument consumes.
        u = GridFunction(grid, rng.uniform(0.0, 1.0, grid.n_cells))
        assert abs(pair(u, x) - pair(u, base)) <= eps * (1.0 + 1.0 / vol) + 1e-12
    # A block of strategies is mixed row by row, bit for bit.
    logits = mirror(negentropy(), GridFunction(grid, 0.7 * block))
    mixed = mixed_strategy(logits, 0.2).values
    for logit_r, mixed_r in zip(logits.values, mixed):
        assert np.array_equal(mixed_strategy(Density(grid, logit_r), 0.2).values, mixed_r)


def test_kernel_zero_payoff_and_guard(grid):
    support, value = kernel_estimate(grid, np.array([0.4]), 0.0, 1.0, 0.1)
    assert value == 0.0 and support.size > 0
    with pytest.raises(DomainError):
        kernel_estimate(grid, np.array([0.4]), 1.5, 1.0, 0.1)
    point_mass = Density.uniform_on_cells(grid, [3])
    density_there = point_mass.values[grid.cell_index(0.9)]
    with pytest.raises(DomainError):
        kernel_estimate(grid, np.array([0.9]), 0.5, density_there, 0.1)


def test_kernel_support_value_oracle():
    # Uniform strategy on [0,1], delta=0.1 at x=0.5: value = 1/(0.2 * 1) = 5.
    g = Grid(BoxDomain(0.0, 1.0), 1000)
    support, value = kernel_estimate(g, np.array([0.5]), 1.0, 1.0, 0.1)
    assert value == pytest.approx(5.0, abs=0.05)
    inside = np.nonzero(np.abs(g.centers[:, 0] - 0.5) <= 0.1)[0]
    assert np.array_equal(support, inside)


def test_kernel_normalization_random_points(grid):
    # The kernel integrates to one on the grid, so under the uniform strategy
    # (density 1 on [0,1]) the model integrates to the payoff.
    rng = np.random.default_rng(2)
    w = grid.cell_volume
    for _ in range(100):
        x = rng.uniform(0.0, 1.0, size=1)
        delta = float(rng.uniform(3 * grid.cell_diameter, 0.6))
        support, value = kernel_estimate(grid, x, 0.5, 1.0, delta)
        assert value * support.size * w == pytest.approx(0.5, abs=1e-9)
    # Boundary-clipped patches as well.
    for x0 in (0.0, 1.0):
        support, value = kernel_estimate(grid, np.array([x0]), 0.5, 1.0, 0.05)
        assert value * support.size * w == pytest.approx(0.5, abs=1e-9)


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
        _, val = kernel_estimate(g, x_draw, u_vals[cell], strategy.values[cell], delta)
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
    x_tilde = mirror(negentropy(), y).values
    x = Density(g, mixed_strategy(Density(g, x_tilde), eps).values)
    from dualavg import sample

    N = 10**4
    draws = sample(x, rng, size=N)
    w = g.cell_volume

    def measured_moment(delta):
        acc = 0.0
        for i in range(N):
            cell = g.cell_index(draws[i])
            support, val = kernel_estimate(g, draws[i], u_vals[cell], x.values[cell], delta)
            acc += float(x_tilde[support].sum() * w) * val * val
        return acc / N

    m1 = measured_moment(0.2)
    m2 = measured_moment(0.1)
    assert m2 / m1 == pytest.approx(2.0, rel=0.3)


def test_run_bda_constant_payoff_zero_regret(grid):
    class ConstPayoff(ConstantStream):
        payoff_convention = True

    stream = ConstPayoff(grid, 0.6)
    [trace] = run_bda(stream, BDAConfig.defaults(grid), 40, [np.random.default_rng(7)])
    for tau in (1, 10, 40):
        assert static_regret(trace, tau) == pytest.approx(0.0, abs=1e-9)


def test_run_bda_covering_kernel_keeps_uniform(grid):
    # A ball that covers X adds the same value to every cell's score, so the
    # strategy stays uniform and the expected payoff is the mean payoff.
    stream = payoff_stream(grid, seed=8)
    config = BDAConfig(
        eta=Schedule(1.0, 0.75),
        delta=Schedule(5.0, 0.0),  # ball covers X
        eps=Schedule(0.5, 0.25),
    )
    [trace] = run_bda(stream, config, 30, [np.random.default_rng(8)])
    means = [stream.values(t).mean() for t in range(1, 31)]
    np.testing.assert_allclose(trace.expected, means, rtol=0, atol=1e-12)


def replay_strategies(grid, stream, config, T, rng):
    """Independent replay of T rounds of one-seed BDA drawing from ``rng``.

    Draws each round's cell with ``draw_cell`` on the cumulative sums of the
    played density and a uniform point in it, rebuilds the scores from the
    kernel models around those points and yields ``(t, eps, base, vals, f,
    cell)``: the plain logit ``base``, its exploration mix ``vals``, the
    payoff ``f`` of round ``t`` and the drawn cell.
    """
    w, u = grid.cell_volume, 1.0 / grid.domain.volume
    channel = BanditChannel(config.delta)
    y = np.zeros(grid.n_cells)
    for t in range(1, T + 1):
        eta, eps = config.eta(t), config.eps(t)
        z = np.exp(eta * y - (eta * y).max())
        base = z / (z.sum() * w)
        vals = (1.0 - eps) * base + eps * u
        f = stream.values(t)
        cell = draw_cell(np.cumsum(vals), rng.random())
        point = grid.centers[cell] + (rng.random(grid.dim) - 0.5) * grid.steps
        yield t, eps, base, vals, f, cell
        support, volume = ball_patch(grid, point, channel.radius(grid, t))
        y[support] += f[cell] / (volume * vals[cell])


def test_run_bda_strategy_floor_and_swap_bound(grid):
    stream = payoff_stream(grid, seed=9)
    config = BDAConfig.defaults(grid)
    [trace] = run_bda(stream, config, 500, [np.random.default_rng(10)])
    w, u = grid.cell_volume, 1.0 / grid.domain.volume
    unmixed_gap = swap_gap = 0.0
    for t, eps, base, vals, f, _ in replay_strategies(grid, stream, config, 500,
                                                      np.random.default_rng(10)):
        # The recorded value is that of the eps_t mix of the replayed logit.
        assert trace.expected[t - 1] == pytest.approx(f @ vals * w, abs=1e-12)
        assert vals.min() >= eps * u - 1e-12
        unmixed_gap += f @ base * w - trace.expected[t - 1]
        swap_gap += eps * np.abs(base - u).max()
    # Policy-swap bound: playing the mix instead of the logit costs at most
    # eps_t * sup |logit - uniform| per round against a [0, 1] payoff; the
    # best-point terms of the two regrets cancel.
    assert abs(unmixed_gap) <= swap_gap + 1e-6


def test_run_bda_replay_matches_trace_and_diagnostics():
    # Every per-round record of run_bda equals the independent replay of its
    # strategy bit for bit.
    grid = Grid(BoxDomain(0.0, 2.0), 64)
    stream = payoff_stream(grid, seed=21)
    config = BDAConfig.defaults(grid, eta_coef=3.0)
    [trace] = run_bda(stream, config, 60, [np.random.default_rng(22)])
    w = grid.cell_volume
    channel = BanditChannel(config.delta)
    # The expected value checks the eps_t mix bit for bit, and the realized
    # value the replay's draw.
    for t, _, base, vals, f, cell in replay_strategies(grid, stream, config, 60,
                                                       np.random.default_rng(22)):
        assert trace.realized[t - 1] == f[cell]
        assert trace.expected[t - 1] == f @ vals * w
        assert channel.radius(grid, t) == max(config.delta(t), 2.0 * grid.cell_diameter)
    assert channel.floor_rounds(grid, 60) == 0


def test_run_bda_requires_payoff_convention(grid):
    with pytest.raises(ConfigError):
        run_bda(default_trig_stream(grid, seed=11), BDAConfig.defaults(grid),
                5, [np.random.default_rng(12)])


def test_run_bda_determinism(grid):
    stream = payoff_stream(grid, seed=13)
    cfg = BDAConfig.defaults(grid)
    [t1] = run_bda(stream, cfg, 100, [np.random.default_rng(99)])
    [t2] = run_bda(stream, cfg, 100, [np.random.default_rng(99)])
    assert np.array_equal(t1.realized, t2.realized)
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
    assert all(0 < cfg.eps(t) <= 1 for t in (1, 10, 10**6))
    # The bandit channel floors the radius at twice the cell diameter and counts the
    # rounds where the schedule fell below it.
    floor = 2 * grid.cell_diameter
    channel = BanditChannel(Schedule(4 * floor, 1.0))
    assert [channel.radius(grid, t) for t in range(1, 11)] == [
        max(channel.delta(t), floor) for t in range(1, 11)]
    assert channel.floor_rounds(grid, 10) == 6  # 4 * floor / t < floor for t > 4
    assert channel.floor_rounds(grid, 4) == 0


@pytest.mark.parametrize("n, d", [(64, 1), (1024, 1), (16, 2), (8, 3)])
def test_floor_rounds_is_the_per_round_count(n, d):
    grid = Grid(BoxDomain([0.0] * d, [1.0] * d), n)
    floor = 2 * grid.cell_diameter
    schedules = [Schedule(0.25, 0.25), Schedule(4 * floor, 1.0), Schedule(floor, 0.5),
                 Schedule(floor, 0.0), Schedule(0.5 * floor, 0.0), Schedule(3.0, 0.3)]
    for schedule in schedules:
        channel = BanditChannel(schedule)
        for T in (1, 2, 3, 17, 1000):
            assert channel.floor_rounds(grid, T) == sum(
                schedule(t) < floor for t in range(1, T + 1)), (schedule, T)


def test_floor_rounds_at_a_million_rounds():
    grid = Grid(BoxDomain(0.0, 1.0), 64)
    floor = 2 * grid.cell_diameter
    delta = Schedule(0.25, 0.25)
    # The floor binds after t = (0.25 / floor)^4 = 4096 rounds.
    count = sum(delta(t) < floor for t in range(1, 10**6 + 1))
    assert 0 < count < 10**6
    assert BanditChannel(delta).floor_rounds(grid, 10**6) == count


def test_bda_no_exploration_mode(grid):
    # Without exploration the learner plays the logit itself: run_da with the
    # bandit channel and no eps schedule.
    stream = payoff_stream(grid, seed=14)
    cfg = BDAConfig(
        eta=Schedule(1.0, 0.75),
        delta=Schedule(0.25, 0.25),
        eps=None,
    )
    [trace] = run_bda(stream, cfg, 50, [np.random.default_rng(15)])
    [plain] = run_da(negentropy(), stream, BanditChannel(cfg.delta), cfg.eta, 50,
                     [np.random.default_rng(15)])
    for name in ("expected", "realized"):
        assert np.array_equal(getattr(trace, name), getattr(plain, name)), name
