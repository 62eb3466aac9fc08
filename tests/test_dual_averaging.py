import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualavg import (
    BDAConfig,
    BoxDomain,
    ConfigError,
    Density,
    EnergyDiagnostics,
    ExactChannel,
    Grid,
    GridFunction,
    Schedule,
    TrigStream,
    UnbiasedChannel,
    BanditChannel,
    BiasedChannel,
    default_trig_stream,
    DomainError,
    mirror,
    mixed_strategy,
    negentropy,
    quadratic,
    run_bda,
    run_da,
    run_exp3,
    run_uniform,
    static_regret,
    to_payoff,
    tsallis,
)
from dualavg import grids
from dualavg.config import ExperimentConfig, run_seed
from dualavg.grids import draw_cell, sampling_cdf
from tests.test_grid_properties import draw_one_round
from tests.test_regret import ConstantStream


@pytest.fixture
def grid():
    return Grid(BoxDomain(0.0, 1.0), 256)


def test_initial_strategy_is_uniform(grid):
    # y_1 = 0, so round 1 plays the uniform density under every regularizer.
    stream = default_trig_stream(grid, seed=1)
    f = stream.values(1)
    for reg in (negentropy(), quadratic(), tsallis(0.5)):
        [trace] = run_da(reg, stream, ExactChannel(), Schedule(1.0, 0.5), 1,
                         [np.random.default_rng(0)])
        assert trace.expected[0] == pytest.approx(f.mean(), abs=1e-10)


def test_logit_constant_shift_invariance(grid):
    rng = np.random.default_rng(0)
    y = rng.normal(size=grid.n_cells)
    x1 = mirror(negentropy(), GridFunction(grid, y))
    x2 = mirror(negentropy(), GridFunction(grid, y + 42.0))
    assert np.abs(x1.values - x2.values).max() < 1e-12


def test_strategy_analytic_oracle():
    g = Grid(BoxDomain(0.0, 1.0), 1024)
    x = mirror(negentropy(), GridFunction(g, g.centers[:, 0]))
    expected = np.exp(g.centers[:, 0]) / (math.e - 1.0)
    assert np.abs(x.values - expected).max() < 1e-4


def _logit_replay(grid, stream, eta, T, sign):
    """Expected values of playing exp(eta_t * y_t) with y_1 = 0, y_{t+1} = y_t + sign * f_t."""
    w = grid.cell_volume
    y = np.zeros(grid.n_cells)
    expected = []
    for t in range(1, T + 1):
        z = np.exp(eta(t) * y - (eta(t) * y).max())
        f = stream.values(t)
        expected.append(f @ z / z.sum())
        y += sign * f
    return np.array(expected)


def test_da_step_semantics(grid):
    # Loss streams: y_{t+1} = y_t - model_t, checked against an independent
    # replay of the scores through run_da's expected values.
    stream = default_trig_stream(grid, seed=12, drift_rate=0.3)
    eta = Schedule(2.0, 0.5)
    [trace] = run_da(negentropy(), stream, ExactChannel(), eta, 30,
                     [np.random.default_rng(1)])
    np.testing.assert_allclose(trace.expected, _logit_replay(grid, stream, eta, 30, -1.0),
                               rtol=0, atol=1e-12)


def test_payoff_convention_adds(grid):
    stream = to_payoff(default_trig_stream(grid, seed=12, drift_rate=0.3))
    eta = Schedule(2.0, 0.5)
    [trace] = run_da(negentropy(), stream, ExactChannel(), eta, 30,
                     [np.random.default_rng(1)])
    np.testing.assert_allclose(trace.expected, _logit_replay(grid, stream, eta, 30, 1.0),
                               rtol=0, atol=1e-12)
    # The same scores with the loss sign would play a different sequence.
    assert np.abs(trace.expected - _logit_replay(grid, stream, eta, 30, -1.0)).max() > 1e-3


def test_constant_stream_zero_regret_every_horizon(grid):
    stream = ConstantStream(grid, 1.3)
    [trace] = run_da(
        negentropy(), stream, ExactChannel(), Schedule(1.0, 0.5), 50,
        [np.random.default_rng(2)],
    )
    for tau in (1, 7, 25, 50):
        assert static_regret(trace, tau) == pytest.approx(0.0, abs=1e-9)


def test_single_round_run(grid):
    stream = default_trig_stream(grid, seed=3)
    [trace] = run_da(
        negentropy(), stream, ExactChannel(), Schedule(1.0, 0.5), 1,
        [np.random.default_rng(4)],
    )
    assert trace.horizon == 1
    uniform_mean = stream.values(1).mean()
    assert trace.expected[0] == pytest.approx(uniform_mean, abs=1e-12)


def test_run_da_with_bandit_channel_and_exploration_is_run_bda(grid):
    # Bandit dual averaging is run_da with the negentropy mirror map, the
    # kernel channel and an exploration schedule: a block of three seeds
    # equals run_bda of each seed alone, bit for bit.
    stream = to_payoff(default_trig_stream(grid, seed=5))
    config = BDAConfig.defaults(grid, eta_coef=2.0)
    seeds = [6, 7, 8]
    block = run_da(negentropy(), stream, BanditChannel(config.delta), config.eta, 40,
                   [np.random.default_rng(s) for s in seeds], eps=config.eps)
    for seed, trace in zip(seeds, block):
        [alone] = run_bda(stream, config, 40, [np.random.default_rng(seed)])
        for name in ("expected", "realized"):
            assert getattr(trace, name).tobytes() == getattr(alone, name).tobytes(), name


class _PerRoundRun:
    """DA one round at a time: the per-round oracle of ``run_da``.

    A plain loop per round and seed, the seeds in turn, each with its own
    scores: ``mirror``, ``grids.sampling_cdf``, the draw oracle
    ``draw_one_round``, then the channel's ``observe`` of the round's truth,
    and the score update by the model.  The bandit channel observes the
    round at the drawn cell; any other channel observes a one-round step,
    a noise channel with the noise the loop draws from the seed's
    generator after the round's draw: five normals, then five phases.
    ``channel`` defaults to exact feedback.  Holds the (S, T)
    expected and realized values and the drawn cells and points; with
    ``diagnostics`` (one seed), it feeds them each round.
    """

    def __init__(self, reg, stream, eta, T, seeds, eps=None, diagnostics=None, channel=None):
        channel = ExactChannel() if channel is None else channel
        grid = stream.grid
        w = grid.cell_volume
        rngs = [np.random.default_rng(s) for s in seeds]
        if diagnostics is not None:
            diagnostics.start(reg, eta, T, stream)
        ys = [np.zeros(grid.n_cells) for _ in seeds]
        expected, realized, self.cells, points = [], [], [], []
        for t in range(1, T + 1):
            f = stream.values(t)
            rounds = []
            for s, g in enumerate(rngs):
                x = mirror(reg, GridFunction(grid, eta(t) * ys[s]))
                played = x if eps is None else mixed_strategy(x, eps(t))
                cell, point = draw_one_round(grid, sampling_cdf(played), g)
                if channel.reads_play:
                    _, model = channel.observe(stream, t, f, played.values, cell, point)
                else:
                    noise = None if not isinstance(channel, UnbiasedChannel) else (
                        g.standard_normal(5)[None], g.uniform(0.0, 2.0 * math.pi, 5)[None])
                    _, [model] = channel.observe(stream, range(t, t + 1), f[None], noise)
                ys[s] = ys[s] + model if stream.payoff_convention else ys[s] - model
                rounds.append((cell, point, grids.dot(f, played.values) * w, f[cell]))
                if diagnostics is not None:
                    diagnostics.end_round(t, ys[s], model, x.values, f, rounds[-1][2])
            self.cells.append([cell for cell, _, _, _ in rounds])
            points.append([point for _, point, _, _ in rounds])
            expected.append([value for _, _, value, _ in rounds])
            realized.append([value for _, _, _, value in rounds])
        self.expected = np.array(expected).T.copy()
        self.realized = np.array(realized).T.copy()
        self.points = np.array(points)

    def matches(self, traces) -> bool:
        """Whether every trace holds this run's values for its seed, bit for bit."""
        return all(trace.expected.tobytes() == expected.tobytes()
                   and trace.realized.tobytes() == realized.tobytes()
                   for trace, expected, realized in zip(traces, self.expected, self.realized,
                                                        strict=True))


_SERIES = ("energy", "energy_rhs", "comparator_increment", "error_term", "sq_term")


def _streams(grid):
    static = default_trig_stream(grid, seed=21)
    drifting = default_trig_stream(grid, seed=22, drift_rate=0.2)
    return {"loss": static, "payoff": to_payoff(static), "drifting loss": drifting,
            "drifting payoff": to_payoff(drifting)}


# 1024 cells: a step is 8 rounds.  T = 1, T < 8, a multiple of 8, and one more.
@pytest.mark.parametrize("T", [1, 5, 16, 17])
@pytest.mark.parametrize("kind", ["loss", "payoff", "drifting loss", "drifting payoff"])
@pytest.mark.parametrize("seeds", [[4], [4, 5, 6]])
def test_exact_steps_match_the_per_round_oracle(T, kind, seeds):
    grid = Grid(BoxDomain(0.0, 1.0), 1024)
    stream = _streams(grid)[kind]
    eta = Schedule(0.8, 0.5)
    traces = run_da(negentropy(), stream, ExactChannel(), eta, T,
                    [np.random.default_rng(s) for s in seeds])
    assert _PerRoundRun(negentropy(), stream, eta, T, seeds).matches(traces)
    eps = Schedule(0.3, 0.4)
    traces = run_da(quadratic(), stream, ExactChannel(), eta, T,
                    [np.random.default_rng(s) for s in seeds], eps=eps)
    assert _PerRoundRun(quadratic(), stream, eta, T, seeds, eps=eps).matches(traces)
    traces = run_uniform(stream, T, [np.random.default_rng(s) for s in seeds])
    uniform = _PerRoundRun(negentropy(), stream, Schedule(1.0), T, seeds, eps=Schedule(1.0))
    assert uniform.matches(traces)


@pytest.mark.parametrize("T", [1, 7, 9])
@pytest.mark.parametrize("kind", ["loss", "drifting payoff"])
def test_exact_steps_match_the_oracle_in_the_energy_series(T, kind):
    grid = Grid(BoxDomain(0.0, 1.0), 1024)
    stream = _streams(grid)[kind]
    eta = Schedule(0.8, 0.5)
    diag, oracle_diag = (EnergyDiagnostics(_comparator(grid)) for _ in range(2))
    traces = run_da(negentropy(), stream, ExactChannel(), eta, T, [np.random.default_rng(3)],
                    diagnostics=diag)
    oracle = _PerRoundRun(negentropy(), stream, eta, T, [3], diagnostics=oracle_diag)
    assert oracle.matches(traces)
    for name in _SERIES:
        assert getattr(diag, name).tobytes() == getattr(oracle_diag, name).tobytes(), name


@pytest.mark.parametrize("seeds", [[4], [4, 5, 6]])
def test_exact_steps_of_one_round_match_the_oracle(seeds):
    # 128 x 128 cells: a block of 8192 values holds less than one row, so a
    # step is one round.
    grid = Grid(BoxDomain([0.0, 0.0], [1.0, 1.0]), 128)
    for stream in _streams(grid).values():
        traces = run_da(negentropy(), stream, ExactChannel(), Schedule(0.8, 0.5), 3,
                        [np.random.default_rng(s) for s in seeds])
        assert _PerRoundRun(negentropy(), stream, Schedule(0.8, 0.5), 3, seeds).matches(traces)


_NOISY = {"unbiased": UnbiasedChannel(0.5), "biased": BiasedChannel(0.5, 0.4, 0.6)}


# 1024 cells: a step is 8 rounds.  T = 1, T < 8, a multiple of 8, and one more.
@pytest.mark.parametrize("T", [1, 5, 16, 17])
@pytest.mark.parametrize("kind", ["loss", "payoff", "drifting loss", "drifting payoff"])
@pytest.mark.parametrize("seeds", [[4], [4, 5, 6]])
@pytest.mark.parametrize("name", _NOISY)
def test_noisy_steps_match_the_per_round_oracle(name, T, kind, seeds):
    grid = Grid(BoxDomain(0.0, 1.0), 1024)
    stream, channel = _streams(grid)[kind], _NOISY[name]
    eta = Schedule(0.8, 0.5)
    traces = run_da(negentropy(), stream, channel, eta, T,
                    [np.random.default_rng(s) for s in seeds])
    assert _PerRoundRun(negentropy(), stream, eta, T, seeds, channel=channel).matches(traces)
    eps = Schedule(0.3, 0.4)
    traces = run_da(quadratic(), stream, channel, eta, T,
                    [np.random.default_rng(s) for s in seeds], eps=eps)
    oracle = _PerRoundRun(quadratic(), stream, eta, T, seeds, eps=eps, channel=channel)
    assert oracle.matches(traces)


@pytest.mark.parametrize("T", [1, 7, 9])
@pytest.mark.parametrize("kind", ["loss", "drifting payoff"])
@pytest.mark.parametrize("name", _NOISY)
def test_noisy_steps_match_the_oracle_in_the_energy_series(name, T, kind):
    grid = Grid(BoxDomain(0.0, 1.0), 1024)
    stream, channel = _streams(grid)[kind], _NOISY[name]
    eta = Schedule(0.8, 0.5)
    diag, oracle_diag = (EnergyDiagnostics(_comparator(grid)) for _ in range(2))
    traces = run_da(negentropy(), stream, channel, eta, T, [np.random.default_rng(3)],
                    diagnostics=diag)
    oracle = _PerRoundRun(negentropy(), stream, eta, T, [3], diagnostics=oracle_diag,
                          channel=channel)
    assert oracle.matches(traces)
    for series in _SERIES:
        assert getattr(diag, series).tobytes() == getattr(oracle_diag, series).tobytes(), series


@pytest.mark.parametrize("seeds", [[4], [4, 5, 6]])
@pytest.mark.parametrize("name", _NOISY)
def test_noisy_steps_of_one_round_match_the_oracle(name, seeds):
    # 128 x 128 cells: a step is one round.
    grid = Grid(BoxDomain([0.0, 0.0], [1.0, 1.0]), 128)
    for stream in _streams(grid).values():
        traces = run_da(negentropy(), stream, _NOISY[name], Schedule(0.8, 0.5), 3,
                        [np.random.default_rng(s) for s in seeds])
        oracle = _PerRoundRun(negentropy(), stream, Schedule(0.8, 0.5), 3, seeds,
                              channel=_NOISY[name])
        assert oracle.matches(traces)


class _LoggedGenerator:
    """A Generator that logs each call (name and size) to ``log`` before it draws."""

    def __init__(self, seed, log):
        self.g, self.log = np.random.default_rng(seed), log

    def __getattr__(self, name):
        def logged(*args):
            self.log.append((name, args[-1]))
            return getattr(self.g, name)(*args)

        return logged


@pytest.mark.parametrize("name", ["exact", "unbiased"])
def test_blind_channels_draw_then_are_observed_once_per_step(name):
    # 1024 cells: steps of 8 rounds.  Each seed first reads its generator
    # round by round: a cell variate and a point's offset, then the noise
    # channel's own normals and phases.  The channel then observes each line
    # once per step (one line for exact feedback, one per seed otherwise),
    # given the step's rounds, its true rows and its own draws.
    grid = Grid(BoxDomain(0.0, 1.0), 1024)
    stream = default_trig_stream(grid, seed=2)
    log = []
    base = {"exact": ExactChannel, "unbiased": UnbiasedChannel}[name]

    class Recording(base):
        def observe(self, stream, rounds, truth, own):
            log.append(("observe", rounds, truth.shape, own is None))
            return super().observe(stream, rounds, truth, own)

    channel = Recording() if name == "exact" else Recording(0.5)
    traces = run_da(negentropy(), stream, channel, Schedule(0.8, 0.5), 10,
                    [_LoggedGenerator(1, log), _LoggedGenerator(2, log)])
    expected = []
    for rounds in (range(1, 9), range(9, 11)):
        if name == "exact":
            expected += [("random", (len(rounds), 2))] * 2
            expected += [("observe", rounds, (len(rounds), 1024), True)]
        else:
            expected += [("random", 2), ("standard_normal", 5), ("uniform", 5)] * 2 * len(rounds)
            expected += [("observe", rounds, (len(rounds), 1024), False)] * 2
    assert log == expected
    oracle = _PerRoundRun(negentropy(), stream, Schedule(0.8, 0.5), 10, [1, 2],
                          channel=base() if name == "exact" else base(0.5))
    assert oracle.matches(traces)


def _count_evaluations(base, stream):
    """Count the ``values`` calls of ``stream`` and its base and the base's trig sums."""
    counts = {"values": 0, "base values": 0, "trig sums": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    base._basis.combine = counted("trig sums", base._basis.combine)
    base.values = counted("base values", base.values)
    if stream is not base:
        stream.values = counted("values", stream.values)
    return counts


@pytest.mark.parametrize("seeds", [[4], [4, 5, 6]])
@pytest.mark.parametrize("drifting", [False, True], ids=["static", "drifting"])
@pytest.mark.parametrize("channel, payoff", [
    (name, payoff) for name in ("exact", "unbiased", "biased") for payoff in (False, True)
] + [("bandit", True)])
def test_run_da_evaluates_the_stream_once_per_step(channel, payoff, drifting, seeds):
    # 1024 cells: a blind channel's T = 17 rounds are 3 steps, the bandit
    # channel's 17.  run_da reads each step's rows once and no channel reads
    # the stream again; a static stream is never evaluated after
    # construction, and its payoff view reads the base's row not at all.
    grid = Grid(BoxDomain(0.0, 1.0), 1024)
    base = default_trig_stream(grid, seed=22, drift_rate=0.2 if drifting else 0.0)
    stream = to_payoff(base) if payoff else base
    counts = _count_evaluations(base, stream)
    T, eta = 17, Schedule(0.8, 0.5)
    rngs = [np.random.default_rng(s) for s in seeds]
    if channel == "bandit":
        steps = T
        run_bda(stream, BDAConfig.defaults(grid), T, rngs)
    else:
        steps = 3
        run_da(negentropy(), stream, {"exact": ExactChannel(), **_NOISY}[channel], eta, T, rngs)
    reads = steps if drifting or not payoff else 0
    assert counts == {"values": steps if payoff else 0, "base values": reads,
                      "trig sums": steps if drifting else 0}


def test_mixed_strategy_takes_one_weight_per_row(grid):
    rng = np.random.default_rng(0)
    block = mirror(negentropy(), GridFunction(grid, rng.normal(size=(3, grid.n_cells))))
    weights = [0.0, 0.25, 1.0]
    mixed = mixed_strategy(block, weights).values
    for row, eps, got in zip(block.values, weights, mixed):
        alone = mixed_strategy(Density.unchecked(grid, row), eps).values
        assert got.tobytes() == alone.tobytes()
    with pytest.raises(DomainError):
        mixed_strategy(block, [0.1, math.nan, 0.2])


def test_run_da_plays_on_the_stream_grid():
    # The stream owns the grid: a stream on [0, 2] is played on [0, 2].  The
    # exact channel is given no point, so the points are those of a per-round
    # replay, whose values the run's trace matches bit for bit.
    stream = default_trig_stream(Grid(BoxDomain(0.0, 2.0), 64), seed=7)
    traces = run_da(negentropy(), stream, ExactChannel(), Schedule(1.0, 0.5), 200,
                    [np.random.default_rng(0)])
    replay = _PerRoundRun(negentropy(), stream, Schedule(1.0, 0.5), 200, [0])
    assert replay.matches(traces)
    assert replay.points.min() >= 0.0 and 1.5 < replay.points.max() < 2.0


class _EdgeGenerator:
    """Gives the next cell variates of ``us`` in column 0, and in-cell variates 0.0.

    A round's point is then the lower edge of its drawn cell, which the cell
    lookup ``Grid.cell_index`` assigns to the cell below.
    """

    def __init__(self, us):
        self.us = list(us)

    def random(self, size):
        variates = np.zeros(size)
        for row in variates:
            row[0] = self.us.pop(0)
        return variates


def test_run_da_reads_the_drawn_cell_not_a_lookup_of_the_point():
    grid = Grid(BoxDomain(0.0, 1.0), 16)
    stream = to_payoff(default_trig_stream(grid, seed=3))
    seen = []

    class Recording(BanditChannel):
        def observe(self, stream, t, truth, strategy, cell, action):
            model = super().observe(stream, t, truth, strategy, cell, action)
            seen.append((cell, action.copy(), strategy.copy(), model))
            return model

    us = [0.55, 0.66, 0.3]
    trace = run_da(negentropy(), stream, Recording(Schedule(0.1, 0.0)), Schedule(0.5, 0.0),
                   3, [_EdgeGenerator(us)], eps=Schedule(0.1, 0.0))[0]
    for t, (cell, action, strategy, (support, value)) in enumerate(seen, 1):
        f = stream.values(t)
        assert cell == draw_cell(np.cumsum(strategy), us[t - 1]) and cell > 0
        assert action[0] == grid.centers[cell, 0] - 0.5 * grid.steps[0]
        assert grid.cell_index(action) == cell - 1  # the lookup would pick the cell below
        assert trace.realized[t - 1] == f[cell]
        assert value == f[cell] / (support.size * grid.cell_volume * strategy[cell])
    # In the last round the two cells' densities differ, so the check above
    # tells them apart.
    assert strategy[cell] != strategy[cell - 1]


@pytest.mark.parametrize("channel", [ExactChannel(), UnbiasedChannel(0.1)],
                         ids=["exact", "noisy"])
def test_run_da_stops_at_a_last_round_with_a_non_finite_phase(channel):
    # No channel checks its model and no mirror map follows the last round,
    # so the stream's own check is what keeps a NaN model out of the trace.
    grid = Grid(BoxDomain(0.0, 1.0), 16)
    stream = TrigStream(grid, [0.5], [[1]], [0.1], drift_rate=1e308, drift_exponent=1.0)
    with pytest.raises(DomainError, match="round 2 is not finite"):
        run_da(negentropy(), stream, channel, Schedule(0.5, 0.5), 2, [np.random.default_rng(0)])


def test_determinism_bit_identical(grid):
    stream = default_trig_stream(grid, seed=7)
    channel = UnbiasedChannel(0.4)
    kwargs = dict(eta=Schedule(0.5, 0.5), T=40)
    [t1] = run_da(negentropy(), stream, channel, kwargs["eta"], kwargs["T"],
                  [np.random.default_rng(123)])
    [t2] = run_da(negentropy(), stream, channel, kwargs["eta"], kwargs["T"],
                  [np.random.default_rng(123)])
    assert np.array_equal(t1.expected, t2.expected)
    assert np.array_equal(t1.realized, t2.realized)


def _comparator(grid):
    cells = np.arange(grid.n_cells // 3, 2 * grid.n_cells // 3)
    return Density.uniform_on_cells(grid, cells)


@pytest.mark.parametrize("reg", [negentropy(), quadratic()])
def test_energy_recursion_and_telescoped_bound(grid, reg):
    stream = default_trig_stream(grid, seed=8)
    diag = EnergyDiagnostics(_comparator(grid))
    eta = Schedule(1.0 / stream.V, 0.5)
    run_da(reg, stream, ExactChannel(), eta, 300, [np.random.default_rng(9)], diagnostics=diag)
    energy, rhs = diag.energy, diag.energy_rhs
    assert np.all(energy >= -1e-9)
    assert np.all(energy[1:] <= rhs + 1e-6)
    # Telescoped bound at every horizon (exact channel: error terms vanish).
    reg_mu = np.cumsum(diag.comparator_increment)
    err = np.cumsum(diag.error_term)
    sq = np.cumsum(diag.sq_term)
    bound = diag.h_gap / diag.eta[1:] + err + diag.kappa ** 2 / (2 * diag.modulus) * sq
    assert np.all(reg_mu <= bound + 1e-4)
    assert np.abs(diag.error_term).max() == 0.0
    assert len(energy) == 301
    # The schedule and modulus are the run's own.
    assert diag.eta.tolist() == [eta(t) for t in range(1, 302)]
    assert diag.modulus == reg.modulus


def test_energy_diagnostics_with_noise(grid):
    stream = default_trig_stream(grid, seed=10)
    diag = EnergyDiagnostics(_comparator(grid))
    [trace] = run_da(
        negentropy(), stream, UnbiasedChannel(0.5), Schedule(0.3, 0.5), 200,
        [np.random.default_rng(11)], diagnostics=diag,
    )
    assert np.all(diag.energy[1:] <= diag.energy_rhs + 1e-6)
    reg_mu = np.cumsum(diag.comparator_increment)
    bound = (
        diag.h_gap / diag.eta[1:]
        + np.cumsum(diag.error_term)
        + diag.kappa ** 2 / (2 * diag.modulus) * np.cumsum(diag.sq_term)
    )
    assert np.all(reg_mu <= bound + 1e-4)
    # The diagnostics follow the run: the same draws as a run without them.
    [plain] = run_da(negentropy(), stream, UnbiasedChannel(0.5), Schedule(0.3, 0.5), 200,
                     [np.random.default_rng(11)])
    assert trace.expected.tobytes() == plain.expected.tobytes()
    assert trace.realized.tobytes() == plain.realized.tobytes()


def test_diagnostics_require_modulus(grid):
    from dualavg import burg

    stream = default_trig_stream(grid, seed=12)
    with pytest.raises(ConfigError):
        run_da(burg(), stream, ExactChannel(), Schedule(1.0, 0.5), 5,
               [np.random.default_rng(13)], diagnostics=EnergyDiagnostics(_comparator(grid)))


def test_loss_payoff_consistency(grid):
    # Hedge is invariant under the affine loss->payoff map once the learning
    # rate absorbs the 1/(2V) rescaling; regret scales by exactly 1/(2V).
    base = default_trig_stream(grid, seed=14)
    pay = to_payoff(base)
    eta = 0.4
    [t_loss] = run_da(negentropy(), base, ExactChannel(),
                      Schedule(eta, 0.5), 60, [np.random.default_rng(15)])
    [t_pay] = run_da(negentropy(), pay, ExactChannel(),
                     Schedule(eta * 2 * base.V, 0.5), 60, [np.random.default_rng(15)])
    # The draws, read from per-round replays that match the runs bit for bit.
    loss_replay = _PerRoundRun(negentropy(), base, Schedule(eta, 0.5), 60, [15])
    pay_replay = _PerRoundRun(negentropy(), pay, Schedule(eta * 2 * base.V, 0.5), 60, [15])
    assert loss_replay.matches([t_loss]) and pay_replay.matches([t_pay])
    assert loss_replay.cells == pay_replay.cells
    assert np.array_equal(loss_replay.points, pay_replay.points)
    assert static_regret(t_pay) == pytest.approx(
        static_regret(t_loss) / (2 * base.V), rel=1e-9
    )


@pytest.mark.parametrize("driver", ["run_da", "run_bda", "run_exp3", "run_uniform"])
def test_drivers_take_a_nonempty_block_of_generators(grid, driver):
    stream = to_payoff(default_trig_stream(grid, seed=5))
    run = {
        "run_da": lambda rngs: run_da(negentropy(), stream, ExactChannel(),
                                      Schedule(1.0, 0.5), 5, rngs),
        "run_bda": lambda rngs: run_bda(stream, BDAConfig.defaults(grid), 5, rngs),
        "run_exp3": lambda rngs: run_exp3(stream, 4, 5, rngs),
        "run_uniform": lambda rngs: run_uniform(stream, 5, rngs),
    }[driver]
    with pytest.raises(ValueError, match="at least one generator"):
        run([])
    # A bare Generator is not a block.
    with pytest.raises(TypeError):
        run(np.random.default_rng(0))


@pytest.mark.parametrize("coefficient, exponent", [
    (math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan), (1.0, math.inf)])
def test_schedule_rejects_non_finite_parameters(coefficient, exponent):
    with pytest.raises(ValueError, match="finite"):
        Schedule(coefficient, exponent)


def test_diagnostics_follow_one_seed(grid):
    stream = default_trig_stream(grid, seed=16)
    with pytest.raises(ConfigError, match="one seed"):
        run_da(negentropy(), stream, ExactChannel(), Schedule(1.0, 0.5), 5,
               [np.random.default_rng(17), np.random.default_rng(18)],
               diagnostics=EnergyDiagnostics(_comparator(grid)))


def _small_config(draw, algorithm: str) -> ExperimentConfig:
    """A small config of ``algorithm``: d = 1 or 2, a static or drifting stream, T = 1..12."""
    dim = draw(st.integers(1, 2))
    drifting = draw(st.booleans())
    return ExperimentConfig(
        dim=dim,
        upper=[draw(st.floats(0.5, 3.0))],
        grid_n=draw(st.integers(1, 24) if dim == 1 else st.integers(1, 6)),
        algorithm=algorithm,
        stream_kind="drifting" if drifting else "trig_mixture",
        drift_rate=0.05 if drifting else 0.0,
        stream_seed=draw(st.integers(0, 1000)),
        horizon=draw(st.integers(1, 12)),
        checkpoint_start=1,
    )


def _seeds(draw) -> list:
    return draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5, unique=True))


@st.composite
def seed_blocks(draw):
    """A small DA config (any family and function-valued channel) and 1-5 seeds."""
    cfg = _small_config(draw, "da")
    cfg.reg_family = draw(st.sampled_from(["negentropy", "quadratic", "burg", "tsallis"]))
    cfg.reg_gamma = draw(st.floats(0.1, 0.9)) if cfg.reg_family == "tsallis" else None
    cfg.stream_payoff = draw(st.booleans())
    cfg.channel_kind = draw(st.sampled_from(["exact", "unbiased", "biased"]))
    cfg.bias_scale = 0.5
    cfg.validate()
    return cfg, _seeds(draw)


@st.composite
def bandit_seed_blocks(draw):
    """A small BDA, EXP3 or uniform config on a payoff stream and 1-5 seeds."""
    cfg = _small_config(draw, draw(st.sampled_from(["bda", "exp3_grid", "uniform"])))
    cfg.stream_payoff = True
    cfg.channel_kind = "bandit"
    cfg.eps_coef = draw(st.sampled_from([0.0, 0.35, 1.0]))
    cfg.exp3_arms = draw(st.integers(1, 4))
    cfg.validate()
    return cfg, _seeds(draw)


def _shared_records(trace) -> dict:
    """The records of a trace that depend on the round alone, by name."""
    return {"round_best": trace.round_best}


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.shape == b.shape and a.dtype == b.dtype
                and a.tobytes() == b.tobytes())
    return type(a) is type(b) and a == b


def _check_block_matches_one_run_per_seed(cfg, seeds):
    block = run_seed(cfg, seeds)
    assert len(block) == len(seeds)
    first_shared = _shared_records(block[0])
    for seed, trace in zip(seeds, block):
        [alone] = run_seed(cfg, [seed])
        for name in ("expected", "realized", "round_best"):
            assert _same(getattr(trace, name), getattr(alone, name)), name
        # Records that depend on the round alone are shared, read-only.
        for name, array in _shared_records(trace).items():
            assert array is first_shared[name], name
            assert not array.flags.writeable, name


@settings(max_examples=80, deadline=None)
@given(seed_blocks())
def test_seed_block_matches_one_run_per_seed(case):
    _check_block_matches_one_run_per_seed(*case)


@settings(max_examples=80, deadline=None)
@given(bandit_seed_blocks())
def test_bandit_seed_block_matches_one_run_per_seed(case):
    _check_block_matches_one_run_per_seed(*case)


def test_run_seed_takes_a_numpy_array_as_a_block_of_seeds():
    # A numpy array of seeds is a block, and a numpy integer one seed.
    cfg = ExperimentConfig(grid_n=32, horizon=20, checkpoint_start=1, channel_kind="unbiased")
    block = run_seed(cfg, np.arange(3))
    assert len(block) == 3
    for trace, alone in zip(block, run_seed(cfg, [0, 1, 2]), strict=True):
        for name in ("expected", "realized", "round_best"):
            assert _same(getattr(trace, name), getattr(alone, name)), name
    one = run_seed(cfg, np.int64(2))
    assert _same(one.expected, block[2].expected)


def test_block_traces_share_read_only_stream_records():
    cfg = ExperimentConfig(grid_n=32, horizon=20, checkpoint_start=1,
                           channel_kind="unbiased")
    traces = run_seed(cfg, [3, 4, 5])
    first = traces[0]
    for trace in traces:
        assert trace.round_best is first.round_best
        # The seeds' records are read-only rows of the block's arrays.
        for name in ("expected", "realized"):
            assert getattr(trace, name).base is getattr(first, name).base, name
        for record in (trace.round_best, trace.expected, trace.realized):
            with pytest.raises(ValueError):
                record.flat[0] = 1.0
    # Noisy feedback: the seeds play their own strategies.
    assert not np.array_equal(first.expected, traces[1].expected)


@pytest.mark.parametrize("lower, upper, cells_per_axis", [
    pytest.param(0.0, 1.0, 64, id="d=1"),
    pytest.param([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 8, id="d=3"),
])
def test_trace_holds_two_rows_per_seed_and_the_shared_best(lower, upper, cells_per_axis):
    # A trace holds the values regret reads and nothing per action: two
    # read-only (T,) rows of its own and the block's (T,) per-round best, so
    # a block of S seeds stores 8 * (2 * S * T + T) bytes whatever d is.
    S, T = 3, 12
    stream = default_trig_stream(Grid(BoxDomain(lower, upper), cells_per_axis), seed=16)
    traces = run_da(negentropy(), stream, UnbiasedChannel(0.3), Schedule(0.5, 0.5), T,
                    [np.random.default_rng(17 + s) for s in range(S)])
    buffers = {}
    for trace in traces:
        assert {f.name for f in dataclasses.fields(trace)} == {
            "stream", "horizon", "expected", "realized", "round_best", "_variation"}
        records = {name: value for name, value in vars(trace).items()
                   if isinstance(value, np.ndarray)}
        assert records.keys() == {"expected", "realized", "round_best"}
        for name, array in records.items():
            assert array.shape == (T,) and not array.flags.writeable, name
            owner = array if array.base is None else array.base
            buffers[id(owner)] = owner
    assert sum(owner.nbytes for owner in buffers.values()) == 8 * (2 * S * T + T)
