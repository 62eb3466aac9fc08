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
    ExactChannel,
    Grid,
    GridFunction,
    Schedule,
    UnbiasedChannel,
    BanditChannel,
    default_trig_stream,
    mirror,
    negentropy,
    quadratic,
    run_bda,
    run_da,
    static_regret,
    to_payoff,
    tsallis,
)
from dualavg.config import ExperimentConfig, run_seed
from dualavg.grids import draw_cell
from tests.test_regret import ConstantStream


@pytest.fixture
def grid():
    return Grid(BoxDomain(0.0, 1.0), 256)


def test_initial_strategy_is_uniform(grid):
    # y_1 = 0, so round 1 plays the uniform density under every regularizer.
    stream = default_trig_stream(grid, seed=1)
    f = stream.values(1)
    for reg in (negentropy(), quadratic(), tsallis(0.5)):
        trace = run_da(grid, reg, stream, ExactChannel(), Schedule(1.0, 0.5), 1,
                       np.random.default_rng(0))
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
    trace = run_da(grid, negentropy(), stream, ExactChannel(), eta, 30,
                   np.random.default_rng(1))
    np.testing.assert_allclose(trace.expected, _logit_replay(grid, stream, eta, 30, -1.0),
                               rtol=0, atol=1e-12)


def test_payoff_convention_adds(grid):
    stream = to_payoff(default_trig_stream(grid, seed=12, drift_rate=0.3))
    eta = Schedule(2.0, 0.5)
    trace = run_da(grid, negentropy(), stream, ExactChannel(), eta, 30,
                   np.random.default_rng(1))
    np.testing.assert_allclose(trace.expected, _logit_replay(grid, stream, eta, 30, 1.0),
                               rtol=0, atol=1e-12)
    # The same scores with the loss sign would play a different sequence.
    assert np.abs(trace.expected - _logit_replay(grid, stream, eta, 30, -1.0)).max() > 1e-3


def test_constant_stream_zero_regret_every_horizon(grid):
    stream = ConstantStream(grid, 1.3)
    trace = run_da(
        grid, negentropy(), stream, ExactChannel(), Schedule(1.0, 0.5), 50,
        np.random.default_rng(2),
    )
    for tau in (1, 7, 25, 50):
        assert static_regret(trace, tau) == pytest.approx(0.0, abs=1e-9)


def test_single_round_run(grid):
    stream = default_trig_stream(grid, seed=3)
    trace = run_da(
        grid, negentropy(), stream, ExactChannel(), Schedule(1.0, 0.5), 1,
        np.random.default_rng(4),
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
    block = run_da(grid, negentropy(), stream, BanditChannel(config.delta), config.eta, 40,
                   [np.random.default_rng(s) for s in seeds], eps=config.eps)
    for seed, trace in zip(seeds, block):
        alone = run_bda(grid, stream, config, 40, np.random.default_rng(seed))
        for name in ("expected", "realized", "actions"):
            assert getattr(trace, name).tobytes() == getattr(alone, name).tobytes(), name
        # The eps schedule is the caller's; neither trace records a series of it.
        assert trace.extras == {"algorithm": "da"}
        assert alone.extras.keys() == {"algorithm", "delta_floor_rounds"}


class _EdgeGenerator:
    """Gives the next cell variate of ``us``, then the in-cell variate 0.0.

    The point is then the lower edge of the drawn cell, which the cell lookup
    ``Grid.cell_index`` assigns to the cell below.
    """

    def __init__(self, us):
        self.us = list(us)

    def random(self, size=None):
        return self.us.pop(0) if size is None else np.zeros(size)


def test_run_da_reads_the_drawn_cell_not_a_lookup_of_the_point():
    grid = Grid(BoxDomain(0.0, 1.0), 16)
    stream = to_payoff(default_trig_stream(grid, seed=3))
    seen = []

    class Recording(BanditChannel):
        def observe(self, stream, t, strategy, cell, action, rng):
            obs = super().observe(stream, t, strategy, cell, action, rng)
            seen.append((cell, action.copy(), strategy.copy(), obs))
            return obs

    us = [0.55, 0.66, 0.3]
    trace = run_da(grid, negentropy(), stream, Recording(Schedule(0.1, 0.0)), Schedule(0.5, 0.0),
                   3, [_EdgeGenerator(us)], eps=Schedule(0.1, 0.0))[0]
    for t, (cell, action, strategy, obs) in enumerate(seen, 1):
        f = stream.values(t)
        assert cell == draw_cell(np.cumsum(strategy), us[t - 1]) and cell > 0
        assert action[0] == grid.centers[cell, 0] - 0.5 * grid.steps[0]
        assert grid.cell_index(action) == cell - 1  # the lookup would pick the cell below
        assert obs.payoff == f[cell] and trace.realized[t - 1] == f[cell]
        support, value = obs.patch
        assert value == f[cell] / (support.size * grid.cell_volume * strategy[cell])
    # In the last round the two cells' densities differ, so the check above
    # tells them apart.
    assert strategy[cell] != strategy[cell - 1]


def test_determinism_bit_identical(grid):
    stream = default_trig_stream(grid, seed=7)
    channel = UnbiasedChannel(0.4)
    kwargs = dict(eta=Schedule(0.5, 0.5), T=40)
    t1 = run_da(grid, negentropy(), stream, channel, kwargs["eta"], kwargs["T"],
                np.random.default_rng(123))
    t2 = run_da(grid, negentropy(), stream, channel, kwargs["eta"], kwargs["T"],
                np.random.default_rng(123))
    assert np.array_equal(t1.expected, t2.expected)
    assert np.array_equal(t1.actions, t2.actions)
    assert np.array_equal(t1.realized, t2.realized)


def _comparator(grid):
    cells = np.arange(grid.n_cells // 3, 2 * grid.n_cells // 3)
    return Density.uniform_on_cells(grid, cells)


@pytest.mark.parametrize("reg", [negentropy(), quadratic()])
def test_energy_recursion_and_telescoped_bound(grid, reg):
    stream = default_trig_stream(grid, seed=8)
    mu = _comparator(grid)
    trace = run_da(
        grid, reg, stream, ExactChannel(), Schedule(1.0 / stream.V, 0.5), 300,
        np.random.default_rng(9), diagnostics=mu,
    )
    ex = trace.extras
    energy, rhs = ex["energy"], ex["energy_rhs"]
    assert np.all(energy >= -1e-9)
    assert np.all(energy[1:] <= rhs + 1e-6)
    # Telescoped bound at every horizon (exact channel: error terms vanish).
    reg_mu = np.cumsum(ex["comparator_increment"])
    err = np.cumsum(ex["error_term"])
    sq = np.cumsum(ex["sq_term"])
    etas = ex["eta"]
    bound = ex["h_gap"] / etas[1:] + err + ex["kappa"] ** 2 / (2 * ex["modulus"]) * sq
    assert np.all(reg_mu <= bound + 1e-4)
    assert np.abs(ex["error_term"]).max() == 0.0
    assert len(energy) == 301


def test_energy_diagnostics_with_noise(grid):
    stream = default_trig_stream(grid, seed=10)
    mu = _comparator(grid)
    trace = run_da(
        grid, negentropy(), stream, UnbiasedChannel(0.5), Schedule(0.3, 0.5), 200,
        np.random.default_rng(11), diagnostics=mu,
    )
    ex = trace.extras
    assert np.all(ex["energy"][1:] <= ex["energy_rhs"] + 1e-6)
    reg_mu = np.cumsum(ex["comparator_increment"])
    bound = (
        ex["h_gap"] / ex["eta"][1:]
        + np.cumsum(ex["error_term"])
        + ex["kappa"] ** 2 / (2 * ex["modulus"]) * np.cumsum(ex["sq_term"])
    )
    assert np.all(reg_mu <= bound + 1e-4)


def test_diagnostics_require_modulus(grid):
    from dualavg import burg

    stream = default_trig_stream(grid, seed=12)
    with pytest.raises(ConfigError):
        run_da(grid, burg(), stream, ExactChannel(), Schedule(1.0, 0.5), 5,
               np.random.default_rng(13), diagnostics=_comparator(grid))


def test_loss_payoff_consistency(grid):
    # Hedge is invariant under the affine loss->payoff map once the learning
    # rate absorbs the 1/(2V) rescaling; regret scales by exactly 1/(2V).
    base = default_trig_stream(grid, seed=14)
    pay = to_payoff(base)
    eta = 0.4
    t_loss = run_da(grid, negentropy(), base, ExactChannel(),
                    Schedule(eta, 0.5), 60, np.random.default_rng(15))
    t_pay = run_da(grid, negentropy(), pay, ExactChannel(),
                   Schedule(eta * 2 * base.V, 0.5), 60, np.random.default_rng(15))
    assert np.array_equal(t_loss.actions, t_pay.actions)
    assert static_regret(t_pay) == pytest.approx(
        static_regret(t_loss) / (2 * base.V), rel=1e-9
    )


def test_diagnostics_follow_one_seed(grid):
    stream = default_trig_stream(grid, seed=16)
    with pytest.raises(ConfigError, match="one seed"):
        run_da(grid, negentropy(), stream, ExactChannel(), Schedule(1.0, 0.5), 5,
               [np.random.default_rng(17), np.random.default_rng(18)],
               diagnostics=_comparator(grid))


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
    return {"round_best": trace.round_best, "checkpoints": trace.checkpoints}


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
        alone = run_seed(cfg, seed)
        for name in ("expected", "realized", "actions", "round_best", "checkpoints"):
            assert _same(getattr(trace, name), getattr(alone, name)), name
        assert trace.extras.keys() == alone.extras.keys()
        for name, value in alone.extras.items():
            assert _same(trace.extras[name], value), name
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


def test_block_traces_share_read_only_stream_records():
    cfg = ExperimentConfig(grid_n=32, horizon=20, checkpoint_start=1,
                           channel_kind="unbiased")
    traces = run_seed(cfg, [3, 4, 5])
    first = traces[0]
    for trace in traces:
        assert trace.round_best is first.round_best
        assert trace.checkpoints is first.checkpoints
        # The seeds' records are read-only rows of the block's arrays.
        for name in ("expected", "realized", "actions"):
            assert getattr(trace, name).base is getattr(first, name).base, name
        for record in (trace.round_best, trace.checkpoints, trace.expected, trace.realized,
                       trace.actions):
            with pytest.raises(ValueError):
                record.flat[0] = 1.0
    first.extras["note"] = 1
    assert "note" not in traces[1].extras
    # Noisy feedback: the seeds play their own strategies.
    assert not np.array_equal(first.expected, traces[1].expected)
