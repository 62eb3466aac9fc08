import math

import numpy as np
import pytest

from dualavg import (
    BoxDomain,
    ConfigError,
    Density,
    Grid,
    default_trig_stream,
    run_exp3,
    run_uniform,
    sample,
    static_regret,
    to_payoff,
)
from dualavg.baselines import exp3_probabilities
from tests.test_regret import ConstantStream


@pytest.fixture
def grid():
    return Grid(BoxDomain(0.0, 1.0), 243)


class ConstPayoff(ConstantStream):
    payoff_convention = True


class CellPayoff(ConstPayoff):
    """Static payoff stream with value ``fn(center)`` on each cell."""

    def __init__(self, grid, fn):
        super().__init__(grid, 0.0)
        self._vals = np.array([float(fn(c)) for c in grid.centers])


def arm_points(grid, arms_per_axis):
    """EXP3's arms: the cell centers of an ``arms_per_axis`` lattice over the domain."""
    return Grid(grid.domain, arms_per_axis).centers


def replay_exp3(grid, stream, arms_per_axis, trace):
    """Rebuild EXP3's per-round probabilities from a one-seed trace of a static stream.

    Checks that every action is an arm, that the realized and expected values
    are those of the drawn arm and of the probabilities, and that the final
    scores are the sum of payoff / probability at the drawn arms.  Returns the
    probabilities of rounds 1..T+1.
    """
    arms = arm_points(grid, arms_per_axis)
    f_vals = stream.values(1)
    arm_payoffs = f_vals[[grid.cell_index(a) for a in arms]]
    scores = np.zeros(len(arms))
    history = []
    for t in range(1, trace.horizon + 1):
        probs = exp3_probabilities(scores, t)
        history.append(probs)
        (arm,) = np.flatnonzero((arms == trace.actions[t - 1]).all(axis=1))
        assert trace.realized[t - 1] == arm_payoffs[arm]
        assert trace.expected[t - 1] == float(probs @ arm_payoffs)
        scores[arm] += trace.realized[t - 1] / probs[arm]
    assert np.array_equal(trace.extras["scores"], scores)
    history.append(exp3_probabilities(scores, trace.horizon + 1))
    return history


def test_single_arm_probability_one(grid):
    stream = ConstPayoff(grid, 0.7)
    [trace] = run_exp3(stream, 1, 30, [np.random.default_rng(0)])
    for probs in replay_exp3(grid, stream, 1, trace):
        assert probs[0] == pytest.approx(1.0)
    assert np.all(trace.actions == arm_points(grid, 1)[0])


def test_equal_payoffs_stay_uniform(grid):
    # While the anytime tuning keeps gamma_t = 1 the mixture is exactly
    # uniform; afterwards pathwise symmetry is broken by the draws, so the
    # uniformity is distributional (checked as a mean over runs below).
    m = 8
    horizon_exact = int(m * np.log(m))  # gamma_t = 1 for t <= m log m
    stream = ConstPayoff(grid, 0.5)
    [trace] = run_exp3(stream, m, horizon_exact, [np.random.default_rng(1)])
    for probs in replay_exp3(grid, stream, m, trace)[:horizon_exact]:
        assert np.abs(probs - 1.0 / m).max() < 1e-9
    runs = 400
    block = run_exp3(stream, m, 80, [np.random.default_rng(1000 + r) for r in range(runs)])
    acc = sum(exp3_probabilities(tr.extras["scores"], 81) for tr in block)
    assert np.abs(acc / runs - 1.0 / m).max() < 0.05


def test_zero_payoffs_leave_state_unchanged(grid):
    stream = ConstPayoff(grid, 0.0)
    [trace] = run_exp3(stream, 6, 50, [np.random.default_rng(2)])
    replay_exp3(grid, stream, 6, trace)
    assert np.all(trace.extras["scores"] == 0.0)


def test_probability_vector_valid_with_floor(grid):
    m = 16
    arm3 = arm_points(grid, m)[3]
    stream = CellPayoff(grid, lambda c: np.array_equal(c, arm3))
    [trace] = run_exp3(stream, m, 300, [np.random.default_rng(3)])
    for t, probs in enumerate(replay_exp3(grid, stream, m, trace), start=1):
        gamma = min(1.0, math.sqrt(m * math.log(m) / t))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= gamma / m - 1e-15)
    # Deterministic in the seed.
    [again] = run_exp3(stream, m, 300, [np.random.default_rng(3)])
    for name in ("expected", "realized", "actions"):
        assert getattr(again, name).tobytes() == getattr(trace, name).tobytes()
    assert again.extras["scores"].tobytes() == trace.extras["scores"].tobytes()


def test_two_arms_separation(grid):
    # Payoffs always (1, 0) on the arms at 1/4 and 3/4: arm 0 dominates within
    # 10^4 rounds.
    stream = CellPayoff(grid, lambda c: float(c[0] < 0.5))
    [trace] = run_exp3(stream, 2, 10**4, [np.random.default_rng(4)])
    assert np.array_equal(arm_points(grid, 2), [[0.25], [0.75]])
    assert replay_exp3(grid, stream, 2, trace)[-1][0] > 0.9


def test_payoff_validation(grid):
    stream = ConstPayoff(grid, 1.7)
    with pytest.raises(ConfigError, match="must lie in"):
        run_exp3(stream, 4, 5, [np.random.default_rng(5)])
    with pytest.raises(ConfigError, match="must lie in"):
        run_exp3(stream, 4, 5, [np.random.default_rng(5), np.random.default_rng(6)])
    with pytest.raises(ConfigError):
        run_exp3(ConstPayoff(grid, 0.5), 0, 5, [np.random.default_rng(5)])


def test_run_exp3_constant_stream_zero_regret(grid):
    stream = ConstPayoff(grid, 0.4)
    [trace] = run_exp3(stream, 8, 50, [np.random.default_rng(6)])
    assert static_regret(trace) == pytest.approx(0.0, abs=1e-9)


def test_run_exp3_requires_payoff(grid):
    with pytest.raises(ConfigError):
        run_exp3(default_trig_stream(grid, seed=7), 8, 5, [np.random.default_rng(8)])


def test_fine_arms_dominate_coarse_best_value(grid):
    # Arm lattices nest when the refinement ratio is odd, so the fine grid's
    # best arm value upper-bounds the coarse one's.
    stream = to_payoff(default_trig_stream(grid, seed=9))
    vals = stream.values(1)
    coarse = arm_points(grid, 9)
    fine = arm_points(grid, 27)
    coarse_cells = [grid.cell_index(a) for a in coarse]
    fine_cells = [grid.cell_index(a) for a in fine]
    assert set(coarse_cells) <= set(fine_cells)
    assert vals[fine_cells].max() >= vals[coarse_cells].max()


def test_run_uniform_matches_mean(grid):
    stream = to_payoff(default_trig_stream(grid, seed=10))
    [trace] = run_uniform(stream, 20, [np.random.default_rng(11)])
    mean = stream.values(1).mean()
    assert np.allclose(trace.expected, mean, atol=1e-12)
    # The trace holds only what the run produced: no echo of its inputs.
    assert trace.extras == {}


def test_run_uniform_draws_as_grids_sample(grid):
    stream = to_payoff(default_trig_stream(grid, seed=12, drift_rate=0.1))
    seeds = [13, 14, 15]
    traces = run_uniform(stream, 25, [np.random.default_rng(s) for s in seeds])
    uniform = Density.uniform(grid)
    for seed, trace in zip(seeds, traces):
        g = np.random.default_rng(seed)
        draws = np.array([sample(uniform, g) for _ in range(trace.horizon)])
        assert draws.tobytes() == trace.actions.tobytes()


def test_horizon_must_be_positive(grid):
    stream = ConstPayoff(grid, 0.5)
    with pytest.raises(ValueError, match="horizon"):
        run_exp3(stream, 4, 0, [np.random.default_rng(0)])
    with pytest.raises(ValueError, match="horizon"):
        run_uniform(stream, 0, [np.random.default_rng(0)])
