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
from dualavg.grids import draw_cell
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


class SwitchPayoff(ConstPayoff):
    """Payoff ``c`` on every cell in rounds 1..T, then a distinct payoff per cell.

    A driver's scores after T rounds show in its expected value of round
    T + 1, the probabilities of that round against the distinct payoffs.
    """

    def __init__(self, grid, c, T):
        super().__init__(grid, c)
        self.T = T
        self._after = np.arange(1.0, grid.n_cells + 1) / grid.n_cells

    def values(self, t):
        return self._vals if t <= self.T else self._after


def arm_points(grid, arms_per_axis):
    """EXP3's arms: the cell centers of an ``arms_per_axis`` lattice over the domain."""
    return Grid(grid.domain, arms_per_axis).centers


def arm_cells(grid, arms_per_axis):
    """The grid cells that hold EXP3's arms, in arm order."""
    return [grid.cell_index(a) for a in arm_points(grid, arms_per_axis)]


def replay_exp3(grid, stream, arms_per_axis, trace, rng):
    """Replay one-seed EXP3, drawing from ``rng``.

    Each round draws an arm with ``draw_cell`` on the cumulative sums of the
    probabilities and checks, bit for bit, that the trace's realized and
    expected values are those of the drawn arm and of the probabilities; the
    scores add payoff / probability at the drawn arm.  Returns the
    probabilities of rounds 1..T+1.
    """
    cells = arm_cells(grid, arms_per_axis)
    scores = np.zeros(len(cells))
    history = []
    for t in range(1, trace.horizon + 1):
        payoffs = stream.values(t)[cells]
        probs = exp3_probabilities(scores, t)
        history.append(probs)
        arm = draw_cell(np.cumsum(probs), rng.random())
        assert trace.realized[t - 1] == payoffs[arm]
        assert trace.expected[t - 1] == float(probs @ payoffs)
        scores[arm] += payoffs[arm] / probs[arm]
    history.append(exp3_probabilities(scores, trace.horizon + 1))
    return history


def test_single_arm_probability_one(grid):
    stream = ConstPayoff(grid, 0.7)
    [trace] = run_exp3(stream, 1, 30, [np.random.default_rng(0)])
    for probs in replay_exp3(grid, stream, 1, trace, np.random.default_rng(0)):
        assert probs[0] == pytest.approx(1.0)
    assert np.all(trace.realized == 0.7)


def test_equal_payoffs_stay_uniform(grid):
    # While the anytime tuning keeps gamma_t = 1 the mixture is exactly
    # uniform; afterwards pathwise symmetry is broken by the draws, so the
    # uniformity is distributional (checked as a mean over runs below).
    m = 8
    horizon_exact = int(m * np.log(m))  # gamma_t = 1 for t <= m log m
    stream = ConstPayoff(grid, 0.5)
    [trace] = run_exp3(stream, m, horizon_exact, [np.random.default_rng(1)])
    for probs in replay_exp3(grid, stream, m, trace, np.random.default_rng(1))[:horizon_exact]:
        assert np.abs(probs - 1.0 / m).max() < 1e-9
    # After 80 equal rounds, round 81 pays a distinct value per arm, so each
    # run's expected value of round 81 is its round-81 probabilities against
    # those payoffs; the replay checks it bit for bit.
    runs, T = 400, 80
    stream = SwitchPayoff(grid, 0.5, T)
    block = run_exp3(stream, m, T + 1, [np.random.default_rng(1000 + r) for r in range(runs)])
    acc = sum(replay_exp3(grid, stream, m, tr, np.random.default_rng(1000 + r))[T]
              for r, tr in enumerate(block))
    assert np.abs(acc / runs - 1.0 / m).max() < 0.05
    observed = np.mean([tr.expected[T] for tr in block])
    assert abs(observed - stream.values(T + 1)[arm_cells(grid, m)].mean()) < 0.05


def test_zero_payoffs_leave_state_unchanged(grid):
    # Zero payoffs in rounds 1..50 leave the scores at 0: round 51 pays a
    # distinct value per arm, and its expected value is that of zero scores.
    m, T = 6, 50
    stream = SwitchPayoff(grid, 0.0, T)
    [trace] = run_exp3(stream, m, T + 1, [np.random.default_rng(2)])
    probs = exp3_probabilities(np.zeros(m), T + 1)
    assert trace.expected[T] == float(probs @ stream.values(T + 1)[arm_cells(grid, m)])


def test_probability_vector_valid_with_floor(grid):
    m = 16
    arm3 = grid.cell_index(arm_points(grid, m)[3])
    stream = CellPayoff(grid, lambda c: grid.cell_index(c) == arm3)
    [trace] = run_exp3(stream, m, 300, [np.random.default_rng(3)])
    assert trace.realized.max() == 1.0  # arm 3 was drawn and paid
    for t, probs in enumerate(replay_exp3(grid, stream, m, trace, np.random.default_rng(3)),
                              start=1):
        gamma = min(1.0, math.sqrt(m * math.log(m) / t))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= gamma / m - 1e-15)
    # Deterministic in the seed.
    [again] = run_exp3(stream, m, 300, [np.random.default_rng(3)])
    for name in ("expected", "realized"):
        assert getattr(again, name).tobytes() == getattr(trace, name).tobytes()


def test_two_arms_separation(grid):
    # Payoffs always (1, 0) on the arms at 1/4 and 3/4: arm 0 dominates within
    # 10^4 rounds.
    stream = CellPayoff(grid, lambda c: float(c[0] < 0.5))
    [trace] = run_exp3(stream, 2, 10**4, [np.random.default_rng(4)])
    assert np.array_equal(arm_points(grid, 2), [[0.25], [0.75]])
    assert replay_exp3(grid, stream, 2, trace, np.random.default_rng(4))[-1][0] > 0.9


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


def test_run_uniform_draws_as_grids_sample(grid):
    stream = to_payoff(default_trig_stream(grid, seed=12, drift_rate=0.1))
    seeds = [13, 14, 15]
    traces = run_uniform(stream, 25, [np.random.default_rng(s) for s in seeds])
    uniform = Density.uniform(grid)
    for seed, trace in zip(seeds, traces):
        # Each round draws a cell and a point in it; the realized value is
        # the stream's at the drawn cell.
        g = np.random.default_rng(seed)
        cells = [sample(uniform, [g])[0][0, 0] for _ in range(trace.horizon)]
        realized = np.array([stream.values(t)[cell] for t, cell in enumerate(cells, start=1)])
        assert realized.tobytes() == trace.realized.tobytes()


def test_horizon_must_be_positive(grid):
    stream = ConstPayoff(grid, 0.5)
    with pytest.raises(ValueError, match="horizon"):
        run_exp3(stream, 4, 0, [np.random.default_rng(0)])
    with pytest.raises(ValueError, match="horizon"):
        run_uniform(stream, 0, [np.random.default_rng(0)])
