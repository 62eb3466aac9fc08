import numpy as np
import pytest

from dualavg import (
    BoxDomain,
    Density,
    ExactChannel,
    Grid,
    GridFunction,
    FiniteSumStream,
    Schedule,
    default_checkpoints,
    default_trig_stream,
    dynamic_regret,
    fit_slope,
    negentropy,
    pair,
    regret_vs_comparator,
    run_da,
    static_regret,
    window_decomposition,
)
from dualavg.errors import NumericalError
from dualavg.losses import LossStream
from dualavg.regret import (
    TraceRecorder,
    neighborhood_comparator,
    regret_vs_point,
)


@pytest.fixture
def grid():
    return Grid(BoxDomain(0.0, 1.0), 256)


class ConstantStream(LossStream):
    def __init__(self, grid, c):
        self.grid = grid
        self.c = c
        self.V = abs(c)
        self.L = 0.0
        self._vals = np.full(grid.n_cells, float(c))

    def values(self, t):
        return self._vals


class ShiftedStream(LossStream):
    """Base stream plus a round-dependent constant."""

    def __init__(self, base, shifts):
        self.base = base
        self.grid = base.grid
        self.shifts = shifts
        self.V = base.V + max(abs(s) for s in shifts.values())
        self.L = base.L

    def values(self, t):
        return self.base.values(t) + self.shifts.get(t, 0.0)


def replay(stream, strategies, grid):
    """Trace of playing the given densities against the stream (no sampling)."""
    T = len(strategies)
    rec = TraceRecorder(stream, grid, T, checkpoints=default_checkpoints(T, start=1, ratio=2.0))
    for t, x in enumerate(strategies, start=1):
        f = GridFunction(grid, stream.values(t))
        rec.record(t, stream.values(t), pair(f, x), 0.0, grid.centers[0])
    return rec.finish()


def test_constant_stream_zero_regret(grid):
    stream = ConstantStream(grid, 2.5)
    trace = replay(stream, [Density.uniform(grid)] * 10, grid)
    assert static_regret(trace) == pytest.approx(0.0, abs=1e-10)
    assert dynamic_regret(trace) == pytest.approx(0.0, abs=1e-10)
    mu = Density.uniform_on_cells(grid, np.arange(7))
    assert regret_vs_comparator(trace, mu) == pytest.approx(0.0, abs=1e-10)


def test_static_regret_hand_value(grid):
    # Loss -1 on a single cell, 0 elsewhere; uniform play for T rounds.
    cell = 40
    vals = np.zeros(grid.n_cells)
    vals[cell] = -1.0
    stream = FiniteSumStream([GridFunction(grid, vals)], lipschitz=1.0)
    T = 12
    trace = replay(stream, [Density.uniform(grid)] * T, grid)
    uniform_mean = -grid.cell_volume / grid.domain.volume
    expected = T * (uniform_mean - (-1.0))
    assert static_regret(trace) == pytest.approx(expected, abs=1e-10)


def test_regret_invariant_under_round_constants(grid):
    base = default_trig_stream(grid, seed=0)
    shifts = {t: 0.5 * np.sin(t) for t in range(1, 21)}
    shifted = ShiftedStream(base, shifts)
    rng = np.random.default_rng(1)
    strategies = []
    for _ in range(20):
        raw = np.abs(rng.normal(1, 0.5, grid.n_cells)) + 1e-3
        strategies.append(Density(grid, raw / (raw.sum() * grid.cell_volume)))
    t1 = replay(base, strategies, grid)
    t2 = replay(shifted, strategies, grid)
    assert static_regret(t1) == pytest.approx(static_regret(t2), abs=1e-8)
    assert dynamic_regret(t1) == pytest.approx(dynamic_regret(t2), abs=1e-8)
    mu = Density.uniform_on_cells(grid, np.arange(10, 50))
    assert regret_vs_comparator(t1, mu) == pytest.approx(
        regret_vs_comparator(t2, mu), abs=1e-8
    )


def test_comparator_identity_with_time_average(grid):
    stream = default_trig_stream(grid, seed=2)
    rng = np.random.default_rng(3)
    strategies = []
    for _ in range(15):
        raw = np.abs(rng.normal(1, 0.5, grid.n_cells)) + 1e-3
        strategies.append(Density(grid, raw / (raw.sum() * grid.cell_volume)))
    trace = replay(stream, strategies, grid)
    avg = Density(grid, np.mean([x.values for x in strategies], axis=0))
    expected = sum(
        pair(GridFunction(grid, stream.values(t)), strategies[t - 1])
        - pair(GridFunction(grid, stream.values(t)), avg)
        for t in range(1, 16)
    )
    assert regret_vs_comparator(trace, avg) == pytest.approx(expected, abs=1e-9)


def test_dynamic_vs_static_ordering(grid):
    static_stream = default_trig_stream(grid, seed=4)
    trace = replay(static_stream, [Density.uniform(grid)] * 25, grid)
    assert dynamic_regret(trace) == pytest.approx(static_regret(trace), abs=1e-9)
    drift = default_trig_stream(grid, seed=4, drift_rate=0.3)
    trace2 = replay(drift, [Density.uniform(grid)] * 25, grid)
    assert dynamic_regret(trace2) >= static_regret(trace2) - 1e-12


def test_neighborhood_comparator_chain(grid):
    # Lemma-style chain: Reg_x <= Reg_mu + L * diam(U) * T on recorded traces.
    stream = default_trig_stream(grid, seed=5)
    rng = np.random.default_rng(6)
    trace = run_da(
        grid, negentropy(), stream, ExactChannel(), Schedule(0.5, 0.5), 60, rng
    )
    for _ in range(10):
        x = rng.uniform(0.0, 1.0, size=1)
        mu, diam = neighborhood_comparator(grid, x, rng.uniform(0.02, 0.3))
        lhs = regret_vs_point(trace, x)
        rhs = regret_vs_comparator(trace, mu) + stream.L * diam * trace.horizon
        assert lhs <= rhs + 1e-6


def test_window_decomposition_degenerate(grid):
    stream = default_trig_stream(grid, seed=7)
    trace = replay(stream, [Density.uniform(grid)] * 30, grid)
    full = window_decomposition(trace, 30)
    assert full.holds
    assert len(full.window_regrets) == 1
    assert full.window_regrets[0] == pytest.approx(static_regret(trace), abs=1e-9)
    # Static stream: window regrets sum to the static regret, V_T = 0.
    anyd = window_decomposition(trace, 7)
    assert anyd.variation == 0.0
    assert anyd.window_regrets.sum() == pytest.approx(static_regret(trace), abs=1e-8)


def test_window_decomposition_drifting(grid):
    rng = np.random.default_rng(8)
    for k in range(20):
        stream = default_trig_stream(
            grid, seed=100 + k, drift_rate=float(rng.uniform(0.001, 0.2))
        )
        T = int(rng.integers(20, 80))
        trace = run_da(
            grid, negentropy(), stream, ExactChannel(),
            Schedule(0.5, 0.5), T, np.random.default_rng(k),
        )
        delta = int(rng.integers(1, T + 1))
        result = window_decomposition(trace, delta)
        assert result.holds, (k, delta, result.dynamic, result.bound)


def test_fit_slope_exact():
    horizons = np.array([100, 300, 1000, 3000, 10000])
    assert fit_slope(horizons, horizons).slope == pytest.approx(1.0, abs=1e-9)
    assert fit_slope(horizons, np.sqrt(horizons)).slope == pytest.approx(0.5, abs=1e-9)


def test_fit_slope_noisy_power_law():
    rng = np.random.default_rng(9)
    horizons = np.geomspace(100, 10**5, 12)
    values = 3.1 * horizons**0.75 * (1.0 + 0.01 * rng.normal(size=12))
    fit = fit_slope(horizons, values)
    assert fit.slope == pytest.approx(0.75, abs=0.02)
    assert fit.half_width < 0.05


def test_fit_slope_validation():
    with pytest.raises(NumericalError):
        fit_slope([100, 200, 300, 400], [1, 2, 3, 4])  # spans < 1.5 decades
    with pytest.raises(NumericalError):
        fit_slope([100, 1000, 10000, 100000], [1.0, -2.0, 3.0, -4.0])  # < 4 positive


def test_cumulative_grid_snapshot_matches_recompute(grid):
    stream = default_trig_stream(grid, seed=10, drift_rate=0.05)
    trace = replay(stream, [Density.uniform(grid)] * 16, grid)
    cp = int(trace.checkpoints[-2])
    direct = np.zeros(grid.n_cells)
    for t in range(1, cp + 1):
        direct += stream.values(t)
    assert np.abs(trace.cumulative_grid(cp) - direct).max() < 1e-10
    # Off-checkpoint horizons recompute lazily.
    off = cp + 1
    assert static_regret(trace, off) == pytest.approx(
        float(trace.expected[:off].sum()) - float((direct + stream.values(off)).min()),
        abs=1e-9,
    )


def test_cumulative_grid_resume_is_bitwise(grid):
    stream = default_trig_stream(grid, seed=4, drift_rate=0.05)
    T = 300
    trace = run_da(grid, negentropy(), stream, ExactChannel(), Schedule(1.0, 0.5), T,
                   np.random.default_rng(1),
                   checkpoints=default_checkpoints(T, start=10, ratio=1.7))
    brute = np.zeros(grid.n_cells)
    sums = {}
    for t in range(1, T + 1):
        brute += stream.values(t)
        sums[t] = brute.copy()
    cps = set(trace.checkpoints.tolist())
    off = [t for t in (1, 9, 11, 50, 111, 299) if t not in cps]
    assert off == [1, 9, 11, 50, 111, 299]
    for t in off + sorted(cps):
        assert np.array_equal(trace.cumulative_grid(t), sums[t]), t


@pytest.mark.parametrize("cps", [[0, 5, 10], [5, 5, 10], [10, 5], [5, 30]])
def test_recorder_rejects_checkpoints_it_cannot_snapshot(grid, cps):
    stream = default_trig_stream(grid, seed=1)
    with pytest.raises(ValueError):
        TraceRecorder(stream, grid, 20, checkpoints=np.array(cps))
