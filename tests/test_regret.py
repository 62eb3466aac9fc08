import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from dualavg import (
    BoxDomain,
    Density,
    ExactChannel,
    Grid,
    GridFunction,
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
    to_payoff,
    window_decomposition,
)
from dualavg import regret as regret_module
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
    """The same values every round: ``c`` in every cell, or one value per cell."""

    def __init__(self, grid, c):
        self.grid = grid
        self._vals = np.full(grid.n_cells, c, dtype=float)
        self.V = float(np.abs(self._vals).max())
        self.L = 0.0

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


def replay(stream, strategies, grid, cells=None):
    """Trace of playing the given densities against the stream.

    Without ``cells`` nothing is drawn (realized value 0 at the first cell);
    otherwise round t realizes the value at ``cells[t - 1]``.
    """
    T = len(strategies)
    rec = TraceRecorder(stream, grid, T, checkpoints=default_checkpoints(T, start=1, ratio=2.0))
    for t, x in enumerate(strategies, start=1):
        f = GridFunction(grid, stream.values(t))
        if cells is None:
            rec.record(t, stream.values(t), pair(f, x), 0.0, grid.centers[0])
        else:
            cell = cells[t - 1]
            rec.record(t, stream.values(t), pair(f, x), f.values[cell], grid.centers[cell])
    return rec.finish_block()[0]


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
    stream = ConstantStream(grid, vals)
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


def test_payoff_regrets_are_loss_regrets_over_2V(grid):
    # The one sign rule: replaying the same strategies and draws against a
    # loss stream and its payoff view (V - f) / (2V) scales every regret by
    # exactly 1 / (2V), sign included.
    loss = default_trig_stream(grid, seed=31, drift_rate=0.1)
    payoff = to_payoff(loss)
    rng = np.random.default_rng(32)
    T = 40
    strategies = []
    for _ in range(T):
        raw = np.abs(rng.normal(1, 0.8, grid.n_cells)) + 1e-3
        strategies.append(Density(grid, raw / (raw.sum() * grid.cell_volume)))
    cells = rng.integers(0, grid.n_cells, T)
    t_loss, t_pay = (replay(s, strategies, grid, cells) for s in (loss, payoff))
    scale = 2.0 * loss.V
    mu = Density.uniform_on_cells(grid, np.arange(30, 90))
    regrets = {
        "static": lambda tr, h: static_regret(tr, h),
        "static realized": lambda tr, h: static_regret(tr, h, realized=True),
        "dynamic": lambda tr, h: dynamic_regret(tr, h),
        "comparator": lambda tr, h: regret_vs_comparator(tr, mu, h),
        "point": lambda tr, h: regret_vs_point(tr, np.array([0.3]), h),
    }
    for h in (1, 17, T):
        for name, regret in regrets.items():
            assert abs(regret(t_loss, h)) > 1e-3, (name, h)
            assert regret(t_pay, h) == pytest.approx(regret(t_loss, h) / scale,
                                                     rel=1e-9, abs=1e-12), (name, h)
    for delta in (1, 7, T):
        np.testing.assert_allclose(window_decomposition(t_pay, delta).window_regrets,
                                   window_decomposition(t_loss, delta).window_regrets / scale,
                                   rtol=1e-9, atol=1e-12)


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


def test_window_decomposition_computes_variation_once(grid, monkeypatch):
    def drifting_trace():
        stream = default_trig_stream(grid, seed=21, drift_rate=0.05)
        return run_da(grid, negentropy(), stream, ExactChannel(), Schedule(0.5, 0.5), 60,
                      np.random.default_rng(22))

    deltas = (1, 7, 20, 60)
    # Reference: a fresh trace per window length, so nothing is shared.
    fresh = [window_decomposition(drifting_trace(), d) for d in deltas]
    trace = drifting_trace()
    calls = []
    original = regret_module.variation
    monkeypatch.setattr(regret_module, "variation",
                        lambda s, T: calls.append(T) or original(s, T))
    shared = [window_decomposition(trace, d) for d in deltas]
    assert calls == [60]
    for a, b in zip(shared, fresh):
        assert np.array_equal(a.window_regrets, b.window_regrets)
        assert (a.window_length, a.dynamic, a.variation, a.bound, a.holds) == (
            b.window_length, b.dynamic, b.variation, b.bound, b.holds)
    assert shared[0].variation > 0


@pytest.mark.parametrize("payoff", [False, True])
def test_window_decomposition_evaluates_no_round(grid, payoff):
    base = default_trig_stream(grid, seed=23, drift_rate=0.05)
    stream = to_payoff(base) if payoff else base
    trace = run_da(grid, negentropy(), stream, ExactChannel(), Schedule(0.5, 0.5), 50,
                   np.random.default_rng(24))
    reference = {d: window_decomposition(replay_rounds(trace), d) for d in (1, 7, 50)}
    calls = []
    for s in {stream, base}:
        values = s.values
        s.values = lambda t, values=values: calls.append(t) or values(t)
    for delta, ref in reference.items():
        got = window_decomposition(trace, delta)
        assert got.holds
        np.testing.assert_allclose(got.window_regrets, ref.window_regrets,
                                   rtol=1e-12, atol=1e-12)
        assert got.variation == pytest.approx(ref.variation, rel=1e-12)
    assert calls == []


def replay_rounds(trace):
    """The trace with its stream behind a wrapper that has only ``values``,
    so that window sums and V_T loop over the rounds."""
    return dataclasses.replace(trace, stream=RoundsOnly(trace.stream))


class RoundsOnly(LossStream):
    def __init__(self, stream):
        self.stream = stream
        self.grid = stream.grid
        self.V, self.L = stream.V, stream.L
        self.payoff_convention = stream.payoff_convention

    def values(self, t):
        return self.stream.values(t)


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


def test_cumulative_grid_is_the_stream_window_sum(grid):
    # The trace stores no cumulative values: every horizon, on a checkpoint
    # or between two, is the stream's window sum over [1, T], and that
    # matches the sum of the rounds.
    T = 300
    base = default_trig_stream(grid, seed=4, drift_rate=0.05)
    streams = {"static": default_trig_stream(grid, seed=4), "drifting": base,
               "payoff": to_payoff(base)}
    for kind, stream in streams.items():
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
            got = trace.cumulative_grid(t)
            assert np.array_equal(got, stream.window_sum(1, t)), (kind, t)
            assert np.abs(got - sums[t]).max() <= 1e-9, (kind, t)


@pytest.mark.parametrize("cps", [[0, 5, 10], [5, 5, 10], [10, 5], [5, 30]])
def test_recorder_rejects_checkpoints_it_cannot_snapshot(grid, cps):
    stream = default_trig_stream(grid, seed=1)
    with pytest.raises(ValueError):
        TraceRecorder(stream, grid, 20, checkpoints=np.array(cps))


def _unique_checkpoints(T, start, ratio):
    """The geometric checkpoint rule with np.unique: the reference."""
    points = []
    c = float(start)
    while c <= T:
        points.append(int(round(c)))
        c *= ratio
    points.append(T)
    return np.unique(np.asarray(points, dtype=int))


@pytest.mark.parametrize("T, start, ratio", [
    (1, 100, 1.3), (100, 100, 1.3), (101, 100, 1.3), (1600, 50, 1.3),
    (10**6, 100, 1.3), (32, 1, 1.3), (20, 1, 2.0), (5, 1, 1.01),
    (1000, 3, 1.7), (400, 10, 1.3), (7, 7, 1.5),
])
def test_default_checkpoints_match_unique(T, start, ratio):
    got = default_checkpoints(T, start=start, ratio=ratio)
    expected = _unique_checkpoints(T, start, ratio)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("start, ratio", [(0, 1.3), (-5, 1.3), (1, 1.0), (1, float("nan"))])
def test_default_checkpoints_reject_a_sequence_that_never_passes_T(start, ratio):
    with pytest.raises(ValueError):
        default_checkpoints(100, start=start, ratio=ratio)


_NUMPY_MA_PROBE = """\
import sys
from dualavg.config import parse_config, run_seed
run_seed(parse_config(sys.stdin.read()), 0)
print("numpy.ma" in sys.modules)
"""


def test_run_seed_leaves_numpy_ma_unimported():
    # numpy.ma costs a pool worker about 17 ms to import; nothing in a run needs it.
    config = ("domain.dim = 2\ngrid.n = 16\nalgorithm = da\nregularizer.family = burg\n"
              "channel.kind = biased\nchannel.noise_scale = 0.5\nchannel.bias_scale = 0.5\n"
              "channel.bias_decay = 0.5\nhorizon = 20\nseeds = 0\ncheckpoint.start = 2\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _NUMPY_MA_PROBE], input=config, env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
