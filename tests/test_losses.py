import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualavg import (
    BanditChannel,
    BiasedChannel,
    BoxDomain,
    ConfigError,
    Density,
    DomainError,
    ExactChannel,
    Grid,
    Schedule,
    TrigStream,
    UnbiasedChannel,
    default_trig_stream,
    kernel_estimate,
    to_payoff,
    variation,
)
from dualavg import losses as losses_module
from dualavg.losses import _axis_cycled_freqs, _TrigBasis


@pytest.fixture
def grid():
    return Grid(BoxDomain(0.0, 1.0), 256)


def test_single_term_sup_bound(grid):
    stream = TrigStream(grid, amplitudes=[0.8], freqs=[[3]], phases=[0.4])
    assert np.abs(stream.values(1)).max() <= 0.8
    assert stream.V == pytest.approx(0.8)


def test_zero_drift_is_static(grid):
    stream = default_trig_stream(grid, seed=1, drift_rate=0.0)
    assert np.array_equal(stream.values(1), stream.values(99))


def test_drifting_changes_rounds(grid):
    stream = default_trig_stream(grid, seed=1, drift_rate=0.05)
    assert not np.array_equal(stream.values(1), stream.values(50))


def test_declared_bounds_hold_over_time(grid):
    rng = np.random.default_rng(0)
    streams = [
        default_trig_stream(grid, seed=3),
        default_trig_stream(grid, seed=4, drift_rate=0.1, drift_exponent=0.5),
    ]
    ts = np.unique(rng.integers(1, 10**4, size=40))
    for stream in streams:
        for t in ts:
            vals = stream.values(int(t))
            assert np.abs(vals).max() <= stream.V + 1e-12
            # Sampled-pair Lipschitz ratios on cell centers.
            i = rng.integers(0, grid.n_cells, size=200)
            j = rng.integers(0, grid.n_cells, size=200)
            keep = i != j
            num = np.abs(vals[i[keep]] - vals[j[keep]])
            den = np.abs(grid.centers[i[keep], 0] - grid.centers[j[keep], 0])
            assert np.all(num <= stream.L * den * (1 + 1e-6))


def test_drifting_stream_evaluates_each_round_once(grid):
    stream = default_trig_stream(grid, seed=2, drift_rate=0.1)
    calls = []
    combine = stream._basis.combine
    stream._basis.combine = lambda a, p: calls.append(1) or combine(a, p)
    first = stream.values(5)
    assert stream.values(5) is first and len(calls) == 1
    assert not first.flags.writeable
    fresh = default_trig_stream(grid, seed=2, drift_rate=0.1)
    assert np.array_equal(stream.values(6), fresh.values(6)) and len(calls) == 2
    assert np.array_equal(stream.values(5), first) and len(calls) == 3


@pytest.mark.parametrize("drift_rate, evaluations", [(0.0, 1), (0.1, 100)])
def test_payoff_stream_evaluates_base_once_per_key(grid, drift_rate, evaluations):
    payoffs = to_payoff(default_trig_stream(grid, seed=4, drift_rate=drift_rate))
    calls = []
    from_base = payoffs._from_base
    payoffs._from_base = lambda t: calls.append(t) or from_base(t)
    fresh = to_payoff(default_trig_stream(grid, seed=4, drift_rate=drift_rate))
    for t in range(1, 101):
        assert np.array_equal(payoffs.values(t), fresh._from_base(t))
    assert len(calls) == evaluations


def test_exact_channel_returns_truth(grid):
    stream = default_trig_stream(grid, seed=6)
    index, values = ExactChannel().observe(stream, 3, Density.uniform(grid), 128,
                                           np.array([0.5]), np.random.default_rng(0))
    assert index is ...
    assert values is stream.values(3)  # the stream's own array, not a copy
    with pytest.raises(ValueError):
        values[0] = 0.0  # the model is the stream's read-only values


def test_unbiased_channel_zero_mean():
    grid = Grid(BoxDomain(0.0, 1.0), 64)
    stream = default_trig_stream(grid, seed=7)
    channel = UnbiasedChannel(noise_scale=0.5)
    rng = np.random.default_rng(8)
    probe = np.arange(0, 64, 4)
    N = 10**5
    acc = np.zeros(probe.size)
    for t in range(N):
        index, values = channel.observe(stream, 1, None, None, None, rng)
        acc += values[probe]
        assert index is ...
    acc /= N
    truth = stream.values(1)[probe]
    assert np.abs(acc - truth).max() < 4 * 0.5 / math.sqrt(N)


def test_unbiased_noise_sup_bound(grid):
    stream = default_trig_stream(grid, seed=9)
    channel = UnbiasedChannel(noise_scale=0.25)
    rng = np.random.default_rng(10)
    truth = stream.values(1)
    for _ in range(200):
        index, values = channel.observe(stream, 1, None, None, None, rng)
        assert index is ... and np.abs(values - truth).max() <= 0.25 + 1e-12


@pytest.mark.parametrize("make", [
    pytest.param(lambda: UnbiasedChannel(math.nan), id="noise-nan"),
    pytest.param(lambda: UnbiasedChannel(math.inf), id="noise-inf"),
    pytest.param(lambda: UnbiasedChannel(-0.1), id="noise-negative"),
    pytest.param(lambda: BiasedChannel(0.3, math.nan, 0.5), id="bias-scale-nan"),
    pytest.param(lambda: BiasedChannel(0.3, math.inf, 0.5), id="bias-scale-inf"),
    pytest.param(lambda: BiasedChannel(0.3, 0.5, math.nan), id="bias-decay-nan"),
    pytest.param(lambda: BiasedChannel(0.3, 0.5, math.inf), id="bias-decay-inf"),
    pytest.param(lambda: BiasedChannel(0.3, 0.5, -1.0), id="bias-decay-negative"),
])
def test_noise_channels_reject_bad_settings_at_construction(make):
    # Caught here: no channel checks its model mid-run, so a non-finite
    # setting would reach the scores (and a negative decay makes a bias
    # that grows).
    with pytest.raises(ValueError, match="must be finite and nonnegative"):
        make()


@pytest.mark.parametrize("kwargs", [
    pytest.param(dict(amplitudes=[0.5, math.nan]), id="amplitude-nan"),
    pytest.param(dict(amplitudes=[math.inf, 0.5]), id="amplitude-inf"),
    pytest.param(dict(phases=[0.1, math.nan]), id="phase-nan"),
    pytest.param(dict(phases=[-math.inf, 0.1]), id="phase-inf"),
    pytest.param(dict(drift_rate=math.nan), id="drift-rate-nan"),
    pytest.param(dict(drift_rate=math.inf), id="drift-rate-inf"),
    pytest.param(dict(drift_exponent=math.nan), id="drift-exponent-nan"),
    pytest.param(dict(drift_exponent=math.inf), id="drift-exponent-inf"),
    pytest.param(dict(amplitudes=[1e308, 1e308]), id="sup-bound-overflows"),
])
def test_trig_stream_rejects_non_finite_inputs_at_construction(grid, kwargs):
    # No channel checks a model: a stream that would make a non-finite round
    # fails here, not at its first observation.
    args = {"amplitudes": [0.5, 0.25], "freqs": [[1], [2]], "phases": [0.1, 0.2], **kwargs}
    with np.errstate(over="ignore"), pytest.raises(DomainError, match="must be finite"):
        TrigStream(grid, **args)


@pytest.mark.parametrize("drift_rate, drift_exponent, t", [
    (1e308, 1.0, 2),  # the product overflows
    (1.0, 400.0, 10**4),  # the power overflows
])
def test_trig_stream_rejects_a_non_finite_phase_shift(grid, drift_rate, drift_exponent, t):
    stream = TrigStream(grid, [0.5], [[1]], [0.1], drift_rate=drift_rate,
                        drift_exponent=drift_exponent)
    assert np.isfinite(stream.values(1)).all()
    with pytest.raises(DomainError, match=f"round {t} is not finite"):
        stream.values(t)


def test_biased_channel_zero_bias_matches_unbiased(grid):
    stream = default_trig_stream(grid, seed=11)
    unbiased = UnbiasedChannel(noise_scale=0.3)
    degenerate = BiasedChannel(noise_scale=0.3, bias_scale=0.0, bias_decay=1.0)
    i1, v1 = unbiased.observe(stream, 2, None, None, None, np.random.default_rng(12))
    i2, v2 = degenerate.observe(stream, 2, None, None, None, np.random.default_rng(12))
    assert i1 is ... and i2 is ... and np.array_equal(v1, v2)


def test_biased_channel_bias_decay(grid):
    stream = default_trig_stream(grid, seed=13)
    B0, decay = 0.4, 0.7
    channel = BiasedChannel(noise_scale=0.2, bias_scale=B0, bias_decay=decay)
    rng = np.random.default_rng(14)
    truth = stream.values(1)
    for t in (1, 5, 40):
        N = 10**4
        acc = np.zeros(grid.n_cells)
        for _ in range(N):
            acc += channel.observe(stream, t, None, None, None, rng)[1]
        emp_bias = np.abs(acc / N - truth).max()
        assert emp_bias <= B0 * t ** (-decay) * 1.05
        assert channel.bias_bound(t) == pytest.approx(B0 * t ** (-decay))


def test_biased_channel_profile_follows_the_grid():
    # One channel observed on grids of different sizes uses each grid's own
    # profile, as a fresh channel would.
    channel = BiasedChannel(noise_scale=0.5, bias_scale=0.5, bias_decay=0.5)
    for n in (8, 16, 8):
        grid = Grid(BoxDomain(0.0, 1.0), n)
        stream = default_trig_stream(grid, seed=3)
        _, values = channel.observe(stream, 2, None, None, None, np.random.default_rng(4))
        _, fresh = BiasedChannel(noise_scale=0.5, bias_scale=0.5, bias_decay=0.5).observe(
            stream, 2, None, None, None, np.random.default_rng(4))
        assert np.array_equal(values, fresh)


@pytest.mark.parametrize("lower,upper,n", [([0.0], [1.0], 16), ([-1.0, 0.0], [2.0, 0.5], 8),
                                           ([0.0, 1.0, -2.0], [0.5, 3.0, 1.0], 4)])
def test_biased_channel_model_is_the_full_grid_profile_sum(lower, upper, n):
    # The axis-0 profile added by broadcasting gives, bit for bit, the model
    # that a full-grid profile over ``grid.centers[:, 0]`` gives.
    grid = Grid(BoxDomain(lower, upper), n)
    stream = default_trig_stream(grid, seed=3)
    channel = BiasedChannel(noise_scale=0.5, bias_scale=0.5, bias_decay=0.5)
    u = (grid.centers[:, 0] - grid.domain.lower[0]) / grid.domain.lengths[0]
    profile = np.sin(2.0 * math.pi * u + channel._bias_phase)
    profile = profile / np.abs(profile).max()
    for t in (1, 2, 9):
        index, model = channel.observe(stream, t, None, None, None, np.random.default_rng(t))
        _, unbiased = UnbiasedChannel(noise_scale=0.5).observe(
            stream, t, None, None, None, np.random.default_rng(t))
        expected = unbiased + channel.bias_bound(t) * profile
        assert index is ... and model.tobytes() == expected.tobytes()


def test_bandit_channel_kernel_model_and_descriptors(grid):
    # The model is the kernel estimate of the payoff at the drawn cell, with
    # the played density there, on the ball of radius ``channel.radius``,
    # delta(t) floored at twice the cell diameter (B_t = L * radius); it stays
    # within M_t, its value with the payoff at its bound 1.
    stream = to_payoff(default_trig_stream(grid, seed=15))
    delta = Schedule(0.2, 1.0)
    channel = BanditChannel(delta)
    floor = 2.0 * grid.cell_diameter
    rng = np.random.default_rng(16)
    floored = 0
    for t in (1, 2, 5, 40, 41, 200):
        raw = rng.uniform(0.05, 1.0, grid.n_cells)
        strategy = raw / (raw.sum() * grid.cell_volume)
        cell = int(rng.integers(grid.n_cells))
        action = grid.centers[cell] + (rng.random(1) - 0.5) * grid.steps
        support, value = channel.observe(stream, t, strategy, cell, action, rng)
        radius = max(delta(t), floor)
        floored += radius > delta(t)
        assert channel.radius(grid, t) == radius
        payoff = stream.values(t)[cell]
        kernel_support, kernel_value = kernel_estimate(grid, action, payoff, strategy[cell],
                                                       radius)
        assert np.array_equal(support, kernel_support) and value == kernel_value
        dist = np.abs(grid.centers[:, 0] - action[0])
        assert np.array_equal(support, np.flatnonzero(dist <= radius))
        assert value == payoff / (support.size * grid.cell_volume * strategy[cell])
        assert 0.0 <= value <= 1.0 / (support.size * grid.cell_volume * strategy[cell])
    assert floored == 3  # 0.2 / t < 2 * cell diameter from t = 40 on
    with pytest.raises(ConfigError):
        channel.observe(default_trig_stream(grid, seed=15), 1, strategy, 0, np.array([0.001]),
                        rng)


def test_payoff_conversion(grid):
    base = default_trig_stream(grid, seed=17)
    pay = to_payoff(base)
    for t in (1, 7):
        vals = pay.values(t)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        expected = (base.V - base.values(t)) / (2 * base.V)
        assert np.abs(vals - expected).max() < 1e-15
    assert pay.V == 1.0
    assert pay.L == pytest.approx(base.L / (2 * base.V))


def test_variation_static_and_convention(grid):
    static = default_trig_stream(grid, seed=18)
    assert variation(static, 100) == 0.0
    drifting = default_trig_stream(grid, seed=18, drift_rate=0.01)
    assert variation(drifting, 1) == 0.0  # f_{T+1} = f_T convention


def test_variation_linear_in_small_drift(grid):
    # Small-drift regime: the doubling error decays linearly in rho.
    rho = 1e-6
    v1 = variation(default_trig_stream(grid, seed=19, drift_rate=rho), 50)
    v2 = variation(default_trig_stream(grid, seed=19, drift_rate=2 * rho), 50)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-6)
    assert v1 > 0


def test_variation_growth_exponent(grid):
    # Phase drift rho * t^v makes V_T grow like T^v.
    stream = default_trig_stream(grid, seed=20, drift_rate=0.02, drift_exponent=0.5)
    v_short = variation(stream, 1000)
    v_long = variation(stream, 4000)
    assert v_long / v_short == pytest.approx(2.0, rel=0.1)


@st.composite
def windowed_streams(draw):
    """A static or drifting trig stream, as losses or payoffs, at d = 1 or 2, and a window."""
    dim = draw(st.integers(1, 2))
    n = draw(st.integers(1, 64) if dim == 1 else st.integers(1, 12))
    grid = Grid(BoxDomain([0.0] * dim, [draw(st.floats(0.5, 3.0))] * dim), n)
    # Drift from 0.05 up: below that the per-round coefficient differences the
    # closed form subtracts lose more than 1e-12 of their value to rounding.
    drifting = draw(st.booleans())
    stream = default_trig_stream(
        grid, seed=draw(st.integers(0, 1000)), n_terms=draw(st.integers(1, 8)),
        drift_rate=draw(st.floats(0.05, 1.0)) if drifting else 0.0,
        drift_exponent=draw(st.floats(0.2, 1.0)))
    if draw(st.booleans()):
        stream = to_payoff(stream)
    T = draw(st.integers(1, 150))
    start = draw(st.integers(1, T))
    stop = draw(st.integers(start, T))
    return stream, T, start, stop


def _round_step(stream, t):
    """sup over cells of |f_{t+1} - f_t| on the grid, without subtracting two rounds.

    Each term's difference comes from sin(x + b) - sin(x + a) =
    2 cos(x + (a + b)/2) sin((b - a)/2), with b - a = rho (t+1)^v - rho t^v
    formed as rho t^v expm1(v log1p(1/t)).  Subtracting two rounds' values
    instead loses about 1e-16 in absolute terms, which is more than 1e-12 of
    a small step.
    """
    base = getattr(stream, "base", stream)
    sin, cos = _dense_tables(base.grid, _axis_cycled_freqs(len(base.amplitudes), base.grid.dim))
    rho, v = base.drift_rate, base.drift_exponent
    half_step = 0.5 * rho * t ** v * math.expm1(v * math.log1p(1.0 / t))
    mid = base.phases + rho * t ** v + half_step
    coeff = 2.0 * math.sin(half_step) * base.amplitudes
    step = float(np.abs((coeff * np.cos(mid)) @ cos - (coeff * np.sin(mid)) @ sin).max())
    return step / (2.0 * base.V) if base is not stream else step


@settings(max_examples=150, deadline=None)
@given(windowed_streams())
def test_closed_form_window_sum_and_variation_match_round_loop(case):
    stream, T, start, stop = case
    loop_sum = np.zeros(stream.grid.n_cells)
    for t in range(start, stop + 1):
        loop_sum += stream.values(t)
    loop_variation = 0.0
    for t in range(1, T):
        loop_variation += _round_step(stream, t)
    got = stream.window_sum(start, stop)
    assert got.shape == loop_sum.shape
    assert np.abs(got - loop_sum).max() <= 1e-12 * np.abs(loop_sum).max()
    got_variation = variation(stream, T)
    if getattr(stream, "base", stream).drift_rate == 0.0:
        assert got_variation == loop_variation == 0.0
    else:
        assert abs(got_variation - loop_variation) <= 1e-12 * loop_variation


def test_variation_with_column_blocked_products():
    # A 1-D grid with many terms: one round's product exceeds the BLAS limit,
    # so each round's sup comes from products in column blocks.
    grid = Grid(BoxDomain(0.0, 1.0), 8192)
    stream = default_trig_stream(grid, seed=3, n_terms=64, drift_rate=0.05)
    assert 64 * grid.n_cells > losses_module._GEMV_LIMIT
    expected = sum(float(np.abs(stream.values(t + 1) - stream.values(t)).max())
                   for t in range(1, 40))
    assert variation(stream, 40) == pytest.approx(expected, rel=1e-12)


def _dense_tables(grid, freqs):
    """sin and cos of 2*pi*(freqs @ u.T) on every cell: the (K, n_cells) reference."""
    u = (grid.centers - grid.domain.lower) / grid.domain.lengths
    args = 2.0 * math.pi * (freqs @ u.T)
    return np.sin(args), np.cos(args)


def _dense_combine(grid, freqs, amplitudes, phases):
    sin, cos = _dense_tables(grid, freqs)
    return (amplitudes * np.cos(phases)) @ sin + (amplitudes * np.sin(phases)) @ cos


@pytest.mark.parametrize("dim, n", [(1, 1024), (2, 48), (3, 12)])
@pytest.mark.parametrize("n_terms", [5, 64])
def test_trig_tables_equal_matrix_product_formula(dim, n, n_terms):
    grid = Grid(BoxDomain([0.0] * dim, [1.0 + 0.5 * k for k in range(dim)]), n)
    freqs = _axis_cycled_freqs(n_terms, dim)
    basis = _TrigBasis(grid, freqs)
    dense_sin, dense_cos = _dense_tables(grid, freqs)
    assert len(basis.tables) == dim
    seen = []
    for k, (terms, sin, cos) in enumerate(basis.tables):
        assert sin.shape == cos.shape == (len(terms), n)
        assert np.all(freqs[terms, k] != 0)
        seen.extend(terms.tolist())
        # Term j of axis k, spread over the grid along axis k, is its dense row.
        shape = [1] * dim
        shape[k] = n
        for table, dense in ((sin, dense_sin), (cos, dense_cos)):
            for row, j in zip(table, terms):
                spread = np.broadcast_to(row.reshape(shape), grid.shape).ravel()
                assert np.array_equal(spread, dense[j])
    assert sorted(seen) == list(range(n_terms))


def test_trig_tables_shared_per_grid_and_read_only():
    grid = Grid(BoxDomain([0.0, 0.0], [1.0, 2.0]), 32)
    stream = default_trig_stream(grid, seed=1)
    channel = BiasedChannel(noise_scale=0.5, bias_scale=0.5, bias_decay=0.5)
    channel.observe(stream, 1, None, None, None, np.random.default_rng(2))
    assert channel._basis is not stream._basis
    assert channel._basis.tables is stream._basis.tables
    other = default_trig_stream(Grid(BoxDomain([0.0, 0.0], [1.0, 2.0]), 32), seed=1)
    assert other._basis.tables is not stream._basis.tables
    for (terms, sin, cos), (o_terms, o_sin, o_cos) in zip(stream._basis.tables,
                                                          other._basis.tables):
        assert o_sin is not sin
        assert np.array_equal(o_terms, terms)
        assert np.array_equal(o_sin, sin) and np.array_equal(o_cos, cos)
        for table in (sin, cos):
            with pytest.raises(ValueError):
                table[0, 0] = 0.0
        with pytest.raises(ValueError):
            terms[0] = 1


@pytest.mark.parametrize("n_terms, n", [(5, 65536), (64, 65536), (256, 8192)])
def test_blocked_combine_matches_unblocked_formula(n_terms, n):
    grid = Grid(BoxDomain(0.0, 1.0), n)
    basis = _TrigBasis(grid, _axis_cycled_freqs(n_terms, 1))
    rng = np.random.default_rng(n_terms)
    amplitudes = rng.standard_normal(n_terms)
    phases = rng.uniform(0.0, 2.0 * math.pi, n_terms)
    (terms, sin, cos), = basis.tables
    assert np.array_equal(terms, np.arange(n_terms))
    expected = (amplitudes * np.cos(phases)) @ sin + (amplitudes * np.sin(phases)) @ cos
    got = basis.combine(amplitudes, phases)
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("dim, n, n_terms", [(2, 256, 5), (2, 64, 64), (3, 16, 5),
                                             (3, 16, 64), (3, 8, 2)])
def test_per_axis_combine_matches_dense_formula(dim, n, n_terms):
    # (3, 8, 2) leaves axis 2 without terms.
    grid = Grid(BoxDomain([-1.0] * dim, [0.5 + k for k in range(dim)]), n)
    freqs = _axis_cycled_freqs(n_terms, dim)
    rng = np.random.default_rng(dim * n_terms)
    amplitudes = rng.standard_normal(n_terms)
    phases = rng.uniform(0.0, 2.0 * math.pi, n_terms)
    expected = _dense_combine(grid, freqs, amplitudes, phases)
    got = _TrigBasis(grid, freqs).combine(amplitudes, phases)
    assert got.shape == (grid.n_cells,)
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_multi_axis_frequency_vector_rejected():
    grid = Grid(BoxDomain([0.0, 0.0], [1.0, 1.0]), 8)
    with pytest.raises(ValueError, match="single axis"):
        _TrigBasis(grid, np.array([[1.0, 0.0], [2.0, 3.0]]))
    with pytest.raises(ValueError, match="single axis"):
        TrigStream(grid, amplitudes=[1.0], freqs=[[1.0, 1.0]], phases=[0.0])
    # A zero vector (a constant term) lies on no axis and is accepted.
    stream = TrigStream(grid, amplitudes=[1.0], freqs=[[0.0, 0.0]], phases=[0.5])
    assert np.array_equal(stream.values(1), np.full(grid.n_cells, math.sin(0.5)))


_HELPER_THREAD_CPU = """\
import os, sys, time
from dualavg.config import parse_config, run_seed

def helper_cpu():
    # utime + stime of every thread but the main one, whose id is the pid.
    ticks = 0
    for tid in os.listdir("/proc/self/task"):
        if tid != str(os.getpid()):
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")

def settled_helper_cpu():
    # OpenBLAS helpers spin for a while after they start (at import) and after
    # each call that woke them: wait until two readings 0.1 s apart agree.
    last = helper_cpu()
    for _ in range(50):
        time.sleep(0.1)
        now = helper_cpu()
        if now == last:
            break
        last = now
    return now

cfg = parse_config(sys.stdin.read())
before = settled_helper_cpu()
run_seed(cfg, 0)
print(settled_helper_cpu() - before)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("n, terms, horizon", [(256, 5, 3), (256, 64, 8), (64, 256, 3)])
def test_run_starts_no_blas_helper_work(n, terms, horizon):
    # n * n cells.  The thread count is set only in the child's environment.
    config = (f"domain.dim = 2\ngrid.n = {n}\nalgorithm = da\nregularizer.family = quadratic\n"
              f"stream.terms = {terms}\nchannel.kind = biased\nchannel.noise_scale = 0.5\n"
              f"channel.bias_scale = 0.5\nchannel.bias_decay = 0.5\n"
              f"horizon = {horizon}\nseeds = 0\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _HELPER_THREAD_CPU], input=config,
                         env=env, capture_output=True, text=True, check=True)
    assert float(out.stdout) < 0.05


@st.composite
def step_streams(draw):
    """A maker of twin trig streams at d = 1..3 (static or drifting, as losses or
    payoffs) and a step of 1..9 rounds."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, {1: 64, 2: 12, 3: 5}[dim]))
    upper = [draw(st.floats(0.5, 3.0))] * dim
    kwargs = dict(seed=draw(st.integers(0, 1000)), n_terms=draw(st.integers(1, 8)),
                  drift_rate=draw(st.sampled_from([0.0, 0.003, 0.7])),
                  drift_exponent=draw(st.floats(0.2, 1.0)))
    payoff = draw(st.booleans())

    def make():
        stream = default_trig_stream(Grid(BoxDomain([0.0] * dim, upper), n), **kwargs)
        return to_payoff(stream) if payoff else stream

    first = draw(st.integers(1, 200))
    return make, range(first, first + draw(st.integers(1, 9)))


@settings(max_examples=100, deadline=None)
@given(step_streams())
def test_stream_step_rows_equal_the_per_round_values(case):
    make, rounds = case
    stream, alone = make(), make()
    rows = stream.values(rounds)
    assert np.shape(rows) == (len(rounds), stream.grid.n_cells)
    assert np.array(stream.rows(rounds)).tobytes() == np.array(rows).tobytes()
    for row, t in zip(rows, rounds):
        assert not row.flags.writeable
        assert row.tobytes() == alone.values(t).tobytes()


class _ZeroGenerator:
    """Draws zeros only: every noise coefficient vanishes, the zero-scale branch."""

    def random(self, size):
        return np.zeros(size)

    def standard_normal(self, size):
        return np.zeros(size)

    def uniform(self, low, high, size):
        return np.zeros(size)


@settings(max_examples=100, deadline=None)
@given(step_streams(), st.sampled_from(["unbiased", "biased"]), st.floats(0.0, 2.0),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_channel_step_models_equal_the_per_round_models(case, kind, noise_scale, zero, seed):
    # A step's draws and its block of models equal, bit for bit, the draws
    # and the models of per-round observations from a generator in the same
    # state: per round the draw variates first, then the channel's own.
    make, rounds = case

    def channel():
        if kind == "unbiased":
            return UnbiasedChannel(noise_scale)
        return BiasedChannel(noise_scale, bias_scale=0.4, bias_decay=0.6)

    def generator():
        return _ZeroGenerator() if zero else np.random.default_rng(seed)

    stream = make()
    width = 1 + stream.grid.dim
    variates, own = channel().draw(generator(), len(rounds), width)
    index, models = channel().observe(stream, rounds, None, None, None, own)
    assert index is ... and np.shape(models) == (len(rounds), stream.grid.n_cells)
    alone, per_round, g = make(), channel(), generator()
    for t, u, model in zip(rounds, variates, models):
        assert u.tobytes() == g.random(width).tobytes()
        _, expected = per_round.observe(alone, t, None, None, None, g)
        assert model.tobytes() == expected.tobytes()
        if zero:  # no noise: the truth, plus the bias
            truth = np.array(alone.values(t))
            if kind == "biased":
                truth.reshape(alone.grid.n, -1)[:] += (
                    per_round.bias_bound(t) * per_round._profile(alone.grid))[:, None]
            assert expected.tobytes() == truth.tobytes()
