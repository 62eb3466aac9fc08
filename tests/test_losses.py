import math

import numpy as np
import pytest

from dualavg import (
    BanditChannel,
    BiasedChannel,
    BoxDomain,
    ConfigError,
    Density,
    ExactChannel,
    FiniteSumStream,
    Grid,
    GridFunction,
    TrigStream,
    UnbiasedChannel,
    default_trig_stream,
    loss_function,
    sup_norm,
    to_payoff,
    variation,
)


@pytest.fixture
def grid():
    return Grid(BoxDomain(0.0, 1.0), 256)


def test_single_term_sup_bound(grid):
    stream = TrigStream(grid, amplitudes=[0.8], freqs=[[3]], phases=[0.4])
    f = loss_function(stream, 1)
    assert sup_norm(f) <= 0.8
    assert stream.V == pytest.approx(0.8)


def test_zero_drift_is_static(grid):
    stream = default_trig_stream(grid, seed=1, drift_rate=0.0)
    f1 = loss_function(stream, 1)
    f99 = loss_function(stream, 99)
    assert np.array_equal(f1.values, f99.values)
    assert stream.kind == "trig_mixture"


def test_drifting_changes_rounds(grid):
    stream = default_trig_stream(grid, seed=1, drift_rate=0.05)
    assert stream.kind == "drifting"
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


def test_finite_sum_mean_and_determinism(grid):
    comps = [
        GridFunction.from_callable(grid, lambda c, k=k: np.sin(2 * np.pi * (k + 1) * c[:, 0]))
        for k in range(4)
    ]
    stream = FiniteSumStream(comps, lipschitz=8 * math.pi, seed=5)
    mean = stream.mean_loss()
    stacked = np.mean([c.values for c in comps], axis=0)
    assert np.abs(mean.values - stacked).max() < 1e-12
    assert stream.component_index(17) == stream.component_index(17)
    # Uniform component sampling is an unbiased model of the mean risk.
    N = 20000
    acc = np.zeros(grid.n_cells)
    for t in range(1, N + 1):
        acc += stream.values(t)
    acc /= N
    sigma = np.std([c.values for c in comps], axis=0).max()
    assert np.abs(acc - stacked).max() < 4 * sigma / math.sqrt(N)


def test_finite_sum_values_are_read_only_copies(grid):
    comps = [GridFunction.constant(grid, 1.0), GridFunction.constant(grid, 2.0)]
    stream = FiniteSumStream(comps, lipschitz=0.0, seed=3)
    vals = stream.values(1)
    with pytest.raises(ValueError):
        vals[0] = 5.0
    # The caller's arrays stay theirs: mutating them leaves the stream intact.
    for c in comps:
        c.values[:] = -7.0
    assert set(np.unique(stream.values(1))) <= {1.0, 2.0}
    model = ExactChannel().observe(stream, 1, None, None, None).model
    with pytest.raises(ValueError):
        model.values[0] = 0.0


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


def test_exact_channel_returns_truth(grid):
    stream = default_trig_stream(grid, seed=6)
    obs = ExactChannel().observe(stream, 3, Density.uniform(grid), np.array([0.5]),
                                 np.random.default_rng(0))
    assert np.array_equal(obs.model.values, stream.values(3))
    assert obs.bias_bound == 0.0 and obs.noise_bound == 0.0


def test_unbiased_channel_zero_mean():
    grid = Grid(BoxDomain(0.0, 1.0), 64)
    stream = default_trig_stream(grid, seed=7)
    channel = UnbiasedChannel(noise_scale=0.5)
    rng = np.random.default_rng(8)
    probe = np.arange(0, 64, 4)
    N = 10**5
    acc = np.zeros(probe.size)
    for t in range(N):
        obs = channel.observe(stream, 1, None, None, rng)
        acc += obs.model.values[probe]
        assert obs.noise_bound == 0.5
    acc /= N
    truth = stream.values(1)[probe]
    assert np.abs(acc - truth).max() < 4 * 0.5 / math.sqrt(N)


def test_unbiased_noise_sup_bound(grid):
    stream = default_trig_stream(grid, seed=9)
    channel = UnbiasedChannel(noise_scale=0.25)
    rng = np.random.default_rng(10)
    truth = stream.values(1)
    for _ in range(200):
        obs = channel.observe(stream, 1, None, None, rng)
        assert np.abs(obs.model.values - truth).max() <= 0.25 + 1e-12


def test_biased_channel_zero_bias_matches_unbiased(grid):
    stream = default_trig_stream(grid, seed=11)
    unbiased = UnbiasedChannel(noise_scale=0.3)
    degenerate = BiasedChannel(noise_scale=0.3, bias_scale=0.0, bias_decay=1.0)
    o1 = unbiased.observe(stream, 2, None, None, np.random.default_rng(12))
    o2 = degenerate.observe(stream, 2, None, None, np.random.default_rng(12))
    assert np.array_equal(o1.model.values, o2.model.values)


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
            acc += channel.observe(stream, t, None, None, rng).model.values
        emp_bias = np.abs(acc / N - truth).max()
        assert emp_bias <= B0 * t ** (-decay) * 1.05
        assert channel.bias_bound(t) == pytest.approx(B0 * t ** (-decay))


def test_bandit_channel(grid):
    stream = to_payoff(default_trig_stream(grid, seed=15))
    channel = BanditChannel()
    rng = np.random.default_rng(16)
    obs = channel.observe(stream, 1, Density.uniform(grid), np.array([0.3]), rng)
    assert obs.model is None
    assert obs.payoff == pytest.approx(stream.values(1)[grid.cell_index(0.3)])
    with pytest.raises(ConfigError):
        channel.observe(default_trig_stream(grid, seed=15), 1, None, np.array([0.3]), rng)


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
