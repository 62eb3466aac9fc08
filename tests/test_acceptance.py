"""Acceptance suite: one test per criterion, with a PASS/FAIL line each.

Criteria 4-7 run through the CLI driver (configs below) so that criterion 8
can re-execute the identical configs and compare output bytes.  Run with
``pytest tests/test_acceptance.py -s`` to see the per-criterion lines; the
full suite takes on the order of 20 minutes on two cores.
"""

import csv
import math
import os
import time

import numpy as np
import pytest

from dualavg import (
    BoxDomain,
    Density,
    ExactChannel,
    Grid,
    GridFunction,
    Schedule,
    conjugate,
    default_trig_stream,
    fenchel_coupling,
    fit_slope,
    kernel_estimate,
    l1_distance,
    mirror,
    mixed_strategy,
    negentropy,
    pair,
    quadratic,
    run_da,
    sample,
    to_payoff,
    window_decomposition,
)
from dualavg.cli import run_command
from dualavg.config import parse_config, run_seed
from dualavg.regularizers import ambient_distance, burg, tsallis
from test_regularizers import _closed_form_conjugate, _kkt_multiplier

THREADS = 2

CONFIG_C4_EXACT = """\
domain.dim = 1
grid.n = 1024
algorithm = da
stream.kind = trig_mixture
stream.seed = 2024
channel.kind = exact
schedule.eta_exponent = 0.5
horizon = 10000
seeds = 0..15
"""

CONFIG_C4_NOISY = """\
domain.dim = 1
grid.n = 1024
algorithm = da
stream.kind = trig_mixture
stream.seed = 2024
channel.kind = unbiased
channel.noise_scale = 0.5
schedule.eta_exponent = 0.5
horizon = 10000
seeds = 0..15
"""

CONFIG_C5_BDA = """\
domain.dim = 1
grid.n = 1024
algorithm = bda
stream.kind = trig_mixture
stream.seed = 2024
stream.payoff = true
channel.kind = bandit
schedule.eta_coef = 1.0
schedule.eta_exponent = 0.75
schedule.delta_coef = 0.25
schedule.delta_exponent = 0.25
schedule.eps_coef = 0.5
schedule.eps_exponent = 0.25
horizon = 100000
seeds = 0..15
"""

CONFIG_C6_DYNAMIC = """\
domain.dim = 1
grid.n = 1024
algorithm = da
stream.kind = drifting
stream.seed = 2024
stream.drift_rate = 0.003
stream.drift_exponent = 0.5
channel.kind = unbiased
channel.noise_scale = 0.5
schedule.eta_exponent = 0.16666666666666666
horizon = 100000
seeds = 0..15
"""

CONFIG_C7_BDA = """\
domain.dim = 1
grid.n = 1024
algorithm = bda
stream.kind = trig_mixture
stream.seed = 281
stream.terms = 64
stream.payoff = true
channel.kind = bandit
schedule.eta_coef = 3.0
schedule.eta_exponent = 0.75
schedule.delta_coef = 0.25
schedule.delta_exponent = 0.25
schedule.eps_coef = 0.35
schedule.eps_exponent = 0.25
horizon = 50000
seeds = 0..15
"""

CONFIG_C7_EXP3 = """\
domain.dim = 1
grid.n = 1024
algorithm = exp3_grid
exp3.arms = 32
stream.kind = trig_mixture
stream.seed = 281
stream.terms = 64
stream.payoff = true
channel.kind = bandit
horizon = 50000
seeds = 0..15
"""

ALL_CONFIGS = {
    "c4_exact": CONFIG_C4_EXACT,
    "c4_noisy": CONFIG_C4_NOISY,
    "c5_bda": CONFIG_C5_BDA,
    "c6_dynamic": CONFIG_C6_DYNAMIC,
    "c7_bda": CONFIG_C7_BDA,
    "c7_exp3": CONFIG_C7_EXP3,
}


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _read_summary(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    t = np.array([int(r["t"]) for r in rows])
    mean = np.array([float(r["mean_regret"]) for r in rows])
    std = np.array([float(r["std_regret"]) for r in rows])
    return t, mean, std


def _read_seed_column(out_dir, algorithm, seeds, column):
    curves = []
    for seed in seeds:
        path = os.path.join(out_dir, f"{algorithm}_seed{seed}.csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        curves.append([float(r[column]) for r in rows])
        t = [int(r["t"]) for r in rows]
    return np.array(t), np.array(curves)


@pytest.fixture(scope="session")
def acceptance_runs(tmp_path_factory):
    """Execute the simulation configs once; criteria 4-7 read the outputs."""
    root = tmp_path_factory.mktemp("acceptance")
    outputs = {}
    for name, text in ALL_CONFIGS.items():
        cfg_path = root / f"{name}.cfg"
        cfg_path.write_text(text)
        out_dir = root / "first" / name
        files = run_command(str(cfg_path), out=str(out_dir), threads=THREADS)
        outputs[name] = (str(cfg_path), str(out_dir), files)
    return outputs


# ---------------------------------------------------------------------------
# Criterion 1: mirror-map / Fenchel property suite, n=256, >=1000 instances.
# ---------------------------------------------------------------------------


def test_criterion_1_fenchel_property_suite():
    started = time.time()
    grid = Grid(BoxDomain(0.0, 1.0), 256)
    rng = np.random.default_rng(20260810)
    families = [negentropy(), quadratic(), burg(), tsallis(0.5)]
    modulus_families = [negentropy(), quadratic()]
    N = 1000
    violations = []

    def rand_score(scale=2.0):
        return GridFunction(grid, rng.normal(0.0, scale, grid.n_cells))

    def rand_density():
        vals = np.abs(rng.normal(1.0, 0.7, grid.n_cells)) + 1e-3
        return Density(grid, vals / (vals.sum() * grid.cell_volume))

    # Fenchel-Young inequality and equality characterization.
    for i in range(N):
        reg = families[i % 4]
        y, p = rand_score(), rand_density()
        F = fenchel_coupling(reg, p, y)
        if F < -1e-8:
            violations.append(("fenchel-young", i, F))
        q = mirror(reg, y)
        if fenchel_coupling(reg, q, y) > 1e-8:
            violations.append(("fenchel-young-equality", i))
        if reg.family != "negentropy":
            # conjugate() is <y, Q(y)> - h(Q(y)) for these families, so the
            # equality above holds by construction; the closed form in the
            # multiplier recovered from Q(y) checks it independently.
            lam, _ = _kkt_multiplier(reg, y.values, q.values)
            closed = _closed_form_conjugate(reg, y.values, lam, grid.cell_volume,
                                            grid.domain.volume)
            if abs(conjugate(reg, y) - closed) > 1e-10 * max(1.0, abs(closed)):
                violations.append(("closed-form-conjugate", i, conjugate(reg, y), closed))
        if l1_distance(p, q) > 0.05 and F <= 1e-8:
            violations.append(("fenchel-young-strictness", i))

    # Strong-convexity lower bound (Pinsker for negentropy, L2 for quadratic).
    for i in range(N):
        reg = modulus_families[i % 2]
        y, p = rand_score(), rand_density()
        F = fenchel_coupling(reg, p, y)
        dist = ambient_distance(reg, mirror(reg, y), p)
        if F < 0.5 * reg.modulus * dist**2 - 1e-9:
            violations.append(("strong-convexity", i))

    # Three-point identity.
    for i in range(N):
        reg = families[i % 4]
        y, y2, p = rand_score(), rand_score(), rand_density()
        q = mirror(reg, y)
        lhs = fenchel_coupling(reg, p, y2)
        rhs = (
            fenchel_coupling(reg, p, y)
            + fenchel_coupling(reg, q, y2)
            + pair(y2 - y, GridFunction(grid, q.values - p.values))
        )
        if abs(lhs - rhs) > 1e-7 * max(1.0, abs(lhs), abs(rhs)):
            violations.append(("three-point", i, lhs, rhs))

    # Key inequality with the dual-norm bound kappa * sup-norm.
    for i in range(N):
        reg = modulus_families[i % 2]
        y, w, p = rand_score(), rand_score(0.8), rand_density()
        q = mirror(reg, y)
        lhs = fenchel_coupling(reg, p, y + w)
        rhs = (
            fenchel_coupling(reg, p, y)
            + pair(w, GridFunction(grid, q.values - p.values))
            + np.abs(w.values).max() ** 2 * reg.kappa(1.0) ** 2 / (2 * reg.modulus)
        )
        if lhs > rhs + 1e-8:
            violations.append(("key-inequality", i))

    # Log-integral-exp second-order bound on a 64-point remainder grid.
    reg = negentropy()
    xis = np.linspace(0.0, 1.0, 64)
    for i in range(N):
        y, w = rand_score(), rand_score(1.5)
        lhs = conjugate(reg, y + w)
        w2 = w * w
        quad = max(pair(w2, mirror(reg, y + float(xi) * w)) for xi in xis)
        rhs = conjugate(reg, y) + pair(w, mirror(reg, y)) + 0.5 * quad
        if lhs > rhs + 1e-8:
            violations.append(("logsumexp", i))

    elapsed = time.time() - started
    _report(
        1,
        "mirror-map/Fenchel property suite",
        not violations and elapsed < 60.0,
        f"{5 * N} instances, {len(violations)} violations, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 2: per-step energy recursion and telescoped bound, T=2000.
# ---------------------------------------------------------------------------


def test_criterion_2_energy_recursion():
    started = time.time()
    grid = Grid(BoxDomain(0.0, 1.0), 1024)
    stream = default_trig_stream(grid, seed=2024)
    third = grid.n_cells // 3
    mu = Density.uniform_on_cells(grid, np.arange(third, 2 * third))
    trace = run_da(
        grid,
        negentropy(),
        stream,
        ExactChannel(),
        Schedule(1.0 / stream.V, 0.5),
        2000,
        np.random.default_rng(0),
        diagnostics=mu,
    )
    ex = trace.extras
    energy_ok = bool(np.all(ex["energy"][1:] <= ex["energy_rhs"] + 1e-6))
    nonneg_ok = bool(np.all(ex["energy"] >= -1e-9))
    reg_mu = np.cumsum(ex["comparator_increment"])
    bound = (
        ex["h_gap"] / ex["eta"][1:]
        + np.cumsum(ex["error_term"])
        + ex["kappa"] ** 2 / (2 * ex["modulus"]) * np.cumsum(ex["sq_term"])
    )
    telescoped_ok = bool(np.all(reg_mu <= bound + 1e-4))
    elapsed = time.time() - started
    _report(
        2,
        "energy recursion and telescoped bound",
        energy_ok and nonneg_ok and telescoped_ok and elapsed < 60.0,
        f"recursion={energy_ok} telescoped={telescoped_ok} ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# Criterion 3: kernel estimator bias <= L*delta + Monte-Carlo tolerance.
# ---------------------------------------------------------------------------


def test_criterion_3_kernel_bias():
    started = time.time()
    grid = Grid(BoxDomain(0.0, 1.0), 1000)
    stream = to_payoff(default_trig_stream(grid, seed=7))
    u = stream.values(1)
    rng = np.random.default_rng(1)
    y = GridFunction(grid, rng.normal(0.0, 1.0, grid.n_cells))
    _, mixed = mixed_strategy(y, eta=1.0, eps=0.3)
    strategy = Density(grid, mixed)
    delta = 0.08
    probes = np.array([0.06, 0.19, 0.33, 0.47, 0.55, 0.68, 0.81, 0.94])
    probe_cells = np.array([grid.cell_index(x) for x in probes])
    probe_centers = grid.centers[probe_cells, 0]

    N = 10**5
    draws = sample(strategy, rng, size=N)
    sums = np.zeros(probes.size)
    sumsq = np.zeros(probes.size)
    for i in range(N):
        x_draw = draws[i]
        cell = grid.cell_index(x_draw)
        _, value = kernel_estimate(grid, x_draw, u[cell], strategy.values[cell], delta)
        hit = np.abs(probe_centers - x_draw[0]) <= delta
        est = np.where(hit, value, 0.0)
        sums += est
        sumsq += est * est
    means = sums / N
    stds = np.sqrt(np.maximum(sumsq / N - means**2, 0.0) * N / (N - 1))
    tol = stream.L * delta + 4.0 * stds / math.sqrt(N)
    devs = np.abs(means - u[probe_cells])
    ok = bool(np.all(devs <= tol))
    elapsed = time.time() - started
    _report(
        3,
        "kernel estimator bias",
        ok and elapsed < 120.0,
        f"max dev {devs.max():.4f} vs tol {tol.min():.4f}..{tol.max():.4f} ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# Criterion 4: full-information rate, exact and unbiased channels.
# ---------------------------------------------------------------------------


def test_criterion_4_full_information_rate(acceptance_runs):
    slopes = {}
    for name in ("c4_exact", "c4_noisy"):
        _, out_dir, _ = acceptance_runs[name]
        t, mean, _ = _read_summary(os.path.join(out_dir, "summary.csv"))
        slopes[name] = fit_slope(t, mean).slope
    ok = all(0.35 <= s <= 0.65 for s in slopes.values())
    _report(
        4,
        "full-information regret rate",
        ok,
        f"slopes exact={slopes['c4_exact']:.3f} unbiased={slopes['c4_noisy']:.3f} "
        f"target [0.35, 0.65] (theory 0.5)",
    )


# ---------------------------------------------------------------------------
# Criterion 5: bandit rate for kernel dual averaging.
# ---------------------------------------------------------------------------


def test_criterion_5_bandit_rate(acceptance_runs):
    _, out_dir, _ = acceptance_runs["c5_bda"]
    t, mean, _ = _read_summary(os.path.join(out_dir, "summary.csv"))
    slope = fit_slope(t, mean).slope
    ok = 0.60 <= slope <= 0.90 and slope < 0.95
    _report(
        5,
        "bandit regret rate",
        ok,
        f"slope {slope:.3f} target [0.60, 0.90] (theory 0.75), sublinear check < 0.95",
    )


# ---------------------------------------------------------------------------
# Criterion 6: dynamic regret under drift, plus window decomposition.
# ---------------------------------------------------------------------------


def test_criterion_6_dynamic_regret(acceptance_runs):
    _, out_dir, _ = acceptance_runs["c6_dynamic"]
    t, curves = _read_seed_column(out_dir, "da", range(16), "dynamic_regret")
    slope = fit_slope(t, curves.mean(axis=0)).slope
    slope_ok = 0.70 <= slope <= 0.95

    cfg = parse_config(CONFIG_C6_DYNAMIC)
    trace = run_seed(cfg, 0)
    T = trace.horizon
    deltas = [math.ceil(T ** (1.0 / 3.0)), 1000, 10000, T]
    window_ok = True
    for delta in deltas:
        result = window_decomposition(trace, delta)
        window_ok = window_ok and result.holds
    _report(
        6,
        "dynamic regret rate and window decomposition",
        slope_ok and window_ok,
        f"slope {slope:.3f} target [0.70, 0.95] (theory 0.833); "
        f"window bound holds at deltas {deltas}: {window_ok}",
    )


# ---------------------------------------------------------------------------
# Criterion 7: kernel learner vs EXP3-on-a-grid, mean and variance.
# ---------------------------------------------------------------------------


def test_criterion_7_kernel_vs_grid(acceptance_runs):
    T = 50000
    finals = {}
    for name in ("c7_bda", "c7_exp3"):
        _, out_dir, _ = acceptance_runs[name]
        t, mean, std = _read_summary(os.path.join(out_dir, "summary.csv"))
        assert t[-1] == T
        finals[name] = (mean[-1] / T, std[-1] / T)
    bda_mean, bda_std = finals["c7_bda"]
    exp3_mean, exp3_std = finals["c7_exp3"]
    ok = bda_mean < exp3_mean and bda_std < exp3_std
    _report(
        7,
        "kernel vs grid baseline",
        ok,
        f"avg regret: kernel {bda_mean:.4f} vs grid {exp3_mean:.4f}; "
        f"seed std: kernel {bda_std:.5f} vs grid {exp3_std:.5f}",
    )


# ---------------------------------------------------------------------------
# Criterion 8: byte-identical CSVs on repeat execution.
# ---------------------------------------------------------------------------


def test_criterion_8_determinism(acceptance_runs, tmp_path):
    mismatches = []
    for name, (cfg_path, first_dir, files) in acceptance_runs.items():
        second_dir = tmp_path / name
        run_command(cfg_path, out=str(second_dir), threads=THREADS)
        for path in files:
            rel = os.path.basename(path)
            with open(path, "rb") as fh:
                first = fh.read()
            with open(second_dir / rel, "rb") as fh:
                second = fh.read()
            if first != second:
                mismatches.append(f"{name}/{rel}")
    _report(
        8,
        "byte-identical reruns",
        not mismatches,
        f"{len(mismatches)} mismatching files" + (f": {mismatches}" if mismatches else ""),
    )
