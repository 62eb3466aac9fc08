"""The four benchmark workloads, the user task they time, and its correctness checks.

A workload is a set of dualavg experiment configs run through the public API
(``dualavg.cli.run_command``, plus ``dualavg.config.run_seed`` and
``dualavg.regret.window_decomposition`` for the post-hoc analysis).  The
workload seed shifts the simulation seeds and, except on ``fine_grid_2d``, the
stream seed; seed 0 reproduces the acceptance stream seeds (2024, 281) and
simulation seeds 0..S-1.
"""

from __future__ import annotations

import csv
import io
import json
import math
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import dualavg  # noqa: E402
from dualavg import cli, config, regret  # noqa: E402

if Path(dualavg.__file__).resolve().parent != SRC / "dualavg":
    raise ImportError(f"dualavg imported from {dualavg.__file__}, not from {SRC}")

import tracing  # noqa: E402

DEFAULT_SEED = 0
THREADS = 2  # the acceptance suite's worker count
MIN_REPS = 5
REL_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_DA_EXACT = """\
domain.dim = 1
grid.n = 1024
algorithm = da
stream.kind = trig_mixture
stream.seed = {stream_seed}
channel.kind = exact
schedule.eta_exponent = 0.5
horizon = {horizon}
seeds = {seeds}
checkpoint.start = {start}
"""

_DA_DRIFT = """\
domain.dim = 1
grid.n = 1024
algorithm = da
stream.kind = drifting
stream.seed = {stream_seed}
stream.drift_rate = 0.003
stream.drift_exponent = 0.5
channel.kind = unbiased
channel.noise_scale = 0.5
schedule.eta_exponent = 0.16666666666666666
horizon = {horizon}
seeds = {seeds}
checkpoint.start = {start}
"""

_BDA = """\
domain.dim = 1
grid.n = 1024
algorithm = bda
stream.kind = trig_mixture
stream.seed = {stream_seed}
stream.terms = 64
stream.payoff = true
channel.kind = bandit
schedule.eta_coef = 3.0
schedule.eta_exponent = 0.75
schedule.delta_coef = 0.25
schedule.delta_exponent = 0.25
schedule.eps_coef = 0.35
schedule.eps_exponent = 0.25
horizon = {horizon}
seeds = {seeds}
checkpoint.start = {start}
"""

_EXP3 = """\
domain.dim = 1
grid.n = 1024
algorithm = exp3_grid
exp3.arms = 32
stream.kind = trig_mixture
stream.seed = {stream_seed}
stream.terms = 64
stream.payoff = true
channel.kind = bandit
horizon = {horizon}
seeds = {seeds}
checkpoint.start = {start}
"""

_DA_FINE = """\
domain.dim = 2
grid.n = {n}
algorithm = da
regularizer.family = {family}
{gamma}stream.kind = trig_mixture
stream.seed = {stream_seed}
channel.kind = biased
channel.noise_scale = 0.5
channel.bias_scale = 0.5
channel.bias_decay = 0.5
horizon = {horizon}
seeds = {seeds}
checkpoint.start = {start}
"""


@dataclass(frozen=True)
class Workload:
    """Configs of one workload; why each was chosen is stated in BENCHMARK.json."""

    name: str
    stream_seed: int  # acceptance stream seed, used at the default workload seed
    vary_stream: bool  # whether other workload seeds shift the stream seed too
    configs: tuple  # (label, template, extra template fields)
    n_seeds: int
    horizon: int  # checkpoints from ``start`` to ``horizon`` span >= 1.5 decades
    start: int
    windows: bool  # post-hoc window decomposition on the first seed's trace


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "full_info",
            2024, True, (("da_exact", _DA_EXACT, {}),), 4, 1600, 50, False),
        Workload(
            "drift_windows",
            2024, True, (("da_drift", _DA_DRIFT, {}),), 4, 1600, 50, True),
        Workload(
            "bandit_vs_grid",
            281, True, (("bda", _BDA, {}), ("exp3", _EXP3, {})), 4, 1600, 50, False),
        Workload(
            "fine_grid_2d",
            # Burg's bisection count depends on the stream (about 50 to 120 evaluations
            # per call across stream seeds), so the stream stays fixed and the workload
            # seed varies only the simulation seeds; timings then compare across seeds.
            2024, False,
            tuple((f"da_{fam}", _DA_FINE,
                   {"family": fam, "gamma": gamma, "n": 256})
                  for fam, gamma in (("burg", ""), ("tsallis", "regularizer.gamma = 0.5\n"),
                                     ("quadratic", ""))),
            2, 32, 1, False),
    )
}

# Self-test sizes: every layer still runs, in well under a second per task.
_TINY = {"horizon": 12, "start": 1, "n": 16}


@dataclass(frozen=True)
class TaskSpec:
    """Concrete inputs of one workload at one workload seed."""

    workload: str
    seed: int
    configs: dict  # label -> config file text
    seeds: list
    horizon: int
    window_lengths: list

    @property
    def seed_rounds(self) -> int:
        return len(self.configs) * len(self.seeds) * self.horizon


def make_spec(name: str, seed: int, tiny: bool = False) -> TaskSpec:
    """Inputs of workload ``name`` generated from the workload seed."""
    w = WORKLOADS[name]
    if seed < 0:
        raise ValueError("workload seed must be >= 0")
    horizon = _TINY["horizon"] if tiny else w.horizon
    start = _TINY["start"] if tiny else w.start
    first = seed * w.n_seeds
    seeds = list(range(first, first + w.n_seeds))
    configs = {}
    for label, template, extra in w.configs:
        fields = dict(extra)
        if tiny and "n" in fields:
            fields["n"] = _TINY["n"]
        stream_seed = w.stream_seed + (seed if w.vary_stream else 0)
        configs[label] = template.format(stream_seed=stream_seed, horizon=horizon, start=start,
                                         seeds=f"{seeds[0]}..{seeds[-1]}", **fields)
    # The criterion-6 window lengths, scaled from T = 1e5: T^(1/3), T/100, T/10, T.
    windows = ([math.ceil(horizon ** (1.0 / 3.0)), max(horizon // 100, 1),
                max(horizon // 10, 1), horizon] if w.windows else [])
    return TaskSpec(name, seed, configs, seeds, horizon, windows)


# ---------------------------------------------------------------------------
# One execution of the user task.
# ---------------------------------------------------------------------------

@dataclass
class TaskRun:
    sim_s: float
    wall_s: float
    errors: dict  # label (or "post_hoc") -> message
    windows: list  # WindowDecomposition per window length, or None on error
    outputs: dict  # "<label>/<file>" -> bytes, read after the run


def write_configs(spec: TaskSpec, workdir: Path, horizon: int | None = None) -> dict:
    """Config files of the task (at ``horizon`` if given); returns label -> path."""
    paths = {}
    for label, text in spec.configs.items():
        if horizon is not None:
            text = text.replace(f"horizon = {spec.horizon}\n", f"horizon = {horizon}\n")
        path = workdir / f"{label}{'' if horizon is None else f'_h{horizon}'}.cfg"
        path.write_text(text, encoding="utf-8")
        paths[label] = path
    return paths


def run_task(spec: TaskSpec, cfg_paths: dict, out_dir: Path, threads: int,
             post_hoc: bool = True) -> TaskRun:
    """Run every config of the workload, then its post-hoc analysis; time both."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    errors = {}
    t0 = perf_counter()
    for label, path in cfg_paths.items():
        try:
            cli.run_command(str(path), out=str(out_dir / label), threads=threads)
        except Exception as exc:  # a failed run is counted, not fatal
            errors[label] = f"{type(exc).__name__}: {exc}"
    t1 = perf_counter()
    windows = []
    if post_hoc and spec.window_lengths:
        try:
            cfg = config.load_config(str(next(iter(cfg_paths.values()))))
            trace = config.run_seed(cfg, spec.seeds[0])
            windows = [regret.window_decomposition(trace, d) for d in spec.window_lengths]
        except Exception as exc:
            errors["post_hoc"] = f"{type(exc).__name__}: {exc}"
            windows = [None] * len(spec.window_lengths)
    t2 = perf_counter()
    outputs = {}
    for label in cfg_paths:
        directory = out_dir / label
        if directory.is_dir():
            for entry in sorted(directory.iterdir()):
                outputs[f"{label}/{entry.name}"] = entry.read_bytes()
    return TaskRun(t1 - t0, t2 - t0, errors, windows, outputs)


# ---------------------------------------------------------------------------
# Correctness checks.  Every seed CSV, every summary and every window check is
# one operation; a failure is recorded with the file or window it concerns.
# ---------------------------------------------------------------------------

def _rows(data: bytes) -> tuple[list, list]:
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    header = next(reader)
    return header, [row for row in reader]


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _check_seed_csv(data, expected_t, reference_rows):
    header, rows = _rows(data)
    if header != ["t", "expected_regret", "realized_regret", "dynamic_regret"]:
        return f"bad header {header}"
    values = [[float(x) for x in row] for row in rows]
    if [int(v[0]) for v in values] != expected_t:
        return "checkpoint column differs from the config's checkpoints"
    if not all(math.isfinite(x) for v in values for x in v):
        return "non-finite value"
    if reference_rows is not None:
        if len(reference_rows) != len(values):
            return "row count differs from the reference"
        for v, r in zip(values, reference_rows):
            if not all(_close(a, b) for a, b in zip(v, r)):
                return f"differs from the reference at t={int(v[0])}: {v} vs {r}"
    return None


def _check_summary(data, expected_t):
    header, rows = _rows(data)
    if header[:4] != ["algorithm", "t", "mean_regret", "std_regret"]:
        return f"bad header {header}"
    if [int(r[1]) for r in rows] != expected_t:
        return "checkpoint column differs from the config's checkpoints"
    if not all(math.isfinite(float(x)) for r in rows for x in r[2:4]):
        return "non-finite value"
    return None


def _window_record(w) -> dict:
    return {"delta": w.window_length, "dynamic": w.dynamic, "variation": w.variation,
            "bound": w.bound, "holds": bool(w.holds)}


def check_run(spec: TaskSpec, run: TaskRun, reference: dict | None,
              baseline: dict | None, tag: str) -> tuple[int, list]:
    """Validate one task run; returns (operations attempted, failure messages).

    ``reference`` holds the recorded values at the default seed; ``baseline``
    holds the output bytes of another run of the same task that these must equal.
    """
    attempted, failures = 0, []

    def fail(what, why):
        failures.append(f"{tag}: {what}: {why}")

    for label, text in spec.configs.items():
        cfg = config.parse_config(text)
        expected_t = [int(t) for t in cfg.checkpoints()]
        names = [f"{label}/{cfg.algorithm}_seed{s}.csv" for s in spec.seeds]
        names.append(f"{label}/summary.csv")
        for name in names:
            attempted += 1
            if label in run.errors:
                fail(name, run.errors[label])
                continue
            data = run.outputs.get(name)
            if data is None:
                fail(name, "missing")
                continue
            try:
                if name.endswith("summary.csv"):
                    problem = _check_summary(data, expected_t)
                else:
                    ref = None if reference is None else reference["csv"].get(name)
                    if reference is not None and ref is None:
                        problem = "no reference values recorded"
                    else:
                        problem = _check_seed_csv(data, expected_t, ref)
            except (ValueError, IndexError, StopIteration, UnicodeDecodeError) as exc:
                problem = f"unreadable: {exc}"
            if problem is None and baseline is not None and baseline.get(name) != data:
                problem = "bytes differ from the comparison run"
            if problem is not None:
                fail(name, problem)
    for i, delta in enumerate(spec.window_lengths):
        attempted += 1
        what = f"window_decomposition(delta={delta})"
        w = run.windows[i] if i < len(run.windows) else None
        if w is None:
            fail(what, run.errors.get("post_hoc", "not run"))
            continue
        rec = _window_record(w)
        if not all(math.isfinite(rec[k]) for k in ("dynamic", "variation", "bound")):
            fail(what, "non-finite value")
        elif not rec["holds"]:
            fail(what, f"inequality fails: dynamic {rec['dynamic']} > bound {rec['bound']}")
        elif reference is not None:
            ref = reference["windows"][i]
            if ref["delta"] != delta or not all(
                    _close(rec[k], ref[k]) for k in ("dynamic", "variation", "bound")):
                fail(what, f"differs from the reference: {rec} vs {ref}")
    return attempted, failures


def load_reference(spec: TaskSpec) -> dict | None:
    """Recorded outputs of the default seed; None for other seeds."""
    if spec.seed != DEFAULT_SEED:
        return None
    path = REFERENCE_DIR / f"{spec.workload}.json"
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref["configs"] != spec.configs:
        raise ValueError(f"{path} was recorded for other configs")
    return ref


def reference_record(spec: TaskSpec, run: TaskRun) -> dict:
    """The values of a run that later runs at the default seed must reproduce."""
    csvs = {}
    for name, data in run.outputs.items():
        if not name.endswith("summary.csv"):
            _, rows = _rows(data)
            csvs[name] = [[float(x) for x in row] for row in rows]
    return {"workload": spec.workload, "seed": spec.seed, "configs": spec.configs,
            "csv": csvs, "windows": [_window_record(w) for w in run.windows]}


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------

def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def _result(attempted, failures, metrics, detail) -> dict:
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics, "failures": failures, "detail": detail}


def _repeat(fn, seconds: float, min_reps: int) -> list:
    """Call ``fn`` at least ``min_reps`` times, and again while one more call
    is expected to end within ``seconds`` of the start."""
    results, started = [], perf_counter()
    while True:
        results.append(fn())
        elapsed = perf_counter() - started
        if len(results) >= min_reps and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def timed_run(spec: TaskSpec, seconds: float, workdir: Path, reference: dict | None) -> dict:
    """End-to-end metrics, tracing off, ``THREADS`` workers.

    Outputs must match ``reference`` if given, else a 1-worker run of the task.
    """
    setup_paths = write_configs(spec, workdir, horizon=1)
    cfg_paths = write_configs(spec, workdir)
    out = workdir / "out"

    # Set-up and full runs alternate, so that a slow spell of the machine hits both.
    setups, runs = [], []

    def rep():
        setups.append(run_task(spec, setup_paths, out, THREADS, post_hoc=False))
        runs.append(run_task(spec, cfg_paths, out, THREADS))

    _repeat(rep, seconds, MIN_REPS)
    peak_rss_mb = _peak_rss_mb()  # before the 1-worker check below adds its own memory

    attempted, failures = 0, []
    for i, run in enumerate(runs):
        a, f = check_run(spec, run, reference, runs[0].outputs if i else None, f"rep {i}")
        attempted += a
        failures += f
    for i, run in enumerate(setups):  # set-up runs still have to succeed
        for label, message in run.errors.items():
            failures.append(f"setup {i}: {label}: {message}")
        attempted += len(spec.configs)
    if reference is None:
        # No recorded values for this seed: outputs must not depend on the worker count.
        single = run_task(spec, cfg_paths, out, 1)
        a, f = check_run(spec, single, None, runs[0].outputs, "threads=1")
        attempted += a
        failures += f

    wall = [r.wall_s for r in runs]
    rate = [spec.seed_rounds / r.sim_s for r in runs]
    setup = [r.wall_s for r in setups]
    metrics = {
        "wall_s": {"value": statistics.median(wall), "unit": "s"},
        "rounds_per_s": {"value": statistics.median(rate), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    detail = {
        "reps": len(runs), "setup_reps": len(setups),
        "wall_s": _spread(wall), "rounds_per_s": _spread(rate), "setup_s": _spread(setup),
        "seed_rounds_per_rep": spec.seed_rounds, "checked_against":
            "reference" if reference is not None else "threads=1 run",
        "failed_frac": len(failures) / attempted,
    }
    return _result(attempted, failures, metrics, detail)


def traced_run(spec: TaskSpec, seconds: float, workdir: Path, reference: dict | None) -> dict:
    """Per-layer metrics from in-process traced runs with one worker.

    The traced runs' outputs must equal those of an untraced ``THREADS``-worker
    run, which must match ``reference`` if given.
    """
    cfg_paths = write_configs(spec, workdir)
    out = workdir / "out"

    attempted, failures = 0, []
    timed = run_task(spec, cfg_paths, out, THREADS)
    a, f = check_run(spec, timed, reference, None, f"threads={THREADS}")
    attempted += a
    failures += f

    tracers, plain_s, traced_s = [], [], []

    def pair():
        plain_s.append(run_task(spec, cfg_paths, out, 1).wall_s)
        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        try:
            run = run_task(spec, cfg_paths, out, 1)
        finally:
            patches.restore()
        tracers.append(tracer)
        traced_s.append(run.wall_s)
        return run

    traced_runs = _repeat(pair, seconds, 1)
    for i, run in enumerate(traced_runs):
        a, f = check_run(spec, run, reference, timed.outputs, f"traced {i}")
        attempted += a
        failures += f
    first = tracing.count_signature(tracers[0])
    for i, tracer in enumerate(tracers[1:], start=1):
        attempted += 1
        sig = tracing.count_signature(tracer)
        if sig != first:
            diff = sorted(k for k in set(sig) | set(first) if sig.get(k) != first.get(k))
            failures.append(f"traced {i}: counts differ from traced 0: {diff}")

    overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    metrics, samples = tracing.layer_metrics(tracers, overhead)
    detail = {"traced_reps": len(tracers), "samples": samples,
              "traced_s": _spread(traced_s), "untraced_s": _spread(plain_s),
              "failed_frac": len(failures) / attempted}
    return _result(attempted, failures, metrics, detail)


def _spread(values: list) -> dict:
    return {"median": statistics.median(values), "n": len(values), "values": values}
