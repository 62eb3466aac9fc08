"""Fast self-test of the benchmark at tiny horizons (a few seconds on 2 cores).

    python3 regret_bench/selftest.py

Checks, for every workload:
  * the timed run emits exactly the end-to-end metrics of BENCHMARK.json, and the
    traced run exactly its per-layer metrics, each with the declared unit;
  * each per-layer metric has work behind it (a nonzero value) on the workloads
    that exercise its layer;
  * two traced runs give identical counts;
  * the tracing wrappers leave every dualavg function and method as it was;
  * outputs pass the checks, and a perturbed reference value is caught.
Exits with code 1 and a list of problems if any check fails.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

import tracing
import workloads

ALL = set(workloads.WORKLOADS)
DA = {"full_info", "drift_windows", "fine_grid_2d"}

# Per-layer metric (by name prefix) -> workloads whose traced run must give it a
# nonzero value.  Metrics not listed may read 0 at tiny sizes.
EXERCISED = {
    "dual_averaging.run_da.": DA,
    "grids.gridfunction_init.": DA,
    "grids.cell_index.": ALL,
    "grids.grid_geometry.": ALL,
    "grids.sample.": DA,
    "grids.ball_patch.": {"bandit_vs_grid"},
    "regularizers.mirror.negentropy.": {"full_info", "drift_windows"},
    "regularizers.mirror.quadratic.": {"fine_grid_2d"},
    "regularizers.mirror.burg.": {"fine_grid_2d"},
    "regularizers.mirror.tsallis.": {"fine_grid_2d"},
    "losses.stream_values.calls_per_round": ALL,
    "losses.stream_values.us_per_call": ALL,
    "losses.stream_values.hit_frac": ALL - {"drift_windows"},
    "losses.observe.": DA,
    "bandit.run_bda.": {"bandit_vs_grid"},
    "baselines.": {"bandit_vs_grid"},
    "regret.record.": ALL,
    "regret.window_decomposition.": {"drift_windows"},
    "regret.variation.": {"drift_windows"},
    "regret.post_hoc.stream_evals": {"drift_windows"},
    "regret.static_regret.": ALL,
    "config.": ALL,
    "cli.run_command.": ALL,
}


def _declared():
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]},
            [w["name"] for w in bench["workloads"]])


def _attribute_snapshot() -> dict:
    """Identity of every attribute of every dualavg module and class."""
    snap = {}
    for mod in tracing._dualavg_modules():
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if attr != "__slotnames__":  # cache that pickling a config adds
                        snap[(mod.__name__, name, attr)] = id(member)
    return snap


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def main() -> int:
    problems = []
    end_to_end, per_layer, declared_workloads = _declared()
    if sorted(declared_workloads) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {declared_workloads} differ from the code")
    if dict(tracing.PER_LAYER) != per_layer:
        problems.append("per-layer metric table differs from BENCHMARK.json")
    for prefix in EXERCISED:
        if not any(name.startswith(prefix) for name in per_layer):
            problems.append(f"EXERCISED names no metric: {prefix}")

    before = _attribute_snapshot()
    base = workloads.ROOT / ".regret_bench_work"
    base.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        spec = workloads.make_spec(name, 1, tiny=True)
        with tempfile.TemporaryDirectory(prefix="selftest-", dir=base) as tmp:
            work = Path(tmp)
            timed = workloads.timed_run(spec, 0.0, work, None)
            traced = [workloads.traced_run(spec, 0.0, work, None) for _ in range(2)]
            run = workloads.run_task(spec, workloads.write_configs(spec, work), work / "out",
                                     1)
        for label, result in [("timed", timed)] + [(f"traced {i}", r)
                                                   for i, r in enumerate(traced)]:
            if not result["correct"]:
                problems.append(f"{name} {label}: failures {result['failures']}")
        if _units(timed["metrics"]) != end_to_end:
            problems.append(f"{name}: timed metrics {_units(timed['metrics'])}")
        for i, result in enumerate(traced):
            if _units(result["metrics"]) != per_layer:
                problems.append(f"{name}: traced metrics differ from BENCHMARK.json")
        counts = [{k: r["metrics"][k]["value"] for k in tracing.COUNT_METRICS}
                  | r["detail"]["samples"] for r in traced]
        if counts[0] != counts[1]:
            diff = [k for k in counts[0] if counts[0][k] != counts[1][k]]
            problems.append(f"{name}: counts differ between traced runs: {diff}")
        for prefix, exercised in EXERCISED.items():
            if name not in exercised:
                continue
            for metric, m in traced[0]["metrics"].items():
                if metric.startswith(prefix) and not m["value"] > 0:
                    problems.append(f"{name}: {metric} reads {m['value']}, expected work")

        # The correctness check must be able to fail.
        reference = workloads.reference_record(spec, run)
        if workloads.check_run(spec, run, reference, None, "ref")[1]:
            problems.append(f"{name}: a run does not match its own record")
        bad = copy.deepcopy(reference)
        first = next(iter(bad["csv"].values()))
        first[-1][1] *= 1.0 + 1e-6
        if not workloads.check_run(spec, run, bad, None, "ref")[1]:
            problems.append(f"{name}: a perturbed reference value went unnoticed")
    try:
        base.rmdir()
    except OSError:
        pass

    after = _attribute_snapshot()
    changed = sorted(str(k) for k in set(before) | set(after) if before.get(k) != after.get(k))
    if changed:
        problems.append(f"attributes not restored after tracing: {changed}")

    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
