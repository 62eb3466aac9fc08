"""Compare two checkouts on the regret benchmark, in alternating pairs.

    python3 scripts/bench_drift_windows.py --parent DIR --change DIR > BENCH_drift_windows.json

For each workload seed (0, and 5 held out) and each of 10 pairs, this runs
``python3 regret_bench/run.py --workload <w> --seed <s> --seconds <n> --trace 0``
on all four workloads, once in each checkout (each from its own directory,
so each side builds from its own sources), alternating which side runs
first; ``<n>`` is the ``run_seconds`` of the parent's ``BENCHMARK.json``.
Per workload and seed it reports each side's median, quartiles and values
of every end-to-end metric, how many pairs the change won (ties count for
neither), and whether the gap between the medians exceeds the parent's
interquartile range.  Then it makes two traced runs of ``drift_windows`` at
seed 0 per side and records the post-hoc layer metrics
(``regret.window_decomposition.s``, ``regret.variation.s``,
``regret.post_hoc.stream_evals``) and the DA self time per round.  The
result is printed as one JSON object; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

WORKLOADS = ("full_info", "drift_windows", "bandit_vs_grid", "fine_grid_2d")
SEEDS = (0, 5)
PAIRS = 10
TRACED_RUNS = 2
BETTER = {"wall_s": "lower", "rounds_per_s": "higher", "setup_s": "lower",
          "peak_rss_mb": "lower"}
TRACED = ("regret.window_decomposition.s", "regret.variation.s",
          "regret.post_hoc.stream_evals", "dual_averaging.run_da.self_us_per_round",
          "grids.gridfunction_init.calls_per_round")


def run_bench(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last JSON line of one ``regret_bench/run.py`` invocation in ``checkout``."""
    cmd = [sys.executable, "regret_bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def compare(parent: list, change: list, better: str) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p, c = quartiles(parent), quartiles(change)
    return {"parent": p, "change": c, "change_wins": wins, "better": better,
            "change_over_parent_median": c["median"] / p["median"],
            "median_gap_exceeds_parent_iqr":
                sign * (c["median"] - p["median"]) > p["q3"] - p["q1"]}


def end_to_end(sides: dict, workload: str, seed: int, seconds: float) -> dict:
    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_bench(sides[side], workload, seed, seconds, 0))
        print(f"{workload}@seed{seed} pair {i + 1}/{PAIRS}: " + ", ".join(
            f"{side} wall_s {runs[side][-1]['metrics']['wall_s']['value']:.4f}"
            for side in order), file=sys.stderr)
    result = {
        "pairs": PAIRS,
        "seconds": seconds,
        "correct": all(r["correct"] for side in runs.values() for r in side),
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
    }
    for metric, better in BETTER.items():
        result[metric] = compare([r["metrics"][metric]["value"] for r in runs["parent"]],
                                 [r["metrics"][metric]["value"] for r in runs["change"]],
                                 better)
    return result


def traced(sides: dict, seconds: float) -> dict:
    out = {}
    for side, checkout in sides.items():
        runs = [run_bench(checkout, "drift_windows", 0, seconds, 1) for _ in range(TRACED_RUNS)]
        out[side] = [{"correct": r["correct"], "failed": r["failed"],
                      **{name: r["metrics"][name]["value"] for name in TRACED}}
                     for r in runs]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    result = {
        "command": " ".join([os.path.basename(sys.executable)] + sys.argv),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "end_to_end": {f"{w}@seed{s}": end_to_end(sides, w, s, seconds)
                       for s in SEEDS for w in WORKLOADS},
        "traced_drift_windows": traced(sides, seconds),
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
