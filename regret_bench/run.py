"""Regret-simulation benchmark for dualavg.

Usage, from the root of a checkout:

    python3 regret_bench/run.py --workload full_info --seed 0 --seconds 20 --trace 0
    python3 regret_bench/run.py --workload all --out regret_bench/results/mine.json

Each workload runs in its own child process (fresh interpreter, so peak memory
and lazy caches do not leak between workloads).  With ``--trace 0`` the child
times the workload's user task with 2 workers and reports the end-to-end
metrics; with ``--trace 1`` it runs the task in-process with one worker,
wrapped by ``tracing.py``, and reports the per-layer metrics.  Outputs are
checked in both modes; failures are counted in ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out`` also writes
a result file with provenance (machine, versions, git SHA, command, seed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("full_info", "drift_windows", "bandit_vs_grid", "fine_grid_2d")
CHILD_TIMEOUT_S = 170.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 reproduces the acceptance stream seeds")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time per workload")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", help="also write a result file with provenance")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _child(args) -> int:
    """Measure one workload in this process and print its full result as JSON."""
    import workloads

    spec = workloads.make_spec(args.workload, args.seed)
    base = ROOT / ".regret_bench_work"
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=base) as tmp:
        measure = workloads.traced_run if args.trace else workloads.timed_run
        result = measure(spec, args.seconds, Path(tmp), workloads.load_reference(spec))
    try:
        base.rmdir()
    except OSError:  # another run is still using it
        pass
    print(json.dumps(result))
    return 0


def _run_child(args, workload: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
        proc.communicate()
        raise RuntimeError(f"{workload}: no result within {CHILD_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: measurement exited with code {proc.returncode}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _provenance(args, names) -> dict:
    import numpy

    import workloads

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        whys = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "command": shlex.join([os.path.basename(sys.executable)] + sys.argv),
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": workloads.THREADS,
        "workloads": {n: {"why": whys[n], "configs": workloads.make_spec(n, args.seed).configs}
                      for n in names},
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _print_report(name: str, result: dict) -> None:
    detail = result["detail"]
    print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_frac {detail['failed_frac']:.6g}")
    samples = detail.get("samples", {})
    for metric, m in result["metrics"].items():
        n = f"  (n={samples[metric]})" if metric in samples else ""
        print(f"   {metric:<50} {m['value']:>14.6g} {m['unit']}{n}")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "dualavg" / "__init__.py").is_file():
        print(f"error: no dualavg sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.child:
        return _child(args)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = _run_child(args, name)
        except (RuntimeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        _print_report(name, results[name])

    if args.out:
        record = {"provenance": _provenance(args, names), "results": results}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")

    if len(names) == 1:
        r = results[names[0]]
        metrics = r["metrics"]
    else:
        r = {"correct": all(x["correct"] for x in results.values()),
             "attempted": sum(x["attempted"] for x in results.values()),
             "failed": sum(x["failed"] for x in results.values())}
        metrics = {f"{n}.{k}": v for n, x in results.items() for k, v in x["metrics"].items()}
    print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
