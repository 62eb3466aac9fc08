"""Compare two checkouts on the regret benchmark, in alternating pairs, for the noisy-step change.

    python3 scripts/bench_noisy_steps.py --parent DIR --change DIR > pairs.json

Runs ``scripts/bench_drift_windows.py``'s own ``end_to_end`` (10 pairs of
``python3 regret_bench/run.py --workload <w> --seed <s> --seconds <n> --trace 0``
in each checkout, alternating which side runs first, ``<n>`` the parent's
``run_seconds``) on all four workloads at seed 0 and on ``drift_windows`` and
``fine_grid_2d`` at held-out seed 5, then its ``traced`` (two traced
``drift_windows`` runs per side).  The result is printed as one JSON object;
progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_drift_windows as pairs  # noqa: E402

PLAN = [(w, 0) for w in pairs.WORKLOADS] + [("drift_windows", 5), ("fine_grid_2d", 5)]


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
        "end_to_end": {f"{w}@seed{s}": pairs.end_to_end(sides, w, s, seconds) for w, s in PLAN},
        "traced_drift_windows": pairs.traced(sides, seconds),
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
