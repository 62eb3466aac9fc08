"""Record the reference outputs that runs at the default workload seed must reproduce.

    python3 regret_bench/record_reference.py [workload ...]

Runs each workload's task once at the default seed with 2 workers and writes
``regret_bench/reference/<workload>.json`` (per-seed CSV values and window
decomposition results).  Re-record only on purpose: a program change that
moves these values fails the benchmark's correctness check until it does.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        spec = workloads.make_spec(name, workloads.DEFAULT_SEED)
        with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
            work = Path(tmp)
            run = workloads.run_task(spec, workloads.write_configs(spec, work), work / "out",
                                     workloads.THREADS)
        attempted, failures = workloads.check_run(spec, run, None, None, name)
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        path = workloads.REFERENCE_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(workloads.reference_record(spec, run), fh, indent=1)
            fh.write("\n")
        print(f"{path}: {attempted} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
