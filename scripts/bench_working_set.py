"""Peak memory of one worker's config block, per regularizer family and feedback channel.

    PYTHONPATH=src python3 scripts/bench_working_set.py [--dim 2] [--n 256] [--seeds 1]
        [--horizon 32] [--start 1] [--families burg,tsallis,quadratic]
        [--channels biased] [--out FILE]

For each family and channel this builds the DA config that the
``fine_grid_2d`` benchmark workload runs (a d-dimensional unit box with
``--n`` cells per axis, trig-mixture stream seed 2024, channel noise 0.5,
bias 0.5 and bias decay 0.5), at ``--seeds`` seeds and ``--horizon``
rounds, and runs it as one block, the work that one ``dualavg run`` worker
does (``cli._block_results``: the run, then the regret columns at every
checkpoint).  This process first runs the same config once on a grid of 2
cells per axis for one round, so lazy imports (``numpy.random``, say) and
other one-time costs are not counted as the block's.  Then the block runs
twice, each time in a process forked from this one (as the CLI's worker
pool forks on Linux), so nothing of one measurement is left for the next:

- ``tracemalloc_peak_mib``: the peak of the memory traced by ``tracemalloc``
  (numpy arrays included) over the block;
- ``worker_maxrss_mb``: the forked worker's ``ru_maxrss`` after the block,
  untraced, which includes the interpreter, numpy and whatever pages the
  worker shares with this process.

``full_grid_arrays`` is the traced peak in units of one float64 value per
cell (8 * n^d bytes).  The result is printed as one JSON object (also
written to ``--out``).  Run it once per package on PYTHONPATH to compare two
versions; the exact-feedback c4 block is
``--dim 1 --n 1024 --seeds 2 --horizon 1600 --start 50 --families negentropy
--channels exact``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import platform
import resource
import sys
import tracemalloc

import numpy as np

from dualavg import cli
from dualavg.config import parse_config

_CONFIG = """\
domain.dim = {dim}
grid.n = {n}
algorithm = da
regularizer.family = {family}
{gamma}stream.kind = trig_mixture
stream.seed = 2024
channel.kind = {channel}
{channel_keys}horizon = {horizon}
seeds = 0..{last}
checkpoint.start = {start}
"""

_CHANNEL_KEYS = {
    "exact": "",
    "unbiased": "channel.noise_scale = 0.5\n",
    "biased": ("channel.noise_scale = 0.5\nchannel.bias_scale = 0.5\n"
               "channel.bias_decay = 0.5\n"),
}


def config_text(args, family: str, channel: str) -> str:
    return _CONFIG.format(
        dim=args.dim, n=args.n, family=family, channel=channel,
        gamma="regularizer.gamma = 0.5\n" if family == "tsallis" else "",
        channel_keys=_CHANNEL_KEYS[channel], horizon=args.horizon,
        last=args.seeds - 1, start=args.start)


def _traced_peak(text: str) -> int:
    cfg = parse_config(text)
    tracemalloc.start()
    cli._block_results((cfg, cfg.seeds))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def _worker_maxrss(text: str) -> int:
    cfg = parse_config(text)
    cli._block_results((cfg, cfg.seeds))
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux


def _in_fork(fn, text: str):
    with multiprocessing.get_context("fork").Pool(1) as pool:
        return pool.apply(fn, (text,))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--horizon", type=int, default=32)
    parser.add_argument("--start", type=int, default=1)
    parser.add_argument("--families", default="burg,tsallis,quadratic")
    parser.add_argument("--channels", default="biased")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    cell_bytes = 8 * args.n ** args.dim
    rows = []
    for channel in args.channels.split(","):
        for family in args.families.split(","):
            tiny = argparse.Namespace(**{**vars(args), "n": 2, "horizon": 1, "start": 1})
            cli._block_results((parse_config(config_text(tiny, family, channel)), [0]))
            text = config_text(args, family, channel)
            peak = _in_fork(_traced_peak, text)
            maxrss = _in_fork(_worker_maxrss, text)
            rows.append({
                "family": family,
                "channel": channel,
                "tracemalloc_peak_mib": round(peak / 2 ** 20, 3),
                "tracemalloc_peak_kib": round(peak / 2 ** 10, 1),
                "full_grid_arrays": round(peak / cell_bytes, 2),
                "worker_maxrss_mb": round(maxrss / 1024, 2),
            })
    result = {
        "dim": args.dim, "n": args.n, "cells": args.n ** args.dim, "seeds": args.seeds,
        "horizon": args.horizon, "checkpoint_start": args.start,
        "python": platform.python_version(),
        "numpy": np.__version__, "machine": platform.machine(), "rows": rows,
    }
    text = json.dumps(result, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
