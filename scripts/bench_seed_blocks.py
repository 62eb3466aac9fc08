"""Time seed blocks against per-seed loops, in one process.

    PYTHONPATH=src python3 scripts/bench_seed_blocks.py [--seeds 8] [--horizon 2000]
                                                        [--repeats 5] [--out FILE]

For the acceptance configs c4_exact (exact feedback), c4_noisy (unbiased
noise), c6_dynamic (drifting stream, unbiased noise), c5_bda and c7_bda
(kernel bandit) and c7_exp3 (EXP3 on 32 arms), for the uniform player
(exact feedback at exploration weight 1) and for ``biased`` (c4_noisy's
stream with the biased channel), cut to ``--horizon`` rounds,
this runs ``--seeds`` seeds as one block (``run_seed(cfg, seeds)``) and as a
loop of blocks of one (``run_seed(cfg, s)`` per seed), alternating the two
``--repeats`` times.  It checks that both give the same traces bit for
bit and prints, per config, the median, quartiles and all samples of
microseconds per seed-round, as one JSON object (also written to
``--out``).  With ``--seeds 1`` both sides are a block of one; run it once
per package on PYTHONPATH to compare two versions.  On these 1024-cell
configs DA under exact, unbiased and biased feedback moves 8 rounds per
step, so a horizon that is not a multiple of 8 (21 = 2 * 8 + 5, say) also
compares a partial last step.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from time import perf_counter

import numpy as np

from dualavg.config import parse_config, run_seed

_COMMON = """\
domain.dim = 1
grid.n = 1024
checkpoint.start = 10
"""

_DA = _COMMON + """\
algorithm = da
stream.seed = 2024
"""

_BDA_SCHEDULES = """\
schedule.eta_exponent = 0.75
schedule.delta_coef = 0.25
schedule.delta_exponent = 0.25
schedule.eps_exponent = 0.25
"""

_C7_STREAM = """\
stream.kind = trig_mixture
stream.seed = 281
stream.terms = 64
stream.payoff = true
channel.kind = bandit
"""

CONFIGS = {
    "c4_exact": _DA + """\
stream.kind = trig_mixture
channel.kind = exact
schedule.eta_exponent = 0.5
""",
    "c4_noisy": _DA + """\
stream.kind = trig_mixture
channel.kind = unbiased
channel.noise_scale = 0.5
schedule.eta_exponent = 0.5
""",
    "c6_dynamic": _DA + """\
stream.kind = drifting
stream.drift_rate = 0.003
stream.drift_exponent = 0.5
channel.kind = unbiased
channel.noise_scale = 0.5
schedule.eta_exponent = 0.16666666666666666
""",
    "biased": _DA + """\
stream.kind = trig_mixture
channel.kind = biased
channel.noise_scale = 0.5
channel.bias_scale = 0.5
channel.bias_decay = 0.5
schedule.eta_exponent = 0.5
""",
    "c5_bda": _COMMON + _BDA_SCHEDULES + """\
algorithm = bda
stream.kind = trig_mixture
stream.seed = 2024
stream.payoff = true
channel.kind = bandit
schedule.eta_coef = 1.0
schedule.eps_coef = 0.5
""",
    "c7_bda": _COMMON + _C7_STREAM + _BDA_SCHEDULES + """\
algorithm = bda
schedule.eta_coef = 3.0
schedule.eps_coef = 0.35
""",
    "c7_exp3": _COMMON + _C7_STREAM + """\
algorithm = exp3_grid
exp3.arms = 32
""",
    "uniform": _COMMON + """\
algorithm = uniform
stream.kind = trig_mixture
stream.seed = 2024
stream.payoff = true
""",
}

_FIELDS = ("expected", "realized", "round_best")


def _timed(fn):
    start = perf_counter()
    result = fn()
    return perf_counter() - start, result


def _summary(samples: list) -> dict:
    q1, med, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": med, "q1": q1, "q3": q3, "samples": samples}


def bench(name: str, seeds: list, horizon: int, repeats: int) -> dict:
    cfg = parse_config(CONFIGS[name] + f"horizon = {horizon}\nseeds = 0\n", source=name)
    seed_rounds = len(seeds) * horizon
    block_us, loop_us = [], []
    for i in range(repeats):
        order = ("block", "loop") if i % 2 == 0 else ("loop", "block")
        for side in order:
            if side == "block":
                s, block = _timed(lambda: run_seed(cfg, seeds))
                block_us.append(1e6 * s / seed_rounds)
            else:
                s, loop = _timed(lambda: [run_seed(cfg, seed) for seed in seeds])
                loop_us.append(1e6 * s / seed_rounds)
        for a, b in zip(block, loop):
            if any(getattr(a, f).tobytes() != getattr(b, f).tobytes() for f in _FIELDS):
                raise SystemExit(f"{name}: block and per-seed traces differ")
    return {"per_seed_loop_us_per_seed_round": _summary(loop_us),
            "block_us_per_seed_round": _summary(block_us),
            "speedup_of_medians": statistics.median(loop_us) / statistics.median(block_us)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=8)
    parser.add_argument("--horizon", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seeds = list(range(args.seeds))
    result = {
        "command": " ".join([os.path.basename(sys.executable)] + sys.argv),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seeds": args.seeds,
        "horizon": args.horizon,
        "repeats": args.repeats,
        "configs": {name: bench(name, seeds, args.horizon, args.repeats) for name in CONFIGS},
    }
    for name, r in result["configs"].items():
        print(f"{name:<12} per-seed loop {r['per_seed_loop_us_per_seed_round']['median']:8.1f} us"
              f"  block {r['block_us_per_seed_round']['median']:8.1f} us"
              f"  ({r['speedup_of_medians']:.2f}x)", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
