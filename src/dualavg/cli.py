"""Experiment driver: seed sweeps to CSV, and cross-algorithm report tables.

``dualavg run <config> [--seeds a..b] [--out dir] [--threads k]`` writes one
regret-curve CSV per seed plus a summary CSV (mean/std over seeds and the
fitted final slope).  ``dualavg report <summary.csv>...`` aligns summaries at
shared checkpoints and adds a theoretical-bound column c * t^r, with the rate
r of the first summary's algorithm: 1/2 for ``da``, (d+2)/(d+3) otherwise.
A slope fit that cannot be made leaves its cell empty and prints the reason
to stderr, and a ``bda`` run prints how many rounds (over all seeds) used
the kernel radius floor of twice the cell diameter.

Each of the ``--threads`` workers runs one contiguous block of the seeds, and
every algorithm moves a block forward as one array program.  DA under exact
feedback computes one strategy per round for the whole block; under noisy
feedback it keeps one row of scores per seed and maps the rows together
as one block through ``mirror`` (the logit as row operations, a Newton
solve per row otherwise) and ``grids.sample``.  BDA and
EXP3 keep one row of scores per seed and compute the block's strategies as
row operations over the whole array, and the uniform player draws every
point from one CDF per run; every draw picks its cell with
``grids.draw_cell``.  Outputs are byte-deterministic for
a fixed config and independent of --threads: every seed draws from its own
generator in the same order whatever its block, and results are merged in
seed order; floats are written with 12 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .config import ExperimentConfig, load_config, parse_seed_spec, run_seed
from .errors import ConfigError, NumericalError
from .regret import dynamic_regret, fit_slope, static_regret

__all__ = ["main", "run_command", "report_command"]


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _slope_cell(horizons, values) -> str:
    """Fitted log-log slope as a CSV cell; empty, with a warning, if no fit is possible."""
    try:
        return _fmt(fit_slope(horizons, values).slope)
    except NumericalError as exc:
        print(f"warning: slope fit skipped: {exc}", file=sys.stderr)
        return ""


def _block_results(args: tuple[ExperimentConfig, list[int]]) -> list[tuple[int, list, int]]:
    """Worker: run one block of seeds.

    Returns, per seed, (seed, rows (t, expected, realized, dynamic) per
    checkpoint, count of kernel-radius-floor rounds).
    """
    cfg, seeds = args
    results = []
    for seed, trace in zip(seeds, run_seed(cfg, seeds)):
        rows = [
            [
                int(cp),
                static_regret(trace, int(cp)),
                static_regret(trace, int(cp), realized=True),
                dynamic_regret(trace, int(cp)),
            ]
            for cp in trace.checkpoints
        ]
        results.append((seed, rows, int(trace.extras.get("delta_floor_rounds", 0))))
    return results


def _seed_blocks(seeds: list[int], workers: int) -> list[list[int]]:
    """Split ``seeds`` into at most ``workers`` contiguous blocks whose sizes differ by <= 1."""
    k = max(1, min(workers, len(seeds)))
    size, extra = divmod(len(seeds), k)
    blocks, start = [], 0
    for i in range(k):
        stop = start + size + (i < extra)
        blocks.append(seeds[start:stop])
        start = stop
    return blocks


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else _fmt(cell)
                             if isinstance(cell, float) else str(cell) for cell in row])


def run_command(config_path: str, seeds: str | None = None, out: str | None = None,
                threads: int = 1) -> list[str]:
    """Execute a config; returns the list of files written."""
    cfg = load_config(config_path)
    if seeds is not None:
        cfg.seeds = parse_seed_spec(seeds)
        cfg.validate()
    if out is not None:
        cfg.out = out
    os.makedirs(cfg.out, exist_ok=True)

    jobs = [(cfg, block) for block in _seed_blocks(cfg.seeds, threads)]
    if len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            results = [r for block in pool.map(_block_results, jobs) for r in block]
    else:
        results = _block_results(jobs[0])
    results.sort(key=lambda r: r[0])

    written = []
    floored_total = 0
    per_seed_rows = {}
    for seed, rows, floored in results:
        per_seed_rows[seed] = rows
        floored_total += floored
        path = os.path.join(cfg.out, f"{cfg.algorithm}_seed{seed}.csv")
        _write_csv(path, ["t", "expected_regret", "realized_regret", "dynamic_regret"], rows)
        written.append(path)
    if floored_total:
        print(
            f"warning: kernel radius floor (2x cell diameter) active on "
            f"{floored_total} round(s); bias decay is capped at the grid resolution",
            file=sys.stderr,
        )

    checkpoints = [row[0] for row in next(iter(per_seed_rows.values()))]
    table = np.array([[row[1] for row in per_seed_rows[s]] for s in cfg.seeds])
    means = table.mean(axis=0)
    stds = table.std(axis=0, ddof=1) if len(cfg.seeds) > 1 else np.zeros(len(checkpoints))
    slope_str = _slope_cell(checkpoints, means)
    summary_rows = [
        [cfg.algorithm, int(cp), float(m), float(s), slope_str]
        for cp, m, s in zip(checkpoints, means, stds)
    ]
    summary_path = os.path.join(cfg.out, "summary.csv")
    _write_csv(summary_path, ["algorithm", "t", "mean_regret", "std_regret", "slope"],
               summary_rows)
    written.append(summary_path)
    return written


def _read_summary(path: str) -> tuple[str, np.ndarray, np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:4] != ["algorithm", "t", "mean_regret", "std_regret"]:
            raise ConfigError(f"{path}: not a summary CSV")
        rows = list(reader)
    if not rows:
        raise ConfigError(f"{path}: empty summary")
    algorithm = rows[0][0]
    t = np.array([int(r[1]) for r in rows])
    mean = np.array([float(r[2]) for r in rows])
    std = np.array([float(r[3]) for r in rows])
    return algorithm, t, mean, std


def report_command(summary_paths: list[str], dim: int = 1,
                   out: str | None = None) -> list[list]:
    """Align summaries at shared checkpoints; add diff and theoretical-bound columns.

    The bound is c * t^r anchored at the first checkpoint, where r is the rate
    of the first summary's algorithm: 1/2 for ``da``, (d+2)/(d+3) otherwise.
    """
    summaries = [_read_summary(p) for p in summary_paths]
    base_t = summaries[0][1]
    for path, (_, t, _, _) in zip(summary_paths, summaries):
        if len(t) != len(base_t) or not np.array_equal(t, base_t):
            raise ConfigError(f"{path}: checkpoints do not align with {summary_paths[0]}")

    expo = 0.5 if summaries[0][0] == "da" else (dim + 2) / (dim + 3)
    c = summaries[0][2][0] / base_t[0] ** expo
    bound = c * base_t.astype(float) ** expo

    names = []
    for i, (alg, _, _, _) in enumerate(summaries):
        names.append(alg if sum(1 for a, *_ in summaries if a == alg) == 1 else f"{alg}#{i}")
    header = ["t"]
    for name in names:
        header.append(f"{name}_mean")
    for name in names[1:]:
        header.append(f"{name}_diff")
    for name in names:
        header.append(f"{name}_slope")
    header.append("bound")

    slopes = [_slope_cell(t, mean) for _, t, mean, _ in summaries]

    rows = []
    for i, cp in enumerate(base_t):
        row = [int(cp)]
        row += [float(s[2][i]) for s in summaries]
        row += [float(s[2][i] - summaries[0][2][i]) for s in summaries[1:]]
        row += slopes
        row.append(float(bound[i]))
        rows.append(row)

    widths = [max(len(h), 14) for h in header]
    line = "  ".join(h.rjust(w) for h, w in zip(header, widths))
    print(line)
    for row in rows:
        print("  ".join(
            (cell if isinstance(cell, str) else _fmt(cell) if isinstance(cell, float)
             else str(cell)).rjust(w)
            for cell, w in zip(row, widths)
        ))
    for name, slope in zip(names, slopes):
        print(f"slope {name} = {slope or 'n/a'}")
    if out is not None:
        _write_csv(out, header, rows)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="dualavg",
                                     description="online learning experiment driver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config over its seed sweep")
    p_run.add_argument("config")
    p_run.add_argument("--seeds", help="override seed list, e.g. 0..15 or 1,2,3")
    p_run.add_argument("--out", help="override output directory")
    p_run.add_argument("--threads", type=int, default=1,
                       help="workers, each running one contiguous block of seeds")

    p_rep = sub.add_parser("report", help="align summary CSVs into one table")
    p_rep.add_argument("summaries", nargs="+")
    p_rep.add_argument("--dim", type=int, default=1, help="dimension for the bandit bound column")
    p_rep.add_argument("--out", help="also write the table as CSV")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            files = run_command(args.config, args.seeds, args.out, args.threads)
            for path in files:
                print(path)
        else:
            report_command(args.summaries, dim=args.dim, out=args.out)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
