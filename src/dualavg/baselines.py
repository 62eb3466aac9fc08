"""Comparator players: EXP3 over a fixed arm lattice, and a uniform-random player.

The "grid" baseline discretizes X into a coarse lattice of arm points and
runs standard EXP3 with importance-weighted payoff estimates; its traces are
measured against the continuous best point (on the simulation grid), not the
best arm, so they are directly comparable with the kernel learner's.

``run_exp3`` and ``run_uniform`` take one Generator or a block of them, like
``run_da``, and move a block of seeds forward together; each trace equals
that of a run of its seed alone, bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import ConfigError
from .grids import Density, Grid, draw_cell, draw_from_cdf, sampling_cdf
from .losses import LossStream
from .regret import RegretTrace, TraceRecorder, generator_block

__all__ = ["exp3_probabilities", "run_exp3", "run_uniform"]


def exp3_probabilities(scores: np.ndarray, t: int) -> np.ndarray:
    """(1 - gamma) * softmax(eta * scores) + gamma / m, for each row of ``scores``.

    ``scores`` holds the cumulative importance-weighted payoffs of m arms
    (one row per seed).  The rates follow the standard anytime tuning of
    round t: gamma_t = min(1, sqrt(m log m / t)) and eta_t = gamma_t / m,
    both 0 for a single arm.
    """
    m = scores.shape[-1]
    gamma = 0.0 if m == 1 else min(1.0, math.sqrt(m * math.log(m) / t))
    z = (gamma / m) * scores
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return (1.0 - gamma) * z + gamma / m


def run_exp3(grid: Grid, stream: LossStream, arms_per_axis: int, T: int,
             rng: np.random.Generator | Sequence[np.random.Generator],
             checkpoints: np.ndarray | None = None) -> RegretTrace | list[RegretTrace]:
    """Run EXP3 on the arm lattice; the trace is graded against the full grid.

    The arms are the cell centers of an ``arms_per_axis`` lattice over the
    grid's domain.  ``rng`` is one Generator (one trace) or a sequence of
    them (one trace per seed, in order).  The scores are an (S, m) array, so
    the probabilities and their CDF are computed once per round for the
    block; the draw, the expected value and the score update, payoff over
    probability at the drawn arm, are per seed.  Each trace's extras hold
    its final ``scores``.
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    if not stream.payoff_convention:
        raise ConfigError("run_exp3 requires a payoff-convention stream")
    if arms_per_axis < 1:
        raise ConfigError("need at least one arm per axis")
    rngs, single = generator_block(rng)
    arms = Grid(grid.domain, arms_per_axis).centers
    arm_cells = np.array([grid.cell_index(a) for a in arms])
    scores = np.zeros((len(rngs), len(arms)))
    recorder = TraceRecorder(stream, grid, T, checkpoints, seeds=len(rngs))
    for t in range(1, T + 1):
        f_vals = stream.values(t)
        arm_payoffs = f_vals[arm_cells]
        probs = exp3_probabilities(scores, t)
        cdf = np.cumsum(probs, axis=1)
        expected, payoffs, actions = [], [], []
        for s, g in enumerate(rngs):
            p = probs[s]
            arm = draw_cell(cdf[s], g.random())
            payoff = float(arm_payoffs[arm])
            if not (0.0 <= payoff <= 1.0):
                raise ConfigError(f"EXP3 payoffs must lie in [0, 1], got {payoff}")
            expected.append(float(p @ arm_payoffs))
            scores[s, arm] += payoff / p[arm]
            payoffs.append(payoff)
            actions.append(arms[arm])
        recorder.record(t, f_vals, expected, payoffs, actions)
    traces = recorder.finish_block({"algorithm": "exp3_grid", "arms_per_axis": arms_per_axis},
                                   per_seed={"scores": scores})
    return traces[0] if single else traces


def run_uniform(grid: Grid, stream: LossStream, T: int,
                rng: np.random.Generator | Sequence[np.random.Generator],
                checkpoints: np.ndarray | None = None) -> RegretTrace | list[RegretTrace]:
    """Play the uniform strategy every round (sanity baseline).

    ``rng`` is one Generator (one trace) or a sequence of them (one trace per
    seed, in order).  The expected value is shared by every seed, and one
    sampling CDF, built once per run as ``grids.sample`` builds it, serves
    every draw.
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    rngs, single = generator_block(rng)
    cdf = sampling_cdf(Density.uniform(grid))
    w = grid.cell_volume
    recorder = TraceRecorder(stream, grid, T, checkpoints, seeds=len(rngs))
    for t in range(1, T + 1):
        f_vals = stream.values(t)
        actions = [draw_from_cdf(grid, cdf, g)[1] for g in rngs]
        recorder.record(
            t,
            f_vals,
            float(f_vals.sum() * w / grid.domain.volume),
            [float(f_vals[grid.cell_index(a)]) for a in actions],
            actions,
        )
    traces = recorder.finish_block({"algorithm": "uniform"})
    return traces[0] if single else traces
