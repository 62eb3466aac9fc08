"""Comparator players: EXP3 over a fixed arm lattice, and a uniform-random player.

The "grid" baseline discretizes X into a coarse lattice of arm points and
runs standard EXP3 with importance-weighted payoff estimates; its traces are
measured against the continuous best point (on the simulation grid), not the
best arm, so they are directly comparable with the kernel learner's.  It
keeps its own loop: each of its draws reads one variate, where ``run_da``
draws a cell and then a point in it.  The uniform player is ``run_da`` at
exploration weight 1.  Both take a block of Generators, like ``run_da``, and
each trace equals that of a run of its seed alone, bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .dual_averaging import run_da
from .errors import ConfigError
from .grids import Grid, draw_cell
from .losses import ExactChannel, LossStream
from .regret import RegretTrace, TraceRecorder
from .regularizers import negentropy
from .schedules import Schedule

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


def run_exp3(stream: LossStream, arms_per_axis: int, T: int,
             rngs: Sequence[np.random.Generator]) -> list[RegretTrace]:
    """Run EXP3 on the arm lattice; the trace is graded against the stream's grid.

    The arms are the cell centers of an ``arms_per_axis`` lattice over the
    grid's domain.  ``rngs`` holds one Generator per seed, and one trace per
    seed is returned in the same order.  The scores are an (S, m) array, so
    the probabilities and their CDF are computed once per round for the
    block; the draw, the expected value and the score update, payoff over
    probability at the drawn arm, are per seed.
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    if not stream.payoff_convention:
        raise ConfigError("run_exp3 requires a payoff-convention stream")
    if arms_per_axis < 1:
        raise ConfigError("need at least one arm per axis")
    grid = stream.grid
    arms = Grid(grid.domain, arms_per_axis).centers
    arm_cells = np.array([grid.cell_index(a) for a in arms])
    scores = np.zeros((len(rngs), len(arms)))
    recorder = TraceRecorder(stream, T, seeds=len(rngs))
    for t in range(1, T + 1):
        f_vals = stream.values(t)
        arm_payoffs = f_vals[arm_cells]
        probs = exp3_probabilities(scores, t)
        cdf = np.cumsum(probs, axis=1)
        expected, payoffs = [], []
        for s, g in enumerate(rngs):
            p = probs[s]
            arm = draw_cell(cdf[s], g.random())
            payoff = float(arm_payoffs[arm])
            if not (0.0 <= payoff <= 1.0):
                raise ConfigError(f"EXP3 payoffs must lie in [0, 1], got {payoff}")
            expected.append(float(p @ arm_payoffs))
            scores[s, arm] += payoff / p[arm]
            payoffs.append(payoff)
        recorder.record(t, f_vals, expected, payoffs)
    return recorder.finish_block()


def run_uniform(stream: LossStream, T: int,
                rngs: Sequence[np.random.Generator]) -> list[RegretTrace]:
    """Play the uniform strategy on the stream's grid every round (sanity baseline).

    This is ``run_da`` with exact feedback and exploration weight 1, so the
    scores never reach the played strategy, and ``rngs`` and the returned
    traces follow ``run_da``'s contract.
    """
    return run_da(negentropy(), stream, ExactChannel(), Schedule(1.0), T, rngs,
                  eps=Schedule(1.0))
