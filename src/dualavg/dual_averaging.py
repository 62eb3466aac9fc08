"""Dual averaging fed an inexact model of each round's loss: the package's one learner loop.

The learner accumulates negated loss models into a score function and plays
the mirror image of the scaled scores: x_t = Q(eta_t * y_t), y_{t+1} = y_t -
model_t (payoff-convention streams accumulate with a plus sign), mixed with
the uniform density under an optional exploration schedule
(``mixed_strategy``).  The feedback channel makes the model: a function on
the whole grid (exact, unbiased, biased), or the bandit channel's kernel
model, added on its patch alone.  Kernel bandit dual averaging
(``bandit.run_bda``) is this loop with the negentropy regularizer, the
bandit channel and an exploration schedule.  ``run_da`` moves a block of
seeds forward together, and each trace equals that of a run of its seed
alone, bit for bit, so outputs do not depend on how seeds are blocked (the
CLI's ``--threads``).  Optional per-step diagnostics track the energy of a
fixed comparator and check the recursive and telescoped regret bounds.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .grids import Density, Grid, GridFunction
from .losses import FeedbackChannel, LossStream
from .regret import RegretTrace, TraceRecorder, generator_block, loss_oriented
from .regularizers import Regularizer, conjugate, hval, hvol, mirror
from .schedules import Schedule
from . import grids

__all__ = ["mixed_strategy", "run_da"]


def mixed_strategy(x: Density, eps: float) -> Density:
    """The exploration mix (1 - eps) * x + eps * (1 / volume), per row of a block.

    Every cell of the result has density at least eps / volume, which bounds
    the importance weight of the bandit channel's kernel model.
    """
    if not (0.0 <= eps <= 1.0):
        raise DomainError("exploration weight must lie in [0, 1]")
    grid = x.grid
    mixed = x.values * (1.0 - eps)
    mixed += eps * (1.0 / grid.domain.volume)
    return Density.unchecked(grid, mixed)


class _EnergyDiagnostics:
    """Per-step energy recursion and telescoped-bound bookkeeping."""

    def __init__(self, reg: Regularizer, grid: Grid, comparator: Density,
                 eta: Schedule, T: int, stream: LossStream):
        if reg.modulus is None:
            raise ConfigError(
                "energy diagnostics need a strong-convexity modulus "
                "(negentropy or quadratic regularizer)"
            )
        self.reg = reg
        self.grid = grid
        self.mu = comparator
        self.stream = stream
        self.h_mu = hval(reg, comparator)
        # h is smallest at the uniform density, whose value is hvol(volume).
        self.h_gap = self.h_mu - hvol(reg, grid.domain.volume)
        self.kappa = reg.kappa(grid.domain.volume)
        self.K = reg.modulus
        self.energy = np.zeros(T + 1)
        self.rhs = np.zeros(T)
        self.reg_mu_inc = np.zeros(T)
        self.err_term = np.zeros(T)
        self.sq_term = np.zeros(T)
        self.etas = np.array([eta(t) for t in range(1, T + 2)])
        self.energy[0] = self._energy_at(1, np.zeros(grid.n_cells))  # y_1 = 0

    def _energy_at(self, t: int, scores: np.ndarray) -> float:
        eta_t = self.etas[t - 1]
        scaled = GridFunction(self.grid, eta_t * scores, copy=False)
        val = (
            self.h_mu
            + conjugate(self.reg, scaled)
            - grids.pair(scaled, self.mu)
        ) / eta_t
        return val

    def end_round(self, t: int, scores_next: np.ndarray, model_vals: np.ndarray,
                  x: np.ndarray, f_vals: np.ndarray, expected: float) -> None:
        """Round t's bookkeeping; ``x`` holds the played strategy's cell values."""
        i = t - 1
        eta_t, eta_next = self.etas[i], self.etas[i + 1]
        w = self.grid.cell_volume
        gap = self.mu.values - x
        model_gap = loss_oriented(self.stream, grids.dot(model_vals, gap) * w)
        sup_model = float(np.abs(model_vals).max())
        self.rhs[i] = (
            self.energy[i]
            + model_gap
            + (1.0 / eta_next - 1.0 / eta_t) * self.h_gap
            + eta_t * self.kappa ** 2 * sup_model ** 2 / (2.0 * self.K)
        )
        self.energy[i + 1] = self._energy_at(t + 1, scores_next)
        mu_expected = grids.dot(f_vals, self.mu.values) * w
        self.reg_mu_inc[i] = loss_oriented(self.stream, expected - mu_expected)
        self.err_term[i] = loss_oriented(self.stream, grids.dot(model_vals - f_vals, gap) * w)
        self.sq_term[i] = eta_t * sup_model ** 2

    def extras(self) -> dict:
        return {
            "energy": self.energy,
            "energy_rhs": self.rhs,
            "comparator_increment": self.reg_mu_inc,
            "error_term": self.err_term,
            "sq_term": self.sq_term,
            "h_gap": self.h_gap,
            "kappa": self.kappa,
            "modulus": self.K,
            "eta": self.etas,
        }


def run_da(grid: Grid, reg: Regularizer, stream: LossStream,
           channel: FeedbackChannel, eta: Schedule, T: int,
           rng: np.random.Generator | Sequence[np.random.Generator],
           diagnostics: Density | None = None,
           checkpoints: np.ndarray | None = None,
           eps: Schedule | None = None) -> RegretTrace | list[RegretTrace]:
    """Run T rounds of dual averaging and record a regret trace.

    ``rng`` is one Generator, for which one trace is returned, or a sequence
    of Generators, one per seed of a block, for which a list of traces is
    returned in the same order.  Each seed draws from its own Generator in
    the order a run of that seed alone would, and its trace equals that
    run's bit for bit.

    The scores are one (R, n) array.  The regret bounds are on the expected
    regret over draws, so under a ``deterministic`` channel (exact feedback)
    every seed plays the same strategy and R = 1; otherwise R is the number
    of seeds.  Each round, ``mirror`` maps the scaled scores, as one block
    of R rows, to the R strategies (the logit as row operations, or a Newton
    solve per row, with one normalisability check for the block); with an
    ``eps`` schedule, ``mixed_strategy`` mixes eps_t of the uniform density
    into every row.  ``grids.sample`` builds the sampling CDFs with one
    cumulative sum over the block and draws each seed's cell and point.
    Per seed are the channel's observation at the drawn cell, the expected
    value under the played strategy and the score update, in place on a
    kernel model's patch; under exact feedback the observation and the
    expected value are made once, for row 0.  The realized values are read
    at the drawn cells.  The stream value and its per-round best are
    computed once per round and shared.  The traces record no schedule:
    ``eta`` and ``eps`` are the caller's.

    Passing a comparator density as ``diagnostics`` turns on per-step energy
    accounting (roughly doubles the per-round cost); it follows one seed,
    and the recursion is that of the mirror image before exploration.
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    rngs, single = generator_block(rng)
    if diagnostics is not None and len(rngs) > 1:
        raise ConfigError("energy diagnostics follow one seed; pass a single generator")
    shared = channel.deterministic  # one strategy row for the whole block
    payoff = stream.payoff_convention
    recorder = TraceRecorder(stream, grid, T, checkpoints, seeds=len(rngs))
    diag = (
        _EnergyDiagnostics(reg, grid, diagnostics, eta, T, stream)
        if diagnostics is not None
        else None
    )
    w = grid.cell_volume
    y = np.zeros((1 if shared else len(rngs), grid.n_cells))
    # Row views made once: iterating a 2-D array makes a view per row, a
    # cost a block of one would pay every round.
    score_rows = list(y)
    for t in range(1, T + 1):
        # Sums of checked models; mirror rejects a row it cannot normalise.
        x = mirror(reg, GridFunction.unchecked(grid, eta(t) * y))
        played = x if eps is None else mixed_strategy(x, eps(t))
        cells, actions = grids.sample(played, rngs)
        f_vals = stream.values(t)
        # Row r is played by seed r, or by every seed when shared; a shared
        # channel reads neither the draw nor the generator it is given.
        expected = []
        for row, x_r, cell, action, g in zip(score_rows, played.values, cells, actions, rngs):
            obs = channel.observe(stream, t, x_r, cell, action, g)
            expected.append(grids.dot(f_vals, x_r) * w)
            index, model = obs.patch or (Ellipsis, obs.model.values)
            if payoff:
                row[index] += model
            else:
                row[index] -= model
        recorder.record(t, f_vals, expected, f_vals[cells], actions)
        if diag is not None:
            model_vals = np.zeros(grid.n_cells)
            model_vals[index] = model
            diag.end_round(t, y[0], model_vals, x.values[0], f_vals, expected[0])
    extras = {"algorithm": "da"}
    if diag is not None:
        extras.update(diag.extras())
    traces = recorder.finish_block(extras)
    return traces[0] if single else traces
