"""Dual averaging fed an inexact model of each round's loss: the package's one learner loop.

The learner accumulates negated loss models into a score function and plays
the mirror image of the scaled scores: x_t = Q(eta_t * y_t), y_{t+1} = y_t -
model_t (payoff-convention streams accumulate with a plus sign), mixed with
the uniform density under an optional exploration schedule
(``mixed_strategy``).  The feedback channel makes the model, a pair (index,
values): a function on the whole grid (exact, unbiased, biased; index
``...``), or the bandit channel's kernel model, added on its patch alone.
Kernel bandit dual averaging (``bandit.run_bda``) is this loop with the
negentropy regularizer, the bandit channel and an exploration schedule; the
uniform player (``baselines.run_uniform``) is it at exploration weight 1.
``run_da`` moves a block of seeds forward together, and each trace equals
that of a run of its seed alone, bit for bit, so outputs do not depend on
how seeds are blocked (the CLI's ``--threads``).  Optional per-step
diagnostics (``EnergyDiagnostics``, the caller's object) track the energy of
a fixed comparator for checks of the recursive and telescoped regret bounds.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .grids import Density, GridFunction
from .losses import FeedbackChannel, LossStream
from .regret import RegretTrace, TraceRecorder, loss_oriented
from .regularizers import Regularizer, energy, hval, hvol, mirror
from .schedules import Schedule
from . import grids

__all__ = ["EnergyDiagnostics", "mixed_strategy", "run_da"]


def mixed_strategy(x: Density, eps: float | Sequence[float]) -> Density:
    """The exploration mix (1 - eps) * x + eps * (1 / volume), per row of a block.

    ``eps`` is one weight for every row, or a sequence of one weight per row.
    Every cell of the result has density at least eps / volume, which bounds
    the importance weight of the bandit channel's kernel model.
    """
    if isinstance(eps, (int, float)):  # numpy checks on a scalar cost microseconds a round
        valid = 0.0 <= eps <= 1.0
    else:
        eps = np.asarray(eps, dtype=float).reshape(-1, 1)
        valid = bool(np.all((0.0 <= eps) & (eps <= 1.0)))
    if not valid:
        raise DomainError("exploration weight must lie in [0, 1]")
    grid = x.grid
    mixed = x.values * (1.0 - eps)
    mixed += eps * (1.0 / grid.domain.volume)
    return Density.unchecked(grid, mixed)


class EnergyDiagnostics:
    """Per-step energy recursion and telescoped-bound bookkeeping for a comparator.

    ``run_da(..., diagnostics=...)`` starts it with the run's regularizer,
    schedule, horizon and stream, and fills the series ``energy`` (T + 1
    values), ``energy_rhs``, ``comparator_increment``, ``error_term`` and
    ``sq_term``; ``eta`` (rounds 1..T + 1), ``h_gap``, ``kappa`` and
    ``modulus`` are the bound's schedule and constants.
    """

    def __init__(self, comparator: Density):
        self.comparator = comparator

    def start(self, reg: Regularizer, eta: Schedule, T: int, stream: LossStream) -> None:
        if reg.modulus is None:
            raise ConfigError(
                "energy diagnostics need a strong-convexity modulus "
                "(negentropy or quadratic regularizer)"
            )
        grid = stream.grid
        self.reg = reg
        self.grid = grid
        self.stream = stream
        # h is smallest at the uniform density, whose value is hvol(volume).
        self.h_gap = hval(reg, self.comparator) - hvol(reg, grid.domain.volume)
        self.kappa = reg.kappa(grid.domain.volume)
        self.modulus = reg.modulus
        self.energy = np.zeros(T + 1)
        self.energy_rhs = np.zeros(T)
        self.comparator_increment = np.zeros(T)
        self.error_term = np.zeros(T)
        self.sq_term = np.zeros(T)
        self.eta = np.array([eta(t) for t in range(1, T + 2)])
        self.energy[0] = self._energy_at(1, np.zeros(grid.n_cells))  # y_1 = 0

    def _energy_at(self, t: int, scores: np.ndarray) -> float:
        return energy(self.reg, self.comparator, GridFunction.unchecked(self.grid, scores),
                      self.eta[t - 1])

    def end_round(self, t: int, scores_next: np.ndarray, model_vals: np.ndarray,
                  x: np.ndarray, f_vals: np.ndarray, expected: float) -> None:
        """Round t's bookkeeping; ``x`` holds the played strategy's cell values."""
        i = t - 1
        eta_t, eta_next = self.eta[i], self.eta[i + 1]
        w = self.grid.cell_volume
        gap = self.comparator.values - x
        model_gap = loss_oriented(self.stream, grids.dot(model_vals, gap) * w)
        sup_model = float(np.abs(model_vals).max())
        self.energy_rhs[i] = (
            self.energy[i]
            + model_gap
            + (1.0 / eta_next - 1.0 / eta_t) * self.h_gap
            + eta_t * self.kappa ** 2 * sup_model ** 2 / (2.0 * self.modulus)
        )
        self.energy[i + 1] = self._energy_at(t + 1, scores_next)
        mu_expected = grids.dot(f_vals, self.comparator.values) * w
        self.comparator_increment[i] = loss_oriented(self.stream, expected - mu_expected)
        self.error_term[i] = loss_oriented(self.stream, grids.dot(model_vals - f_vals, gap) * w)
        self.sq_term[i] = eta_t * sup_model ** 2


# Cell values per block array of a step (64 KiB of float64): under a
# deterministic channel a step plays k = max(1, _STEP_VALUES // n) rounds
# (8 on 1024 cells), whose variates each seed draws with one call.
_STEP_VALUES = 8192


def run_da(reg: Regularizer, stream: LossStream, channel: FeedbackChannel, eta: Schedule,
           T: int, rngs: Sequence[np.random.Generator],
           diagnostics: EnergyDiagnostics | None = None,
           eps: Schedule | None = None) -> list[RegretTrace]:
    """Run T rounds of dual averaging on the stream's grid and record regret traces.

    ``rngs`` holds one Generator per seed of a block, and one trace per seed
    is returned in the same order.  Each seed draws from its own Generator
    in the order a run of that seed alone would, and its trace equals that
    run's bit for bit.

    The loop moves forward one step at a time, and the scores of a step are
    one block of rows that ``mirror`` maps together (the logit as row
    operations, or a Newton solve per row, with one normalisability check
    for the block); with an ``eps`` schedule, ``mixed_strategy`` mixes eps_t
    of the uniform density into every row.  One ``grids.sample`` call per
    step then draws every seed's cells and points for the step's rounds.
    The regret bounds are on the expected regret over draws, so under a
    ``deterministic`` channel (exact feedback) every seed plays the same
    strategy, and the models of the coming rounds are known before any of
    them is played: a step is several rounds (see ``_STEP_VALUES``), whose
    models are observed first, and row i holds the scores of the step's
    round i, each the previous row minus (plus, for payoffs) its round's
    model, scaled by its own eta_t.  Otherwise a step is one round, row r
    holds seed r's scores, and the channel observes each seed at its drawn
    cell, after the draw; its model (index, values) updates the row in place
    at ``index``, a kernel model's patch alone.  The expected value is one
    ``grids.dot`` per strategy row and round, the realized values are read
    at the drawn cells, and every round is recorded on its own.  The stream
    value and its per-round best are computed once per round and shared.
    The traces record no schedule (the caller's) and no point (only the
    channel reads them).

    An ``EnergyDiagnostics`` passed as ``diagnostics`` records per-step energy
    accounting (roughly doubles the per-round cost); it follows one seed, and
    the recursion is that of the mirror image before exploration.
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    if diagnostics is not None and len(rngs) > 1:
        raise ConfigError("energy diagnostics follow one seed; pass a block of one generator")
    grid = stream.grid
    shared = channel.deterministic  # one strategy row per round for the whole block
    k = max(1, _STEP_VALUES // grid.n_cells) if shared else 1
    payoff = stream.payoff_convention
    recorder = TraceRecorder(stream, T, seeds=len(rngs))
    if diagnostics is not None:
        diagnostics.start(reg, eta, T, stream)
    w = grid.cell_volume
    # Shared: row i scores the step's round i, and the row after the step's
    # last round scores the next step's first.  Otherwise row r scores seed r.
    y = np.zeros((k + 1 if shared else len(rngs), grid.n_cells))
    # Row views made once: iterating a 2-D array makes a view per row, a
    # cost a block of one would pay every round.
    score_rows = list(y)
    for first in range(1, T + 1, k):
        rounds = range(first, min(first + k, T + 1))
        if shared:
            # Given no strategy, cell, action or generator: observed before the
            # draw, a model on the whole grid (index ``...``).
            f_rows, models = [], []
            for t, row, next_row in zip(rounds, score_rows, score_rows[1:]):
                f_rows.append(stream.values(t))
                _, model = channel.observe(stream, t, None, None, None, None)
                models.append(model)
                (np.add if payoff else np.subtract)(row, model, out=next_row)
            scores, scale = y[:len(rounds)], np.array([eta(t) for t in rounds])[:, None]
            step_eps = None if eps is None else [eps(t) for t in rounds]
        else:
            scores, scale = y, eta(first)
            step_eps = None if eps is None else eps(first)
        # Sums of finite models; mirror rejects a row it cannot normalise.
        x = mirror(reg, GridFunction.unchecked(grid, scale * scores))
        played = x if eps is None else mixed_strategy(x, step_eps)
        cells, actions = grids.sample(played, rngs, rounds=len(rounds))
        for i, t in enumerate(rounds):
            if shared:
                f_vals, index, model = f_rows[i], Ellipsis, models[i]
                expected = [grids.dot(f_vals, played.values[i]) * w]
                scores_next = score_rows[i + 1]
            else:
                f_vals = stream.values(t)
                expected = []
                for row, x_r, cell, action, g in zip(score_rows, played.values, cells[:, i],
                                                     actions[:, i], rngs):
                    index, model = channel.observe(stream, t, x_r, cell, action, g)
                    expected.append(grids.dot(f_vals, x_r) * w)
                    if payoff:
                        row[index] += model
                    else:
                        row[index] -= model
                scores_next = score_rows[0]
            recorder.record(t, f_vals, expected, f_vals[cells[:, i]])
            if diagnostics is not None:
                model_vals = np.zeros(grid.n_cells)
                model_vals[index] = model
                diagnostics.end_round(t, scores_next, model_vals, x.values[i], f_vals,
                                      expected[0])
        if shared:
            y[0] = y[len(rounds)]
        x = played = model = models = None  # none held through the next solve
    return recorder.finish_block()
