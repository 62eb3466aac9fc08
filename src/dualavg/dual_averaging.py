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

    ``eps`` is one weight for every row, or a sequence of one per row in C order.
    Every cell of the result has density at least eps / volume, which bounds
    the importance weight of the bandit channel's kernel model.
    """
    if isinstance(eps, (int, float)):  # numpy checks on a scalar cost microseconds a round
        valid = 0.0 <= eps <= 1.0
    else:
        eps = np.asarray(eps, dtype=float).reshape(x.values.shape[:-1] + (1,))
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


# Cell values per block array of a step (64 KiB of float64): under a channel
# that does not read the play a step moves k = max(1, _STEP_VALUES // n)
# rounds (8 on 1024 cells).
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

    The loop moves one step of rounds at a time.  The scores are (L, k + 1,
    n), k + 1 rows per line (one for the bandit channel): a line per seed,
    or one line that every seed plays under a ``deterministic`` channel
    (exact feedback); row i scores the step's round i.  A step starts with
    the draws: each seed reads its Generator round by round, the round's
    1 + d draw variates, then the channel's own (``FeedbackChannel.draw``).
    The step's rows, read once (``stream.rows``), are the channel's truth.
    A channel that does not read the play (exact, unbiased, biased) makes
    its models from the truth and its own draws alone, so its step is k =
    max(1, _STEP_VALUES // n) rounds, observed as one block per line before
    the draws are played: row i + 1 is row i minus (plus, for payoffs) round
    i's model, and row m of a step of m rounds is the next step's row 0.
    The bandit channel's step is one round: it observes each seed at the
    drawn cell and adds the model to row 0 in place, on the model's index
    alone (a kernel patch).  Each row is scaled by its own
    eta_t, one ``mirror`` call maps the step's rows (the logit as row
    operations, or a Newton solve per row), ``mixed_strategy`` mixes in
    eps_t of the uniform density under an ``eps`` schedule, and one
    ``grids.sample`` call picks every seed's cells and points from the
    drawn variates.  Each round's expected value is one ``grids.dot`` per
    strategy row, its realized values are read at the drawn cells, and it
    is recorded on its own; its stream values and best are shared.  The
    traces record no schedule (the caller's) and no point.

    An ``EnergyDiagnostics`` passed as ``diagnostics`` records per-step energy
    accounting (roughly doubles the per-round cost); it follows one seed, and
    the recursion is that of the mirror image before exploration.
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    if diagnostics is not None and len(rngs) > 1:
        raise ConfigError("energy diagnostics follow one seed; pass a block of one generator")
    grid = stream.grid
    n, w = grid.n_cells, grid.cell_volume
    blind = not channel.reads_play
    k = max(1, _STEP_VALUES // n) if blind else 1
    step = np.add if stream.payoff_convention else np.subtract
    recorder = TraceRecorder(stream, T, seeds=len(rngs))
    if diagnostics is not None:
        diagnostics.start(reg, eta, T, stream)
    # Row m of a step of m rounds is the next step's row 0; the bandit channel
    # updates row 0 in place.
    y = np.zeros((1 if channel.deterministic else len(rngs), k + blind, n))
    # Row views made once: indexing a row makes a view, a cost paid every round.
    line_rows = [list(line) for line in y]
    # Scaled in place when rows 0..m - 1 are read by the mirror map alone.
    in_place = blind and diagnostics is None
    width = 1 + grid.dim  # draw variates per round: a cell, then a point in it
    for first in range(1, T + 1, k):
        rounds = range(first, min(first + k, T + 1))
        m = len(rounds)
        variates, own_draws = zip(*[channel.draw(g, m, width) for g in rngs])
        f_rows = stream.rows(rounds)
        if blind:  # row i + 1 is row i minus (plus, for payoffs) round i's model
            for rows, own in zip(line_rows, own_draws):
                _, models = channel.observe(stream, rounds, f_rows, own)
                for i, model in enumerate(models):
                    step(rows[i], model, out=rows[i + 1])
        # Per-row schedules, or for a step of one round one number (array set-up and
        # numpy checks on a list cost microseconds a round).
        scale = eta(first) if m == 1 else np.array([eta(t) for t in rounds])[:, None]
        scores = y[:, :m]
        if in_place:
            scores *= scale
        else:
            scores = scale * scores
        # Sums of finite models; mirror rejects a row it cannot normalise.
        x = mirror(reg, GridFunction.unchecked(grid, scores))
        played = x if eps is None else mixed_strategy(
            x, eps(first) if m == 1 else [eps(t) for t in rounds] * len(y))
        cells, actions = grids.sample(played, rngs, rounds=m,
                                      variates=np.array(variates))
        strategies = list(played.values)  # each line's (m, n) rows
        for i, t in enumerate(rounds):
            f_vals = f_rows[i]
            expected = [grids.dot(f_vals, x_rows[i]) * w for x_rows in strategies]
            if not blind:  # observed at the drawn cell; added to row 0 on its index alone
                for rows, x_rows, cell, action in zip(line_rows, strategies, cells[:, i],
                                                      actions[:, i]):
                    index, model = channel.observe(stream, t, f_vals, x_rows[i], cell, action)
                    rows[0][index] = step(rows[0][index], model)
            recorder.record(t, f_vals, expected, f_vals[cells[:, i]])
            if diagnostics is not None:
                if blind:
                    index, model = ..., models[i]
                model_vals = np.zeros(n)
                model_vals[index] = model
                diagnostics.end_round(t, line_rows[0][i + 1 if blind else 0], model_vals,
                                      x.values[0, i], f_vals, expected[0])
        if blind and k == 1:  # row 1 holds the next scores: the rows trade places, no copy
            y, line_rows = y[:, ::-1], [rows[::-1] for rows in line_rows]
        elif blind:
            y[:, 0] = y[:, m]  # the next step's first scores
        x = played = strategies = None  # not held through the next solve
    return recorder.finish_block()
