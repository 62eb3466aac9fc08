"""Dual averaging with (possibly inexact) full-function feedback.

The learner accumulates negated loss models into a score function and plays
the mirror image of the scaled scores: x_t = Q(eta_t * y_t), y_{t+1} = y_t -
model_t (payoff-convention streams accumulate with a plus sign).  Optional
per-step diagnostics track the energy of a fixed comparator and check the
recursive and telescoped regret bounds along the run.

``run_da`` is the module's one entry point; it moves a block of seeds
forward together, with the scores as one array of rows.  The regret bounds
are on the expected regret over draws from the mixed strategy, so under
exact feedback the strategy sequence is the same for every seed and one
row serves the block; only the draws differ.  With noisy feedback each seed
has its own row, and the mirror map, its normalisability check and the
sampling CDFs are row operations over the block; every draw goes through
``grids.sample``.  Either way each trace equals that of a run of its seed
alone, bit for bit, so outputs do not depend on how seeds are blocked (the
CLI's ``--threads``).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import ConfigError
from .grids import Density, Grid, GridFunction
from .losses import FeedbackChannel, LossStream
from .regret import RegretTrace, TraceRecorder, generator_block
from .regularizers import Regularizer, conjugate, hval, hvol, mirror
from .schedules import Schedule
from . import grids

__all__ = ["run_da"]


class _EnergyDiagnostics:
    """Per-step energy recursion and telescoped-bound bookkeeping."""

    def __init__(self, reg: Regularizer, grid: Grid, comparator: Density,
                 eta: Schedule, T: int, payoff: bool):
        if reg.modulus is None:
            raise ConfigError(
                "energy diagnostics need a strong-convexity modulus "
                "(negentropy or quadratic regularizer)"
            )
        self.reg = reg
        self.grid = grid
        self.mu = comparator
        self.eta = eta
        self.payoff = payoff
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

    def _energy_at(self, t: int, scores: np.ndarray) -> float:
        eta_t = self.etas[t - 1]
        scaled = GridFunction(self.grid, eta_t * scores, copy=False)
        val = (
            self.h_mu
            + conjugate(self.reg, scaled)
            - grids.pair(scaled, self.mu)
        ) / eta_t
        return val

    def start_round(self, t: int, scores: np.ndarray) -> None:
        if t == 1:
            self.energy[0] = self._energy_at(1, scores)

    def end_round(self, t: int, scores_next: np.ndarray, model_vals: np.ndarray,
                  x: np.ndarray, f_vals: np.ndarray, expected: float) -> None:
        """Round t's bookkeeping; ``x`` holds the played strategy's cell values."""
        i = t - 1
        eta_t, eta_next = self.etas[i], self.etas[i + 1]
        w = self.grid.cell_volume
        mu_vals = self.mu.values
        model_gap = grids.dot(model_vals, x - mu_vals) * w
        if not self.payoff:
            model_gap = -model_gap
        sup_model = float(np.abs(model_vals).max())
        self.rhs[i] = (
            self.energy[i]
            + model_gap
            + (1.0 / eta_next - 1.0 / eta_t) * self.h_gap
            + eta_t * self.kappa ** 2 * sup_model ** 2 / (2.0 * self.K)
        )
        self.energy[i + 1] = self._energy_at(t + 1, scores_next)
        mu_expected = grids.dot(f_vals, mu_vals) * w
        inc = expected - mu_expected
        err = grids.dot(model_vals - f_vals, mu_vals - x) * w
        if self.payoff:
            inc, err = -inc, -err
        self.reg_mu_inc[i] = inc
        self.err_term[i] = err
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
           checkpoints: np.ndarray | None = None) -> RegretTrace | list[RegretTrace]:
    """Run T rounds of dual averaging and record a regret trace.

    ``rng`` is one Generator, for which one trace is returned, or a sequence
    of Generators, one per seed of a block, for which a list of traces is
    returned in the same order.  The block moves forward together: each seed
    draws from its own Generator in the order a run of that seed alone
    would, and its trace equals that run's bit for bit.

    The scores are one (R, n) array.  Under a ``deterministic`` channel
    (exact feedback) every seed plays the same strategy, so R = 1;
    otherwise R is the number of seeds.  Each round, ``mirror`` maps the
    scaled scores, as one block of R rows, to the R strategies (the logit
    as row operations, or a Newton solve per row, with one normalisability
    check for the block), and ``grids.sample`` builds their sampling CDFs
    with one cumulative sum over the block and draws each seed's point.  Per
    seed, and in the order a run of that seed alone makes them, are the
    draw, the channel's observation, the expected value under the seed's
    strategy and the realized value at its action; under exact feedback
    the observation and the expected value are made once, for row 0.  The
    stream value, its per-round best and the cumulative snapshots are
    computed once per round and shared.

    Passing a comparator density as ``diagnostics`` turns on per-step energy
    accounting (roughly doubles the per-round cost); it follows one seed.
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
        _EnergyDiagnostics(reg, grid, diagnostics, eta, T, payoff)
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
        if diag is not None:
            diag.start_round(t, y[0])
        actions = grids.sample(x, rngs)
        f_vals = stream.values(t)
        # Row r is played by seed r, or by every seed when shared; a shared
        # channel reads neither the action nor the generator it is given.
        expected = []
        for row, x_r, action, g in zip(score_rows, x.values, actions, rngs):
            model = channel.observe(stream, t, x_r, action, g).model
            if model is None:
                raise ConfigError("run_da needs function-valued feedback; use run_bda for bandits")
            expected.append(grids.dot(f_vals, x_r) * w)
            if payoff:
                row += model.values
            else:
                row -= model.values
        realized = [f_vals[grid.cell_index(a)] for a in actions]
        recorder.record(t, f_vals, expected, realized, actions)
        if diag is not None:
            diag.end_round(t, y[0], model.values, x.values[0], f_vals, expected[0])
    etas = np.array([eta(t) for t in range(1, T + 2)])
    etas.setflags(write=False)
    extras = {"algorithm": "da", "eta": etas}
    if diag is not None:
        extras.update(diag.extras())
    traces = recorder.finish_block(extras)
    return traces[0] if single else traces
