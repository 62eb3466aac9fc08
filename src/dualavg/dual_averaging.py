"""Dual averaging with (possibly inexact) full-function feedback.

The learner accumulates negated loss models into a score function and plays
the mirror image of the scaled scores: x_t = Q(eta_t * y_t), y_{t+1} = y_t -
model_t (payoff-convention streams accumulate with a plus sign).  Optional
per-step diagnostics track the energy of a fixed comparator and check the
recursive and telescoped regret bounds along the run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .grids import Density, Grid, GridFunction
from .losses import FeedbackChannel, LossStream
from .regret import RegretTrace, TraceRecorder
from .regularizers import (
    Regularizer,
    conjugate,
    hval,
    min_hval,
    mirror,
)
from .schedules import Schedule
from . import grids

__all__ = [
    "DAState",
    "EnergyRecord",
    "da_strategy",
    "da_step",
    "run_da",
    "energy_records",
]


@dataclass(frozen=True, eq=False)
class DAState:
    """Learner state: round counter, score function, and the learning-rate rule."""

    grid: Grid
    regularizer: Regularizer
    eta: Schedule
    t: int = 1
    scores: np.ndarray = None
    payoff_convention: bool = False

    def __post_init__(self):
        if self.scores is None:
            object.__setattr__(self, "scores", np.zeros(self.grid.n_cells))

    @property
    def learning_rate(self) -> float:
        return self.eta(self.t)


@dataclass(frozen=True)
class EnergyRecord:
    t: int
    value: float
    eta: float


def da_strategy(state: DAState) -> Density:
    """Current mixed strategy Q(eta_t * y_t)."""
    scaled = GridFunction(state.grid, state.learning_rate * state.scores, copy=False)
    return mirror(state.regularizer, scaled)


def da_step(state: DAState, model: GridFunction) -> DAState:
    """Score update y_{t+1} = y_t -/+ model; increments the round counter."""
    grids.ensure_same_grid(model.grid, state.grid)
    sign = 1.0 if state.payoff_convention else -1.0
    return replace(state, t=state.t + 1, scores=state.scores + sign * model.values)


def energy_records(trace: RegretTrace) -> list[EnergyRecord]:
    """Energy diagnostics of a diagnostic run as typed records."""
    if "energy" not in trace.extras:
        raise KeyError("trace was recorded without energy diagnostics")
    energies = trace.extras["energy"]
    etas = trace.extras["eta"]
    return [EnergyRecord(t + 1, float(e), float(h)) for t, (e, h) in enumerate(zip(energies, etas))]


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
        self.h_gap = self.h_mu - min_hval(reg, grid.domain.volume)
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
                  x: Density, f_vals: np.ndarray, expected: float) -> None:
        i = t - 1
        eta_t, eta_next = self.etas[i], self.etas[i + 1]
        w = self.grid.cell_volume
        mu_vals = self.mu.values
        model_gap = float(model_vals @ (x.values - mu_vals) * w)
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
        mu_expected = float(f_vals @ mu_vals * w)
        inc = expected - mu_expected
        err = float((model_vals - f_vals) @ (mu_vals - x.values) * w)
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
           rng: np.random.Generator, diagnostics: Density | None = None,
           checkpoints: np.ndarray | None = None) -> RegretTrace:
    """Run T rounds of dual averaging and record a regret trace.

    Passing a comparator density as ``diagnostics`` turns on per-step energy
    accounting (roughly doubles the per-round cost).
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    payoff = stream.payoff_convention
    recorder = TraceRecorder(stream, grid, T, checkpoints)
    diag = (
        _EnergyDiagnostics(reg, grid, diagnostics, eta, T, payoff)
        if diagnostics is not None
        else None
    )
    w = grid.cell_volume
    sign = 1.0 if payoff else -1.0
    y = np.zeros(grid.n_cells)
    for t in range(1, T + 1):
        eta_t = eta(t)
        x = mirror(reg, GridFunction(grid, eta_t * y, copy=False))
        if diag is not None:
            diag.start_round(t, y)
        action = grids.sample(x, rng)
        obs = channel.observe(stream, t, x, action, rng)
        if obs.model is None:
            raise ConfigError("run_da needs function-valued feedback; use run_bda for bandits")
        f_vals = stream.values(t)
        expected = float(f_vals @ x.values * w)
        realized = float(f_vals[grid.cell_index(action)])
        recorder.record(t, f_vals, expected, realized, action)
        model_vals = obs.model.values
        y += sign * model_vals
        if diag is not None:
            diag.end_round(t, y, model_vals, x, f_vals, expected)
    extras = {"algorithm": "da", "eta": np.array([eta(t) for t in range(1, T + 2)])}
    if diag is not None:
        extras.update(diag.extras())
    return recorder.finish(extras)
