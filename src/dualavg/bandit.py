"""Kernel-based bandit dual averaging.

From a single realized payoff the learner reconstructs a full payoff model:
a uniform ball kernel around the chosen action, importance-weighted by the
played strategy's density there.  Scores accumulate these sparse models and
the played strategy mixes the logit of the scores with explicit uniform
exploration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .grids import Density, Grid, GridFunction, ball_patch, dot
from .losses import LossStream
from .regret import RegretTrace, TraceRecorder
from .regularizers import Regularizer, negentropy, mirror
from .schedules import Schedule

__all__ = [
    "BDAConfig",
    "KernelModel",
    "mixed_strategy",
    "kernel_estimate",
    "run_bda",
]


@dataclass(frozen=True)
class BDAConfig:
    """Schedules for the bandit learner.

    The optimal exponents in dimension d are eta ~ t^-((d+2)/(d+3)) and
    delta, eps ~ t^-(1/(d+3)); coefficients are free and default to broad
    early exploration.  The kernel radius is floored at twice the cell
    diameter so the ball patch can never be empty.  ``eps=None`` disables
    explicit exploration; the importance weight then relies on the strict
    positivity of the logit strategy on the grid.
    """

    eta: Schedule
    delta: Schedule
    eps: Schedule | None

    def __post_init__(self):
        if self.eps is not None and self.eps(1) > 1.0:
            raise ConfigError("exploration coefficient must satisfy eps_1 <= 1")

    def eps_at(self, t: int) -> float:
        return 0.0 if self.eps is None else self.eps(t)

    @classmethod
    def defaults(cls, grid: Grid, eta_coef: float = 1.0) -> "BDAConfig":
        d = grid.dim
        return cls(
            eta=Schedule(eta_coef, (d + 2) / (d + 3)),
            delta=Schedule(
                grid.domain.diameter / 4.0,
                1.0 / (d + 3),
                floor=2.0 * grid.cell_diameter,
            ),
            eps=Schedule(0.5, 1.0 / (d + 3)),
        )


@dataclass
class KernelModel:
    """Sparse payoff model supported on a ball patch, constant on its support."""

    grid: Grid
    support: np.ndarray
    value: float
    action: np.ndarray
    radius: float
    payoff: float
    density_at_action: float

    def to_grid_function(self) -> GridFunction:
        vals = np.zeros(self.grid.n_cells)
        vals[self.support] = self.value
        return GridFunction(self.grid, vals, copy=False)

    def kernel(self) -> GridFunction:
        """The underlying ball kernel K(action, .), normalized to integrate to one."""
        patch_volume = self.support.size * self.grid.cell_volume
        vals = np.zeros(self.grid.n_cells)
        vals[self.support] = 1.0 / patch_volume
        return GridFunction(self.grid, vals, copy=False)


def mixed_strategy(y: GridFunction, eta: float, eps: float,
                   reg: Regularizer | None = None) -> Density:
    """(1 - eps) * Q(eta * y) + eps * uniform; floor eps / volume everywhere."""
    if not (0.0 <= eps <= 1.0):
        raise DomainError("exploration weight must lie in [0, 1]")
    reg = negentropy() if reg is None else reg
    grid = y.grid
    base = mirror(reg, GridFunction(grid, eta * y.values, copy=False))
    vals = (1.0 - eps) * base.values + eps / grid.domain.volume
    return Density(grid, vals, copy=False)


def kernel_estimate(action, payoff: float, strategy: Density, delta: float) -> KernelModel:
    """Importance-weighted ball-kernel model from one realized payoff.

    The support value is payoff / (measured patch volume * strategy(action));
    the measured volume (cell count times cell volume) makes the kernel
    integrate to exactly one on the grid, boundary clipping included.
    """
    if not (0.0 <= payoff <= 1.0):
        raise DomainError(f"bandit payoffs must lie in [0, 1], got {payoff}")
    grid = strategy.grid
    density_here = float(strategy.values[grid.cell_index(action)])
    if density_here <= 0.0:
        raise DomainError(
            "strategy density vanishes at the action; the importance weight "
            "is undefined (cannot happen with positive exploration)"
        )
    support, volume = ball_patch(grid, action, delta)
    return KernelModel(
        grid=grid,
        support=support,
        value=payoff / (volume * density_here),
        action=np.atleast_1d(np.asarray(action, dtype=float)),
        radius=delta,
        payoff=payoff,
        density_at_action=density_here,
    )


def run_bda(grid: Grid, stream: LossStream, config: BDAConfig, T: int,
            rng: np.random.Generator,
            checkpoints: np.ndarray | None = None) -> RegretTrace:
    """Run T rounds of bandit dual averaging (Hedge mirror map) on a payoff stream.

    Per round: mix the logit strategy with uniform exploration, sample an
    action, observe the realized payoff only, build the kernel model, and add
    it to the scores (payoff ascent).  The trace records expected payoffs
    under the played strategy plus per-round policy-swap diagnostics.
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    if not stream.payoff_convention:
        raise ConfigError("run_bda requires a payoff-convention stream (values in [0,1])")
    recorder = TraceRecorder(stream, grid, T, checkpoints)
    w = grid.cell_volume
    volume = grid.domain.volume
    uniform_val = 1.0 / volume
    delta_floor = 2.0 * grid.cell_diameter
    y = np.zeros(grid.n_cells)
    swap_gap = np.zeros(T)
    expected_unmixed = np.zeros(T)
    strategy_min = np.zeros(T)
    eps_series = np.zeros(T)
    delta_series = np.zeros(T)
    floor_active = 0
    for t in range(1, T + 1):
        eta_t = config.eta(t)
        eps_t = config.eps_at(t)
        delta_t = max(config.delta(t), delta_floor)
        if delta_t > config.delta(t):
            floor_active += 1
        # Logit of the scaled scores, then explicit exploration mixing.
        z = np.exp(eta_t * y - (eta_t * y).max())
        base = z / (z.sum() * w)
        vals = (1.0 - eps_t) * base + eps_t * uniform_val

        cdf = np.cumsum(vals)
        u = rng.random()
        cell = min(int(np.searchsorted(cdf, u * cdf[-1], side="left")), grid.n_cells - 1)
        action = grid.centers[cell] + (rng.random(grid.dim) - 0.5) * grid.steps

        f_vals = stream.values(t)
        payoff = float(f_vals[cell])
        if not (0.0 <= payoff <= 1.0):
            raise ConfigError(f"payoff {payoff} outside [0, 1] at round {t}")
        expected = dot(f_vals, vals) * w
        recorder.record(t, f_vals, expected, payoff, action)

        support, patch_volume = ball_patch(grid, action, delta_t)
        y[support] += payoff / (patch_volume * vals[cell])

        swap_gap[t - 1] = eps_t * float(np.abs(base - uniform_val).max())
        expected_unmixed[t - 1] = dot(f_vals, base) * w
        strategy_min[t - 1] = float(vals.min())
        eps_series[t - 1] = eps_t
        delta_series[t - 1] = delta_t
    extras = {
        "algorithm": "bda",
        "swap_gap": swap_gap,
        "expected_unmixed": expected_unmixed,
        "strategy_min": strategy_min,
        "eps": eps_series,
        "delta": delta_series,
        "delta_floor_rounds": floor_active,
    }
    return recorder.finish(extras)
