"""Kernel-based bandit dual averaging.

From a single realized payoff the learner reconstructs a full payoff model:
a uniform ball kernel around the chosen action, importance-weighted by the
played strategy's density there.  Scores accumulate these sparse models and
the played strategy mixes the logit of the scores with explicit uniform
exploration.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .grids import Density, Grid, GridFunction, ball_patch, dot
from .losses import LossStream
from .regret import RegretTrace, TraceRecorder, generator_block
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
            rng: np.random.Generator | Sequence[np.random.Generator],
            checkpoints: np.ndarray | None = None) -> RegretTrace | list[RegretTrace]:
    """Run T rounds of bandit dual averaging (Hedge mirror map) on a payoff stream.

    Per round: mix the logit strategy with uniform exploration, sample an
    action, observe the realized payoff only, build the kernel model, and add
    it to the scores (payoff ascent).  The trace records expected payoffs
    under the played strategy plus per-round policy-swap diagnostics.

    ``rng`` is one Generator, for which one trace is returned, or a sequence
    of Generators, one per seed of a block, for which a list of traces is
    returned in the same order (the contract of ``run_da``).  Each seed plays
    its own strategy, so the scores are an (S, n) array: the logit, the
    exploration mix, the sampling CDF and the swap-gap and minimum-density
    diagnostics are row operations over the block, once per round.  The
    draw, the payoff, the two expected values and the kernel update are per
    seed, and each trace equals that of a run of its seed alone, bit for bit.
    The exploration and radius series depend on the round alone and are
    shared, read-only, by the block's traces.
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    if not stream.payoff_convention:
        raise ConfigError("run_bda requires a payoff-convention stream (values in [0,1])")
    rngs, single = generator_block(rng)
    S, n = len(rngs), grid.n_cells
    recorder = TraceRecorder(stream, grid, T, checkpoints, seeds=S)
    w = grid.cell_volume
    uniform_val = 1.0 / grid.domain.volume
    delta_floor = 2.0 * grid.cell_diameter
    centers, steps, dim = grid.centers, grid.steps, grid.dim
    # Scores, logit strategies, played strategies and their CDFs, one row per
    # seed; the buffers and their row views are made once, since a view per
    # row per round is a cost a block of one would pay.
    y, base, vals, cdf = (np.zeros((S, n)) for _ in range(4))
    seed_rows = list(zip(range(S), rngs, y, base, vals, cdf))
    # Round-major, so that each round writes one row.
    swap_gap, expected_unmixed, strategy_min = (np.zeros((T, S)) for _ in range(3))
    eps_series = np.zeros(T)
    delta_series = np.zeros(T)
    floor_active = 0
    for t in range(1, T + 1):
        i = t - 1
        eta_t = config.eta(t)
        eps_t = config.eps_at(t)
        delta_raw = config.delta(t)
        delta_t = max(delta_raw, delta_floor)
        if delta_t > delta_raw:
            floor_active += 1
        # Logit of the scaled scores, then explicit exploration mixing, row by row.
        np.multiply(y, eta_t, out=base)
        base -= base.max(axis=1, keepdims=True)
        np.exp(base, out=base)
        base /= base.sum(axis=1, keepdims=True) * w
        np.multiply(base, 1.0 - eps_t, out=vals)
        vals += eps_t * uniform_val
        np.cumsum(vals, axis=1, out=cdf)

        f_vals = stream.values(t)
        expected, payoffs, actions = [], [], []
        for s, g, y_s, base_s, vals_s, cdf_s in seed_rows:
            cell = min(int(cdf_s.searchsorted(g.random() * cdf_s[-1])), n - 1)
            action = centers[cell] + (g.random(dim) - 0.5) * steps
            payoff = float(f_vals[cell])
            if not (0.0 <= payoff <= 1.0):
                raise ConfigError(f"payoff {payoff} outside [0, 1] at round {t}")
            expected.append(dot(f_vals, vals_s) * w)
            expected_unmixed[i, s] = dot(f_vals, base_s) * w
            support, patch_volume = ball_patch(grid, action, delta_t)
            y_s[support] += payoff / (patch_volume * vals_s[cell])
            payoffs.append(payoff)
            actions.append(action)
        recorder.record(t, f_vals, expected, payoffs, actions)

        swap_gap[i] = eps_t * np.abs(base - uniform_val).max(axis=1)
        vals.min(axis=1, out=strategy_min[i])
        eps_series[i] = eps_t
        delta_series[i] = delta_t
    for shared in (eps_series, delta_series):
        shared.setflags(write=False)
    extras = {
        "algorithm": "bda",
        "eps": eps_series,
        "delta": delta_series,
        "delta_floor_rounds": floor_active,
    }
    traces = recorder.finish_block(extras, per_seed={
        "swap_gap": swap_gap.T,
        "expected_unmixed": expected_unmixed.T,
        "strategy_min": strategy_min.T,
    })
    return traces[0] if single else traces
