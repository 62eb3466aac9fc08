"""Kernel-based bandit dual averaging.

From a single realized payoff the learner reconstructs a full payoff model:
a uniform ball kernel around the chosen action, importance-weighted by the
played strategy's density there (``kernel_estimate``).  Scores accumulate
these sparse models and the played strategy mixes the logit of the scores
with explicit uniform exploration (``mixed_strategy``).  ``run_bda`` builds
every round from these two functions and the package's one categorical draw
(``grids.draw_cell``); each exists once.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .grids import Density, Grid, GridFunction, ball_patch, dot, draw_from_cdf, sampling_cdf
from .losses import LossStream
from .regret import RegretTrace, TraceRecorder, generator_block
from .schedules import Schedule

__all__ = [
    "BDAConfig",
    "mixed_strategy",
    "kernel_estimate",
    "run_bda",
]


@dataclass(frozen=True)
class BDAConfig:
    """Schedules for the bandit learner.

    The optimal exponents in dimension d are eta ~ t^-((d+2)/(d+3)) and
    delta, eps ~ t^-(1/(d+3)); coefficients are free and default to broad
    early exploration.  ``run_bda`` floors the kernel radius at twice the
    cell diameter, so the ball patch is never empty; ``delta`` is the
    schedule before that floor.  ``eps=None`` disables
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
            delta=Schedule(grid.domain.diameter / 4.0, 1.0 / (d + 3)),
            eps=Schedule(0.5, 1.0 / (d + 3)),
        )


def mixed_strategy(y: GridFunction, eta: float, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(logit, mixed) of the scores, per row of a block: Q(eta * y) and its exploration mix.

    The logit is the Hedge strategy exp(eta * y) normalised on the grid; the
    played strategy is (1 - eps) * logit + eps * (1 / volume), so every cell
    has density at least eps / volume.  ``run_bda`` calls this once per
    round on its (S, n) scores.
    """
    if not (0.0 <= eps <= 1.0):
        raise DomainError("exploration weight must lie in [0, 1]")
    grid = y.grid
    logit = y.values * eta
    logit -= logit.max(axis=-1, keepdims=True)
    np.exp(logit, out=logit)
    logit /= logit.sum(axis=-1, keepdims=True) * grid.cell_volume
    mixed = logit * (1.0 - eps)
    mixed += eps * (1.0 / grid.domain.volume)
    return logit, mixed


def kernel_estimate(grid: Grid, action, payoff: float, density_at_action: float,
                    delta: float) -> tuple[np.ndarray, float]:
    """Importance-weighted ball-kernel model from one realized payoff: (support, value).

    The model is ``value`` on the cells of the ball patch of radius ``delta``
    around ``action`` and 0 elsewhere, with value = payoff / (measured patch
    volume * density_at_action), the played strategy's density at the
    action.  The measured volume (cell count times cell volume) makes the
    kernel integrate to exactly one on the grid, boundary clipping included.
    """
    if not (0.0 <= payoff <= 1.0):
        raise DomainError(f"bandit payoffs must lie in [0, 1], got {payoff}")
    if density_at_action <= 0.0:
        raise DomainError(
            "strategy density vanishes at the action; the importance weight "
            "is undefined (cannot happen with positive exploration)"
        )
    support, volume = ball_patch(grid, action, delta)
    return support, payoff / (volume * density_at_action)


def run_bda(grid: Grid, stream: LossStream, config: BDAConfig, T: int,
            rng: np.random.Generator | Sequence[np.random.Generator],
            checkpoints: np.ndarray | None = None) -> RegretTrace | list[RegretTrace]:
    """Run T rounds of bandit dual averaging (Hedge mirror map) on a payoff stream.

    Per round: mix the logit strategy with uniform exploration, sample an
    action, observe the realized payoff only, build the kernel model, and add
    it to the scores (payoff ascent).  The kernel radius is the schedule's
    delta(t) floored at twice the cell diameter; the trace's
    ``delta_floor_rounds`` counts the rounds where the floor was used.  The
    trace records expected payoffs under the played strategy plus per-round
    policy-swap diagnostics.

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
    S = len(rngs)
    recorder = TraceRecorder(stream, grid, T, checkpoints, seeds=S)
    w = grid.cell_volume
    uniform_val = 1.0 / grid.domain.volume
    delta_floor = 2.0 * grid.cell_diameter
    y = np.zeros((S, grid.n_cells))
    scores = GridFunction.unchecked(grid, y)
    score_rows = list(y)  # row views made once, not once per round
    # Round-major, so that each round writes one row.
    swap_gap, expected_unmixed, strategy_min = (np.zeros((T, S)) for _ in range(3))
    eps_series = np.zeros(T)
    delta_series = np.zeros(T)
    floor_active = 0
    for t in range(1, T + 1):
        i = t - 1
        eps_t = config.eps_at(t)
        delta_raw = config.delta(t)
        delta_t = max(delta_raw, delta_floor)
        if delta_t > delta_raw:
            floor_active += 1
        base, vals = mixed_strategy(scores, config.eta(t), eps_t)
        cdf = sampling_cdf(Density.unchecked(grid, vals))

        f_vals = stream.values(t)
        expected, unmixed, payoffs, actions = [], [], [], []
        for g, y_s, vals_s, base_s, cdf_s in zip(rngs, score_rows, vals, base, cdf):
            cell, action = draw_from_cdf(grid, cdf_s, g)
            payoff = float(f_vals[cell])
            expected.append(dot(f_vals, vals_s) * w)
            unmixed.append(dot(f_vals, base_s) * w)
            support, value = kernel_estimate(grid, action, payoff, vals_s[cell], delta_t)
            y_s[support] += value
            payoffs.append(payoff)
            actions.append(action)
        recorder.record(t, f_vals, expected, payoffs, actions)
        expected_unmixed[i] = unmixed

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
