"""Kernel-based bandit dual averaging: dual averaging fed a kernel model.

From a single realized payoff the bandit channel (``losses.BanditChannel``)
reconstructs a full payoff model: a uniform ball kernel around the chosen
action, importance-weighted by the played strategy's density there
(``losses.kernel_estimate``).  The learner is ``run_da`` with the negentropy
regularizer, that channel and an exploration schedule: scores accumulate
the sparse models, and the played strategy mixes the logit of the scores
with explicit uniform exploration (``mixed_strategy``).  ``run_bda`` is
that configuration, and adds the count of radius-floor rounds to the traces.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dual_averaging import run_da
from .errors import ConfigError
from .grids import Grid
from .losses import BanditChannel, LossStream
from .regret import RegretTrace, generator_block
from .regularizers import negentropy
from .schedules import Schedule

__all__ = ["BDAConfig", "run_bda"]


@dataclass(frozen=True)
class BDAConfig:
    """Schedules for the bandit learner.

    The optimal exponents in dimension d are eta ~ t^-((d+2)/(d+3)) and
    delta, eps ~ t^-(1/(d+3)); coefficients are free and default to broad
    early exploration.  The bandit channel floors the kernel radius at twice
    the cell diameter, so the ball patch is never empty; ``delta`` is the
    schedule before that floor.  ``eps=None`` disables explicit
    exploration; the importance weight then relies on the strict positivity
    of the logit strategy on the grid.
    """

    eta: Schedule
    delta: Schedule
    eps: Schedule | None

    def __post_init__(self):
        if self.eps is not None and self.eps(1) > 1.0:
            raise ConfigError("exploration coefficient must satisfy eps_1 <= 1")

    @classmethod
    def defaults(cls, grid: Grid, eta_coef: float = 1.0) -> "BDAConfig":
        d = grid.dim
        return cls(
            eta=Schedule(eta_coef, (d + 2) / (d + 3)),
            delta=Schedule(grid.domain.diameter / 4.0, 1.0 / (d + 3)),
            eps=Schedule(0.5, 1.0 / (d + 3)),
        )


def run_bda(grid: Grid, stream: LossStream, config: BDAConfig, T: int,
            rng: np.random.Generator | Sequence[np.random.Generator],
            checkpoints: np.ndarray | None = None) -> RegretTrace | list[RegretTrace]:
    """Run T rounds of bandit dual averaging (Hedge mirror map) on a payoff stream.

    This is ``run_da`` with ``negentropy()``, a ``BanditChannel`` of radius
    schedule ``config.delta`` and the exploration schedule ``config.eps``;
    ``rng`` and the returned traces follow ``run_da``'s contract.  Each
    trace's extras also hold ``algorithm`` = "bda" and
    ``delta_floor_rounds``, the number of rounds where the channel's radius
    ``channel.radius(grid, t)`` is the floor rather than ``config.delta(t)``.
    A loss stream is rejected (``ConfigError``) by the channel.
    """
    rngs, single = generator_block(rng)
    channel = BanditChannel(config.delta)
    traces = run_da(grid, negentropy(), stream, channel, config.eta, T, rngs,
                    checkpoints=checkpoints, eps=config.eps)
    floor_rounds = sum(config.delta(t) < channel.radius(grid, t) for t in range(1, T + 1))
    for trace in traces:
        trace.extras.update(algorithm="bda", delta_floor_rounds=floor_rounds)
    return traces[0] if single else traces
