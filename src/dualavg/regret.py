"""Post-hoc regret accounting on recorded traces.

A trace stores what the run alone produced: per-seed expected and realized
values and actions, and the per-round best fixed value, shared by the seeds
of a block.  Cumulative stream values over any horizon come from the
stream's window sums (closed forms on trig streams), so nothing else is
stored.  All regrets are reported in the loss orientation (nonnegative when
the learner is doing worse than the benchmark), for loss streams and payoff
streams alike; ``loss_oriented`` and ``best_value`` are that one sign rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .grids import Density, Grid, dot
from .losses import LossStream, variation

__all__ = [
    "RegretTrace",
    "TraceRecorder",
    "default_checkpoints",
    "generator_block",
    "static_regret",
    "regret_vs_comparator",
    "regret_vs_point",
    "neighborhood_comparator",
    "dynamic_regret",
    "window_decomposition",
    "WindowDecomposition",
    "SlopeFit",
    "fit_slope",
]


def default_checkpoints(T: int, start: int = 100, ratio: float = 1.3) -> np.ndarray:
    """Geometric checkpoint rounds from ``start`` with the given ratio, plus T."""
    if T < 1:
        raise ValueError("horizon must be >= 1")
    if not (start >= 1 and ratio > 1):
        # Otherwise the sequence never passes T.
        raise ValueError("checkpoints need start >= 1 and ratio > 1")
    points = []
    c = float(start)
    while c <= T:
        points.append(int(round(c)))
        c *= ratio
    points.append(T)
    # Not np.unique: it imports numpy.ma, about 17 ms in every fresh worker.
    return np.asarray(sorted(set(points)), dtype=int)


def generator_block(rng) -> tuple[list[np.random.Generator], bool]:
    """The generators of a ``run_*`` call's ``rng``, and whether it was a single one.

    The learner loops, ``run_da``, ``run_exp3`` and ``run_uniform``, take one
    Generator, for which they return one trace, or a sequence of Generators,
    one per seed of a block, for which they return a list of traces in the
    same order.  ``run_bda``, a configuration of ``run_da``, keeps that
    contract: it passes ``run_da`` the block as a list and unwraps a single
    trace itself.
    """
    if isinstance(rng, np.random.Generator):
        return [rng], True
    rngs = list(rng)
    if not rngs:
        raise ValueError("at least one generator required")
    return rngs, False


def loss_oriented(source, value):
    """``value`` in the loss orientation: negated when ``source``, a stream or
    a trace, follows the payoff convention."""
    return -value if source.payoff_convention else value


def best_value(source, values: np.ndarray) -> float:
    """The best of ``values``: the largest payoff, or the smallest loss."""
    return float(values.max() if source.payoff_convention else values.min())


@dataclass
class RegretTrace:
    """Per-round records of one run, sufficient for all regret accounting.

    ``expected``, ``realized`` and ``actions`` are read-only rows of the
    recorder's seed-major block arrays; ``round_best`` and ``checkpoints``
    are shared by the block, read-only.
    """

    stream: LossStream
    grid: Grid
    horizon: int
    expected: np.ndarray
    realized: np.ndarray
    actions: np.ndarray
    round_best: np.ndarray
    checkpoints: np.ndarray
    extras: dict = field(default_factory=dict)
    _variation: float | None = field(default=None, init=False, repr=False)

    @property
    def payoff_convention(self) -> bool:
        return self.stream.payoff_convention

    def variation(self) -> float:
        """V_T of the stream over the recorded horizon, computed on first use."""
        if self._variation is None:
            self._variation = variation(self.stream, self.horizon)
        return self._variation

    def cumulative_grid(self, T: int) -> np.ndarray:
        """Cumulative stream values over rounds 1..T on the grid: the stream's window sum."""
        return self.stream.window_sum(1, T)


class TraceRecorder:
    """Accumulates the per-round records of a block of runs.

    One recorder serves a block of ``seeds`` runs against one stream: the
    per-round best value depends on the stream alone, so it is recorded once
    and the block's traces share it, read-only.  Expected and realized
    values and actions are kept seed-major, and each trace gets read-only
    views of its seed's rows.
    """

    def __init__(self, stream: LossStream, grid: Grid, horizon: int,
                 checkpoints: np.ndarray | None = None, seeds: int = 1):
        self.stream = stream
        self.grid = grid
        self.horizon = horizon
        self.checkpoints = (
            default_checkpoints(horizon) if checkpoints is None else np.array(checkpoints)
        )
        # The CLI writes one row per checkpoint, so each must be a recorded
        # round, in order, once.
        cps = self.checkpoints
        if cps.ndim != 1 or (cps.size and (cps[0] < 1 or cps[-1] > horizon
                                           or np.any(np.diff(cps) <= 0))):
            raise ValueError("checkpoints must be strictly increasing rounds in [1, horizon]")
        self.expected = np.zeros((seeds, horizon))
        self.realized = np.zeros((seeds, horizon))
        self.actions = np.zeros((seeds, horizon, grid.dim))
        self.round_best = np.zeros(horizon)

    def record(self, t: int, f_values: np.ndarray, expected, realized, action) -> None:
        """Round t of every seed of the block.

        ``expected``, ``realized`` and ``action`` hold one entry per seed, or
        one entry that every seed shares.
        """
        i = t - 1
        self.expected[:, i] = expected
        self.realized[:, i] = realized
        self.actions[:, i] = action
        self.round_best[i] = best_value(self.stream, f_values)

    def finish_block(self, extras: dict | None = None,
                     per_seed: dict | None = None) -> list[RegretTrace]:
        """One trace per seed, in block order; each gets its own copy of ``extras``.

        ``per_seed`` maps further extras to arrays whose first axis is the
        seed; trace s gets a copy of row s under the same name.
        """
        for shared in (self.checkpoints, self.round_best, self.expected, self.realized,
                       self.actions):
            shared.setflags(write=False)
        traces = [
            RegretTrace(
                stream=self.stream,
                grid=self.grid,
                horizon=self.horizon,
                expected=expected,
                realized=realized,
                actions=actions,
                round_best=self.round_best,
                checkpoints=self.checkpoints,
                extras=dict(extras or {}),
            )
            for expected, realized, actions in zip(self.expected, self.realized, self.actions)
        ]
        for name, rows in (per_seed or {}).items():
            for trace, row in zip(traces, rows):
                trace.extras[name] = row.copy()
        return traces


def _check_horizon(trace: RegretTrace, T: int | None) -> int:
    T = trace.horizon if T is None else int(T)
    if not (1 <= T <= trace.horizon):
        raise ValueError(f"horizon {T} outside recorded trace of length {trace.horizon}")
    return T


def _window_regret(trace: RegretTrace, cum: np.ndarray, mine: np.ndarray) -> float:
    """Regret of the recorded values ``mine`` of a window against the best
    fixed cell center, given the window's cumulative stream values ``cum``."""
    return loss_oriented(trace, float(mine.sum()) - best_value(trace, cum))


def static_regret(trace: RegretTrace, T: int | None = None, realized: bool = False) -> float:
    """Cumulative (expected) value against the best fixed cell center in hindsight."""
    T = _check_horizon(trace, T)
    mine = (trace.realized if realized else trace.expected)[:T]
    return _window_regret(trace, trace.cumulative_grid(T), mine)


def regret_vs_comparator(trace: RegretTrace, mu: Density, T: int | None = None) -> float:
    """Reg_mu(T) = sum_t <f_t, x_t - mu> in the loss orientation."""
    T = _check_horizon(trace, T)
    theirs = dot(trace.cumulative_grid(T), mu.values) * trace.grid.cell_volume
    return loss_oriented(trace, float(trace.expected[:T].sum()) - theirs)


def regret_vs_point(trace: RegretTrace, x, T: int | None = None) -> float:
    """Regret against the pure strategy at ``x`` (graded at x's cell center)."""
    T = _check_horizon(trace, T)
    theirs = float(trace.cumulative_grid(T)[trace.grid.cell_index(x)])
    return loss_oriented(trace, float(trace.expected[:T].sum()) - theirs)


def neighborhood_comparator(grid: Grid, x, radius: float) -> tuple[Density, float]:
    """Uniform density on the ball patch around ``x``, and its effective diameter.

    The diameter is measured between cell centers, anchored at the cell
    containing ``x``; that is the distance scale at which grid-sampled
    Lipschitz functions are compared.
    """
    from .grids import ball_patch

    cells, _ = ball_patch(grid, x, radius)
    anchor = grid.centers[grid.cell_index(x)]
    diam = float(np.linalg.norm(grid.centers[cells] - anchor, axis=1).max())
    return Density.uniform_on_cells(grid, cells), diam


def dynamic_regret(trace: RegretTrace, T: int | None = None) -> float:
    """Cumulative value against the per-round best fixed cell center."""
    T = _check_horizon(trace, T)
    return float(loss_oriented(trace, trace.expected[:T] - trace.round_best[:T]).sum())


@dataclass
class WindowDecomposition:
    """Per-window static regrets and the dynamic-regret bound they imply."""

    window_regrets: np.ndarray
    window_length: int
    dynamic: float
    variation: float
    bound: float
    holds: bool


def window_decomposition(trace: RegretTrace, delta: int,
                         slack: float = 1e-4) -> WindowDecomposition:
    """Split [1, T] into windows of length ``delta`` and check
    DynReg(T) <= sum of per-window static regrets + 2 * delta * V_T + slack.

    The inequality holds deterministically on any trace; ``holds`` reports
    whether it held within ``slack``.  Each window's cumulative values come
    from one ``window_sum`` call on the stream (a closed form for trig
    streams), and V_T is computed once per trace.
    """
    T = trace.horizon
    if not (1 <= delta <= T):
        raise ValueError("window length must lie in [1, T]")
    regrets = np.asarray([
        _window_regret(trace, trace.stream.window_sum(start, min(start + delta - 1, T)),
                       trace.expected[start - 1:start + delta - 1])
        for start in range(1, T + 1, delta)
    ])
    dyn = dynamic_regret(trace)
    var = trace.variation()
    bound = float(regrets.sum()) + 2.0 * delta * var
    return WindowDecomposition(
        window_regrets=regrets,
        window_length=delta,
        dynamic=dyn,
        variation=var,
        bound=bound,
        holds=dyn <= bound + slack,
    )


@dataclass
class SlopeFit:
    """Least-squares slope of log(value) against log(horizon)."""

    slope: float
    intercept: float
    residual: float
    half_width: float
    horizons: np.ndarray
    values: np.ndarray


def fit_slope(horizons, values) -> SlopeFit:
    """Fit log-log growth rate over geometric checkpoints.

    Non-positive values are excluded; at least 4 checkpoints spanning at
    least 1.5 decades must remain.
    """
    horizons = np.asarray(horizons, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = values > 0
    horizons, values = horizons[keep], values[keep]
    if horizons.size < 4:
        raise NumericalError("slope fit needs >= 4 positive checkpoints")
    span = math.log10(horizons.max() / horizons.min())
    if span < 1.5:
        raise NumericalError(f"checkpoints span only {span:.2f} decades (need >= 1.5)")
    x = np.log(horizons)
    y = np.log(values)
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = y - A @ coef
    rss = float(resid @ resid)
    n = x.size
    sxx = float(((x - x.mean()) ** 2).sum())
    se = math.sqrt(rss / max(n - 2, 1) / sxx) if sxx > 0 else float("inf")
    return SlopeFit(
        slope=slope,
        intercept=intercept,
        residual=math.sqrt(rss / n),
        half_width=2.0 * se,
        horizons=horizons,
        values=values,
    )
