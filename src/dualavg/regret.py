"""Post-hoc regret accounting on recorded traces.

A trace stores the values regret reads: per-seed expected and realized
values, and the per-round best fixed value, shared by the seeds of a block.
Cumulative stream values over any horizon come from the stream's window
sums (closed forms on trig streams), so nothing else is stored.  All
regrets are reported in the loss orientation (nonnegative when the learner
is doing worse than the benchmark), for loss streams and payoff streams
alike; ``loss_oriented`` and ``best_value`` are that one sign rule.
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


# Most multiplications by the ratio that ``default_checkpoints`` takes to
# pass T.  At most T checkpoints are distinct, but a ratio barely above 1
# repeats each one for ages: 1 + 2**-52 takes about 1.35e16 steps from 10
# to 200.
_MAX_CHECKPOINT_STEPS = 10**6


def checkpoint_steps(T: int, start: int, ratio: float) -> float:
    """log(T / start) / log(ratio), the steps the checkpoint rule takes to pass T,
    or ValueError if it never passes T or takes over ``_MAX_CHECKPOINT_STEPS``."""
    if T < 1:
        raise ValueError("horizon must be >= 1")
    if not (start >= 1 and ratio > 1):
        # Otherwise the sequence never passes T.
        raise ValueError("checkpoints need start >= 1 and ratio > 1")
    steps = math.log(T / start) / math.log(ratio)
    if steps > _MAX_CHECKPOINT_STEPS:
        raise ValueError(f"ratio {ratio!r} is too close to 1: the checkpoints from {start} "
                         f"would take about {steps:.3g} steps to pass {T}, more than "
                         f"{_MAX_CHECKPOINT_STEPS}")
    return steps


def default_checkpoints(T: int, start: int = 100, ratio: float = 1.3) -> np.ndarray:
    """Geometric checkpoint rounds from ``start`` with the given ratio, plus T."""
    checkpoint_steps(T, start, ratio)
    points = []
    c = float(start)
    while c <= T:
        points.append(int(round(c)))
        c *= ratio
    points.append(T)
    # Not np.unique: it imports numpy.ma, about 17 ms in every fresh worker.
    return np.asarray(sorted(set(points)), dtype=int)


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

    ``expected`` and ``realized`` are read-only rows of the recorder's
    seed-major block arrays; ``round_best`` is shared by the block,
    read-only.  The grid is the stream's, and nothing else is stored.
    """

    stream: LossStream
    horizon: int
    expected: np.ndarray
    realized: np.ndarray
    round_best: np.ndarray
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

    One recorder serves a block of ``seeds`` runs against one stream; every
    ``run_*`` driver builds one, so this is where an empty block of
    generators is rejected.  The per-round best value depends on the stream
    alone, so it is recorded once and the block's traces share it,
    read-only.  Expected and realized values are kept seed-major, and each
    trace gets read-only views of its seed's rows.
    """

    def __init__(self, stream: LossStream, horizon: int, seeds: int = 1):
        if seeds < 1:
            raise ValueError("at least one generator required")
        self.stream = stream
        self.horizon = horizon
        self.expected = np.zeros((seeds, horizon))
        self.realized = np.zeros((seeds, horizon))
        self.round_best = np.zeros(horizon)

    def record(self, t: int, f_values: np.ndarray, expected, realized) -> None:
        """Round t of every seed of the block.

        ``expected`` and ``realized`` hold one entry per seed, or one entry
        that every seed shares.
        """
        i = t - 1
        self.expected[:, i] = expected
        self.realized[:, i] = realized
        self.round_best[i] = best_value(self.stream, f_values)

    def finish_block(self) -> list[RegretTrace]:
        """One trace per seed, in block order, over the block's read-only arrays."""
        for shared in (self.round_best, self.expected, self.realized):
            shared.setflags(write=False)
        return [
            RegretTrace(
                stream=self.stream,
                horizon=self.horizon,
                expected=expected,
                realized=realized,
                round_best=self.round_best,
            )
            for expected, realized in zip(self.expected, self.realized)
        ]


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
    theirs = dot(trace.cumulative_grid(T), mu.values) * trace.stream.grid.cell_volume
    return loss_oriented(trace, float(trace.expected[:T].sum()) - theirs)


def regret_vs_point(trace: RegretTrace, x, T: int | None = None) -> float:
    """Regret against the pure strategy at ``x`` (graded at x's cell center)."""
    T = _check_horizon(trace, T)
    theirs = float(trace.cumulative_grid(T)[trace.stream.grid.cell_index(x)])
    return loss_oriented(trace, float(trace.expected[:T].sum()) - theirs)


def neighborhood_comparator(grid: Grid, x, radius: float) -> tuple[Density, float]:
    """Uniform density on the ball patch around ``x``, and its effective diameter.

    The diameter is measured between cell centers, anchored at the cell
    containing ``x``; that is the distance scale at which grid-sampled
    Lipschitz functions are compared.
    """
    from .grids import ball_patch

    cells, _ = ball_patch(grid, x, radius)
    anchor = grid.cell_centers(grid.cell_index(x))
    diam = float(np.linalg.norm(grid.cell_centers(cells) - anchor, axis=1).max())
    return Density.uniform_on_cells(grid, cells), diam


def dynamic_regret(trace: RegretTrace, T: int | None = None) -> float:
    """Cumulative value against the per-round best fixed cell center."""
    T = _check_horizon(trace, T)
    return float(loss_oriented(trace, trace.expected[:T] - trace.round_best[:T]).sum())


_WINDOW_SLACK = 1e-4  # rounding allowance of the window-decomposition check


@dataclass
class WindowDecomposition:
    """Per-window static regrets and the dynamic-regret bound they imply."""

    window_regrets: np.ndarray
    window_length: int
    dynamic: float
    variation: float
    bound: float
    holds: bool


def window_decomposition(trace: RegretTrace, delta: int) -> WindowDecomposition:
    """Split [1, T] into windows of length ``delta`` and check
    DynReg(T) <= sum of per-window static regrets + 2 * delta * V_T.

    The inequality holds deterministically on any trace; ``holds`` reports
    whether it held within ``_WINDOW_SLACK``.  Each window's cumulative values
    come from one ``window_sum`` call on the stream (a closed form for trig
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
        holds=dyn <= bound + _WINDOW_SLACK,
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
