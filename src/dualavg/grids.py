"""Box domains, uniform tensor grids, grid functions, and piecewise-constant densities.

Strategies, losses, scores, and noise all live on the same uniform grid over a
box domain; integration is the midpoint rule, and sampling from a density is
categorical over cells followed by a uniform draw inside the chosen cell.
Domains and grids are immutable: their geometry is computed once, at
construction.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridMismatchError, ResolutionError

__all__ = [
    "BoxDomain",
    "Grid",
    "GridFunction",
    "Density",
    "ensure_same_grid",
    "integrate",
    "dot",
    "pair",
    "sup_norm",
    "l1_distance",
    "sample",
    "sampling_cdf",
    "draw_cell",
    "ball_patch",
]


@dataclass(frozen=True, eq=False)
class BoxDomain:
    """Axis-aligned box X = prod_k [lower_k, upper_k] in R^d.

    The geometry (``dim``, ``lengths``, ``volume``, ``diameter``) is fixed at
    construction and stored; assigning to any attribute raises.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, lower, upper):
        lo = np.atleast_1d(np.asarray(lower, dtype=float))
        hi = np.atleast_1d(np.asarray(upper, dtype=float))
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise DomainError("lower and upper must be 1-d arrays of equal length")
        if lo.size < 1:
            raise DomainError("domain dimension must be >= 1")
        if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise DomainError("domain bounds must be finite")
        if not np.all(hi > lo):
            raise DomainError("every axis must have strictly positive length")
        lengths = hi - lo
        for arr in (lo, hi, lengths):
            arr.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "dim", lo.size)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "volume", float(np.prod(lengths)))
        object.__setattr__(self, "diameter", float(np.linalg.norm(lengths)))


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform tensor grid with ``n`` cells per axis over a box domain.

    Cell centers are strictly interior; the cell volume ``w`` satisfies
    (number of cells) * w == volume(X) up to floating tolerance.  The
    geometry (``dim``, ``shape``, ``n_cells``, ``steps``, ``cell_volume``,
    ``cell_diameter``) and the per-axis cell centers are fixed at
    construction and stored; assigning to any attribute raises.
    """

    domain: BoxDomain
    n: int
    _centers: np.ndarray = field(default=None, repr=False, compare=False)

    def __init__(self, domain: BoxDomain, n: int):
        if not isinstance(n, numbers.Integral) or n < 1:
            raise DomainError(f"cells per axis must be an integer >= 1, got {n!r}")
        n = int(n)
        steps = domain.lengths / n
        axes = tuple(lo + (np.arange(n) + 0.5) * h for lo, h in zip(domain.lower, steps))
        for arr in (steps, *axes):
            arr.setflags(write=False)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_centers", None)
        object.__setattr__(self, "dim", domain.dim)
        object.__setattr__(self, "shape", (n,) * domain.dim)
        object.__setattr__(self, "n_cells", n ** domain.dim)
        object.__setattr__(self, "_steps", steps)
        object.__setattr__(self, "_cell_volume", float(np.prod(steps)))
        object.__setattr__(self, "_cell_diameter", float(np.linalg.norm(steps)))
        object.__setattr__(self, "_axis_centers", axes)
        # Per axis (lower, upper, step) as Python floats for the scalar cell lookup.
        object.__setattr__(self, "_axes", tuple(
            zip(domain.lower.tolist(), domain.upper.tolist(), steps.tolist())))

    @property
    def steps(self) -> np.ndarray:
        return self._steps

    @property
    def cell_volume(self) -> float:
        return self._cell_volume

    @property
    def cell_diameter(self) -> float:
        return self._cell_diameter

    def axis_centers(self, k: int) -> np.ndarray:
        """The n read-only cell-center coordinates along axis k, in increasing order.

        Runs read cell coordinates here (or through ``cell_centers``), never in ``centers``.
        """
        return self._axis_centers[k]

    def cell_centers(self, cells) -> np.ndarray:
        """Centers of the flat ``cells``, of shape ``cells.shape + (d,)``: ``centers[cells]``."""
        out = np.empty(np.shape(cells) + (self.dim,))
        for k, i in enumerate(np.unravel_index(cells, self.shape)):
            out[..., k] = self._axis_centers[k][i]
        return out

    @property
    def centers(self) -> np.ndarray:
        """Cell centers as an (n_cells, d) array, C-ordered over axes.

        Built on first use, for tests and outside callers; no run builds it.
        """
        if self._centers is None:
            mesh = np.meshgrid(*self._axis_centers, indexing="ij")
            centers = np.stack([m.ravel() for m in mesh], axis=-1)
            centers.setflags(write=False)
            object.__setattr__(self, "_centers", centers)
        return self._centers

    def cell_index(self, x) -> int:
        """Flat index of the cell containing ``x``.

        Points on a shared interior cell boundary resolve to the lower-index
        cell; the upper domain boundary maps to the last cell.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dim,):
            raise DomainError(f"point {x} outside domain")
        last = self.n - 1
        flat = 0
        for xk, (lo, hi, h) in zip(x.tolist(), self._axes):
            if not lo <= xk <= hi:
                raise DomainError(f"point {x} outside domain")
            tk = (xk - lo) / h
            i = math.floor(tk)
            if tk == i and i > 0:
                i -= 1
            flat = flat * self.n + min(max(i, 0), last)
        return flat


def ensure_same_grid(a: Grid, b: Grid) -> None:
    if a is b:
        return
    if (
        a.n != b.n
        or a.dim != b.dim
        or not np.array_equal(a.domain.lower, b.domain.lower)
        or not np.array_equal(a.domain.upper, b.domain.upper)
    ):
        raise GridMismatchError("grid functions live on different grids")


class GridFunction:
    """A real value per grid cell; stand-in for a bounded function on X.

    ``values`` has shape (n_cells,), or (R, n_cells) for a block of R
    functions, one per row, as ``regularizers.mirror`` and ``sample`` take them.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values, copy: bool = True):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_cells,) and not (
                values.ndim == 2 and values.shape[1] == grid.n_cells):
            raise ValueError(f"grid function values must have shape ({grid.n_cells},) or "
                             f"(R, {grid.n_cells}), got {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("grid function values must be finite")
        self.grid = grid
        self.values = values.copy() if copy else values

    @classmethod
    def unchecked(cls, grid: Grid, values: np.ndarray):
        """``values`` (float, one row or a block) as an instance, neither copied nor checked.

        For values whose invariants the caller has just established, such as
        a mirror map's normalised output, or that the next step checks anyway,
        such as scores passed to the mirror map, which rejects a row it
        cannot normalise.
        """
        f = cls.__new__(cls)
        f.grid = grid
        f.values = values
        return f

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "GridFunction":
        return cls(grid, np.full(grid.n_cells, float(c)), copy=False)

    def _check_same_grid(self, other: "GridFunction") -> None:
        ensure_same_grid(self.grid, other.grid)

    def __add__(self, other):
        if isinstance(other, GridFunction):
            self._check_same_grid(other)
            return GridFunction(self.grid, self.values + other.values, copy=False)
        return GridFunction(self.grid, self.values + float(other), copy=False)

    def __sub__(self, other):
        if isinstance(other, GridFunction):
            self._check_same_grid(other)
            return GridFunction(self.grid, self.values - other.values, copy=False)
        return GridFunction(self.grid, self.values - float(other), copy=False)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._check_same_grid(other)
            return GridFunction(self.grid, self.values * other.values, copy=False)
        return GridFunction(self.grid, self.values * float(other), copy=False)

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.grid, -self.values, copy=False)


class Density(GridFunction):
    """Nonnegative grid function integrating to one: a piecewise-constant strategy.

    A block (values of shape (R, n_cells)) is R densities, one per row.
    """

    INTEGRAL_TOL = 1e-9

    def __init__(self, grid: Grid, values, copy: bool = True):
        super().__init__(grid, values, copy=copy)
        if self.values.min() < 0:
            raise ValueError("density values must be nonnegative")
        totals = self.values.sum(axis=-1) * grid.cell_volume
        for total in np.atleast_1d(totals).tolist():
            if abs(total - 1.0) > self.INTEGRAL_TOL:
                raise ValueError(f"density integrates to {total!r}, not 1")

    @classmethod
    def uniform(cls, grid: Grid) -> "Density":
        return cls(grid, np.full(grid.n_cells, 1.0 / grid.domain.volume), copy=False)

    @classmethod
    def uniform_on_cells(cls, grid: Grid, cells) -> "Density":
        """Uniform density supported on the given flat cell indices."""
        cells = np.asarray(cells, dtype=int)
        if cells.size == 0:
            raise ValueError("support must be nonempty")
        vals = np.zeros(grid.n_cells)
        vals[cells] = 1.0 / (cells.size * grid.cell_volume)
        return cls(grid, vals, copy=False)


def integrate(f: GridFunction) -> float:
    """Midpoint-rule integral of ``f`` over X."""
    return float(f.values.sum() * f.grid.cell_volume)


# Cells per block of ``dot``: below the 10 000 elements above which OpenBLAS
# splits a dot product across threads.
_DOT_BLOCK = 4096


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a @ b`` over cell arrays, summed left to right over blocks of 4096 cells.

    Every block runs single-threaded in BLAS, so the result does not depend on
    the BLAS thread count and no BLAS helper thread is woken; for at most 4096
    cells it is exactly ``a @ b``.
    """
    n = a.shape[0]
    if n <= _DOT_BLOCK:
        return float(a @ b)
    total = 0.0
    for i in range(0, n, _DOT_BLOCK):
        total += float(a[i:i + _DOT_BLOCK] @ b[i:i + _DOT_BLOCK])
    return total


def pair(f: GridFunction, p: GridFunction) -> float:
    """Duality pairing <f, p> = integral of f*p; the expected value of f under a density p."""
    f._check_same_grid(p)
    return dot(f.values, p.values) * f.grid.cell_volume


def sup_norm(f: GridFunction) -> float:
    return float(np.abs(f.values).max())


def l1_distance(p: GridFunction, q: GridFunction) -> float:
    p._check_same_grid(q)
    return float(np.abs(p.values - q.values).sum() * p.grid.cell_volume)


def sample(p: Density, rng: np.random.Generator | Sequence[np.random.Generator],
           size: int | None = None, rounds: int = 1, variates: np.ndarray | None = None):
    """Draw point(s) from a density: categorical over cells, then uniform in the cell.

    With one Generator, ``p`` is one density and the result is one point of
    shape (d,) for ``size=None``, or (size, d): all cell variates are drawn
    first, then all offsets.  With a sequence of S generators, the result is
    (cells, points) of shapes (S, rounds) and (S, rounds, d): the rows of
    ``p`` are groups of ``rounds`` successive rounds, one group that every
    generator plays or one group per generator.  Each generator draws its
    variates with one ``random((rounds, 1 + d))``, a cell variate and then a
    point's offsets per round, in the order a round-by-round draw would, so a
    caller reads the drawn cell instead of looking the point up (or passes
    the (S, rounds, 1 + d) ``variates``, drawn between its own).  The CDFs
    are built with one cumulative sum per call, and every cell is picked by
    ``draw_cell``.  A point is ``grid.cell_centers(cells) + offsets``, bit for
    bit ``grid.centers[cells] + offsets``.  A block of rows that are neither
    one group nor one per generator is rejected before any generator draws.
    """
    grid = p.grid
    cdf = sampling_cdf(p)
    if isinstance(rng, np.random.Generator):
        if cdf.ndim != 1 or rounds != 1:
            raise ValueError("a block of densities needs a sequence of generators")
        m = 1 if size is None else int(size)
        cells = draw_cell(cdf, rng.random(m))
        points = grid.cell_centers(cells) + (rng.random((m, grid.dim)) - 0.5) * grid.steps
        return points[0] if size is None else points
    if size is not None:
        raise ValueError("size applies to a single generator")
    # Generator i plays rows [i * rounds, (i + 1) * rounds), or every generator rows [0, rounds).
    rows = cdf.reshape(-1, grid.n_cells)
    if len(rows) not in (rounds, rounds * len(rng)):
        raise ValueError(f"{len(rows)} density rows are neither one group nor one per generator")
    if len(rows) == rounds:  # one group that every generator plays
        rows = list(rows) * len(rng)
    if variates is None:
        variates = np.array([g.random((rounds, 1 + grid.dim)) for g in rng])
    cells = np.array([draw_cell(row, u) for row, u in zip(
        rows, variates[:, :, 0].ravel().tolist())]).reshape(len(rng), rounds)
    return cells, grid.cell_centers(cells) + (variates[:, :, 1:] - 0.5) * grid.steps


def sampling_cdf(p: Density) -> np.ndarray:
    """Unnormalised cumulative sums of the cell values of ``p``, per row of a block.

    ``draw_cell`` scales its variate by a row's last entry, so neither the
    cell volume nor the total is divided out here.
    """
    return np.cumsum(p.values, axis=-1)


def draw_cell(cdf: np.ndarray, u: float | np.ndarray) -> int | np.ndarray:
    """The cell(s) that uniform variate(s) ``u`` in [0, 1) pick under one ``sampling_cdf`` row.

    A cell is the first whose cumulative sum reaches ``u`` times the row's
    total, clipped to the last cell.  This is the one categorical draw of
    the package: every sampler and learner picks its cells or arms here.
    """
    last = cdf.shape[-1] - 1
    if isinstance(u, float):
        return min(int(cdf.searchsorted(u * cdf[-1])), last)
    return np.minimum(cdf.searchsorted(u * cdf[-1]), last)


def ball_patch(grid: Grid, x, delta: float) -> tuple[np.ndarray, float]:
    """Cells whose centers lie within Euclidean distance ``delta`` of ``x``.

    Returns (flat cell indices, measured volume = count * cell volume).  The
    patch is automatically clipped at the boundary of X since the grid covers
    only X.  Ties at exactly ``delta`` are included, and an infinite radius
    takes every cell.  Squared distances are the per-axis squares added in
    axis order by ``np.add.outer``, with no (n_cells, d) array.  A NaN or
    nonpositive radius, or a non-finite center, raises ``DomainError``.
    """
    if not delta > 0:
        raise DomainError("ball radius must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (grid.dim,):
        raise DomainError(f"ball center {x} is not a point of the {grid.dim}-d domain")
    dist2 = functools.reduce(np.add.outer, [
        np.square(axis - xk) for axis, xk in zip(grid._axis_centers, x)])
    indices = np.flatnonzero(dist2 <= delta * delta)
    if indices.size == 0:
        if not np.isfinite(x).all():
            raise DomainError(f"ball center {x} is not finite")
        raise ResolutionError(
            f"ball of radius {delta} around {x} contains no cell centers "
            f"(cell diameter {grid.cell_diameter:.3g})"
        )
    return indices, indices.size * grid.cell_volume
