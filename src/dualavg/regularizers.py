"""Decomposable regularizers over densities: values, mirror maps, conjugates, couplings.

Each regularizer is h(p) = integral of theta(p(x)) dx for a strictly convex
scalar kernel theta.  The mirror map Q(y) maximizes <y,p> - h(p) over
densities; for the entropic family it is the logit/Gibbs map in closed form,
for the others it is the root of a one-dimensional normalization equation,
found by safeguarded Newton (bisection only as a fallback inside the bracket).
The multiplier lam is measured from max y; for Burg and Tsallis that is the
gap d = lam - max y to the pole, so the pole cell's value does not come from a
cancelling difference, and Newton runs in s = log d on the log of the
integral, which is linear in s for constant scores (solved in two
evaluations).  The quadratic runs Newton on lam - max y itself (Michelot's
algorithm).  A solve that misses its tolerance raises NumericalError naming
the family.

Convention: theta(0) = 0 for the entropic, quadratic, and Tsallis kernels, so
h is finite on densities with zero cells and min h = hvol(volume(X)) is
attained at the uniform density.  Burg has theta(0) = +inf; h returns inf on
any zero cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .grids import Density, GridFunction, dot, integrate, l1_distance, pair

__all__ = [
    "Regularizer",
    "negentropy",
    "quadratic",
    "burg",
    "tsallis",
    "hval",
    "hvol",
    "mirror",
    "conjugate",
    "fenchel_coupling",
    "energy",
    "ambient_distance",
]

_FAMILIES = ("negentropy", "quadratic", "burg", "tsallis")


@dataclass(frozen=True)
class Regularizer:
    """One of the four decomposable regularizer families.

    ``modulus`` is the strong-convexity constant K with respect to the
    declared ambient norm (total variation for the entropic family via
    Pinsker, L2 for the quadratic); it is None for Burg and Tsallis, whose
    moduli over density space are not pinned down.
    """

    family: str
    gamma: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown regularizer family {self.family!r}")
        if self.family == "tsallis":
            if self.gamma is None or not (0.0 < self.gamma < 1.0):
                raise ValueError("tsallis exponent must lie in (0, 1)")
        elif self.gamma is not None:
            raise ValueError("gamma only applies to the tsallis family")

    @property
    def modulus(self) -> float | None:
        if self.family == "negentropy":
            return 1.0
        if self.family == "quadratic":
            return 1.0
        return None

    @property
    def norm(self) -> str:
        return "l2" if self.family == "quadratic" else "tv"

    def kappa(self, volume: float) -> float:
        """Norm-comparison coefficient: ||.||_TV <= kappa * ||.||_ambient."""
        return math.sqrt(volume) if self.norm == "l2" else 1.0


def negentropy() -> Regularizer:
    return Regularizer("negentropy")


def quadratic() -> Regularizer:
    return Regularizer("quadratic")


def burg() -> Regularizer:
    return Regularizer("burg")


def tsallis(gamma: float) -> Regularizer:
    return Regularizer("tsallis", gamma=float(gamma))


def _theta(reg: Regularizer, v: np.ndarray) -> np.ndarray:
    """Pointwise kernel on nonnegative values; inf where undefined (Burg at 0)."""
    if reg.family == "negentropy":
        out = np.zeros_like(v)
        pos = v > 0
        out[pos] = v[pos] * np.log(v[pos])
        return out
    if reg.family == "quadratic":
        return 0.5 * v * v
    if reg.family == "burg":
        out = np.full_like(v, np.inf)
        pos = v > 0
        out[pos] = -np.log(v[pos])
        return out
    g = reg.gamma
    return (v - np.power(v, g)) / (g * (1.0 - g))


def hval(reg: Regularizer, p: Density) -> float:
    """h(p) = integral of theta(p); +inf is a legal return (Burg with zero cells)."""
    vals = _theta(reg, p.values)
    if np.any(np.isinf(vals)):
        return math.inf
    return float(vals.sum() * p.grid.cell_volume)


def hvol(reg: Regularizer, z: float) -> float:
    """h of the uniform density on a volume-z set: z * theta(1/z)."""
    if z <= 0:
        raise DomainError("hvol requires a positive volume")
    if reg.family == "negentropy":
        return -math.log(z)
    if reg.family == "quadratic":
        return 1.0 / (2.0 * z)
    if reg.family == "burg":
        return z * math.log(z)
    g = reg.gamma
    return (1.0 - z ** (1.0 - g)) / (g * (1.0 - g))


def _bisect_multiplier(phi, lo: float, hi: float, tol: float = 1e-12,
                       max_iter: int = 200, *, dphi) -> float:
    """Root of the decreasing map ``phi`` (integral - 1, or its log) on [lo, hi].

    Safeguarded Newton: ``dphi(x)`` is the slope of ``phi`` at the point just
    evaluated.  Newton starts at the left end, where ``phi(lo) >= 0``, and
    each evaluation shrinks the bracket to the side of the root it lies on.
    ``phi`` need not be convex (Burg and Tsallis solve in log d), so a step
    may overshoot; a step that leaves the current bracket (or a nonnegative
    slope) falls back to bisection, and that fallback, not convexity, keeps
    every iterate inside the shrinking bracket.  The returned point is always
    the last one evaluated, and has ``|phi| <= tol``; a solve that cannot
    reach ``tol`` raises NumericalError.
    """
    x, fx = lo, phi(lo)
    if fx < -tol:
        raise NumericalError(f"normalization root not bracketed: phi({lo}) = {fx} < 0")
    for _ in range(max_iter):
        if abs(fx) <= tol:
            return x
        if fx > 0:
            lo = x
        else:
            hi = x
        slope = dphi(x)
        step = x - fx / slope if slope < 0 else math.nan
        x = step if lo < step < hi else 0.5 * (lo + hi)
        if not lo < x < hi:
            break  # no float left inside the bracket
        fx = phi(x)
    raise NumericalError(
        f"normalization solve stopped at |phi| = {abs(fx):.3g} > tol = {tol:.3g} "
        f"(bracket [{lo!r}, {hi!r}])"
    )


def _solve(evaluate, lo: float, hi: float) -> float:
    """The root of ``evaluate(x) -> (phi, slope)``, the point it evaluated last.

    One pass over the grid gives phi and its slope, and writes the cell values
    at x into the solve's buffer, which at the root (always the last point
    evaluated) holds the result; the slope answers the next ``dphi`` call.
    """
    slope = [None]

    def phi(x):
        value, slope[0] = evaluate(x)
        return value

    return _bisect_multiplier(phi, lo, hi, dphi=lambda x: slope[0])


def mirror(reg: Regularizer, y: GridFunction) -> Density:
    """Mirror map Q(y) = argmax over densities of <y,p> - h(p).

    ``y`` may be a block of R score rows; Q then maps each row, and the
    result is the block of the R densities.  The entropic family is the
    logit, as row operations: shift each row by its max and exponentiate;
    this is the package's one logit over grid cells.  The other families
    solve each row's multiplier by Newton, into its row of the result.  A last
    pass divides every row by its sum times the cell volume; a row whose
    integral is not finite and positive raises NumericalError.  Every row gets
    the arithmetic it gets alone, bit for bit, and ``y`` is left as it was.
    """
    grid = y.grid
    w = grid.cell_volume
    yv = y.values
    if reg.family == "negentropy":
        p = yv - yv.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
    else:
        vol = grid.domain.volume
        p = np.empty(yv.shape)
        try:
            for row, out in zip(yv.reshape(-1, grid.n_cells), p.reshape(-1, grid.n_cells)):
                _mirror_by_multiplier(reg, float(row.max()) - row, w, vol, out)
        except NumericalError as exc:
            raise NumericalError(f"{reg.family} mirror map: {exc}") from exc

    total = p.sum(axis=-1, keepdims=True) * w
    for value in total.ravel().tolist():
        if not 0.0 < value < math.inf:
            raise NumericalError(f"mirror map produced non-normalizable values (total={value})")
    p /= total
    # Nonnegative by construction, and every row integrates to one.
    return Density.unchecked(grid, p)


def _mirror_by_multiplier(reg: Regularizer, gap: np.ndarray, w: float, vol: float,
                          p: np.ndarray) -> None:
    """Unnormalized Q(y), written into ``p``, for the families whose multiplier solves phi = 0.

    Every family solves for its multiplier relative to max y, so p depends on
    y only through ``gap = max y - y``: exactly shift-invariant, and as
    precise at |y| = 1e8 as at 1.  For Burg and Tsallis, d = lam - max y > 0
    is the gap to the pole, so the pole cell's p is a function of d alone.
    Evaluations write into ``p`` (Tsallis also into one buffer made per
    solve) and may overwrite ``gap``, the caller's scratch.
    """
    if reg.family == "quadratic":
        # Water-filling KKT solution p = (y - lam)_+ = (-nu - gap)_+ with
        # nu = lam - max y; Newton on this piecewise linear phi is Michelot's
        # algorithm and stops at the exact active set.
        def evaluate(nu):
            np.subtract(-nu, gap, out=p)
            np.maximum(p, 0.0, out=p)
            return float(p.sum()) * w - 1.0, -w * np.count_nonzero(p)

        _solve(evaluate, -float(gap.max()) - 1.0 / vol, 0.0)
    elif reg.family == "burg":
        # p = 1 / (d + gap); the pole cell alone integrates to 1 at d = w, and
        # every cell is at most 1 / vol at d = vol.
        def evaluate(d):
            np.add(gap, d, out=p)
            np.reciprocal(p, out=p)
            return w * float(p.sum()) - 1.0, -w * dot(p, p)

        _solve_in_log(evaluate, w, vol)
    else:
        # Tsallis: p = ((1 - g) (d + gap))^(1 / (g - 1)); one power per step.
        g = reg.gamma
        c = 1.0 - g
        expo = 1.0 / (g - 1.0)
        cgap = np.multiply(gap, c, out=gap)
        u = np.empty_like(gap)

        def evaluate(d):
            np.add(cgap, c * d, out=u)
            np.power(u, expo, out=p)
            np.divide(p, u, out=u)  # p / u = u^(expo - 1), the slope's integrand
            return w * float(p.sum()) - 1.0, w * expo * c * float(u.sum())

        _solve_in_log(evaluate, w ** c / c, vol ** c / c)


def _solve_in_log(evaluate, lo: float, hi: float) -> float:
    """``_solve`` for a multiplier d > 0, with Newton in s = log d.

    The integral I(d) = phi(d) + 1 of Burg and Tsallis is a power of d when
    the scores are constant (I = vol / d for Burg), and log I is close to
    linear in s when they vary little, so Newton runs on log I(e^s) =
    log1p(phi), whose slope is d * phi'(d) / I: exact in one step for a pure
    power law, where Newton on phi itself grows d by only 1.5x per step from
    the left end.  The root is
    ``hi`` itself when the scores are constant, so the bracket ends at 2 hi
    (where phi < 0 too): a first Newton step that lands on ``hi`` up to
    rounding is then inside the bracket and not sent to bisection.
    """
    def evaluate_log(s):
        d = math.exp(s)
        value, slope = evaluate(d)
        return math.log1p(value), d * slope / (value + 1.0)

    return _solve(evaluate_log, math.log(lo), math.log(2.0 * hi))


def conjugate(reg: Regularizer, y: GridFunction) -> float:
    """Convex conjugate h*(y) over densities.

    Entropic family in closed form (stabilized log-integral-exp); the other
    families via the Fenchel-Young equality at the mirror point.
    """
    if reg.family == "negentropy":
        yv = y.values
        m = float(yv.max())
        return m + math.log(np.exp(yv - m).sum() * y.grid.cell_volume)
    q = mirror(reg, y)
    return pair(y, q) - hval(reg, q)


def fenchel_coupling(reg: Regularizer, p: Density, y: GridFunction) -> float:
    """F(p, y) = h(p) + h*(y) - <y, p>; nonnegative, zero iff p = Q(y)."""
    hp = hval(reg, p)
    if math.isinf(hp):
        raise DomainError("Fenchel coupling requires h(p) < inf")
    return hp + conjugate(reg, y) - pair(y, p)


def energy(reg: Regularizer, mu: Density, y: GridFunction, eta: float) -> float:
    """Energy eta^(-1) * F(mu, eta*y) against the comparator mu."""
    if eta <= 0:
        raise DomainError("learning rate must be positive")
    return fenchel_coupling(reg, mu, eta * y) / eta


def ambient_distance(reg: Regularizer, p: GridFunction, q: GridFunction) -> float:
    """Distance in the regularizer's declared ambient norm (TV or L2)."""
    if reg.norm == "l2":
        diff = p - q
        return math.sqrt(integrate(diff * diff))
    return l1_distance(p, q)
