"""Decomposable regularizers over densities: values, mirror maps, conjugates, couplings.

Each regularizer is h(p) = integral of theta(p(x)) dx for a strictly convex
scalar kernel theta.  The mirror map Q(y) maximizes <y,p> - h(p) over
densities; for the entropic family it is the logit/Gibbs map in closed form,
for the others it is a one-dimensional bisection on the normalization
multiplier (monotone, bracketed, robust near the Burg pole).

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
from .grids import Density, GridFunction, integrate, l1_distance, pair

__all__ = [
    "Regularizer",
    "negentropy",
    "quadratic",
    "burg",
    "tsallis",
    "hval",
    "hvol",
    "min_hval",
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


def min_hval(reg: Regularizer, volume: float) -> float:
    """Minimum of h over densities, attained at the uniform strategy."""
    return hvol(reg, volume)


def _bisect_multiplier(phi, lo: float, hi: float, tol: float = 1e-12,
                       max_iter: int = 200) -> float:
    """Find the root of the decreasing map ``phi`` (= integral - 1) on [lo, hi].

    Brackets are exact by construction at the call sites; if floating error
    spoils them, the bracket is expanded by doubling before failing.
    """
    flo, fhi = phi(lo), phi(hi)
    width = max(hi - lo, 1e-30)
    for _ in range(60):
        if flo >= -tol:
            break
        lo -= width
        width *= 2.0
        flo = phi(lo)
    for _ in range(60):
        if fhi <= tol:
            break
        hi += width
        width *= 2.0
        fhi = phi(hi)
    if flo < -tol or fhi > tol:
        raise NumericalError(
            f"normalization bisection not bracketed: phi({lo})={flo}, phi({hi})={fhi}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = phi(mid)
        if abs(fmid) <= tol:
            return mid
        if fmid > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


def mirror(reg: Regularizer, y: GridFunction) -> Density:
    """Mirror map Q(y) = argmax over densities of <y,p> - h(p)."""
    grid = y.grid
    w = grid.cell_volume
    vol = grid.domain.volume
    yv = y.values
    ymax = float(yv.max())

    if reg.family == "negentropy":
        z = np.exp(yv - ymax)
        p = z / (z.sum() * w)
    elif reg.family == "quadratic":
        # Water-filling KKT solution p = (y - lam)_+ with lam normalizing.
        def phi(lam):
            return float(np.maximum(yv - lam, 0.0).sum() * w) - 1.0

        lam = _bisect_multiplier(phi, float(yv.min()) - 1.0 / vol, ymax)
        p = np.maximum(yv - lam, 0.0)
    elif reg.family == "burg":
        # p = (lam - y)^(-1) with lam > max y.
        def phi(lam):
            return float((w / (lam - yv)).sum()) - 1.0

        lam = _bisect_multiplier(phi, ymax + w, ymax + vol)
        p = 1.0 / (lam - yv)
    else:
        g = reg.gamma
        expo = 1.0 / (g - 1.0)

        def phi(mu):
            return float((np.power((1.0 - g) * (mu - yv), expo)).sum() * w) - 1.0

        lo = ymax + w ** (1.0 - g) / (1.0 - g)
        hi = ymax + vol ** (1.0 - g) / (1.0 - g)
        mu = _bisect_multiplier(phi, lo, hi)
        p = np.power((1.0 - g) * (mu - yv), expo)

    total = p.sum() * w
    if not math.isfinite(total) or total <= 0:
        raise NumericalError(f"mirror map produced non-normalizable values (total={total})")
    return Density(grid, p / total, copy=False)


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
