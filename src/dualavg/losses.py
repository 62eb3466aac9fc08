"""Adversary side: time-indexed loss/payoff streams and feedback channels.

Streams are pure in the round index t and declare sup/Lipschitz bounds (V, L).
Channels realize the observation models: exact, unbiased (zero-mean
function-valued noise), biased (decaying systematic offset), and bandit
(scalar realized payoff only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grids import Density, Grid, GridFunction

__all__ = [
    "LossStream",
    "TrigStream",
    "FiniteSumStream",
    "PayoffStream",
    "to_payoff",
    "default_trig_stream",
    "FeedbackChannel",
    "ExactChannel",
    "UnbiasedChannel",
    "BiasedChannel",
    "BanditChannel",
    "Observation",
    "loss_function",
    "variation",
]


class _TrigBasis:
    """Cached sin/cos tables for a fixed set of integer frequency vectors.

    Coordinates are normalized per axis to [0, 1], so sup bounds and phase
    shifts are independent of the box geometry.
    """

    def __init__(self, grid: Grid, freqs: np.ndarray):
        self.grid = grid
        self.freqs = np.asarray(freqs, dtype=float)  # (K, d)
        u = (grid.centers - grid.domain.lower) / grid.domain.lengths
        args = 2.0 * math.pi * (self.freqs @ u.T)  # (K, n_cells)
        self.sin = np.sin(args)
        self.cos = np.cos(args)

    def combine(self, amplitudes: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """sum_k a_k * sin(2*pi*f_k.u + phase_k) on all cells."""
        return (amplitudes * np.cos(phases)) @ self.sin + (
            amplitudes * np.sin(phases)
        ) @ self.cos

    def lipschitz(self, amplitudes: np.ndarray) -> float:
        grad_scale = 2.0 * math.pi * np.linalg.norm(
            self.freqs / self.grid.domain.lengths, axis=1
        )
        return float(np.abs(amplitudes) @ grad_scale)


def _axis_cycled_freqs(n_terms: int, dim: int) -> np.ndarray:
    """Frequency vectors k*e_axis with the axis cycling, k = 1..n_terms."""
    freqs = np.zeros((n_terms, dim))
    for k in range(n_terms):
        freqs[k, k % dim] = k + 1
    return freqs


class LossStream:
    """Base stream interface: a deterministic grid function per round.

    ``values(t)`` returns a read-only array; ``loss_function(t)`` wraps that
    array, without copying, in a GridFunction.  ``payoff_convention`` marks
    streams whose values are payoffs in [0, 1] rather than losses.
    """

    grid: Grid
    V: float
    L: float
    payoff_convention: bool = False
    _cached_key = None
    _cached_values = None

    def values(self, t: int) -> np.ndarray:
        raise NotImplementedError

    def loss_function(self, t: int) -> GridFunction:
        return GridFunction(self.grid, self.values(t), copy=False)

    def _last_round(self, key: int, compute) -> np.ndarray:
        """``compute(key)``, made read-only and kept until a different key is asked for.

        A learner and its channel both read round t, so a one-entry cache
        evaluates each round once.
        """
        if self._cached_key != key:
            vals = compute(key)
            vals.setflags(write=False)
            self._cached_values = vals
            self._cached_key = key
        return self._cached_values


class TrigStream(LossStream):
    """Linear combination of trigonometric terms, optionally drifting.

    Each term is a * sin(2*pi*f.u + phase) in normalized coordinates u; with
    ``drift_rate`` rho > 0 every phase is shifted by rho * t**drift_exponent,
    which makes the variation V_T grow like T**drift_exponent.
    """

    def __init__(self, grid, amplitudes, freqs, phases, offset=0.0,
                 drift_rate=0.0, drift_exponent=0.5):
        self.grid = grid
        self.amplitudes = np.asarray(amplitudes, dtype=float)
        self.phases = np.asarray(phases, dtype=float)
        self.offset = float(offset)
        self.drift_rate = float(drift_rate)
        self.drift_exponent = float(drift_exponent)
        self._basis = _TrigBasis(grid, np.atleast_2d(np.asarray(freqs, dtype=float)))
        if self.amplitudes.shape[0] != self._basis.freqs.shape[0]:
            raise ValueError("one amplitude per frequency vector required")
        self.V = abs(self.offset) + float(np.abs(self.amplitudes).sum())
        self.L = self._basis.lipschitz(self.amplitudes)

    @property
    def kind(self) -> str:
        return "drifting" if self.drift_rate != 0.0 else "trig_mixture"

    def _phase_shift(self, t: int) -> float:
        if self.drift_rate == 0.0:
            return 0.0
        return self.drift_rate * float(t) ** self.drift_exponent

    def values(self, t: int) -> np.ndarray:
        # A static stream is one function, cached under the key 0.
        return self._last_round(t if self.drift_rate != 0.0 else 0, self._combine)

    def _combine(self, t: int) -> np.ndarray:
        phases = self.phases if t == 0 else self.phases + self._phase_shift(t)
        vals = self._basis.combine(self.amplitudes, phases)
        vals += self.offset
        return vals


def default_trig_stream(grid: Grid, seed: int = 0, n_terms: int = 5,
                        drift_rate: float = 0.0, drift_exponent: float = 0.5) -> TrigStream:
    """Documented default: amplitudes 1/k, frequencies k (axis-cycled), seeded phases."""
    rng = np.random.default_rng(seed)
    k = np.arange(1, n_terms + 1)
    return TrigStream(
        grid,
        amplitudes=1.0 / k,
        freqs=_axis_cycled_freqs(n_terms, grid.dim),
        phases=rng.uniform(0.0, 2.0 * math.pi, n_terms),
        drift_rate=drift_rate,
        drift_exponent=drift_exponent,
    )


class FiniteSumStream(LossStream):
    """Uniformly sampled component per round: the online-to-batch adversary.

    The component index at round t is derived from (seed, t), so the stream
    stays a pure function of the round.
    """

    def __init__(self, components: list[GridFunction], lipschitz: float, seed: int = 0):
        if not components:
            raise ValueError("at least one component required")
        self.grid = components[0].grid
        for c in components:
            components[0]._check_same_grid(c)
        # Read-only copies: values(t) hands these out, and models may alias them.
        self.components = [c.values.copy() for c in components]
        for vals in self.components:
            vals.setflags(write=False)
        self.seed = int(seed)
        self.V = max(float(np.abs(c).max()) for c in self.components)
        self.L = float(lipschitz)

    @property
    def kind(self) -> str:
        return "finite_sum"

    def component_index(self, t: int) -> int:
        return int(np.random.default_rng((self.seed, t)).integers(len(self.components)))

    def values(self, t: int) -> np.ndarray:
        return self.components[self.component_index(t)]

    def mean_loss(self) -> GridFunction:
        return GridFunction(self.grid, np.mean(self.components, axis=0))


class PayoffStream(LossStream):
    """Affine payoff view of a loss stream: payoff = (V - loss) / (2V), in [0, 1]."""

    payoff_convention = True

    def __init__(self, base: LossStream):
        if base.V <= 0:
            raise ValueError("base stream must declare a positive sup bound")
        self.base = base
        self.grid = base.grid
        self.V = 1.0
        self.L = base.L / (2.0 * base.V)

    @property
    def kind(self) -> str:
        return self.base.kind

    def values(self, t: int) -> np.ndarray:
        return self._last_round(t, self._from_base)

    def _from_base(self, t: int) -> np.ndarray:
        return (self.base.V - self.base.values(t)) / (2.0 * self.base.V)


def to_payoff(stream: LossStream) -> PayoffStream:
    return PayoffStream(stream)


def loss_function(stream: LossStream, t: int) -> GridFunction:
    """The round-t function of the stream (a loss, or a payoff in [0,1])."""
    if t < 1:
        raise ValueError("rounds are 1-indexed")
    return stream.loss_function(t)


def variation(stream: LossStream, T: int) -> float:
    """V_T = sum_t sup|f_{t+1} - f_t| with the convention f_{T+1} = f_T."""
    if T < 1:
        raise ValueError("horizon must be >= 1")
    total = 0.0
    prev = stream.values(1)
    for t in range(2, T + 1):
        cur = stream.values(t)
        total += float(np.abs(cur - prev).max())
        prev = cur
    return total


@dataclass
class Observation:
    """One round's feedback: a full function model, or a scalar realized payoff.

    ``bias_bound``, ``noise_bound`` and ``magnitude_bound`` are the declared
    per-round descriptors (B_t, sigma_t, M_t) reported by the channel.
    """

    model: GridFunction | None = None
    payoff: float | None = None
    bias_bound: float = 0.0
    noise_bound: float = 0.0
    magnitude_bound: float = 0.0


class FeedbackChannel:
    """Observation process turning the true round function into feedback."""

    kind: str

    def observe(self, stream: LossStream, t: int, strategy: Density, action,
                rng: np.random.Generator) -> Observation:
        raise NotImplementedError


class ExactChannel(FeedbackChannel):
    kind = "exact"

    def observe(self, stream, t, strategy, action, rng):
        return Observation(
            model=stream.loss_function(t),
            magnitude_bound=stream.V,
        )


class UnbiasedChannel(FeedbackChannel):
    """Model = truth + zero-mean trig noise with sup-norm <= noise_scale.

    The noise is sum_k c_k sin(2*pi*f_k.u + psi_k) normalized by sum|c_k|,
    with symmetric coefficients c ~ N(0,1); its conditional mean vanishes by
    the sign symmetry of c, and the normalization caps the sup-norm.
    """

    kind = "unbiased"

    def __init__(self, noise_scale: float, n_terms: int = 5):
        if noise_scale < 0:
            raise ValueError("noise scale must be nonnegative")
        self.noise_scale = float(noise_scale)
        self.n_terms = int(n_terms)
        self._basis = None

    def _noise(self, grid: Grid, rng: np.random.Generator) -> np.ndarray:
        if self._basis is None or self._basis.grid is not grid:
            self._basis = _TrigBasis(grid, _axis_cycled_freqs(self.n_terms, grid.dim))
        c = rng.standard_normal(self.n_terms)
        psi = rng.uniform(0.0, 2.0 * math.pi, self.n_terms)
        scale = np.abs(c).sum()
        if scale == 0.0:
            return np.zeros(grid.n_cells)
        return self.noise_scale * self._basis.combine(c / scale, psi)

    def observe(self, stream, t, strategy, action, rng):
        vals = stream.values(t) + self._noise(stream.grid, rng)
        return Observation(
            model=GridFunction(stream.grid, vals, copy=False),
            noise_bound=self.noise_scale,
            magnitude_bound=stream.V + self.noise_scale,
        )


class BiasedChannel(UnbiasedChannel):
    """Unbiased channel plus a systematic offset of sup-norm B0 * t^(-decay)."""

    kind = "biased"

    def __init__(self, noise_scale: float, bias_scale: float, bias_decay: float,
                 n_terms: int = 5, bias_seed: int = 0):
        super().__init__(noise_scale, n_terms)
        if bias_scale < 0:
            raise ValueError("bias scale must be nonnegative")
        self.bias_scale = float(bias_scale)
        self.bias_decay = float(bias_decay)
        self._bias_phase = float(np.random.default_rng(bias_seed).uniform(0, 2 * math.pi))
        self._bias_profile = None

    def bias_bound(self, t: int) -> float:
        return self.bias_scale * float(t) ** (-self.bias_decay)

    def _profile(self, grid: Grid) -> np.ndarray:
        # Fixed unit-sup trig profile; the bound B0 * t^-b is then exact.
        if self._bias_profile is None:
            u = (grid.centers[:, 0] - grid.domain.lower[0]) / grid.domain.lengths[0]
            prof = np.sin(2.0 * math.pi * u + self._bias_phase)
            peak = np.abs(prof).max()
            self._bias_profile = prof / peak if peak > 0 else prof
        return self._bias_profile

    def observe(self, stream, t, strategy, action, rng):
        vals = stream.values(t) + self._noise(stream.grid, rng)
        b_t = self.bias_bound(t)
        if b_t != 0.0:
            vals = vals + b_t * self._profile(stream.grid)
        return Observation(
            model=GridFunction(stream.grid, vals, copy=False),
            bias_bound=b_t,
            noise_bound=self.noise_scale,
            magnitude_bound=stream.V + self.noise_scale + b_t,
        )


class BanditChannel(FeedbackChannel):
    """Scalar realized payoff at the chosen action; requires payoffs in [0, 1]."""

    kind = "bandit"

    def observe(self, stream, t, strategy, action, rng):
        if not stream.payoff_convention:
            raise ConfigError(
                "bandit feedback requires a payoff-convention stream with values "
                "in [0, 1]; wrap loss streams with to_payoff()"
            )
        value = float(stream.values(t)[stream.grid.cell_index(action)])
        if not (0.0 <= value <= 1.0):
            raise ConfigError(f"bandit payoff {value} outside [0, 1] at round {t}")
        return Observation(payoff=value, magnitude_bound=1.0)
