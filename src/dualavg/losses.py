"""Adversary side: time-indexed loss/payoff streams and feedback channels.

Streams are pure in the round index t and declare sup/Lipschitz bounds (V, L).
Channels realize the observation models: exact, unbiased (zero-mean
function-valued noise), biased (decaying systematic offset), and bandit
(scalar realized payoff only).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grids import Grid, GridFunction

__all__ = [
    "LossStream",
    "TrigStream",
    "PayoffStream",
    "to_payoff",
    "default_trig_stream",
    "FeedbackChannel",
    "ExactChannel",
    "UnbiasedChannel",
    "BiasedChannel",
    "BanditChannel",
    "Observation",
    "variation",
]


# Most table entries in one product of ``_TrigBasis.combine``.  With OpenBLAS
# 0.3.31 a gemv over 458 752 entries runs on the calling thread and one over
# 460 800 wakes a helper thread, whatever the shape.
_GEMV_LIMIT = 409_600

# Most entries in one block of per-round trig coefficients (16 KB) in the
# closed-form window sums and V_T.  Blocks this small reuse memory the run has
# already freed, so the post-hoc work leaves the peak resident memory as is.
_POST_HOC_ENTRIES = 2048

# Read-only per-axis (terms, sin, cos) tables per grid and frequency set; an
# entry goes when its grid does.
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _trig_tables(grid: Grid, freqs: np.ndarray) -> tuple:
    """Per axis k, (terms, sin, cos) with sin/cos of 2*pi*f_k*u_k for those terms.

    ``terms`` indexes the frequency vectors that lie on axis k (a zero vector
    goes to axis 0), and the (len(terms), n) tables run over the n cell
    centers of that axis.  Built once per grid and frequency set.
    """
    per_grid = _TABLES.setdefault(grid, {})
    key = (freqs.shape, freqs.tobytes())
    tables = per_grid.get(key)
    if tables is None:
        axis_of = (freqs != 0.0).argmax(axis=1)
        lower, lengths = grid.domain.lower, grid.domain.lengths
        tables = []
        for k in range(grid.dim):
            terms = np.flatnonzero(axis_of == k)
            u = (grid.axis_centers(k) - lower[k]) / lengths[k]
            args = freqs[terms, k:k + 1] * u  # (len(terms), n)
            args *= 2.0 * math.pi
            sin = np.sin(args)
            cos = np.cos(args, out=args)
            for arr in (terms, sin, cos):
                arr.setflags(write=False)
            tables.append((terms, sin, cos))
        tables = per_grid[key] = tuple(tables)
    return tables


def _sum_terms(a_sin: np.ndarray, a_cos: np.ndarray, sin: np.ndarray,
               cos: np.ndarray) -> np.ndarray:
    """a_sin @ sin + a_cos @ cos, in column blocks of at most ``_GEMV_LIMIT`` entries."""
    n_terms, n = sin.shape
    if n_terms * n <= _GEMV_LIMIT:
        return a_sin @ sin + a_cos @ cos
    width = max(1, _GEMV_LIMIT // n_terms)
    out = np.empty(n)
    for i in range(0, n, width):
        cols = slice(i, i + width)
        out[cols] = a_sin @ sin[:, cols]
        out[cols] += a_cos @ cos[:, cols]
    return out


class _TrigBasis:
    """Cached per-axis sin/cos tables for a fixed set of integer frequency vectors.

    Coordinates are normalized per axis to [0, 1], so sup bounds and phase
    shifts are independent of the box geometry.  Every frequency vector has
    at most one nonzero entry (``_axis_cycled_freqs`` makes them), so each
    term is a function of one axis: ``tables`` holds, per axis, the terms on
    that axis and their (K_axis, n) sin/cos tables over the axis's n
    centers, and ``combine`` sums one n-vector per axis over the grid by
    broadcasting, in the C order of ``Grid.centers``.  At d = 1 this is one
    (K, n) product; on a 256 x 256 grid a term's sin and cos tables hold 256
    entries each instead of 65536.

    The read-only tables are shared by every basis with the same grid and
    frequencies (a stream and its noise channel, say), and are freed with
    the grid.  Neither building them nor ``combine`` uses a BLAS product
    large enough for OpenBLAS to start helper threads, which would spin on
    the cores that pool workers run on: an axis product of more than
    ``_GEMV_LIMIT`` table entries (in practice a 1-D grid with many terms)
    runs in column blocks.  The entries equal sin/cos of 2*pi*(f @ u) at
    every cell bit for bit.
    """

    def __init__(self, grid: Grid, freqs: np.ndarray):
        self.grid = grid
        self.freqs = np.asarray(freqs, dtype=float)  # (K, d)
        if self.freqs.ndim != 2 or self.freqs.shape[1] != grid.dim:
            raise ValueError("frequency vectors need one entry per grid axis")
        if (np.count_nonzero(self.freqs, axis=1) > 1).any():
            raise ValueError("each frequency vector must lie on a single axis")
        self.tables = _trig_tables(grid, self.freqs)

    def combine(self, amplitudes: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """sum_k a_k * sin(2*pi*f_k.u + phase_k) on all cells."""
        return self.linear(amplitudes * np.cos(phases), amplitudes * np.sin(phases))

    def linear(self, a_sin: np.ndarray, a_cos: np.ndarray) -> np.ndarray:
        """sum_k a_sin_k * sin(2*pi*f_k.u) + a_cos_k * cos(2*pi*f_k.u) on all cells.

        Every trig sum is linear in these coefficients: a sin(x + phase) has
        a_sin = a cos(phase) and a_cos = a sin(phase).
        """
        out = None
        for terms, sin, cos in self.tables:
            axis = _sum_terms(a_sin[terms], a_cos[terms], sin, cos)
            out = axis if out is None else np.add.outer(out, axis)
        return out.ravel()

    def sup_abs(self, a_sin: np.ndarray, a_cos: np.ndarray) -> float:
        """sup over cells of |``linear(a_sin, a_cos)``|, without forming it on the grid.

        The grid function is a sum of one function per axis, so its largest
        value is the sum of the per-axis largest values, in the order
        ``linear`` adds them, and likewise its smallest.  The products are
        those of ``linear``: matrix-vector, since the first matrix-matrix
        product of a process adds OpenBLAS code and buffers to its resident
        memory.
        """
        hi = lo = 0.0
        for terms, sin, cos in self.tables:
            axis = _sum_terms(a_sin[terms], a_cos[terms], sin, cos)
            hi += axis.max()
            lo += axis.min()
        return float(max(hi, -lo))

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

    def window_sum(self, start: int, stop: int) -> np.ndarray:
        """Sum of the stream values over rounds start..stop, on the grid."""
        total = np.zeros(self.grid.n_cells)
        for t in range(start, stop + 1):
            total += self.values(t)
        return total

    def variation(self, T: int) -> float:
        """sum_{t < T} sup|f_{t+1} - f_t|; see ``losses.variation``."""
        total = 0.0
        prev = self.values(1)
        for t in range(2, T + 1):
            cur = self.values(t)
            total += float(np.abs(cur - prev).max())
            prev = cur
        return total

    def _cache_key(self, t: int) -> int:
        """A round whose values equal round t's: 0 for a static stream, else t."""
        return t

    def _last_round(self, key: int, compute) -> np.ndarray:
        """``compute(key)``, made read-only and kept until a different key is asked for.

        A learner and its channel both read round t, so a one-entry cache
        evaluates each round once; a static stream, keyed 0, is evaluated once.
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

    def _cache_key(self, t: int) -> int:
        return t if self.drift_rate != 0.0 else 0

    def values(self, t: int) -> np.ndarray:
        return self._last_round(self._cache_key(t), self._combine)

    def _combine(self, t: int) -> np.ndarray:
        phases = self.phases if t == 0 else self.phases + self._phase_shift(t)
        vals = self._basis.combine(self.amplitudes, phases)
        vals += self.offset
        return vals

    def _coefficients(self, first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
        """(a cos(phase_t), a sin(phase_t)) for rounds t = first..last (t >= 1).

        Both are (rounds, K) arrays; round t's values are ``_basis.linear`` of
        its row, plus the offset.
        """
        t = np.arange(first, last + 1, dtype=float)
        phases = self.phases + (self.drift_rate * t ** self.drift_exponent)[:, None]
        return self.amplitudes * np.cos(phases), self.amplitudes * np.sin(phases)

    def window_sum(self, start: int, stop: int) -> np.ndarray:
        """Sum over rounds start..stop in closed form: one ``linear`` of the summed coefficients.

        The coefficients are summed in blocks of rounds of at most
        ``_POST_HOC_ENTRIES`` entries; no round is evaluated on the grid.
        """
        rounds = stop - start + 1
        if self.drift_rate == 0.0:
            a_sin = rounds * (self.amplitudes * np.cos(self.phases))
            a_cos = rounds * (self.amplitudes * np.sin(self.phases))
        else:
            a_sin = np.zeros_like(self.amplitudes)
            a_cos = np.zeros_like(self.amplitudes)
            block = max(1, _POST_HOC_ENTRIES // len(self.amplitudes))
            for first in range(start, stop + 1, block):
                s, c = self._coefficients(first, min(first + block - 1, stop))
                a_sin += s.sum(axis=0)
                a_cos += c.sum(axis=0)
        vals = self._basis.linear(a_sin, a_cos)
        vals += rounds * self.offset
        return vals

    def variation(self, T: int) -> float:
        """V_T from coefficient differences, in blocks of rounds.

        f_{t+1} - f_t is ``linear`` of the difference of the two rounds'
        coefficients, so a round costs the products of ``linear`` and the
        sup over the cells, and no round is evaluated on the grid.  The
        coefficient blocks hold at most ``_POST_HOC_ENTRIES`` entries, and
        every product at most ``_GEMV_LIMIT``.  A static stream gives
        exactly 0.0.
        """
        if self.drift_rate == 0.0:
            return 0.0
        total = 0.0
        block = max(1, _POST_HOC_ENTRIES // len(self.amplitudes))
        for first in range(1, T, block):
            s, c = self._coefficients(first, min(first + block, T))
            for ds, dc in zip(np.diff(s, axis=0), np.diff(c, axis=0)):
                total += self._basis.sup_abs(ds, dc)
        return total


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

    def _cache_key(self, t: int) -> int:
        return self.base._cache_key(t)

    def values(self, t: int) -> np.ndarray:
        return self._last_round(self._cache_key(t), self._from_base)

    def _from_base(self, t: int) -> np.ndarray:
        return (self.base.V - self.base.values(t)) / (2.0 * self.base.V)

    def window_sum(self, start: int, stop: int) -> np.ndarray:
        """(k V - sum of the base over the k rounds) / (2V), from the base's window sum."""
        rounds = stop - start + 1
        return (rounds * self.base.V - self.base.window_sum(start, stop)) / (2.0 * self.base.V)

    def variation(self, T: int) -> float:
        return self.base.variation(T) / (2.0 * self.base.V)


def to_payoff(stream: LossStream) -> PayoffStream:
    return PayoffStream(stream)


def variation(stream: LossStream, T: int) -> float:
    """V_T = sum_t sup|f_{t+1} - f_t| with the convention f_{T+1} = f_T.

    A trig stream and its payoff view compute it from their coefficients;
    any other stream compares consecutive rounds on the grid.
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    return stream.variation(T)


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
    """Observation process turning the true round function into feedback.

    ``observe`` is given the played ``strategy`` as its cell values (an
    array) and the drawn ``action``; the channels here read at most the
    action.

    ``deterministic`` marks a channel whose model is a function of the stream
    and the round alone: ``observe`` draws nothing from ``rng`` and reads
    neither the strategy nor the action.  ``run_da`` then plays one strategy
    per round for a whole block of seeds.
    """

    kind: str
    deterministic = False

    def observe(self, stream: LossStream, t: int, strategy: np.ndarray, action,
                rng: np.random.Generator) -> Observation:
        raise NotImplementedError


class ExactChannel(FeedbackChannel):
    kind = "exact"
    deterministic = True

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
        # Scaling the sum, not the amplitudes: folding the scale into c
        # changes the last bits at d = 1.
        noise = self._basis.combine(c / scale, psi)
        noise *= self.noise_scale
        return noise

    def observe(self, stream, t, strategy, action, rng):
        vals = self._noise(stream.grid, rng)
        vals += stream.values(t)
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
        self._bias_profile = None  # (grid, profile) of the last grid observed

    def bias_bound(self, t: int) -> float:
        return self.bias_scale * float(t) ** (-self.bias_decay)

    def _profile(self, grid: Grid) -> np.ndarray:
        # Fixed unit-sup trig profile; the bound B0 * t^-b is then exact.
        if self._bias_profile is None or self._bias_profile[0] is not grid:
            u = (grid.centers[:, 0] - grid.domain.lower[0]) / grid.domain.lengths[0]
            prof = np.sin(2.0 * math.pi * u + self._bias_phase)
            peak = np.abs(prof).max()
            self._bias_profile = (grid, prof / peak if peak > 0 else prof)
        return self._bias_profile[1]

    def observe(self, stream, t, strategy, action, rng):
        vals = self._noise(stream.grid, rng)
        vals += stream.values(t)
        b_t = self.bias_bound(t)
        if b_t != 0.0:
            vals += b_t * self._profile(stream.grid)
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
