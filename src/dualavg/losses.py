"""Adversary side: time-indexed loss/payoff streams and feedback channels.

Streams are pure in the round index t and declare sup/Lipschitz bounds (V, L).
Channels realize the observation models: exact, unbiased (zero-mean
function-valued noise), biased (decaying systematic offset), and bandit (a
kernel model built from the realized payoff alone, ``kernel_estimate``).
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from .errors import ConfigError, DomainError
from .grids import Grid, ball_patch
from .schedules import Schedule

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
    "kernel_estimate",
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

_NOISE_TERMS = 5  # trig terms of the noise channels' noise
_BIAS_SEED = 0  # seed of the biased channel's bias phase

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
        a_sin = a cos(phase) and a_cos = a sin(phase).  (m, K) coefficient
        rows give the (m, n) rows, each bit for bit the sum of its row alone.
        """
        out = None
        for terms, sin, cos in self.tables:
            # Contiguous rows (an index array makes strided ones, with other last bits).
            s, c = np.take(a_sin, terms, axis=-1), np.take(a_cos, terms, axis=-1)
            axis = (_sum_terms(s, c, sin, cos) if s.ndim == 1
                    else np.array([_sum_terms(*row, sin, cos) for row in zip(s, c)]))
            out = axis if out is None else (
                out[..., :, None] + axis[..., None, :]).reshape(*axis.shape[:-1], -1)
        return out

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

    ``values(t)`` returns a read-only array of finite cell values: a stream
    rejects at construction the inputs that would make any round non-finite,
    and raises ``DomainError`` for a round index that would.  The exact
    channel hands the array to the learner as it is, unchecked.
    ``payoff_convention`` marks streams whose values are payoffs in [0, 1]
    rather than losses.
    """

    grid: Grid
    V: float
    L: float
    payoff_convention: bool = False
    _cached_key = None
    _cached_values = None
    _cached_window = (None, None)  # ((start, stop), sum) of the last window summed

    def values(self, t: int) -> np.ndarray:
        raise NotImplementedError

    def rows(self, rounds: range) -> np.ndarray:
        """The (m, n) values of the m rounds in ``rounds``, row i ``values(rounds[i])``."""
        return np.array([self.values(t) for t in rounds])

    def window_sum(self, start: int, stop: int) -> np.ndarray:
        """Sum of the stream values over rounds start..stop, on the grid, read-only.

        The last window asked for is kept until another is, so the regret
        columns of every seed of a block at one checkpoint read one sum.
        """
        if self._cached_window[0] != (start, stop):
            total = self._sum_window(start, stop)
            total.setflags(write=False)
            self._cached_window = ((start, stop), total)
        return self._cached_window[1]

    def _sum_window(self, start: int, stop: int) -> np.ndarray:
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

    def _last_round(self, t, compute) -> np.ndarray:
        """``compute`` of round t's cache key, read-only, kept until another key is asked for.

        A learner and its channel both read round t, so a one-entry cache
        evaluates each round once; a static stream, keyed 0, is evaluated once.
        A range of rounds (more than one) is its own key, and its (m, n) rows
        are ``compute`` of it, or one round's row repeated without a copy.
        """
        rows = isinstance(t, range)
        key = self._cache_key(t[0] if rows and len(t) == 1 else t)
        if self._cached_key != key:
            vals = compute(key)
            vals.setflags(write=False)
            self._cached_values = vals
            self._cached_key = key
        vals = self._cached_values
        if rows and vals.ndim == 1:  # the one row repeated, read-only (broadcast_to takes 3 us)
            return np.ndarray((len(t), vals.size), vals.dtype, vals, 0, (0, vals.itemsize))
        return vals


class TrigStream(LossStream):
    """Linear combination of trigonometric terms, optionally drifting.

    Each term is a * sin(2*pi*f.u + phase) in normalized coordinates u; with
    ``drift_rate`` rho > 0 every phase is shifted by rho * t**drift_exponent,
    which makes the variation V_T grow like T**drift_exponent.  The inputs,
    V, L and each round's phase shift must be finite (``DomainError``
    otherwise), so every round's values are finite, and no channel or
    learner checks them again.
    """

    def __init__(self, grid, amplitudes, freqs, phases, drift_rate=0.0, drift_exponent=0.5):
        self.grid = grid
        self.amplitudes = np.asarray(amplitudes, dtype=float)
        self.phases = np.asarray(phases, dtype=float)
        self.drift_rate = float(drift_rate)
        self.drift_exponent = float(drift_exponent)
        for name, value in (("amplitudes", self.amplitudes), ("phases", self.phases),
                            ("drift rate", self.drift_rate),
                            ("drift exponent", self.drift_exponent)):
            if not np.isfinite(value).all():
                raise DomainError(f"trig stream {name} must be finite, got {value}")
        self._basis = _TrigBasis(grid, np.atleast_2d(np.asarray(freqs, dtype=float)))
        if self.amplitudes.shape[0] != self._basis.freqs.shape[0]:
            raise ValueError("one amplitude per frequency vector required")
        self.V = float(np.abs(self.amplitudes).sum())
        self.L = self._basis.lipschitz(self.amplitudes)
        if not (math.isfinite(self.V) and math.isfinite(self.L)):
            raise DomainError(f"trig stream bounds must be finite, got V = {self.V}, "
                              f"L = {self.L}")

    def _phase_shift(self, t: int) -> float:
        if self.drift_rate == 0.0:
            return 0.0
        try:
            shift = self.drift_rate * float(t) ** self.drift_exponent
        except OverflowError:
            shift = math.inf
        if not math.isfinite(shift):
            raise DomainError(f"the phase shift of round {t} is not finite")
        return shift

    def _cache_key(self, t: int) -> int:
        return t if self.drift_rate != 0.0 else 0

    def values(self, t: int | range) -> np.ndarray:
        return self._last_round(t, self._combine)

    def rows(self, rounds: range) -> np.ndarray:
        return self.values(rounds)  # one block, through ``values``

    def _combine(self, key: int | range) -> np.ndarray:
        if key == 0:
            return self._basis.combine(self.amplitudes, self.phases)
        shifts = ([self._phase_shift(t) for t in key] if isinstance(key, range)
                  else self._phase_shift(key))
        return self._basis.combine(self.amplitudes, self.phases + np.array(shifts)[..., None])

    def _coefficients(self, first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
        """(a cos(phase_t), a sin(phase_t)) for rounds t = first..last (t >= 1).

        Both are (rounds, K) arrays; round t's values are ``_basis.linear`` of
        its row.
        """
        t = np.arange(first, last + 1, dtype=float)
        phases = self.phases + (self.drift_rate * t ** self.drift_exponent)[:, None]
        return self.amplitudes * np.cos(phases), self.amplitudes * np.sin(phases)

    def _sum_window(self, start: int, stop: int) -> np.ndarray:
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
        return self._basis.linear(a_sin, a_cos)

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

    def _cache_key(self, t: int) -> int:
        return self.base._cache_key(t)

    def values(self, t: int | range) -> np.ndarray:
        return self._last_round(t, self._from_base)

    def rows(self, rounds: range) -> np.ndarray:
        return self.values(rounds)

    def _from_base(self, key: int | range) -> np.ndarray:
        base = self.base.rows(key) if isinstance(key, range) else self.base.values(key)
        return (self.base.V - base) / (2.0 * self.base.V)

    def _sum_window(self, start: int, stop: int) -> np.ndarray:
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


class FeedbackChannel:
    """Feedback process: turns the true round function into an inexact model of it.

    ``observe`` returns the model as a pair (index, values): ``values`` on
    the flat cells ``index`` and 0 elsewhere.  A model on the whole grid
    (exact, unbiased, biased) has index ``...`` and n values; the bandit
    channel's is ``kernel_estimate``'s (support, value).  The model is all
    the learner reads.  The bounds on its bias, noise and magnitude that the
    regret analysis uses are channel and stream parameters, not per-round
    output: B_t is ``BiasedChannel.bias_bound(t)``, or ``stream.L *
    BanditChannel.radius(grid, t)`` for the bandit channel; sigma_t is
    ``noise_scale``; M_t is ``stream.V`` plus those two.

    ``observe`` is given the played ``strategy`` as its cell values (an
    array), the drawn ``cell`` and the drawn ``action``, a point in that
    cell; only the bandit channel (``reads_play``) reads them.  ``run_da``
    observes any other channel a step of m rounds at a time, before their
    draws are played: ``t`` is a range, ``rng`` the channel's own draws for
    those rounds from ``draw``, the rest None, and the values the (m, n)
    rows, each bit for bit the model of its round observed alone.  ``draw``
    reads a step from a generator round by round: ``width`` draw variates
    (a cell, then a point in it), then the channel's own.  Every seed plays
    the same strategies under a ``deterministic`` channel (exact feedback).
    """

    deterministic = False
    reads_play = False

    def draw(self, rng: np.random.Generator, rounds: int, width: int) -> tuple:
        """The (rounds, width) draw variates and the channel's own draws (here none)."""
        return rng.random((rounds, width)), None

    def observe(self, stream: LossStream, t, strategy, cell, action, rng) -> tuple:
        raise NotImplementedError


class ExactChannel(FeedbackChannel):
    """Model = truth: the stream's own read-only round values, not copied."""

    deterministic = True

    def observe(self, stream, t, strategy, cell, action, rng):
        return ..., stream.rows(t) if isinstance(t, range) else stream.values(t)


class UnbiasedChannel(FeedbackChannel):
    """Model = truth + zero-mean trig noise with sup-norm <= noise_scale.

    The noise is sum_k c_k sin(2*pi*f_k.u + psi_k) normalized by sum|c_k|,
    with symmetric coefficients c ~ N(0,1); its conditional mean vanishes by
    the sign symmetry of c, and the normalization caps the sup-norm.  Each
    round draws c (``standard_normal``) and then psi (``uniform``).
    """

    def __init__(self, noise_scale: float):
        if not 0 <= noise_scale < math.inf:
            raise ValueError("noise scale must be finite and nonnegative")
        self.noise_scale = float(noise_scale)
        self._basis = None

    def draw(self, rng, rounds, width):
        draws = [(rng.random(width), rng.standard_normal(_NOISE_TERMS),
                  rng.uniform(0.0, 2.0 * math.pi, _NOISE_TERMS)) for _ in range(rounds)]
        variates, c, psi = (np.array(column) for column in zip(*draws))
        return variates, (c, psi)

    def observe(self, stream, t, strategy, cell, action, rng):
        return ..., self._noisy(stream, t, rng)

    def _noisy(self, stream, t, rng) -> np.ndarray:
        """Truth plus noise: round t's, drawn from ``rng``, or for a range of
        rounds the (m, n) block from the noise that ``draw`` drew for them."""
        if isinstance(t, range):
            (c, psi), truth = rng, stream.rows(t)
        else:
            c = rng.standard_normal(_NOISE_TERMS)
            psi = rng.uniform(0.0, 2.0 * math.pi, _NOISE_TERMS)
            truth = stream.values(t)
        grid = stream.grid
        if self._basis is None or self._basis.grid is not grid:
            self._basis = _TrigBasis(grid, _axis_cycled_freqs(_NOISE_TERMS, grid.dim))
        # Scaling the sum, not the amplitudes: folding the scale into c
        # changes the last bits at d = 1.  A zero c (scale 0) divided by the
        # least positive float is zero noise.
        scale = np.maximum(np.abs(c).sum(axis=-1, keepdims=True), math.ulp(0.0))
        vals = self._basis.combine(c / scale, psi)
        vals *= self.noise_scale
        vals += truth
        return vals


class BiasedChannel(UnbiasedChannel):
    """Unbiased channel plus a systematic offset of sup-norm B0 * t^(-decay).

    The offset is B0 * t^(-decay) times a unit-sup sine of axis 0, kept as n
    values and added to the model viewed as (n, n^(d-1)) by broadcasting.
    """

    def __init__(self, noise_scale: float, bias_scale: float, bias_decay: float):
        super().__init__(noise_scale)
        for name, value in (("bias scale", bias_scale), ("bias decay", bias_decay)):
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        self.bias_scale = float(bias_scale)
        self.bias_decay = float(bias_decay)
        self._bias_phase = float(np.random.default_rng(_BIAS_SEED).uniform(0, 2 * math.pi))
        self._bias_profile = None  # (grid, profile) of the last grid observed

    def bias_bound(self, t: int) -> float:
        return self.bias_scale * float(t) ** (-self.bias_decay)

    def _profile(self, grid: Grid) -> np.ndarray:
        # Fixed unit-sup trig profile; the bound B0 * t^-b is then exact.
        if self._bias_profile is None or self._bias_profile[0] is not grid:
            u = (grid.axis_centers(0) - grid.domain.lower[0]) / grid.domain.lengths[0]
            prof = np.sin(2.0 * math.pi * u + self._bias_phase)
            peak = np.abs(prof).max()
            self._bias_profile = (grid, prof / peak if peak > 0 else prof)
        return self._bias_profile[1]

    def observe(self, stream, t, strategy, cell, action, rng):
        vals = self._noisy(stream, t, rng)
        rounds = t if isinstance(t, range) else [t]
        b = np.array([self.bias_bound(s) for s in rounds])
        by_axis0 = vals.reshape(len(rounds), stream.grid.n, -1)  # a view of contiguous ``vals``
        by_axis0 += (b[:, None] * self._profile(stream.grid))[:, :, None]
        return ..., vals


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


class BanditChannel(FeedbackChannel):
    """Kernel feedback: the realized payoff at the drawn cell, made into a ball-kernel model.

    The model is ``kernel_estimate`` of the payoff at the drawn cell, with
    the played density there, on the ball around the action of radius
    ``radius(grid, t)`` = max(delta(t), 2 * cell diameter); the floor keeps
    the patch from being empty.  Its bias is at most B_t = ``stream.L *
    radius(grid, t)``, the distance of an L-Lipschitz payoff from its ball
    averages; its value is at most 1 / (patch volume * density at the drawn
    cell), which depends on the trajectory, and which the exploration floor
    bounds a priori.  The radius is computed once per round and grid,
    not once per seed.  Requires payoffs in [0, 1].
    """

    reads_play = True

    def __init__(self, delta: Schedule):
        self.delta = delta
        self._radius = (None, 0, 0.0)  # (grid, t, radius) of the last round observed

    def radius(self, grid: Grid, t: int) -> float:
        return max(self.delta(t), 2.0 * grid.cell_diameter)

    def floor_rounds(self, grid: Grid, T: int) -> int:
        """How many rounds t = 1..T have the floor, not ``delta(t)``, as ``radius``."""
        # delta is non-increasing, so those rounds are the last ones: search
        # for the last round t with delta(t) >= floor.
        floor = 2.0 * grid.cell_diameter  # the floor of ``radius``, computed once
        lo, hi = 0, T  # delta(t) >= floor for t <= lo, and delta(t) < floor for t > hi
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.delta(mid) < floor:
                hi = mid - 1
            else:
                lo = mid
        return T - lo

    def observe(self, stream, t, strategy, cell, action, rng):
        if not stream.payoff_convention:
            raise ConfigError(
                "bandit feedback requires a payoff-convention stream with values "
                "in [0, 1]; wrap loss streams with to_payoff()"
            )
        grid = stream.grid
        if self._radius[0] is not grid or self._radius[1] != t:
            self._radius = (grid, t, self.radius(grid, t))
        delta_t = self._radius[2]
        payoff = float(stream.values(t)[cell])
        density = float(strategy[cell])
        return kernel_estimate(grid, action, payoff, density, delta_t)
