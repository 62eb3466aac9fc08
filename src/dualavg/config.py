"""Experiment configuration: flat dotted key-value files, validation, builders.

The config format is plain text, one ``key = value`` per line, ``#`` comments,
dotted section names (``stream.kind``, ``schedule.eta_exponent``).  A ``#``
starts a comment anywhere on a line, so no value (an ``out`` path, say) can
contain one.  Unknown keys and malformed values are hard errors carrying the
line number.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .bandit import BDAConfig, run_bda
from .baselines import run_exp3, run_uniform
from .dual_averaging import run_da
from .errors import ConfigError
from .grids import BoxDomain, Grid
from .losses import (
    BanditChannel,
    BiasedChannel,
    ExactChannel,
    LossStream,
    UnbiasedChannel,
    default_trig_stream,
    to_payoff,
)
from .regret import RegretTrace, default_checkpoints
from .regularizers import Regularizer
from .schedules import Schedule

__all__ = ["ExperimentConfig", "parse_config", "run_seed"]

_DEFAULT_GRID_N = {1: 1024, 2: 64, 3: 16}

_ALGORITHMS = ("da", "bda", "exp3_grid", "uniform")
_STREAM_KINDS = ("trig_mixture", "drifting")
_CHANNEL_KINDS = ("exact", "unbiased", "biased", "bandit")
_REG_FAMILIES = ("negentropy", "quadratic", "burg", "tsallis")


def _parse_bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_floats(s: str) -> list[float]:
    return [float(part) for part in s.split(",")]


def parse_seed_spec(s: str) -> list[int]:
    """Seed lists: ``0..15`` (inclusive range) or ``1,5,9``."""
    s = s.strip()
    if ".." in s:
        a, b = s.split("..")
        lo, hi = int(a), int(b)
        if hi < lo:
            raise ValueError(f"empty seed range {s!r}")
        return list(range(lo, hi + 1))
    return [int(part) for part in s.split(",")]


@dataclass
class ExperimentConfig:
    """One experiment: domain, algorithm, adversary, schedules, seeds, output."""

    dim: int = 1
    lower: list = field(default_factory=lambda: [0.0])
    upper: list = field(default_factory=lambda: [1.0])
    grid_n: int | None = None
    algorithm: str = "da"
    reg_family: str = "negentropy"
    reg_gamma: float | None = None
    stream_kind: str = "trig_mixture"
    stream_seed: int = 0
    stream_terms: int = 5
    stream_payoff: bool = False
    drift_rate: float = 0.0
    drift_exponent: float = 0.5
    channel_kind: str = "exact"
    noise_scale: float = 0.5
    bias_scale: float = 0.0
    bias_decay: float = 1.0
    eta_coef: float | None = None
    eta_exponent: float | None = None
    delta_coef: float | None = None
    delta_exponent: float | None = None
    eps_coef: float = 0.5
    eps_exponent: float | None = None
    exp3_arms: int = 32
    horizon: int = 1000
    seeds: list = field(default_factory=lambda: [0])
    checkpoint_start: int = 100
    checkpoint_ratio: float = 1.3
    out: str = "results"

    def validate(self) -> None:
        if self.dim < 1:
            raise ConfigError("domain.dim must be >= 1")
        if len(self.lower) not in (1, self.dim) or len(self.upper) not in (1, self.dim):
            raise ConfigError("domain bounds must have 1 or dim entries")
        for key, value, choices in (("algorithm", self.algorithm, _ALGORITHMS),
                                    ("stream.kind", self.stream_kind, _STREAM_KINDS),
                                    ("channel.kind", self.channel_kind, _CHANNEL_KINDS),
                                    ("regularizer.family", self.reg_family, _REG_FAMILIES)):
            if value not in choices:
                raise ConfigError(f"{key} must be one of {choices}")
        lo, hi = self.bounds()
        if not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo < hi)):
            raise ConfigError("domain.lower must lie below domain.upper, both finite")
        if (self.reg_family == "tsallis") != (self.reg_gamma is not None):
            raise ConfigError("regularizer.family must be tsallis exactly when "
                              "regularizer.gamma is set")
        if self.reg_gamma is not None and not 0.0 < self.reg_gamma < 1.0:
            raise ConfigError("regularizer.gamma must lie in (0, 1)")
        if not self.seeds:
            raise ConfigError("at least one seed required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        for key, value, least in (("grid.n", self.grid_n, 1),
                                  ("stream.terms", self.stream_terms, 1),
                                  ("exp3.arms", self.exp3_arms, 1),
                                  ("horizon", self.horizon, 1),
                                  ("checkpoint.start", self.checkpoint_start, 1),
                                  ("stream.seed", self.stream_seed, 0),
                                  ("seeds", min(self.seeds), 0)):
            if value is not None and value < least:
                raise ConfigError(f"{key} must be >= {least}")
        if not math.isfinite(self.drift_rate):
            raise ConfigError("stream.drift_rate must be finite")
        for key, value in (("schedule.eta_exponent", self.eta_exponent),
                           ("schedule.delta_exponent", self.delta_exponent),
                           ("schedule.eps_exponent", self.eps_exponent),
                           ("stream.drift_exponent", self.drift_exponent),
                           ("channel.noise_scale", self.noise_scale),
                           ("channel.bias_scale", self.bias_scale),
                           ("channel.bias_decay", self.bias_decay)):
            if value is not None and not 0 <= value < math.inf:
                raise ConfigError(f"{key} must be finite and >= 0")
        for key, value in (("schedule.eta_coef", self.eta_coef),
                           ("schedule.delta_coef", self.delta_coef)):
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"{key} must be finite and > 0")
        if not 0.0 <= self.eps_coef <= 1.0:
            raise ConfigError("schedule.eps_coef must lie in [0, 1]")
        if self.algorithm in ("bda", "exp3_grid", "uniform") and not self.stream_payoff:
            raise ConfigError(f"algorithm {self.algorithm!r} requires stream.payoff = true")
        if self.algorithm == "bda" and self.channel_kind not in ("bandit",):
            raise ConfigError("algorithm 'bda' uses channel.kind = bandit")
        if self.algorithm == "da" and self.channel_kind == "bandit":
            raise ConfigError("algorithm 'da' needs a function-valued channel")
        if self.stream_kind == "drifting" and self.drift_rate == 0.0:
            raise ConfigError("drifting stream needs stream.drift_rate > 0")
        if not self.checkpoint_ratio > 1.0:
            raise ConfigError("checkpoint.ratio must exceed 1")

    # domain / grid -----------------------------------------------------

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array(self.lower if len(self.lower) == self.dim else self.lower * self.dim)
        hi = np.array(self.upper if len(self.upper) == self.dim else self.upper * self.dim)
        return lo, hi

    def build_grid(self) -> Grid:
        lo, hi = self.bounds()
        n = self.grid_n
        if n is None:
            n = _DEFAULT_GRID_N.get(self.dim, 8)
        return Grid(BoxDomain(lo, hi), n)

    def build_stream(self, grid: Grid) -> LossStream:
        base = default_trig_stream(
            grid,
            seed=self.stream_seed,
            n_terms=self.stream_terms,
            drift_rate=self.drift_rate if self.stream_kind == "drifting" else 0.0,
            drift_exponent=self.drift_exponent,
        )
        return to_payoff(base) if self.stream_payoff else base

    def build_channel(self, grid: Grid):
        if self.channel_kind == "exact":
            return ExactChannel()
        if self.channel_kind == "unbiased":
            return UnbiasedChannel(self.noise_scale)
        if self.channel_kind == "biased":
            return BiasedChannel(self.noise_scale, self.bias_scale, self.bias_decay)
        delta_coef = self.delta_coef if self.delta_coef is not None else grid.domain.diameter / 4
        delta_expo = self.delta_exponent if self.delta_exponent is not None else 1 / (self.dim + 3)
        return BanditChannel(Schedule(delta_coef, delta_expo))

    def build_regularizer(self) -> Regularizer:
        return Regularizer(self.reg_family, self.reg_gamma)

    def eta_schedule(self, stream: LossStream) -> Schedule:
        coef = self.eta_coef
        if coef is None:
            coef = 1.0 / stream.V  # keep scores O(t^{1-p}) at the loss scale
        expo = self.eta_exponent
        if expo is None:
            expo = (self.dim + 2) / (self.dim + 3) if self.algorithm == "bda" else 0.5
        return Schedule(coef, expo)

    def bda_config(self, grid: Grid, stream: LossStream) -> BDAConfig:
        """The bda schedules; the radius schedule is that of the bandit channel."""
        eps_expo = self.eps_exponent if self.eps_exponent is not None else 1 / (self.dim + 3)
        return BDAConfig(
            eta=self.eta_schedule(stream),
            delta=self.build_channel(grid).delta,
            eps=Schedule(self.eps_coef, eps_expo) if self.eps_coef > 0 else None,
        )

    def checkpoints(self) -> np.ndarray:
        return default_checkpoints(self.horizon, self.checkpoint_start, self.checkpoint_ratio)


# Mapping of config-file keys to (attribute, converter).
_KEYS = {
    "domain.dim": ("dim", int),
    "domain.lower": ("lower", _parse_floats),
    "domain.upper": ("upper", _parse_floats),
    "grid.n": ("grid_n", int),
    "algorithm": ("algorithm", str),
    "regularizer.family": ("reg_family", str),
    "regularizer.gamma": ("reg_gamma", float),
    "stream.kind": ("stream_kind", str),
    "stream.seed": ("stream_seed", int),
    "stream.terms": ("stream_terms", int),
    "stream.payoff": ("stream_payoff", _parse_bool),
    "stream.drift_rate": ("drift_rate", float),
    "stream.drift_exponent": ("drift_exponent", float),
    "channel.kind": ("channel_kind", str),
    "channel.noise_scale": ("noise_scale", float),
    "channel.bias_scale": ("bias_scale", float),
    "channel.bias_decay": ("bias_decay", float),
    "schedule.eta_coef": ("eta_coef", float),
    "schedule.eta_exponent": ("eta_exponent", float),
    "schedule.delta_coef": ("delta_coef", float),
    "schedule.delta_exponent": ("delta_exponent", float),
    "schedule.eps_coef": ("eps_coef", float),
    "schedule.eps_exponent": ("eps_exponent", float),
    "exp3.arms": ("exp3_arms", int),
    "horizon": ("horizon", int),
    "seeds": ("seeds", parse_seed_spec),
    "checkpoint.start": ("checkpoint_start", int),
    "checkpoint.ratio": ("checkpoint_ratio", float),
    "out": ("out", str),
}


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse and validate a config file's text; errors carry line numbers."""
    cfg = ExperimentConfig()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        attr, conv = _KEYS[key]
        try:
            setattr(cfg, attr, conv(value))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from None
    try:
        cfg.validate()
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), source=path)


def run_seed(cfg: ExperimentConfig,
             seed: int | Sequence[int]) -> RegretTrace | list[RegretTrace]:
    """Run one algorithm instance per seed; trace i is deterministic in (cfg, seed i).

    ``seed`` is one seed, for which one trace is returned, or a block of
    seeds, for which a list of traces is returned in the same order (the
    one-or-many contract of every ``run_*`` function).  The grid, stream,
    channel and schedules are built once for the block, each seed draws from
    its own Generator, and the algorithm moves the whole block forward
    together.
    """
    single = not isinstance(seed, Sequence)
    seeds = [seed] if single else list(seed)
    grid = cfg.build_grid()
    stream = cfg.build_stream(grid)
    rngs = [np.random.default_rng(s) for s in seeds]
    checkpoints = cfg.checkpoints()
    if cfg.algorithm == "da":
        traces = run_da(
            grid,
            cfg.build_regularizer(),
            stream,
            cfg.build_channel(grid),
            cfg.eta_schedule(stream),
            cfg.horizon,
            rngs,
            checkpoints=checkpoints,
        )
    elif cfg.algorithm == "bda":
        traces = run_bda(grid, stream, cfg.bda_config(grid, stream), cfg.horizon, rngs,
                         checkpoints=checkpoints)
    elif cfg.algorithm == "exp3_grid":
        traces = run_exp3(grid, stream, cfg.exp3_arms, cfg.horizon, rngs,
                          checkpoints=checkpoints)
    else:
        traces = run_uniform(grid, stream, cfg.horizon, rngs, checkpoints=checkpoints)
    return traces[0] if single else traces
