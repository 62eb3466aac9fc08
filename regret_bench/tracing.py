"""In-process span tracing of the dualavg layers, by wrapping public callables.

``install(tracer)`` replaces the functions and methods the drivers call with
wrappers that record a span (name, duration, time spent in child spans) or
bump a counter, in every ``dualavg`` module namespace that holds them, and
returns a ``Patches`` object whose ``restore()`` puts every original back.
Nothing under ``src/`` changes.  Traced runs use one worker so that every
call happens in this process.

``layer_metrics`` turns the tracers of one or more traced task repetitions
into the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

__all__ = ["Tracer", "Patches", "install", "layer_metrics", "PER_LAYER", "COUNT_METRICS"]

# Residual |phi| above which a bisection counts as unconverged; the solver's own
# default tolerance.
UNCONVERGED_TOL = 1e-12

_FAMILIES = ("negentropy", "quadratic", "burg", "tsallis")
_BISECT_FAMILIES = ("quadratic", "burg", "tsallis")


class Tracer:
    """Span and counter store for one traced task repetition (single-threaded)."""

    def __init__(self):
        self._stack = []  # open spans: [name, start, seconds covered by child spans]
        self._open = Counter()  # names currently on the stack
        self.families = []  # regularizer family of each open mirror span
        self.durations = defaultdict(list)  # inclusive seconds per call
        self.self_durations = defaultdict(list)  # seconds minus child spans
        self.totals = Counter()  # inclusive seconds summed per name
        self.calls = Counter()
        self.sim_calls = Counter()  # (driver, name) -> calls made inside that driver's loop
        self.rounds = Counter()  # driver -> rounds simulated
        self.drivers = []  # names of the running driver loops
        self.counts = Counter()  # named events: phi evals, cache hits, ...
        self.samples = defaultdict(list)  # derived per-call samples
        self.post_hoc_depth = 0

    def tick(self, name: str) -> None:
        self.calls[name] += 1
        if self.drivers:
            self.sim_calls[self.drivers[-1], name] += 1

    def per_round(self, name: str) -> float:
        """Calls of ``name`` per round of the driver loops that make them."""
        by_driver = {d: c for (d, n), c in self.sim_calls.items() if n == name}
        rounds = sum(self.rounds[d] for d in by_driver)
        return sum(by_driver.values()) / rounds if rounds else 0.0

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def enter(self, name: str) -> list:
        self.tick(name)
        frame = [name, perf_counter(), 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def exit(self, frame: list) -> tuple[float, float]:
        dur = perf_counter() - frame[1]
        self._stack.pop()
        name = frame[0]
        self._open[name] -= 1
        self_dur = dur - frame[2]
        self.durations[name].append(dur)
        self.self_durations[name].append(self_dur)
        self.totals[name] += dur
        if self._stack:
            self._stack[-1][2] += dur
        return dur, self_dur


class Patches:
    """Records replaced attributes so that ``restore`` can put the originals back."""

    def __init__(self):
        self._saved = []

    def function(self, original, wrapper) -> None:
        """Rebind every ``dualavg`` module global that holds ``original``."""
        found = False
        for mod in _dualavg_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, name, original))
                    setattr(mod, name, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{original!r} is bound in no dualavg module")

    def attribute(self, owner, name: str, wrapper) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def _dualavg_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "dualavg" or n.startswith("dualavg."))]


def _span(tracer: Tracer, name: str, fn, outermost: bool = False):
    """Wrap ``fn`` in a span; with ``outermost``, calls nested in a same-name span pass through."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if outermost and tracer.is_open(name):
            return fn(*args, **kwargs)
        frame = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)

    return wrapper


def _counted_property(tracer: Tracer, name: str, prop: property) -> property:
    fget = prop.fget

    def counted(self):
        tracer.tick(name)
        return fget(self)

    return property(counted, doc=prop.__doc__)


def _driver(tracer: Tracer, name: str, fn):
    """Simulation loop: counts its rounds and records self time per round."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        T = int(signature.bind(*args, **kwargs).arguments["T"])
        tracer.rounds[name] += T
        frame = tracer.enter(name)
        tracer.drivers.append(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.drivers.pop()
            _, self_dur = tracer.exit(frame)
            tracer.samples[name + ".self_per_round"].append(self_dur / T)

    return wrapper


def _post_hoc(tracer: Tracer, name: str, fn):
    """Post-hoc regret work: stream evaluations inside it count as post-hoc."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.post_hoc_depth += 1
        frame = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
            tracer.post_hoc_depth -= 1

    return wrapper


def install(tracer: Tracer) -> Patches:
    """Wrap the layer boundaries of every loaded ``dualavg`` module."""
    patches = Patches()
    try:
        _install(tracer, patches)
    except BaseException:
        patches.restore()
        raise
    return patches


def _install(tracer: Tracer, patches: Patches) -> None:
    from dualavg import bandit, baselines, cli, config, dual_averaging, grids, losses, regret
    from dualavg import regularizers

    # -- drivers -----------------------------------------------------------
    patches.function(dual_averaging.run_da,
                     _driver(tracer, "dual_averaging.run_da", dual_averaging.run_da))
    patches.function(bandit.run_bda, _driver(tracer, "bandit.run_bda", bandit.run_bda))
    patches.function(baselines.run_exp3,
                     _driver(tracer, "baselines.run_exp3", baselines.run_exp3))

    # -- grids -------------------------------------------------------------
    for cls in (grids.GridFunction, grids.Density):
        patches.attribute(cls, "__init__",
                          _span(tracer, "grids.gridfunction_init", cls.__dict__["__init__"],
                                outermost=True))
    patches.attribute(grids.Grid, "cell_index",
                      _span(tracer, "grids.cell_index", grids.Grid.cell_index))
    for prop in ("steps", "cell_volume", "cell_diameter"):
        patches.attribute(grids.Grid, prop,
                          _counted_property(tracer, "grids.grid_geometry",
                                            grids.Grid.__dict__[prop]))
    patches.function(grids.sample, _span(tracer, "grids.sample", grids.sample))

    ball_patch = grids.ball_patch

    @functools.wraps(ball_patch)
    def traced_ball_patch(grid, x, delta):
        frame = tracer.enter("grids.ball_patch")
        try:
            indices, volume = ball_patch(grid, x, delta)
        finally:
            tracer.exit(frame)
        tracer.counts["ball_patch.cells"] += int(indices.size)
        return indices, volume

    patches.function(ball_patch, traced_ball_patch)

    # -- regularizers ------------------------------------------------------
    mirror = regularizers.mirror

    @functools.wraps(mirror)
    def traced_mirror(reg, y):
        tracer.families.append(reg.family)
        frame = tracer.enter(f"regularizers.mirror.{reg.family}")
        try:
            return mirror(reg, y)
        finally:
            tracer.exit(frame)
            tracer.families.pop()

    patches.function(mirror, traced_mirror)

    bisect = regularizers._bisect_multiplier

    @functools.wraps(bisect)
    def traced_bisect(phi, lo, hi, *args, **kwargs):
        family = tracer.families[-1] if tracer.families else "unknown"
        evals = 0
        last = [None, None]

        def counted_phi(lam):
            nonlocal evals
            evals += 1
            value = phi(lam)
            last[0], last[1] = lam, value
            return value

        root = bisect(counted_phi, lo, hi, *args, **kwargs)
        residual = last[1] if root == last[0] else phi(root)
        tracer.counts[f"phi_evals.{family}"] += evals
        tracer.counts["bisect.calls"] += 1
        if not abs(residual) <= UNCONVERGED_TOL:
            tracer.counts["bisect.unconverged"] += 1
        return root

    patches.function(bisect, traced_bisect)

    # -- losses ------------------------------------------------------------
    basis_combine = losses._TrigBasis.combine

    @functools.wraps(basis_combine)
    def counted_combine(self, amplitudes, phases):
        tracer.counts["trig.combine"] += 1
        return basis_combine(self, amplitudes, phases)

    patches.attribute(losses._TrigBasis, "combine", counted_combine)

    def stream_values(fn):
        @functools.wraps(fn)
        def wrapper(self, t):
            if tracer.is_open("losses.stream_values"):
                return fn(self, t)
            combines = tracer.counts["trig.combine"]
            frame = tracer.enter("losses.stream_values")
            try:
                return fn(self, t)
            finally:
                tracer.exit(frame)
                if tracer.drivers and tracer.counts["trig.combine"] == combines:
                    tracer.counts["stream_values.sim_hits"] += 1
                if tracer.post_hoc_depth:
                    tracer.counts["post_hoc.stream_evals"] += 1

        return wrapper

    for cls in (losses.TrigStream, losses.PayoffStream):
        patches.attribute(cls, "values", stream_values(cls.__dict__["values"]))
    for cls in (losses.ExactChannel, losses.UnbiasedChannel, losses.BiasedChannel,
                losses.BanditChannel):
        patches.attribute(cls, "observe",
                          _span(tracer, "losses.observe", cls.__dict__["observe"]))

    # -- baselines ---------------------------------------------------------
    patches.function(baselines.exp3_probabilities,
                     _span(tracer, "baselines.exp3_probabilities",
                           baselines.exp3_probabilities))

    # -- regret ------------------------------------------------------------
    patches.attribute(regret.TraceRecorder, "record",
                      _span(tracer, "regret.record", regret.TraceRecorder.record))
    patches.function(regret.static_regret,
                     _span(tracer, "regret.static_regret", regret.static_regret))
    patches.function(regret.window_decomposition,
                     _post_hoc(tracer, "regret.window_decomposition",
                               regret.window_decomposition))
    patches.function(losses.variation, _post_hoc(tracer, "regret.variation", losses.variation))

    cumulative_grid = regret.RegretTrace.cumulative_grid

    @functools.wraps(cumulative_grid)
    def traced_cumulative_grid(self, T):
        evals = tracer.counts["post_hoc.stream_evals"]
        tracer.post_hoc_depth += 1
        try:
            return cumulative_grid(self, T)
        finally:
            tracer.post_hoc_depth -= 1
            tracer.tick("regret.cumulative_grid")
            if tracer.counts["post_hoc.stream_evals"] != evals:
                tracer.counts["cumulative_grid.recomputes"] += 1

    patches.attribute(regret.RegretTrace, "cumulative_grid", traced_cumulative_grid)

    fit_slope = regret.fit_slope

    @functools.wraps(fit_slope)
    def traced_fit_slope(horizons, values):
        tracer.tick("regret.fit_slope")
        try:
            return fit_slope(horizons, values)
        except Exception:
            tracer.counts["fit_slope.failures"] += 1
            raise

    patches.function(fit_slope, traced_fit_slope)

    # -- config and cli ----------------------------------------------------
    for method in ("build_grid", "build_stream", "build_channel", "build_regularizer",
                   "eta_schedule", "bda_config", "checkpoints"):
        patches.attribute(config.ExperimentConfig, method,
                          _span(tracer, "config.build",
                                config.ExperimentConfig.__dict__[method], outermost=True))

    run_seed = config.run_seed

    @functools.wraps(run_seed)
    def traced_run_seed(cfg, seed):
        build_before = tracer.totals["config.build"]
        frame = tracer.enter("config.run_seed")
        try:
            return run_seed(cfg, seed)
        finally:
            tracer.exit(frame)
            tracer.samples["config.build.per_run_seed"].append(
                tracer.totals["config.build"] - build_before)

    patches.function(run_seed, traced_run_seed)
    patches.function(cli.run_command, _span(tracer, "cli.run_command", cli.run_command))


# ---------------------------------------------------------------------------
# Per-layer metrics.
# ---------------------------------------------------------------------------

def _median_p99(values, scale: float) -> tuple[float, float, int]:
    if not values:
        return 0.0, 0.0, 0
    arr = np.asarray(values, dtype=float) * scale
    return float(np.median(arr)), float(np.percentile(arr, 99)), int(arr.size)


# Timing metrics: name -> (unit, how to get samples from a tracer, scale).
# Each is reported as its median, plus ``<name>.p99``; sample counts go to the
# result detail.
def _timing_sources():
    def durations(key):
        return lambda tr: tr.durations.get(key, [])

    def self_durations(key):
        return lambda tr: tr.self_durations.get(key, [])

    def samples(key):
        return lambda tr: tr.samples.get(key, [])

    table = {
        "dual_averaging.run_da.self_us_per_round":
            ("us", samples("dual_averaging.run_da.self_per_round"), 1e6),
        "grids.gridfunction_init.us_per_call":
            ("us", durations("grids.gridfunction_init"), 1e6),
        "grids.cell_index.us_per_call": ("us", durations("grids.cell_index"), 1e6),
        "grids.sample.us_per_call": ("us", durations("grids.sample"), 1e6),
        "grids.ball_patch.us_per_call": ("us", durations("grids.ball_patch"), 1e6),
    }
    for fam in _FAMILIES:
        table[f"regularizers.mirror.{fam}.us_per_call"] = (
            "us", durations(f"regularizers.mirror.{fam}"), 1e6)
    table.update({
        "losses.stream_values.us_per_call": ("us", durations("losses.stream_values"), 1e6),
        "losses.observe.us_per_call": ("us", durations("losses.observe"), 1e6),
        "bandit.run_bda.self_us_per_round":
            ("us", samples("bandit.run_bda.self_per_round"), 1e6),
        "baselines.run_exp3.self_us_per_round":
            ("us", samples("baselines.run_exp3.self_per_round"), 1e6),
        "regret.record.us_per_call": ("us", durations("regret.record"), 1e6),
        "regret.window_decomposition.s": ("s", durations("regret.window_decomposition"), 1.0),
        "regret.variation.s": ("s", durations("regret.variation"), 1.0),
        "regret.static_regret.us_per_call": ("us", durations("regret.static_regret"), 1e6),
        "config.run_seed.s": ("s", durations("config.run_seed"), 1.0),
        "config.build.s": ("s", samples("config.build.per_run_seed"), 1.0),
        "cli.run_command.self_s": ("s", self_durations("cli.run_command"), 1.0),
    })
    return table


_TIMINGS = _timing_sources()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _counts(tr: Tracer) -> dict:
    """Work counts of one traced repetition; deterministic for a fixed input."""
    per_round = tr.per_round
    out = {
        "grids.gridfunction_init.calls_per_round": ("calls/round",
                                                    per_round("grids.gridfunction_init")),
        "grids.cell_index.calls_per_round": ("calls/round", per_round("grids.cell_index")),
        "grids.grid_geometry.calls_per_round": ("calls/round",
                                                per_round("grids.grid_geometry")),
        "grids.ball_patch.cells_per_call": ("cells/call",
                                            _ratio(tr.counts["ball_patch.cells"],
                                                   tr.calls["grids.ball_patch"])),
    }
    for fam in _BISECT_FAMILIES:
        out[f"regularizers.mirror.{fam}.phi_evals_per_call"] = (
            "evals/call",
            _ratio(tr.counts[f"phi_evals.{fam}"], tr.calls[f"regularizers.mirror.{fam}"]))
    out.update({
        "regularizers.mirror.unconverged_frac": (
            "fraction", _ratio(tr.counts["bisect.unconverged"], tr.counts["bisect.calls"])),
        "losses.stream_values.calls_per_round": ("calls/round",
                                                 per_round("losses.stream_values")),
        "losses.stream_values.hit_frac": (
            "fraction", _ratio(tr.counts["stream_values.sim_hits"],
                               sum(c for (_, n), c in tr.sim_calls.items()
                                   if n == "losses.stream_values"))),
        "baselines.exp3_probabilities.calls_per_round": (
            "calls/round", per_round("baselines.exp3_probabilities")),
        "regret.post_hoc.stream_evals": ("count", float(tr.counts["post_hoc.stream_evals"])),
        "regret.cumulative_grid.recomputes": (
            "count", float(tr.counts["cumulative_grid.recomputes"])),
        "regret.fit_slope.fail_frac": (
            "fraction", _ratio(tr.counts["fit_slope.failures"], tr.calls["regret.fit_slope"])),
    })
    return out


COUNT_METRICS = tuple(_counts(Tracer()))


def count_signature(tr: Tracer) -> dict:
    """Every count a repetition produced, including span call counts."""
    sig = {name: value for name, (_, value) in _counts(tr).items()}
    sig.update({f"calls.{k}": v for k, v in sorted(tr.calls.items())})
    sig.update({f"counts.{k}": v for k, v in sorted(tr.counts.items())})
    sig.update({f"rounds.{k}": v for k, v in sorted(tr.rounds.items())})
    return sig


def layer_metrics(tracers: list[Tracer], overhead_frac: float) -> tuple[dict, dict]:
    """Per-layer metrics of traced repetitions, and the sample count of each timing.

    Counts come from the first repetition (callers check that all agree);
    timing samples are pooled over all repetitions.
    """
    metrics = {name: {"value": float(value), "unit": unit}
               for name, (unit, value) in _counts(tracers[0]).items()}
    samples = {}
    for name, (unit, source, scale) in _TIMINGS.items():
        pooled = [v for tr in tracers for v in source(tr)]
        median, p99, n = _median_p99(pooled, scale)
        metrics[name] = {"value": median, "unit": unit}
        samples[name] = n
        metrics[name + ".p99"] = {"value": p99, "unit": unit}
    metrics["trace.overhead_frac"] = {"value": float(overhead_frac), "unit": "fraction"}
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        raise ValueError("non-finite per-layer metric")
    return metrics, samples


# Every per-layer metric name with its unit, in report order.
PER_LAYER = tuple((name, m["unit"]) for name, m in layer_metrics([Tracer()], 0.0)[0].items())
