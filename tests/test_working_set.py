"""Working-set regressions: a run holds a few full-grid arrays and never builds ``Grid.centers``.

A strategy, a score row and a model each cost one float64 per cell, so the
arrays a worker holds at once set its memory on fine grids.  The bound is
stated in full-grid arrays (8 bytes per cell).  With the (n_cells, d)
centers table, a full-grid bias profile, an allocating Newton step and the
last step's strategies held into the next solve, these runs peaked at 11.2
(Burg, quadratic) and 13.2 (Tsallis) arrays; without them, at 6.2 and 7.2.
"""

import tracemalloc

import numpy as np
import pytest

from dualavg import (
    BDAConfig,
    BiasedChannel,
    BoxDomain,
    ExactChannel,
    Grid,
    Schedule,
    UnbiasedChannel,
    burg,
    default_trig_stream,
    negentropy,
    quadratic,
    run_bda,
    run_da,
    to_payoff,
    tsallis,
)
from dualavg.baselines import run_exp3, run_uniform
from dualavg.regret import (
    dynamic_regret,
    neighborhood_comparator,
    regret_vs_comparator,
    regret_vs_point,
    static_regret,
    window_decomposition,
)

FULL_GRID_ARRAYS = 8  # most full-grid arrays a short biased-channel run may peak at


def _traced_peak(fn) -> int:
    """Peak traced bytes above the current ones while ``fn()`` runs."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("reg", [burg(), tsallis(0.5), quadratic()], ids=lambda r: r.family)
def test_biased_run_peaks_at_a_few_full_grid_arrays(reg):
    grid = Grid(BoxDomain([0.0, 0.0], [1.0, 1.0]), 128)
    stream = default_trig_stream(grid, seed=2024)
    channel = BiasedChannel(noise_scale=0.5, bias_scale=0.5, bias_decay=0.5)
    peak = _traced_peak(lambda: run_da(reg, stream, channel, Schedule(1.0, 0.5), 4,
                                       [np.random.default_rng(0)]))
    assert peak < FULL_GRID_ARRAYS * 8 * grid.n_cells, peak / (8 * grid.n_cells)


def _da(reg, channel):
    return lambda stream, rngs: run_da(reg, stream, channel, Schedule(1.0, 0.5), 9, rngs)


DRIVERS = {
    "exact": _da(negentropy(), ExactChannel()),
    "unbiased": _da(burg(), UnbiasedChannel(0.5)),
    "biased": _da(quadratic(), BiasedChannel(0.5, 0.5, 0.5)),
    "bda": lambda stream, rngs: run_bda(to_payoff(stream), BDAConfig.defaults(stream.grid), 9,
                                        rngs),
    # EXP3 plays the centers of its own 32-arm lattice grid, not the stream's.
    "exp3": lambda stream, rngs: run_exp3(to_payoff(stream), 32, 9, rngs),
    "uniform": lambda stream, rngs: run_uniform(stream, 9, rngs),
}


@pytest.mark.parametrize("driver", DRIVERS)
def test_no_run_or_regret_function_builds_the_centers_table(driver):
    grid = Grid(BoxDomain([0.0, -1.0], [1.0, 2.0]), 8)
    stream = default_trig_stream(grid, seed=5)
    traces = DRIVERS[driver](stream, [np.random.default_rng(s) for s in (0, 1)])
    for trace in traces:
        static_regret(trace), static_regret(trace, realized=True), dynamic_regret(trace)
        regret_vs_point(trace, [0.3, 0.4])
        mu, diam = neighborhood_comparator(grid, [0.3, 0.4], 0.5)
        assert diam > 0
        regret_vs_comparator(trace, mu)
        window_decomposition(trace, 3)
    assert grid._centers is None
