"""Online non-convex learning over box domains via dual averaging.

Mixed strategies are piecewise-constant densities on a uniform grid; the
learners are dual averaging with full-function (possibly inexact) feedback
and its kernel-smoothed bandit variant, plus EXP3-on-a-lattice and uniform
baselines.  A regret harness grades traces against fixed and per-round
comparators and fits empirical growth rates.
"""

from .bandit import BDAConfig, kernel_estimate, mixed_strategy, run_bda
from .baselines import exp3_probabilities, run_exp3, run_uniform
from .dual_averaging import run_da
from .errors import (
    ConfigError,
    DomainError,
    GridMismatchError,
    NumericalError,
    ResolutionError,
)
from .grids import (
    BoxDomain,
    Density,
    Grid,
    GridFunction,
    ball_patch,
    integrate,
    l1_distance,
    pair,
    sample,
    sup_norm,
)
from .losses import (
    BanditChannel,
    BiasedChannel,
    ExactChannel,
    Observation,
    TrigStream,
    UnbiasedChannel,
    default_trig_stream,
    to_payoff,
    variation,
)
from .regret import (
    RegretTrace,
    SlopeFit,
    default_checkpoints,
    dynamic_regret,
    fit_slope,
    neighborhood_comparator,
    regret_vs_comparator,
    regret_vs_point,
    static_regret,
    window_decomposition,
)
from .regularizers import (
    Regularizer,
    ambient_distance,
    burg,
    conjugate,
    energy,
    fenchel_coupling,
    hval,
    hvol,
    mirror,
    negentropy,
    quadratic,
    tsallis,
)
from .schedules import Schedule

__version__ = "0.1.0"
