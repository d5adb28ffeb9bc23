"""Online bilevel optimization with Bregman proximal steps.

Library layout:

- ``geometry``: regularizers, feasible sets, and the prox and generalized
  projection under a diagonal distance generator.
- ``problems``: time-indexed oracle streams (synthetic quadratic, smoothing
  spline, toy meta-learning).
- ``hypergrad``: inner solvers, hypergradient estimators, window buffer.
- ``optimizers``: the OBBO/SOBBO loops plus OAGD, SOBOW, Adam and SGDM
  baselines.
- ``metrics``: local regret, variation, and estimator-error instrumentation.
- ``harness``: config-driven experiment runner, reporter, and validator CLI.
"""

from .geometry import (
    FeasibleSet,
    Regularizer,
    generalized_projection,
    prox_step,
)
from .hypergrad import (
    DivergenceError,
    InnerSolveResult,
    WindowBuffer,
    implicit_hypergradient,
    inner_gd,
    inner_sgd,
    itd_hypergradient,
    stochastic_hypergradient,
)
from .optimizers import (
    Adaptive,
    Euclidean,
    OagdConfig,
    ObboConfig,
    RunTrace,
    SingleLevelConfig,
    SobboConfig,
    SobowConfig,
    StepConfig,
    run_oagd,
    run_obbo,
    run_single_level,
    run_sobbo,
    run_sobow,
)
from .problems import (
    DriftSpec,
    ProblemInstant,
    SplineTask,
    make_drifting_spline_task,
    meta_toy_stream,
    quadratic_instant,
    quadratic_stream,
    spline_stream,
)

__version__ = "0.1.0"
