"""deltalab: delta-like kernel sequences, singular-moment kernels, and
one-dimensional point-interaction quantum mechanics.

The package has three layers:

- kernels / distint: unit-mass kernel families, adaptive quadrature
  against them, and width-schedule extrapolation of distributional
  pairings;
- singular / breve: kernels with prescribed behavior on power-law
  singular directions, and box-well regularizers with exact endpoint
  conventions;
- qm1d: transfer-matrix scattering, bound states, Bloch bands, and
  grid-based Darboux transforms realizing the point limits dynamically.
"""

from .kernels import (
    KERNEL_KINDS,
    MAX_DERIVATIVE_ORDER,
    DeltaKernel,
    UnsupportedDerivativeError,
    default_window,
    eval_kernel,
    heaviside_smooth,
    kernel_breakpoints,
    kernel_mass,
)
from .quadrature import (
    NonFiniteIntegrandError,
    QuadratureBudgetError,
    adaptive_quadrature,
    gauss_kronrod_panel,
)
from .distint import (
    DEFAULT_SCHEDULE,
    ActionKind,
    EpsilonSchedule,
    LimitEstimate,
    accelerated_limit,
    action_samples,
    distribution_action,
    epsilon_limit,
    integrate_against,
)
from .singular import (
    DEFAULT_SINGULAR_SCHEDULE,
    SingularDelta,
    SingularOrderError,
    singular_action,
    singular_alpha,
    singular_moment_identity,
    smooth_at_origin,
)
from .breve import (
    WellKernel,
    breve_action,
    breve_sample,
    delta_prime_action,
    delta_prime_sample,
    eval_well,
)
from .expr import ExpressionError, make_function, parse, to_source

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "KERNEL_KINDS",
    "MAX_DERIVATIVE_ORDER",
    "DeltaKernel",
    "UnsupportedDerivativeError",
    "default_window",
    "eval_kernel",
    "heaviside_smooth",
    "kernel_breakpoints",
    "kernel_mass",
    "NonFiniteIntegrandError",
    "QuadratureBudgetError",
    "adaptive_quadrature",
    "gauss_kronrod_panel",
    "DEFAULT_SCHEDULE",
    "DEFAULT_SINGULAR_SCHEDULE",
    "ActionKind",
    "EpsilonSchedule",
    "LimitEstimate",
    "accelerated_limit",
    "action_samples",
    "distribution_action",
    "epsilon_limit",
    "integrate_against",
    "SingularDelta",
    "SingularOrderError",
    "singular_action",
    "singular_alpha",
    "singular_moment_identity",
    "smooth_at_origin",
    "WellKernel",
    "breve_action",
    "breve_sample",
    "delta_prime_action",
    "delta_prime_sample",
    "eval_well",
    "ExpressionError",
    "make_function",
    "parse",
    "to_source",
]
