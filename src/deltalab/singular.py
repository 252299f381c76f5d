"""Kernels that evaluate at the origin while absorbing a power singularity.

The family

    d_k(eps, z) = alpha(k, eps) |z|^k (1 - z^2/eps^2) g_eps(z)

with g_eps the gaussian kernel is normalized to unit mass at every width,
so on continuous test functions it acts like evaluation at the origin as
eps -> 0.  The polynomial factor is arranged so the pairing with the
singular direction |z|^(-k) vanishes identically at every width: second
moments of the gaussian cancel the mass term exactly.  The hatted variant

    d^hat_k(eps, z) = (1 + omega |z|^k) d_k(eps, z)

leaves the continuous-function action unchanged in the limit but assigns
the prescribed value omega to the singular direction, exactly at every
width.  Test functions of the form f + g |z|^(-k) with f and g continuous
therefore acquire the well-defined limit f(0) + omega g(0); the odd
direction 1/z^k integrates to zero against the even profile.

Two normalization conventions for alpha are available:

    numeric      unit mass at every width, computed by one quadrature of
                 the alpha = 1 profile in scaled coordinates; this is the
                 convention the action drivers use;
    closed-form  the positive reference constant
                 alpha = eps^(-k) sqrt(pi) / (2^((k+1)/2) Gamma((k+1)/2)).

Both scale as eps^(-k); their ratio is the width-independent constant
-sqrt(2)/k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .distint import (
    EpsilonSchedule,
    LimitEstimate,
    accelerated_limit,
)
from .kernels import _validate_width, eval_kernel
from .quadrature import adaptive_quadrature

__all__ = [
    "SingularOrderError",
    "SingularDelta",
    "singular_alpha",
    "singular_action",
    "singular_moment_identity",
    "smooth_at_origin",
]

ALPHA_MODES = ("numeric", "closed-form")

# The scaled profile |t|^k (1 - t^2) phi(t) is negligible beyond this |t|.
_PROFILE_WINDOW = 12.0

# The hatted correction decays only like eps^k, with coefficients that can
# dwarf the smooth part at the widest widths, so singular actions default
# to a deeper schedule than the package-wide one.  Sampling stays cheap at
# small widths because all quadrature runs in scaled coordinates.
DEFAULT_SINGULAR_SCHEDULE = EpsilonSchedule(start=0.4, ratio=0.5, steps=12)


class SingularOrderError(ValueError):
    """Declared singularity order exceeds what the kernel can absorb."""


def _validate_k(k: int) -> int:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"singularity order k must be an integer >= 1, got {k!r}")
    return k


def _validate_mode(mode: str) -> str:
    if mode not in ALPHA_MODES:
        raise ValueError(f"alpha mode must be one of {ALPHA_MODES}, got {mode!r}")
    return mode


def _std_normal(t: float) -> float:
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def _scaled_integral(fn: Callable[[float], float], tol: float) -> float:
    """Integral of fn over the profile window in scaled coordinates t = z / eps,
    with panel edges at the profile's zeros t = +-1 and at the origin."""
    return adaptive_quadrature(
        fn, [-_PROFILE_WINDOW, -1.0, 0.0, 1.0, _PROFILE_WINDOW], tol=tol
    )


@lru_cache(maxsize=None)
def _profile_mass(k: int) -> float:
    """Integral of |t|^k (1 - t^2) phi(t) over the real line.

    This is the mass of the alpha = 1 profile in scaled coordinates
    t = z / eps.  It is negative: the t^2 term carries more weight than
    the mass term for every k >= 1.
    """
    return _scaled_integral(lambda t: abs(t) ** k * (1.0 - t * t) * _std_normal(t), 1e-15)


def singular_alpha(k: int, eps: float, mode: str = "numeric") -> float:
    """Normalization constant of the singular kernel.

    numeric mode solves <d_k, 1> = 1 by one quadrature of the alpha = 1
    profile in scaled coordinates; the mass is linear in alpha and exactly
    proportional to eps^k, so alpha(k, eps) * eps^k is a width-independent
    (negative) constant.  closed-form mode is the positive reference
    constant eps^(-k) sqrt(pi) / (2^((k+1)/2) Gamma((k+1)/2)).
    """
    _validate_k(k)
    _validate_width(eps)
    _validate_mode(mode)
    if mode == "numeric":
        return 1.0 / (eps**k * _profile_mass(k))
    return (
        eps ** (-k)
        * math.sqrt(math.pi)
        / (2.0 ** ((k + 1) / 2.0) * math.gamma((k + 1) / 2.0))
    )


@dataclass(frozen=True)
class SingularDelta:
    """Singular-moment kernel of order k with prescribed value omega.

    Attributes:
        k: order of the singular direction |z|^(-k), an integer >= 1.
        singular_moment: the value omega the hatted kernel assigns to the
            declared singular direction.
        alpha_mode: normalization convention, 'numeric' or 'closed-form'.
    """

    k: int
    singular_moment: float = 0.0
    alpha_mode: str = "numeric"

    def __post_init__(self) -> None:
        _validate_k(self.k)
        _validate_mode(self.alpha_mode)
        if not math.isfinite(self.singular_moment):
            raise ValueError("singular_moment must be finite")

    def alpha(self, eps: float) -> float:
        return singular_alpha(self.k, eps, self.alpha_mode)

    def eval_plain(self, eps: float, zeta: float) -> float:
        """The unhatted profile alpha |z|^k (1 - z^2/eps^2) g_eps(z)."""
        s = abs(zeta)
        core = s**self.k * (1.0 - (s / eps) ** 2) * eval_kernel("gaussian", eps, s)
        return self.alpha(eps) * core

    def eval(self, eps: float, zeta: float) -> float:
        """The hatted kernel (1 + omega |z|^k) * plain profile."""
        s = abs(zeta)
        return (1.0 + self.singular_moment * s**self.k) * self.eval_plain(eps, zeta)


def _kernel_sample(
    kernel: SingularDelta,
    psi: Callable[[float], float],
    eps: float,
    tol: float,
    hatted: bool,
) -> float:
    # Integrate in scaled coordinates t = z / eps, where the |t|^k factor
    # of the profile cancels a declared singularity of psi analytically,
    # so the integrand is bounded and no puncture is needed (panel nodes
    # never touch t = 0).  alpha is applied after the quadrature, keeping
    # roundoff proportional to the result rather than to alpha.
    k = kernel.k
    omega = kernel.singular_moment

    def profile(t: float) -> float:
        z = eps * t
        s = abs(t)
        hat = (1.0 + omega * abs(z) ** k) if hatted else 1.0
        return psi(z) * hat * s**k * (1.0 - s * s) * _std_normal(s)

    raw = _scaled_integral(profile, tol)
    # d z = eps d t and |z|^k = eps^k |t|^k combine with the 1/eps of the
    # gaussian into a net factor eps^k against alpha ~ eps^(-k).
    return kernel.alpha(eps) * eps**k * raw


def singular_action(
    psi: Callable[[float], float],
    k: int,
    singular_moment: float = 0.0,
    schedule: EpsilonSchedule | None = None,
    singularity_order: int = 0,
    tol: float = 1e-13,
    hatted: bool = True,
    alpha_mode: str = "numeric",
) -> LimitEstimate:
    """Pairing of the (hatted) singular kernel with psi, extrapolated.

    Args:
        psi: test function; may blow up at the origin like |z|^(-s) for a
            declared order s = singularity_order.  psi is never evaluated
            at exactly 0.
        k: kernel order; the pairing assigns omega to the |z|^(-k) direction.
        singular_moment: prescribed value omega on the singular direction.
        schedule: width schedule; defaults to the module's deeper schedule.
        singularity_order: declared order of the singularity of psi at 0.
        hatted: pair with the hatted kernel when True, with the plain
            unit-mass profile otherwise.

    Raises:
        SingularOrderError: the declared singularity exceeds k.
    """
    _validate_k(k)
    if singularity_order < 0:
        raise ValueError("singularity_order must be >= 0")
    if singularity_order > k:
        raise SingularOrderError(
            f"declared singularity order {singularity_order} exceeds kernel order {k}"
        )
    kernel = SingularDelta(k, singular_moment, alpha_mode)
    sched = schedule if schedule is not None else DEFAULT_SINGULAR_SCHEDULE
    samples = [
        (eps, _kernel_sample(kernel, psi, eps, tol, hatted)) for eps in sched.widths()
    ]
    return accelerated_limit(samples)


def singular_moment_identity(k: int, eps: float, alpha_mode: str = "numeric") -> float:
    """The pairing <d_k(eps, .), |z|^(-k)>, which vanishes identically.

    The |z|^k profile factor cancels the singular direction exactly,
    leaving alpha times the integral of (1 - t^2) phi(t), whose mass and
    second-moment contributions cancel.  The returned number is therefore
    a pure quadrature-and-roundoff residual; it is computed from the
    alpha-factored profile so the cancellation error stays at machine
    scale times alpha.
    """
    _validate_k(k)
    scaled = _scaled_integral(lambda t: (1.0 - t * t) * _std_normal(t), 1e-15)
    return singular_alpha(k, eps, alpha_mode) * scaled


def smooth_at_origin(
    phi: Callable[[float], float],
    k: int = 1,
    singular_moment: float = 0.0,
    schedule: EpsilonSchedule | None = None,
    tol: float = 1e-13,
) -> float:
    """Regularized evaluation at the origin for continuous phi.

    The hatted kernel's action on a continuous function converges to
    phi(0) regardless of k and omega; this helper returns just the value.
    """
    est = singular_action(
        phi, k, singular_moment=singular_moment, schedule=schedule, tol=tol
    )
    return est.value
