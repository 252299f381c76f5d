"""Box-well regularizers: deep narrow wells and their signed split.

Two piecewise-constant families on the closed support |z| <= eps:

    breve        -1/eps^2 on [-eps, eps], 0 outside
    delta_prime  +1/eps^2 on [-eps, 0), -1/eps^2 on (0, eps], 0 at z = 0
                 and outside

The breve well has divergent mass (-2/eps), but weighted by |z| it acts
as minus a point mass: <|z| breve, f> -> -f(0).  The signed pair acts as
the derivative-type pairing <delta_prime, f> -> -f'(0).  For z != 0 the
identity

    delta_prime(z) = breve(z) H(z) - breve(z) H(-z)

holds exactly in floating point with the exact unit step H, including at
the support endpoints, because the supports are closed and the endpoint
values are chosen to match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .distint import (
    DEFAULT_SCHEDULE,
    EpsilonSchedule,
    LimitEstimate,
    accelerated_limit,
)
from .kernels import _validate_width
from .quadrature import adaptive_quadrature

__all__ = [
    "WELL_KINDS",
    "WEIGHT_KINDS",
    "WellKernel",
    "eval_well",
    "breve_sample",
    "breve_action",
    "delta_prime_sample",
    "delta_prime_action",
]

WELL_KINDS = ("breve", "delta_prime")
WEIGHT_KINDS = (None, "abs_zeta")

def _validate_weight(weight: str | None) -> None:
    if weight not in WEIGHT_KINDS:
        raise ValueError(f"weight must be one of {WEIGHT_KINDS}, got {weight!r}")


def eval_well(kind: str, eps: float, zeta: float) -> float:
    """Pointwise value of a well kernel, with exact endpoint conventions."""
    if kind not in WELL_KINDS:
        raise ValueError(f"unknown well kind {kind!r}; expected one of {WELL_KINDS}")
    _validate_width(eps)
    depth = 1.0 / (eps * eps)
    if kind == "breve":
        return -depth if abs(zeta) <= eps else 0.0
    if zeta == 0.0 or abs(zeta) > eps:
        return 0.0
    return depth if zeta < 0.0 else -depth


@dataclass(frozen=True)
class WellKernel:
    """A well-kernel family member at a fixed width."""

    kind: str
    width: float

    def __post_init__(self) -> None:
        if self.kind not in WELL_KINDS:
            raise ValueError(
                f"unknown well kind {self.kind!r}; expected one of {WELL_KINDS}"
            )
        _validate_width(self.width)

    def __call__(self, zeta: float) -> float:
        return eval_well(self.kind, self.width, zeta)


def breve_sample(
    f: Callable[[float], float],
    weight: str | None,
    eps: float,
    tol: float = 1e-13,
) -> float:
    """One width of the breve pairing, optionally weighted by |z|.

    Returns -(1/eps^2) times the integral of f (or |z| f) over the well.
    With the |z| weight and f == 1 the value is exactly -1 at every width.
    """
    _validate_width(eps)
    _validate_weight(weight)
    if weight == "abs_zeta":
        g = lambda z: abs(z) * f(z)
    else:
        g = f
    integral = adaptive_quadrature(g, [-eps, 0.0, eps], tol=tol * eps)
    return -integral / (eps * eps)


def breve_action(
    f: Callable[[float], float],
    weight: str | None = None,
    schedule: EpsilonSchedule | None = None,
    tol: float = 1e-13,
) -> LimitEstimate:
    """Extrapolated breve pairing.

    With the |z| weight this converges to -f(0) for continuous f.  The
    unweighted pairing diverges like -2 f(0) / eps whenever f(0) != 0 and
    the estimate reports that divergence; with f(0) == 0 it converges
    (to -2 f'' contributions of odd order zero, e.g. exactly 0 for even
    smooth f vanishing at the origin).
    """
    sched = schedule if schedule is not None else DEFAULT_SCHEDULE
    samples = [(eps, breve_sample(f, weight, eps, tol)) for eps in sched.widths()]
    return accelerated_limit(samples)


def delta_prime_sample(
    f: Callable[[float], float], eps: float, tol: float = 1e-13
) -> float:
    """One width of the signed-pair pairing.

    Returns (1/eps^2) [ integral of f over (-eps, 0) - integral over (0, eps) ],
    which converges to -f'(0).  For f(z) = z the value is exactly -1 at
    every width.
    """
    _validate_width(eps)
    left = adaptive_quadrature(f, [-eps, 0.0], tol=tol * eps)
    right = adaptive_quadrature(f, [0.0, eps], tol=tol * eps)
    return (left - right) / (eps * eps)


def delta_prime_action(
    f: Callable[[float], float],
    schedule: EpsilonSchedule | None = None,
    tol: float = 1e-13,
) -> LimitEstimate:
    """Extrapolated signed-pair pairing; the limit is -f'(0) for smooth f."""
    sched = schedule if schedule is not None else DEFAULT_SCHEDULE
    samples = [(eps, delta_prime_sample(f, eps, tol)) for eps in sched.widths()]
    return accelerated_limit(samples)
