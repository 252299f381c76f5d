"""Deterministic adaptive quadrature on a panel list.

The integrator is a classical embedded Gauss-Kronrod pair (7-point Gauss
inside a 15-point Kronrod extension) with worst-panel bisection.  It is
deliberately minimal: no randomization, no extrapolation, no caching of
function values across calls, so that repeated runs produce bit-identical
results.  Integrands in this package are smooth away from a known finite
set of breakpoints (kernel edges, oscillation zeros, a possible puncture
at the origin), and those breakpoints are supplied up front as initial
panel boundaries.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Sequence

__all__ = [
    "NonFiniteIntegrandError",
    "QuadratureBudgetError",
    "adaptive_quadrature",
    "gauss_kronrod_panel",
]

# 15-point Kronrod abscissae on [-1, 1] (non-negative half; the rule is
# symmetric).  Even-indexed entries extend the 7-point Gauss rule, whose
# nodes are the odd-indexed entries.
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
)

_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)

# 7-point Gauss weights, matching _XGK[1], _XGK[3], _XGK[5], _XGK[7].
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

# Error acceptance never goes below this multiple of the roundoff scale of
# the accumulated |f| integral; asking for more is asking for noise.
_ROUNDOFF_FACTOR = 50.0
_EPS = math.ulp(1.0)


class NonFiniteIntegrandError(ValueError):
    """Raised when the integrand returns inf or nan at a node."""


class QuadratureBudgetError(RuntimeError):
    """Raised when the panel budget is exhausted before the tolerance is met.

    Attributes:
        estimate: best integral estimate at the point of failure.
        error_bound: accumulated error bound for that estimate.
    """

    def __init__(self, estimate: float, error_bound: float, panels: int):
        super().__init__(
            f"quadrature budget exhausted after {panels} panels: "
            f"estimate={estimate!r}, error_bound={error_bound!r}"
        )
        self.estimate = estimate
        self.error_bound = error_bound
        self.panels = panels


def gauss_kronrod_panel(
    f: Callable[[float], float], a: float, b: float
) -> tuple[float, float, float]:
    """Evaluate the G7/K15 pair on one panel.

    Returns (kronrod_value, error_estimate, kronrod_value_of_abs_f).
    The error estimate is |K15 - G7|, which in practice bounds the error
    of the Kronrod value on smooth integrands.
    """
    center = 0.5 * (a + b)
    halfwidth = 0.5 * (b - a)
    fk = 0.0
    fg = 0.0
    fabs = 0.0
    for i, x in enumerate(_XGK):
        wk = _WGK[i]
        if x == 0.0:
            v = f(center)
            if not math.isfinite(v):
                raise NonFiniteIntegrandError(f"integrand returned non-finite value at {center!r}")
            fk += wk * v
            fg += _WG[3] * v
            fabs += wk * abs(v)
            continue
        lo = f(center - halfwidth * x)
        hi = f(center + halfwidth * x)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            bad = center - halfwidth * x if not math.isfinite(lo) else center + halfwidth * x
            raise NonFiniteIntegrandError(f"integrand returned non-finite value at {bad!r}")
        fk += wk * (lo + hi)
        fabs += wk * (abs(lo) + abs(hi))
        if i % 2 == 1:
            fg += _WG[i // 2] * (lo + hi)
    return halfwidth * fk, abs(halfwidth * (fk - fg)), halfwidth * fabs


def adaptive_quadrature(
    f: Callable[[float], float],
    points: Sequence[float],
    tol: float = 1e-10,
    max_panels: int = 4096,
) -> float:
    """Integrate f over [points[0], points[-1]] with breakpoints at points.

    Args:
        f: scalar integrand, finite on the open panels.
        points: sorted panel boundaries; duplicates collapse to nothing.
        tol: absolute error target.  The effective target is
            max(tol, 50 * eps * integral of |f|), so demands below the
            roundoff floor of the integrand are satisfied at that floor.
        max_panels: bisection budget; the package's drivers all rely on
            this default.

    Raises:
        QuadratureBudgetError: the budget ran out above tolerance.  The
            exception carries the best estimate and its error bound.
    """
    if len(points) < 2:
        raise ValueError("need at least two panel boundaries")
    pts = [float(p) for p in points]
    for lo, hi in zip(pts, pts[1:]):
        if hi < lo:
            raise ValueError("panel boundaries must be sorted")
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    # Heap of (-error, a, b, value, abs_value); ties broken by interval
    # position so the refinement order is reproducible.
    heap: list[tuple[float, float, float, float, float]] = []
    total = 0.0
    total_err = 0.0
    total_abs = 0.0
    n_panels = 0
    for a, b in zip(pts, pts[1:]):
        if a == b:
            continue
        val, err, vabs = gauss_kronrod_panel(f, a, b)
        heapq.heappush(heap, (-err, a, b, val, vabs))
        total += val
        total_err += err
        total_abs += vabs
        n_panels += 1

    if n_panels == 0:
        return 0.0

    while True:
        floor = _ROUNDOFF_FACTOR * _EPS * total_abs
        if total_err <= max(tol, floor):
            return total
        if n_panels >= max_panels:
            raise QuadratureBudgetError(total, total_err, n_panels)
        neg_err, a, b, val, vabs = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # Panel at floating-point resolution; keep its contribution and
            # drop it from further refinement.
            total_err += neg_err  # neg_err is -err
            if not heap:
                return total
            continue
        lv, le, labs_ = gauss_kronrod_panel(f, a, mid)
        rv, re, rabs = gauss_kronrod_panel(f, mid, b)
        total += (lv + rv) - val
        total_err += (le + re) + neg_err
        total_abs += (labs_ + rabs) - vabs
        heapq.heappush(heap, (-le, a, mid, lv, labs_))
        heapq.heappush(heap, (-re, mid, b, rv, rabs))
        n_panels += 1
