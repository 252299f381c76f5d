"""Unit-mass kernel families that sharpen to a point mass as width -> 0.

Four families are provided, each normalized so the integral over the real
line is exactly 1 for every width eps > 0:

    gaussian    exp(-z^2 / 2 eps^2) / (eps sqrt(2 pi))
    box         1 / (2 eps) on |z| <= eps (closed support), else 0
    lorentzian  eps / (pi (z^2 + eps^2))
    sinc        sin(z / eps) / (pi z), oscillatory with frequency 1 / eps

Values, derivatives up to order 4 (closed forms, not finite differences),
and partial masses over intervals are exposed.  Evaluation goes through
|z| with an explicit parity factor, so evenness of the kernel and the
alternating parity of its derivatives hold exactly in floating point,
not just up to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "KERNEL_KINDS",
    "MAX_DERIVATIVE_ORDER",
    "UnsupportedDerivativeError",
    "DeltaKernel",
    "eval_kernel",
    "kernel_mass",
    "kernel_breakpoints",
    "default_window",
    "heaviside_smooth",
]

KERNEL_KINDS = ("gaussian", "box", "lorentzian", "sinc")
MAX_DERIVATIVE_ORDER = 4

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_FACTORIAL = (1.0, 1.0, 2.0, 6.0, 24.0)

# Widths of the window on which each family carries essentially all of its
# mass (or, for slowly decaying tails, a practical truncation; see
# default_window).
_GAUSSIAN_WINDOW_SIGMAS = 12.0
_LORENTZIAN_WINDOW = 8.0
_SINC_BASE_WINDOW = 1.0


class UnsupportedDerivativeError(ValueError):
    """Requested a derivative the kernel family does not possess."""


def _validate_order(order: int) -> int:
    if not isinstance(order, int) or isinstance(order, bool):
        raise TypeError("derivative order must be an int")
    if order < 0 or order > MAX_DERIVATIVE_ORDER:
        raise UnsupportedDerivativeError(
            f"derivative order must be in 0..{MAX_DERIVATIVE_ORDER}, got {order}"
        )
    return order


def _hermite_prob(n: int, x: float) -> float:
    # He_n via the recurrence He_{n+1} = x He_n - n He_{n-1}.
    if n == 0:
        return 1.0
    prev, cur = 1.0, x
    for k in range(1, n):
        prev, cur = cur, x * cur - k * prev
    return cur


def _gaussian_deriv(eps: float, s: float, order: int) -> float:
    t = s / eps
    phi = math.exp(-0.5 * t * t) / _SQRT_2PI
    sign = -1.0 if order % 2 else 1.0
    return sign * _hermite_prob(order, t) * phi / eps ** (order + 1)


def _lorentzian_deriv(eps: float, s: float, order: int) -> float:
    # d^n/dz^n of (1/pi) Im[1/(z - i eps)] = (1/pi) Im[(-1)^n n! (z - i eps)^-(n+1)].
    c = complex(s, -eps) ** (-(order + 1))
    sign = -1.0 if order % 2 else 1.0
    return sign * _FACTORIAL[order] * c.imag / math.pi


def _sinc_core_deriv(order: int, u: float) -> float:
    """n-th derivative of sin(u)/u, valid for all real u."""
    au = abs(u)
    if au < 0.5:
        # Taylor series of sin(u)/u = sum_j (-1)^j u^(2j) / (2j+1)!,
        # differentiated term by term; 12 terms bound the truncation far
        # below machine precision on |u| < 0.5.
        total = 0.0
        fact = 1.0  # (2j+1)!
        upow = 1.0  # u^(2j) before differentiation
        for j in range(12):
            m = 2 * j
            if m >= order:
                coeff = 1.0
                for i in range(order):
                    coeff *= m - i
                term = coeff * u ** (m - order) / fact
                if j % 2:
                    term = -term
                total += term
            fact *= (2 * j + 2) * (2 * j + 3)
        return total
    # Leibniz on sin(u) * u^-1:
    # d^m sin = sin(u + m pi/2); d^p u^-1 = (-1)^p p! u^-(p+1).
    total = 0.0
    for m in range(order + 1):
        p = order - m
        binom = math.comb(order, m)
        ds = math.sin(u + 0.5 * math.pi * m)
        dp = _FACTORIAL[p] / u ** (p + 1)
        if p % 2:
            dp = -dp
        total += binom * ds * dp
    return total


def eval_kernel(kind: str, eps: float, zeta: float, order: int = 0) -> float:
    """Evaluate a kernel or one of its derivatives at a point.

    Args:
        kind: one of KERNEL_KINDS.
        eps: kernel width, > 0.
        zeta: evaluation point.
        order: derivative order, 0..4.  The box kernel has no classical
            derivative and rejects order > 0.

    The point zeta is folded to |zeta| and the parity factor (-1)^order is
    applied for zeta < 0, so k(-z) == k(z) holds exactly.
    """
    _validate_kind(kind)
    _validate_width(eps)
    order = _validate_order(order)
    s = abs(zeta)
    parity = -1.0 if (zeta < 0.0 and order % 2) else 1.0

    if kind == "gaussian":
        return parity * _gaussian_deriv(eps, s, order)
    if kind == "box":
        if order > 0:
            raise UnsupportedDerivativeError(
                "box kernel has no classical derivative (order > 0 requested)"
            )
        return 1.0 / (2.0 * eps) if s <= eps else 0.0
    if kind == "lorentzian":
        return parity * _lorentzian_deriv(eps, s, order)
    # sinc: k(z) = sin(K z) / (pi z) = (K / pi) f(K z) with f = sin(u)/u,
    # so the n-th derivative is (K^(n+1) / pi) f^(n)(K z).
    freq = 1.0 / eps
    return parity * freq ** (order + 1) / math.pi * _sinc_core_deriv(order, freq * s)


def _phi_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def kernel_mass(kind: str, eps: float, a: float, b: float) -> float:
    """Mass of the kernel over [a, b], by closed form.

    Infinite endpoints are accepted for the gaussian, box, and lorentzian
    families.  The sinc kernel is not absolutely integrable, so its mass is
    defined only on finite intervals (via the sine integral) and infinite
    endpoints raise ValueError.
    """
    _validate_kind(kind)
    _validate_width(eps)
    if not a <= b:
        raise ValueError(f"interval endpoints must satisfy a <= b, got ({a}, {b})")

    if kind == "gaussian":
        hi = 1.0 if math.isinf(b) and b > 0 else _phi_cdf(b / eps)
        lo = 0.0 if math.isinf(a) and a < 0 else _phi_cdf(a / eps)
        return hi - lo
    if kind == "box":
        lo = max(a, -eps)
        hi = min(b, eps)
        return max(hi - lo, 0.0) / (2.0 * eps)
    if kind == "lorentzian":
        return (math.atan2(b, eps) - math.atan2(a, eps)) / math.pi
    if math.isinf(a) or math.isinf(b):
        raise ValueError("sinc mass is defined only on finite intervals")
    from scipy.special import sici

    freq = 1.0 / eps
    si_b = sici(freq * b)[0]
    si_a = sici(freq * a)[0]
    return float(si_b - si_a) / math.pi


def kernel_breakpoints(kind: str, eps: float, a: float, b: float) -> list[float]:
    """Interior points where the integrand structure changes on (a, b).

    Box: the support edges.  Sinc: the zeros of sin(z / eps).  Smooth
    families: none.  Used to seed quadrature panels.
    """
    _validate_kind(kind)
    _validate_width(eps)
    out: list[float] = []
    if kind == "box":
        out = [-eps, eps]
    elif kind == "sinc":
        period = math.pi * eps
        j_lo = math.floor(a / period)
        j_hi = math.ceil(b / period)
        out = [j * period for j in range(j_lo, j_hi + 1) if j != 0]
    return [p for p in out if a < p < b]


def default_window(kind: str, eps: float) -> tuple[float, float]:
    """Integration window carrying the kernel's usable mass.

    Gaussian and box windows scale with eps.  The lorentzian window is a
    fixed interval: its slow tails would otherwise force exponentially
    large windows on which generic test functions overflow, so the tail
    mass outside the window is handled by normalization in the integral
    drivers rather than by widening the window.  The sinc window is the
    fixed base interval on which its oscillatory integrals are resolved.
    """
    _validate_kind(kind)
    _validate_width(eps)
    if kind == "gaussian":
        w = _GAUSSIAN_WINDOW_SIGMAS * eps
        return (-w, w)
    if kind == "box":
        return (-eps, eps)
    if kind == "lorentzian":
        return (-_LORENTZIAN_WINDOW, _LORENTZIAN_WINDOW)
    return (-_SINC_BASE_WINDOW, _SINC_BASE_WINDOW)


def heaviside_smooth(eps: float, zeta: float) -> float:
    """Smoothed unit step whose derivative is the gaussian kernel.

    Equals the gaussian mass on (-inf, zeta]; takes the value 1/2 at 0.
    """
    _validate_width(eps)
    return _phi_cdf(zeta / eps)


def _validate_kind(kind: str) -> None:
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}; expected one of {KERNEL_KINDS}")


def _validate_width(eps: float) -> None:
    """The package's one width check, shared by every width-taking entry point."""
    if not (isinstance(eps, (int, float)) and math.isfinite(eps) and eps > 0):
        raise ValueError(f"width must be a finite positive number, got {eps!r}")


@dataclass(frozen=True)
class DeltaKernel:
    """A kernel family member at a fixed width."""

    kind: str
    width: float

    def __post_init__(self) -> None:
        _validate_kind(self.kind)
        _validate_width(self.width)

    def __call__(self, zeta: float, order: int = 0) -> float:
        return eval_kernel(self.kind, self.width, zeta, order)

    def mass(self, a: float, b: float) -> float:
        return kernel_mass(self.kind, self.width, a, b)

    def breakpoints(self, a: float, b: float) -> list[float]:
        return kernel_breakpoints(self.kind, self.width, a, b)

    def default_window(self) -> tuple[float, float]:
        return default_window(self.kind, self.width)
