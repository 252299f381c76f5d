"""Distributional pairings as limits of ordinary integrals.

A pairing <T, f> is computed by integrating f against a kernel at each
width in a geometric schedule and extrapolating the sample sequence to
zero width.  Four pairing variants are supported:

    delta       <k_eps, f>            -> f(0)
    derivative  <k_eps^(n), f>        -> (-1)^n f^(n)(0), n in 1..4
    moment      <z k_eps(z), f>       -> 0
    fourier     Dirichlet-type oscillatory pairing -> f(0)

The limit extractor works on the last three samples (one Aitken step plus
a rate fit); the action drivers refine the full sequence with repeated
Aitken passes, reporting the rate and divergence verdict from the raw
last-three fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .kernels import DeltaKernel, eval_kernel, kernel_breakpoints
from .quadrature import adaptive_quadrature

__all__ = [
    "EpsilonSchedule",
    "LimitEstimate",
    "ActionKind",
    "epsilon_limit",
    "accelerated_limit",
    "integrate_against",
    "action_samples",
    "distribution_action",
]

_FLAT_TOL = 1e-13
_NOISE_FLOOR = 1e-13
_PUNCTURE_HALFWIDTH = 1e-12
_FOURIER_BASE_WINDOW = 1.0


@dataclass(frozen=True)
class EpsilonSchedule:
    """Geometric width schedule eps_i = start * ratio**i, i = 0..steps-1."""

    start: float = 0.4
    ratio: float = 0.5
    steps: int = 8

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start) and self.start > 0):
            raise ValueError(f"schedule start must be positive, got {self.start!r}")
        if not (0.0 < self.ratio < 1.0):
            raise ValueError(f"schedule ratio must lie in (0, 1), got {self.ratio!r}")
        if self.steps < 3:
            raise ValueError(f"schedule needs at least 3 steps, got {self.steps}")

    def widths(self) -> tuple[float, ...]:
        return tuple(self.start * self.ratio**i for i in range(self.steps))


DEFAULT_SCHEDULE = EpsilonSchedule()


@dataclass(frozen=True)
class LimitEstimate:
    """Result of extrapolating a width-indexed sample sequence to zero.

    Attributes:
        value: limit estimate (nan when the sequence diverges).
        order: apparent convergence rate p in error ~ C eps^p; for a
            divergent sequence this is the growth exponent (negative);
            inf for a sequence already flat at roundoff level.
        residual: size of the last correction applied, inf on divergence.
        diverged: True when the samples grow like a negative power.
    """

    value: float
    order: float
    residual: float
    diverged: bool


def _check_samples(samples: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    out = [(float(e), float(v)) for e, v in samples]
    if len(out) < 3:
        raise ValueError("need at least 3 (eps, value) samples")
    for (e1, _), (e2, _) in zip(out, out[1:]):
        if not (e1 > e2 > 0.0):
            raise ValueError("widths must be strictly decreasing and positive")
    return out


def epsilon_limit(samples: Sequence[tuple[float, float]]) -> LimitEstimate:
    """Extrapolate (eps, value) samples to eps -> 0 using the last three.

    With v1, v2, v3 the last three values and d1 = v2 - v1, d2 = v3 - v2:

    - growth test: |v3| > |v2| > |v1| with |v3/v2| at least sqrt of the
      width ratio's inverse flags divergence; the growth exponent is
      reported as the order and the value is nan;
    - flat test: both differences below 1e-13 of scale means the sequence
      has converged to working precision; the last value is returned with
      infinite order;
    - otherwise one Aitken step gives the value and the difference ratio
      gives the rate; a non-contracting ratio (|d2| >= |d1|) falls back to
      the last sample.
    """
    pts = _check_samples(samples)
    (e1, v1), (e2, v2), (e3, v3) = pts[-3], pts[-2], pts[-1]
    d1 = v2 - v1
    d2 = v3 - v2
    r = e3 / e2
    log_r = math.log(r)

    # The growth test ignores sequences whose magnitude never leaves the
    # roundoff neighborhood of zero; those are converged-to-zero, not
    # divergent, however their trailing digits happen to be ordered.
    if (
        abs(v3) > abs(v2) > abs(v1) > 0.0
        and abs(v3) > 1e-11
        and abs(v3 / v2) >= r ** (-0.5)
    ):
        growth = math.log(abs(v3) / abs(v2)) / log_r
        return LimitEstimate(value=math.nan, order=growth, residual=math.inf, diverged=True)

    scale = max(abs(v1), abs(v2), abs(v3), 1.0)
    if abs(d1) <= _FLAT_TOL * scale and abs(d2) <= _FLAT_TOL * scale:
        return LimitEstimate(value=v3, order=math.inf, residual=abs(d2), diverged=False)

    if d1 == 0.0 or abs(d2) >= abs(d1):
        order = math.log(abs(d2 / d1)) / log_r if d1 != 0.0 and d2 != 0.0 else math.nan
        return LimitEstimate(value=v3, order=order, residual=abs(d2), diverged=False)

    order = math.log(abs(d2 / d1)) / log_r if d2 != 0.0 else math.inf
    value = v3 - d2 * d2 / (d2 - d1)
    if len(pts) >= 4:
        v0 = pts[-4][1]
        c1 = v2 - v1
        c0 = v1 - v0
        if c0 != 0.0 and abs(c1) < abs(c0):
            prev = v2 - c1 * c1 / (c1 - c0)
        else:
            prev = v2
        residual = abs(value - prev)
    else:
        residual = abs(value - v3)
    return LimitEstimate(value=value, order=order, residual=residual, diverged=False)


def _iterated_aitken(values: Sequence[float], noise: float) -> list[float]:
    """Repeated Aitken passes; returns the track of last elements per level."""
    vs = list(values)
    track = [vs[-1]]
    while len(vs) >= 3:
        nxt = []
        for j in range(len(vs) - 2):
            d1 = vs[j + 1] - vs[j]
            d2 = vs[j + 2] - vs[j + 1]
            den = d2 - d1
            scale = max(abs(vs[j + 2]), 1.0)
            if abs(den) <= 10.0 * noise * scale:
                nxt.append(vs[j + 2])
            else:
                nxt.append(vs[j + 2] - d2 * d2 / den)
        vs = nxt
        track.append(vs[-1])
    return track


def accelerated_limit(
    samples: Sequence[tuple[float, float]], noise: float = _NOISE_FLOOR
) -> LimitEstimate:
    """Limit estimate with full-sequence Aitken refinement.

    The divergence verdict and the reported order always come from the raw
    last-three fit of epsilon_limit, so the rate diagnostics describe the
    sample sequence itself, not the refined one.  On five or more samples
    the value is sharpened by repeated Aitken passes over the whole
    sequence, each pass guarded against cancellation at the noise level.
    """
    pts = _check_samples(samples)
    base = epsilon_limit(pts)
    if base.diverged or len(pts) < 5:
        return base
    track = _iterated_aitken([v for _, v in pts], noise)
    residual = abs(track[-1] - track[-2]) if len(track) >= 2 else base.residual
    return LimitEstimate(value=track[-1], order=base.order, residual=residual, diverged=False)


def integrate_against(
    f: Callable[[float], float],
    kernel: DeltaKernel,
    window: tuple[float, float] | None = None,
    tol: float = 1e-12,
    singular_origin: bool = False,
    order: int = 0,
) -> float:
    """Integral of f(z) * k^(order)(z) over the window.

    Args:
        f: integrand factor, evaluated pointwise.
        kernel: the kernel member to pair against.
        window: integration interval; defaults to the kernel's window.
        tol: absolute quadrature tolerance.
        singular_origin: when True, a symmetric sliver of half-width 1e-12
            around the origin is excluded so that integrable singularities
            of f at 0 do not poison the panel rule.
        order: kernel derivative order to pair with.
    """
    a, b = window if window is not None else kernel.default_window()
    if not a < b:
        raise ValueError(f"window must satisfy a < b, got ({a}, {b})")

    def g(z: float) -> float:
        return f(z) * kernel(z, order)

    pts = sorted({a, b, *kernel.breakpoints(a, b),
                  *(e for e in (-kernel.width, kernel.width) if a < e < b)})
    if not (a < 0.0 < b):
        return adaptive_quadrature(g, pts, tol=tol)
    # Split at the origin: it is the symmetry point of every kernel and,
    # when a singularity of f is declared there, a sliver of half-width
    # 1e-12 is excluded on both sides.
    cut = _PUNCTURE_HALFWIDTH if singular_origin else 0.0
    left_pts = [p for p in pts if p < -cut] + [-cut]
    right_pts = [cut] + [p for p in pts if p > cut]
    total = adaptive_quadrature(g, left_pts, tol=tol)
    total += adaptive_quadrature(g, right_pts, tol=tol)
    return total


@dataclass(frozen=True)
class ActionKind:
    """Pairing variant: 'delta', 'derivative', 'moment', or 'fourier'."""

    variant: str
    order: int = 0

    def __post_init__(self) -> None:
        if self.variant not in ("delta", "derivative", "moment", "fourier"):
            raise ValueError(f"unknown action variant {self.variant!r}")
        if self.variant == "derivative":
            if not 1 <= self.order <= 4:
                raise ValueError("derivative actions support orders 1..4")
        elif self.order != 0:
            raise ValueError(f"{self.variant} action takes no derivative order")

    @classmethod
    def delta(cls) -> "ActionKind":
        return cls("delta")

    @classmethod
    def derivative(cls, order: int) -> "ActionKind":
        return cls("derivative", order)

    @classmethod
    def moment(cls) -> "ActionKind":
        return cls("moment")

    @classmethod
    def fourier(cls) -> "ActionKind":
        return cls("fourier")


def _coerce_kind(kind: "ActionKind | str") -> ActionKind:
    if isinstance(kind, ActionKind):
        return kind
    return ActionKind(str(kind))


def _fourier_sample(f: Callable[[float], float], eps: float, tol: float) -> float:
    """One width of the oscillatory pairing sin(K z) / (pi z), K = 1/eps.

    The integrand is folded onto z > 0 and integrated over a whole number
    of half-periods; the window is snapped to the oscillation zeros nearest
    the base window and the partial integrals over m and m+1 half-periods
    are averaged, which cancels the leading boundary oscillation.
    """
    freq = 1.0 / eps
    period = math.pi / freq

    def folded(z: float) -> float:
        return (f(z) + f(-z)) * math.sin(freq * z) / (math.pi * z)

    m = max(1, round(_FOURIER_BASE_WINDOW * freq / math.pi))
    edges = [j * period for j in range(m + 2)]
    val_m = adaptive_quadrature(folded, edges[: m + 1], tol=tol)
    extra = adaptive_quadrature(folded, edges[m : m + 2], tol=tol)
    return val_m + 0.5 * extra


def action_samples(
    f: Callable[[float], float],
    kind: "ActionKind | str",
    kernel: str = "gaussian",
    schedule: EpsilonSchedule | None = None,
    tol: float = 1e-12,
) -> list[tuple[float, float]]:
    """Per-width pairing values, one sample per schedule width.

    The delta variant normalizes by the kernel mass over the integration
    window, which removes the truncated tail mass of slowly decaying
    kernels.  The sinc kernel and the fourier variant both route to the
    oscillatory pairing; the sinc family supports no other variant.
    """
    kind = _coerce_kind(kind)
    sched = schedule if schedule is not None else DEFAULT_SCHEDULE
    if kind.variant == "fourier" or kernel == "sinc":
        if kind.variant not in ("fourier", "delta"):
            raise ValueError("the oscillatory pairing supports only the delta-type action")
        return [(eps, _fourier_sample(f, eps, tol)) for eps in sched.widths()]

    out: list[tuple[float, float]] = []
    for eps in sched.widths():
        member = DeltaKernel(kernel, eps)
        window = member.default_window()
        if kind.variant == "delta":
            raw = integrate_against(f, member, window=window, tol=tol)
            val = raw / member.mass(*window)
        elif kind.variant == "derivative":
            val = integrate_against(f, member, window=window, tol=tol, order=kind.order)
        else:  # moment
            val = integrate_against(lambda z: f(z) * z, member, window=window, tol=tol)
        out.append((eps, val))
    return out


def distribution_action(
    f: Callable[[float], float],
    kind: "ActionKind | str",
    kernel: str = "gaussian",
    schedule: EpsilonSchedule | None = None,
    tol: float = 1e-12,
) -> LimitEstimate:
    """Pairing of a kernel-generated distribution with f, extrapolated to
    zero width.  See action_samples for the sampling conventions."""
    samples = action_samples(f, kind, kernel=kernel, schedule=schedule, tol=tol)
    return accelerated_limit(samples)
