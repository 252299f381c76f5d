"""Independent reference values for every benchmark task.

Nothing here imports deltalab or numpy: each oracle is a closed form or a
root of a transcendental equation, computed with the standard library, so
a change to the library cannot move its own reference.

Every check returns a Verdict.  ``digits`` is the number of correct
digits, -log10(error / scale), capped at 15; it is None for checks that
test a property (flux conservation, symmetry, monotonicity) rather than a
value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MAX_DIGITS = 15.0


@dataclass(frozen=True)
class Verdict:
    ok: bool
    digits: float | None
    detail: str = ""


def digits(err: float, scale: float) -> float:
    if not math.isfinite(err):
        return 0.0
    rel = err / scale if scale > 0.0 else err
    if rel <= 10.0 ** -MAX_DIGITS:
        return MAX_DIGITS
    return max(0.0, min(MAX_DIGITS, -math.log10(rel)))


def compare(value: float, expected: float, tol: float, label: str,
            scale: float | None = None) -> Verdict:
    """Pass when |value - expected| <= tol * scale; scale defaults to
    max(1, |expected|)."""
    if scale is None:
        scale = max(1.0, abs(expected))
    err = abs(value - expected) if math.isfinite(value) else math.inf
    ok = err <= tol * scale
    return Verdict(ok, digits(err, scale),
                   "" if ok else f"{label}: got {value!r}, want {expected!r} (tol {tol:g})")


def worst(verdicts: list[Verdict]) -> Verdict:
    bad = [v for v in verdicts if not v.ok]
    digs = [v.digits for v in verdicts if v.digits is not None]
    return Verdict(not bad, min(digs) if digs else None,
                   "; ".join(v.detail for v in bad[:3]))


# -- test-function families --------------------------------------------------
#
# Each family is an expression string in z plus the exact Taylor
# coefficients d[n] = f^(n)(0), n = 0..4, derived by hand.

def family_source(name: str, p: tuple[float, ...]) -> str:
    if name == "cos":
        a, b = p
        return f"{a!r}*cos({b!r}*z)"
    if name == "sin_shift":
        a, b, c = p
        return f"{a!r}*sin({b!r}*z) + {c!r}"
    if name == "exp":
        a, b = p
        return f"{a!r}*exp({b!r}*z)"
    if name == "runge":
        a, b = p
        return f"{a!r}/(1 + {b!r}*z^2)"
    if name == "poly":
        return " + ".join(f"{c!r}*z^{n}" if n else f"{c!r}" for n, c in enumerate(p))
    raise ValueError(f"unknown family {name!r}")


def family_derivatives(name: str, p: tuple[float, ...]) -> list[float]:
    """f^(n)(0) for n = 0..4."""
    if name == "cos":
        a, b = p
        return [a, 0.0, -a * b**2, 0.0, a * b**4]
    if name == "sin_shift":
        a, b, c = p
        return [c, a * b, 0.0, -a * b**3, 0.0]
    if name == "exp":
        a, b = p
        return [a * b**n for n in range(5)]
    if name == "runge":
        # a / (1 + b z^2) = a * sum_k (-b)^k z^(2k)
        a, b = p
        return [a, 0.0, -2.0 * a * b, 0.0, 24.0 * a * b * b]
    if name == "poly":
        return [math.factorial(n) * c for n, c in enumerate(p)]
    raise ValueError(f"unknown family {name!r}")


def action_expected(family: str, p: tuple[float, ...], variant: str, order: int) -> float:
    """Zero-width limit of a kernel pairing: f(0) for delta and fourier,
    (-1)^n f^(n)(0) for the n-th derivative, 0 for the first moment."""
    d = family_derivatives(family, p)
    if variant in ("delta", "fourier"):
        return d[0]
    if variant == "derivative":
        return (-1.0) ** order * d[order]
    if variant == "moment":
        return 0.0
    raise ValueError(f"unknown variant {variant!r}")


# A check flags a wrong answer; lost digits show in the accuracy metrics.
# The tolerances are the acceptance suite's for the same pairing
# (criterion 1: delta 1e-6; criterion 2: moment 1e-8, derivative 1e-5,
# fourier 1e-3; criterion 3: singular 1e-6; criterion 4: wells 1e-8).
ACTION_TOL = {"delta": 1e-6, "derivative": 1e-5, "moment": 1e-8, "fourier": 1e-3}
SINGULAR_TOL = 1e-6
WELL_TOL = 1e-8


def check_action(task: dict, value: float) -> Verdict:
    expected = action_expected(task["family"], tuple(task["params"]),
                               task["variant"], task["order"])
    # the sinc kernel is routed to the oscillatory (fourier) pairing
    tol = ACTION_TOL["fourier" if task["kernel"] == "sinc" else task["variant"]]
    return compare(value, expected, tol, f"{task['variant']} action")


def check_singular(task: dict, value: float) -> Verdict:
    # psi = a cos(b z) + c |z|^-k; the hatted kernel assigns omega to
    # |z|^-k, so the limit is a + omega * c.
    a, _b, c = task["params"]
    return compare(value, a + task["omega"] * c, SINGULAR_TOL, "singular action")


def check_well(task: dict, value: float) -> Verdict:
    d = family_derivatives(task["family"], tuple(task["params"]))
    # |z|-weighted breve well -> -f(0); signed pair -> -f'(0)
    expected = -d[0] if task["kind"] == "breve" else -d[1]
    return compare(value, expected, WELL_TOL, f"{task['kind']} action")


# -- kernels -------------------------------------------------------------------

def kernel_value(family: str, eps: float, z: float) -> float:
    if family == "gaussian":
        return math.exp(-0.5 * (z / eps) ** 2) / (eps * math.sqrt(2.0 * math.pi))
    if family == "box":
        return 1.0 / (2.0 * eps) if abs(z) <= eps else 0.0
    if family == "lorentzian":
        return eps / (math.pi * (z * z + eps * eps))
    if family == "sinc":
        return 1.0 / (math.pi * eps) if z == 0.0 else math.sin(z / eps) / (math.pi * z)
    raise ValueError(f"unknown kernel {family!r}")


def check_kernel_table(family: str, eps: float, rows: list[tuple[float, float]]) -> Verdict:
    peak = kernel_value(family, eps, 0.0)
    return worst([compare(v, kernel_value(family, eps, z), 1e-12, f"kernel at {z!r}", peak)
                  for z, v in rows])


# -- one-dimensional quantum mechanics (hbar = m = 1) --------------------------

def _bisect(f, lo: float, hi: float) -> float:
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def square_well_energies(depth: float, half_width: float) -> list[float]:
    """Bound energies of V = -depth on |z| <= half_width, ascending.

    With xi = k L, eta = kappa L and xi^2 + eta^2 = z0^2 = 2 depth L^2,
    even states solve eta = xi tan(xi) and odd states eta = -xi cot(xi);
    each branch has at most one root per half-period below z0, found by
    bisection on the forms multiplied through by cos and sin.
    """
    z0 = half_width * math.sqrt(2.0 * depth)
    roots: list[float] = []
    n = 0
    while n * math.pi / 2.0 < z0:
        lo = n * math.pi / 2.0
        hi = min(lo + math.pi / 2.0, z0)
        if n % 2 == 0:
            f = lambda x: x * math.sin(x) - math.sqrt(max(z0 * z0 - x * x, 0.0)) * math.cos(x)
        else:
            f = lambda x: -x * math.cos(x) - math.sqrt(max(z0 * z0 - x * x, 0.0)) * math.sin(x)
        if f(lo) * f(hi) < 0.0:
            roots.append(_bisect(f, lo, hi))
        n += 1
    energies = [-(z0 - x) * (z0 + x) / (2.0 * half_width**2) for x in roots]
    return sorted(energies)


def check_bound_states(g: float, eps: float, found: list[float]) -> Verdict:
    """delta_well_box(g, eps) is a square well of depth g/(2 eps) on |z| <= eps."""
    want = square_well_energies(g / (2.0 * eps), eps)
    if len(found) != len(want):
        return Verdict(False, None, f"bound states: got {found!r}, want {want!r}")
    return worst([compare(e, w, 1e-8, "bound energy") for e, w in zip(found, want)])


def box_transmission(depth: float, width: float, energy: float) -> float:
    """Exact transmission through a square well of the given depth and width."""
    q = math.sqrt(2.0 * (energy + depth))
    s = math.sin(q * width)
    return 1.0 / (1.0 + depth * depth * s * s / (4.0 * energy * (energy + depth)))


def check_box_scattering(g: float, eps: float, energy: float, t: float, r: float) -> Verdict:
    want = box_transmission(g / (2.0 * eps), 2.0 * eps, energy)
    return worst([compare(t, want, 1e-10, "box transmission", want),
                  compare(r, 1.0 - want, 1e-10, "box reflection")])


def check_flux(t_left: float, r_left: float, t_right: float, r_right: float) -> Verdict:
    """T + R = 1 from both sides and T_left = T_right (criterion 5's 1e-10)."""
    return worst([compare(t_left + r_left, 1.0, 1e-10, "T+R (left)"),
                  compare(t_right + r_right, 1.0, 1e-10, "T+R (right)"),
                  compare(t_left, t_right, 1e-10, "left/right symmetry")])


def kronig_penney_half_trace(g: float, a: float, eps: float, energy: float) -> float:
    """Half-trace of one lattice cell: a well of depth g/(2 eps) and width
    2 eps followed by a free stretch of length a - 2 eps."""
    depth = g / (2.0 * eps)
    w = 2.0 * eps
    b = a - w
    k = math.sqrt(2.0 * energy)
    q = math.sqrt(2.0 * (energy + depth))
    return (math.cos(q * w) * math.cos(k * b)
            - (q * q + k * k) / (2.0 * q * k) * math.sin(q * w) * math.sin(k * b))


def check_bands(g: float, a: float, eps: float, rows: list[tuple[float, float]]) -> Verdict:
    return worst([compare(v, kronig_penney_half_trace(g, a, eps, e), 1e-9, f"half-trace at E={e!r}")
                  for e, v in rows])


def check_core_integral(g: float, value: float) -> Verdict:
    """The Darboux partner of the smoothed narrow-well state integrates to
    +g over the core (criterion 8 holds it to 5 %)."""
    return compare(value, g, 0.05, "core integral", abs(g))


def check_commutation(deviations: list[float]) -> Verdict:
    """Deviations fall strictly as the clamp width shrinks (criterion 9)."""
    ok = all(math.isfinite(d) for d in deviations) and all(
        x > y for x, y in zip(deviations, deviations[1:]))
    return Verdict(ok, None, "" if ok else f"deviations not decreasing: {deviations!r}")
