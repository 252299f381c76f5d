"""One-dimensional Schrodinger problems for point-like potentials.

Units: hbar = m = 1, so H = -(1/2) d^2/dz^2 + V(z).

Piecewise-constant potentials get exact 2x2 transfer matrices (trig,
hyperbolic, or linear branch depending on the local energy), from which
scattering amplitudes, bound states, and Bloch dispersion functions
follow.  Grid potentials get a tridiagonal eigensolver for ground states
and a numerical Darboux (factorization) transform

    V1 = V - (d/dz)^2 ln psi0

built from the nodeless ground state psi0.  The narrow-well factories
realize point interactions at finite width:

    delta_well_box       depth g/(2 eps) on |z| <= eps, integral -g
    delta_prime_pair     +/- c/eps^2 on the two half-supports
    comb_cell            one period of a lattice of attractive wells
    scarf_regularized    v0/sin^2(z) with the core |z| <= eps clamped
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .kernels import _validate_width

__all__ = [
    "PiecewisePotential",
    "GridPotential",
    "ScatteringResult",
    "BandPoint",
    "delta_well_box",
    "delta_prime_pair",
    "comb_cell",
    "scarf_regularized",
    "scarf_exact",
    "scarf_alpha",
    "scarf_ground_energy",
    "transfer_matrix",
    "scattering",
    "bound_states",
    "comb_dispersion",
    "band_structure",
    "ground_state",
    "darboux_transform",
    "smoothed_abs",
    "susy_partner",
    "susy_partner_core_integral",
    "darboux_commutation_check",
]

# Below this value of |q^2 L^2| the free-segment matrix is replaced by its
# linear-potential limit; the trig/hyperbolic branches lose all digits in
# that regime while the linear branch is exact to machine precision.
_LINEAR_BRANCH_CUTOFF = 1e-24


@dataclass(frozen=True)
class PiecewisePotential:
    """Piecewise-constant potential.

    values[i] holds on (breakpoints[i-1], breakpoints[i]], with values[0]
    on the left tail and values[-1] on the right tail; len(values) must be
    len(breakpoints) + 1.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if len(vals) != len(bp) + 1:
            raise ValueError("need exactly one more value than breakpoints")
        if any(not math.isfinite(v) for v in vals):
            raise ValueError("piece values must be finite")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    def __call__(self, z: float) -> float:
        return self.values[bisect_left(self.breakpoints, z)]

    @property
    def left_asymptote(self) -> float:
        return self.values[0]

    @property
    def right_asymptote(self) -> float:
        return self.values[-1]

    def support(self) -> tuple[float, float]:
        """Interval outside which the potential equals its asymptotes."""
        if not self.breakpoints:
            return (0.0, 0.0)
        return (self.breakpoints[0], self.breakpoints[-1])


def delta_well_box(g: float, eps: float) -> PiecewisePotential:
    """Attractive box of depth g/(2 eps) on |z| <= eps; integral is -g."""
    if g <= 0:
        raise ValueError(f"well strength g must be positive, got {g!r}")
    _validate_width(eps)
    return PiecewisePotential((-eps, eps), (0.0, -g / (2.0 * eps), 0.0))


def delta_prime_pair(c: float, eps: float) -> PiecewisePotential:
    """Antisymmetric pair +c/eps^2 on (-eps, 0], -c/eps^2 on (0, eps].

    With lambda = sqrt(2 |c|) held fixed, the zero-width limit is opaque
    except on a discrete resonant set: T = O(eps^2) -> 0 unless
    tan(lambda) = tanh(lambda), and on that set (c_n = lambda_n^2 / 2,
    lambda_1 = 3.926602...) T -> 4 theta^2 / (1 + theta^2)^2 at every
    energy, with theta = cos(lambda) cosh(lambda) + sin(lambda) sinh(lambda)
    (P. Seba, Rep. Math. Phys. 24 (1986) 111).
    """
    if c == 0:
        raise ValueError("pair strength c must be nonzero")
    _validate_width(eps)
    d = c / (eps * eps)
    return PiecewisePotential((-eps, 0.0, eps), (0.0, d, -d, 0.0))


def comb_cell(g: float, a: float, eps: float) -> PiecewisePotential:
    """One period of an attractive-well lattice: the well of delta_well_box
    centered at 0, inside the cell [-eps, a - eps]."""
    if a <= 2.0 * eps:
        raise ValueError(f"lattice period a = {a!r} must exceed the well width 2*eps")
    return delta_well_box(g, eps)


def _segment_matrix(e_minus_v: float, length: float) -> np.ndarray:
    """Transfer matrix of a constant piece, acting on (psi, psi')."""
    q2 = 2.0 * e_minus_v
    x = q2 * length * length
    if abs(x) < _LINEAR_BRANCH_CUTOFF:
        return np.array([[1.0, length], [0.0, 1.0]])
    if q2 > 0.0:
        k = math.sqrt(q2)
        c, s = math.cos(k * length), math.sin(k * length)
        return np.array([[c, s / k], [-k * s, c]])
    kap = math.sqrt(-q2)
    c, s = math.cosh(kap * length), math.sinh(kap * length)
    return np.array([[c, s / kap], [kap * s, c]])


def transfer_matrix(
    potential: PiecewisePotential,
    energy: float,
    window: tuple[float, float] | None = None,
) -> np.ndarray:
    """Transfer matrix mapping (psi, psi') at window[0] to window[1].

    The default window is the potential's support interval.  The matrix is
    real with unit determinant for every real energy.
    """
    if window is None:
        window = potential.support()
    x0, x1 = float(window[0]), float(window[1])
    if not x0 <= x1:
        raise ValueError(f"window must satisfy x0 <= x1, got ({x0}, {x1})")
    edges = [x0]
    for b in potential.breakpoints:
        if x0 < b < x1:
            edges.append(b)
    edges.append(x1)
    m = np.eye(2)
    for lo, hi in zip(edges, edges[1:]):
        if hi == lo:
            continue
        # Piece value on (lo, hi]: sample at the right edge.
        v = potential(hi)
        m = _segment_matrix(energy - v, hi - lo) @ m
    return m


@dataclass(frozen=True)
class ScatteringResult:
    """Scattering data at one energy.

    transmission and reflection are probability fluxes; t_amplitude and
    r_amplitude are the complex amplitudes with phases referred to the
    support edges of the potential.
    """

    energy: float
    incident: str
    transmission: float
    reflection: float
    t_amplitude: complex
    r_amplitude: complex


def scattering(
    potential: PiecewisePotential, energy: float, incident: str = "left"
) -> ScatteringResult:
    """Scattering amplitudes for a potential with equal asymptotes.

    A unit plane wave comes in from the given side; the transfer matrix
    over the support interval converts the matching conditions into a
    2x2 complex linear system for (r, t).
    """
    if incident not in ("left", "right"):
        raise ValueError(f"incident side must be 'left' or 'right', got {incident!r}")
    v_inf = potential.left_asymptote
    if potential.right_asymptote != v_inf:
        raise ValueError("scattering requires equal asymptotic values on both sides")
    if not energy > v_inf:
        raise ValueError(f"scattering energy must exceed the asymptote {v_inf!r}")
    if incident == "right":
        flipped = PiecewisePotential(
            tuple(-b for b in reversed(potential.breakpoints)),
            tuple(reversed(potential.values)),
        )
        return replace(scattering(flipped, energy, "left"), incident="right")

    k = math.sqrt(2.0 * (energy - v_inf))
    m = transfer_matrix(potential, energy)
    ik = 1j * k
    # psi = e^{ikx} + r e^{-ikx} on the left, t e^{ikx} on the right, with
    # phases measured from the respective support edges:
    #   M . (1 + r, ik (1 - r)) = (t, ik t)
    a = np.array(
        [
            [m[0, 0] - ik * m[0, 1], -1.0],
            [m[1, 0] - ik * m[1, 1], -ik],
        ],
        dtype=complex,
    )
    rhs = -np.array([m[0, 0] + ik * m[0, 1], m[1, 0] + ik * m[1, 1]], dtype=complex)
    r_amp, t_amp = np.linalg.solve(a, rhs)
    return ScatteringResult(
        energy=energy,
        incident="left",
        transmission=float(abs(t_amp) ** 2),
        reflection=float(abs(r_amp) ** 2),
        t_amplitude=complex(t_amp),
        r_amplitude=complex(r_amp),
    )


def _shooting_mismatch(potential: PiecewisePotential, energy: float) -> float:
    """Decaying-tail mismatch whose zeros are the bound-state energies."""
    v_l = potential.left_asymptote
    v_r = potential.right_asymptote
    kap_l = math.sqrt(2.0 * (v_l - energy))
    kap_r = math.sqrt(2.0 * (v_r - energy))
    m = transfer_matrix(potential, energy)
    psi, dpsi = m @ np.array([1.0, kap_l])
    return dpsi + kap_r * psi


# scipy.optimize.brentq's defaults, the only settings bound_states uses.
_BRENT_RTOL = 4.0 * math.ulp(1.0)
_BRENT_MAXITER = 100


def brentq(f, a: float, b: float, xtol: float) -> float:
    """Root of f in [a, b] by Brent's method (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4).

    An operation-for-operation port of scipy.optimize.brentq (its C core
    and its argument checks) at scipy's default rtol and maxiter, so the
    roots are bit-identical to scipy's without importing it.  The returned
    x has |x - root| within xtol + 4 eps |x|.  Raises ValueError when
    xtol <= 0, f(a) and f(b) have the same sign, or f returns nan;
    RuntimeError when 100 iterations do not converge.
    """
    if not xtol > 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate (secant)
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate (inverse quadratic)
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
            except ZeroDivisionError:
                pass  # C's step would be inf or nan, which fails the test
        if short:
            spre, scur = scur, stry
        else:
            spre = scur = sbis  # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")


def bound_states(
    potential: PiecewisePotential,
    window: tuple[float, float] | None = None,
    n_scan: int = 2000,
    tol: float = 1e-10,
) -> np.ndarray:
    """Bound-state energies, sorted ascending.

    The mismatch function of the decaying-tail shooting problem is scanned
    on a uniform energy grid inside the window and each sign change is
    refined by brentq.  The default window spans from just above the
    deepest piece value to just below the lower asymptote.
    """
    v_edge = min(potential.left_asymptote, potential.right_asymptote)
    v_min = min(potential.values)
    if v_min >= v_edge:
        return np.array([])
    span = v_edge - v_min
    if window is None:
        window = (v_min + 1e-12 * span, v_edge - 1e-12 * span)
    e_lo, e_hi = float(window[0]), float(window[1])
    if not (v_min <= e_lo < e_hi <= v_edge):
        raise ValueError(
            f"energy window must lie within [{v_min!r}, {v_edge!r}], got ({e_lo}, {e_hi})"
        )
    e_hi = min(e_hi, v_edge - 1e-14 * span)
    grid = np.linspace(e_lo, e_hi, n_scan)
    vals = [_shooting_mismatch(potential, float(e)) for e in grid]
    roots: list[float] = []
    for i in range(len(grid) - 1):
        f1, f2 = vals[i], vals[i + 1]
        if f1 == 0.0:
            roots.append(float(grid[i]))
        elif f1 * f2 < 0.0:
            root = brentq(
                lambda e: _shooting_mismatch(potential, e),
                float(grid[i]),
                float(grid[i + 1]),
                xtol=tol,
            )
            roots.append(float(root))
    deduped: list[float] = []
    for r in sorted(roots):
        if not deduped or r - deduped[-1] > 10.0 * tol:
            deduped.append(r)
    return np.array(deduped)


@dataclass(frozen=True)
class BandPoint:
    """Bloch dispersion sample: allowed iff |bloch_rhs| <= 1."""

    energy: float
    bloch_rhs: float
    allowed: bool


def comb_dispersion(g: float, a: float, energy: float, eps: float) -> BandPoint:
    """Half-trace of the one-cell transfer matrix of the well lattice.

    Energies with |half-trace| <= 1 support Bloch waves cos(q a) = rhs;
    the rest are gaps.  As eps -> 0 the rhs approaches the point-lattice
    law at first order in the width:

        rhs = cos(k a) - (g / k) sin(k a) + 2 eps g^2 sin(k a) / (3 k) + O(eps^2)

    with k = sqrt(2 E).
    """
    if energy <= 0.0:
        raise ValueError(f"dispersion scan expects energy > 0, got {energy!r}")
    cell = comb_cell(g, a, eps)
    m = transfer_matrix(cell, energy, window=(-eps, a - eps))
    rhs = 0.5 * float(np.trace(m))
    return BandPoint(energy=energy, bloch_rhs=rhs, allowed=abs(rhs) <= 1.0)


def band_structure(
    g: float, a: float, energies: Sequence[float], eps: float
) -> list[BandPoint]:
    return [comb_dispersion(g, a, float(e), eps) for e in energies]


@dataclass(frozen=True)
class GridPotential:
    """Potential sampled on a uniform grid of interior nodes.

    For dirichlet boundaries the hard walls sit one spacing beyond the
    first and last node.  For periodic boundaries the grid covers one
    period without the duplicate endpoint.
    """

    grid: np.ndarray
    values: np.ndarray
    boundary: str = "dirichlet"

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)
        if grid.ndim != 1 or grid.size < 3:
            raise ValueError("grid must be a 1d array with at least 3 nodes")
        if vals.shape != grid.shape:
            raise ValueError("values must match the grid shape")
        if not np.all(np.isfinite(vals)):
            raise ValueError("potential values must be finite")
        steps = np.diff(grid)
        h = steps[0]
        if h <= 0 or not np.allclose(steps, h, rtol=1e-9, atol=0.0):
            raise ValueError("grid must be uniformly spaced and increasing")
        if self.boundary not in ("dirichlet", "periodic"):
            raise ValueError(f"unknown boundary {self.boundary!r}")

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])


def ground_state(potential: GridPotential) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the discretized Hamiltonian.

    Returns (energy, psi) with psi nonnegative at its largest component
    and normalized so that h * sum(psi^2) = 1.
    """
    from scipy.linalg import eigh_tridiagonal

    h = potential.spacing
    n = potential.grid.size
    diag = 1.0 / h**2 + potential.values
    off = np.full(n - 1, -0.5 / h**2)
    if potential.boundary == "dirichlet":
        w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
        e0 = float(w[0])
        psi = v[:, 0]
    else:
        if n > 4096:
            raise ValueError("periodic ground states are limited to 4096 nodes")
        mat = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        mat[0, -1] += -0.5 / h**2
        mat[-1, 0] += -0.5 / h**2
        w, v = np.linalg.eigh(mat)
        e0 = float(w[0])
        psi = v[:, 0]
    if psi[int(np.argmax(np.abs(psi)))] < 0.0:
        psi = -psi
    psi = psi / math.sqrt(h * float(np.sum(psi**2)))
    return e0, psi


def darboux_transform(potential: GridPotential, psi0: np.ndarray) -> GridPotential:
    """Factorization partner V - (ln psi0)'' on the interior of the grid.

    psi0 must be strictly positive (nodeless); the centered second
    difference of ln psi0 trims one node from each end of the grid.
    """
    psi0 = np.asarray(psi0, dtype=float)
    if psi0.shape != potential.grid.shape:
        raise ValueError("psi0 must match the potential grid")
    if not np.all(psi0 > 0.0):
        raise ValueError("psi0 must be strictly positive on the grid")
    h = potential.spacing
    ln = np.log(psi0)
    curv = (ln[2:] - 2.0 * ln[1:-1] + ln[:-2]) / h**2
    partner_vals = potential.values[1:-1] - curv
    return GridPotential(potential.grid[1:-1], partner_vals, potential.boundary)


def smoothed_abs(eps: float, zeta):
    """Smoothed |z| whose first derivative is erf(z / (eps sqrt 2)) and
    whose second derivative is twice the gaussian kernel of width eps.
    Converges to |z| pointwise; the offset at the origin is
    -eps sqrt(2/pi) + eps sqrt(2/pi) = 0."""
    from scipy.special import erf

    _validate_width(eps)
    z = np.asarray(zeta, dtype=float)
    t = z / (eps * math.sqrt(2.0))
    out = z * erf(t) + eps * math.sqrt(2.0 / math.pi) * (np.exp(-(t**2)) - 1.0)
    if np.isscalar(zeta):
        return float(out)
    return out


def susy_partner(
    g: float,
    eps: float,
    half_width_factor: float = 10.0,
    n_points: int = 2000,
) -> tuple[GridPotential, GridPotential]:
    """The well of delta_well_box sampled on n_points + 1 nodes of [-w, w],
    w = half_width_factor * eps, and its Darboux partner on the interior
    nodes.  The reference state exp(-g * smoothed_abs(eps, z)) is the
    zero-width bound state with the kink smoothed on scale eps; the
    partner is the well plus 2 g times the gaussian kernel."""
    if g <= 0:
        raise ValueError(f"well strength g must be positive, got {g!r}")
    _validate_width(eps)
    w = half_width_factor * eps
    grid = np.linspace(-w, w, n_points + 1)
    vals = np.where(np.abs(grid) <= eps, -g / (2.0 * eps), 0.0)
    well = GridPotential(grid, vals)
    psi0 = np.exp(-g * smoothed_abs(eps, grid))
    return well, darboux_transform(well, psi0)


def susy_partner_core_integral(
    g: float,
    eps: float,
    half_width_factor: float = 10.0,
    n_points: int = 2000,
) -> float:
    """Integral of the susy_partner partner over [-w, w], which converges
    to -g + 2 g = +g as eps -> 0."""
    _, partner = susy_partner(g, eps, half_width_factor, n_points)
    return float(np.trapezoid(partner.values, partner.grid))


def scarf_exact(v0: float, zeta: float) -> float:
    """The singular reference potential v0 / sin^2(zeta)."""
    if v0 <= 0:
        raise ValueError(f"potential strength v0 must be positive, got {v0!r}")
    s = math.sin(zeta)
    if s == 0.0:
        raise ValueError("potential is singular where sin(zeta) vanishes")
    return v0 / (s * s)


def scarf_alpha(v0: float, eps: float) -> float:
    """Strength factor writing the clamped core as alpha * (-1/eps^2).

    The core value v0 / sin^2(eps) equals alpha(eps) times a well of depth
    -1/eps^2 with alpha = -v0 eps^2 / sin^2(eps), which tends to -v0."""
    if v0 <= 0:
        raise ValueError(f"potential strength v0 must be positive, got {v0!r}")
    _validate_width(eps)
    s = math.sin(eps)
    return -v0 * eps * eps / (s * s)


def scarf_ground_energy(v0: float) -> float:
    """Ground energy of v0 / sin^2 on (0, pi) with hard walls: the
    nodeless state sin(z)^a with a = (1 + sqrt(1 + 8 v0)) / 2 has energy
    a^2 / 2.  On the symmetric half-domain the same state applies."""
    if v0 <= 0:
        raise ValueError(f"potential strength v0 must be positive, got {v0!r}")
    a = 0.5 * (1.0 + math.sqrt(1.0 + 8.0 * v0))
    return 0.5 * a * a


def scarf_regularized(
    v0: float,
    eps: float,
    n_points: int = 3000,
    half_width: float = 0.5 * math.pi,
) -> GridPotential:
    """The singular potential with its core clamped to a constant.

    Values are v0 / sin^2(z) for |z| > eps and the matching constant
    v0 / sin^2(eps) on |z| <= eps, sampled on n_points interior nodes of
    (-half_width, half_width) with dirichlet walls at the ends.  n_points
    must be even so that no node falls on the singular point z = 0.
    """
    if v0 <= 0:
        raise ValueError(f"potential strength v0 must be positive, got {v0!r}")
    _validate_width(eps)
    if not 0.0 < half_width <= 0.5 * math.pi:
        raise ValueError("half_width must lie in (0, pi/2]")
    if eps >= half_width:
        raise ValueError("core width must be smaller than the domain half-width")
    if n_points % 2 != 0:
        raise ValueError("n_points must be even so no node sits exactly at 0")
    h = 2.0 * half_width / (n_points + 1)
    grid = -half_width + h * np.arange(1, n_points + 1)
    core = v0 / math.sin(eps) ** 2
    vals = np.full(n_points, core)
    outside = np.abs(grid) > eps
    vals[outside] = v0 / np.sin(grid[outside]) ** 2
    return GridPotential(grid, vals)


def darboux_commutation_check(
    v0: float,
    epsilons: Sequence[float],
    n_points: int = 3000,
    half_width: float = 0.5 * math.pi,
    exclusion_radius: float | None = None,
) -> list[tuple[float, float]]:
    """Deviation between two routes to the factorization partner.

    Route A regularizes first: the partner is built from the ground state
    of the clamped potential on the full grid.  Route B restricts first:
    the exact singular potential is solved on the sub-domain to the right
    of a hard wall at the node nearest eps, and its partner is built
    there.  The deviation is the sup-norm of the difference on nodes with
    z > exclusion_radius, where both routes are far from their respective
    boundary layers.

    The comparison region is held fixed across widths (default radius:
    twice the largest width in the schedule); on it the deviation falls
    steadily as the widths shrink, which is the sense in which clamping
    and factorization commute.  Inside the core region the two routes
    differ by design and the difference grows like 1/eps^2.

    Returns [(eps, deviation)] in the order given.
    """
    eps_list = [float(e) for e in epsilons]
    if not eps_list:
        raise ValueError("need at least one width")
    if exclusion_radius is None:
        exclusion_radius = 2.0 * max(eps_list)
    results: list[tuple[float, float]] = []
    for eps in eps_list:
        gp = scarf_regularized(v0, eps, n_points=n_points, half_width=half_width)
        grid = gp.grid
        h = gp.spacing
        # Route A: regularize, solve, transform on the full grid.
        _, psi_a = ground_state(gp)
        partner_a = darboux_transform(gp, psi_a)
        # Route B: wall at the node nearest eps, exact potential beyond it.
        iw = int(np.argmin(np.abs(grid - eps)))
        sub = grid[iw + 1 :]
        if sub.size < 8:
            raise ValueError("grid too coarse for the wall placement")
        sub_vals = v0 / np.sin(sub) ** 2
        gp_b = GridPotential(sub, sub_vals)
        _, psi_b = ground_state(gp_b)
        partner_b = darboux_transform(gp_b, psi_b)
        # partner_b lives on grid[iw+2 : -1]; align with partner_a, whose
        # nodes are grid[1:-1], by index arithmetic.
        a_vals = partner_a.values[iw + 1 :]
        b_vals = partner_b.values
        zs = partner_b.grid
        mask = zs > exclusion_radius
        if not np.any(mask):
            raise ValueError("exclusion radius leaves no comparison nodes")
        dev = float(np.max(np.abs(a_vals[mask] - b_vals[mask])))
        results.append((eps, dev))
    return results
