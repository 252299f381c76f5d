"""Tests for the 1D quantum toolbox: transfer matrices, spectra, partners."""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.optimize import brentq

from deltalab import qm1d
from deltalab.qm1d import (
    BandPoint,
    GridPotential,
    PiecewisePotential,
    band_structure,
    bound_states,
    comb_cell,
    comb_dispersion,
    darboux_commutation_check,
    darboux_transform,
    delta_prime_pair,
    delta_well_box,
    ground_state,
    scarf_alpha,
    scarf_exact,
    scarf_ground_energy,
    scarf_regularized,
    scattering,
    smoothed_abs,
    susy_partner_core_integral,
    transfer_matrix,
)


# ---------------------------------------------------------------------------
# potentials and transfer matrices
# ---------------------------------------------------------------------------


def test_piecewise_potential_lookup():
    v = PiecewisePotential((-1.0, 1.0), (0.0, -2.0, 0.5))
    assert v(-2.0) == 0.0
    assert v(-1.0) == 0.0  # pieces hold on half-open (b_{i-1}, b_i]
    assert v(0.0) == -2.0
    assert v(1.0) == -2.0
    assert v(1.5) == 0.5
    assert v.support() == (-1.0, 1.0)


def test_piecewise_potential_validation():
    with pytest.raises(ValueError):
        PiecewisePotential((0.0,), (1.0,))
    with pytest.raises(ValueError):
        PiecewisePotential((1.0, 0.0), (0.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        PiecewisePotential((0.0,), (0.0, math.inf))


def test_factory_validation():
    with pytest.raises(ValueError):
        delta_well_box(-1.0, 0.1)
    with pytest.raises(ValueError):
        delta_well_box(1.0, 0.0)
    with pytest.raises(ValueError):
        delta_prime_pair(0.0, 0.1)
    with pytest.raises(ValueError):
        comb_cell(1.0, 0.15, 0.1)  # period must exceed the well width


def test_delta_well_box_has_integral_minus_g():
    g, eps = 1.7, 0.05
    v = delta_well_box(g, eps)
    assert v(0.0) * 2.0 * eps == pytest.approx(-g, rel=1e-15)


def test_free_transfer_matrix_is_shear():
    v = PiecewisePotential((), (0.0,))
    m = transfer_matrix(v, 1.0, window=(0.0, 2.0))
    k = math.sqrt(2.0)
    expected = np.array(
        [[math.cos(2 * k), math.sin(2 * k) / k], [-k * math.sin(2 * k), math.cos(2 * k)]]
    )
    assert np.allclose(m, expected, rtol=1e-14, atol=1e-14)


def test_transfer_matrix_linear_branch_at_turning_point():
    # with E exactly at the piece value the segment matrix is the shear
    v = PiecewisePotential((), (0.7,))
    m = transfer_matrix(v, 0.7, window=(0.0, 3.0))
    assert np.array_equal(m, np.array([[1.0, 3.0], [0.0, 1.0]]))


@st.composite
def piecewise_potentials(draw):
    n = draw(st.integers(1, 4))
    cuts = sorted(
        draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n, unique=True))
    )
    # keep segment lengths O(1) so hyperbolic entries stay well-scaled
    assume(all(b - a >= 1e-3 for a, b in zip(cuts, cuts[1:])))
    vals = draw(st.lists(st.floats(-5.0, 5.0), min_size=n + 1, max_size=n + 1))
    return PiecewisePotential(tuple(cuts), tuple(vals))


@given(v=piecewise_potentials(), energy=st.floats(-5.0, 5.0))
def test_transfer_matrix_has_unit_determinant(v, energy):
    m = transfer_matrix(v, energy)
    assert abs(np.linalg.det(m) - 1.0) <= 1e-10 * max(1.0, float(np.abs(m).max()) ** 2)


@given(
    v=piecewise_potentials(),
    energy=st.floats(-5.0, 5.0),
    mid=st.floats(-2.5, 2.5),
)
def test_transfer_matrix_composes(v, energy, mid):
    lo, hi = -3.5, 3.5
    whole = transfer_matrix(v, energy, window=(lo, hi))
    left = transfer_matrix(v, energy, window=(lo, mid))
    right = transfer_matrix(v, energy, window=(mid, hi))
    composed = right @ left
    scale = max(1.0, float(np.abs(whole).max()))
    assert np.allclose(composed, whole, rtol=0.0, atol=1e-9 * scale)


def test_transfer_matrix_rejects_reversed_window():
    v = delta_well_box(1.0, 0.1)
    with pytest.raises(ValueError):
        transfer_matrix(v, 1.0, window=(1.0, -1.0))


# ---------------------------------------------------------------------------
# scattering
# ---------------------------------------------------------------------------


def square_well_transmission(g, eps, energy):
    """Textbook closed form for the finite square well of depth g/(2 eps)."""
    v0 = g / (2.0 * eps)
    k1 = math.sqrt(2.0 * (energy + v0))
    return 1.0 / (
        1.0 + v0**2 * math.sin(2.0 * k1 * eps) ** 2 / (4.0 * energy * (energy + v0))
    )


def test_scattering_matches_square_well_closed_form():
    for eps in (0.3, 0.05):
        for energy in (0.25, 0.7, 2.0):
            res = scattering(delta_well_box(1.0, eps), energy)
            assert res.transmission == pytest.approx(
                square_well_transmission(1.0, eps, energy), rel=1e-12
            )


def test_scattering_approaches_point_well_limit():
    # T -> k^2 / (k^2 + g^2) as the well narrows
    g, energy = 1.0, 0.5
    k2 = 2.0 * energy
    expected = k2 / (k2 + g * g)
    res = scattering(delta_well_box(g, 1e-3), energy)
    assert res.transmission == pytest.approx(expected, abs=1e-3)


def test_scattering_flux_conservation_seeded():
    rng = random.Random(777)
    for _ in range(100):
        n = rng.randint(1, 4)
        cuts = sorted(rng.uniform(-2.0, 2.0) for _ in range(n))
        if any(b - a < 1e-6 for a, b in zip(cuts, cuts[1:])):
            continue
        vals = [0.0] + [rng.uniform(-8.0, 8.0) for _ in range(n - 1)] + [0.0]
        v = PiecewisePotential(tuple(cuts), tuple(vals))
        energy = rng.uniform(0.05, 6.0)
        res = scattering(v, energy)
        assert res.transmission + res.reflection == pytest.approx(1.0, abs=1e-10)


def test_scattering_reciprocity():
    v = PiecewisePotential((-1.0, 0.0, 0.5), (0.0, 2.0, -1.0, 0.0))
    for energy in (0.4, 1.3):
        left = scattering(v, energy, incident="left")
        right = scattering(v, energy, incident="right")
        assert left.transmission == pytest.approx(right.transmission, rel=1e-12)


def test_scattering_free_is_transparent():
    res = scattering(PiecewisePotential((), (0.0,)), 1.0)
    assert res.transmission == pytest.approx(1.0, abs=1e-14)
    assert res.reflection == pytest.approx(0.0, abs=1e-14)


def test_scattering_validation():
    v = delta_well_box(1.0, 0.1)
    with pytest.raises(ValueError):
        scattering(v, -0.5)
    with pytest.raises(ValueError):
        scattering(v, 1.0, incident="top")
    tilted = PiecewisePotential((0.0,), (0.0, 1.0))
    with pytest.raises(ValueError):
        scattering(tilted, 2.0)


def test_signed_pair_transmission_frozen_oracle():
    res = scattering(delta_prime_pair(1.0, 0.2), 1.0)
    # cross-route oracle: an independent adaptive wavefunction integration
    # of the same potential gives 0.03973905647978833 (agreement is limited
    # by that integrator's tolerance)
    assert res.transmission == pytest.approx(0.03973905647978833, rel=1e-6)
    # regression pin for the transfer-matrix route itself
    assert res.transmission == pytest.approx(0.039739055837194615, rel=1e-10)


def test_signed_pair_transmission_decays_with_width():
    values = [
        scattering(delta_prime_pair(1.0, eps), 1.0).transmission
        for eps in (0.2, 0.1, 0.05)
    ]
    assert values[0] > values[1] > values[2]
    # the decay is quadratic in the width
    assert values[1] / values[2] == pytest.approx(4.0, rel=0.3)


# ---------------------------------------------------------------------------
# bound states
# ---------------------------------------------------------------------------


def square_well_even_ground_energy(g, eps):
    """Transcendental oracle: k1 tan(k1 eps) = kappa for the even state."""
    v0 = g / (2.0 * eps)

    def mismatch(e):
        k1 = math.sqrt(2.0 * (e + v0))
        kap = math.sqrt(-2.0 * e)
        return k1 * math.tan(k1 * eps) - kap

    return brentq(mismatch, -v0 * (1 - 1e-12), -1e-12, xtol=1e-13)


def test_bound_state_matches_transcendental_oracle():
    for g, eps in ((1.0, 0.5), (2.0, 0.3), (0.5, 0.8)):
        found = bound_states(delta_well_box(g, eps))
        expected = square_well_even_ground_energy(g, eps)
        assert found.size >= 1
        assert found[0] == pytest.approx(expected, abs=1e-9)


def test_bound_state_approaches_point_well_energy():
    # E0 -> -g^2/2 with an O(eps) defect
    for g in (0.5, 1.0, 2.0):
        found = bound_states(delta_well_box(g, 1e-3))
        assert found.size == 1
        assert found[0] == pytest.approx(-0.5 * g * g, abs=2e-3 * g * g)


def test_bound_state_count_grows_with_depth():
    # a wide deep well must hold several states
    found = bound_states(delta_well_box(20.0, 1.0))
    assert found.size >= 3
    assert np.all(np.diff(found) > 0)


def test_bound_states_empty_without_well():
    v = PiecewisePotential((0.0, 1.0), (0.0, 2.0, 0.0))
    assert bound_states(v).size == 0


def test_bound_states_window_validation():
    v = delta_well_box(1.0, 0.5)
    with pytest.raises(ValueError):
        bound_states(v, window=(-100.0, -50.0))


# ---------------------------------------------------------------------------
# the in-tree Brent solver, against scipy.optimize.brentq
# ---------------------------------------------------------------------------


def test_brentq_port_matches_scipy_on_every_bound_state_refinement(monkeypatch):
    rng = random.Random(2024)
    wells = [
        delta_well_box(rng.uniform(0.3, 6.0), math.exp(rng.uniform(math.log(5e-4), math.log(0.5))))
        for _ in range(24)
    ]
    wells += [
        PiecewisePotential(
            sorted(rng.uniform(-1.0, 1.0) for _ in range(4)),
            (0.0, *(rng.uniform(-30.0, 5.0) for _ in range(3)), 0.0),
        )
        for _ in range(12)
    ]
    port, pairs = qm1d.brentq, []

    def both(f, a, b, **kw):
        root = port(f, a, b, **kw)
        pairs.append((root.hex(), float(brentq(f, a, b, **kw)).hex()))
        return root

    monkeypatch.setattr(qm1d, "brentq", both)
    for v in wells:
        bound_states(v)
    assert len(pairs) > 40
    assert [p for p, _ in pairs] == [s for _, s in pairs]


# Functions with one sign change at r, covering the secant, inverse
# quadratic and bisection steps.
BRACKET_FAMILIES = [
    lambda r, c: lambda x: (x - r) * (1.0 + c * x * x),
    lambda r, c: lambda x: math.tanh(c * (x - r)) + 1e-3 * (x - r),
    lambda r, c: lambda x: math.expm1(c * (x - r)),
    lambda r, c: lambda x: c * (x - r) ** 3,
    lambda r, c: lambda x: math.atan(1e3 * (x - r)),
    lambda r, c: lambda x: 1.0 if x > r else -1.0,
    lambda r, c: lambda x: math.copysign(abs(x - r) ** 0.2, x - r),
]


def _outcome(solver, *args, **kw):
    """The root as float.hex, or the type and text of the error raised."""
    try:
        return float(solver(*args, **kw)).hex()
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("xtol", [1e-6, 1e-10, 1e-12, 2e-12])
def test_brentq_port_matches_scipy_on_seeded_brackets(xtol):
    # The triple root of the cubic family exhausts maxiter at the tighter
    # tolerances, so the RuntimeError path is compared too.
    rng = random.Random(int(-math.log10(xtol) * 10))
    for i in range(700):
        r, c = rng.uniform(-2.0, 3.0), rng.uniform(0.1, 5.0)
        f = BRACKET_FAMILIES[i % len(BRACKET_FAMILIES)](r, c)
        a, b = rng.uniform(r - 4.0, r), rng.uniform(r, r + 4.0)
        if i % 2:
            a, b = b, a
        assert _outcome(qm1d.brentq, f, a, b, xtol=xtol) == _outcome(brentq, f, a, b, xtol=xtol)


@pytest.mark.parametrize(
    "f, a, b, xtol, error",
    [
        (math.sin, -1.0, 2.0, 0.0, ValueError),
        (math.sin, -1.0, 2.0, -1e-12, ValueError),
        (math.cos, -1.0, 1.0, 1e-12, ValueError),  # no sign change
        (lambda x: math.nan if x > 0.5 else x, -1.0, 1.0, 1e-12, ValueError),
        (lambda x: (x - 0.3) ** 3, -1.0, 1.0, 1e-12, RuntimeError),  # 100 iterations
    ],
)
def test_brentq_port_raises_where_scipy_does(f, a, b, xtol, error):
    with pytest.raises(error):
        brentq(f, a, b, xtol=xtol)
    with pytest.raises(error):
        qm1d.brentq(f, a, b, xtol=xtol)


def test_brentq_port_returns_a_root_endpoint():
    assert qm1d.brentq(lambda x: x - 1.0, 1.0, 3.0, xtol=1e-12) == 1.0
    assert qm1d.brentq(lambda x: x + 2.0, 0.0, -2.0, xtol=1e-12) == -2.0


# ---------------------------------------------------------------------------
# lattice dispersion
# ---------------------------------------------------------------------------


def point_comb_rhs(g, a, energy):
    k = math.sqrt(2.0 * energy)
    return math.cos(k * a) - (g / k) * math.sin(k * a)


def test_comb_dispersion_at_commensurate_energy():
    # at E = 0.5 (k = 1, a = pi) the point-lattice rhs is exactly -1 and
    # the width correction is second order there
    pt = comb_dispersion(1.0, math.pi, 0.5, 1e-3)
    assert pt.bloch_rhs == pytest.approx(-1.0, abs=1e-5)


def test_comb_dispersion_matches_point_lattice():
    pt = comb_dispersion(1.0, math.pi, 0.8, 1e-3)
    assert pt.bloch_rhs == pytest.approx(point_comb_rhs(1.0, math.pi, 0.8), abs=1e-3)


def test_comb_dispersion_error_is_first_order_in_width():
    target = point_comb_rhs(1.0, math.pi, 0.8)
    dev = [
        abs(comb_dispersion(1.0, math.pi, 0.8, eps).bloch_rhs - target)
        for eps in (2e-3, 1e-3)
    ]
    assert dev[0] / dev[1] == pytest.approx(2.0, abs=0.2)


def test_band_classification_matches_point_lattice():
    g, a, eps = 1.0, math.pi, 1e-4
    energies = np.linspace(0.05, 4.0, 120)
    for e in energies:
        rhs0 = point_comb_rhs(g, a, float(e))
        if abs(abs(rhs0) - 1.0) < 5e-3:
            continue  # skip band edges, where any finite width flips the flag
        pt = comb_dispersion(g, a, float(e), eps)
        assert pt.allowed == (abs(rhs0) <= 1.0)


def test_band_structure_finds_a_gap():
    pts = band_structure(1.0, math.pi, np.linspace(0.05, 4.0, 200), 1e-3)
    assert isinstance(pts[0], BandPoint)
    assert any(not p.allowed for p in pts)
    assert any(p.allowed for p in pts)


def test_comb_dispersion_validation():
    with pytest.raises(ValueError):
        comb_dispersion(1.0, math.pi, 0.0, 1e-3)
    with pytest.raises(ValueError):
        comb_dispersion(1.0, 0.1, 1.0, 0.1)


# ---------------------------------------------------------------------------
# grid Hamiltonians and the factorization partner
# ---------------------------------------------------------------------------


def _oscillator_grid(n=1600, span=8.0):
    grid = np.linspace(-span, span, n)
    return GridPotential(grid, 0.5 * grid**2)


def test_ground_state_oscillator():
    gp = _oscillator_grid()
    e0, psi = ground_state(gp)
    assert e0 == pytest.approx(0.5, abs=2e-4)
    h = gp.spacing
    assert h * float(np.sum(psi**2)) == pytest.approx(1.0, abs=1e-12)
    assert float(psi.max()) > 0.0


def test_ground_state_periodic_free_particle():
    grid = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    gp = GridPotential(grid, np.zeros(64), boundary="periodic")
    e0, psi = ground_state(gp)
    assert e0 == pytest.approx(0.0, abs=1e-10)
    assert np.allclose(psi, psi[0], rtol=0.0, atol=1e-8)


def test_grid_potential_validation():
    with pytest.raises(ValueError):
        GridPotential(np.array([0.0, 0.1, 0.3]), np.zeros(3))  # non-uniform
    with pytest.raises(ValueError):
        GridPotential(np.linspace(0, 1, 5), np.zeros(4))
    with pytest.raises(ValueError):
        GridPotential(np.linspace(0, 1, 5), np.zeros(5), boundary="absorbing")
    with pytest.raises(ValueError):
        ground_state(
            GridPotential(
                np.linspace(0, 1, 5000), np.zeros(5000), boundary="periodic"
            )
        )


def test_darboux_partner_of_oscillator():
    # with the exact nodeless state exp(-z^2/2) the partner is V + 1:
    # the log-curvature of a gaussian is constant and the second difference
    # of a quadratic is exact, so the check is at roundoff level
    gp = _oscillator_grid()
    psi0 = np.exp(-0.5 * gp.grid**2)
    partner = darboux_transform(gp, psi0)
    expected = 0.5 * partner.grid**2 + 1.0
    assert np.max(np.abs(partner.values - expected)) < 1e-8


def test_darboux_trims_one_node_per_side():
    gp = _oscillator_grid(n=101)
    psi0 = np.exp(-0.5 * gp.grid**2)
    partner = darboux_transform(gp, psi0)
    assert partner.grid.size == 99
    assert partner.grid[0] == gp.grid[1]


def test_darboux_requires_nodeless_state():
    gp = _oscillator_grid(n=101)
    psi_odd = gp.grid * np.exp(-0.5 * gp.grid**2)
    with pytest.raises(ValueError):
        darboux_transform(gp, psi_odd)
    with pytest.raises(ValueError):
        darboux_transform(gp, np.ones(7))


# ---------------------------------------------------------------------------
# smoothed |z| and the narrow-well partner integral
# ---------------------------------------------------------------------------


def test_smoothed_abs_basic_properties():
    eps = 0.1
    assert smoothed_abs(eps, 0.0) == 0.0
    # even, and approaches |z| - eps sqrt(2/pi) away from the origin
    assert smoothed_abs(eps, 0.7) == smoothed_abs(eps, -0.7)
    far = smoothed_abs(eps, 10 * eps)
    assert far == pytest.approx(10 * eps - eps * math.sqrt(2.0 / math.pi), abs=1e-4 * eps)


def test_smoothed_abs_derivatives():
    from scipy.special import erf as scipy_erf
    from deltalab import eval_kernel

    eps, z, h = 0.2, 0.13, 1e-5
    d1 = (smoothed_abs(eps, z + h) - smoothed_abs(eps, z - h)) / (2 * h)
    assert d1 == pytest.approx(float(scipy_erf(z / (eps * math.sqrt(2)))), abs=1e-9)
    d2 = (
        smoothed_abs(eps, z + h)
        - 2 * smoothed_abs(eps, z)
        + smoothed_abs(eps, z - h)
    ) / (h * h)
    assert d2 == pytest.approx(2.0 * eval_kernel("gaussian", eps, z), rel=1e-5)


def test_smoothed_abs_vectorizes():
    out = smoothed_abs(0.1, np.array([-0.5, 0.0, 0.5]))
    assert out.shape == (3,)
    assert out[0] == out[2]
    assert isinstance(smoothed_abs(0.1, 0.5), float)


def test_susy_partner_core_integral_recovers_plus_g():
    for g in (1.0, 2.0):
        val = susy_partner_core_integral(g, 1e-3)
        assert val == pytest.approx(g, abs=1e-9)


def test_susy_partner_core_integral_validation():
    with pytest.raises(ValueError):
        susy_partner_core_integral(-1.0, 0.1)
    with pytest.raises(ValueError):
        susy_partner_core_integral(1.0, -0.1)


# ---------------------------------------------------------------------------
# the clamped singular potential
# ---------------------------------------------------------------------------


def test_scarf_exact_values_and_validation():
    assert scarf_exact(1.0, 0.1) == pytest.approx(1.0 / math.sin(0.1) ** 2, rel=1e-14)
    assert scarf_exact(2.0, -0.3) == pytest.approx(2.0 / math.sin(0.3) ** 2, rel=1e-14)
    with pytest.raises(ValueError):
        scarf_exact(0.0, 0.1)
    with pytest.raises(ValueError):
        scarf_exact(1.0, 0.0)


def test_scarf_core_height_frozen_value():
    # v0 = 1, eps = 0.1: the clamped core sits at 1/sin^2(0.1) ~ 100.334
    gp = scarf_regularized(1.0, 0.1, n_points=300)
    core = float(gp.values.max())
    assert core == pytest.approx(1.0 / math.sin(0.1) ** 2, rel=1e-12)
    assert core == pytest.approx(100.334, abs=1e-3)


def test_scarf_regularized_grid_layout():
    gp = scarf_regularized(1.0, 0.1, n_points=300)
    # nodes are symmetric about 0 and never hit it
    assert gp.grid.size == 300
    assert float(np.min(np.abs(gp.grid))) > 0.0
    assert gp.grid[0] == pytest.approx(-gp.grid[-1], rel=1e-12)
    # outside the core the exact potential is sampled
    outside = np.abs(gp.grid) > 0.1
    recomputed = 1.0 / np.sin(gp.grid[outside]) ** 2
    assert np.allclose(gp.values[outside], recomputed, rtol=1e-13)


def test_scarf_regularized_validation():
    with pytest.raises(ValueError):
        scarf_regularized(1.0, 0.1, n_points=301)  # odd grids put a node at 0
    with pytest.raises(ValueError):
        scarf_regularized(1.0, 2.0)  # core wider than the domain
    with pytest.raises(ValueError):
        scarf_regularized(1.0, 0.1, half_width=2.0)


def test_scarf_alpha_strength_factor():
    eps = 0.1
    expected = -1.0 * eps * eps / math.sin(eps) ** 2
    assert scarf_alpha(1.0, eps) == pytest.approx(expected, rel=1e-14)
    # tends to -v0 as the core shrinks
    assert scarf_alpha(2.0, 1e-5) == pytest.approx(-2.0, abs=1e-8)


def test_scarf_ground_energy_closed_form():
    # v0 = 1: a = (1 + 3)/2 = 2, E0 = 2.0 exactly
    assert scarf_ground_energy(1.0) == pytest.approx(2.0, rel=1e-15)


def test_clamped_ground_energy_approaches_split_domain_value():
    # as the core shrinks, the singular barrier decouples the two halves
    # and each half sees walls at 0 and pi/2; the nodeless state there is
    # sin(z)^a cos(z) with energy (a + 1)^2 / 2, i.e. 4.5 for v0 = 1
    a = 0.5 * (1.0 + math.sqrt(1.0 + 8.0 * 1.0))
    exact = 0.5 * (a + 1.0) ** 2
    errs = []
    for eps in (0.2, 0.1, 0.05):
        e0, _ = ground_state(scarf_regularized(1.0, eps, n_points=1200))
        errs.append(abs(e0 - exact))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 0.005


# ---------------------------------------------------------------------------
# commutation of clamping and factorization
# ---------------------------------------------------------------------------


def test_commutation_deviation_decreases():
    pairs = darboux_commutation_check(1.0, (0.2, 0.1, 0.05), n_points=1200)
    devs = [d for _, d in pairs]
    assert devs[0] > devs[1] > devs[2]


def test_commutation_check_validation():
    with pytest.raises(ValueError):
        darboux_commutation_check(1.0, ())
    with pytest.raises(ValueError):
        darboux_commutation_check(1.0, (0.2,), exclusion_radius=10.0)
