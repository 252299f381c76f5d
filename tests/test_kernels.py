"""Unit tests for the kernel families: values, derivatives, masses, windows."""

import math

import pytest
from hypothesis import given, strategies as st

from deltalab import (
    DeltaKernel,
    KERNEL_KINDS,
    UnsupportedDerivativeError,
    WellKernel,
    adaptive_quadrature,
    breve_sample,
    default_window,
    delta_prime_sample,
    eval_kernel,
    eval_well,
    heaviside_smooth,
    kernel_breakpoints,
    kernel_mass,
    singular_alpha,
)
from deltalab.qm1d import (
    delta_prime_pair,
    delta_well_box,
    scarf_alpha,
    smoothed_abs,
    susy_partner_core_integral,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Every public entry point that takes a width, called with that width.
WIDTH_ENTRY_POINTS = {
    "eval_kernel": lambda w: eval_kernel("gaussian", w, 0.0),
    "kernel_mass": lambda w: kernel_mass("gaussian", w, -1.0, 1.0),
    "DeltaKernel": lambda w: DeltaKernel("gaussian", w),
    "eval_well": lambda w: eval_well("breve", w, 0.0),
    "WellKernel": lambda w: WellKernel("breve", w),
    "breve_sample": lambda w: breve_sample(math.cos, None, w),
    "delta_prime_sample": lambda w: delta_prime_sample(math.cos, w),
    "singular_alpha": lambda w: singular_alpha(1, w),
    "delta_well_box": lambda w: delta_well_box(1.0, w),
    "delta_prime_pair": lambda w: delta_prime_pair(1.0, w),
    "smoothed_abs": lambda w: smoothed_abs(w, 0.0),
    "scarf_alpha": lambda w: scarf_alpha(1.0, w),
    "susy_partner_core_integral": lambda w: susy_partner_core_integral(1.0, w),
}


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, "0.1"])
@pytest.mark.parametrize("entry", sorted(WIDTH_ENTRY_POINTS))
def test_width_contract_is_shared(entry, bad):
    with pytest.raises(ValueError, match="width must be a finite positive number"):
        WIDTH_ENTRY_POINTS[entry](bad)


# ---------------------------------------------------------------------------
# peak values and closed-form spot checks
# ---------------------------------------------------------------------------


def test_gaussian_peak_value():
    eps = 0.25
    assert eval_kernel("gaussian", eps, 0.0) == pytest.approx(
        1.0 / (eps * SQRT_2PI), rel=1e-15
    )


def test_box_is_flat_inside_and_zero_outside():
    eps = 0.3
    inside = 1.0 / (2.0 * eps)
    assert eval_kernel("box", eps, 0.0) == inside
    assert eval_kernel("box", eps, 0.2999999) == inside
    # closed support: the endpoints belong to the box
    assert eval_kernel("box", eps, eps) == inside
    assert eval_kernel("box", eps, -eps) == inside
    assert eval_kernel("box", eps, 0.3000001) == 0.0


def test_lorentzian_closed_form():
    eps, z = 0.4, 1.3
    expected = eps / (math.pi * (z * z + eps * eps))
    assert eval_kernel("lorentzian", eps, z) == pytest.approx(expected, rel=1e-15)


def test_sinc_peak_and_zeros():
    eps = 0.2
    # value at the origin is K/pi with K = 1/eps
    assert eval_kernel("sinc", eps, 0.0) == pytest.approx(
        1.0 / (eps * math.pi), rel=1e-14
    )
    # zeros at multiples of pi*eps
    for j in (1, 2, 5):
        assert eval_kernel("sinc", eps, j * math.pi * eps) == pytest.approx(
            0.0, abs=1e-14
        )


def test_width_must_be_positive():
    for kind in KERNEL_KINDS:
        with pytest.raises(ValueError):
            eval_kernel(kind, 0.0, 0.1)
        with pytest.raises(ValueError):
            eval_kernel(kind, -1.0, 0.1)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        eval_kernel("triangle", 0.1, 0.0)


# ---------------------------------------------------------------------------
# derivatives: parity, caps, and a finite-difference cross-check
# ---------------------------------------------------------------------------


def test_derivative_order_cap():
    for kind in ("gaussian", "lorentzian", "sinc"):
        with pytest.raises(UnsupportedDerivativeError):
            eval_kernel(kind, 0.1, 0.0, order=5)


def test_box_rejects_derivatives():
    with pytest.raises(UnsupportedDerivativeError):
        eval_kernel("box", 0.1, 0.0, order=1)


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        eval_kernel("gaussian", 0.1, 0.0, order=-1)


@pytest.mark.parametrize("kind", ["gaussian", "lorentzian", "sinc"])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_derivative_matches_finite_difference(kind, order):
    """Each analytic derivative must agree with a 4th-order central stencil
    applied to the analytic derivative one order below."""
    for eps in (0.7, 0.05):
        h = 1e-3 * eps
        pts = [0.0, 0.31 * eps, 1.1 * eps, 2.7 * eps]
        vals = [abs(eval_kernel(kind, eps, z, order)) for z in pts]
        scale = max(vals)
        for z in pts:
            fd = (
                -eval_kernel(kind, eps, z + 2 * h, order - 1)
                + 8 * eval_kernel(kind, eps, z + h, order - 1)
                - 8 * eval_kernel(kind, eps, z - h, order - 1)
                + eval_kernel(kind, eps, z - 2 * h, order - 1)
            ) / (12 * h)
            assert eval_kernel(kind, eps, z, order) == pytest.approx(
                fd, abs=1e-7 * scale
            )


def test_gaussian_second_derivative_closed_form():
    eps, z = 0.2, 0.13
    t = z / eps
    phi = math.exp(-0.5 * t * t) / SQRT_2PI
    expected = (t * t - 1.0) * phi / eps**3
    assert eval_kernel("gaussian", eps, z, 2) == pytest.approx(expected, rel=1e-13)


def test_lorentzian_first_derivative_closed_form():
    eps, z = 0.3, 0.4
    expected = -2.0 * eps * z / (math.pi * (z * z + eps * eps) ** 2)
    assert eval_kernel("lorentzian", eps, z, 1) == pytest.approx(expected, rel=1e-13)


@given(
    kind=st.sampled_from(["gaussian", "lorentzian", "sinc"]),
    eps=st.floats(1e-3, 10.0),
    zeta=st.floats(-50.0, 50.0),
    order=st.integers(0, 4),
)
def test_parity_is_exact(kind, eps, zeta, order):
    left = eval_kernel(kind, eps, -zeta, order)
    right = eval_kernel(kind, eps, zeta, order)
    if order % 2 == 0:
        assert left == right
    else:
        assert left == -right


@given(eps=st.floats(1e-3, 10.0), zeta=st.floats(-50.0, 50.0))
def test_box_parity_is_exact(eps, zeta):
    assert eval_kernel("box", eps, -zeta) == eval_kernel("box", eps, zeta)


# ---------------------------------------------------------------------------
# masses: closed forms, additivity, and a quadrature cross-check
# ---------------------------------------------------------------------------


def test_total_masses_are_one():
    assert kernel_mass("gaussian", 0.5, -math.inf, math.inf) == pytest.approx(
        1.0, abs=1e-15
    )
    assert kernel_mass("box", 0.5, -0.5, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert kernel_mass("lorentzian", 0.5, -math.inf, math.inf) == pytest.approx(
        1.0, abs=1e-15
    )


def test_box_mass_is_linear_clip():
    eps = 0.4
    assert kernel_mass("box", eps, -0.1, 0.3) == pytest.approx(0.5, rel=1e-14)
    assert kernel_mass("box", eps, -5.0, 5.0) == 1.0
    assert kernel_mass("box", eps, 0.4, 9.0) == 0.0


def test_sinc_mass_requires_finite_interval():
    with pytest.raises(ValueError):
        kernel_mass("sinc", 0.1, -math.inf, 1.0)


@pytest.mark.parametrize("kind", sorted(KERNEL_KINDS))
def test_mass_agrees_with_quadrature(kind):
    """Closed-form masses must match direct adaptive integration of the kernel."""
    eps = 0.3
    a, b = -0.7, 1.1
    pts = [a] + kernel_breakpoints(kind, eps, a, b) + [b]
    quad = adaptive_quadrature(lambda z: eval_kernel(kind, eps, z), pts, tol=1e-13)
    assert quad == pytest.approx(kernel_mass(kind, eps, a, b), abs=1e-11)


@given(
    kind=st.sampled_from(sorted(KERNEL_KINDS)),
    eps=st.floats(1e-2, 5.0),
    cuts=st.tuples(
        st.floats(-20.0, 20.0), st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)
    ),
)
def test_mass_is_additive(kind, eps, cuts):
    a, b, c = sorted(cuts)
    total = kernel_mass(kind, eps, a, c)
    split = kernel_mass(kind, eps, a, b) + kernel_mass(kind, eps, b, c)
    assert split == pytest.approx(total, abs=1e-12)


def test_mass_rejects_reversed_limits():
    with pytest.raises(ValueError):
        kernel_mass("gaussian", 0.2, 1.0, -1.0)


# ---------------------------------------------------------------------------
# smoothed step
# ---------------------------------------------------------------------------


def test_heaviside_smooth_midpoint_is_exact():
    for eps in (1.0, 0.1, 1e-4):
        assert heaviside_smooth(eps, 0.0) == 0.5


def test_heaviside_smooth_limits():
    assert heaviside_smooth(0.01, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert heaviside_smooth(0.01, -1.0) == pytest.approx(0.0, abs=1e-15)


def test_heaviside_smooth_matches_gaussian_mass():
    eps, z = 0.3, 0.17
    assert heaviside_smooth(eps, z) == pytest.approx(
        kernel_mass("gaussian", eps, -math.inf, z), rel=1e-14
    )


def test_heaviside_smooth_derivative_is_gaussian_kernel():
    eps, z = 0.25, 0.4
    h = 1e-6
    fd = (heaviside_smooth(eps, z + h) - heaviside_smooth(eps, z - h)) / (2 * h)
    assert fd == pytest.approx(eval_kernel("gaussian", eps, z), rel=1e-8)


@given(eps=st.floats(1e-3, 10.0), zeta=st.floats(-30.0, 30.0))
def test_heaviside_smooth_symmetry(eps, zeta):
    s = heaviside_smooth(eps, zeta) + heaviside_smooth(eps, -zeta)
    assert s == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# windows, breakpoints, and the frozen wrapper
# ---------------------------------------------------------------------------


def test_default_windows_scale_with_width():
    assert default_window("gaussian", 0.5) == (-6.0, 6.0)
    assert default_window("box", 0.5) == (-0.5, 0.5)
    assert default_window("sinc", 0.5) == (-1.0, 1.0)


def test_lorentzian_window_is_width_independent():
    assert default_window("lorentzian", 0.4) == (-8.0, 8.0)
    assert default_window("lorentzian", 1e-4) == (-8.0, 8.0)


def test_box_breakpoints_are_edges():
    assert kernel_breakpoints("box", 0.3, -1.0, 1.0) == [-0.3, 0.3]
    # edges outside the requested range are dropped
    assert kernel_breakpoints("box", 0.3, 0.0, 1.0) == [0.3]
    assert kernel_breakpoints("gaussian", 0.3, -1.0, 1.0) == []


def test_sinc_breakpoints_are_zeros():
    eps = 0.1
    pts = kernel_breakpoints("sinc", eps, -0.5, 0.5)
    assert pts
    for p in pts:
        assert -0.5 < p < 0.5
        assert eval_kernel("sinc", eps, p) == pytest.approx(0.0, abs=1e-12)


def test_delta_kernel_wrapper_matches_functions():
    k = DeltaKernel("gaussian", 0.2)
    assert k(0.1) == eval_kernel("gaussian", 0.2, 0.1)
    assert k(0.1, order=2) == eval_kernel("gaussian", 0.2, 0.1, 2)
    assert k.mass(-1.0, 1.0) == kernel_mass("gaussian", 0.2, -1.0, 1.0)
    assert k.default_window() == default_window("gaussian", 0.2)


def test_delta_kernel_validates_eagerly():
    with pytest.raises(ValueError):
        DeltaKernel("gaussian", -0.1)
    with pytest.raises(ValueError):
        DeltaKernel("nope", 0.1)
