import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import elliprf

from shapefn import exact_ellipsoid as ex
from shapefn.errors import ValidationError

# analytic capacity of a prolate spheroid with semi-axes (a, b, b):
#   8 pi c / log((a + c)/(a - c)),  c = sqrt(a^2 - b^2)
def prolate_capacity(a, b):
    c = math.sqrt(a * a - b * b)
    return 8 * math.pi * c / math.log((a + c) / (a - c))


# ---------------------------------------------------------------------------
# ball constants
# ---------------------------------------------------------------------------

def test_omega_golden():
    assert ex.omega_d(2) == pytest.approx(math.pi, rel=1e-15)
    assert ex.omega_d(3) == pytest.approx(4 * math.pi / 3, rel=1e-15)
    assert ex.omega_d(4) == pytest.approx(math.pi ** 2 / 2, rel=1e-15)
    assert ex.omega_d(6) == pytest.approx(math.pi ** 3 / 6, rel=1e-15)


def test_tau_kappa_golden():
    assert ex.tau_d(3) == pytest.approx(4 * math.pi / 45, rel=1e-15)
    assert ex.kappa_d(3) == pytest.approx(4 * math.pi, rel=1e-15)
    assert ex.kappa_d(4) == pytest.approx(4 * math.pi ** 2, rel=1e-15)


def test_g_ball_closed_form():
    for d in range(3, 12):
        assert ex.g_ball(d) == (d - 2.0) / (d + 2.0)
    with pytest.raises(ValidationError):
        ex.g_ball(2)
    with pytest.raises(ValidationError):
        ex.kappa_d(2)


def test_h_ball_value():
    assert ex.H_BALL == pytest.approx(1.0 / (2 * math.sqrt(2) * math.pi), rel=1e-15)


def test_alpha_family_endpoints():
    # the alpha families reduce to G and H at the canonical exponents
    for d in (3, 4, 7):
        assert ex.g_alpha_ball(d, 2.0) == pytest.approx(ex.g_ball(d), rel=1e-14)
    assert ex.h_alpha_ball(1.5) == pytest.approx(ex.H_BALL, rel=1e-14)
    assert ex.g_alpha_ball(3, 0.0) == pytest.approx(1.0 / (180 * math.pi), rel=1e-13)
    assert ex.h_alpha_ball(0.0) == pytest.approx(2 ** -4.5 * math.pi ** -2.5, rel=1e-14)


def test_alpha_range_validation():
    with pytest.raises(ValidationError):
        ex.g_alpha_ball(3, 2.5)
    with pytest.raises(ValidationError):
        ex.h_alpha_ball(1.6)


# ---------------------------------------------------------------------------
# torsion
# ---------------------------------------------------------------------------

def test_torsion_unit_ball():
    for d in range(2, 9):
        assert ex.torsion_ellipsoid(np.ones(d)) == pytest.approx(ex.tau_d(d), rel=1e-14)


def test_torsion_ellipse_golden():
    # T(E(a,b)) = pi a^3 b^3 / (4 (a^2 + b^2)) in the plane
    # (normalization fixed by T(B_1) = tau_2 = pi/8)
    a, b = 3.0, 1.0
    expected = math.pi * a ** 3 * b ** 3 / (4 * (a * a + b * b))
    assert ex.torsion_ellipsoid([a, b]) == pytest.approx(expected, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.2, 5.0), min_size=2, max_size=6),
       st.floats(0.3, 3.0))
def test_torsion_scaling(axes, t):
    a = np.array(axes)
    d = a.size
    assert ex.torsion_ellipsoid(t * a) == pytest.approx(
        t ** (d + 2) * ex.torsion_ellipsoid(a), rel=1e-12)


# ---------------------------------------------------------------------------
# Carlson R_F and the capacity integral
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.floats(0.01, 100.0), st.floats(0.01, 100.0), st.floats(0.01, 100.0))
def test_carlson_rf_against_scipy(x, y, z):
    assert ex.carlson_rf(x, y, z) == pytest.approx(float(elliprf(x, y, z)), rel=1e-12)


def test_carlson_rf_degenerate_point():
    assert float(ex.carlson_rf(4.0, 4.0, 4.0)) == pytest.approx(0.5, rel=1e-14)


def test_carlson_integral_unit_ball():
    # int_0^inf (1+t)^{-d/2} dt = 2/(d-2)
    for d in range(3, 8):
        assert ex.carlson_integral(np.ones(d)) == pytest.approx(2.0 / (d - 2), rel=1e-12)


def test_carlson_integral_d4_against_scipy_quad():
    a = np.array([2.0, 1.5, 1.0, 0.5])

    def f(t):
        return float(np.prod(np.sqrt(a ** 2 + t)) ** -1)

    ref, err = integrate.quad(f, 0, np.inf, epsabs=0, epsrel=1e-12)
    assert ex.carlson_integral(a) == pytest.approx(ref, rel=1e-10)


def test_capacity_unit_ball():
    for d in range(3, 8):
        assert ex.cap_newtonian_ellipsoid(np.ones(d)) == pytest.approx(
            ex.kappa_d(d), rel=1e-12)


def test_capacity_prolate_analytic():
    assert ex.cap_newtonian_ellipsoid([2.0, 1.0, 1.0]) == pytest.approx(
        prolate_capacity(2.0, 1.0), rel=1e-12)
    assert ex.cap_newtonian_ellipsoid([2.0, 1.0, 1.0]) == pytest.approx(
        16.5271740437828, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.3, 4.0), min_size=3, max_size=6), st.floats(0.5, 2.0))
def test_capacity_scaling(axes, t):
    a = np.array(axes)
    d = a.size
    assert ex.cap_newtonian_ellipsoid(t * a) == pytest.approx(
        t ** (d - 2) * ex.cap_newtonian_ellipsoid(a), rel=1e-10)


def test_capacity_monotone_in_axes():
    a = np.array([2.0, 1.0, 1.0])
    assert ex.cap_newtonian_ellipsoid(a + 0.1) > ex.cap_newtonian_ellipsoid(a)


def test_cap_log_ellipse():
    assert ex.cap_log_ellipse(2.0, 1.0) == 1.5
    assert ex.cap_log_ellipse(1.0, 1.0) == 1.0  # disk: its own radius
    with pytest.raises(ValidationError):
        ex.cap_log_ellipse(1.0, 0.0)


# ---------------------------------------------------------------------------
# eccentricity and direct G
# ---------------------------------------------------------------------------

def test_eccentricity_golden():
    C, crude = ex.eccentricity([2.0, 1.0, 1.0])
    assert C == pytest.approx(4.0)
    assert crude == pytest.approx(2.0)
    C_ball, _ = ex.eccentricity(np.ones(5))
    assert C_ball == pytest.approx(1.0)


def test_eccentricity_crude_is_lower_bound():
    rng = np.random.default_rng(11)
    for _ in range(30):
        a = rng.uniform(0.2, 5.0, size=rng.integers(2, 7))
        C, crude = ex.eccentricity(a)
        assert crude <= C + 1e-12


def test_g_direct_ball():
    for d in (3, 4, 5):
        assert ex.g_ellipsoid_direct(np.ones(d)) == pytest.approx(
            ex.g_ball(d), rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.4, 3.0), min_size=3, max_size=5))
def test_g_direct_matches_assembly(axes):
    # the function raises InternalConsistencyError itself if the two
    # independent computations disagree; also G never exceeds the ball value
    a = np.array(axes)
    val = ex.g_ellipsoid_direct(a)
    assert 0.0 < val <= ex.g_ball(a.size) * (1 + 1e-10)


def test_g_direct_scale_invariant():
    a = np.array([2.0, 1.0, 0.5])
    assert ex.g_ellipsoid_direct(3.7 * a) == pytest.approx(
        ex.g_ellipsoid_direct(a), rel=1e-10)
