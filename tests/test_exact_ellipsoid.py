import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

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


def test_g_ball_matches_its_kappa_tau_omega_assembly():
    # closed-form (d-2)/(d+2) against the raw kappa*tau/omega^2 assembly
    for d in range(3, 33):
        assembled = ex.kappa_d(d) * ex.tau_d(d) / ex.omega_d(d) ** 2
        assert abs(assembled - ex.g_ball(d)) <= 1e-13 * ex.g_ball(d), d


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
# the capacity integral
# ---------------------------------------------------------------------------

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


@pytest.mark.parametrize("r", [0.7, 1.3])
@pytest.mark.parametrize("d", range(3, 9))
def test_capacity_ball_is_the_closed_form(d, r):
    assert ex.cap_newtonian_ellipsoid(np.full(d, r)) == ex.kappa_d(d) * r ** (d - 2)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
@pytest.mark.parametrize("fn, k", [
    (ex.torsion_ellipsoid, 2), (ex.carlson_integral, 3), (ex.carlson_integral, 4),
    (ex.perimeter_ellipsoid, 2), (ex.perimeter_ellipsoid, 3), (ex.eccentricity, 2),
    (ex.cap_newtonian_ellipsoid, 3), (ex.g_ellipsoid_direct, 3),
    (lambda a: ex.cap_log_ellipse(*a), 2),
], ids=["torsion", "carlson3", "carlson4", "perimeter2", "perimeter3",
        "eccentricity", "cap_newtonian", "g_direct", "cap_log"])
def test_exact_backends_reject_a_bad_semi_axis(fn, k, bad):
    # a NaN or infinite axis is a validation error like a non-positive one,
    # not a NaN, an infinity, an OverflowError or a bare ValueError
    with pytest.raises(ValidationError):
        fn([bad] + [1.0] * (k - 1))


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


# ---------------------------------------------------------------------------
# the trapezoid rule in log t against independent oracles
# ---------------------------------------------------------------------------

mpmath = pytest.importorskip("mpmath")

# per d: a random body, a needle (one short axis), a long rod (one long
# axis) and a mixed body, axis ratios down to 1e-6
ORACLE_RNG = np.random.default_rng(7)
ORACLE_AXES = [
    axes
    for d in range(3, 9)
    for axes in (ORACLE_RNG.uniform(0.2, 5.0, size=d),
                 np.r_[np.ones(d - 1), 1e-6],
                 np.r_[1e6, np.ones(d - 1)],
                 np.r_[3.0, np.geomspace(1.0, 1e-6, d - 1)])
]


def _mp_quad(f, scales):
    # tanh-sinh on [0, inf) split at the integrand's scale points
    with mpmath.workdps(30):
        return mpmath.quad(f, [0] + sorted({mpmath.mpf(float(s)) for s in scales})
                           + [mpmath.inf])


def mp_carlson(a):
    with mpmath.workdps(30):
        a2 = [mpmath.mpf(float(x)) ** 2 for x in a]
        return _mp_quad(lambda t: 1 / mpmath.sqrt(mpmath.fprod(x + t for x in a2)), a2)


def mp_surface(a):
    d = len(a)
    with mpmath.workdps(30):
        c2 = [2 / mpmath.mpf(float(x)) ** 2 for x in a]
        integral = _mp_quad(
            lambda t: (1 - 1 / mpmath.sqrt(mpmath.fprod(1 + c * t for c in c2))) * t ** -1.5,
            [1 / c for c in c2])
        e_gauss = integral / (2 * mpmath.sqrt(mpmath.pi))
        e_norm = mpmath.sqrt(2) * mpmath.gamma((d + 1) / mpmath.mpf(2)) / mpmath.gamma(d / mpmath.mpf(2))
        omega = mpmath.pi ** (d / mpmath.mpf(2)) / mpmath.gamma(d / mpmath.mpf(2) + 1)
        return d * omega * mpmath.fprod(mpmath.mpf(float(x)) for x in a) * e_gauss / e_norm


def _ids(axes_list):
    return [f"d{a.size}-{i % 4}" for i, a in enumerate(axes_list)]


@pytest.mark.parametrize("a", [a for a in ORACLE_AXES if a.size >= 4],
                         ids=_ids([a for a in ORACLE_AXES if a.size >= 4]))
def test_carlson_integral_and_capacity_against_mpmath(a):
    d = a.size
    e_ref = mp_carlson(a)
    assert ex.carlson_integral(a) == pytest.approx(float(e_ref), rel=1e-12)
    with mpmath.workdps(30):
        kappa = 4 * mpmath.pi ** (d / mpmath.mpf(2)) / mpmath.gamma((d - 2) / mpmath.mpf(2))
        cap_ref = kappa / (d / mpmath.mpf(2) - 1) / e_ref
    assert ex.cap_newtonian_ellipsoid(a) == pytest.approx(float(cap_ref), rel=1e-12)


@pytest.mark.parametrize("a", ORACLE_AXES, ids=_ids(ORACLE_AXES))
def test_surface_against_mpmath(a):
    assert ex.perimeter_ellipsoid(a) == pytest.approx(float(mp_surface(a)), rel=1e-12)


def test_ellipse_perimeter_against_scipy():
    from scipy.special import ellipe
    a, b = 2.0, 1.0
    exact = 4 * a * ellipe(1 - (b / a) ** 2)
    assert ex.perimeter_ellipsoid([a, b]) == pytest.approx(exact, rel=1e-14)


def test_ellipse_perimeter_across_ratios():
    from scipy.special import ellipe
    for ratio in (5.0, 0.2, 1e-6, 1e6, 1.0 + 1e-15, 1e-12, 1e12):
        exact = 4 * max(ratio, 1.0) * ellipe(1 - (min(ratio, 1.0) / max(ratio, 1.0)) ** 2)
        assert ex.perimeter_ellipsoid([ratio, 1.0]) == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("d", range(3, 9))
def test_g_direct_on_needles(d):
    # g_ellipsoid_direct raises if it strays 1e-8 from the assembly; the
    # value itself is checked against the mpmath assembly at 1e-12
    for a in (np.r_[np.ones(d - 1), 1e-6], np.r_[1e6, np.ones(d - 1)]):
        e_ref = mp_carlson(a)
        with mpmath.workdps(30):
            ref = (mpmath.mpf(d - 2) / (d + 2) * 2 * d / (d - 2)
                   / (mpmath.fsum(mpmath.mpf(float(x)) ** -2 for x in a)
                      * mpmath.fprod(mpmath.mpf(float(x)) for x in a) * e_ref))
        assert ex.g_ellipsoid_direct(a) == pytest.approx(float(ref), rel=1e-12)


def test_every_rule_call_evaluates_once_on_few_nodes(monkeypatch):
    # RuntimeWarnings are errors under this suite, so this also checks that
    # no integrand over- or underflows with a warning at extreme ratios
    rule = ex.adaptive_gl
    sizes = []

    def counted(f, scales):
        calls = []

        def once(t):
            calls.append(t.size)
            return f(t)
        value = rule(once, scales)
        assert len(calls) == 1
        sizes.append(calls[0])
        return value

    monkeypatch.setattr(ex, "adaptive_gl", counted)
    for d in range(2, 9):
        for a in (np.ones(d), np.r_[np.ones(d - 1), 1e-12], np.r_[1e12, np.ones(d - 1)],
                  np.geomspace(1e-12, 1e12, d)):
            assert np.isfinite(ex.perimeter_ellipsoid(a))
            if d >= 3:
                assert np.isfinite(ex.g_ellipsoid_direct(a))
            if d >= 4:
                assert np.isfinite(ex.cap_newtonian_ellipsoid(a))
    # 28 surfaces, 24 G (each quadrature twice at d >= 4 off the ball), 15
    # capacities: a ball's capacity is its closed form, with no quadrature
    assert len(sizes) == 28 + 24 + 15 + 15
    assert max(sizes) <= 10_000
