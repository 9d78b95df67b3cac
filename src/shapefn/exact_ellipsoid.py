"""Closed-form and quadrature-exact values for balls and ellipsoids:
torsion, Newtonian capacity, logarithmic capacity, surface measure,
eccentricity and the ball reference constants entering the shape
functionals. Every ellipsoid integral but the d = 3 capacity, which is
Carlson's R_F, goes through one rule, the trapezoid rule in log t
(`adaptive_gl`)."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import elliprf

from .errors import InternalConsistencyError, ValidationError


def omega_d(d):
    """Unit-ball volume, via log-Gamma (stable up to large d)."""
    return math.exp(0.5 * d * math.log(math.pi) - math.lgamma(d / 2.0 + 1.0))


def tau_d(d):
    """Unit-ball torsional rigidity omega_d / (d (d+2))."""
    return omega_d(d) / (d * (d + 2.0))


def kappa_d(d):
    """Unit-ball Newtonian capacity 4 pi^{d/2} / Gamma((d-2)/2), d >= 3."""
    if d < 3:
        raise ValidationError("Newtonian capacity needs d >= 3")
    return 4.0 * math.exp(0.5 * d * math.log(math.pi) - math.lgamma((d - 2.0) / 2.0))


def g_ball(d):
    """G on the unit ball: kappa tau / omega^2 = (d-2)/(d+2)."""
    if d < 3:
        raise ValidationError("G needs d >= 3")
    return (d - 2.0) / (d + 2.0)


H_BALL = 2.0 ** -1.5 / math.pi  # H on the unit disk


def g_alpha_ball(d, alpha):
    """G_alpha on the unit ball, assembled from G, |B_1| and P(B_1)."""
    if not 0.0 <= alpha <= 2.0:
        raise ValidationError("alpha must lie in [0, 2]")
    w = omega_d(d)
    return g_ball(d) * w ** (2.0 - alpha) * (d * w) ** (d * (alpha - 2.0) / (d - 1.0))


def h_alpha_ball(alpha):
    """H_alpha on the unit disk: 2^{(4 alpha - 9)/2} pi^{(2 alpha - 5)/2}."""
    if not 0.0 <= alpha <= 1.5:
        raise ValidationError("alpha must lie in [0, 3/2]")
    return 2.0 ** ((4.0 * alpha - 9.0) / 2.0) * math.pi ** ((2.0 * alpha - 5.0) / 2.0)


# ---------------------------------------------------------------------------
# torsion and capacity of ellipsoids
# ---------------------------------------------------------------------------

def _axes(a, k):
    """a as a float array of d >= k semi-axes, each positive and finite."""
    a = np.asarray(a, dtype=float)
    if a.size < k or not np.all(np.isfinite(a) & (a > 0)):
        raise ValidationError(f"need d >= {k} positive finite semi-axes")
    return a


def torsion_ellipsoid(a):
    """T(E(a)) = omega_d/(d+2) (prod a_i) (sum a_i^-2)^-1, any d >= 2."""
    a = _axes(a, 2)
    d = a.size
    return omega_d(d) / (d + 2.0) * float(np.prod(a)) / float(np.sum(a ** -2.0))


_STEP, _MARGIN = 1.0 / 3.0, 80.0  # step and tail margin of the rule, in u = log t


def adaptive_gl(f, scales):
    """int_0^inf f(t) dt by the trapezoid rule in u = log t.

    The nodes run at step 1/3 in u over [log min(scales) - 80,
    log max(scales) + 80], where `scales` are the points t at which the
    integrand bends; f is called once, on the whole node array. Every
    integrand here is analytic in the strip |Im u| < pi and decays at
    least like exp(-|u|/2) beyond its scale points, so the error falls
    like exp(-2 pi^2 / step) whatever the axis ratio (Trefethen & Weideman,
    SIAM Review 56, 2014), times a factor that grows with the order d/2 of
    the poles at t = -1/c_i, largest on balls. Step 1/2 leaves 2e-12 on the
    d = 13 ball and 3e-9 at d = 64; step 1/3 stays below 2e-14 on balls up
    to d = 64 and against mpmath for d <= 8 at axis ratios to 1e-6. The
    rule does not adapt; it keeps the name `adaptive_gl` only because
    bench/tracing.py patches that name to count nodes, until the benchmark
    reads counters instead (ROADMAP item 1)."""
    lo = math.log(min(scales)) - _MARGIN
    n = int(math.ceil((math.log(max(scales)) + _MARGIN - lo) / _STEP)) + 1
    t = np.exp(lo + _STEP * np.arange(n))
    return _STEP * float(t @ f(t))


def _reduced_carlson(c):
    """int_0^inf prod (1 + c_i t)^{-1/2} dt, which is prod(a) e(a) for
    c = a^-2."""
    c = np.asarray(c, dtype=float)
    return adaptive_gl(
        lambda t: np.exp(-0.5 * np.log1p(c[:, None] * t).sum(axis=0)), 1.0 / c)


def carlson_integral(a):
    """e(a) = int_0^inf prod (a_i^2 + t)^{-1/2} dt, d >= 3.

    d = 3 goes through Carlson's R_F (`scipy.special.elliprf`); d >= 4
    through the trapezoid rule in log t (`adaptive_gl`) on
    prod (1 + t/a_i^2)^{-1/2}."""
    a = _axes(a, 3)
    if a.size == 3:
        return 2.0 * float(elliprf(a[0] ** 2, a[1] ** 2, a[2] ** 2))
    return _reduced_carlson(a ** -2.0) / float(np.prod(a))


def perimeter_ellipsoid(a):
    """Surface measure of E(a) (perimeter if d = 2), any d >= 2.

    Cauchy's formula gives S = d omega_d (prod a) E_u |u / a| over the unit
    sphere u. With a Gaussian vector g = |g| u and c = a^-2,
    E_g sqrt(sum c_i g_i^2) = (4 pi)^{-1/2} int_0^inf
    (1 - prod (1 + 2 c_i t)^{-1/2}) t^{-3/2} dt, taken by the trapezoid
    rule in log t (`adaptive_gl`); E|g| = sqrt(2) Gamma((d+1)/2) / Gamma(d/2)."""
    a = _axes(a, 2)
    d = a.size
    c2 = 2.0 * a ** -2.0

    def f(t):
        # 1 - prod by expm1 of the log sum, so no digits cancel at small t
        return -np.expm1(-0.5 * np.log1p(c2[:, None] * t).sum(axis=0)) * t ** -1.5

    e_gauss = adaptive_gl(f, 1.0 / c2) / (2.0 * math.sqrt(math.pi))
    e_norm = math.sqrt(2.0) * math.exp(math.lgamma((d + 1) / 2.0) - math.lgamma(d / 2.0))
    return d * omega_d(d) * float(np.prod(a)) * e_gauss / e_norm


def cap_newtonian_ellipsoid(a):
    """cp(closure of E(a)) = kappa_d / (d/2 - 1) / e(a), d >= 3; on a ball of
    radius r the closed form kappa_d r^(d-2), free of quadrature rounding."""
    a = _axes(a, 3)
    d = a.size
    if np.all(a == a[0]):
        return kappa_d(d) * float(a[0]) ** (d - 2)
    return kappa_d(d) / (d / 2.0 - 1.0) / carlson_integral(a)


def cap_log_ellipse(a1, a2):
    """Logarithmic capacity of an ellipse: (a1 + a2)/2."""
    _axes([a1, a2], 2)
    return 0.5 * (a1 + a2)


def eccentricity(a):
    """(C(a), crude lower bound b_1^2/((d-1) b_d^2)) for sorted axes b."""
    a = _axes(a, 2)
    d = a.size
    b = np.sort(a)[::-1]
    C = float(np.sum((b[0] / b[1:]) ** 2)) / (d - 1.0)
    return C, b[0] ** 2 / ((d - 1.0) * b[-1] ** 2)


_G_CROSS_CHECK_TOL = 1e-8


def g_ellipsoid_direct(a):
    """G(E(a)) = g_ball(d) (2d/(d-2)) / J with J = (sum c_i) int_0^inf
    prod (1 + c_i t)^{-1/2} dt, c = a^-2, by the trapezoid rule in log t
    (`adaptive_gl`) at every d >= 3.

    Cross-checked against the torsion * capacity / volume^2 assembly; a
    relative disagreement beyond _G_CROSS_CHECK_TOL raises. At d = 3 the
    assembly's capacity comes from R_F, so the check is independent; at
    d >= 4 it shares the quadrature and checks the assembly constants."""
    a = _axes(a, 3)
    d = a.size
    c = a ** -2.0
    J = float(c.sum()) * _reduced_carlson(c)
    val = g_ball(d) * (2.0 * d / (d - 2.0)) / J
    assembled = (torsion_ellipsoid(a) * cap_newtonian_ellipsoid(a)
                 / (omega_d(d) * float(np.prod(a))) ** 2)
    if abs(val - assembled) > _G_CROSS_CHECK_TOL * abs(assembled):
        raise InternalConsistencyError(
            f"G(E(a)) quadrature {val} disagrees with component assembly {assembled}")
    return val
