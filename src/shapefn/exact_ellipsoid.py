"""Closed-form and quadrature-exact values for balls and ellipsoids:
torsion, Newtonian capacity, logarithmic capacity, eccentricity and the
ball reference constants entering the shape functionals."""

from __future__ import annotations

import math

import numpy as np

from .errors import InternalConsistencyError, QuadratureError, ValidationError


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


def _constants_self_test():
    # closed-form (d-2)/(d+2) against the raw kappa*tau/omega^2 assembly
    for d in range(3, 33):
        assembled = kappa_d(d) * tau_d(d) / omega_d(d) ** 2
        if abs(assembled - g_ball(d)) > 1e-13 * g_ball(d):
            raise InternalConsistencyError(
                f"ball-constant self-test failed at d={d}")


_constants_self_test()


# ---------------------------------------------------------------------------
# torsion and capacity of ellipsoids
# ---------------------------------------------------------------------------

def torsion_ellipsoid(a):
    """T(E(a)) = omega_d/(d+2) (prod a_i) (sum a_i^-2)^-1, any d >= 2."""
    a = np.asarray(a, dtype=float)
    d = a.size
    if d < 2 or np.any(a <= 0):
        raise ValidationError("need d >= 2 positive semi-axes")
    return omega_d(d) / (d + 2.0) * float(np.prod(a)) / float(np.sum(a ** -2.0))


_RF_RTOL = 1e-14  # relative accuracy of carlson_rf


def carlson_rf(x, y, z):
    """Carlson symmetric integral R_F by the duplication algorithm."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    for _ in range(200):
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        mu = (x + y + z) / 3.0
        dev = np.maximum(np.abs(x - mu), np.maximum(np.abs(y - mu), np.abs(z - mu)))
        if np.all(dev <= _RF_RTOL ** (1.0 / 6.0) * mu):
            break
    X = 1.0 - x / mu
    Y = 1.0 - y / mu
    Z = -(X + Y)
    e2 = X * Y - Z * Z
    e3 = X * Y * Z
    s = 1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0
    return s / np.sqrt(mu)


_GL_CACHE = {}
_GL_N0, _GL_NMAX = 32, 16384  # smallest and largest rules of adaptive_gl


def gl01(n):
    """n-node Gauss-Legendre rule mapped to [0, 1]: (nodes, weights), cached."""
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = (0.5 * (x + 1.0), 0.5 * w)
    return _GL_CACHE[n]


def adaptive_gl(f, rtol, what="integral"):
    """Gauss-Legendre on [0, 1] with node doubling until stable."""
    prev = None
    n = _GL_N0
    while n <= _GL_NMAX:
        x, w = gl01(n)
        val = float(w @ f(x))
        if prev is not None and abs(val - prev) <= rtol * max(abs(val), 1e-300):
            return val
        prev, n = val, 2 * n
    raise QuadratureError(f"{what} did not converge to rtol={rtol}",
                          achieved=abs(val - prev))


def carlson_integral(a):
    """e(a) = int_0^inf prod (a_i^2 + t)^{-1/2} dt, d >= 3.

    d = 3 goes through R_F duplication; d >= 4 through adaptive quadrature
    on the compactified integral (substitution t = (s/(1-s))^2)."""
    a = np.asarray(a, dtype=float)
    d = a.size
    if d < 3 or np.any(a <= 0):
        raise ValidationError("need d >= 3 positive semi-axes")
    if d == 3:
        return 2.0 * float(carlson_rf(a[0] ** 2, a[1] ** 2, a[2] ** 2))
    a2 = a ** 2

    def integrand(s):
        w = 1.0 - s
        denom = np.prod(np.sqrt(a2[:, None] * w[None, :] ** 2 + s[None, :] ** 2), axis=0)
        return 2.0 * s * w ** (d - 3) / denom

    return adaptive_gl(integrand, 1e-13, what="carlson integral")


def cap_newtonian_ellipsoid(a):
    """cp(closure of E(a)) = kappa_d / (d/2 - 1) / e(a), d >= 3."""
    a = np.asarray(a, dtype=float)
    d = a.size
    return kappa_d(d) / (d / 2.0 - 1.0) / carlson_integral(a)


def cap_log_ellipse(a1, a2):
    """Logarithmic capacity of an ellipse: (a1 + a2)/2."""
    if a1 <= 0 or a2 <= 0:
        raise ValidationError("semi-axes must be positive")
    return 0.5 * (a1 + a2)


def eccentricity(a):
    """(C(a), crude lower bound b_1^2/((d-1) b_d^2)) for sorted axes b."""
    a = np.asarray(a, dtype=float)
    d = a.size
    if d < 2 or np.any(a <= 0):
        raise ValidationError("need d >= 2 positive semi-axes")
    b = np.sort(a)[::-1]
    C = float(np.sum((b[0] / b[1:]) ** 2)) / (d - 1.0)
    return C, b[0] ** 2 / ((d - 1.0) * b[-1] ** 2)


_G_CROSS_CHECK_TOL = 1e-8


def g_ellipsoid_direct(a):
    """G(E(a)) by direct quadrature of its eccentricity representation.

    Cross-checked against the torsion * capacity / volume^2 assembly; a
    relative disagreement beyond _G_CROSS_CHECK_TOL raises."""
    a = np.asarray(a, dtype=float)
    d = a.size
    if d < 3 or np.any(a <= 0):
        raise ValidationError("need d >= 3 positive semi-axes")
    c = 1.0 / a ** 2
    csum = float(c.sum())

    def integrand(s):
        # t = (s/(1-s))^2; (1 + c_i t)^{-1/2} = w / sqrt(w^2 + c_i s^2)
        w = 1.0 - s
        denom = np.prod(np.sqrt(w[None, :] ** 2 + c[:, None] * s[None, :] ** 2), axis=0)
        return csum * 2.0 * s * w ** (d - 3) / denom

    J = adaptive_gl(integrand, 1e-12, what="G(E(a)) integral")
    val = g_ball(d) * (2.0 * d / (d - 2.0)) / J
    assembled = (torsion_ellipsoid(a) * cap_newtonian_ellipsoid(a)
                 / (omega_d(d) * float(np.prod(a))) ** 2)
    if abs(val - assembled) > _G_CROSS_CHECK_TOL * abs(assembled):
        raise InternalConsistencyError(
            f"G(E(a)) quadrature {val} disagrees with component assembly {assembled}")
    return val
