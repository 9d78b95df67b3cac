import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize

from shapefn import exact_ellipsoid as ex
from shapefn import geometry as geo
from shapefn.errors import (
    InternalConsistencyError,
    RankDeficiencyError,
    UnsupportedRepresentationError,
    ValidationError,
)
from shapefn.geometry import Ball, BallUnion, Capsule, Ellipsoid, Polytope, SlabBody

from helpers import cube_vertices


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_ball_validation():
    with pytest.raises(ValidationError):
        Ball(-1.0, np.zeros(3))
    with pytest.raises(ValidationError):
        Ellipsoid(np.array([1.0, -2.0]))


@pytest.mark.parametrize("make", [
    lambda: Ball(1.0, [0.0]),
    lambda: Ball(1.0, 0.0),
    lambda: Ball(1.0, [[0.0, 0.0]]),
    lambda: Capsule([0.0], [1.0], 0.5),
    lambda: Capsule(0.0, 1.0, 0.5),
    lambda: BallUnion([[0.0], [5.0]], [1.0, 1.0]),
], ids=["ball1", "ball_scalar", "ball_matrix", "capsule1", "capsule_scalar", "union1"])
def test_bodies_below_dimension_two_are_refused(make):
    # as an ellipsoid's semi-axes and a polytope's vertices are
    with pytest.raises(ValidationError, match="dimension >= 2"):
        make()


def test_ball_without_a_center_is_the_3d_origin():
    b = Ball(2.0)
    assert b.dimension == 3 and b.center.tolist() == [0.0, 0.0, 0.0]
    assert Ball(2.0, [1.0, 2.0]).dimension == 2


# one valid JSON document of each kind, and the paths of its numbers
FINITE_DOCS = {
    "ball": ({"kind": "ball", "radius": 1.0, "center": [0.0, 0.0, 0.0]},
             [("radius",), ("center", 1)]),
    # a key that is not a constructor field is ignored
    "ball_extra_key": ({"kind": "ball", "radius": 1.0, "center": [0.0, 0.0, 0.0],
                        "label": "unit ball"}, [("radius",), ("center", 1)]),
    "ellipsoid": ({"kind": "ellipsoid", "semi_axes": [2.0, 1.0, 0.5],
                   "center": [0.0, 0.0, 0.0], "orientation": np.eye(3).tolist()},
                  [("semi_axes", 0), ("center", 2), ("orientation", 1, 1)]),
    "polytope": ({"kind": "polytope", "vertices": cube_vertices(3).tolist()},
                 [("vertices", 3, 1)]),
    "capsule": ({"kind": "capsule", "p": [0.0, 0.0, 0.0], "q": [2.0, 0.0, 0.0],
                 "radius": 0.5}, [("p", 0), ("q", 2), ("radius",)]),
    "ball_union": ({"kind": "ball_union", "centers": [[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]],
                    "radii": [1.0, 1.5]}, [("centers", 1, 0), ("radii", 1)]),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", sorted(FINITE_DOCS))
def test_bodies_reject_non_finite_parameters(kind, value):
    doc, paths = FINITE_DOCS[kind]
    geo.body_from_dict(doc)  # the document as it stands is valid
    for path in paths:
        bad = json.loads(json.dumps(doc))
        *parents, last = path
        node = bad
        for key in parents:
            node = node[key]
        node[last] = value
        with pytest.raises(ValidationError):
            geo.body_from_dict(bad)
    # the slab-cut ellipsoid, which has no JSON form, and a scale factor
    for axes, h in (([1.0, value, 1.0], 0.5), ([1.0, 1.0, 1.0], value)):
        with pytest.raises(ValidationError):
            SlabBody(axes, h)
    with pytest.raises(ValidationError):
        geo.scale(geo.body_from_dict(doc), value)


def test_polytope_vertex_order_2d():
    square = Polytope(np.array([[1.0, 1.0], [-1, 1], [1, -1], [-1, -1]]))
    v = square.vertices
    # counterclockwise: positive shoelace area
    area = 0.5 * np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
    assert area > 0


def test_polytope_keeps_each_facet_plane_once():
    # Qhull gives each square face of the cube as two triangles with equal
    # planes; the polytope keeps 6, and their plane excess, its lower bound,
    # is the 12-row max
    cube = Polytope(cube_vertices(3))
    assert cube.normals.shape == (6, 3) and cube.offsets.shape == (6,)
    eq = cube.hull().equations
    assert eq.shape[0] == 12
    norms = np.linalg.norm(eq[:, :-1], axis=1)
    normals, offsets = eq[:, :-1] / norms[:, None], -eq[:, -1] / norms
    P = np.random.default_rng(3).uniform(-2.0, 2.0, (1000, 3))
    for X in (P, P[:1]):
        twelve = (geo._matmul(normals, X.T) - offsets[:, None]).max(axis=0)
        assert cube.distance_lower(X).tobytes() == twelve.tobytes()


@pytest.mark.parametrize("d", range(2, 13))
def test_row_sums_and_norms_are_numpys_bit_for_bit(d):
    # the walks' column-by-column sums below d = 8 and numpy's own from there,
    # on rows whose entries span 1e-20..1e20, so that any other order shows
    rng = np.random.default_rng(d)
    for n in (1, 2, 7, 8, 9, 1000, 10_000):
        x = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-20.0, 20.0, (n, d))
        for v in (x, np.array(x.T).T):  # and a transposed view
            assert geo._rowsum(v).tobytes() == v.sum(axis=1).tobytes()
            assert geo._norms(v).tobytes() == np.linalg.norm(v, axis=1).tobytes()


def test_ball_union_disjointness():
    with pytest.raises(ValidationError):
        BallUnion(np.array([[0.0, 0, 0], [1.0, 0, 0]]), np.array([1.0, 1.0]))


def test_capsule_degenerate_segment():
    seg = Capsule(np.array([0.0, 0.0]), np.array([4.0, 0.0]), 0.0)
    assert seg.length == 4.0
    assert seg.measure() == 0.0


# ---------------------------------------------------------------------------
# measure / perimeter
# ---------------------------------------------------------------------------

def test_measure_golden():
    assert Ball(1.0, np.zeros(3)).measure() == pytest.approx(4 * math.pi / 3, rel=1e-14)
    assert Ellipsoid(np.array([2.0, 1.0])).measure() == pytest.approx(2 * math.pi, rel=1e-14)
    assert Polytope(cube_vertices(3)).measure() == pytest.approx(8.0, rel=1e-12)
    # capsule d=3: cylinder pi r^2 L + ball
    c = Capsule(np.zeros(3), np.array([2.0, 0, 0]), 1.0)
    assert c.measure() == pytest.approx(math.pi * 2 + 4 * math.pi / 3, rel=1e-14)


def test_perimeter_golden():
    assert geo.perimeter(Ball(1.0, np.zeros(2))) == pytest.approx(2 * math.pi, rel=1e-14)
    assert geo.perimeter(Ball(1.0, np.zeros(3))) == pytest.approx(4 * math.pi, rel=1e-10)
    assert geo.perimeter(Polytope(cube_vertices(3))) == pytest.approx(24.0, rel=1e-12)
    c = Capsule(np.zeros(2), np.array([3.0, 0]), 1.0)
    assert geo.perimeter(c) == pytest.approx(6.0 + 2 * math.pi, rel=1e-14)


def _ellipsoid_surface_3d(axes, tol=1e-9):
    """Chart quadrature of the parameterized ellipsoid surface (d=3):
    Gauss-Legendre in theta, the periodic trapezoid rule in phi."""
    a, b, c = axes
    prev = None
    n = 32
    while n <= 4096:
        x, w = np.polynomial.legendre.leggauss(n)
        t, wt = 0.5 * (x + 1.0), 0.5 * w  # theta / pi
        theta = math.pi * t
        phi = 2.0 * math.pi * np.arange(n) / n  # periodic -> trapezoid
        st = np.sin(theta)[:, None]
        ct = np.cos(theta)[:, None]
        cp = np.cos(phi)[None, :]
        sp = np.sin(phi)[None, :]
        integrand = st * np.sqrt(
            (b * c * st * cp) ** 2 + (a * c * st * sp) ** 2 + (a * b * ct) ** 2)
        val = math.pi * (2.0 * math.pi / n) * float(wt @ integrand.sum(axis=1))
        if prev is not None and abs(val - prev) <= tol * abs(val):
            return val
        prev = val
        n *= 2
    return prev


def test_ellipsoid_surface_chart_vs_projection():
    # two independent quadratures of the d=3 surface area
    for axes in ([1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [3.0, 2.0, 0.5]):
        chart = _ellipsoid_surface_3d(np.array(axes))
        proj = ex.perimeter_ellipsoid(np.array(axes))
        assert proj == pytest.approx(chart, rel=1e-8)


def test_unit_sphere_surface_highd():
    for d in range(4, 9):
        s = geo.perimeter(Ellipsoid(np.ones(d)))
        expected = d * ex.omega_d(d)
        assert s == pytest.approx(expected, rel=1e-9)


def test_polytope_measure_unsupported_above_3d():
    # every functional needs the volume, which Qhull gives for d <= 3 only, so
    # no d > 3 polytope is built, whether in code or from a document
    with pytest.raises(UnsupportedRepresentationError, match="d <= 3"):
        Polytope(cube_vertices(4))
    with pytest.raises(UnsupportedRepresentationError, match="d <= 3"):
        geo.body_from_dict({"kind": "polytope", "vertices": cube_vertices(4).tolist()})


# ---------------------------------------------------------------------------
# signed distance
# ---------------------------------------------------------------------------

def test_signed_distance_ball():
    b = Ball(2.0, np.array([1.0, 0.0, 0.0]))
    assert geo.signed_distance(b, np.array([1.0, 0, 0])) == pytest.approx(-2.0)
    assert geo.signed_distance(b, np.array([4.0, 0, 0])) == pytest.approx(1.0)


def test_signed_distance_ellipsoid_matches_ball():
    e = Ellipsoid(np.array([2.0, 2.0, 2.0]))
    pts = np.random.default_rng(0).normal(size=(100, 3)) * 2
    sd_e = geo.signed_distance(e, pts)
    sd_b = geo.signed_distance(Ball(2.0, np.zeros(3)), pts)
    assert np.allclose(sd_e, sd_b, atol=1e-9)


def bound_test_points(axes, seed):
    """Directions scaled to g = |p / a| in [0, 0.99] and in [1.01, 1000]."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((80, axes.size))
    u /= np.linalg.norm(u / axes, axis=1, keepdims=True)
    g = np.concatenate([rng.uniform(0.0, 0.99, 40), np.exp(rng.uniform(0.01, 6.9, 40))])
    return u * g[:, None]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-3.0, 0.0), min_size=2, max_size=6),
       st.integers(-3, 3), st.integers(0, 2 ** 31 - 1))
# a_max ** -2 once put a point 2 ulp off homogeneous at t = 8
@example(log10_ratios=[-1.1849664875995423, -1.3254694512325171], scale=-1, seed=0)
def test_ellipsoid_distance_lower_bound_valid(log10_ratios, scale, seed):
    # axis ratios down to 1e-3 in d = 2..6, at interior and exterior points:
    # of the exact distance's sign, below it in size, never below
    # |g - 1| a_min, and homogeneous
    a = 10.0 ** np.array(log10_ratios) * 2.0 ** scale
    P = bound_test_points(a, seed)
    signed = Ellipsoid(a).distance_lower(P)
    lb = geo.boundary_distance_lower(Ellipsoid(a), P)
    sd = geo.signed_distance(Ellipsoid(a), P)
    assert np.array_equal(lb, np.abs(signed)) and np.array_equal(signed < 0, sd < 0)
    assert np.all(lb <= np.abs(sd) * (1 + 1e-13))
    g = np.sqrt(np.sum((P / a) ** 2, axis=1))
    assert np.all(lb >= np.abs(g - 1.0) * a.min())
    for t in (2.0 ** -20, 0.5, 8.0):
        assert np.array_equal(Ellipsoid(t * a).distance_lower(t * P), t * signed)
    # at g = 1 +- 1e-6 the exact kernel's own rounding shows
    shell = P / g[:, None] * (1.0 + 1e-6 * np.sign(g - 1.0))[:, None]
    sd = np.abs(geo.signed_distance(Ellipsoid(a), shell))
    assert np.all(geo.boundary_distance_lower(Ellipsoid(a), shell) <= sd + 1e-15 * a.max())


@pytest.mark.parametrize("x", [1.0 - 1e-3, 1.0 + 1e-3], ids=["inside", "outside"])
def test_ellipsoid_distance_lower_bound_is_tight_at_a_long_axis_tip(x):
    a = np.array([1.0, 0.1, 0.1])
    p = np.array([[x, 0.0, 0.0]])
    sd = geo.signed_distance(Ellipsoid(a), p)[0]
    exact = abs(sd)
    assert exact == pytest.approx(1e-3, rel=1e-9)
    lb = Ellipsoid(a).distance_lower(p)[0]
    assert (lb < 0) == (sd < 0) and abs(lb) >= 0.95 * exact
    # |g - 1| a_min alone gives a tenth of it
    assert abs(np.linalg.norm(p / a) - 1.0) * a.min() == pytest.approx(0.1 * exact)


def test_ellipsoid_distance_lower_bound_is_finite_at_the_extremes():
    # pytest turns RuntimeWarning into an error
    a = np.array([2.0, 1.0, 1e-3, 0.5])
    e = Ellipsoid(a)
    assert e.distance_lower(np.zeros((1, 4)))[0] == -1e-3
    u = np.random.default_rng(8).standard_normal((200, 4))
    on = u / np.linalg.norm(u / a, axis=1, keepdims=True)
    assert np.all(geo.boundary_distance_lower(e, on) <= 1e-14)
    far = e.distance_lower(1e12 * on)
    assert np.all(np.isfinite(far) & (far > 0.0))


# an exact rotation from the 3-4-5 and 5-12-13 triangles
_C, _S = 5 / 13, 12 / 13
ROTATION = np.array([[0.6, -0.8 * _C, 0.8 * _S], [0.8, 0.6 * _C, -0.6 * _S], [0.0, _S, _C]])
OFF_CENTRE = Ellipsoid(np.array([1.5, 1.0, 0.6]), np.array([30.0, -20.0, 5.0]), ROTATION)


def test_ellipsoid_boundary_distance_on_axis_points():
    e = Ellipsoid(np.array([3.0, 1.0]))
    assert geo.signed_distance(e, np.array([4.0, 0.0])) == pytest.approx(1.0, abs=1e-9)
    assert geo.signed_distance(e, np.array([0.0, 2.0])) == pytest.approx(1.0, abs=1e-9)
    assert geo.signed_distance(e, np.array([0.0, 0.0])) == pytest.approx(-1.0, abs=1e-6)


def test_signed_distance_polytope_outside_corner():
    sq = Polytope(np.array([[1.0, 1], [-1, 1], [-1, -1], [1, -1]]))
    assert geo.signed_distance(sq, np.array([2.0, 2.0])) == pytest.approx(math.sqrt(2))
    assert geo.signed_distance(sq, np.array([0.0, 0.0])) == pytest.approx(-1.0)


def _secular_oracle(axes, q, center=None, orientation=None):
    """Signed distance from the point q to an ellipsoid's boundary, solving
    the secular equation at 50 digits (mpmath), with the degenerate branch
    of a zero coordinate on the smallest axis handled in closed form."""
    with mp.workdps(50):
        d = len(axes)
        a = [mp.mpf(float(x)) for x in axes]
        p = [mp.mpf(float(x)) for x in q]
        if center is not None:
            p = [pi - mp.mpf(float(ci)) for pi, ci in zip(p, center)]
        if orientation is not None:
            R = np.asarray(orientation, dtype=float)
            p = [mp.fsum(mp.mpf(float(R[i, j])) * p[i] for i in range(d)) for j in range(d)]
        p = [abs(x) for x in p]
        k = min(range(d), key=lambda i: a[i])
        nz = [i for i in range(d) if p[i] != 0]

        def f(t):
            return mp.fsum((a[i] * p[i] / (a[i] ** 2 + t)) ** 2 for i in nz) - 1

        lo = -a[k] ** 2
        if p[k] == 0 and f(lo) <= 0:
            x = [a[i] ** 2 * p[i] / (a[i] ** 2 - a[k] ** 2) if i != k else mp.mpf(0)
                 for i in range(d)]
            x[k] = a[k] * mp.sqrt(1 - mp.fsum((x[i] / a[i]) ** 2 for i in range(d)))
        else:
            hi = lo + 1
            while f(hi) > 0:
                hi = lo + 2 * (hi - lo)
            for _ in range(300):  # bisection to far below 50 digits
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
            t = (lo + hi) / 2
            x = [a[i] ** 2 * p[i] / (a[i] ** 2 + t) for i in range(d)]
        dist = mp.sqrt(mp.fsum((p[i] - x[i]) ** 2 for i in range(d)))
        inside = mp.fsum((p[i] / a[i]) ** 2 for i in range(d)) < 1
        return float(-dist if inside else dist)


def _oracle_test_points(axes, rng):
    """Body-frame points: the centre, zero coordinates on the smallest axis
    (inside and outside), pairs 1e-5 x inradius inside and outside the
    shell (two near the end of the longest axis, four at random), and far
    exterior points."""
    d = axes.size
    k = int(np.argmin(axes))
    pts = [np.zeros(d)]
    for s in (0.3, 0.9, 1.7):
        q = s * axes * rng.uniform(0.2, 1.0, d)
        q[k] = 0.0
        pts.append(q)
    j = int(np.argmax(axes))
    v = rng.standard_normal(d)
    v[j] = 0.0
    v /= np.linalg.norm(v)
    tips = [axes * (math.cos(th) * np.eye(d)[j] + math.sin(th) * v) for th in (3e-5, 1e-4)]
    for u in tips + list(rng.standard_normal((4, d))):
        y = u / np.sqrt(np.sum((u / axes) ** 2))
        n = y / axes ** 2
        n /= np.linalg.norm(n)
        pts += [y + 1e-5 * axes.min() * n, y - 1e-5 * axes.min() * n]
    for _ in range(2):
        u = rng.standard_normal(d)
        pts.append(100.0 * axes.max() * u / np.linalg.norm(u))
    return np.array(pts)


def _rotation(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("placed", [False, True])
def test_ellipsoid_distance_mpmath_oracle(d, placed):
    rng = np.random.default_rng(100 + d + 10 * placed)
    axes = np.exp(rng.uniform(math.log(0.5), math.log(2.0), d))
    c = R = None
    if placed:
        c, R = rng.uniform(-1.0, 1.0, d), _rotation(rng, d)
    e = Ellipsoid(axes, c, R)
    local = _oracle_test_points(axes, rng)
    P = local if R is None else local @ R.T + c
    got = geo.signed_distance(e, P)
    for p, g in zip(P, got):
        ref = _secular_oracle(axes, p, c, R)
        assert np.sign(g) == np.sign(ref)
        assert abs(g - ref) <= 1e-10 * abs(ref), (p, g, ref)


@pytest.mark.parametrize("axes, floor", [([1e4, 1.0], False), ([1e4, 30.0, 1.0], False),
                                         ([1.0, 1e-4, 0.5], True)])
def test_ellipsoid_distance_mpmath_oracle_axis_ratio_1e4(axes, floor):
    # Near the rim of a 1e4:1 disc the order-1 terms of the secular function
    # pin s only to about eps / |f'|: far below what a rounding of p moves
    # the distance by, but above 1e-10 of a 1e-9 distance. There the bound
    # is 1e-10 relative or four roundings of |p|, whichever is larger.
    rng = np.random.default_rng(7)
    axes = np.array(axes)
    e = Ellipsoid(axes)
    P = _oracle_test_points(axes, rng)
    got = geo.signed_distance(e, P)
    for p, g in zip(P, got):
        ref = _secular_oracle(axes, p)
        assert np.sign(g) == np.sign(ref)
        tol = 1e-10 * abs(ref)
        if floor:
            tol = max(tol, 4 * np.finfo(float).eps * np.linalg.norm(p))
        assert abs(g - ref) <= tol, (p, g, ref)


def _hull_projection_distance(V, p):
    """Distance from p to conv(V): a QP over vertex weights lambda >= 0,
    sum lambda = 1 (SLSQP), independent of the facet/edge kernel."""
    n = V.shape[0]

    def obj(lam):
        r = lam @ V - p
        return r @ r, 2.0 * V @ r

    res = minimize(obj, np.full(n, 1.0 / n), jac=True, method="SLSQP",
                   bounds=[(0.0, 1.0)] * n,
                   constraints=[{"type": "eq", "fun": lambda lam: lam.sum() - 1.0,
                                 "jac": lambda lam: np.ones(n)}],
                   options={"ftol": 1e-13, "maxiter": 500})
    assert res.success, res.message
    return math.sqrt(max(res.fun, 0.0))


def _exterior_points(poly, t):
    """Points at distance t outside the polytope whose nearest boundary point
    is a facet centroid, an edge midpoint or a vertex: each is moved along a
    direction in that feature's normal cone."""
    hull = poly.hull()
    X, N = hull.points, hull.equations[:, :-1]
    out = []
    for i, simp in enumerate(hull.simplices):
        out.append(X[simp].mean(axis=0) + t * N[i])           # facet
        for j, nb in enumerate(hull.neighbors[i]):             # edge
            edge = np.delete(simp, j)
            u = N[i] + N[nb]
            out.append(X[edge].mean(axis=0) + t * u / np.linalg.norm(u))
    for v in np.unique(hull.simplices):                        # vertex
        u = N[np.any(hull.simplices == v, axis=1)].mean(axis=0)
        out.append(X[v] + t * u / np.linalg.norm(u))
    return np.array(out)


def _random_hull_3d():
    rng = np.random.default_rng(12)
    V = rng.standard_normal((12, 3))
    return Polytope(V / np.linalg.norm(V, axis=1, keepdims=True)
                    * rng.uniform(0.7, 1.3, (12, 1)))


def _heptagon():
    t = 2 * math.pi * (np.arange(7) + np.array([0.0, 0.2, -0.15, 0.1, 0.25, -0.2, 0.05])) / 7
    return Polytope(1.1 * np.stack([np.cos(t), np.sin(t)], axis=1) + np.array([0.3, -0.2]))


@pytest.mark.parametrize("make", [
    lambda: Polytope(np.array([[1.0, 0.2], [0.1, 1.3], [-1.2, 0.4], [-0.8, -0.9], [0.6, -1.1]])),
    _heptagon,
    lambda: Polytope(cube_vertices(3)),
    _random_hull_3d,
], ids=["pentagon", "heptagon", "cube", "random12"])
def test_polytope_exterior_distance_qp_oracle(make):
    # the plane excess where the facet's foot lies on the body, else the edge
    # distance, is exact at any scale: at t = 1e-9 of the size 1e-12 t is
    # below what the rounded points resolve, so there the allowance is 4 ulp of |p|
    for scale in (1e-8, 1.0, 1e8):
        poly = geo.scale(make(), scale)
        for t in (10.0, 0.37, 1e-3, 1e-9):
            P = _exterior_points(poly, t * scale)
            got = geo.signed_distance(poly, P)
            atol = 4 * np.finfo(float).eps * np.abs(P).max() if t < 1e-3 else 0.0
            assert np.allclose(got, t * scale, rtol=1e-12, atol=atol), (scale, t)
            if t not in (0.37, 1e-3):
                continue  # SLSQP's absolute ftol resolves squared distances near 1 only
            for p, g in zip(P[::3], got[::3]):
                assert g / scale == pytest.approx(
                    _hull_projection_distance(poly.vertices / scale, p / scale), rel=1e-7)


def test_polytope_distance_scale_invariant():
    # a relative degeneracy test: small bodies keep their facets
    cube = Polytope(cube_vertices(3))
    P = np.array([[1.5, 0.1, 0.2], [1.2, 1.3, 0.0], [-2.0, 1.5, 1.2], [0.3, -0.2, 0.1]])
    ref = geo.signed_distance(cube, P)
    for t in (1.0, 1e-6, 1e-9):
        got = geo.signed_distance(geo.scale(cube, t), P * t)
        assert np.allclose(got, t * ref, rtol=1e-12, atol=0.0)


def _near_features(poly, rng, n):
    """n points near the vertices, edges and (in 3-D) facet interiors of a
    polytope in equal shares, each moved off its point of the boundary in a
    random direction by 10^U(-14, -1) x the polytope's size."""
    X, simp, d = poly.hull().points, poly.hull().simplices, poly.dimension
    kept = np.arange(n) % d + 1  # a simplex's vertices weighted: 1, a vertex; 2, an edge
    w = rng.dirichlet(np.ones(d), n) * (np.arange(d) < kept[:, None])
    w /= w.sum(axis=1, keepdims=True)
    base = np.einsum("nk,nkj->nj", w, X[simp[rng.integers(len(simp), size=n)]])
    u = rng.standard_normal((n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return base + u * 10.0 ** rng.uniform(-14.0, -1.0, (n, 1)) * np.abs(X).max()


def test_polytope_distance_lower_bound_valid():
    cube = Polytope(cube_vertices(3))
    pts = np.random.default_rng(1).uniform(-2, 2, size=(300, 3))
    lb = geo.boundary_distance_lower(cube, pts)
    assert np.all(lb <= np.abs(geo.signed_distance(cube, pts)) + 1e-12)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("make", [lambda: Polytope(cube_vertices(2)), _heptagon,
                                  lambda: Polytope(cube_vertices(3)), _random_hull_3d],
                         ids=["square", "heptagon", "cube", "random12"])
def test_polytope_distance_upper_is_valid(make, scale):
    # a body has no upper bound: walkers are absorbed on the lower bound
    # alone, so near the vertices, edges and facets it must be the exact
    # kernel's value inside and, outside, where the nearest point lies inside
    # a facet; elsewhere it is below it, to 2 ulp x (|p| + the polytope's size)
    poly = geo.scale(make(), scale)
    assert not hasattr(poly, "distance_upper")
    P = _near_features(poly, np.random.default_rng(13), 6000)
    sd = geo.signed_distance(poly, P)
    lb = poly.distance_lower(P)
    out = sd > 0
    assert np.array_equal(lb[~out], sd[~out]) and np.array_equal(lb < 0, sd < 0)
    assert 1000 < (~out).sum() < 5000
    allowance = 2 * np.finfo(float).eps * (np.linalg.norm(P, axis=1) + np.abs(poly.vertices).max())
    assert np.all(np.abs(lb) <= np.abs(sd) + allowance)
    assert (lb[out] == sd[out]).mean() > 0.3


@pytest.mark.parametrize("poly", [Polytope(cube_vertices(3)), _random_hull_3d(), _heptagon()],
                         ids=["cube", "random12", "heptagon"])
def test_polytope_plane_product_is_blocked_bit_for_bit(poly):
    # 5000 points span several blocks of the exterior kernel and, on the hull,
    # of the plane product; each row must equal its own one-row evaluation,
    # and an empty batch gives an empty result
    d = poly.dimension
    P = np.random.default_rng(5).uniform(-2.0, 2.0, size=(5000, d))
    inside = geo.signed_distance(poly, P) < 0
    assert 100 < inside.sum() < 4900
    for kernel in (poly.signed_distance, poly.distance_lower):
        rows = np.concatenate([kernel(p[None]) for p in P])
        assert kernel(P).tobytes() == rows.tobytes()
        assert kernel(np.empty((0, d))).shape == (0,)


@pytest.mark.parametrize("poly", [Polytope(cube_vertices(3)), _random_hull_3d()],
                         ids=["cube", "random12"])
def test_polytope_plane_jump_is_blocked_bit_for_bit(poly):
    # the excess and its facet are distance_lower's, and a point's jump is
    # the same alone as in a batch that spans several blocks
    block = geo._PLANE_ENTRIES // poly.offsets.size
    n = 2 * block + 7
    rng = np.random.default_rng(8)
    P = 3.0 * geo._unit_vectors(rng, n, 3) * rng.uniform(1.0, 2.0, (n, 1))
    G = rng.standard_normal((n, 3))
    h, j = poly.plane_excess(P)
    assert h.tobytes() == poly.distance_lower(P).tobytes()
    assert np.array_equal(j, (P @ poly.normals.T - poly.offsets).argmax(axis=1))
    assert np.all(h > 0)
    Y = P.copy()
    landed = poly.plane_jump(Y, h, j, G.copy())
    for i in np.r_[0:n:97, block - 1:block + 1, n - 1]:
        y = P[i:i + 1].copy()
        alone = poly.plane_jump(y, h[i:i + 1], j[i:i + 1], G[i:i + 1].copy())
        assert y.tobytes() == Y[i:i + 1].tobytes() and alone[0] == landed[i]
    assert poly.plane_jump(np.empty((0, 3)), np.empty(0), np.empty(0, dtype=np.intp),
                           np.empty((0, 3))).shape == (0,)


def test_plane_jump_follows_the_half_space_poisson_kernel():
    # from x at height h = 0.5 over the cube's top facet, the first hit of
    # its plane lies at t h from the foot, with t of CDF 1 - (1 + t^2)^(-1/2)
    # in d = 3, in a uniform direction; it lands on the body exactly where
    # it lies in the facet, and it lies on the plane to rounding
    from scipy.stats import kstest
    cube = Polytope(cube_vertices(3))
    n = 20_000
    x = np.array([0.1, -0.2, 1.5])
    P = np.tile(x, (n, 1))
    h, j = cube.plane_excess(P)
    top = int(np.argmax(cube.normals[:, 2]))
    assert np.all(j == top) and np.all(h == 0.5)
    landed = cube.plane_jump(P, h, j, np.random.default_rng(21).standard_normal((n, 3)))
    assert np.all(np.abs(P[:, 2] - 1.0) <= 4 * np.finfo(float).eps * np.abs(P).max(axis=1))
    foot = np.array([0.1, -0.2, 1.0])
    t = np.linalg.norm(P - foot, axis=1) / 0.5
    assert kstest(t, lambda t: 1.0 - (1.0 + t * t) ** -0.5).pvalue > 0.01
    angle = np.arctan2(P[:, 1] - foot[1], P[:, 0] - foot[0])
    assert kstest(angle, "uniform", args=(-math.pi, 2 * math.pi)).pvalue > 0.01
    assert np.array_equal(landed, np.all(np.abs(P[:, :2]) <= 1.0, axis=1))
    assert 0.2 < landed.mean() < 0.8


@pytest.mark.parametrize("body", [
    Capsule(np.array([0.1, 0.2, -0.3]), np.array([1.3, -0.7, 0.9]), 0.4),
    Ellipsoid(np.array([1.3, 0.9, 0.6, 0.5]), np.full(4, 0.1),
              np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))[0]),
    _random_hull_3d(),
    _heptagon(),
], ids=["capsule3", "rotated_ellipsoid4", "random12", "heptagon"])
def test_distance_kernels_round_a_lone_row_as_in_a_batch(body):
    # a one-row matrix product would go through BLAS gemv and round
    # differently; batches of 1, block - 1, block, block + 1 and 3 block + 5
    # points straddle the kernel's blocks (a polytope's plane product holds
    # _PLANE_ENTRIES facets x points). At least 2000 evenly spaced rows and
    # the rows at the blocks' edges are also evaluated alone
    d = body.dimension
    block = (geo._PLANE_ENTRIES // body.offsets.size if isinstance(body, Polytope)
             else geo._DISTANCE_BLOCK)
    n = 3 * block + 5
    P = np.random.default_rng(6).uniform(-2.0, 2.0, size=(n, d))
    alone = np.unique(np.r_[0:n:max(1, n // 2000), block - 2:block + 2,
                            2 * block - 1:2 * block + 1, n - 6:n])
    for kernel in (body.signed_distance, body.distance_lower, body.inside):
        whole = kernel(P)
        rows = np.concatenate([kernel(P[i:i + 1]) for i in alone])
        assert whole[alone].tobytes() == rows.tobytes()
        for m in (1, block - 1, block, block + 1):
            assert kernel(P[:m]).tobytes() == whole[:m].tobytes()
        assert kernel(np.empty((0, d))).shape == (0,)


def test_signed_distance_ball_union():
    u = BallUnion(np.array([[0.0, 0, 0], [10.0, 0, 0]]), np.array([1.0, 2.0]))
    assert geo.signed_distance(u, np.array([0.0, 0, 0])) == pytest.approx(-1.0)
    assert geo.signed_distance(u, np.array([10.0, 0, 0])) == pytest.approx(-2.0)
    assert geo.signed_distance(u, np.array([5.0, 0, 0])) == pytest.approx(3.0)


def test_contains_consistency():
    e = Ellipsoid(np.array([2.0, 1.0, 0.5]))
    pts = np.random.default_rng(3).normal(size=(200, 3))
    inside = geo.signed_distance(e, pts) < 0
    g = np.sum((pts / e.semi_axes) ** 2, axis=1)
    assert np.array_equal(inside, g < 1.0)


# ---------------------------------------------------------------------------
# diameter / inradius / scaling
# ---------------------------------------------------------------------------

def test_diameter_inradius():
    assert geo.diameter_inradius(Ball(2.0, np.zeros(3))) == (4.0, 2.0)
    d, r = geo.diameter_inradius(Polytope(cube_vertices(3)))
    assert d == pytest.approx(2 * math.sqrt(3))
    assert r == pytest.approx(1.0, abs=1e-9)
    d, r = geo.diameter_inradius(Capsule(np.zeros(2), np.array([4.0, 0]), 1.0))
    assert (d, r) == (6.0, 1.0)


def test_scaling_laws():
    e = Ellipsoid(np.array([2.0, 1.0, 0.7]))
    t = 1.7
    assert geo.scale(e, t).measure() == pytest.approx(t ** 3 * e.measure(), rel=1e-12)
    assert geo.perimeter(geo.scale(e, t)) == pytest.approx(t ** 2 * geo.perimeter(e), rel=1e-9)


# ---------------------------------------------------------------------------
# Polytope hull / Loewner / John
# ---------------------------------------------------------------------------

def test_polytope_collinear_raises():
    with pytest.raises(RankDeficiencyError):
        Polytope(np.array([[0.0, 0], [1, 1], [2, 2], [3, 3]]))
    with pytest.raises(RankDeficiencyError):
        Polytope(cube_vertices(2) @ np.array([[1.0, 0, 0], [0, 1, 0]]))  # flat in R^3


def test_loewner_cube():
    L = geo.loewner_ellipsoid(cube_vertices(3))
    assert np.allclose(L.semi_axes, math.sqrt(3), rtol=1e-6)


def anisotropic_cloud(d):
    # 40 points spread along unequal axes, and 40 deep inside their span
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, d)) * np.geomspace(3.0, 0.5, d)
    return np.concatenate([pts, 0.1 * pts[::-1] + 0.05 * rng.normal(size=(40, d))])


@pytest.mark.parametrize("d", range(2, 6))
def test_loewner_contains_points(d):
    pts = anisotropic_cloud(d)
    L = geo.loewner_ellipsoid(pts)
    assert np.all(geo.signed_distance(L, pts) <= 1e-6)


def test_loewner_checks_its_own_ellipsoid(monkeypatch):
    # eigenvectors paired with the wrong eigenvalues give a valid ellipsoid
    # that misses the points; the routine must notice, not return it
    eigh = np.linalg.eigh

    def reversed_columns(A):
        w, v = eigh(A)
        return w, v[:, ::-1]

    monkeypatch.setattr(np.linalg, "eigh", reversed_columns)
    with pytest.raises(InternalConsistencyError):
        geo.loewner_ellipsoid(anisotropic_cloud(3))


def test_john_pair_sandwich():
    rng = np.random.default_rng(7)
    simplex = Polytope(rng.normal(size=(5, 3)))
    for body in (Polytope(cube_vertices(3)),
                 Ellipsoid(np.array([2.0, 1.0])),
                 simplex):
        # john_pair self-verifies containment and raises on violation
        inner, outer = geo.john_pair(body)
        assert np.all(inner.semi_axes * body.dimension
                      == pytest.approx(outer.semi_axes))


@pytest.mark.parametrize("d", [2, 3])
def test_john_pair_raises_on_an_inner_ellipsoid_outside_the_body(d, monkeypatch):
    # a simplex's inner John ellipsoid touches every facet, so an outer
    # ellipsoid grown by 1e-4 puts part of the inner one outside the body
    simplex = Polytope(np.random.default_rng(d).normal(size=(d + 1, d)))
    outer = simplex.john_outer()
    grown = Ellipsoid(outer.semi_axes * (1.0 + 1e-4), outer.center, outer.orientation)
    monkeypatch.setattr(Polytope, "john_outer", lambda self: grown)
    with pytest.raises(InternalConsistencyError):
        geo.john_pair(simplex)


def test_john_pair_rejects_capsule():
    with pytest.raises(UnsupportedRepresentationError):
        geo.john_pair(Capsule(np.zeros(3), np.array([3.0, 0, 0]), 1.0))


def test_john_sorted_axes_ellipsoid_passthrough():
    e = Ellipsoid(np.array([1.0, 3.0, 2.0]))
    assert np.allclose(geo.john_sorted_axes(e), [3.0, 2.0, 1.0])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("body", [
    Ball(1.5, np.array([1.0, 2.0])),
    Ellipsoid(np.array([2.0, 1.0, 0.5])),
    Polytope(cube_vertices(2)),
    Capsule(np.zeros(3), np.array([1.0, 1, 0]), 0.5),
    BallUnion(np.array([[0.0, 0, 0], [9.0, 0, 0]]), np.array([1.0, 2.0])),
    OFF_CENTRE,  # orientation is the one field written only when set
])
def test_body_dict_roundtrip(body):
    doc = body.to_dict()
    back = geo.body_from_dict(doc)
    assert type(back) is type(body)
    assert back.to_dict() == doc


def test_body_from_dict_rejects_unknown():
    with pytest.raises(ValidationError):
        geo.body_from_dict({"kind": "torus"})


@pytest.mark.parametrize("doc", [
    [1, 2],
    "ball",
    {"kind": "ball", "radius": "1", "center": [0, 0, 0]},
    {"kind": "capsule", "p": [0, 0, 0], "q": [1, 0, 0], "radius": "0.5"},
    {"kind": ["ball"], "radius": 1.0},
], ids=["list", "string", "string-radius", "string-capsule-radius", "list-kind"])
def test_body_from_dict_rejects_malformed_documents(doc):
    with pytest.raises(ValidationError):
        geo.body_from_dict(doc)


# ---------------------------------------------------------------------------
# body protocol
# ---------------------------------------------------------------------------

# each body kind with the public operations it does not support
PROTOCOL_BODIES = {
    "ball": (Ball(1.0, np.zeros(3)), set()),
    "ellipsoid": (Ellipsoid(np.array([2.0, 1.0, 0.5])), set()),
    "polytope2": (Polytope(cube_vertices(2)), set()),
    "polytope3": (Polytope(cube_vertices(3)), set()),
    "capsule": (Capsule(np.zeros(3), np.array([2.0, 0, 0]), 0.5), {"john_pair"}),
    "ball_union": (BallUnion(np.array([[0.0, 0, 0], [4.0, 0, 0]]), np.array([1.0, 1.5])),
                   {"perimeter", "diameter_inradius", "john_pair"}),
    "slab": (SlabBody(np.array([1.5, 1.0, 0.8, 1.0]), 0.6),
             {"perimeter", "scale", "to_dict", "john_pair"}),
}


MEMBERSHIP_BODIES = dict(PROTOCOL_BODIES, polytope3_random=(_random_hull_3d(), None),
                         ellipsoid_placed=(OFF_CENTRE, None),
                         slab_long=(SlabBody(np.array([2.4, 1.0, 0.5, 0.35]), 0.3), None))


def boundary_ties(body, rng, n=500):
    """Points exactly on the boundary in the body's own arithmetic, or None:
    the cube's points with a coordinate of +-1, a slab's points inside its
    ellipsoid with |x_d| = h a_d, and the axis tips +-a_i e_i of a centred,
    axis-aligned ellipsoid or ball (of a slab, those of its first d - 1 axes)."""
    d = body.dimension
    if isinstance(body, Polytope) and np.array_equal(np.abs(body.vertices), np.ones((2 ** d, d))):
        P = rng.uniform(-1.0, 1.0, (n, d))
        P[np.arange(n), rng.integers(0, d, n)] = rng.choice([-1.0, 1.0], n)
        return P
    if isinstance(body, SlabBody):
        cut = body.h * body.axes[-1]
        P = rng.uniform(-0.5, 0.5, (n, d)) * body.axes * math.sqrt(1.0 - body.h ** 2)
        P[:, -1] = rng.choice([-cut, cut], n)
        tips = np.diag(body.axes)[:-1]
        return np.concatenate([P, tips, -tips])
    if (isinstance(body, (Ball, Ellipsoid)) and not body.center.any()
            and getattr(body, "orientation", None) is None):
        tips = np.diag(body.ellipsoid_axes())
        return np.concatenate([tips, -tips])
    return None


@pytest.mark.parametrize("kind", sorted(MEMBERSHIP_BODIES))
def test_inside_is_the_sign_of_the_signed_distance(kind):
    body = MEMBERSHIP_BODIES[kind][0]
    lo, hi = body.bounding_box()  # widened by a quarter: a cube fills its own box
    u = np.random.default_rng(13).uniform(-0.25, 1.25, (10_000, body.dimension))
    P = lo + (hi - lo) * u
    inside = body.inside(P)
    assert 0 < inside.sum() < P.shape[0]
    assert np.array_equal(inside, geo.signed_distance(body, P) < 0)
    # the lower bound's size never exceeds the distance's
    sd = np.abs(geo.signed_distance(body, P))
    assert np.all(geo.boundary_distance_lower(body, P) <= sd * (1 + 1e-13) + 1e-15)
    # a point on the boundary is not inside, by either test
    ties = boundary_ties(body, np.random.default_rng(14))
    if ties is not None:
        assert not body.inside(ties).any()
        assert not (geo.signed_distance(body, ties) < 0).any()


@pytest.mark.parametrize("kind", sorted(PROTOCOL_BODIES))
def test_body_protocol_conformance(kind):
    # every public operation returns or raises UnsupportedRepresentationError,
    # never AttributeError or TypeError
    body, unsupported = PROTOCOL_BODIES[kind]
    d = body.dimension
    P = np.random.default_rng(0).uniform(-2.0, 2.0, (5, d))
    calls = {
        "measure": lambda: body.measure(),
        "perimeter": lambda: geo.perimeter(body),
        "diameter_inradius": lambda: geo.diameter_inradius(body),
        "signed_distance": lambda: geo.signed_distance(body, P),
        "boundary_distance_lower": lambda: geo.boundary_distance_lower(body, P),
        "bounding_ball": lambda: body.bounding_ball(),
        "bounding_box": lambda: body.bounding_box(),
        "scale": lambda: geo.scale(body, 2.0),
        "to_dict": lambda: body.to_dict(),
        "john_pair": lambda: geo.john_pair(body),
    }
    for name, call in calls.items():
        if name in unsupported:
            with pytest.raises(UnsupportedRepresentationError):
                call()
        else:
            call()
