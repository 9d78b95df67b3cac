"""Convex body representations and geometric measures.

Each body kind is one immutable class derived from ``Body`` that holds all of
its geometry: measure, perimeter, signed distance (negative inside), cheap
lower and (where one exists) upper bounds on it, membership, bounding ball
and box, diameter/inradius, homothety, JSON form and the outer John
ellipsoid. The kinds are balls, ellipsoids, ellipsoids cut by a slab,
polytopes, capsules and unions of disjoint balls. The methods are the API.
A module function remains only where it does more than call one:

- ``signed_distance``, ``scale`` and ``body_from_dict`` validate outside
  input: a point's dimension (and the single-point form), a scale factor, a
  JSON document;
- ``perimeter``, ``diameter_inradius`` and ``boundary_distance_lower`` are
  looked up by bench/tracing.py, which times or counts them where they are
  called, as it does ``john_pair`` and ``loewner_ellipsoid``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull
from scipy.special import betainc

from .errors import (
    InternalConsistencyError,
    RankDeficiencyError,
    UnsupportedRepresentationError,
    ValidationError,
)
from .exact_ellipsoid import omega_d, perimeter_ellipsoid

_REP_TOL = 1e-9
_LOEWNER_TOL = 1e-8  # Khachiyan stopping gap
_LOEWNER_MAX_ITER = 200000
_JOHN_TOL = 1e-8  # inner-ellipsoid containment slack, relative to the largest axis


def _as_point(x, d=None):
    """x as a float array (a point, or points as rows) of finite coordinates."""
    p = np.asarray(x, dtype=float)
    if d is not None and p.shape != (d,):
        raise ValidationError(f"expected a point of dimension {d}, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValidationError("coordinates must be finite")
    return p


def _positive(x):
    """Whether every entry of x is positive and finite (NaN is neither)."""
    return bool(np.all((0 < x) & (x < np.inf)))


def _check_spans(P):
    n, d = P.shape
    if n < d + 1 or np.linalg.matrix_rank(P - P.mean(axis=0)) < d:
        raise RankDeficiencyError("points do not affinely span R^d")


def _rowsum(x):
    """x.sum(axis=1) bit for bit, and faster on the walkers' (n, d) arrays:
    below 8 columns numpy adds them one by one from the first, as this does;
    from 8 on it sums in pairwise blocks, which are left to it."""
    if not 2 <= x.shape[1] < 8:
        return x.sum(axis=1)
    s = x[:, 0] + x[:, 1]
    for column in x.T[2:]:
        s += column
    return s


def _norms(x):
    """Row norms of x (n, d), as np.linalg.norm(x, axis=1) computes them."""
    return np.sqrt(_rowsum(x * x))


def _unit_vectors(rng, n, d):
    """n directions drawn uniformly from the unit sphere in R^d."""
    v = rng.standard_normal((n, d))
    v /= _norms(v)[:, None]
    return v


def _matmul(A, B):
    """A @ B, each entry rounded alike whatever the operands' sizes: numpy
    sends a product with one row or one column to BLAS gemv or dot, which
    round differently from gemm, so a lone row of A or column of B is
    computed as a pair. The distance kernels use this so that a walker's
    steps do not depend on its company."""
    if A.shape[0] == 1:
        return (np.repeat(A, 2, axis=0) @ B)[:1]
    if B.ndim == 2 and B.shape[1] == 1:
        return (A @ np.repeat(B, 2, axis=1))[:, :1]
    return A @ B


class Body:
    """One body kind. Points P and directions U are (n, d) float arrays.

    An operation that a kind does not implement raises
    UnsupportedRepresentationError."""

    def _unsupported(self, operation):
        return UnsupportedRepresentationError(
            f"{operation} is not available for {type(self).__name__}")

    def measure(self):
        """Lebesgue measure."""
        raise self._unsupported("measure")

    def perimeter(self):
        """Surface measure (perimeter if d = 2)."""
        raise self._unsupported("perimeter")

    def signed_distance(self, P):
        """Distance of each point to the boundary, negative inside."""
        raise self._unsupported("signed distance")

    def distance_lower(self, P):
        """Lower bound on |signed distance| of each point."""
        return np.abs(signed_distance(self, P))

    def distance_upper(self, P):
        """Upper bound on |signed distance| of each point, rounding included,
        so never below the exact kernel's value; +inf where a kind has none."""
        return np.full(P.shape[0], np.inf)

    def inside(self, P):
        """Whether each point is interior: signed distance < 0."""
        return signed_distance(self, P) < 0

    def bounding_ball(self):
        """A (not necessarily minimal) enclosing ball: (center, radius)."""
        raise self._unsupported("bounding ball")

    def bounding_box(self):
        """Axis-aligned (lo, hi) box containing the body."""
        raise self._unsupported("bounding box")

    def diameter_inradius(self):
        """(diameter, inradius)."""
        raise self._unsupported("diameter/inradius")

    def scaled(self, t):
        """Homothety about the origin by a factor t > 0."""
        raise self._unsupported("scaling")

    def to_dict(self):
        """JSON form, read back by body_from_dict."""
        raise self._unsupported("serialization")

    def john_outer(self):
        """Outer John (Loewner) ellipsoid."""
        raise self._unsupported("John ellipsoid")

    def ellipsoid_axes(self):
        """Semi-axes when the body is an ellipsoid (balls included), which
        have exact backends; None otherwise."""
        return None


@dataclass(frozen=True, eq=False)
class Ball(Body):
    radius: float
    center: np.ndarray = None  # None: the origin of R^3

    def __post_init__(self):
        if not 0 < self.radius < np.inf:
            raise ValidationError("ball radius must be positive and finite")
        c = np.zeros(3) if self.center is None else _as_point(self.center)
        object.__setattr__(self, "center", c)

    @property
    def dimension(self):
        return self.center.size

    def measure(self):
        return omega_d(self.dimension) * self.radius ** self.dimension

    def perimeter(self):
        d = self.dimension
        return d * omega_d(d) * self.radius ** (d - 1)

    def signed_distance(self, P):
        return np.linalg.norm(P - self.center, axis=1) - self.radius

    def bounding_ball(self):
        return self.center.copy(), self.radius

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def diameter_inradius(self):
        return 2.0 * self.radius, self.radius

    def scaled(self, t):
        return Ball(self.radius * t, self.center * t)

    def to_dict(self):
        return {"kind": "ball", "radius": self.radius, "center": self.center.tolist()}

    def john_outer(self):
        return Ellipsoid(np.full(self.dimension, self.radius), self.center)

    def ellipsoid_axes(self):
        return np.full(self.dimension, self.radius)


@dataclass(frozen=True, eq=False)
class Ellipsoid(Body):
    semi_axes: np.ndarray
    center: np.ndarray = None
    orientation: np.ndarray = None  # columns are axis directions; None = axis aligned

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.semi_axes, dtype=float))
        if a.ndim != 1 or a.size < 2:
            raise ValidationError("semi_axes must be a vector of length >= 2")
        if not _positive(a):
            raise ValidationError("all semi-axes must be positive and finite")
        object.__setattr__(self, "semi_axes", a)
        if self.center is None:
            object.__setattr__(self, "center", np.zeros(a.size))
        else:
            object.__setattr__(self, "center", _as_point(self.center, a.size))
        if self.orientation is not None:
            R = _as_point(self.orientation)
            if R.shape != (a.size, a.size):
                raise ValidationError("orientation must be a d x d matrix")
            if not np.allclose(R.T @ R, np.eye(a.size), atol=1e-9):
                raise ValidationError("orientation must be orthogonal")
            object.__setattr__(self, "orientation", R)
        object.__setattr__(self, "_bounds", _bound_constants(a))

    @property
    def dimension(self):
        return self.semi_axes.size

    def sorted_axes(self):
        """Semi-axes in non-increasing order, ties broken by original index."""
        a = self.semi_axes
        order = np.lexsort((np.arange(a.size), -a))
        return a[order]

    def _local(self, P):
        """Points in the frame of the axes."""
        Q = P - self.center
        if self.orientation is not None:
            Q = _matmul(Q, self.orientation)
        return Q

    def measure(self):
        return omega_d(self.dimension) * float(np.prod(self.semi_axes))

    def perimeter(self):
        return perimeter_ellipsoid(self.semi_axes)

    def signed_distance(self, P):
        dist, g2 = _ellipsoid_boundary_distance(self.semi_axes, self._local(P))
        return np.where(g2 < 1.0, -dist, dist)

    def distance_lower(self, P):
        return _distance_lower(self._bounds, self._local(P))

    def distance_upper(self, P):
        return _distance_upper(self._bounds, self._local(P))

    def inside(self, P):
        # the exact kernel's sign test: sqrt rounds monotonically and 1 exactly,
        # so g^2 < 1 exactly when its g * g < 1
        q = self._local(P) / self.semi_axes
        return _rowsum(q * q) < 1.0

    def bounding_ball(self):
        return self.center.copy(), float(self.semi_axes.max())

    def bounding_box(self):
        if self.orientation is None:
            h = self.semi_axes
        else:
            h = np.sqrt(((self.orientation * self.semi_axes[None, :]) ** 2).sum(axis=1))
        return self.center - h, self.center + h

    def diameter_inradius(self):
        a = self.semi_axes
        return 2.0 * float(a.max()), float(a.min())

    def scaled(self, t):
        return Ellipsoid(self.semi_axes * t, self.center * t, self.orientation)

    def to_dict(self):
        out = {"kind": "ellipsoid", "semi_axes": self.semi_axes.tolist(),
               "center": self.center.tolist()}
        if self.orientation is not None:
            out["orientation"] = self.orientation.tolist()
        return out

    def john_outer(self):
        return self

    def ellipsoid_axes(self):
        return self.semi_axes


@dataclass(frozen=True, eq=False)
class SlabBody(Body):
    """Axis-aligned ellipsoid cut by the symmetric slab |x_d| <= h a_d."""

    axes: np.ndarray
    h: float

    def __post_init__(self):
        a = np.asarray(self.axes, dtype=float)
        if a.ndim != 1 or a.size < 2 or not _positive(a):
            raise ValidationError("need positive, finite semi-axes")
        if not 0.0 < self.h <= 1.0:
            raise ValidationError("slab fraction h must be in (0, 1]")
        object.__setattr__(self, "axes", a)
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "ellipsoid", Ellipsoid(a))
        object.__setattr__(self, "_bounds", _bound_constants(a, self.h * a[-1]))

    @property
    def dimension(self):
        return self.axes.size

    def measure(self):
        return self.ellipsoid.measure() * slab_volume_fraction(self.dimension, self.h)

    def signed_distance(self, P):
        # interior: min of member distances; exterior: max of member signed
        # distances (a safe lower bound near the cut edge)
        sd_e = signed_distance(self.ellipsoid, P)
        sd_s = np.abs(P[:, -1]) - self.h * self.axes[-1]
        return np.maximum(sd_e, sd_s)

    def distance_lower(self, P):
        return _distance_lower(self._bounds, P)

    def distance_upper(self, P):
        return _distance_upper(self._bounds, P)

    def inside(self, P):
        # signed_distance's max of two signed distances is negative exactly here
        q = P / self.axes
        return (_rowsum(q * q) < 1.0) & (np.abs(P[:, -1]) < self.h * self.axes[-1])

    def bounding_ball(self):
        return np.zeros(self.dimension), float(self.axes.max())

    def bounding_box(self):
        hi = self.axes.copy()
        hi[-1] *= self.h
        return -hi, hi

    def diameter_inradius(self):
        # conservative pair: diameter upper bound (projection argument),
        # inradius lower bound (centered ball)
        a = self.axes
        diam = 2.0 * min(float(a.max()),
                         math.hypot(float(a[:-1].max()), self.h * a[-1]))
        r = min(float(a.min()), self.h * float(a[-1]))
        return diam, r


def slab_volume_fraction(d, h):
    """|B_1 cut by |x_d| <= h| / |B_1| (same fraction for any ellipsoid)."""
    if h >= 1.0:
        return 1.0
    return float(betainc(0.5, (d + 1.0) / 2.0, h * h))


@dataclass(frozen=True, eq=False)
class Polytope(Body):
    """Convex hull of its vertices; the facets come from Qhull."""

    vertices: np.ndarray
    normals: np.ndarray = field(init=False)  # outward unit normals
    offsets: np.ndarray = field(init=False)  # n . x <= offset

    def __post_init__(self):
        V = _as_point(self.vertices)
        if V.ndim != 2:
            raise ValidationError("vertices must be an (n, d) array")
        _check_spans(V)
        hull = ConvexHull(V)
        eq = hull.equations  # n . x + b <= 0
        norms = np.linalg.norm(eq[:, :-1], axis=1)
        if V.shape[1] == 2:
            V = V[hull.vertices]  # counterclockwise order
        else:
            V = V[np.sort(np.unique(hull.simplices))]
        normals, offsets = eq[:, :-1] / norms[:, None], -eq[:, -1] / norms
        # Qhull splits a facet of more than d vertices into simplices with
        # equal planes: each plane is kept once, where it first appears
        keep = np.sort(np.unique(np.c_[normals, offsets], axis=0, return_index=True)[1])
        object.__setattr__(self, "_hull", hull)
        # bounds every offset and vertex coordinate the kernels round
        object.__setattr__(self, "_vertex_norm", float(np.linalg.norm(V, axis=1).max()))
        object.__setattr__(self, "vertices", V)
        object.__setattr__(self, "normals", normals[keep])
        object.__setattr__(self, "offsets", offsets[keep])
        self._check_representations()

    def _check_representations(self):
        # mutual containment: every vertex satisfies the H-rep, every facet is
        # tight, to _REP_TOL x the largest vertex norm, so at any scale
        slack = (self.vertices @ self.normals.T - self.offsets) / self._vertex_norm
        if slack.max() > _REP_TOL:
            raise ValidationError("V- and H-representations disagree (vertex outside)")
        if np.any(slack.max(axis=0) < -_REP_TOL):
            raise ValidationError("V- and H-representations disagree (loose facet)")

    @property
    def dimension(self):
        return self.vertices.shape[1]

    def hull(self):
        return self._hull

    def boundary_pieces(self):
        """(W, off, S, D) for the exterior distance kernel, built on first use.

        S + t D (k, d) are the hull's unique edges. p @ W - off holds each
        edge's t for p's projection onto its line and, in 3-D, for each of
        the m facet triangles, three in-triangle tests (>= 0 inside) and
        p's height over its plane: k + 4m columns. Triangles with a sine
        below 1e-12 at their first vertex are left out (a scale-free test):
        their edges cover them.
        """
        pieces = getattr(self, "_pieces", None)
        if pieces is not None:
            return pieces
        if self.dimension > 3:
            raise UnsupportedRepresentationError(
                "exterior polytope distance only for d <= 3")
        hull = self.hull()
        X, simp = hull.points, hull.simplices
        rows, origins = [], []
        if self.dimension == 3:
            A, B, C = (X[simp[:, i]] for i in range(3))
            n = np.cross(B - A, C - A)
            keep = (n * n).sum(1) > 1e-24 * ((B - A) ** 2).sum(1) * ((C - A) ** 2).sum(1)
            A, B, C, n = A[keep], B[keep], C[keep], n[keep]
            # n x (edge) points into the triangle whatever the vertex order
            rows = [np.cross(n, B - A), np.cross(n, C - B), np.cross(n, A - C),
                    n / np.linalg.norm(n, axis=1, keepdims=True)]
            origins = [A, B, C, A]
            simp = np.concatenate([simp[:, [0, 1]], simp[:, [1, 2]], simp[:, [0, 2]]])
        edges = np.unique(np.sort(simp, axis=1), axis=0)
        S = X[edges[:, 0]]
        D = X[edges[:, 1]] - S
        L2 = (D * D).sum(1)
        W = np.concatenate([D / np.where(L2 > 0.0, L2, 1.0)[:, None]] + rows)
        pieces = (W.T, (W * np.concatenate([S] + origins)).sum(1), S, D)
        object.__setattr__(self, "_pieces", pieces)
        return pieces

    def measure(self):
        if self.dimension > 3:
            raise UnsupportedRepresentationError("polytope volume only for d <= 3")
        return float(self.hull().volume)

    def perimeter(self):
        if self.dimension > 3:
            raise UnsupportedRepresentationError("polytope perimeter only for d <= 3")
        return float(self.hull().area)

    def _plane_excess(self, P):
        """max over facets of n . p - offset, in products of facets x points
        of at most _PLANE_ENTRIES entries; the max runs along the long axis.
        At 10^4 points on a 2-core Xeon (OpenBLAS 0.3.31), 2^17 entries took
        35 us on the square, 52 on the cube and 175 on a 20-facet hull,
        against 76, 97 and 256 in 1024-point blocks; more entries gained
        nothing from 3000 to 32768 points, and one product of the cube's
        32768 points (196,608 entries) once took 7 ms on threaded BLAS."""
        out = np.empty(P.shape[0])
        step = max(1, _PLANE_ENTRIES // self.offsets.size)
        for lo in range(0, P.shape[0], step):
            X = _matmul(self.normals, P[lo:lo + step].T)
            X -= self.offsets[:, None]
            X.max(axis=0, out=out[lo:lo + step])
        return out

    def signed_distance(self, P):
        sd = self._plane_excess(P)
        out = sd > 0
        if np.any(out):
            sd[out] = _polytope_exterior_distance(self, P[out])
        return sd

    def distance_lower(self, P):
        # interior: exact facet-plane distance; exterior: the largest
        # halfspace violation is a valid lower bound
        return np.abs(self._plane_excess(P))

    def distance_upper(self, P):
        """Inside, the plane distance, which signed_distance returns as it is.
        Outside, the excess e of the most violated facet j, where the foot
        p - e n_j lies in every other facet's halfspace with a margin of the
        rounding allowance: the foot is then p's nearest point of the body,
        at distance e. There the bound is e plus the allowance of 8 ulp x
        (|p| + the largest vertex norm); elsewhere (near edges and vertices)
        it is +inf."""
        e = self._plane_excess(P)
        up = np.abs(e)
        out = np.flatnonzero(e > 0)
        if out.size:
            Q = P.take(out, axis=0)
            j = (_matmul(Q, self.normals.T) - self.offsets).argmax(axis=1)
            F = _matmul(Q - e[out, None] * self.normals[j], self.normals.T) - self.offsets
            F[np.arange(out.size), j] = -np.inf
            slack = _UPPER_ROUNDING * (_norms(Q) + self._vertex_norm)
            up[out] = np.where(F.max(axis=1) <= -slack, e[out] + slack, np.inf)
        return up

    def inside(self, P):
        # signed_distance keeps the plane excess where it is not positive
        return self._plane_excess(P) < 0

    def bounding_ball(self):
        c = self.vertices.mean(axis=0)
        return c, float(np.linalg.norm(self.vertices - c, axis=1).max())

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def diameter_inradius(self):
        """(diameter, inradius), computed on first use and kept on the body."""
        kept = getattr(self, "_diameter_inradius", None)
        if kept is not None:
            return kept
        V = self.vertices
        D = np.linalg.norm(V[:, None, :] - V[None, :, :], axis=-1)
        diam = float(D.max())
        # inscribed-ball LP: maximize r subject to n.x + r <= offset
        d = self.dimension
        A = np.hstack([self.normals, np.ones((self.normals.shape[0], 1))])
        res = linprog(c=np.r_[np.zeros(d), -1.0], A_ub=A, b_ub=self.offsets,
                      bounds=[(None, None)] * d + [(0, None)], method="highs")
        if not res.success:
            raise InternalConsistencyError("inradius LP failed: " + res.message)
        kept = (diam, float(res.x[-1]))
        object.__setattr__(self, "_diameter_inradius", kept)
        return kept

    def scaled(self, t):
        return Polytope(self.vertices * t)

    def to_dict(self):
        return {"kind": "polytope", "vertices": self.vertices.tolist()}

    def john_outer(self):
        return loewner_ellipsoid(self.vertices)


@dataclass(frozen=True, eq=False)
class Capsule(Body):
    p: np.ndarray
    q: np.ndarray
    radius: float

    def __post_init__(self):
        p = _as_point(self.p)
        q = _as_point(self.q, p.size)
        if not 0 <= self.radius < np.inf:
            raise ValidationError("capsule radius must be non-negative and finite")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def dimension(self):
        return self.p.size

    @property
    def length(self):
        return float(np.linalg.norm(self.q - self.p))

    def measure(self):
        # cylinder part + full ball
        d, r, L = self.dimension, self.radius, self.length
        return omega_d(d - 1) * r ** (d - 1) * L + omega_d(d) * r ** d

    def perimeter(self):
        d, r, L = self.dimension, self.radius, self.length
        lateral = (d - 1) * omega_d(d - 1) * r ** (d - 2) * L
        caps = d * omega_d(d) * r ** (d - 1)
        return lateral + caps

    def signed_distance(self, P):
        v = self.q - self.p
        t = _matmul(P - self.p, v) / (float(v @ v) or 1.0)  # a point segment: t = 0
        return _segment_distance(P, self.p[None], v[None], t[:, None]) - self.radius

    def bounding_ball(self):
        return 0.5 * (self.p + self.q), 0.5 * self.length + self.radius

    def bounding_box(self):
        lo = np.minimum(self.p, self.q) - self.radius
        return lo, np.maximum(self.p, self.q) + self.radius

    def diameter_inradius(self):
        return self.length + 2.0 * self.radius, self.radius

    def scaled(self, t):
        return Capsule(self.p * t, self.q * t, self.radius * t)

    def to_dict(self):
        return {"kind": "capsule", "p": self.p.tolist(), "q": self.q.tolist(),
                "radius": self.radius}


@dataclass(frozen=True, eq=False)
class BallUnion(Body):
    """A union of closed balls, pairwise disjoint (checked on construction)."""

    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        C = np.atleast_2d(_as_point(self.centers))
        r = np.atleast_1d(np.asarray(self.radii, dtype=float))
        if C.shape[0] != r.size or not _positive(r):
            raise ValidationError("centers/radii mismatch, or a radius not positive and finite")
        object.__setattr__(self, "centers", C)
        object.__setattr__(self, "radii", r)
        if C.shape[0] > 1:
            D = np.linalg.norm(C[:, None, :] - C[None, :, :], axis=-1)
            gap = D - (r[:, None] + r[None, :])
            np.fill_diagonal(gap, np.inf)
            if gap.min() <= 0:
                raise ValidationError("the closed balls of a ball union must be disjoint")

    @property
    def dimension(self):
        return self.centers.shape[1]

    def measure(self):
        return float(np.sum(omega_d(self.dimension) * self.radii ** self.dimension))

    def signed_distance(self, P):
        # inside a ball every other ball is farther than its own boundary, as
        # the balls are disjoint, so the smallest member distance is exact
        return (np.linalg.norm(P[:, None, :] - self.centers[None, :, :], axis=-1)
                - self.radii[None, :]).min(axis=1)

    def bounding_ball(self):
        c = self.centers.mean(axis=0)
        return c, float((np.linalg.norm(self.centers - c, axis=1) + self.radii).max())

    def bounding_box(self):
        lo = (self.centers - self.radii[:, None]).min(axis=0)
        hi = (self.centers + self.radii[:, None]).max(axis=0)
        return lo, hi

    def scaled(self, t):
        return BallUnion(self.centers * t, self.radii * t)

    def to_dict(self):
        return {"kind": "ball_union", "centers": self.centers.tolist(),
                "radii": self.radii.tolist()}


# ---------------------------------------------------------------------------
# perimeter / diameter / inradius (names the benchmark tracer times)
# ---------------------------------------------------------------------------

def perimeter(body):
    """Surface measure of a convex body (perimeter if d=2)."""
    return body.perimeter()


def diameter_inradius(body):
    """(diameter, inradius) of a convex body."""
    return body.diameter_inradius()


# ---------------------------------------------------------------------------
# signed distance
# ---------------------------------------------------------------------------

_DISTANCE_BLOCK = 1024  # points per pass of the kernels below; bounds their temporaries
_PLANE_ENTRIES = 2 ** 17  # facets x points per product of Polytope._plane_excess (1 MB)
_NEWTON_MAX_ITER = 200  # from s0 >= 1e-18 a_min^2, steps of x1.5 reach any root in ~100


def _segment_distance(P, S, D, t):
    """Distance from points (n, d) to the nearest segment S_k + [0, 1] D_k;
    t (n, k) holds the parameters of their projections onto the lines."""
    diff = P[:, None, :] - S - np.clip(t, 0.0, 1.0)[..., None] * D
    return np.sqrt(np.einsum("nkj,nkj->nk", diff, diff)).min(axis=1)


def _polytope_exterior_distance(body, P):
    """Exact distance from exterior points (n, d) to a polytope's boundary: the
    smaller of the plane distances to the facet triangles a point projects into
    and the nearest edge distance (Ericson, Real-Time Collision Detection 5.1.5)."""
    W, off, S, D = body.boundary_pieces()
    k = S.shape[0]
    m = (W.shape[1] - k) // 4
    out = np.empty(P.shape[0])
    for lo in range(0, P.shape[0], _DISTANCE_BLOCK):
        B = P[lo:lo + _DISTANCE_BLOCK]
        X = _matmul(B, W) - off
        best = _segment_distance(B, S, D, X[:, :k])
        if m:
            inside = (X[:, k:k + 3 * m].reshape(-1, 3, m) >= 0.0).all(axis=1)
            h = np.where(inside, np.abs(X[:, k + 3 * m:]), np.inf)
            best = np.minimum(best, h.min(axis=1))
        out[lo:lo + _DISTANCE_BLOCK] = best
    return out


def _ellipsoid_boundary_distance(axes, pts):
    """Exact distance from points to the boundary of an axis-aligned ellipsoid.

    The nearest point is x_i = a_i^2 p_i / (a_i^2 - a_min^2 + s), s > 0 the root
    of f(s) = sum (a_i p_i)^2 / (a_i^2 - a_min^2 + s)^2 - 1 (Eberly, Distance from
    a point to an ellipse, an ellipsoid, or a hyperellipsoid, 2011), |p_i| nudged
    to >= 1e-18 a_i so that zeros take the degenerate limit. f is convex and
    decreasing, so plain Newton from any s with f(s) >= 0 rises monotonically to
    the root, with no bracket. The start is the larger of two lower bounds:
    max_i (a_i p_i - a_i^2 + a_min^2), where one term of f is 1, and, as
    t = s - a_min^2 = +-dist / |p / (a^2 + t)|, a_min^2 + (g - 1) L / |p / a^2|
    with g = |p / a|, L = |p| / g inside (dist <= |p| (1/g - 1)) and L = a_min
    outside (dist >= a_min (g - 1)), which puts near-shell points a few steps
    from the root. A point stops once its step is below 1e-15 s (or f <= 0).
    """
    P = np.atleast_2d(pts)
    if P.shape[0] > _DISTANCE_BLOCK:
        parts = [_ellipsoid_boundary_distance(axes, P[lo:lo + _DISTANCE_BLOCK])
                 for lo in range(0, P.shape[0], _DISTANCE_BLOCK)]
        return tuple(np.concatenate(x) for x in zip(*parts))
    a = np.asarray(axes, dtype=float)
    P = np.maximum(np.abs(P), 1e-18 * a)
    a2 = a * a
    amin2 = a2.min()
    shift = a2 - amin2
    ap2 = (a * P) ** 2
    # a_i p_i - shift_i, keeping its digits when a_i p_i ~ shift_i > 0
    r = np.where(shift > 0.0, a * (P - a) + amin2, a * P)
    g = np.sqrt(np.sum((P / a) ** 2, axis=1))
    reach = np.where(g > 1.0, a.min(), np.linalg.norm(P, axis=1) / g)
    s = np.maximum(r.max(axis=1), amin2 + (g - 1.0) * reach / np.linalg.norm(P / a2, axis=1))
    # Newton on the points still moving: indices, s values and terms
    idx, sub, c = np.arange(P.shape[0]), s, ap2
    for _ in range(_NEWTON_MAX_ITER):
        den = shift + sub[:, None]
        q = c / (den * den)
        step = (q.sum(axis=1) - 1.0) / (2.0 * (q / den).sum(axis=1))
        sub = sub + step
        going = step > 1e-15 * sub
        if not going.all():
            s[idx] = sub
            idx, sub, c = idx[going], sub[going], c[going]
            if idx.size == 0:
                break
    s[idx] = sub
    # one more step, the largest term's q_k - 1 as a difference of squares: near
    # the end of a long axis (shift_k >> s) q_k - 1 loses the digits of t = s - a_min^2
    den = shift + s[:, None]
    q = ap2 / (den * den)
    slope = 2.0 * (q / den).sum(axis=1)
    rows, k = np.arange(P.shape[0]), q.argmax(axis=1)
    rk = r[rows, k]
    q[rows, k] = (rk - s) * (rk + 2.0 * shift[k] + s) / den[rows, k] ** 2
    s = s + q.sum(axis=1) / slope
    dist = np.abs(s - amin2) * np.linalg.norm(P / (shift + s[:, None]), axis=1)
    return dist, g * g


def _bound_constants(axes, cut=np.inf):
    """The constants of the two bounds, for a body to compute once: a, a^2, a_min,
    a_min^2, a_max^-2, (a_max - a)(a_max + a) / (a a_max)^2, cut and min(a_min, cut)."""
    a = np.asarray(axes, dtype=float)
    lo, hi = a.min(), a.max()
    return a, a * a, lo, lo * lo, hi ** -2, (hi - a) * (hi + a) / (a * hi) ** 2, cut, min(lo, cut)


def _distance_lower(k, P):
    """Lower bound on the distance from points to the boundary of an
    axis-aligned ellipsoid, exact to first order at the end of a long axis,
    or of its cut by the slab |x_d| <= cut (k: the body's _bound_constants).

    A step v, |v| = delta, changes g^2 = |p / a|^2 by 2 (p / a^2).v + |v / a|^2,
    which lies in [-2 X delta + delta^2 / a_max^2, 2 X delta + delta^2 / a_min^2]
    with X = |p / a^2|. So reaching g^2 = 1 needs delta >= |1 - g^2| / (X + sqrt(D)),
    D = X^2 + (1 - g^2) / a_min^2 inside and X^2 - (g^2 - 1) / a_max^2 =
    sum (p_i / a_i)^2 (1 / a_i^2 - 1 / a_max^2) + 1 / a_max^2 outside, both sums
    of non-negative terms. The bound is the larger of this and |g - 1| a_min.
    With a cut it is, inside, the smaller of that and the plane distance and,
    outside, the larger of the plane excess and the shell's bound (0 where g <= 1).
    """
    a, a2, lo, lo2, hi_2, outer, cut, _ = k
    q2 = (P / a) ** 2
    g2 = _rowsum(q2)
    X2 = _rowsum(q2 / a2)
    c = 1.0 - g2
    D = np.where(c > 0.0, X2 + c / lo2, _rowsum(q2 * outer) + hi_2)
    lb = np.maximum(np.abs(c) / (np.sqrt(X2) + np.sqrt(D)), np.abs(np.sqrt(g2) - 1.0) * lo)
    if cut == np.inf:
        return lb
    sd_s = np.abs(P[:, -1]) - cut
    in_e = c >= 0.0
    return np.where(in_e & (sd_s <= 0.0), np.minimum(lb, -sd_s),
                    np.maximum(np.where(in_e, 0.0, lb), sd_s))


_UPPER_ROUNDING = 8.0 * np.finfo(float).eps  # upper-bound allowance per unit |p| + body size


def _distance_upper(k, P):
    """Upper bound on the distance from points to the boundary of an
    axis-aligned ellipsoid cut by the slab |x_d| <= cut (k: its _bound_constants),
    plus 8 ulp x (|p| + r) for rounding, r = min(a_min, cut) the inradius, so
    that it is never below the exact kernel's value (the distance is below |p| + r).

    It is the distance to the nearest of these points, with g = |p / a|:
    - the ray's exit point p / G, G = max(g, |p_d| / cut) the body's gauge, at
      distance |p| |1 - 1/G|;
    - where the line through p along p / a^2, the normal of the level set of g,
      meets g = 1: with X = |p / a^2|, Y = |p / a^3| and c = 1 - g^2, at
      t = c / (X^2 + sqrt(X^4 + Y^2 c)), the root of Y^2 t^2 + 2 X^2 t = c
      nearest 0, and at distance X |t|; none where the line misses;
    - inside, the cut plane's foot at distance cut - |p_d|, and the inradius
      r, which keeps the centre finite.
    A segment from an interior point to a point outside the body or on its
    boundary crosses the boundary, so inside every point counts. Outside,
    the line point counts only where it lies in the slab.
    """
    a, a2, _, _, _, _, cut, r = k
    q = P / a
    u = q / a
    v = u / a
    g2 = _rowsum(q * q)
    X2 = _rowsum(u * u)
    c = 1.0 - g2
    pd = np.abs(P[:, -1])
    G = np.maximum(np.sqrt(g2), pd / cut)
    inside = G < 1.0
    norm = _norms(P)
    with np.errstate(divide="ignore", invalid="ignore"):  # p = 0, or the line misses
        ray = norm * np.abs(1.0 - 1.0 / G)
        t = c / (X2 + np.sqrt(X2 * X2 + _rowsum(v * v) * c))
        hit = inside | (np.abs(P[:, -1] * (1.0 + t / a2[-1])) <= cut)
        line = np.where(hit, np.sqrt(X2) * np.abs(t), np.inf)
    side = np.where(inside, np.minimum(cut - pd, r), np.inf)
    return np.fmin(np.fmin(ray, line), side) + _UPPER_ROUNDING * (norm + r)


def signed_distance(body, points):
    """Signed distance to the body boundary, negative inside.

    Accepts a single point or an (n, d) array; returns matching shape.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    P = np.atleast_2d(pts)
    if P.shape[1] != body.dimension:
        raise ValidationError("point dimension mismatch")
    sd = np.asarray(body.signed_distance(P), dtype=float)
    return float(sd[0]) if single else sd


def boundary_distance_lower(body, points):
    """Lower bound on |signed_distance|, cheap enough for WoS step sizing."""
    return body.distance_lower(np.atleast_2d(np.asarray(points, dtype=float)))


def scale(body, t):
    """Homothety about the origin by factor t > 0."""
    if not 0 < t < np.inf:
        raise ValidationError("scale factor must be positive and finite")
    return body.scaled(float(t))


# ---------------------------------------------------------------------------
# Loewner ellipsoid / John pair
# ---------------------------------------------------------------------------

def loewner_ellipsoid(points):
    """Minimum-volume enclosing ellipsoid by Khachiyan's barycentric ascent
    with Wolfe-Atwood decrease steps (relative volume gap <= 1e-7)."""
    P = np.asarray(points, dtype=float)
    _check_spans(P)
    n, d = P.shape
    Q = np.hstack([P, np.ones((n, 1))])  # (n, d+1)
    u = np.full(n, 1.0 / n)
    for _ in range(_LOEWNER_MAX_ITER):
        V = Q.T @ (u[:, None] * Q)
        Vinv = np.linalg.inv(V)
        M = np.einsum("ij,jk,ik->i", Q, Vinv, Q)
        jp = int(np.argmax(M))
        kp = M[jp] / (d + 1) - 1.0
        active = u > 1e-12
        Mact = np.where(active, M, np.inf)
        jm = int(np.argmin(Mact))
        km = 1.0 - M[jm] / (d + 1)
        if kp <= _LOEWNER_TOL and km <= _LOEWNER_TOL:
            break
        if kp >= km:
            j, Mj = jp, M[jp]
            lam = (Mj - d - 1.0) / ((d + 1.0) * (Mj - 1.0))
        else:
            j, Mj = jm, M[jm]
            lam = (Mj - d - 1.0) / ((d + 1.0) * (Mj - 1.0))
            lam = max(lam, -u[j] / (1.0 - u[j]))
        u = (1.0 - lam) * u
        u[j] += lam
    center = P.T @ u
    S = P.T @ (u[:, None] * P) - np.outer(center, center)
    A = np.linalg.inv(S) / d
    # calibrate so all points are (numerically) inside
    m = float(np.einsum("ij,jk,ik->i", P - center, A, P - center).max())
    A = A / m
    evals, evecs = np.linalg.eigh(A)
    axes = 1.0 / np.sqrt(evals)  # eigh ascending -> axes descending
    order = np.argsort(-axes, kind="stable")
    outer = Ellipsoid(axes[order], center, evecs[:, order])
    # every point, not a sample of them, must lie in the ellipsoid built
    q = outer._local(P) / outer.semi_axes
    if np.any(_rowsum(q * q) > 1.0 + 1e-6):
        raise InternalConsistencyError("points not contained in their Loewner ellipsoid")
    return outer


def john_pair(body):
    """(inner, outer) ellipsoid sandwich: outer is the Loewner ellipsoid,
    inner is the outer shrunk by the dimension about its center. The inner
    one's containment in the body is checked on 10^4 fixed random
    directions. The outer one contains the body by construction: a ball or
    an ellipsoid is its own, and loewner_ellipsoid checks a polytope's
    vertices."""
    d = body.dimension
    outer = body.john_outer()
    inner = Ellipsoid(outer.semi_axes / d, outer.center, outer.orientation)

    scale_len = float(outer.semi_axes.max())
    U = _unit_vectors(np.random.default_rng(0), 10_000, d)
    # inner boundary points must lie in the body
    bd = inner.semi_axes[None, :] * U
    if inner.orientation is not None:
        bd = bd @ inner.orientation.T
    bd = inner.center + bd
    if np.any(signed_distance(body, bd) > _JOHN_TOL * scale_len):
        raise InternalConsistencyError("inner John ellipsoid not contained in body")
    return inner, outer


def john_sorted_axes(body):
    """Sorted (descending) semi-axes of the outer John/Loewner ellipsoid."""
    _, outer = john_pair(body)
    return outer.sorted_axes()


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def body_from_dict(doc):
    try:
        kind = doc["kind"]
        if kind == "ball":
            return Ball(doc["radius"], doc.get("center"))
        if kind == "ellipsoid":
            return Ellipsoid(doc["semi_axes"], doc.get("center"),
                             doc.get("orientation"))
        if kind == "polytope":
            return Polytope(np.asarray(doc["vertices"], dtype=float))
        if kind == "capsule":
            return Capsule(doc["p"], doc["q"], doc["radius"])
        if kind == "ball_union":
            return BallUnion(doc["centers"], doc["radii"])
    except KeyError as exc:
        raise ValidationError(f"missing body field: {exc}") from exc
    raise ValidationError(f"unknown body kind: {kind!r}")
