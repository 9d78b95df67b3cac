"""Convex body representations and geometric measures.

Each body kind is one immutable class derived from ``Body`` that holds all of
its geometry: measure, perimeter, signed distance (negative inside), a cheap
signed lower bound on it, whose sign is membership and on which walks are
absorbed, bounding ball and box, diameter/inradius, homothety, JSON form, the
outer John ellipsoid and the enclosing ellipsoid that capacity walks launch from. The kinds are
balls, ellipsoids, ellipsoids cut by a slab, polytopes, capsules and unions
of disjoint balls. The methods are the API.
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
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError
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
        """Signed lower bound on the distance of each point, negative exactly
        inside and never larger in size; by default the signed distance. It
        is the walks' step radius, and they absorb a walker where it is
        below their shell width, so a kind whose exact kernel costs more
        than a bound, such as the ellipsoid's Newton iteration, gives one
        that is exact to first order at its boundary."""
        return signed_distance(self, P)

    def inside(self, P):
        """Whether each point is interior: the sign of the lower bound."""
        return self.distance_lower(P) < 0

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
        """JSON form for body_from_dict: the kind and each constructor field set."""
        kind = next((k for k, cls in BODY_KINDS.items() if cls is type(self)), None)
        if kind is None:
            raise self._unsupported("serialization")
        doc = {"kind": kind}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.init and v is not None:
                doc[f.name] = v.tolist() if isinstance(v, np.ndarray) else v
        return doc

    def john_outer(self):
        """Outer John (Loewner) ellipsoid."""
        raise self._unsupported("John ellipsoid")

    def enclosing_ellipsoid(self):
        """An ellipsoid containing the body, from which capacity walks
        launch: the sphere of radius 2 r_b about the bounding ball's centre
        unless a kind declares a tighter one."""
        c, r = self.bounding_ball()
        return Ellipsoid(np.full(c.size, 2.0 * r), c)

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
        if c.ndim != 1 or c.size < 2:
            raise ValidationError("ball center must be a point of dimension >= 2")
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

    def john_outer(self):
        return self

    def ellipsoid_axes(self):
        return self.semi_axes


@dataclass(frozen=True, eq=False)
class SlabBody(Body):
    """Axis-aligned ellipsoid cut by the symmetric slab |x_d| <= h a_d.

    Its signed distance is exact inside. Outside, it is the larger of the
    ellipsoid's and the slab's signed distances, which near the rim of the
    cut is only a lower bound on the distance to the body."""

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

    def bounding_ball(self):
        return np.zeros(self.dimension), float(self.axes.max())

    def enclosing_ellipsoid(self):
        # the uncut part of its boundary is the body's: walks launched there end at once
        return self.ellipsoid

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
    """Convex hull of its vertices in d = 2 or 3; the facets come from Qhull.
    Every functional needs the volume, which Qhull gives for d <= 3 only, so
    a polytope of d > 3 is refused on construction."""

    vertices: np.ndarray
    normals: np.ndarray = field(init=False)  # outward unit normals
    offsets: np.ndarray = field(init=False)  # n . x <= offset

    def __post_init__(self):
        V = _as_point(self.vertices)
        if V.ndim != 2:
            raise ValidationError("vertices must be an (n, d) array")
        if V.shape[1] > 3:
            raise UnsupportedRepresentationError("polytopes are supported only for d <= 3")
        _check_spans(V)
        try:
            hull = ConvexHull(V)
        except QhullError as exc:  # flat to Qhull's own precision
            raise RankDeficiencyError(str(exc).splitlines()[0]) from exc
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
        object.__setattr__(self, "vertices", V)
        object.__setattr__(self, "normals", normals[keep])
        object.__setattr__(self, "offsets", offsets[keep])
        self._check_representations()

    def _check_representations(self):
        # mutual containment: every vertex satisfies the H-rep, every facet is
        # tight, to _REP_TOL x the largest vertex norm, so at any scale
        V = self.vertices
        slack = (V @ self.normals.T - self.offsets) / np.linalg.norm(V, axis=1).max()
        if slack.max() > _REP_TOL:
            raise ValidationError("V- and H-representations disagree (vertex outside)")
        if np.any(slack.max(axis=0) < -_REP_TOL):
            raise ValidationError("V- and H-representations disagree (loose facet)")

    @property
    def dimension(self):
        return self.vertices.shape[1]

    def hull(self):
        return self._hull

    @cached_property
    def boundary_pieces(self):
        """(W, off, S, D) for the edge distance, built on first use.

        S + t D (k, d) are the hull's edges: in 3-D the unique sides of
        Qhull's triangles, the diagonals that split a facet among them; in
        2-D the sides themselves. p @ W - off holds each one's t for p's
        projection onto its line.
        """
        X, simp = self.hull().points, self.hull().simplices
        if self.dimension == 3:
            simp = np.concatenate([simp[:, [0, 1]], simp[:, [1, 2]], simp[:, [0, 2]]])
        edges = np.unique(np.sort(simp, axis=1), axis=0)
        S = X[edges[:, 0]]
        D = X[edges[:, 1]] - S
        L2 = (D * D).sum(1)
        W = D / np.where(L2 > 0.0, L2, 1.0)[:, None]
        return W.T, (W * S).sum(1), S, D

    def measure(self):
        return float(self.hull().volume)

    def perimeter(self):
        return float(self.hull().area)

    def distance_lower(self, P):
        """The plane excess, max over facets of n . p - offset: the exact
        signed distance inside and, outside, the largest halfspace violation,
        a lower bound. It is computed in products of facets x points of at
        most _PLANE_ENTRIES entries; the max runs along the long axis. At
        10^4 points on a 2-core Xeon (OpenBLAS 0.3.31), 2^17 entries took
        35 us on the square, 52 on the cube and 175 on a 20-facet hull,
        against 76, 97 and 256 in 1024-point blocks; more entries gained
        nothing from 3000 to 32768 points, and one product of the cube's
        32768 points (196,608 entries) once took 7 ms on threaded BLAS."""
        out = np.empty(P.shape[0])
        for rows, X in self._excess_blocks(P):
            X.max(axis=0, out=out[rows])
        return out

    def _excess_blocks(self, P):
        """(rows, X) for consecutive blocks of P's rows, X[i, k] the excess
        n_i . p_k - offset_i of the block's k-th point over facet i, in
        blocks of at most _PLANE_ENTRIES entries."""
        step = max(1, _PLANE_ENTRIES // self.offsets.size)
        for lo in range(0, P.shape[0], step):
            X = _matmul(self.normals, P[lo:lo + step].T)
            X -= self.offsets[:, None]
            yield slice(lo, lo + step), X

    def plane_excess(self, P):
        """(h, j): each point's largest plane excess, distance_lower bit for
        bit, and the facet j that it violates most."""
        h, j = np.empty(P.shape[0]), np.empty(P.shape[0], dtype=np.intp)
        for rows, X in self._excess_blocks(P):
            X.argmax(axis=0, out=j[rows])
            h[rows] = X[j[rows], np.arange(X.shape[1])]
        return h, j

    def plane_jump(self, P, h, j, G):
        """Moves each point p of P, outside the body at excess h > 0 over its
        most violated facet j, in place to where Brownian motion from p
        first hits the plane of that facet, and returns whether it landed
        in the facet, that is on the body (_in_facet). The plane separates p
        from the body, so the path meets the body nowhere before it.

        With g the row of G, d standard normals, the point is
        y = p - h n_j + h (g - (g . n_j) n_j) / |g . n_j|: the foot of the
        perpendicular plus h times a (d-1)-dimensional Cauchy vector, whose
        law is the half-space's Poisson kernel, h / |y - p|^d up to a
        constant. It is formed as p + t g - (h + t g . n_j) n_j with
        t = h / |g . n_j|, overwriting G."""
        N = self.normals[j]
        gn = _rowsum(G * N)
        t = h / np.abs(gn)
        G *= t[:, None]
        gn *= t
        gn += h
        N *= gn[:, None]
        P += G
        P -= N
        return self._in_facet(P, j)

    def _in_facet(self, P, j):
        """Whether each point p of P, on the plane of its facet j, lies in
        that facet: whether every other facet's excess at p is at most 0."""
        other = np.empty(P.shape[0])
        for rows, X in self._excess_blocks(P):
            X[j[rows], np.arange(X.shape[1])] = -np.inf
            X.max(axis=0, out=other[rows])
        return other <= 0.0

    def signed_distance(self, P):
        """The plane excess e of distance_lower, the exact distance inside.
        Outside, e where the foot p - e n_j on the most violated facet j lies
        in that facet, which holds wherever p's nearest boundary point lies
        inside a facet i: every other facet's excess is below e_i there, so
        j = i and the foot is that point. Elsewhere the nearest point lies on
        an edge (in 2-D, a vertex)."""
        sd, j = self.plane_excess(P)
        out = np.flatnonzero(sd > 0)
        if out.size:
            Q, j = P.take(out, axis=0), j[out]
            off = ~self._in_facet(Q - sd[out][:, None] * self.normals[j], j)
            sd[out[off]] = _edge_distance(self, Q.compress(off, axis=0))
        return sd

    def bounding_ball(self):
        c = self.vertices.mean(axis=0)
        return c, float(np.linalg.norm(self.vertices - c, axis=1).max())

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def diameter_inradius(self):
        return self._diameter_inradius

    @cached_property
    def _diameter_inradius(self):
        """(diameter, inradius), computed on first use and kept on the body."""
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
        return diam, float(res.x[-1])

    def scaled(self, t):
        return Polytope(self.vertices * t)

    def john_outer(self):
        return self._john_outer

    @cached_property
    def _john_outer(self):
        """The Loewner ellipsoid, computed on first use and kept on the body."""
        return loewner_ellipsoid(self.vertices)

    def enclosing_ellipsoid(self):
        return self.john_outer()


@dataclass(frozen=True, eq=False)
class Capsule(Body):
    p: np.ndarray
    q: np.ndarray
    radius: float

    def __post_init__(self):
        p = _as_point(self.p)
        if p.ndim != 1 or p.size < 2:
            raise ValidationError("capsule ends must be points of dimension >= 2")
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
        if C.ndim != 2 or C.shape[1] < 2:
            raise ValidationError("ball union centers must be points of dimension >= 2")
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

# Points per pass of the kernels below. On john_pair's 10^4 points of the five
# d = 2..6 ellipsoids of bench/workloads.py's exact corpus (seed 0, 2-core Xeon),
# the ellipsoid kernel's peak allocation was 0.34-0.63 MB, against 2.0-4.3 MB in
# blocks of _PLANE_ENTRIES // d, for the same bits; with those john_pair took
# 0-7 % longer in 7 of 8 alternations (80-89 ms), though the lone kernel was
# ~20 % faster at d = 2, 3.
_DISTANCE_BLOCK = 1024
_PLANE_ENTRIES = 2 ** 17  # facets x points per product of Polytope.distance_lower (1 MB)
_NEWTON_MAX_ITER = 200  # from s0 >= 1e-18 a_min^2, steps of x1.5 reach any root in ~100


def _segment_distance(P, S, D, t):
    """Distance from points (n, d) to the nearest segment S_k + [0, 1] D_k;
    t (n, k) holds the parameters of their projections onto the lines."""
    diff = P[:, None, :] - S - np.clip(t, 0.0, 1.0)[..., None] * D
    return np.sqrt(np.einsum("nkj,nkj->nk", diff, diff)).min(axis=1)


def _edge_distance(body, P):
    """Distance from points (n, d) to the nearest of a polytope's edges."""
    W, off, S, D = body.boundary_pieces
    out = np.empty(P.shape[0])
    for lo in range(0, P.shape[0], _DISTANCE_BLOCK):
        B = P[lo:lo + _DISTANCE_BLOCK]
        out[lo:lo + _DISTANCE_BLOCK] = _segment_distance(B, S, D, _matmul(B, W) - off)
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
    """The constants of _distance_lower, for a body to compute once: a, a^2, a_min,
    a_min^2, a_max^-2, (a_max - a)(a_max + a) / (a a_max)^2 and cut. a_max^-2 is
    formed as 1 / a_max^2, two correctly rounded operations, so that it scales
    exactly under a homothety by a power of 2, as pow's a_max ** -2 does not."""
    a = np.asarray(axes, dtype=float)
    lo, hi = a.min(), a.max()
    return a, a * a, lo, lo * lo, 1.0 / (hi * hi), (hi - a) * (hi + a) / (a * hi) ** 2, cut


def _distance_lower(k, P):
    """Signed lower bound on the distance from points to the boundary of an
    axis-aligned ellipsoid, exact to first order at the end of a long axis,
    or of its cut by the slab |x_d| <= cut (k: the body's _bound_constants):
    negative exactly inside, and never larger in size than the distance.

    A step v, |v| = delta, changes g^2 = |p / a|^2 by 2 (p / a^2).v + |v / a|^2,
    which lies in [-2 X delta + delta^2 / a_max^2, 2 X delta + delta^2 / a_min^2]
    with X = |p / a^2|. So reaching g^2 = 1 needs delta >= |1 - g^2| / (X + sqrt(D)),
    D = X^2 + (1 - g^2) / a_min^2 inside and X^2 - (g^2 - 1) / a_max^2 =
    sum (p_i / a_i)^2 (1 / a_i^2 - 1 / a_max^2) + 1 / a_max^2 outside, both sums
    of non-negative terms. The bound is the larger of this and |g - 1| a_min,
    of the sign of g^2 - 1, which is the exact kernel's: sqrt rounds
    monotonically and 1 exactly, so g^2 < 1 exactly when its g * g < 1. On
    the shell the bound is -0.0, which is not inside. With a cut it is, as
    the body's signed distance is, the larger of that and the plane's signed
    distance |p_d| - cut, which is 0.0 on the plane.
    """
    a, a2, lo, lo2, hi_2, outer, cut = k
    q2 = (P / a) ** 2
    g2 = _rowsum(q2)
    X2 = _rowsum(q2 / a2)
    c = 1.0 - g2
    D = np.where(c > 0.0, X2 + c / lo2, _rowsum(q2 * outer) + hi_2)
    lb = np.maximum(np.abs(c) / (np.sqrt(X2) + np.sqrt(D)), np.abs(np.sqrt(g2) - 1.0) * lo)
    lb = np.copysign(lb, -c)
    return lb if cut == np.inf else np.maximum(lb, np.abs(P[:, -1]) - cut)


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
    """|distance_lower|, a lower bound on |signed_distance| for WoS steps."""
    return np.abs(body.distance_lower(np.atleast_2d(np.asarray(points, dtype=float))))


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
        up = kp >= km  # else a decrease step, which keeps u[j] >= 0
        j = jp if up else jm
        lam = (M[j] - d - 1.0) / ((d + 1.0) * (M[j] - 1.0))
        if not up:
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

BODY_KINDS = {"ball": Ball, "ellipsoid": Ellipsoid, "polytope": Polytope,
              "capsule": Capsule, "ball_union": BallUnion}


def body_from_dict(doc):
    """The body of a JSON document: its kind plus the constructor's fields,
    of which those with a default may be left out; other keys are ignored."""
    if not isinstance(doc, dict):
        raise ValidationError("a body document must be a JSON object")
    try:
        kind = doc["kind"]
        cls = BODY_KINDS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ValidationError(f"unknown body kind: {kind!r}")
        return cls(**{f.name: doc[f.name] for f in fields(cls)
                      if f.init and (f.name in doc or f.default is MISSING)})
    except KeyError as exc:
        raise ValidationError(f"missing body field: {exc}") from exc
    except TypeError as exc:  # a field of the wrong type, such as a string radius
        raise ValidationError(f"malformed body field: {exc}") from exc
