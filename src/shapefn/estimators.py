"""Monte Carlo estimators for torsion and Newtonian capacity, and a
boundary-integral solver for planar logarithmic capacity, on general convex
bodies.

Each estimator call draws from one counter-based Philox stream keyed by
(seed, substream). Its walks run in consecutive waves of at most _WAVE
walkers, advanced together by one lock-step loop, _walks, that both
estimators share; each wave draws its starts and steps from the call's
stream after the wave before it. So results are bit-identical for a fixed
body, seed and walk_count. The loop carries a state per walker, its value
first, and takes its step as its one variation: the walk-on-spheres step
to a shell or, outside a polytope, the jump to where Brownian motion first
hits the plane of the most violated facet, at excess h; that point follows
the half-space Poisson kernel, a (d-1)-dimensional Cauchy law of scale h,
so the jump is exact and needs no shell. A sphere step's radius is the
body's lower bound on the boundary distance, and a walker is absorbed where
that is below the shell width, so no walk asks for the exact distance. The
loop hands each step to the estimator. Torsion keeps a value and a weight
m: a step of radius R adds m R^2/(2d) to the value, and once the steps are
short, Russian roulette ends walkers or raises their weight without bias.
Capacity's value is its weight, to which it applies the far field. Capacity
walks launch from the equilibrium measure of an ellipsoid E that encloses
the body and are scaled by cap(E); walkers that escape re-enter a sphere
about E from the exact exterior harmonic measure, so no extrapolation
across radii is needed.
Standard errors come from the per-walk values, so they are finite at any
walk count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# unused here; kept only because bench/tracing.py patches this name
from scipy.optimize import minimize_scalar  # noqa: F401

from .errors import (
    DegenerateEstimateError,
    StuckWalkError,
    UnsupportedRepresentationError,
    ValidationError,
)
from .exact_ellipsoid import cap_newtonian_ellipsoid
# signed_distance, like minimize_scalar, is unused here and kept only because
# bench/tracing.py patches it
from .geometry import (
    BallUnion,
    Capsule,
    Polytope,
    _norms,
    _rowsum,
    _unit_vectors,
    boundary_distance_lower,
    diameter_inradius,
    signed_distance,  # noqa: F401
)

_MAX_WALK_STEPS = 10 ** 6
_WALK_COUNTERS = ("walker_steps", "iterations", "max_walk_steps", "absorbed",
                  "roulette_kills")
_WAVE = 32_768  # walkers advanced together; bounds the walk state
_SHELL = 1e-5  # width of the absorbing shell, in _walk_length
# Torsion walkers play Russian roulette after a step shorter than
# _ROULETTE_STEP / m (in _walk_length) while their weight m is below
# _MAX_WEIGHT. At seed 0 on a 2-core Xeon this took a 1000-walk call on the 4-D
# SlabBody([1.2, .9, .7, 1], .6) from 51,861 walker-steps, 228 lock-step
# iterations and 32.5 ms to 21,055, 95 and 10.8 ms, and a 10^4-walk call on the
# cube from 336,956 steps and 46.1 ms to 141,820 and 24.4 ms, at relative
# stderr 1.36 % -> 1.42 %. Uncapped, a weight reaches _ROULETTE_STEP / _SHELL =
# 1000: over 1000 seeds of 1000-walk square calls the cap took the largest
# relative stderr from 12.9 % to 10.7 % (median 3.8 %). A cap of 10 keeps more
# walkers on the whole tail: 23,611 steps and 130 iterations on that slab
_ROULETTE_STEP = 0.01
_MAX_WEIGHT = 100.0


@dataclass(frozen=True)
class EstimatorConfig:
    walk_count: int = 100_000
    seed: int = 0

    def __post_init__(self):
        for name, v in self.to_dict().items():  # a float seed 1.5 would walk as 1
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {v!r}")
        if self.walk_count < 1000:
            raise ValidationError("walk_count must be at least 10^3")
        if not 0 <= self.seed < 2 ** 64:  # the stream's key holds 64 bits of seed
            raise ValidationError("seed must be in [0, 2^64)")

    def to_dict(self):
        return {"walk_count": self.walk_count, "seed": self.seed}


@dataclass(frozen=True)
class Estimate:
    value: float
    standard_error: float
    backend: str
    extra: dict = field(default_factory=dict)


def _stream(seed, sub):
    # 128-bit Philox key: (seed | substream)
    key = (int(seed) << 64) | int(sub)
    return np.random.Generator(np.random.Philox(key=key))


def _walk_length(body):
    """The length the walks measure their shell in: the inradius, or the
    smallest radius of a ball union. The shell is _SHELL x it wide, and
    torsion's roulette starts below steps of _ROULETTE_STEP x it; fixed
    fractions of the body's own length keep the walks, like G and H,
    invariant under homothety. A body with empty interior, such as a
    segment, has no walks: no start lies inside it."""
    if isinstance(body, BallUnion):
        r = float(body.radii.min())
    else:
        r = diameter_inradius(body)[1]
    if not r > 0:
        raise ValidationError("walks need a body with nonempty interior (inradius 0)")
    return r


def _per_walk(n, walks):
    """Mean and standard error of the n per-walk values that walks(m)
    returns for consecutive waves of m <= _WAVE walkers."""
    x = np.concatenate([walks(min(_WAVE, n - lo)) for lo in range(0, n, _WAVE)])
    return _mean_se(x)


def _mean_se(x):
    """Sample mean of x and its standard error."""
    n = x.shape[0]
    mean = x.mean()
    return float(mean), math.sqrt(((x - mean) ** 2).sum() / (n - 1) / n)


def _sample_interior(body, n, rng):
    lo, hi = body.bounding_box()
    out = np.empty((n, lo.size))
    have = 0
    while have < n:
        cand = lo + (hi - lo) * rng.random((2 * (n - have) + 16, lo.size))
        keep = cand.compress(body.inside(cand), axis=0)
        take = min(n - have, keep.shape[0])
        out[have: have + take] = keep[:take]
        have += take
    return out


def _sphere_step(body, gen, eps):
    """The walk-on-spheres step: a walker whose lower bound on the boundary
    distance is below eps is absorbed where it stands, and every other one
    moves to a point drawn uniformly on the sphere of that radius about it.
    The bound is the distance itself on a ball, capsule, ball union or inside
    a polytope, and exact to first order on an ellipsoid's or a slab's
    boundary."""
    d = body.dimension

    def step(pos):
        r = boundary_distance_lower(body, pos)
        dead = r < eps
        live = None
        if dead.any():
            live = ~dead
            pos, r = pos.compress(live, axis=0), r[live]
        pos += r[:, None] * _unit_vectors(gen, r.size, d)
        return pos, r, live

    return step


def _jump_step(body, gen):
    """The exterior step on a Polytope, which needs no shell: a walker in or
    on the body is absorbed where it stands, and every other one jumps, by
    the exact half-space Poisson kernel, to where Brownian motion first hits
    the plane of its most violated facet (Polytope.plane_jump). A walker
    that lands in that facet is absorbed there; the others walk on from
    where they landed. A jump has no radius."""
    def step(pos):
        h, j = body.plane_excess(pos)
        live = h > 0.0
        if not live.all():
            pos, h, j = pos.compress(live, axis=0), h[live], j[live]
        landed = body.plane_jump(pos, h, j, gen.standard_normal(pos.shape))
        live[live] = ~landed
        return pos.compress(~landed, axis=0), None, live

    return step


def _walks(pos, w, step, diag, moved):
    """Walks from pos until absorption; returns each walker's value w[:, 0]
    when it is absorbed or dropped. Walker i starts at pos[i] with the state
    w[i], its value first. Each lock-step iteration calls step(pos), which
    draws what it needs for the live walkers, in walker order, and returns
    their new positions, their step radii (None for a jump) and a mask of
    the walkers that were not absorbed, or None for all; then it calls
    moved(pos, w, r), which updates pos and w in place and returns a mask of
    the walkers it keeps, or None for all. Only live walkers are kept, in
    their order, so a step in which none ends indexes nothing.
    diag["absorbed"] counts the walkers that the steps ended."""
    n = pos.shape[0]
    out, idx = np.zeros(n), np.arange(n)
    for steps in range(1, _MAX_WALK_STEPS + 1):
        diag["walker_steps"] += idx.size
        diag["iterations"] += 1
        pos, r, live = step(pos)
        if live is not None:
            dead = ~live
            diag["absorbed"] += int(np.count_nonzero(dead))
            out[idx[dead]] = w[:, 0][dead]
            idx, w = idx[live], w.compress(live, axis=0)
        keep = moved(pos, w, r)
        if keep is not None:
            gone = ~keep
            out[idx[gone]] = w[:, 0][gone]
            idx, pos, w = idx[keep], pos.compress(keep, axis=0), w.compress(keep, axis=0)
        if idx.size == 0:
            diag["max_walk_steps"] = max(diag["max_walk_steps"], steps)
            return out
    raise StuckWalkError("walk exceeded step budget")


def _roulette(w, low, target, gen, diag):
    """Russian roulette (Kahn 1956) on the weights w[low], each below its
    target: a weight survives with probability weight / target and then
    carries the target, which keeps its mean; the others become 0.0. The
    spins come from gen, in the order of low."""
    won = gen.random(low.size) * target < w[low]
    w[low] = np.where(won, target, 0.0)
    diag["roulette_kills"] += low.size - int(np.count_nonzero(won))


def wos_torsion(body, cfg=None):
    """Torsional rigidity T(body) = |body| x the mean walk value, each walk
    started uniformly in the body; a wave's starts come from the call's
    stream, which then draws the wave's steps."""
    cfg = cfg or EstimatorConfig()
    vol = body.measure()
    length = _walk_length(body)
    eps, theta = _SHELL * length, _ROULETTE_STEP * length
    gen = _stream(cfg.seed, 0)
    diag = dict.fromkeys(_WALK_COUNTERS, 0)
    twice_d = 2.0 * body.dimension

    def moved(pos, w, r):
        """A walker's value sums m R^2/(2d) over its steps, m its weight,
        which starts at 1. A walker at x with weight m expects m u(x) more,
        so after a step of radius r, a weight below
        min(theta / r, _MAX_WEIGHT) plays roulette for that bound without
        bias; a walker that loses ends with the value it has. The steps
        that close in on the shell add little, and few walkers take them."""
        value, m = w.T
        value += m * r * r / twice_d
        target = np.minimum(theta / r, _MAX_WEIGHT)
        low = (m < target).nonzero()[0]
        if low.size == 0:
            return None
        _roulette(m, low, target[low], gen, diag)
        return m > 0.0

    step = _sphere_step(body, gen, eps)
    mean, se = _per_walk(cfg.walk_count,
                         lambda m: _walks(_sample_interior(body, m, gen),
                                          np.tile([0.0, 1.0], (m, 1)), step, diag, moved))
    return Estimate(vol * mean, vol * se, "wos_torsion", extra={"diag": diag})


# Russian roulette plays below this weight. Against 1e-6, 0.1 and 0.5 at 10^4
# walks, 0.3 gave the most 1/(stderr^2 x seconds) on the cube, 4-ball and prolate
# spheroid, or within timing noise of it
_ROULETTE = 0.3


def _reenter(x, R, gen, diag):
    """Points y, |y| = R, drawn from the exterior harmonic measure seen from
    each row of x (|x| > R; both relative to the sphere's centre), whose
    density is proportional to |x - y|^-d. Each round draws from gen for the
    rows still to place, in row order.

    The cosine t = 1 - w of the angle (x, y) follows the d = 3 law, where
    1/|x - y| is uniform. With u uniform, delta = |x|/R - 1 and a = 1 + delta,
    w = 2 delta^2 (1-u)(a+u) / D and 2 - w = 2 u (delta+u)(a+1)^2 / D, where
    D = a (delta + 2u)^2, so no digits cancel for walkers just outside R.
    In d >= 4 a draw is kept with probability p^((d-3)/2), where
    p = (1 - t^2) |x|^2 / |x - y|^2 = 4q(a - q) / (delta^2 + 4q) <= 1 and
    q = u (delta + u); rejected walkers draw again. The points are placed
    after the last round."""
    n, d = x.shape
    k = 1 if d == 3 else 2  # uniforms per draw: u, and in d >= 4 the acceptance test's
    dist = _norms(x)
    delta = (dist - R) / R
    a = 1.0 + delta
    u, e = np.empty(n), np.empty_like(x)
    todo = np.arange(n)
    while todo.size:
        diag["reentry_proposals"] += todo.size
        z, normals = gen.random((todo.size, k)), gen.standard_normal((todo.size, d))
        if d > 3:
            dt, ut = delta[todo], z[:, 0]
            q = ut * (dt + ut)
            ok = z[:, 1] < (4.0 * q * (a[todo] - q) / (dt * dt + 4.0 * q)) ** (0.5 * (d - 3))
            kept, todo, z, normals = todo[ok], todo[~ok], z[ok], normals.compress(ok, axis=0)
        else:
            kept, todo = todo, todo[:0]
        u[kept], e[kept] = z[:, 0], normals
    D = a * (delta + 2.0 * u) ** 2
    w = 2.0 * delta * delta * (1.0 - u) * (a + u) / D
    sin = np.sqrt(w * 2.0 * u * (delta + u) * (a + 1.0) ** 2 / D)
    xh = x / dist[:, None]
    e -= _rowsum(e * xh)[:, None] * xh
    e /= _norms(e)[:, None]
    v = (1.0 - w)[:, None] * xh + sin[:, None] * e
    diag["reentries"] += n
    return R / _norms(v)[:, None] * v  # e is orthogonal to ulps


def wos_capacity(body, cfg=None):
    """Newtonian capacity cap(E) P(hit) by exterior walks, launched from the
    body's enclosing ellipsoid E = c + S B, S = O diag(a) O^T: walk-on-spheres
    to a shell or, outside a polytope, exact jumps from facet plane to facet
    plane (_jump_step), which need no shell.

    By Newton's homoeoid theorem E's equilibrium measure is the image of the
    uniform measure on the unit sphere, so a walk starts at c + S u for a
    unit vector u, and cap(body) = cap(E) x the mean hitting probability
    from that measure (Port & Stone 1978); ZENO's launch sphere is the case
    where E is a ball. S, unlike O alone, does not depend on the basis that
    a repeated axis leaves free. A walker that steps or jumps outside the
    sphere of radius R = max(2 r_b, |c - centre| + max a) about the bounding
    ball's centre re-enters it from the exact exterior harmonic measure. The walks
    draw from one stream, wave after wave. extra["diag"] holds deterministic
    counters of the walks: lock-step iterations add up over the waves,
    max_walk_steps is the longest wave's."""
    cfg = cfg or EstimatorConfig()
    d = body.dimension
    if d < 3:
        raise UnsupportedRepresentationError("Newtonian capacity needs d >= 3")
    center, rb = body.bounding_ball()
    E = body.enclosing_ellipsoid()
    a, O = E.semi_axes, E.orientation
    S = np.diag(a) if O is None else (O * a) @ O.T
    R = max(2.0 * rb, float(np.linalg.norm(E.center - center)) + float(a.max()))
    gen = _stream(cfg.seed, 1)
    diag = dict.fromkeys(_WALK_COUNTERS + ("reentries", "reentry_proposals"), 0)
    step = (_jump_step(body, gen) if isinstance(body, Polytope)
            else _sphere_step(body, gen, _SHELL * _walk_length(body)))

    def moved(pos, w, r):
        """A walker that steps or jumps out to radius rho > R keeps the
        weight (R/rho)^(d-2), its chance to return to the R-sphere, and re-enters
        where it would return: at a point of the exterior harmonic measure.
        So a walk's expected absorbed weight is exactly its hitting
        probability. A walker whose weight falls below _ROULETTE plays
        roulette for it; the walks drop the losers, whose value is 0.0."""
        v = w[:, 0]
        x = pos - center
        rho = _norms(x)
        far = np.flatnonzero(rho > R)
        if far.size == 0:
            return None
        v[far] *= (R / rho[far]) ** (d - 2)
        low = far[v[far] < _ROULETTE]
        if low.size:
            _roulette(v, low, _ROULETTE, gen, diag)
            far = far[v[far] > 0.0]
        pos[far] = center + _reenter(x.take(far, axis=0), R, gen, diag)
        return v > 0.0 if low.size else None

    mean, se = _per_walk(cfg.walk_count,
                         lambda m: _walks(E.center + _unit_vectors(gen, m, d) @ S,
                                          np.ones((m, 1)), step, diag, moved))
    if mean == 0:
        raise DegenerateEstimateError("no capacity walk hit the body")
    scale = cap_newtonian_ellipsoid(a)
    return Estimate(scale * mean, scale * se, "wos_capacity", extra={"diag": diag})


# ---------------------------------------------------------------------------
# Logarithmic capacity (d = 2) from Symm's equation
# ---------------------------------------------------------------------------

_PANELS = 128  # panels on the whole boundary at the coarse level


def _grade(m):
    """Panel breakpoints on [0, 1], cubically graded toward both ends."""
    tau = np.arange(m + 1) / m
    return tau ** 3 / (tau ** 3 + (1.0 - tau) ** 3)


def _log_panel(w, v):
    """F(w, v) = int_0^w 1/2 log(s^2 + v^2) ds, the arctan(w/v) branch
    (even in v; arctan2 would be wrong for v < 0)."""
    r2 = w * w + v * v
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(w != 0.0, 0.5 * w * np.log(r2), 0.0) - w
        return out + np.where(v != 0.0, v * np.arctan(w / v), 0.0)


def _symm_potential(a, b):
    """The constant V of Symm's equation int log|x - y| sigma(y) ds_y = V,
    int sigma ds = 1, with sigma constant on each straight panel [a_j, b_j]
    and collocation at the panel midpoints. Rows are assembled 64 at a time,
    so no temporary is larger than the n x n matrix."""
    n = a.shape[0]
    L = np.linalg.norm(b - a, axis=1)
    t = (b - a) / L[:, None]
    mid = 0.5 * (a + b)
    M = np.zeros((n + 1, n + 1))
    K = M[:n, :n]  # a view: the single-layer block
    for i in range(0, n, 64):
        d = mid[i: i + 64, None, :] - a[None]
        u = (d * t).sum(axis=-1)
        v = d[..., 1] * t[:, 0] - d[..., 0] * t[:, 1]
        K[i: i + 64] = _log_panel(L - u, v) - _log_panel(-u, v)
    M[:n, n] = -1.0
    M[n, :n] = L
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    return float(np.linalg.solve(M, rhs)[n])


def _arc_logcap(V, closed):
    """Logarithmic capacities of the polygonal arc through the vertices V
    (a polygon if closed) at m_e and 2 m_e graded panels per edge,
    m_e = max(1, round(_PANELS L_e / length)). The arc is first scaled to
    diameter 1, so cap <= 1/2 and the equation is uniquely solvable."""
    diam = float(np.max(np.linalg.norm(V[:, None] - V[None], axis=-1)))
    X = (V - V.mean(axis=0)) / diam
    A = X if closed else X[:-1]
    E = (np.roll(X, -1, axis=0) if closed else X[1:]) - A
    Le = np.linalg.norm(E, axis=1)
    m = np.maximum(1, np.rint(_PANELS * Le / Le.sum())).astype(int)
    caps = []
    for k in (1, 2):
        g = [_grade(k * mi) for mi in m]
        a = np.concatenate([A[e] + gi[:-1, None] * E[e] for e, gi in enumerate(g)])
        b = np.concatenate([A[e] + gi[1:, None] * E[e] for e, gi in enumerate(g)])
        caps.append(diam * math.exp(_symm_potential(a, b)))
    return caps[0], caps[1]


def fekete_logcap(body):
    """Logarithmic capacity of a planar polygon, segment, disk or ellipse:
    exp(V) from Symm's equation on graded straight panels (Dijkstra &
    Hochstenbach 2008; Ransford & Rostand 2007).

    A polygon or segment is solved at two panel levels and extrapolated for
    the observed N^-3 order, v2 + (v2 - v1) / 7. A disk or ellipse is
    replaced by its axis-aligned inscribed 2^k-gons, k = 8, 9, each solved
    as a polygon, and extrapolated for their N^-2 order, (4 v9 - v8) / 3, so
    its closed form stays an independent check. The standard error is
    |v2 - v1| (|v9 - v8|)."""
    planar = body.dimension == 2
    a = body.ellipsoid_axes()
    if planar and a is not None:
        raw = []
        for k in (8, 9):
            th = 2.0 * math.pi * np.arange(2 ** k) / 2 ** k
            v1, v2 = _arc_logcap(np.stack([a[0] * np.cos(th), a[1] * np.sin(th)], 1),
                                 closed=True)
            raw.append(v2 + (v2 - v1) / 7.0)
        v1, v2 = raw
        value = (4.0 * v2 - v1) / 3.0
    elif planar and (isinstance(body, Polytope)
                     or isinstance(body, Capsule) and body.radius == 0.0):
        closed = isinstance(body, Polytope)
        v1, v2 = _arc_logcap(body.vertices if closed else np.stack([body.p, body.q]),
                             closed)
        value = v2 + (v2 - v1) / 7.0
    else:
        raise UnsupportedRepresentationError(
            "logarithmic capacity needs a planar polygon, segment, disk or ellipse")
    se = abs(v2 - v1)
    return Estimate(value, se, "symm",
                    extra={"raw_n": v1, "raw_2n": v2, "converged": bool(se < 1e-6 * value)})
