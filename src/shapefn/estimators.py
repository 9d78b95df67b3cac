"""Monte Carlo estimators for torsion and Newtonian capacity, and a
boundary-integral solver for planar logarithmic capacity, on general convex
bodies.

Each estimator call draws from one counter-based Philox stream keyed by
(seed, substream). Its walks run in consecutive waves of at most _WAVE
walkers, advanced together in a lock-step loop; each wave draws its starts
and steps from the call's stream after the wave before it. So results are
bit-identical for a fixed body, seed and walk_count. Capacity walks launch
from one sphere and re-enter it from the exact exterior harmonic measure,
so no extrapolation across radii is needed. Standard errors come from the
per-walk values, so they are finite at any walk count.
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
from .exact_ellipsoid import kappa_d
from .geometry import (
    Ball,
    BallUnion,
    Capsule,
    Ellipsoid,
    Polytope,
    _norms,
    _rowsum,
    _unit_vectors,
    boundary_distance_lower,
    diameter_inradius,
    signed_distance,
)

_MAX_WALK_STEPS = 10 ** 6
_WALK_COUNTERS = ("walker_steps", "iterations", "max_walk_steps", "exact_fallbacks",
                  "upper_absorbed")  # every walk's; capacity adds re-entry and roulette counts
_WAVE = 32_768  # walkers advanced together; bounds the walk state


@dataclass(frozen=True)
class EstimatorConfig:
    walk_count: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.walk_count < 1000:
            raise ValidationError("walk_count must be at least 10^3")

    def to_dict(self):
        return {"walk_count": self.walk_count, "seed": self.seed}


@dataclass(frozen=True)
class Estimate:
    value: float
    standard_error: float
    walk_count_used: int
    backend: str
    extra: dict = field(default_factory=dict)


def _stream(seed, sub):
    # 128-bit Philox key: (seed | substream)
    key = ((int(seed) & (2 ** 64 - 1)) << 64) | int(sub)
    return np.random.Generator(np.random.Philox(key=key))


def _shell_epsilon(body):
    """Width of the absorbing shell: 1e-5 x the inradius, or x the smallest
    radius of a ball union. A fixed fraction of the body's own length keeps
    the walks, like G and H, invariant under homothety. A body with empty
    interior, such as a segment, has no walks: no start lies inside it."""
    if isinstance(body, BallUnion):
        r = float(body.radii.min())
    else:
        r = diameter_inradius(body)[1]
    if not r > 0:
        raise ValidationError("walks need a body with nonempty interior (inradius 0)")
    return 1e-5 * r


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


def _step_radius(body, pos, eps, diag):
    """Walk-on-spheres step radius at pos: the cheap lower bound on the
    boundary distance. Where it is below eps, the body's upper bound is asked
    too: a point whose upper bound is below eps as well is absorbed with its
    lower bound, a radius the walks never use, and only the band
    lower < eps <= upper gets the exact distance. diag["upper_absorbed"] and
    diag["exact_fallbacks"] count the points of each kind."""
    r = boundary_distance_lower(body, pos)
    near = np.flatnonzero(r < eps)
    if near.size:
        band = near[body.distance_upper(pos.take(near, axis=0)) >= eps]
        diag["upper_absorbed"] += near.size - band.size
        if band.size:
            r[band] = np.abs(signed_distance(body, pos.take(band, axis=0)))
            diag["exact_fallbacks"] += band.size
    return r


def _torsion_walks(body, pos, gen, eps, diag):
    """Accumulated R^2/(2d) along walk-on-spheres paths until absorption.
    Walker i starts at pos[i]; every step draws the live walkers' directions
    from gen, in walker order. Only live walkers are kept, in their order, so
    a step in which none dies indexes nothing; a walker's sum is written out
    when it is absorbed. pos is advanced in place."""
    d, n = body.dimension, pos.shape[0]
    out, acc, idx = np.zeros(n), np.zeros(n), np.arange(n)
    for steps in range(1, _MAX_WALK_STEPS + 1):
        diag["walker_steps"] += idx.size
        diag["iterations"] += 1
        r = _step_radius(body, pos, eps, diag)
        dead = r < eps
        if dead.any():
            out[idx[dead]] = acc[dead]
            alive = ~dead
            idx = idx[alive]
            if idx.size == 0:
                diag["max_walk_steps"] = max(diag["max_walk_steps"], steps)
                return out
            acc, pos, r = acc[alive], pos.compress(alive, axis=0), r[alive]
        acc += r * r / (2.0 * d)
        pos += r[:, None] * _unit_vectors(gen, idx.size, d)
    raise StuckWalkError("torsion walk exceeded step budget")


def _torsion_mean(body, cfg, start):
    """Mean and standard error of the torsion walk accumulator over
    cfg.walk_count walks, and the walks' counters. start(rng, m) gives a
    wave's m starting points from the call's stream, which then draws the
    wave's steps."""
    eps = _shell_epsilon(body)
    gen = _stream(cfg.seed, 0)
    diag = dict.fromkeys(_WALK_COUNTERS, 0)
    mean, se = _per_walk(cfg.walk_count,
                         lambda m: _torsion_walks(body, start(gen, m), gen, eps, diag))
    return mean, se, {"diag": diag}


def wos_torsion(body, cfg=None):
    """Torsional rigidity T(body) = |body| x mean of the walk accumulator."""
    cfg = cfg or EstimatorConfig()
    vol = body.measure()
    mean, se, extra = _torsion_mean(body, cfg, lambda rng, m: _sample_interior(body, m, rng))
    return Estimate(vol * mean, vol * se, cfg.walk_count, "wos_torsion", extra)


def wos_torsion_pointwise(body, point, cfg=None):
    """Estimate of the torsion function u(point) (pointwise oracle); exactly
    0 on the boundary. A point outside the body is a ValidationError."""
    cfg = cfg or EstimatorConfig()
    p = np.asarray(point, dtype=float)
    if signed_distance(body, p) > 0:
        raise ValidationError("the torsion function is defined only in the body")
    mean, se, extra = _torsion_mean(body, cfg, lambda rng, m: np.tile(p, (m, 1)))
    return Estimate(mean, se, cfg.walk_count, "wos_torsion_pointwise", extra)


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


def _capacity_hits(body, center, R, n, gen, eps, diag):
    """Absorbed weight of n exterior walks launched uniformly on the sphere
    of radius R about center, every draw from gen in walker order. Like the
    torsion walks, only live walkers are kept.

    A walker that steps out to radius rho > R keeps the weight
    (R/rho)^(d-2), its chance to return to the R-sphere, and re-enters where
    it would return: at a point of the exterior harmonic measure. So the
    walk's expected absorbed weight is exactly its hitting probability.
    Below the weight _ROULETTE a walker survives with probability
    weight / _ROULETTE and then carries that weight, which keeps the mean."""
    d = body.dimension
    pos = center + R * _unit_vectors(gen, n, d)
    w, hits, idx = np.ones(n), np.zeros(n), np.arange(n)
    for steps in range(_MAX_WALK_STEPS):
        if idx.size == 0:
            diag["max_walk_steps"] = max(diag["max_walk_steps"], steps)
            return hits
        diag["walker_steps"] += idx.size
        diag["iterations"] += 1
        r = _step_radius(body, pos, eps, diag)
        absorbed = r < eps
        if absorbed.any():
            hits[idx[absorbed]] = w[absorbed]
            live = ~absorbed
            idx, pos, w, r = idx[live], pos.compress(live, axis=0), w[live], r[live]
        pos += r[:, None] * _unit_vectors(gen, idx.size, d)
        x = pos - center
        rho = _norms(x)
        far = np.flatnonzero(rho > R)
        if far.size == 0:
            continue
        w[far] *= (R / rho[far]) ** (d - 2)
        low = far[w[far] < _ROULETTE]
        if low.size:
            spin = gen.random(low.size)
            won = spin * _ROULETTE < w[low]
            w[low] = np.where(won, _ROULETTE, 0.0)
            diag["roulette_kills"] += int(low.size - won.sum())
            far = far[w[far] > 0.0]
        pos[far] = center + _reenter(x.take(far, axis=0), R, gen, diag)
        if low.size:
            keep = w > 0.0
            idx, pos, w = idx[keep], pos.compress(keep, axis=0), w[keep]
    raise StuckWalkError("capacity walk exceeded step budget")


def wos_capacity(body, cfg=None):
    """Newtonian capacity kappa_d R^(d-2) P(hit) by exterior walk-on-spheres
    from the sphere of radius R = 2 x the bounding radius, with exact
    harmonic-measure re-entry. The walks draw from one stream, wave after
    wave. extra["diag"] holds deterministic counters of the walks: lock-step
    iterations add up over the waves, max_walk_steps is the longest wave's."""
    cfg = cfg or EstimatorConfig()
    d = body.dimension
    if d < 3:
        raise UnsupportedRepresentationError("Newtonian capacity needs d >= 3")
    if isinstance(body, Polytope):
        body.boundary_pieces()  # raises where d > 3, before any draw, not in some walk
    eps = _shell_epsilon(body)
    center, rb = body.bounding_ball()
    R = 2.0 * rb
    gen = _stream(cfg.seed, 1)
    diag = dict.fromkeys(_WALK_COUNTERS + ("reentries", "reentry_proposals", "roulette_kills"), 0)
    mean, se = _per_walk(cfg.walk_count,
                         lambda m: _capacity_hits(body, center, R, m, gen, eps, diag))
    if mean == 0:
        raise DegenerateEstimateError("no capacity walk hit the body")
    scale = kappa_d(d) * R ** (d - 2)
    return Estimate(scale * mean, scale * se, cfg.walk_count, "wos_capacity",
                    extra={"diag": diag})


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
    return caps[0], caps[1], 2 * int(m.sum())


def fekete_logcap(body):
    """Logarithmic capacity of a planar polygon, segment, disk or ellipse:
    exp(V) from Symm's equation on graded straight panels (Dijkstra &
    Hochstenbach 2008; Ransford & Rostand 2007).

    A polygon or segment is solved at two panel levels and extrapolated for
    the observed N^-3 order, v2 + (v2 - v1) / 7. A disk or ellipse is
    replaced by its axis-aligned inscribed 2^k-gons, k = 8, 9, each solved
    as a polygon, and extrapolated for their N^-2 order, (4 v9 - v8) / 3, so
    its closed form stays an independent check. The standard error is
    |v2 - v1| (|v9 - v8|), and walk_count_used is the finer level's panel
    count."""
    planar = body.dimension == 2
    if planar and isinstance(body, (Ball, Ellipsoid)):
        a = body.ellipsoid_axes()
        raw = []
        for k in (8, 9):
            th = 2.0 * math.pi * np.arange(2 ** k) / 2 ** k
            v1, v2, n = _arc_logcap(np.stack([a[0] * np.cos(th), a[1] * np.sin(th)], 1),
                                    closed=True)
            raw.append(v2 + (v2 - v1) / 7.0)
        v1, v2 = raw
        value = (4.0 * v2 - v1) / 3.0
    elif planar and (isinstance(body, Polytope)
                     or isinstance(body, Capsule) and body.radius == 0.0):
        closed = isinstance(body, Polytope)
        v1, v2, n = _arc_logcap(body.vertices if closed else np.stack([body.p, body.q]),
                                closed)
        value = v2 + (v2 - v1) / 7.0
    else:
        raise UnsupportedRepresentationError(
            "logarithmic capacity needs a planar polygon, segment, disk or ellipse")
    se = abs(v2 - v1)
    return Estimate(value, se, n, "symm",
                    extra={"raw_n": v1, "raw_2n": v2, "converged": bool(se < 1e-6 * value)})
