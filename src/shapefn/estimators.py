"""Monte Carlo estimators for torsion and Newtonian capacity, and a
boundary-integral solver for planar logarithmic capacity, on general convex
bodies.

Walks run in blocks fixed by walk_count alone, each on a counter-based
Philox stream keyed by (seed, block index, substream). All blocks of one
estimator call advance together in one lock-step loop, in waves of at most
_WAVE walkers so that memory does not grow with walk_count. Each stream
draws for its own walkers only, so results are bit-identical for a fixed
body, seed and walk_count, whatever the wave size. Capacity walks launch
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
    _DISTANCE_BLOCK,
    bounding_ball,
    bounding_box,
    boundary_distance_lower,
    diameter_inradius,
    measure,
    signed_distance,
)

_MAX_WALK_STEPS = 10 ** 6
_WAVE = 32 * _DISTANCE_BLOCK  # walkers advanced together; bounds the walk state


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

    def to_dict(self):
        return {"value": self.value, "stderr": self.standard_error,
                "n": self.walk_count_used, "backend": self.backend}


def _stream(seed, batch, sub):
    # 128-bit Philox key: (seed | batch | substream)
    key = ((int(seed) & (2 ** 64 - 1)) << 64) | (int(batch) << 3) | int(sub)
    return np.random.Generator(np.random.Philox(key=key))


def _shell_epsilon(body):
    """Width of the absorbing shell: 1e-5 x the inradius, or x the smallest
    radius of a ball union. A fixed fraction of the body's own length keeps
    the walks, like G and H, invariant under homothety."""
    if isinstance(body, BallUnion):
        return 1e-5 * float(body.radii.min())
    return 1e-5 * diameter_inradius(body)[1]


def _block_sizes(n):
    """Walks per block: ceil(n / max(1000, n // 50)) blocks, fixed by n alone,
    with sizes differing by at most one."""
    nb = math.ceil(n / max(1000, n // 50))
    sizes = np.full(nb, n // nb)
    sizes[: n - sizes.sum()] += 1
    return sizes


def _waves(sizes):
    """Runs [lo, hi) of consecutive blocks that advance together: at most
    _WAVE walkers each, and at least one block."""
    lo = 0
    while lo < sizes.size:
        fit = np.searchsorted(np.cumsum(sizes[lo:]), _WAVE, side="right")
        hi = lo + max(1, int(fit))
        yield lo, hi
        lo = hi


def _pool(sizes, waves):
    """Mean and standard error of per-walk values from their block moments,
    pooled as in Chan, Golub & LeVeque (1979). waves yields the values of
    consecutive whole blocks, one row per walk in block order and a column
    per quantity if 2-D, so no per-walk array outlives its wave."""
    means, m2 = [], 0.0
    for x in waves:
        lo = 0
        while lo < x.shape[0]:
            block = x[lo: lo + sizes[len(means)]]
            lo += block.shape[0]
            means.append(block.mean(axis=0))
            m2 = m2 + ((block - means[-1]) ** 2).sum(axis=0)
    n = int(sizes.sum())
    means = np.array(means)
    mean = sizes / n @ means
    m2 = m2 + sizes @ (means - mean) ** 2
    return mean, np.sqrt(m2 / (n - 1) / n)


def _per_stream(gens, sid, draw):
    """draw(gen, count) for the walkers on the streams gens[sid], sid
    non-decreasing, in walker order. Each stream draws for its own walkers,
    in their order, exactly as if it ran alone; a stream with no walker here
    draws nothing. A lone stream, the case of every 1000-walk call, draws
    for all its walkers in one call."""
    if len(gens) == 1:
        return draw(gens[0], sid.size)
    counts = np.bincount(sid, minlength=len(gens))
    return np.concatenate([draw(gens[s], c) for s, c in enumerate(counts) if c])


def _norms(x):
    """Row norms of x (n, d), as np.linalg.norm(x, axis=1) computes them,
    without its Python overhead on the walks' small arrays."""
    return np.sqrt((x * x).sum(axis=1))


def _unit_steps(gens, sid, d):
    """Uniform unit vectors for walkers on the streams gens[sid]."""
    v = _per_stream(gens, sid, lambda g, c: g.standard_normal((c, d)))
    v /= _norms(v)[:, None]
    return v


def _sample_interior(body, n, rng):
    lo, hi = bounding_box(body)
    out = np.empty((n, lo.size))
    have = 0
    while have < n:
        cand = lo + (hi - lo) * rng.random((2 * (n - have) + 16, lo.size))
        keep = cand[body.inside(cand)]
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
        band = near[body.distance_upper(pos[near]) >= eps]
        diag["upper_absorbed"] += near.size - band.size
        if band.size:
            r[band] = np.abs(signed_distance(body, pos[band]))
            diag["exact_fallbacks"] += band.size
    return r


def _torsion_walks(body, pos, sid, gens, eps, diag):
    """Accumulated R^2/(2d) along walk-on-spheres paths until absorption.
    Walker i starts at pos[i] and steps on gens[sid[i]]. Only live walkers
    are kept, in their order, so a step in which none dies indexes nothing;
    a walker's sum is written out when it is absorbed. pos itself is not
    advanced."""
    d = body.dimension
    out = np.zeros(pos.shape[0])
    idx = np.arange(pos.shape[0])
    acc = np.zeros(pos.shape[0])
    for _ in range(_MAX_WALK_STEPS):
        diag["walker_steps"] += idx.size
        diag["iterations"] += 1
        r = _step_radius(body, pos, eps, diag)
        dead = r < eps
        if dead.any():
            out[idx[dead]] = acc[dead]
            alive = ~dead
            idx = idx[alive]
            if idx.size == 0:
                return out
            acc, pos, sid, r = acc[alive], pos[alive], sid[alive], r[alive]
        acc = acc + r * r / (2.0 * d)
        pos = pos + r[:, None] * _unit_steps(gens, sid, d)
    raise StuckWalkError("torsion walk exceeded step budget")


def _torsion_mean(body, cfg, start):
    """Pooled mean and standard error of the torsion walk accumulator, and
    the walks' counters. start(rng, m) gives a block's m starting points from
    the block's stream, which then draws the block's steps."""
    eps = _shell_epsilon(body)
    sizes = _block_sizes(cfg.walk_count)
    diag = {"walker_steps": 0, "iterations": 0, "exact_fallbacks": 0, "upper_absorbed": 0}

    def wave(lo, hi):
        gens = [_stream(cfg.seed, b, 0) for b in range(lo, hi)]
        pos = np.concatenate([start(g, m) for g, m in zip(gens, sizes[lo:hi])])
        return _torsion_walks(body, pos, np.repeat(np.arange(hi - lo), sizes[lo:hi]),
                              gens, eps, diag)

    mean, se = _pool(sizes, (wave(lo, hi) for lo, hi in _waves(sizes)))
    return float(mean), float(se), {"diag": diag}


def wos_torsion(body, cfg=None):
    """Torsional rigidity T(body) = |body| x mean of the walk accumulator."""
    cfg = cfg or EstimatorConfig()
    vol = measure(body)
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


def _reenter(x, R, gens, sid, diag):
    """Points y, |y| = R, drawn from the exterior harmonic measure seen from
    each row of x (|x| > R; both relative to the sphere's centre), whose
    density is proportional to |x - y|^-d. Walker i draws on gens[sid[i]].

    The cosine t = 1 - w of the angle (x, y) follows the d = 3 law, where
    1/|x - y| is uniform. With u uniform, delta = |x|/R - 1 and a = 1 + delta,
    w = 2 delta^2 (1-u)(a+u) / D and 2 - w = 2 u (delta+u)(a+1)^2 / D, where
    D = a (delta + 2u)^2, so no digits cancel for walkers just outside R.
    In d >= 4 a draw is kept with probability p^((d-3)/2), where
    p = (1 - t^2) |x|^2 / |x - y|^2 = 4q(a - q) / (delta^2 + 4q) <= 1 and
    q = u (delta + u); rejected walkers draw again."""
    n, d = x.shape
    k = 1 if d == 3 else 2  # uniforms per draw: u, and in d >= 4 the acceptance test's
    dist = _norms(x)
    y = np.empty_like(x)
    todo = np.arange(n)
    while todo.size:
        diag["reentry_proposals"] += todo.size
        z = _per_stream(gens, sid[todo],
                        lambda g, c: np.hstack([g.random((c, k)), g.standard_normal((c, d))]))
        u = z[:, 0]
        delta = (dist[todo] - R) / R
        a = 1.0 + delta
        if d > 3:
            q = u * (delta + u)
            ok = z[:, 1] < (4.0 * q * (a - q) / (delta * delta + 4.0 * q)) ** (0.5 * (d - 3))
            kept, todo = todo[ok], todo[~ok]
            u, delta, a, z = u[ok], delta[ok], a[ok], z[ok]
        else:
            kept, todo = todo, todo[:0]
        D = a * (delta + 2.0 * u) ** 2
        w = 2.0 * delta * delta * (1.0 - u) * (a + u) / D
        sin = np.sqrt(w * 2.0 * u * (delta + u) * (a + 1.0) ** 2 / D)
        xh = x[kept] / dist[kept, None]
        e = z[:, k:]
        e -= (e * xh).sum(axis=1, keepdims=True) * xh
        e /= _norms(e)[:, None]
        v = (1.0 - w)[:, None] * xh + sin[:, None] * e
        y[kept] = R / _norms(v)[:, None] * v  # e is orthogonal to ulps
    diag["reentries"] += n
    return y


def _capacity_hits(body, center, R, sid, gens, eps, diag):
    """Absorbed weight of exterior walks launched uniformly on the sphere of
    radius R about center, walker i stepping on gens[sid[i]]. Like the
    torsion walks, only live walkers are kept.

    A walker that steps out to radius rho > R keeps the weight
    (R/rho)^(d-2), its chance to return to the R-sphere, and re-enters where
    it would return: at a point of the exterior harmonic measure. So the
    walk's expected absorbed weight is exactly its hitting probability.
    Below the weight _ROULETTE a walker survives with probability
    weight / _ROULETTE and then carries that weight, which keeps the mean."""
    d = body.dimension
    pos = center + R * _unit_steps(gens, sid, d)
    w = np.ones(sid.size)
    hits = np.zeros(sid.size)
    idx = np.arange(sid.size)
    for _ in range(_MAX_WALK_STEPS):
        if idx.size == 0:
            return hits
        diag["walker_steps"] += idx.size
        diag["iterations"] += 1
        r = _step_radius(body, pos, eps, diag)
        absorbed = r < eps
        if absorbed.any():
            hits[idx[absorbed]] = w[absorbed]
            live = ~absorbed
            idx, sid, pos, w, r = idx[live], sid[live], pos[live], w[live], r[live]
            if idx.size == 0:
                return hits
        pos = pos + r[:, None] * _unit_steps(gens, sid, d)
        x = pos - center
        rho = _norms(x)
        far = np.flatnonzero(rho > R)
        if far.size == 0:
            continue
        w[far] *= (R / rho[far]) ** (d - 2)
        low = far[w[far] < _ROULETTE]
        if low.size:
            spin = _per_stream(gens, sid[low], lambda g, c: g.random(c))
            won = spin * _ROULETTE < w[low]
            w[low] = np.where(won, _ROULETTE, 0.0)
            diag["roulette_kills"] += int(low.size - won.sum())
            far = far[w[far] > 0.0]
        pos[far] = center + _reenter(x[far], R, gens, sid[far], diag)
        if low.size:
            keep = w > 0.0
            idx, sid, pos, w = idx[keep], sid[keep], pos[keep], w[keep]
    raise StuckWalkError("capacity walk exceeded step budget")


def wos_capacity(body, cfg=None):
    """Newtonian capacity kappa_d R^(d-2) P(hit) by exterior walk-on-spheres
    from the sphere of radius R = 2 x the bounding radius, with exact
    harmonic-measure re-entry. extra["diag"] holds deterministic counters of
    the walks (the lock-step iterations also depend on the wave size)."""
    cfg = cfg or EstimatorConfig()
    d = body.dimension
    if d < 3:
        raise UnsupportedRepresentationError("Newtonian capacity needs d >= 3")
    eps = _shell_epsilon(body)
    center, rb = bounding_ball(body)
    R = 2.0 * rb
    sizes = _block_sizes(cfg.walk_count)
    diag = dict.fromkeys(("walker_steps", "iterations", "exact_fallbacks", "upper_absorbed",
                          "reentries", "reentry_proposals", "roulette_kills"), 0)

    def wave(lo, hi):
        gens = [_stream(cfg.seed, b, 1) for b in range(lo, hi)]
        sid = np.repeat(np.arange(hi - lo), sizes[lo:hi])
        return _capacity_hits(body, center, R, sid, gens, eps, diag)

    mean, se = _pool(sizes, (wave(lo, hi) for lo, hi in _waves(sizes)))
    if mean == 0:
        raise DegenerateEstimateError("no capacity walk hit the body")
    scale = kappa_d(d) * R ** (d - 2)
    return Estimate(scale * float(mean), scale * float(se), cfg.walk_count, "wos_capacity",
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
