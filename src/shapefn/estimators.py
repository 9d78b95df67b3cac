"""Monte Carlo estimators for torsion and Newtonian capacity, and a
boundary-integral solver for planar logarithmic capacity, on general convex
bodies.

Walks run in blocks fixed by walk_count alone, each on a counter-based
Philox stream keyed by (seed, block index, substream). All blocks of one
estimator call, and both of capacity's launch radii, advance together in
one lock-step loop, in waves of at most _WAVE walkers so that memory does
not grow with walk_count. Each stream draws for its own walkers only, so
results are bit-identical for a fixed body, seed and walk_count, whatever
the wave size. Standard errors come from the per-walk values, so they are
finite at any walk count.
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
    shell_epsilon: float | None = None  # default: 1e-5 x inradius
    seed: int = 0

    def __post_init__(self):
        if self.walk_count < 1000:
            raise ValidationError("walk_count must be at least 10^3")
        if self.shell_epsilon is not None and self.shell_epsilon <= 0:
            raise ValidationError("shell_epsilon must be positive")

    def to_dict(self):
        return {"walk_count": self.walk_count, "shell_epsilon": self.shell_epsilon,
                "seed": self.seed}


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


def _shell_reference(body):
    if isinstance(body, BallUnion):
        return float(body.radii.min())
    return diameter_inradius(body)[1]


def _resolve_epsilon(cfg, body):
    ref = _shell_reference(body)
    if cfg.shell_epsilon is None:
        return 1e-5 * ref
    if cfg.shell_epsilon > 1e-3 * ref:
        raise ValidationError("shell_epsilon must be <= 1e-3 x body inradius")
    return cfg.shell_epsilon


def _block_sizes(n):
    """Walks per block: ceil(n / max(1000, n // 50)) blocks, fixed by n alone,
    with sizes differing by at most one."""
    nb = math.ceil(n / max(1000, n // 50))
    sizes = np.full(nb, n // nb)
    sizes[: n - sizes.sum()] += 1
    return sizes


def _waves(sizes, streams):
    """Runs [lo, hi) of consecutive blocks that advance together: at most
    _WAVE walkers each, a block of m walks holding streams x m of them, and at
    least one block."""
    lo = 0
    while lo < sizes.size:
        fit = np.searchsorted(np.cumsum(streams * sizes[lo:]), _WAVE, side="right")
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


def _unit_steps(gens, sid, d):
    """Unit vectors for walkers on the streams gens[sid], sid non-decreasing.
    Each stream draws for its own walkers, in their order, exactly as if it
    ran alone; a stream with no walker here draws nothing."""
    counts = np.bincount(sid, minlength=len(gens))
    v = np.concatenate([gens[s].standard_normal((c, d)) for s, c in enumerate(counts) if c])
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


def _sample_interior(body, n, rng):
    lo, hi = bounding_box(body)
    out = np.empty((n, lo.size))
    have = 0
    while have < n:
        cand = lo + (hi - lo) * rng.random((2 * (n - have) + 16, lo.size))
        keep = cand[signed_distance(body, cand) < 0]
        take = min(n - have, keep.shape[0])
        out[have: have + take] = keep[:take]
        have += take
    return out


def _step_radius(body, pos, eps):
    """Walk-on-spheres step radius at pos: the cheap lower bound on the
    boundary distance, replaced by the exact distance where it is below eps."""
    r = boundary_distance_lower(body, pos)
    near = r < eps
    if near.any():
        r = r.copy()
        r[near] = np.abs(signed_distance(body, pos[near]))
    return r


def _torsion_walks(body, pos, sid, gens, eps):
    """Accumulated R^2/(2d) along walk-on-spheres paths until absorption.
    Walker i starts at pos[i] (advanced in place) and steps on gens[sid[i]]."""
    d = body.dimension
    acc = np.zeros(pos.shape[0])
    idx = np.arange(pos.shape[0])
    for _ in range(_MAX_WALK_STEPS):
        if idx.size == 0:
            return acc
        r = _step_radius(body, pos[idx], eps)
        alive = r >= eps
        idx = idx[alive]
        r = r[alive]
        if idx.size == 0:
            return acc
        acc[idx] += r * r / (2.0 * d)
        pos[idx] += r[:, None] * _unit_steps(gens, sid[idx], d)
    raise StuckWalkError("torsion walk exceeded step budget; shell_epsilon too small?")


def _torsion_mean(body, cfg, start):
    """Pooled mean and standard error of the torsion walk accumulator.
    start(rng, m) gives a block's m starting points from the block's stream,
    which then draws the block's steps."""
    eps = _resolve_epsilon(cfg, body)
    sizes = _block_sizes(cfg.walk_count)

    def wave(lo, hi):
        gens = [_stream(cfg.seed, b, 0) for b in range(lo, hi)]
        pos = np.concatenate([start(g, m) for g, m in zip(gens, sizes[lo:hi])])
        return _torsion_walks(body, pos, np.repeat(np.arange(hi - lo), sizes[lo:hi]),
                              gens, eps)

    return _pool(sizes, (wave(lo, hi) for lo, hi in _waves(sizes, 1)))


def wos_torsion(body, cfg=None):
    """Torsional rigidity T(body) = |body| x mean of the walk accumulator."""
    cfg = cfg or EstimatorConfig()
    vol = measure(body)
    mean, se = _torsion_mean(body, cfg, lambda rng, m: _sample_interior(body, m, rng))
    return Estimate(vol * float(mean), vol * float(se), cfg.walk_count, "wos_torsion")


def wos_torsion_pointwise(body, point, cfg=None):
    """Estimate of the torsion function u(point) (pointwise oracle); exactly
    0 on the boundary. A point outside the body is a ValidationError."""
    cfg = cfg or EstimatorConfig()
    p = np.asarray(point, dtype=float)
    if signed_distance(body, p) > 0:
        raise ValidationError("the torsion function is defined only in the body")
    mean, se = _torsion_mean(body, cfg, lambda rng, m: np.tile(p, (m, 1)))
    return Estimate(float(mean), float(se), cfg.walk_count, "wos_torsion_pointwise")


_WEIGHT_FLOOR = 1e-6  # relative truncation bias, negligible vs Monte Carlo noise


def _capacity_hits(body, center, R, sid, gens, eps):
    """Absorbed weight of exterior walks, walker i launched from the sphere
    of radius R[i] and stepping on gens[sid[i]].

    The escape test is handled by expectation: instead of killing a walk at
    radius rho > R with the exact escape probability, its weight is
    multiplied by the survival probability (R/rho)^(d-2) and it re-enters
    uniformly on its R-sphere. This removes the kill/survive variance; the
    walk is dropped once its weight is below a floor."""
    d = body.dimension
    pos = center + R[:, None] * _unit_steps(gens, sid, d)
    w = np.ones(R.size)
    hits = np.zeros(R.size)
    idx = np.arange(R.size)
    for _ in range(_MAX_WALK_STEPS):
        if idx.size == 0:
            return hits
        r = _step_radius(body, pos, eps)
        absorbed = r < eps
        if absorbed.any():
            hits[idx[absorbed]] = w[absorbed]
            idx, pos, w, r = idx[~absorbed], pos[~absorbed], w[~absorbed], r[~absorbed]
        if idx.size == 0:
            return hits
        pos = pos + r[:, None] * _unit_steps(gens, sid[idx], d)
        rho = np.linalg.norm(pos - center, axis=1)
        far = rho > R[idx]
        if far.any():
            Rf = R[idx[far]]
            w[far] *= (Rf / rho[far]) ** (d - 2)
            pos[far] = center + Rf[:, None] * _unit_steps(gens, sid[idx[far]], d)
        keep = w > _WEIGHT_FLOOR
        if not keep.all():
            idx, pos, w = idx[keep], pos[keep], w[keep]
    raise StuckWalkError("capacity walk exceeded step budget")


def wos_capacity(body, cfg=None):
    """Newtonian capacity by exterior walk-on-spheres hitting probability,
    with Richardson extrapolation across launch radii R and 2R: walk i at R
    and walk i at 2R, on independent streams, form one extrapolated value."""
    cfg = cfg or EstimatorConfig()
    d = body.dimension
    if d < 3:
        raise UnsupportedRepresentationError("Newtonian capacity needs d >= 3")
    eps = _resolve_epsilon(cfg, body)
    center, rb = bounding_ball(body)
    R = 2.0 * rb
    kap = kappa_d(d)
    f = 2.0 ** (2 - d)  # bias decay factor between radii R and 2R
    sizes = _block_sizes(cfg.walk_count)

    def wave(lo, hi):
        # the R walks of blocks lo..hi-1, then their 2R walks, on streams 1 and 2
        m = sizes[lo:hi]
        gens = [_stream(cfg.seed, b, k) for k in (1, 2) for b in range(lo, hi)]
        sid = np.repeat(np.arange(2 * (hi - lo)), np.tile(m, 2))
        hits = _capacity_hits(body, center, np.repeat([R, 2.0 * R], m.sum()), sid, gens, eps)
        cap_R, cap_2R = (kap * r ** (d - 2) * h
                         for r, h in zip((R, 2.0 * R), np.split(hits, 2)))
        return np.stack([(cap_2R - f * cap_R) / (1.0 - f), cap_R, cap_2R], axis=1)

    mean, se = _pool(sizes, (wave(lo, hi) for lo, hi in _waves(sizes, 2)))
    value, raw_R, raw_2R = (float(x) for x in mean)
    if raw_R == 0 and raw_2R == 0:
        raise DegenerateEstimateError("no capacity walk hit the body")
    return Estimate(value, float(se[0]), cfg.walk_count, "wos_capacity",
                    extra={"raw_R": raw_R, "raw_2R": raw_2R})


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


def fekete_logcap(body, cfg=None):
    """Logarithmic capacity of a planar polygon, segment, disk or ellipse:
    exp(V) from Symm's equation on graded straight panels (Dijkstra &
    Hochstenbach 2008; Ransford & Rostand 2007).

    A polygon or segment is solved at two panel levels and extrapolated for
    the observed N^-3 order, v2 + (v2 - v1) / 7. A disk or ellipse is
    replaced by its axis-aligned inscribed 2^k-gons, k = 8, 9, each solved
    as a polygon, and extrapolated for their N^-2 order, (4 v9 - v8) / 3, so
    its closed form stays an independent check. The standard error is
    |v2 - v1| (|v9 - v8|), and walk_count_used is the finer level's panel
    count. cfg is not used: the result is deterministic."""
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
