"""Monte Carlo and discrete-extremal estimators for torsion, Newtonian
capacity and logarithmic capacity on general convex bodies.

Walks run in blocks fixed by walk_count alone, each on a counter-based
Philox stream keyed by (seed, block index, substream), so results are
bit-identical for a fixed body, seed and walk_count. Standard errors come
from the per-walk values, so they are finite at any walk count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

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
    _unit_vectors,
    bounding_ball,
    bounding_box,
    boundary_distance_lower,
    diameter_inradius,
    measure,
    signed_distance,
)

_MAX_WALK_STEPS = 10 ** 6


@dataclass(frozen=True)
class EstimatorConfig:
    walk_count: int = 100_000
    shell_epsilon: float | None = None  # default: 1e-5 x inradius
    seed: int = 0
    fekete_points: int = 128

    def __post_init__(self):
        if self.walk_count < 1000:
            raise ValidationError("walk_count must be at least 10^3")
        if self.shell_epsilon is not None and self.shell_epsilon <= 0:
            raise ValidationError("shell_epsilon must be positive")
        if self.fekete_points < 16:
            raise ValidationError("fekete_points must be at least 16")

    def to_dict(self):
        return {"walk_count": self.walk_count, "shell_epsilon": self.shell_epsilon,
                "seed": self.seed, "fekete_points": self.fekete_points}


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


def _per_walk(n, values):
    """Mean and standard error of n per-walk values, run in blocks.

    The blocks are fixed by n alone: ceil(n / max(1000, n // 50)) of them,
    sizes differing by at most one. values(b, m) returns block b's m
    per-walk values, one row per walk and a column per quantity if it is
    2-D. Block moments are pooled as in Chan, Golub & LeVeque (1979), so no
    per-walk array outlives its block."""
    nb = math.ceil(n / max(1000, n // 50))
    sizes = np.full(nb, n // nb)
    sizes[: n - sizes.sum()] += 1
    means, m2 = [], 0.0
    for b, m in enumerate(sizes):
        x = np.asarray(values(b, int(m)), dtype=float)
        means.append(x.mean(axis=0))
        m2 = m2 + ((x - means[-1]) ** 2).sum(axis=0)
    means = np.array(means)
    mean = sizes / n @ means
    m2 = m2 + sizes @ (means - mean) ** 2
    return mean, np.sqrt(m2 / (n - 1) / n)


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


def _torsion_walks(body, pos, eps, rng):
    """Accumulated R^2/(2d) along walk-on-spheres paths until absorption."""
    d = body.dimension
    n = pos.shape[0]
    acc = np.zeros(n)
    idx = np.arange(n)
    pos = pos.copy()
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
        pos[idx] += r[:, None] * _unit_vectors(rng, idx.size, d)
    raise StuckWalkError("torsion walk exceeded step budget; shell_epsilon too small?")


def wos_torsion(body, cfg=None):
    """Torsional rigidity T(body) = |body| x mean of the walk accumulator."""
    cfg = cfg or EstimatorConfig()
    eps = _resolve_epsilon(cfg, body)
    vol = measure(body)

    def values(b, m):
        rng = _stream(cfg.seed, b, 0)
        return _torsion_walks(body, _sample_interior(body, m, rng), eps, rng)

    mean, se = _per_walk(cfg.walk_count, values)
    return Estimate(vol * float(mean), vol * float(se), cfg.walk_count, "wos_torsion")


def wos_torsion_pointwise(body, point, cfg=None):
    """Estimate of the torsion function u(point) (pointwise oracle)."""
    cfg = cfg or EstimatorConfig()
    eps = _resolve_epsilon(cfg, body)
    p = np.asarray(point, dtype=float)

    def values(b, m):
        return _torsion_walks(body, np.tile(p, (m, 1)), eps, _stream(cfg.seed, b, 0))

    mean, se = _per_walk(cfg.walk_count, values)
    return Estimate(float(mean), float(se), cfg.walk_count, "wos_torsion_pointwise")


_WEIGHT_FLOOR = 1e-6  # relative truncation bias, negligible vs Monte Carlo noise


def _capacity_hits(body, center, R, n, eps, rng):
    """Absorbed weight of each of n exterior walks launched from the R-sphere.

    The escape test is handled by expectation: instead of killing a walk at
    radius rho > R with the exact escape probability, its weight is
    multiplied by the survival probability (R/rho)^(d-2) and it re-enters
    uniformly on the R-sphere. This removes the kill/survive variance; the
    walk is dropped once its weight is below a floor."""
    d = body.dimension
    pos = center + R * _unit_vectors(rng, n, d)
    w = np.ones(n)
    hits = np.zeros(n)
    idx = np.arange(n)
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
        pos = pos + r[:, None] * _unit_vectors(rng, idx.size, d)
        rho = np.linalg.norm(pos - center, axis=1)
        far = rho > R
        if far.any():
            w[far] *= (R / rho[far]) ** (d - 2)
            pos[far] = center + R * _unit_vectors(rng, int(far.sum()), d)
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

    def values(b, m):
        cap_R, cap_2R = (kap * r ** (d - 2)
                         * _capacity_hits(body, center, r, m, eps, _stream(cfg.seed, b, 1 + k))
                         for k, r in enumerate((R, 2.0 * R)))
        return np.stack([(cap_2R - f * cap_R) / (1.0 - f), cap_R, cap_2R], axis=1)

    mean, se = _per_walk(cfg.walk_count, values)
    value, raw_R, raw_2R = (float(x) for x in mean)
    if raw_R == 0 and raw_2R == 0:
        raise DegenerateEstimateError("no capacity walk hit the body")
    return Estimate(value, float(se[0]), cfg.walk_count, "wos_capacity",
                    extra={"raw_R": raw_R, "raw_2R": raw_2R})


# ---------------------------------------------------------------------------
# Fekete points / transfinite diameter (logarithmic capacity, d = 2)
# ---------------------------------------------------------------------------

class _BoundaryChart:
    """Arc parameterization of a planar boundary: t in [0, period) -> R^2."""

    def __init__(self, body):
        if isinstance(body, Ball) and body.dimension == 2:
            body = Ellipsoid(np.full(2, body.radius), body.center)
        if isinstance(body, Ellipsoid) and body.dimension == 2:
            self.kind = "ellipse"
            self.a = body.semi_axes
            self.c = body.center
            self.period = 2.0 * math.pi
        elif isinstance(body, Polytope) and body.dimension == 2:
            self.kind = "polygon"
            V = body.vertices
            edges = np.roll(V, -1, axis=0) - V
            L = np.linalg.norm(edges, axis=1)
            self.V, self.edges = V, edges
            self.cum = np.concatenate([[0.0], np.cumsum(L)])
            self.period = float(self.cum[-1])
        elif isinstance(body, Capsule) and body.dimension == 2 and body.radius == 0.0:
            self.kind = "segment"
            self.p, self.q = body.p, body.q
            self.period = body.length
        else:
            raise UnsupportedRepresentationError(
                "fekete chart needs a planar ellipse, polygon or segment")
        self.cyclic = self.kind != "segment"

    def points(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "segment":
            s = np.clip(t / self.period, 0.0, 1.0)
            return self.p + s[:, None] * (self.q - self.p)
        t = np.mod(t, self.period)
        if self.kind == "ellipse":
            return self.c + np.stack([self.a[0] * np.cos(t), self.a[1] * np.sin(t)], axis=-1)
        i = np.clip(np.searchsorted(self.cum, t, side="right") - 1, 0, len(self.V) - 1)
        frac = (t - self.cum[i]) / np.maximum(self.cum[i + 1] - self.cum[i], 1e-300)
        return self.V[i] + frac[:, None] * self.edges[i]

    def initial(self, n):
        if self.kind == "segment":
            # Chebyshev-node start (near-extremal for an interval)
            th = np.arange(n) * math.pi / (n - 1)
            return (1.0 - np.cos(th)) * 0.5 * self.period
        return self.period * np.arange(n) / n


def _fekete_ascent(chart, n, max_sweeps=25, tol=1e-5):
    """Cyclic coordinate ascent of sum log |x_i - x_j| along the boundary."""
    t = chart.initial(n).copy()
    X = chart.points(t)
    L = chart.period
    window = 1.2 * L / n

    def gain(i, ti):
        p = chart.points(np.array([ti]))[0]
        dd = np.linalg.norm(X - p, axis=1)
        dd[i] = 1.0
        dd = np.maximum(dd, 1e-300)
        return -np.log(dd).sum()

    converged = False
    for _ in range(max_sweeps):
        improved = 0.0
        for i in range(n):
            lo, hi = t[i] - window, t[i] + window
            if not chart.cyclic:
                lo, hi = max(lo, 0.0), min(hi, L)
            res = minimize_scalar(lambda ti: gain(i, ti), bounds=(lo, hi),
                                  method="bounded",
                                  options={"xatol": 1e-11 * L})
            cur = gain(i, t[i])
            if res.fun < cur:
                improved += cur - res.fun
                t[i] = np.mod(res.x, L) if chart.cyclic else res.x
                X[i] = chart.points(np.array([t[i]]))[0]
        # pair-energy stagnation; the cyclic charts have a rotational flat
        # direction, so point movement alone never settles
        if improved < tol * n:
            converged = True
            break
    D = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=-1)
    iu = np.triu_indices(n, k=1)
    diam_n = math.exp(2.0 / (n * (n - 1)) * float(np.log(D[iu]).sum()))
    return diam_n, converged


def fekete_logcap(body, cfg=None):
    """Logarithmic capacity via Fekete-point transfinite diameters at n and
    2n boundary points (n = cfg.fekete_points), extrapolated linearly in 1/n."""
    cfg = cfg or EstimatorConfig()
    n = cfg.fekete_points
    chart = _BoundaryChart(body)
    v_n, ok_n = _fekete_ascent(chart, n)
    v_2n, ok_2n = _fekete_ascent(chart, 2 * n)
    value = 2.0 * v_2n - v_n
    return Estimate(value, abs(v_n - v_2n), 2 * n, "fekete",
                    extra={"raw_n": v_n, "raw_2n": v_2n,
                           "converged": bool(ok_n and ok_2n)})
