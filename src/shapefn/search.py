"""Derivative-free maximization of the shape functionals over parametric
families, the volume-constrained slab-cut family, and the divergent
union-of-balls sequence with G brackets."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq, minimize

from . import exact_ellipsoid as exact
from . import geometry
from .bounds import critical_epsilon, ratio_bound
from .errors import InternalConsistencyError, ShapeFnError, ValidationError
from .functionals import Estimate, Evaluation, FunctionalId, _exact, assemble, evaluate
from .geometry import (BallUnion, Capsule, Ellipsoid, Polytope, SlabBody,
                       slab_volume_fraction)

_THETA_CLIP = 10.0  # log-axis range; keeps the parameter-to-body map total


def slab_fraction_inverse(d, frac):
    """Smallest h with slab_volume_fraction(d, h) >= frac."""
    if frac >= 1.0:
        return 1.0
    return float(brentq(lambda h: slab_volume_fraction(d, h) - frac,
                        1e-12, 1.0, xtol=1e-13))


def _cut_ellipse_polygon(axes, h):
    """Planar ellipse cut by |y| <= h a_2, as the hull of 256 boundary samples."""
    phi = math.asin(min(h, 1.0))
    t = np.linspace(-phi, phi, 128)
    arcs = np.concatenate([t, math.pi - t[::-1]])
    pts = np.stack([axes[0] * np.cos(arcs), axes[1] * np.sin(arcs)], axis=-1)
    return Polytope(pts)


@dataclass(frozen=True)
class Family:
    """Parametric shape family over log semi-axes (last pinned to 0)."""

    kind: str  # ellipsoids | boxes | capsules | ellipsoid_slab
    dim: int
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind not in ("ellipsoids", "boxes", "capsules", "ellipsoid_slab"):
            raise ValidationError(f"unknown family {self.kind!r}")
        if self.dim < 2:
            raise ValidationError("need dim >= 2")
        if self.kind == "boxes" and self.dim > 3:
            raise ValidationError("box family supports dim <= 3")
        if self.kind == "ellipsoid_slab":
            if self.epsilon is None or not 0 <= self.epsilon < math.inf:
                raise ValidationError("ellipsoid_slab needs a finite epsilon >= 0")
        elif self.epsilon is not None:
            raise ValidationError(f"{self.kind} takes no epsilon")

    @property
    def n_params(self):
        if self.kind == "capsules":
            return 1
        if self.kind == "ellipsoid_slab":
            return self.dim  # d-1 log axes + slab parameter
        return self.dim - 1

    def to_body(self, theta):
        theta = np.clip(np.asarray(theta, dtype=float), -_THETA_CLIP, _THETA_CLIP)
        if theta.size != self.n_params:
            raise ValidationError("parameter count mismatch")
        d = self.dim
        if self.kind == "ellipsoids":
            return Ellipsoid(np.exp(np.r_[theta, 0.0]))
        if self.kind == "boxes":
            half = np.exp(np.r_[theta, 0.0])
            corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * d)).reshape(d, -1).T
            return Polytope(corners * half)
        if self.kind == "capsules":
            L = 2.0 * math.exp(theta[0])
            p = np.zeros(d)
            q = np.zeros(d)
            p[0], q[0] = -0.5 * L, 0.5 * L
            return Capsule(p, q, 1.0)
        # ellipsoid_slab: slab fraction via a logistic parameter, projected
        # up to the feasibility threshold |E|/|body| <= 1 + epsilon
        axes = np.exp(np.r_[theta[:-1], 0.0])
        h_raw = 1.0 / (1.0 + math.exp(-theta[-1]))
        h_min = slab_fraction_inverse(d, 1.0 / (1.0 + self.epsilon))
        h = max(h_raw, h_min)
        if h >= 1.0 - 1e-12:
            return Ellipsoid(axes)
        if d == 2:
            return _cut_ellipse_polygon(axes, h)
        return SlabBody(axes, h)


@dataclass(frozen=True)
class SearchResult:
    best_params: np.ndarray
    best_body: object
    best_value: float
    best_eval: object
    trace: tuple
    converged: bool
    extra: dict = field(default_factory=dict)

    def to_dict(self):
        return {"best_params": list(map(float, self.best_params)),
                "best_value": self.best_value,
                "best_eval": self.best_eval.to_dict(),
                "trace": list(self.trace),
                "converged": self.converged,
                "extra": self.extra}


def maximize(f, family, cfg=None, restarts=20, seed=0, max_evals=4000):
    """Nelder-Mead maximization over the family's reduced parameter space.

    Stochastic backends are evaluated under common random numbers (the
    config seed is fixed across the simplex), so the landscape is
    deterministic within one search. The result holds the search's own
    evaluation of the best body it evaluated, which the trace records after
    each restart; if none succeeded, the last ShapeFnError is raised."""
    if restarts < 1:
        raise ValidationError("restarts must be at least 1")
    if not f.dimension_ok(family.dim):
        raise ValidationError(f"{f.name} undefined in dimension {family.dim}")
    best = [-math.inf, None, None, None]  # value, theta, body, evaluation
    error = None

    def neg(theta):
        nonlocal error
        try:
            body = family.to_body(theta)
            ev = evaluate(f, body, cfg)
        except ShapeFnError as e:
            error = e
            return 1e9
        if ev.value > best[0]:
            best[:] = ev.value, np.array(theta, dtype=float), body, ev  # a copy: NM reuses arrays
        return -ev.value

    rng = np.random.default_rng(seed)
    trace, converged = [], False
    for _ in range(restarts):
        x0 = rng.uniform(-0.7, 0.7, family.n_params)
        res = minimize(neg, x0, method="Nelder-Mead",
                       options={"xatol": 1e-7, "fatol": 1e-14,
                                "maxfev": max_evals, "maxiter": max_evals})
        converged = converged or bool(res.success)
        trace.append(best[0])
    value, theta, body, ev = best
    if ev is None:
        raise error
    return SearchResult(theta, body, value, ev, tuple(trace), converged)


def maximize_constrained(f, d, epsilon, cfg=None, restarts=8, seed=0,
                         max_evals=200):
    """Lower bound for the volume-constrained supremum via the slab-cut
    ellipsoid family; the diameter/inradius bound of the constrained
    problem is asserted on the result."""
    critical = critical_epsilon(d)
    if epsilon >= critical:
        raise ValidationError(
            f"epsilon {epsilon} is at or above the critical value {critical}")
    bound = ratio_bound(d, epsilon)
    family = Family("ellipsoid_slab", d, epsilon)
    result = maximize(f, family, cfg, restarts=restarts, seed=seed,
                      max_evals=max_evals)
    diam, r = geometry.diameter_inradius(result.best_body)
    if diam / r > bound * (1.0 + 1e-9):
        raise InternalConsistencyError(
            f"best body has diam/r = {diam / r}, above the bound {bound}")
    return replace(result, extra=dict(result.extra, epsilon=epsilon,
                                      diam_over_inradius=diam / r,
                                      ratio_bound=bound))


# ---------------------------------------------------------------------------
# divergent union-of-balls sequence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterexampleRow:
    k: int
    g: Evaluation  # G of the union, from its exact T and V and its capacity bracket
    separation: float

    def to_dict(self):
        c = self.g.components
        return {"k": self.k, "G_lower": self.g.bracket[0], "G_upper": self.g.bracket[1],
                "volume": c["V"].value, "torsion": c["T"].value, "cap_lower": c["cap"].ends[0],
                "cap_upper": c["cap"].ends[1], "separation": self.separation}


def _validate_beta(d, beta):
    if d < 3:
        raise ValidationError("need d >= 3")
    if not (1.0 / d < beta < 1.0 / (d - 2.0)):
        raise ValidationError(
            f"beta must lie in (1/{d}, 1/{d - 2}) exclusive")


def counterexample_sequence(d, beta, k_list):
    """G brackets for unions of k disjoint balls with radii j^-beta placed
    on a line with center spacing S = k^3 sum(radii). Volume and torsion
    are exact sums. Capacity lies between its value, the subadditive bound,
    and that over 1 + delta, a trial-measure bound with the interaction
    defect delta = (k-1) (1/(S-1))^{d-2}. This bracket is certified, but its
    float64 evaluation is not rounded outward: an end may be off by ulps."""
    _validate_beta(d, beta)
    ks = sorted({int(k) for k in k_list})
    if ks[0] < 1:
        raise ValidationError("k must be >= 1")
    om, tau, kap = exact.omega_d(d), exact.tau_d(d), exact.kappa_d(d)

    rows = []
    s_vol = s_tor = s_cap = s_rad = 0.0
    prev = 0
    for k in ks:
        j = np.arange(prev + 1, k + 1, dtype=float)
        s_vol += float(np.sum(j ** (-beta * d)))
        s_tor += float(np.sum(j ** (-beta * (d + 2))))
        s_cap += float(np.sum(j ** (-beta * (d - 2))))
        s_rad += float(np.sum(j ** -beta))
        prev = k
        S = k ** 3 * s_rad
        delta = 0.0 if k == 1 else (k - 1) * (1.0 / (S - 1.0)) ** (d - 2)
        if delta >= 1.0:
            raise ValidationError("separation too small to certify capacity")
        cap = kap * s_cap
        comp = {"T": _exact(tau * s_tor), "V": _exact(om * s_vol),
                "cap": Estimate(cap, 0.0, "bracket", ends=(cap / (1.0 + delta), cap))}
        rows.append(CounterexampleRow(k, assemble(FunctionalId("G"), comp, d), S))
    return rows


def build_ball_union(d, beta, k):
    """The k-th union in the divergent sequence as an explicit body."""
    _validate_beta(d, beta)
    radii = np.arange(1, k + 1, dtype=float) ** -beta
    S = k ** 3 * float(radii.sum())
    centers = np.zeros((k, d))
    centers[:, 0] = S * np.arange(k)
    return BallUnion(centers, radii)
