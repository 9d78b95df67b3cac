import math

import numpy as np
import pytest

from shapefn import exact_ellipsoid as ex
from shapefn import geometry as geo
from shapefn import search
from shapefn.errors import DegenerateEstimateError, ValidationError
from shapefn.estimators import EstimatorConfig
from shapefn.functionals import FunctionalId, evaluate
from shapefn.geometry import Ball, BallUnion, Capsule, Ellipsoid, Polytope
from shapefn.search import (
    Family,
    SlabBody,
    build_ball_union,
    counterexample_sequence,
    maximize,
    maximize_constrained,
    slab_fraction_inverse,
    slab_volume_fraction,
)


# ---------------------------------------------------------------------------
# slab geometry
# ---------------------------------------------------------------------------

def test_slab_volume_fraction_basics():
    assert slab_volume_fraction(3, 1.0) == 1.0
    assert slab_volume_fraction(3, 0.5) == pytest.approx(11.0 / 16.0, rel=1e-12)
    # d = 3 closed form: (3 h - h^3)/2
    for h in (0.1, 0.3, 0.8):
        assert slab_volume_fraction(3, h) == pytest.approx(
            (3 * h - h ** 3) / 2, rel=1e-12)


def test_slab_fraction_inverse_roundtrip():
    for d in (2, 3, 4, 6):
        for frac in (0.3, 0.7, 0.95):
            h = slab_fraction_inverse(d, frac)
            assert slab_volume_fraction(d, h) == pytest.approx(frac, abs=1e-10)
    assert slab_fraction_inverse(3, 1.0) == 1.0


def test_slab_body_validation():
    with pytest.raises(ValidationError):
        SlabBody([1.0, 1.0, 1.0], 0.0)
    with pytest.raises(ValidationError):
        SlabBody([1.0, -1.0, 1.0], 0.5)


def test_slab_body_measure():
    b = SlabBody([1.0, 1.0, 1.0], 0.5)
    assert b.measure() == pytest.approx(4 * math.pi / 3 * 11.0 / 16.0, rel=1e-12)


def test_slab_body_distance_contract():
    b = SlabBody([2.0, 1.0, 1.0], 0.6)
    rng = np.random.default_rng(0)
    P = rng.normal(size=(2000, 3)) * 1.5
    sd = b.signed_distance(P)
    lb = b.distance_lower(P)
    assert np.all(lb <= np.abs(sd) + 1e-9)
    assert np.all(lb >= 0)
    # sign agreement with membership
    inside = (np.sum((P / b.axes) ** 2, axis=1) < 1) & (np.abs(P[:, 2]) < 0.6)
    assert np.array_equal(sd < 0, inside)


def near_cut_edge(b, rng, n, lo):
    """n points of the cut edge (on the ellipsoid, |x_d| = h a_d) moved by
    10^U(lo, -0.5), then n points around the body."""
    d = b.dimension
    edge = rng.standard_normal((n, d))
    edge[:, :-1] *= math.sqrt(1.0 - b.h ** 2) / np.linalg.norm(edge[:, :-1] / b.axes[:-1],
                                                              axis=1, keepdims=True)
    edge[:, -1] = np.sign(edge[:, -1]) * b.h * b.axes[-1]
    v = rng.standard_normal((n, d))
    v *= 10.0 ** rng.uniform(lo, -0.5, (n, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
    return np.concatenate([edge + v, rng.normal(size=(n, d)) * b.axes])


def test_elongated_slab_distance_lower_is_valid_near_the_cut_edge():
    b = SlabBody([2.4, 1.0, 0.5, 0.35], 0.3)
    P = near_cut_edge(b, np.random.default_rng(7), 3000, -6.0)
    sd = b.signed_distance(P)
    lb = b.distance_lower(P)
    assert 1000 < np.sum(sd < 0) < 5000
    assert np.all(lb >= 0) and np.all(lb <= np.abs(sd) * (1 + 1e-13))
    # near the end of the long axis the bound is close to the distance
    tip = np.array([[2.4 - 1e-3, 0.0, 0.0, 0.0]])
    assert b.distance_lower(tip)[0] >= 0.9 * abs(b.signed_distance(tip)[0])


@pytest.mark.parametrize("axes, h", [([2.4, 1.0, 0.5, 0.35], 0.3), ([1.2, 1.0, 0.9], 0.6),
                                     ([0.3, 1.0, 2.0, 0.7, 1.5], 0.9)])
def test_slab_distance_upper_is_valid(axes, h):
    # near the cut edge, near the ellipsoid shell on both sides, and around
    # the body: never below the exact kernel's value (the bound carries its
    # rounding allowance of 8 ulp x (|p| + inradius))
    b = SlabBody(axes, h)
    rng = np.random.default_rng(8)
    u = rng.standard_normal((4000, b.dimension))
    shell = u / np.linalg.norm(u / b.axes, axis=1, keepdims=True)
    shell[:, -1] = np.clip(shell[:, -1], -h * b.axes[-1], h * b.axes[-1])
    normal = shell / b.axes ** 2
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    off = rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-12.0, -1.0, 4000)
    P = np.concatenate([near_cut_edge(b, rng, 4000, -12.0), shell + off[:, None] * normal])
    up = b.distance_upper(P)
    sd = np.abs(b.signed_distance(P))
    assert np.all(up >= sd)
    # inside, the cut plane and the ellipsoid's normal line keep it close
    inner = b.signed_distance(P) < -1e-9
    assert np.median(up[inner] / sd[inner]) < 1.001


def test_slab_body_dispatch_through_geometry():
    b = SlabBody([1.0, 1.0, 1.0], 0.7)
    c, R = b.bounding_ball()
    assert R == 1.0 and np.allclose(c, 0)
    lo, hi = b.bounding_box()
    assert np.allclose(hi, [1.0, 1.0, 0.7])
    diam, r = geo.diameter_inradius(b)
    assert r == pytest.approx(0.7)
    assert diam <= 2.0 + 1e-12


def test_slab_g_between_cut_and_ball():
    # a barely-cut ball should have G close to but below the ball value
    cfg = EstimatorConfig(walk_count=4000, seed=3)
    ev = evaluate(FunctionalId("G"), SlabBody([1.0, 1.0, 1.0], 0.9), cfg)
    assert 0.1 < ev.value < 0.2 + 3 * ev.stderr + 0.01


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def test_family_validation():
    with pytest.raises(ValidationError):
        Family("weird", 3)
    with pytest.raises(ValidationError):
        Family("boxes", 4)
    with pytest.raises(ValidationError):
        Family("ellipsoid_slab", 3)  # missing epsilon
    with pytest.raises(ValidationError):
        Family("ellipsoids", 3, epsilon=0.1)  # spurious epsilon
    for epsilon in (math.nan, math.inf, -0.1):
        with pytest.raises(ValidationError):
            Family("ellipsoid_slab", 3, epsilon)


def test_family_param_counts_and_bodies():
    assert Family("ellipsoids", 4).n_params == 3
    assert Family("boxes", 3).n_params == 2
    assert Family("capsules", 3).n_params == 1
    assert Family("ellipsoid_slab", 3, 0.1).n_params == 3

    e = Family("ellipsoids", 3).to_body([0.0, 0.0])
    assert isinstance(e, Ellipsoid) and np.allclose(e.semi_axes, 1.0)
    b = Family("boxes", 2).to_body([math.log(2.0)])
    assert isinstance(b, Polytope)
    c = Family("capsules", 3).to_body([0.0])
    assert isinstance(c, Capsule) and c.length == pytest.approx(2.0)


def test_family_theta_clip_keeps_map_total():
    body = Family("ellipsoids", 3).to_body([50.0, -50.0])
    assert np.all(np.isfinite(body.semi_axes))
    assert body.semi_axes.max() <= math.exp(10.0) * (1 + 1e-12)


def test_slab_family_projection():
    fam = Family("ellipsoid_slab", 3, epsilon=0.1)
    # a large logistic parameter gives a barely-cut body (h near 1)
    shallow = fam.to_body([0.0, 0.0, 40.0])
    assert isinstance(shallow, SlabBody) and shallow.h > 0.999
    # epsilon = 0 pins h to 1: the family degenerates to plain ellipsoids
    assert isinstance(Family("ellipsoid_slab", 3, epsilon=0.0)
                      .to_body([0.0, 0.0, -40.0]), Ellipsoid)
    # a very negative parameter is projected up to the feasibility threshold
    body = fam.to_body([0.0, 0.0, -40.0])
    assert isinstance(body, SlabBody)
    vol_ratio = body.ellipsoid.measure() / body.measure()
    assert vol_ratio == pytest.approx(1.1, rel=1e-6)


def test_slab_family_planar_is_polygon():
    fam = Family("ellipsoid_slab", 2, epsilon=0.2)
    body = fam.to_body([0.0, -40.0])
    assert isinstance(body, Polytope)


@pytest.mark.parametrize("h, log_a1", [(0.3, -0.5), (0.6, 0.0), (0.9, 0.7)])
def test_slab_family_planar_vertices_are_the_arc_samples(h, log_a1):
    logit = math.log(h / (1.0 - h))
    body = Family("ellipsoid_slab", 2, 0.1).to_body([log_a1, logit])
    assert isinstance(body, Polytope)
    # the cut height as Family.to_body forms it: the logistic of the last
    # parameter, projected up to the volume threshold
    h = max(1.0 / (1.0 + math.exp(-logit)), search.slab_fraction_inverse(2, 1.0 / 1.1))
    phi = math.asin(h)
    t = np.linspace(-phi, phi, 128)
    arcs = np.concatenate([t, math.pi - t[::-1]])
    samples = np.stack([math.exp(log_a1) * np.cos(arcs), np.sin(arcs)], axis=-1)
    V = body.vertices
    assert V.shape == (256, 2)
    assert sorted(map(tuple, V)) == sorted(map(tuple, samples))
    # counterclockwise and convex: every turn is to the left
    e = np.roll(V, -1, axis=0) - V
    f = np.roll(e, -1, axis=0)
    assert np.all(e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0] > 0.0)


# ---------------------------------------------------------------------------
# maximization
# ---------------------------------------------------------------------------

def test_maximize_g_over_ellipsoids_finds_ball():
    res = maximize(FunctionalId("G"), Family("ellipsoids", 3), restarts=5,
                   seed=0)
    assert res.best_value == pytest.approx(0.2, abs=1e-8)
    assert np.allclose(np.exp(res.best_params), 1.0, atol=1e-3)
    # trace is the running best: non-decreasing
    assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))
    assert res.converged


def test_maximize_h_over_ellipses_finds_disk():
    res = maximize(FunctionalId("H"), Family("ellipsoids", 2), restarts=5,
                   seed=1)
    assert res.best_value == pytest.approx(ex.H_BALL, rel=1e-7)


def test_maximize_dimension_gate():
    with pytest.raises(ValidationError):
        maximize(FunctionalId("H"), Family("ellipsoids", 3))


def test_maximize_constrained_epsilon_zero_returns_ellipsoid():
    # epsilon = 0 forces the uncut family: supremum at the ball
    res = maximize_constrained(FunctionalId("G"), 4, 0.0, restarts=3, seed=0,
                               max_evals=300)
    assert isinstance(res.best_body, Ellipsoid)
    assert res.best_value == pytest.approx(ex.g_ball(4), abs=1e-6)
    assert res.extra["diam_over_inradius"] <= res.extra["ratio_bound"]


def test_maximize_constrained_rejects_bad_epsilon():
    with pytest.raises(ValidationError):
        maximize_constrained(FunctionalId("G"), 4, 0.3)  # above critical
    with pytest.raises(ValidationError):
        maximize_constrained(FunctionalId("G"), 3, 0.0)  # d = 3 unsupported


def test_maximize_evaluates_each_body_once(monkeypatch):
    # every evaluation is one Nelder-Mead objective call: the best body is
    # not evaluated again, and the result holds the objective's own evaluation
    evals, nfev = [], []
    nelder_mead = search.minimize

    def counted_evaluate(f, body, cfg=None):
        evals.append(evaluate(f, body, cfg))
        return evals[-1]

    def counted_minimize(*args, **kwargs):
        res = nelder_mead(*args, **kwargs)
        nfev.append(res.nfev)
        return res

    monkeypatch.setattr(search, "evaluate", counted_evaluate)
    monkeypatch.setattr(search, "minimize", counted_minimize)
    res = maximize(FunctionalId("G"), Family("ellipsoids", 3), restarts=2, seed=0, max_evals=60)
    assert len(nfev) == 2 and len(evals) == sum(nfev)
    assert any(ev is res.best_eval for ev in evals)
    assert res.best_value == res.best_eval.value == max(ev.value for ev in evals)
    assert res.trace[-1] == res.best_value


def test_constrained_search_evaluation_repeats_bit_for_bit():
    # common random numbers: evaluating the returned body again gives the
    # value the search kept, to the bit
    f, cfg = FunctionalId("G"), EstimatorConfig(walk_count=1000, seed=0)
    res = maximize_constrained(f, 4, 0.05, cfg, restarts=1, seed=0, max_evals=4)
    assert isinstance(res.best_body, SlabBody)
    assert evaluate(f, res.best_body, cfg).value == res.best_value == res.best_eval.value
    again = Family("ellipsoid_slab", 4, 0.05).to_body(res.best_params)
    assert np.array_equal(again.axes, res.best_body.axes) and again.h == res.best_body.h


def test_search_whose_every_evaluation_raises_raises_that_error(monkeypatch):
    def failing(f, body, cfg=None):
        raise DegenerateEstimateError("no capacity walk hit the body")

    monkeypatch.setattr(search, "evaluate", failing)
    with pytest.raises(DegenerateEstimateError, match="no capacity walk"):
        maximize(FunctionalId("G"), Family("ellipsoids", 3), restarts=2, seed=0, max_evals=20)


def test_search_result_to_dict():
    res = maximize(FunctionalId("G"), Family("ellipsoids", 3), restarts=2,
                   seed=0, max_evals=300)
    doc = res.to_dict()
    assert doc["best_value"] == res.best_value
    assert len(doc["trace"]) == 2


# ---------------------------------------------------------------------------
# divergent union-of-balls sequence
# ---------------------------------------------------------------------------

def test_counterexample_k1_is_exact_ball():
    rows = counterexample_sequence(3, 0.9, [1])
    r = rows[0]
    assert r.g.lower == pytest.approx(0.2, rel=1e-12)
    assert r.g.upper == pytest.approx(0.2, rel=1e-12)
    assert r.volume == pytest.approx(4 * math.pi / 3, rel=1e-12)
    assert r.cap.lower == r.cap.upper == pytest.approx(4 * math.pi, rel=1e-12)


def test_counterexample_monotone_divergence():
    ks = [2 ** i for i in range(0, 13)]
    rows = counterexample_sequence(3, 0.5, ks)
    lowers = [r.g.lower for r in rows]
    assert all(b > a for a, b in zip(lowers, lowers[1:]))
    # G interval is certified: lower <= upper, relative gap at most
    # delta = (k-1)/(S-1)^(d-2) and shrinking as the separation grows
    gaps = [(r.g.upper - r.g.lower) / r.g.upper for r in rows]
    assert all(0 <= g < 0.1 for g in gaps)
    assert all(b < a for a, b in zip(gaps[1:], gaps[2:]))
    # asymptotic log-log slope 1 - beta (d-2) = 0.5 for d=3, beta=0.5:
    # only the capacity sum diverges, like k^(1/2)
    slope = (math.log(lowers[-1]) - math.log(lowers[-5])) / (
        math.log(ks[-1]) - math.log(ks[-5]))
    assert slope == pytest.approx(0.5, abs=0.05)


def test_counterexample_beta_validation():
    with pytest.raises(ValidationError):
        counterexample_sequence(3, 0.2, [1])  # beta <= 1/d
    with pytest.raises(ValidationError):
        counterexample_sequence(3, 1.1, [1])  # beta >= 1/(d-2)
    with pytest.raises(ValidationError):
        counterexample_sequence(2, 0.9, [1])


def test_counterexample_row_dict():
    row = counterexample_sequence(3, 0.9, [4])[0]
    doc = row.to_dict()
    assert doc["k"] == 4
    assert doc["G_lower"] <= doc["G_upper"]
    assert set(doc) == {"k", "G_lower", "G_upper", "volume", "torsion",
                        "cap_lower", "cap_upper", "separation"}


def test_build_ball_union_matches_sequence_terms():
    k, beta = 5, 0.9
    u = build_ball_union(3, beta, k)
    assert isinstance(u, BallUnion)
    assert u.radii == pytest.approx(np.arange(1.0, 6.0) ** -beta)
    row = counterexample_sequence(3, beta, [k])[0]
    assert u.measure() == pytest.approx(row.volume, rel=1e-12)
    # centers spaced by the separation used in the certificate
    assert np.diff(u.centers[:, 0]) == pytest.approx(row.separation)


def test_build_ball_union_walks_estimate_inside_interval():
    # stochastic torsion on the k=2 union agrees with the exact sum
    u = build_ball_union(3, 0.9, 2)
    from shapefn.estimators import wos_torsion
    e = wos_torsion(u, EstimatorConfig(walk_count=5000, seed=0))
    row = counterexample_sequence(3, 0.9, [2])[0]
    assert abs(e.value - row.torsion) < max(4 * e.standard_error,
                                            0.05 * row.torsion)
