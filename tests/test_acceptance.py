"""Acceptance gate: ten end-to-end criteria, each printing one PASS/FAIL
line with its runtime. Tolerances and budgets are part of the contract."""

import contextlib
import math
import time

import numpy as np
import pytest
from scipy.special import ellipe, elliprf

from shapefn import bounds, exact_ellipsoid as ex, geometry as geo, search
from shapefn.estimators import EstimatorConfig, fekete_logcap, wos_capacity, wos_torsion
from shapefn.functionals import FunctionalId, evaluate
from shapefn.geometry import Ball, Capsule, Ellipsoid, Polytope
from shapefn.search import Family, counterexample_sequence, maximize, maximize_constrained

from helpers import cube_vertices


@contextlib.contextmanager
def criterion(num, title, budget):
    t0 = time.time()
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {num:2d} FAIL: {title}")
        raise
    elapsed = time.time() - t0
    if elapsed > budget:
        print(f"[acceptance] criterion {num:2d} FAIL "
              f"(runtime {elapsed:.1f}s over the {budget}s budget): {title}")
        raise AssertionError(f"criterion {num} exceeded its runtime budget")
    print(f"[acceptance] criterion {num:2d} PASS ({elapsed:.1f}s): {title}")


# ---------------------------------------------------------------------------

def test_criterion_01_exact_golden_values():
    with criterion(1, "exact-backend golden values, d = 3..8", 1.0):
        for d in range(3, 9):
            ones = np.ones(d)
            assert ex.cap_newtonian_ellipsoid(ones) == pytest.approx(
                ex.kappa_d(d), rel=1e-9)
            assert ex.torsion_ellipsoid(ones) == pytest.approx(
                ex.tau_d(d), rel=1e-12)
            # G on the unit ball, direct quadrature cross-checked against
            # the torsion * capacity / volume^2 assembly inside
            assert ex.g_ellipsoid_direct(ones) == pytest.approx(
                (d - 2.0) / (d + 2.0), rel=1e-12)


def test_criterion_02_prolate_cross_check():
    with criterion(2, "prolate spheroid capacity vs analytic value", 1.0):
        c = math.sqrt(3.0)
        analytic = 8.0 * math.pi * c / math.log((2.0 + c) / (2.0 - c))
        assert ex.cap_newtonian_ellipsoid([2.0, 1.0, 1.0]) == pytest.approx(
            analytic, rel=1e-9)
        assert analytic == pytest.approx(16.5271740437828, rel=1e-12)


def test_criterion_03_optimizer_reproduction():
    with criterion(3, "Nelder-Mead recovers the ball on 12 functional/"
                      "dimension configurations", 30.0):
        configs = []
        for d in (3, 4, 5):
            configs.append((FunctionalId("G"), d))
            for alpha in (0.0, 1.0):
                configs.append((FunctionalId("G_alpha", alpha), d))
        configs.append((FunctionalId("H"), 2))
        for alpha in (0.0, 1.0):
            configs.append((FunctionalId("H_alpha", alpha), 2))
        assert len(configs) == 12
        for f, d in configs:
            res = maximize(f, Family("ellipsoids", d), restarts=20, seed=0)
            axes = np.exp(np.r_[res.best_params, 0.0])
            assert axes.max() / axes.min() - 1.0 < 1e-4, (f.name, d, axes)
            assert res.best_value == pytest.approx(f.ball_value(d), rel=1e-8), \
                (f.name, d)


def test_criterion_04_random_ellipsoid_property_suite():
    with criterion(4, "10^4 random ellipsoids per dimension: zero "
                      "inequality violations at 1e-10", 60.0):
        rng = np.random.default_rng(2024)
        n = 10_000
        tol = 1e-10

        # d >= 3: supremum, intermediate axis-ratio bound, eccentricity bound
        for d in (3, 4, 5, 6):
            A = rng.uniform(0.2, 5.0, size=(n, d))
            gb = ex.g_ball(d)
            if d == 3:
                e = 2.0 * elliprf(A[:, 0] ** 2, A[:, 1] ** 2, A[:, 2] ** 2)
            else:
                e = np.array([ex.carlson_integral(a) for a in A])
            cap = ex.kappa_d(d) / (d / 2.0 - 1.0) / e
            tor = (ex.omega_d(d) / (d + 2.0) * np.prod(A, axis=1)
                   / np.sum(A ** -2.0, axis=1))
            vol = ex.omega_d(d) * np.prod(A, axis=1)
            g = tor * cap / vol ** 2
            assert np.all(g <= gb * (1.0 + tol)), f"e32 violated at d={d}"

            b = -np.sort(-A, axis=1)
            denom = np.log1p((b[:, d - 3] / b[:, d - 1]) ** 2)
            rhs26 = 2.0 ** (d / 2.0) * d ** (2.0 * d + 1.0) / (d - 2.0) * gb / denom
            assert np.all(g <= rhs26 * (1.0 + tol)), f"e26 violated at d={d}"

            if d >= 4:
                C = np.sum((b[:, :1] / b[:, 1:]) ** 2, axis=1) / (d - 1.0)
                rhs33 = (gb * d * (d - 3.0) / ((d - 1.0) * (d - 2.0))
                         / (1.0 - 1.0 / (1.0 + np.sqrt(C))))
                assert np.all(g <= rhs33 * (1.0 + tol)), f"e33 violated at d={d}"

        # d = 2: closed-form H, its sharp bound, and the H_alpha constants
        B = rng.uniform(0.2, 5.0, size=(n, 2))
        b1, b2 = np.max(B, axis=1), np.min(B, axis=1)
        h_formula = (b1 + b2) / (4.0 * math.pi * np.sqrt(b1 ** 2 + b2 ** 2))
        tor2 = math.pi * (b1 * b2) ** 3 / (4.0 * (b1 ** 2 + b2 ** 2))
        h_assembled = np.sqrt(tor2) * (b1 + b2) / 2.0 / (math.pi * b1 * b2) ** 1.5
        assert np.all(np.abs(h_assembled - h_formula) <= tol * h_formula), \
            "e67 formula violated"
        assert np.all(h_formula <= ex.H_BALL * (1.0 + tol)), "e67 bound violated"

        P = 4.0 * b1 * ellipe(1.0 - (b2 / b1) ** 2)
        V = math.pi * b1 * b2
        for alpha in (0.0, 1.0):
            ha = np.sqrt(tor2) * (b1 + b2) / 2.0 / (V ** alpha * P ** (3.0 - 2.0 * alpha))
            rhs93 = (2.0 ** (2.0 * alpha) * math.pi ** (3.0 - 2.0 * alpha)
                     * ex.h_alpha_ball(alpha))
            assert np.all(ha <= rhs93 * (1.0 + tol)), f"e93 violated at alpha={alpha}"
            # the e95 constant of the ledger row matches its closed form
            rows = bounds.check_dimension_constants(2, alphas=(alpha,))
            e95 = next(r for r in rows if r.inequality == "e95")
            assert e95.lhs == pytest.approx(
                2.0 ** ((3.0 + 2.0 * alpha) / (3.0 - 2.0 * alpha)) * math.pi ** 2,
                rel=1e-12)


def test_criterion_05_stochastic_calibration():
    with criterion(5, "WoS torsion/capacity on the unit ball: 2% accuracy "
                      "at 1e5 walks, 3-s.e. coverage over 100 seeds", 300.0):
        ball = Ball(1.0, np.zeros(3))
        tor_exact = 4.0 * math.pi / 45.0
        cap_exact = 4.0 * math.pi

        cfg = EstimatorConfig(walk_count=100_000, seed=0)
        t = wos_torsion(ball, cfg)
        c = wos_capacity(ball, cfg)
        assert abs(t.value - tor_exact) <= 0.02 * tor_exact
        assert abs(c.value - cap_exact) <= 0.02 * cap_exact

        hits_t = hits_c = 0
        for seed in range(100):
            cfg_s = EstimatorConfig(walk_count=10_000, seed=seed)
            t = wos_torsion(ball, cfg_s)
            c = wos_capacity(ball, cfg_s)
            hits_t += abs(t.value - tor_exact) <= 3.0 * t.standard_error
            hits_c += abs(c.value - cap_exact) <= 3.0 * c.standard_error
        assert hits_t >= 95, f"torsion coverage {hits_t}/100"
        assert hits_c >= 95, f"capacity coverage {hits_c}/100"


def test_criterion_06_fekete_logcap():
    with criterion(6, "Symm logarithmic capacity: disk, ellipse, segment",
                   60.0):
        assert fekete_logcap(Ball(1.0, np.zeros(2))).value == pytest.approx(
            1.0, rel=1e-6)
        assert fekete_logcap(Ellipsoid(np.array([2.0, 1.0]))).value == \
            pytest.approx(1.5, rel=1e-6)
        seg = Capsule(np.array([0.0, 0.0]), np.array([4.0, 0.0]), 0.0)
        assert fekete_logcap(seg).value == pytest.approx(1.0, rel=1e-7)


def test_criterion_07_counterexample_divergence():
    with criterion(7, "union-of-balls sequence: monotone, slope 1/2, "
                      "crosses d^{2d} G(B_1)", 60.0):
        ks = [2 ** i for i in range(24)]
        rows = counterexample_sequence(3, 0.5, ks)
        lowers = np.array([r.g.bracket[0] for r in rows])
        assert np.all(np.diff(lowers) > 0)
        slope = np.polyfit(np.log([r.k for r in rows[-8:]]),
                           np.log(lowers[-8:]), 1)[0]
        assert abs(slope - 0.5) <= 0.05, f"slope {slope}"
        threshold = 3.0 ** 6 * ex.g_ball(3)
        assert threshold == pytest.approx(145.8)
        assert lowers[-1] > threshold, "no crossing by k = 2^23"
        crossing = next(r.k for r in rows if r.g.bracket[0] > threshold)
        assert crossing <= 2 ** 23


def test_criterion_08_john_loewner():
    with criterion(8, "Loewner ellipsoid of the cube and John sandwich "
                      "verification", 10.0):
        L = geo.loewner_ellipsoid(cube_vertices(3))
        assert np.allclose(L.semi_axes, math.sqrt(3.0), rtol=1e-6)
        corpus = [
            Polytope(cube_vertices(3)),
            Polytope(np.random.default_rng(1).normal(size=(12, 3))),
            Ellipsoid(np.array([2.0, 1.0, 0.5])),
            Ball(1.0, np.zeros(4)),
        ]
        for body in corpus:
            # john_pair verifies containment on 10^4 directions and raises
            # on any violation
            inner, outer = geo.john_pair(body)
            assert inner.semi_axes == pytest.approx(
                outer.semi_axes / body.dimension)


def test_criterion_09_scale_invariance():
    with criterion(9, "scale invariance: 1e-10 exact, 3 s.e. stochastic",
                   120.0):
        ts = (0.1, 1.0, 7.3)

        # exact backends
        for f, body in [
            (FunctionalId("G"), Ellipsoid(np.array([2.0, 1.0, 0.5]))),
            (FunctionalId("G_alpha", 1.0), Ellipsoid(np.array([2.0, 1.0, 0.5]))),
            (FunctionalId("G_alpha", 0.0), Ellipsoid(np.array([1.5, 1.0, 1.0, 0.7]))),
            (FunctionalId("H"), Ellipsoid(np.array([2.0, 1.0]))),
            (FunctionalId("H_alpha", 0.0), Ellipsoid(np.array([2.0, 1.0]))),
            (FunctionalId("H_alpha", 1.0), Ellipsoid(np.array([3.0, 1.0]))),
        ]:
            base = evaluate(f, body).value
            for t in ts:
                v = evaluate(f, geo.scale(body, t)).value
                assert abs(v - base) <= 1e-10 * abs(base), (f.name, t)

        # stochastic backends under common random numbers
        cfg = EstimatorConfig(walk_count=10_000, seed=0)
        cube = Polytope(cube_vertices(3))
        base = evaluate(FunctionalId("G"), cube, cfg)
        square = Polytope(cube_vertices(2))
        base_h = evaluate(FunctionalId("H"), square, cfg)
        for t in (0.1, 7.3):
            ev = evaluate(FunctionalId("G"), geo.scale(cube, t), cfg)
            tol = 3.0 * math.hypot(ev.stderr, base.stderr)
            assert abs(ev.value - base.value) <= tol, ("G", t)
            ev_h = evaluate(FunctionalId("H"), geo.scale(square, t), cfg)
            tol_h = 3.0 * math.hypot(ev_h.stderr, base_h.stderr) + 1e-12
            assert abs(ev_h.value - base_h.value) <= tol_h, ("H", t)


def test_criterion_10_desk_scale_limits():
    with criterion(10, "astronomical bounds as conditional ledger rows; "
                       "constrained suprema via family lower bounds", 600.0):
        # the conditional axis-ratio bound is checked in log scale and only
        # when its antecedent G >= G(B_1) holds; it is never reproduced
        # numerically at its astronomical face value
        live, _ = bounds.ledger({"ball": Ball(1.0, np.zeros(3))})
        e22 = next(r for r in live
                   if r.body_id == "ball" and r.inequality == "e22")
        assert e22.extra["log_scale"] and e22.extra["antecedent_held"]
        assert e22.status == bounds.PASS
        vac, _ = bounds.ledger({"flat": Ellipsoid(np.array([6.0, 1.0, 0.2]))})
        e22v = next(r for r in vac
                    if r.body_id == "flat" and r.inequality == "e22")
        assert e22v.status == bounds.VACUOUS

        # constrained suprema: slab-cut family lower bounds with the
        # diameter/inradius bounds asserted inside maximize_constrained
        cfg4 = EstimatorConfig(walk_count=1000, seed=0)
        res4 = maximize_constrained(FunctionalId("G"), 4, 0.05, cfg4,
                                    restarts=2, seed=0, max_evals=40)
        assert res4.best_value >= 0.9 * ex.g_ball(4)
        assert res4.extra["diam_over_inradius"] <= res4.extra["ratio_bound"]

        cfg2 = EstimatorConfig(walk_count=1000, seed=0)
        res2 = maximize_constrained(FunctionalId("H"), 2, 0.1, cfg2,
                                    restarts=2, seed=0, max_evals=40)
        assert res2.best_value >= 0.9 * ex.H_BALL
        assert res2.extra["diam_over_inradius"] <= res2.extra["ratio_bound"]
