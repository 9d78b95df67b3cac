import math

import numpy as np
import pytest

from shapefn import estimators as est
from shapefn import exact_ellipsoid as ex
from shapefn import geometry as geo
from shapefn.errors import UnsupportedRepresentationError, ValidationError
from shapefn.estimators import EstimatorConfig, fekete_logcap
from shapefn.estimators import wos_capacity, wos_torsion, wos_torsion_pointwise
from shapefn.geometry import Ball, Capsule, Ellipsoid, Polytope


def cube_vertices(d, half=1.0):
    return np.array(np.meshgrid(*[[-1.0, 1.0]] * d)).reshape(d, -1).T * half


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValidationError):
        EstimatorConfig(walk_count=500)
    with pytest.raises(ValidationError):
        EstimatorConfig(shell_epsilon=0.0)


def test_shell_epsilon_must_be_small_vs_inradius():
    with pytest.raises(ValidationError):
        wos_torsion(Ball(1.0, np.zeros(3)),
                    EstimatorConfig(walk_count=1000, shell_epsilon=0.01))


def test_per_walk_pools_blocks_into_the_plain_sample_stderr():
    calls, blocks = [], []

    def values(b, m):
        calls.append((b, m))
        blocks.append(np.random.default_rng(b).exponential(1.0 + b, size=m))
        return blocks[-1]

    mean, se = est._per_walk(2500, values)
    assert calls == [(0, 834), (1, 833), (2, 833)]
    sizes = np.array([834, 833, 833])
    assert mean == pytest.approx(sizes @ [x.mean() for x in blocks] / 2500, rel=1e-15)
    every = np.concatenate(blocks)
    assert se == pytest.approx(np.std(every, ddof=1) / math.sqrt(2500), rel=1e-12)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_torsion_deterministic_and_seed_sensitive():
    b = Ball(1.0, np.zeros(3))
    cfg = EstimatorConfig(walk_count=2000, seed=42)
    e1 = wos_torsion(b, cfg)
    e2 = wos_torsion(b, cfg)
    assert e1.value == e2.value and e1.standard_error == e2.standard_error
    e3 = wos_torsion(b, EstimatorConfig(walk_count=2000, seed=43))
    assert e3.value != e1.value


# ---------------------------------------------------------------------------
# torsion accuracy
# ---------------------------------------------------------------------------

def test_torsion_unit_ball_3d():
    e = wos_torsion(Ball(1.0, np.zeros(3)), EstimatorConfig(walk_count=20000, seed=1))
    exact = 4 * math.pi / 45
    assert abs(e.value - exact) < max(3 * e.standard_error, 0.03 * exact)
    assert 0 < e.standard_error < 0.05 * exact
    assert e.walk_count_used == 20000


def test_torsion_ellipse_2d():
    body = Ellipsoid(np.array([2.0, 1.0]))
    e = wos_torsion(body, EstimatorConfig(walk_count=10000, seed=2))
    exact = ex.torsion_ellipsoid([2.0, 1.0])
    assert abs(e.value - exact) < max(3 * e.standard_error, 0.05 * exact)


def test_torsion_square_against_series_value():
    # torsion of the square [-1,1]^2 from the classical double Fourier series
    sq = Polytope(cube_vertices(2))
    e = wos_torsion(sq, EstimatorConfig(walk_count=20000, seed=11))
    exact = 0.5623080598137711
    assert abs(e.value - exact) < max(4 * e.standard_error, 0.05 * exact)


def test_torsion_pointwise_ball_center():
    # u(0) = 1/(2d) for the unit ball
    e = wos_torsion_pointwise(Ball(1.0, np.zeros(3)), np.zeros(3),
                              EstimatorConfig(walk_count=5000, seed=4))
    assert abs(e.value - 1.0 / 6) < max(3 * e.standard_error, 0.05 / 6)


def test_torsion_scaling_with_common_random_numbers():
    body = Ellipsoid(np.array([1.0, 0.8, 0.6]))
    cfg = EstimatorConfig(walk_count=3000, seed=5)
    t = 2.0
    e1 = wos_torsion(body, cfg)
    e2 = wos_torsion(geo.scale(body, t), cfg)
    # identical walks up to scale: the ratio is exactly t^(d+2)
    assert e2.value == pytest.approx(t ** 5 * e1.value, rel=1e-12)


# ---------------------------------------------------------------------------
# capacity accuracy
# ---------------------------------------------------------------------------

def test_capacity_unit_ball_3d():
    e = wos_capacity(Ball(1.0, np.zeros(3)), EstimatorConfig(walk_count=20000, seed=1))
    exact = 4 * math.pi
    assert abs(e.value - exact) < max(3 * e.standard_error, 0.02 * exact)
    assert set(e.extra) == {"raw_R", "raw_2R"}


def test_capacity_prolate_spheroid():
    e = wos_capacity(Ellipsoid(np.array([2.0, 1.0, 1.0])),
                     EstimatorConfig(walk_count=20000, seed=2))
    exact = 16.5271740437828
    assert abs(e.value - exact) < max(3 * e.standard_error, 0.03 * exact)


def test_capacity_rejects_planar_bodies():
    with pytest.raises(UnsupportedRepresentationError):
        wos_capacity(Ellipsoid(np.array([2.0, 1.0])))


def test_capacity_4d_ball():
    e = wos_capacity(Ball(1.0, np.zeros(4)), EstimatorConfig(walk_count=10000, seed=3))
    exact = ex.kappa_d(4)
    assert abs(e.value - exact) < max(3 * e.standard_error, 0.04 * exact)


def test_stderr_calibrated_at_1000_walks():
    # 1000 walks is a single block; the stderr must still be finite and
    # cover the exact value at the 3-s.e. rate
    ball = Ball(1.0, np.zeros(3))
    for estimator, exact in ((wos_torsion, 4 * math.pi / 45),
                             (wos_capacity, 4 * math.pi)):
        covered = 0
        for seed in range(100):
            e = estimator(ball, EstimatorConfig(walk_count=1000, seed=seed))
            assert 0 < e.standard_error < math.inf
            covered += abs(e.value - exact) <= 3 * e.standard_error
        assert covered >= 95, estimator.__name__


# ---------------------------------------------------------------------------
# logarithmic capacity from Symm's equation
# ---------------------------------------------------------------------------

SQUARE_LOGCAP = math.gamma(0.25) ** 2 / (2 * math.pi ** 1.5)  # [-1, 1]^2


def random_heptagon(seed=7):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 2 * math.pi, 7))
    return Polytope(rng.uniform(0.5, 2.0) * np.stack([np.cos(t), np.sin(t)], axis=1)
                    + rng.uniform(-1, 1, 2))


def test_fekete_disk():
    e = fekete_logcap(Ball(2.0, np.zeros(2)))
    assert abs(e.value - 2.0) <= 1e-6
    assert e.backend == "symm"


def test_fekete_ellipse():
    for a, b in ((2.0, 1.0), (10.0, 1.0)):
        e = fekete_logcap(Ellipsoid(np.array([a, b])))
        assert abs(e.value - (a + b) / 2) <= 1e-6


def test_fekete_square():
    e = fekete_logcap(Polytope(cube_vertices(2)))
    assert abs(e.value - SQUARE_LOGCAP) <= 1e-6


def test_fekete_segment():
    # segment of length L: capacity L/4
    seg = Capsule(np.array([0.0, 0.0]), np.array([4.0, 0.0]), 0.0)
    e = fekete_logcap(seg)
    assert abs(e.value - 1.0) <= 1e-7


@pytest.mark.parametrize("t", [1e-6, 1e3])
def test_logcap_is_homogeneous(t):
    for body in (Polytope(cube_vertices(2)), random_heptagon(),
                 Capsule(np.array([0.5, 1.0]), np.array([4.0, -2.0]), 0.0),
                 Ellipsoid(np.array([2.0, 1.0]))):
        base = fekete_logcap(body).value
        assert fekete_logcap(geo.scale(body, t)).value == pytest.approx(t * base, rel=1e-12)


def test_logcap_stderr_covers_the_error(monkeypatch):
    heptagon = random_heptagon()
    with monkeypatch.context() as m:
        m.setattr(est, "_PANELS", 512)
        ref = fekete_logcap(heptagon).extra["raw_2n"]
    for body, exact in ((Polytope(cube_vertices(2)), SQUARE_LOGCAP), (heptagon, ref)):
        e = fekete_logcap(body)
        assert 0 < e.standard_error < math.inf
        assert abs(e.value - exact) <= 4 * e.standard_error


def test_logcap_does_not_depend_on_the_start_vertex():
    V = random_heptagon().vertices
    base = est._arc_logcap(V, closed=True)
    for k in range(1, 7):
        rolled = est._arc_logcap(np.roll(V, k, axis=0), closed=True)
        assert rolled[:2] == pytest.approx(base[:2], rel=1e-13, abs=0)


def test_fekete_rejects_3d():
    with pytest.raises(UnsupportedRepresentationError):
        fekete_logcap(Ball(1.0, np.zeros(3)))


@pytest.mark.parametrize("body", [
    geo.BallUnion(np.array([[0.0, 0.0], [4.0, 0.0]]), np.array([1.0, 1.0])),
    Capsule(np.array([0.0, 0.0]), np.array([4.0, 0.0]), 0.5),
    Polytope(cube_vertices(3)),
    Ellipsoid(np.array([2.0, 1.0, 0.5])),
    Capsule(np.zeros(3), np.ones(3), 0.0),
], ids=["ball_union2", "capsule2", "cube", "ellipsoid3", "segment3"])
def test_logcap_rejects_unsupported_bodies(body):
    with pytest.raises(UnsupportedRepresentationError):
        fekete_logcap(body)
