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
from shapefn.search import SlabBody


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


def test_pool_combines_blocks_into_the_plain_sample_stderr():
    sizes = est._block_sizes(2500)
    assert sizes.tolist() == [834, 833, 833]
    blocks = [np.random.default_rng(b).exponential(1.0 + b, size=m)
              for b, m in enumerate(sizes)]
    every = np.concatenate(blocks)
    # one wave, a wave per block, and a wave of two blocks then one
    for waves in ([every], blocks, [np.concatenate(blocks[:2]), blocks[2]]):
        mean, se = est._pool(sizes, waves)
        assert mean == pytest.approx(sizes @ [x.mean() for x in blocks] / 2500, rel=1e-15)
        assert se == pytest.approx(np.std(every, ddof=1) / math.sqrt(2500), rel=1e-12)


def test_waves_hold_whole_blocks_up_to_the_walker_limit(monkeypatch):
    monkeypatch.setattr(est, "_WAVE", 4500)
    sizes = est._block_sizes(10_000)
    assert list(est._waves(sizes, 1)) == [(0, 4), (4, 8), (8, 10)]
    assert list(est._waves(sizes, 2)) == [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]
    assert list(est._waves(sizes, 5)) == [(b, b + 1) for b in range(10)]


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


@pytest.mark.parametrize("wave", [1, 2500])
def test_estimates_do_not_depend_on_the_wave_size(monkeypatch, wave):
    # wave 1 runs each block alone; 2500 puts two torsion blocks in a wave.
    # A random hull's plane products are inexact, so their rounding shows.
    V = np.random.default_rng(12).standard_normal((12, 3))
    hull = Polytope(V / np.linalg.norm(V, axis=1, keepdims=True))
    cfg = EstimatorConfig(walk_count=5000, seed=3)
    ref = [wos_torsion(hull, cfg), wos_capacity(hull, cfg)]
    monkeypatch.setattr(est, "_WAVE", wave)
    assert [wos_torsion(hull, cfg), wos_capacity(hull, cfg)] == ref


# value.hex() and standard_error.hex() of each estimator at seed 0 (capacity
# also raw_R and raw_2R), recorded before the blocks and streams of one call
# shared a lock-step loop: any change to the walks' arithmetic or draws shows
PINNED_BITS = {
    ("ball3", 1000): {
        "wos_torsion": ("0x1.09bd465f7c5aep-2", "0x1.503f143799bcdp-7"),
        "wos_torsion_pointwise": ("0x1.234a11a7a64c5p-3", "0x1.68fe368e3271cp-9"),
        "wos_capacity": ("0x1.9a07785c63c2bp+3", "0x1.161d6e11efabdp+0",
                         "0x1.a41326395e948p+3", "0x1.9f0d4f4ae12a7p+3"),
    },
    ("ball3", 2500): {
        "wos_torsion": ("0x1.2eeb6e27be8e2p-2", "0x1.dfbc1c4565712p-8"),
        "wos_torsion_pointwise": ("0x1.268b43e947e10p-3", "0x1.d9d6bf020fd4ep-10"),
        "wos_capacity": ("0x1.960fdc770bb5bp+3", "0x1.51767b1ba45e1p-1",
                         "0x1.898dfa564e621p+3", "0x1.8fceeb66ad0b3p+3"),
    },
    ("ball3", 10000): {
        "wos_torsion": ("0x1.1d7dfa0fb40f9p-2", "0x1.c95da802c4becp-9"),
        "wos_torsion_pointwise": ("0x1.242cab56862e3p-3", "0x1.d0e50481c2a4ep-11"),
        "wos_capacity": ("0x1.9ab63e4bb810dp+3", "0x1.577dbeaf2ace4p-2",
                         "0x1.946ec29183ce3p+3", "0x1.9792806e9dee5p+3"),
    },
    ("cube", 1000): {
        "wos_torsion": ("0x1.5618af10ee2cbp-1", "0x1.dcda9f502bf37p-6"),
        "wos_torsion_pointwise": ("0x1.aafa8afabedf8p-3", "0x1.11e1b86ea2c0fp-8"),
        "wos_capacity": ("0x1.fca6fa59c4db4p+3", "0x1.a8ac84f595614p+0",
                         "0x1.0a61b41c8eb38p+4", "0x1.045a98a4b8905p+4"),
    },
    ("cube", 2500): {
        "wos_torsion": ("0x1.43d98f670bf9fp-1", "0x1.17d6232e847d5p-6"),
        "wos_torsion_pointwise": ("0x1.99d6afdc3eab1p-3", "0x1.3c70dfa9691d9p-9"),
        "wos_capacity": ("0x1.0e47e3bccc23ep+4", "0x1.0ef93a2f29e93p+0",
                         "0x1.09668b570569ap+4", "0x1.0bd73789e8c6fp+4"),
    },
    ("cube", 10000): {
        "wos_torsion": ("0x1.50f969f5bb38cp-1", "0x1.252a2612382e2p-7"),
        "wos_torsion_pointwise": ("0x1.9ff62dec78a29p-3", "0x1.491a5c85b7316p-10"),
        "wos_capacity": ("0x1.0e3ee8f9ed85bp+4", "0x1.0eff1285f3f4fp-1",
                         "0x1.08b1899abf31ep+4", "0x1.0b78394a565bap+4"),
    },
    ("slab", 1000): {
        "wos_torsion": ("0x1.e20e1cfd44603p-4", "0x1.3207c566af4e4p-8"),
        "wos_torsion_pointwise": ("0x1.579d3db09d352p-4", "0x1.cc6601ba09de7p-10"),
        "wos_capacity": ("0x1.36c9e9e93930fp+3", "0x1.013547d566b72p+0",
                         "0x1.882c92c554fa2p+3", "0x1.5f7b3e5747153p+3"),
    },
    ("slab", 2500): {
        "wos_torsion": ("0x1.dfd71607184e3p-4", "0x1.87fe501cbbf4dp-9"),
        "wos_torsion_pointwise": ("0x1.6fc7acf698a3cp-4", "0x1.41848f7816827p-10"),
        "wos_capacity": ("0x1.61f8efcb89b51p+3", "0x1.4983e7650914ep-1",
                         "0x1.6eef434056e7bp+3", "0x1.68741985f04ddp+3"),
    },
    ("slab", 10000): {
        "wos_torsion": ("0x1.e8d893a266585p-4", "0x1.913eb9a113a58p-10"),
        "wos_torsion_pointwise": ("0x1.674be38b727fbp-4", "0x1.37966d19a49ccp-11"),
        "wos_capacity": ("0x1.8709aa75fadf9p+3", "0x1.519c4054c2a6bp-2",
                         "0x1.7123c53d00f77p+3", "0x1.7c16b7d97deabp+3"),
    },
    ("square", 1000): {
        "wos_torsion": ("0x1.281d6a790bc23p-1", "0x1.6a5f3a0b64965p-6"),
        "wos_torsion_pointwise": ("0x1.07c38f2954c5fp-2", "0x1.4fe98fd698589p-8"),
    },
    ("square", 2500): {
        "wos_torsion": ("0x1.2d1423dd43fd2p-1", "0x1.c809556943c99p-7"),
        "wos_torsion_pointwise": ("0x1.1477f60e7558ap-2", "0x1.d534382a40651p-9"),
    },
    ("square", 10000): {
        "wos_torsion": ("0x1.23897f9146137p-1", "0x1.c2e0954aa9f45p-8"),
        "wos_torsion_pointwise": ("0x1.0dd6729003288p-2", "0x1.bca8687a46790p-10"),
    },
}

PIN_BODIES = {
    "ball3": (Ball(1.0, np.zeros(3)), [0.3, -0.2, 0.1]),
    "cube": (Polytope(cube_vertices(3)), [0.3, -0.2, 0.1]),
    "square": (Polytope(cube_vertices(2)), [0.3, -0.2]),
    "slab": (SlabBody([1.0, 1.0, 1.0], 0.5), [0.3, -0.2, 0.1]),
}


@pytest.mark.parametrize("name", list(PIN_BODIES))
def test_estimates_are_pinned_bit_for_bit(name):
    body, point = PIN_BODIES[name]
    for n in (1000, 2500, 10_000):
        cfg = EstimatorConfig(walk_count=n, seed=0)
        got = {"wos_torsion": wos_torsion(body, cfg),
               "wos_torsion_pointwise": wos_torsion_pointwise(body, point, cfg)}
        if body.dimension >= 3:
            got["wos_capacity"] = wos_capacity(body, cfg)
        for key, e in got.items():
            bits = (e.value.hex(), e.standard_error.hex())
            if key == "wos_capacity":
                bits += (e.extra["raw_R"].hex(), e.extra["raw_2R"].hex())
            assert bits == PINNED_BITS[name, n][key], (key, n)


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


def test_torsion_pointwise_outside_the_body_is_a_validation_error():
    square = Polytope(cube_vertices(2))
    cfg = EstimatorConfig(walk_count=1000)
    with pytest.raises(ValidationError):
        wos_torsion_pointwise(square, [2.0, 0.0], cfg)
    # on the boundary u = 0 exactly: every walk is absorbed at once
    e = wos_torsion_pointwise(square, [1.0, 0.0], cfg)
    assert (e.value, e.standard_error) == (0.0, 0.0)


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
