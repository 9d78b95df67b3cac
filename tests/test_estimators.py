import math

import numpy as np
import pytest

from shapefn import estimators as est
from shapefn import exact_ellipsoid as ex
from shapefn import geometry as geo
from shapefn.errors import StuckWalkError, UnsupportedRepresentationError, ValidationError
from shapefn.estimators import EstimatorConfig, fekete_logcap
from shapefn.estimators import wos_capacity, wos_torsion
from shapefn.geometry import Ball, BallUnion, Capsule, Ellipsoid, Polytope
from shapefn.search import SlabBody

from helpers import cube_vertices


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValidationError):
        EstimatorConfig(walk_count=500)
    # the stream's key holds 64 bits of seed: -1 would walk as 2^64 - 1, and
    # 2^64 + 5 as 5, while the manifest records the seed given
    for seed in (-1, 2 ** 64 + 5):
        with pytest.raises(ValidationError, match="seed"):
            EstimatorConfig(walk_count=1000, seed=seed)
    assert EstimatorConfig(walk_count=1000, seed=2 ** 64 - 1).seed == 2 ** 64 - 1
    # seed 1.5 would walk as seed 1 while the manifest records 1.5, and a
    # float walk_count would escape from range as a TypeError
    for bad in (1.5, 7.0, "3", True):
        with pytest.raises(ValidationError, match="seed"):
            EstimatorConfig(walk_count=1000, seed=bad)
    for bad in (1000.0, 2500.5, "1000", True):
        with pytest.raises(ValidationError, match="walk_count"):
            EstimatorConfig(walk_count=bad, seed=0)
    cfg = EstimatorConfig(walk_count=np.int64(1000), seed=np.uint64(2 ** 64 - 1))
    assert (cfg.walk_count, cfg.seed) == (1000, 2 ** 64 - 1)


def test_config_has_no_shell_width():
    # the shell is 1e-5 x the inradius, fixed so the walks scale with the body
    with pytest.raises(TypeError):
        EstimatorConfig(shell_epsilon=1e-6)
    assert EstimatorConfig().to_dict() == {"walk_count": 100_000, "seed": 0}


def test_mean_and_stderr_are_the_plain_sample_moments():
    sizes = [834, 833, 833]
    blocks = [np.random.default_rng(b).exponential(1.0 + b, size=m)
              for b, m in enumerate(sizes)]
    every = np.concatenate(blocks)
    mean, se = est._mean_se(every)
    assert mean == pytest.approx(np.dot(sizes, [x.mean() for x in blocks]) / 2500, rel=1e-15)
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


def test_a_call_draws_its_waves_from_one_stream(monkeypatch):
    # with waves of 1000, a 2500-walk call runs waves of 1000, 1000 and 500
    # walkers, one after another on one stream: its first wave is the
    # 1000-walk call bit for bit, and the next waves draw on from there
    monkeypatch.setattr(est, "_WAVE", 1000)
    waves = []

    def record(*args, walks=est._walks):
        waves.append(walks(*args))
        return waves[-1]
    monkeypatch.setattr(est, "_walks", record)
    cube = Polytope(cube_vertices(3))
    for estimator in (wos_torsion, wos_capacity):
        waves.clear()
        one = estimator(cube, EstimatorConfig(walk_count=1000, seed=3)).extra["diag"]
        (single,) = waves
        waves.clear()
        three = estimator(cube, EstimatorConfig(walk_count=2500, seed=3)).extra["diag"]
        assert [w.size for w in waves] == [1000, 1000, 500]
        assert waves[0].tobytes() == single.tobytes()
        assert waves[1].tobytes() != waves[0].tobytes()
        # the longest wave sets max_walk_steps; the iterations add up
        assert one["max_walk_steps"] == one["iterations"]
        assert one["max_walk_steps"] <= three["max_walk_steps"] < three["iterations"]


def test_walk_counters_repeat_and_d3_reentry_never_rejects():
    cfg = EstimatorConfig(walk_count=2000, seed=9)
    cube = Polytope(cube_vertices(3))
    for estimator in (wos_torsion, wos_capacity):
        first, second = estimator(cube, cfg), estimator(cube, cfg)
        assert first.extra == second.extra
        assert first.extra["diag"]["walker_steps"] > first.extra["diag"]["iterations"] > 0
        assert first.extra["diag"]["max_walk_steps"] == second.extra["diag"]["max_walk_steps"] > 0
        # a torsion walk ends in the shell or in the roulette, a capacity
        # walk on a facet or in the roulette
        diag = first.extra["diag"]
        assert diag["absorbed"] + diag["roulette_kills"] == cfg.walk_count
        assert diag["absorbed"] > 0 and diag["roulette_kills"] > 0
    diag = wos_capacity(cube, cfg).extra["diag"]
    assert diag["reentries"] == diag["reentry_proposals"] > 0
    assert diag["roulette_kills"] > 0
    diag4 = wos_capacity(Ball(1.0, np.zeros(4)), cfg).extra["diag"]
    assert 0 < diag4["reentries"] < diag4["reentry_proposals"]


@pytest.mark.parametrize("estimator", [wos_torsion, wos_capacity])
def test_no_walk_calls_the_exact_kernel(estimator, monkeypatch):
    # walks step by the lower bound and are absorbed on it, so the exact
    # kernels, the polytope's edge distance and the ellipsoid's Newton
    # iteration behind the slab, are never called, and hiding them changes
    # nothing
    bodies = (Polytope(cube_vertices(3)), Ellipsoid(np.array([2.0, 1.0, 0.5])),
              SlabBody([2.4, 1.0, 0.5, 0.35], 0.3))
    cfg = EstimatorConfig(walk_count=1000, seed=4)
    plain = [estimator(body, cfg) for body in bodies]
    seen = []
    for kind in (Polytope, Ellipsoid, SlabBody):
        def counted(body, P, exact=kind.signed_distance):
            seen.append(type(body).__name__)
            return exact(body, P)

        monkeypatch.setattr(kind, "signed_distance", counted)
    wrapped = [estimator(body, cfg) for body in bodies]
    assert seen == []
    for a, b in zip(wrapped, plain):
        assert (a.value, a.standard_error, a.extra) == (b.value, b.standard_error, b.extra)


@pytest.mark.parametrize("estimator", [wos_torsion, wos_capacity])
def test_every_walk_ends_absorbed_or_in_the_roulette(estimator):
    cfg = EstimatorConfig(walk_count=1000, seed=2)
    for body in (Ball(1.0, np.zeros(3)), Ellipsoid(np.array([3.0, 1.0, 0.5])),
                 SlabBody([2.4, 1.0, 0.5, 0.35], 0.3), Polytope(cube_vertices(3)),
                 Capsule(np.zeros(3), np.array([2.0, 0.0, 0.0]), 0.5),
                 BallUnion(np.array([[0.0, 0, 0], [5.0, 0, 0]]), np.array([1.0, 0.5]))):
        diag = estimator(body, cfg).extra["diag"]
        assert diag["absorbed"] + diag["roulette_kills"] == cfg.walk_count, body
        assert diag["absorbed"] > 0, body


def test_capacity_on_a_4d_polytope_fails_before_any_draw(monkeypatch):
    # a d > 3 polytope is refused when it is built, so a capacity call on one
    # never opens its stream
    streams = []
    monkeypatch.setattr(est, "_stream", lambda *key: streams.append(key))
    with pytest.raises(UnsupportedRepresentationError, match="d <= 3"):
        wos_capacity(Polytope(cube_vertices(4)), EstimatorConfig(walk_count=1000))
    assert streams == []


def test_walks_past_the_step_budget_are_stuck(monkeypatch):
    # a cube's torsion walks need far more than 3 steps to reach a shell 1e-5
    # x the inradius wide, and of 1000 capacity walks, which jump from facet
    # plane to facet plane, some take more than 3 jumps to land on a facet
    monkeypatch.setattr(est, "_MAX_WALK_STEPS", 3)
    cube = Polytope(cube_vertices(3))
    for estimator in (wos_torsion, wos_capacity):
        with pytest.raises(StuckWalkError, match="step budget"):
            estimator(cube, EstimatorConfig(walk_count=1000))


# value.hex() and standard_error.hex() of each estimator at seed 0: any
# change to the walks' arithmetic or draws shows. Every torsion value was
# recorded when torsion walks took up Russian roulette. Capacity's were
# recorded at 1000 walks when it took up harmonic-measure re-entry and
# roulette (the slab's when its step radii took up the quadratic ellipsoid
# bound, the rotated ellipsoid's and the elongated slab's before absorption
# took up the distance upper bound), and at 2500 and 10000 walks when a call
# took one stream for all its walks. The three slabs' were recorded when
# capacity walks took up the launch from the body's enclosing ellipsoid, and
# the cube's and hull12's when walks outside a polytope took up the jump to
# a facet plane
PINNED_BITS = {
    ("ball3", 1000): {
        "wos_torsion": ("0x1.20465eaea20a7p-2", "0x1.6202c551425e0p-7"),
        "wos_capacity": ("0x1.a039b54599e8dp+3", "0x1.1dfff4448ab3fp-2"),
    },
    ("ball3", 2500): {
        "wos_torsion": ("0x1.2eb15be5a1bfep-2", "0x1.f11cad367097fp-8"),
        "wos_capacity": ("0x1.913003f8b1cd0p+3", "0x1.5e01fad667155p-3"),
    },
    ("ball3", 10000): {
        "wos_torsion": ("0x1.24b76795b64e6p-2", "0x1.de5d71a4a4e1ap-9"),
        "wos_capacity": ("0x1.930a40cfeada5p+3", "0x1.5eda665be1066p-4"),
    },
    ("cube", 1000): {
        "wos_torsion": ("0x1.3d1e8c9b1ba2bp-1", "0x1.cbdc29ae8f490p-6"),
        "wos_capacity": ("0x1.0f40c1900dfd4p+4", "0x1.1083d6e59ad0cp-2"),
    },
    ("cube", 2500): {
        "wos_torsion": ("0x1.53abede42f097p-1", "0x1.36bad613f4461p-6"),
        "wos_capacity": ("0x1.0bb97f8475ee4p+4", "0x1.5fb2e098ccb19p-3"),
    },
    ("cube", 10000): {
        "wos_torsion": ("0x1.4bc433d3801d0p-1", "0x1.2dd63040533c0p-7"),
        "wos_capacity": ("0x1.09dce68bc7a4ep+4", "0x1.5f58cf47c8897p-4"),
    },
    ("slab", 1000): {
        "wos_torsion": ("0x1.dbd75968e7af3p-4", "0x1.315b15fc068b6p-8"),
        "wos_capacity": ("0x1.721d968f43523p+3", "0x1.746925cd24e26p-4"),
    },
    ("slab", 2500): {
        "wos_torsion": ("0x1.ed31e0df82ba3p-4", "0x1.a0c0d4242ff35p-9"),
        "wos_capacity": ("0x1.74935ddee9f8fp+3", "0x1.d44d26e631abfp-5"),
    },
    ("slab", 10000): {
        "wos_torsion": ("0x1.dd4b09137b0bfp-4", "0x1.8ef4f21cb0e8bp-10"),
        "wos_capacity": ("0x1.7156f5672c216p+3", "0x1.e5de5c51cf661p-6"),
    },
    ("square", 1000): {
        "wos_torsion": ("0x1.269d03f641c74p-1", "0x1.7638ae008b3edp-6"),
    },
    ("square", 2500): {
        "wos_torsion": ("0x1.2cd816f277007p-1", "0x1.df7ec065f7d9bp-7"),
    },
    ("square", 10000): {
        "wos_torsion": ("0x1.1d01b74bb3bf8p-1", "0x1.b836320e58e3fp-8"),
    },
    ("ellipsoid_rot", 1000): {
        "wos_torsion": ("0x1.66c2b5f403dfdp-3", "0x1.b3866754b417ep-8"),
        "wos_capacity": ("0x1.b49e83a61a861p+3", "0x1.a9e503a834e64p-2"),
    },
    ("slab_long", 1000): {
        "wos_torsion": ("0x1.615b9c89f2620p-9", "0x1.c5ccf23b37262p-14"),
        "wos_capacity": ("0x1.01033071e151ep+5", "0x1.563653770b887p-2"),
    },
    # d >= 5: re-entry keeps fewer proposals (about 0.59 at d = 6), so it runs several rounds
    ("ellipsoid5", 1000): {
        "wos_torsion": ("0x1.c8a8dd6332913p-6", "0x1.4ed523b4f4864p-10"),
        "wos_capacity": ("0x1.98e779a27cd84p+5", "0x1.082a5d0758180p+3"),
    },
    ("slab6", 1000): {
        "wos_torsion": ("0x1.3d8a21e6d6d72p-6", "0x1.bcb87d055ba6bp-11"),
        "wos_capacity": ("0x1.1c3c056c7dbb6p+6", "0x1.0fae837412820p-1"),
    },
    ("hull12", 1000): {
        "wos_torsion": ("0x1.6036060053018p-5", "0x1.e4a3bbf89cb0bp-10"),
        "wos_capacity": ("0x1.366a7ebff30aep+3", "0x1.3b720b88fa3b3p-3"),
    },
    ("heptagon", 1000): {
        "wos_torsion": ("0x1.a1b1058d9bb51p-2", "0x1.fd928bba85d32p-7"),
    },
    # capacity's recorded before the walks took up column-by-column row sums,
    # which d >= 8 leaves to numpy's own (pairwise) sum
    ("ball8", 1000): {
        "wos_torsion": ("0x1.954fd118e6c8cp-5", "0x1.553ba00d3533cp-9"),
        "wos_capacity": ("0x1.cfdd84549a88cp+7", "0x1.7e221498571bdp+5"),
    },
}

# an exact rotation from the 3-4-5 and 5-12-13 triangles
_C, _S = 5 / 13, 12 / 13
ROTATION = [[0.6, -0.8 * _C, 0.8 * _S], [0.8, 0.6 * _C, -0.6 * _S], [0.0, _S, _C]]

# the ledger benchmark's kinds of polytope: 12 points on the unit sphere, all
# extreme, and seven on a circle at uneven angles
HULL12 = np.random.default_rng(12).standard_normal((12, 3))
HULL12 /= np.linalg.norm(HULL12, axis=1, keepdims=True)
_T7 = 2 * math.pi * (np.arange(7) + np.array([0.0, 0.2, -0.15, 0.1, 0.25, -0.2, 0.05])) / 7
HEPTAGON = 1.1 * np.stack([np.cos(_T7), np.sin(_T7)], axis=1)

PIN_BODIES = {
    "ball3": Ball(1.0, np.zeros(3)),
    "cube": Polytope(cube_vertices(3)),
    "square": Polytope(cube_vertices(2)),
    "slab": SlabBody([1.0, 1.0, 1.0], 0.5),
    "ellipsoid_rot": Ellipsoid([1.5, 1.0, 0.6], [0.3, -0.2, 0.5], ROTATION),
    "slab_long": SlabBody([2.4, 1.0, 0.5, 0.35], 0.3),
    "ellipsoid5": Ellipsoid([1.5, 1.0, 0.8, 0.6, 0.5]),
    "slab6": SlabBody([1.4, 1.0, 0.9, 0.8, 0.7, 0.6], 0.5),
    "hull12": Polytope(HULL12),
    "heptagon": Polytope(HEPTAGON),
    "ball8": Ball(1.0, np.zeros(8)),
}


@pytest.mark.parametrize("name", list(PIN_BODIES))
def test_estimates_are_pinned_bit_for_bit(name):
    run = {"wos_torsion": wos_torsion, "wos_capacity": wos_capacity}
    for (pinned, n), want in PINNED_BITS.items():
        if pinned != name:
            continue
        cfg = EstimatorConfig(walk_count=n, seed=0)
        for key, bits in want.items():
            e = run[key](PIN_BODIES[name], cfg)
            assert (e.value.hex(), e.standard_error.hex()) == bits, (key, n)


# ---------------------------------------------------------------------------
# torsion accuracy
# ---------------------------------------------------------------------------

def test_torsion_unit_ball_3d():
    e = wos_torsion(Ball(1.0, np.zeros(3)), EstimatorConfig(walk_count=20000, seed=1))
    exact = 4 * math.pi / 45
    assert abs(e.value - exact) < max(3 * e.standard_error, 0.03 * exact)
    assert 0 < e.standard_error < 0.05 * exact
    assert set(e.extra) == {"diag"}
    assert set(e.extra["diag"]) == {"walker_steps", "iterations", "max_walk_steps",
                                    "absorbed", "roulette_kills"}


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


def test_torsion_scaling_with_common_random_numbers():
    body = Ellipsoid(np.array([1.0, 0.8, 0.6]))
    cfg = EstimatorConfig(walk_count=3000, seed=5)
    t = 2.0
    e1 = wos_torsion(body, cfg)
    e2 = wos_torsion(geo.scale(body, t), cfg)
    # identical walks up to scale: the ratio is exactly t^(d+2)
    assert e2.value == pytest.approx(t ** 5 * e1.value, rel=1e-12)


@pytest.mark.parametrize("t", [0.1, 2.0, 7.3])
def test_capacity_scaling_with_common_random_numbers(t):
    # the re-entry sampler and the roulette see only scale-free quantities,
    # so the walks are identical up to scale and the ratio is t^(d-2)
    cfg = EstimatorConfig(walk_count=3000, seed=5)
    a = np.ones(4)
    for small, big in ((Ellipsoid(np.array([1.0, 0.8, 0.6])), None),
                       (Polytope(cube_vertices(3)), None),
                       (SlabBody(a, 0.5), SlabBody(t * a, 0.5))):
        big = big or geo.scale(small, t)
        e1, e2 = wos_capacity(small, cfg), wos_capacity(big, cfg)
        d = small.dimension
        assert e2.value == pytest.approx(t ** (d - 2) * e1.value, rel=1e-12)
        assert e2.standard_error == pytest.approx(t ** (d - 2) * e1.standard_error, rel=1e-12)


def test_torsion_pooled_over_seeds_is_unbiased_on_an_elongated_ellipsoid():
    # 20 x 10^4 walks; the step radii and the absorptions near the ends of the
    # long axis come from the quadratic ellipsoid bound
    axes = [3.0, 1.0, 0.5]
    runs = [wos_torsion(Ellipsoid(np.array(axes)), EstimatorConfig(walk_count=10_000, seed=s))
            for s in range(20)]
    mean = np.mean([e.value for e in runs])
    se = math.sqrt(sum(e.standard_error ** 2 for e in runs)) / len(runs)
    assert abs(mean - ex.torsion_ellipsoid(axes)) < 3 * se
    # 168,930 walker-steps at seed 0 plus 10 %; 358,314 before the roulette,
    # and |g - 1| a_min steps took 1,148,320
    assert runs[0].extra["diag"]["walker_steps"] <= 186_000


# ---------------------------------------------------------------------------
# capacity accuracy
# ---------------------------------------------------------------------------

def test_capacity_unit_ball_3d():
    e = wos_capacity(Ball(1.0, np.zeros(3)), EstimatorConfig(walk_count=20000, seed=1))
    exact = 4 * math.pi
    assert abs(e.value - exact) < max(3 * e.standard_error, 0.02 * exact)
    assert set(e.extra) == {"diag"}
    assert set(e.extra["diag"]) == {"walker_steps", "iterations", "max_walk_steps",
                                    "absorbed", "reentries", "reentry_proposals",
                                    "roulette_kills"}


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
    # 1000 walks, the fewest a call takes; the stderr must still be finite and
    # cover the exact value at the 3-s.e. rate, off the ball too
    ball = Ball(1.0, np.zeros(3))
    prolate = Ellipsoid(np.array([2.0, 1.0, 1.0]))
    for estimator, body, exact in (
            (wos_torsion, ball, 4 * math.pi / 45),
            (wos_torsion, Polytope(cube_vertices(2)), 0.5623080598137711),
            (wos_torsion, Ball(1.0, np.zeros(4)), ex.torsion_ellipsoid(np.ones(4))),
            (wos_capacity, ball, 4 * math.pi),
            (wos_capacity, prolate, ex.cap_newtonian_ellipsoid([2.0, 1.0, 1.0]))):
        covered = 0
        for seed in range(100):
            e = estimator(body, EstimatorConfig(walk_count=1000, seed=seed))
            assert 0 < e.standard_error < math.inf
            covered += abs(e.value - exact) <= 3 * e.standard_error
        assert covered >= 95, (estimator.__name__, body)


@pytest.mark.parametrize("axes", [[2.0, 1.0, 1.0], [1.5, 1.0, 0.8, 0.6]],
                         ids=["prolate3", "ellipsoid4"])
def test_capacity_pooled_over_seeds_is_unbiased(axes):
    # 20 x 10^4 walks resolve a bias of about 0.3 %; launching from one
    # sphere with uniform re-entry was 1.1 % low on the prolate spheroid
    exact = ex.cap_newtonian_ellipsoid(axes)
    runs = [wos_capacity(Ellipsoid(np.array(axes)), EstimatorConfig(walk_count=10_000, seed=s))
            for s in range(20)]
    mean = np.mean([e.value for e in runs])
    se = math.sqrt(sum(e.standard_error ** 2 for e in runs)) / len(runs)
    assert abs(mean - exact) < 3 * se


def test_capacity_pooled_over_seeds_is_unbiased_on_the_cube():
    # walks launched from the Loewner sphere; the unit cube's capacity is
    # 0.66067813 x 4 pi (Hwang & Mascagni 2004), and [-1, 1]^3 is twice it
    runs = [wos_capacity(Polytope(cube_vertices(3)), EstimatorConfig(walk_count=10_000, seed=s))
            for s in range(10)]
    mean = np.mean([e.value for e in runs])
    se = math.sqrt(sum(e.standard_error ** 2 for e in runs)) / len(runs)
    assert abs(mean - 4 * math.pi * 2 * 0.66067813) < 3 * se


def test_capacity_of_a_fine_hull_of_the_sphere_lies_between_its_balls():
    # the hull K of 200 Fibonacci points on the unit sphere holds its
    # inscribed ball and lies in the unit ball, and capacity is monotone:
    # 4 pi r_in <= cap(K) <= 4 pi, so the whole 3-s.e. bracket lies there
    k = np.arange(200) + 0.5
    z = 1.0 - 2.0 * k / 200
    phi = math.pi * (1.0 + math.sqrt(5.0)) * k
    rho = np.sqrt(1.0 - z * z)
    hull = Polytope(np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1))
    e = wos_capacity(hull, EstimatorConfig(walk_count=10_000, seed=0))
    r_in = hull.diameter_inradius()[1]
    assert 4 * math.pi * r_in <= e.value - 3 * e.standard_error
    assert e.value + 3 * e.standard_error <= 4 * math.pi
    assert e.extra["diag"]["absorbed"] + e.extra["diag"]["roulette_kills"] == 10_000


def test_a_capacity_walker_in_or_on_a_polytope_ends_without_a_jump():
    # the centre and a point of a facet end where they stand and draw
    # nothing; the walker outside draws its d normals and jumps to a plane
    cube = Polytope(cube_vertices(3))
    gen, twin = est._stream(0, 1), est._stream(0, 1)
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.2, 0.3], [1.5, 0.1, -0.2]])
    moved, r, live = est._jump_step(cube, gen)(pos.copy())
    assert r is None and list(live[:2]) == [False, False]
    g = twin.standard_normal((1, 3))
    assert gen.random() == twin.random()
    y = pos[2:].copy()
    landed = cube.plane_jump(y, *cube.plane_excess(y), g)
    assert live[2] == (not landed[0])
    assert moved.tobytes() == y[~landed].tobytes()


def test_the_capacity_launch_and_john_pair_share_one_loewner_ellipsoid(monkeypatch):
    calls = []

    def counted(points, loewner=geo.loewner_ellipsoid):
        calls.append(points)
        return loewner(points)
    monkeypatch.setattr(geo, "loewner_ellipsoid", counted)
    cube = Polytope(cube_vertices(3))
    _, outer = geo.john_pair(cube)
    wos_capacity(cube, EstimatorConfig(walk_count=1000))
    assert len(calls) == 1 and cube.enclosing_ellipsoid() is outer


@pytest.mark.parametrize("axes, h", [([1.556, 1.791, 1.160, 1.0], 0.7595),
                                     ([2.4, 1.0, 0.5, 0.35], 0.3),
                                     ([1.2, 1.0, 0.9], 0.6)],
                         ids=["criterion10", "slab_long", "slab3"])
def test_slab_capacity_lies_between_its_inner_and_outer_ellipsoids(axes, h):
    # walks launched from the uncut ellipsoid; the slab body holds the
    # ellipsoid with its last axis cut to h a_d, and capacity is monotone
    inner = np.array(axes)
    inner[-1] *= h
    e = wos_capacity(SlabBody(axes, h), EstimatorConfig(walk_count=10_000, seed=0))
    assert ex.cap_newtonian_ellipsoid(inner) - 3 * e.standard_error <= e.value
    assert e.value <= ex.cap_newtonian_ellipsoid(axes) + 3 * e.standard_error


def reentry_sample(d, ratio, n, seed):
    """n re-entry points on the sphere of radius 1.7 seen from one point x at
    |x| = ratio x 1.7, on one stream."""
    R = 1.7
    x = np.zeros(d)
    x[:3] = R * ratio * np.array([0.6, -0.48, 0.64])
    diag = {"reentries": 0, "reentry_proposals": 0}
    gen = np.random.Generator(np.random.Philox(key=seed))
    y = est._reenter(np.tile(x, (n, 1)), R, gen, diag)
    return x, R, y


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("ratio", [1.01, 2.0, 50.0])
def test_reentry_follows_the_exterior_harmonic_measure(d, ratio):
    # harmonic in the exterior and decaying: the conditioned means of y and
    # of y1^2 - y2^2 are the Kelvin images R^2 x / rho^2 and
    # (R/rho)^4 (x1^2 - x2^2). Below rho/R = 1.01 the law is too heavy-tailed
    # for sample moments.
    x, R, y = reentry_sample(d, ratio, 20_000, seed=100 * d + int(ratio))
    rho = np.linalg.norm(x)
    n = y.shape[0]
    assert np.all(np.abs(y.mean(axis=0) - R ** 2 * x / rho ** 2)
                  <= 4 * y.std(axis=0, ddof=1) / math.sqrt(n))
    q = y[:, 0] ** 2 - y[:, 1] ** 2
    assert (abs(q.mean() - (R / rho) ** 4 * (x[0] ** 2 - x[1] ** 2))
            <= 4 * q.std(ddof=1) / math.sqrt(n))
    assert np.all(np.abs(np.linalg.norm(y, axis=1) / R - 1.0) <= 1e-15)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_reentry_just_outside_the_sphere_is_finite(d):
    with np.errstate(all="raise"):
        x, R, y = reentry_sample(d, 1.0 + 1e-12, 2000, seed=d)
    assert np.all(np.isfinite(y))
    assert np.all(np.abs(np.linalg.norm(y, axis=1) / R - 1.0) <= 1e-15)


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
