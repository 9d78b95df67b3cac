import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapefn import exact_ellipsoid as ex
from shapefn.errors import ValidationError
from shapefn.estimators import EstimatorConfig, wos_capacity, wos_torsion
from shapefn.functionals import FunctionalId, evaluate, parse_functional
from shapefn.geometry import Ball, Ellipsoid, Polytope

from helpers import cube_vertices


# ---------------------------------------------------------------------------
# functional identifiers
# ---------------------------------------------------------------------------

def test_parse_and_name():
    assert parse_functional("G").name == "G"
    assert parse_functional("G_alpha", 1.0).name == "G_alpha(1)"
    assert parse_functional("H_alpha", 0.5).name == "H_alpha(0.5)"


def test_id_validation():
    with pytest.raises(ValidationError):
        FunctionalId("F")
    with pytest.raises(ValidationError):
        FunctionalId("G", alpha=1.0)
    with pytest.raises(ValidationError):
        FunctionalId("G_alpha", alpha=2.5)
    with pytest.raises(ValidationError):
        FunctionalId("H_alpha", alpha=1.6)
    with pytest.raises(ValidationError):
        FunctionalId("G_alpha")
    with pytest.raises(ValidationError):  # --functional G_alpha without --alpha
        parse_functional("G_alpha")


def test_dimension_gate():
    assert FunctionalId("G").dimension_ok(3) and not FunctionalId("G").dimension_ok(2)
    assert FunctionalId("H").dimension_ok(2) and not FunctionalId("H").dimension_ok(3)
    with pytest.raises(ValidationError):
        evaluate(FunctionalId("H"), Ball(1.0, np.zeros(3)))
    with pytest.raises(ValidationError):
        evaluate(FunctionalId("G"), Ball(1.0, np.zeros(2)))


def test_alpha_families_extend_base_functionals():
    # G is G_alpha at alpha=2 and H is H_alpha at alpha=3/2: identical
    # exponents, hence identical values through the same assembly path
    for d in (3, 4, 6):
        assert FunctionalId("G_alpha", 2.0).exponents(d) == FunctionalId("G").exponents(d)
    assert FunctionalId("H_alpha", 1.5).exponents(2) == FunctionalId("H").exponents(2)
    body = Ellipsoid(np.array([2.0, 1.0, 0.7]))
    vG = evaluate(FunctionalId("G"), body).value
    vGa = evaluate(FunctionalId("G_alpha", 2.0), body).value
    assert vG == vGa
    disk = Ellipsoid(np.array([2.0, 1.0]))
    assert evaluate(FunctionalId("H"), disk).value == \
        evaluate(FunctionalId("H_alpha", 1.5), disk).value


def test_ball_values():
    assert FunctionalId("G").ball_value(3) == pytest.approx(0.2)
    assert FunctionalId("H").ball_value(2) == pytest.approx(ex.H_BALL)
    assert FunctionalId("G_alpha", 0.0).ball_value(3) == pytest.approx(
        1.0 / (180 * math.pi), rel=1e-13)


# ---------------------------------------------------------------------------
# evaluation on exact backends
# ---------------------------------------------------------------------------

def test_unit_ball_attains_ball_value():
    for d in (3, 4, 5):
        ev = evaluate(FunctionalId("G"), Ball(1.0, np.zeros(d)))
        assert ev.value == pytest.approx(ex.g_ball(d), rel=1e-12)
        assert ev.stderr == 0.0
    ev = evaluate(FunctionalId("H"), Ball(1.0, np.zeros(2)))
    assert ev.value == pytest.approx(ex.H_BALL, rel=1e-12)


def test_h_disk_known_ellipse_value():
    # H on the ellipse (2,1): T = pi 8/20, cap_log = 3/2, V = 2 pi
    # => sqrt(0.4 pi) * 1.5 / (2 pi)^1.5
    ev = evaluate(FunctionalId("H"), Ellipsoid(np.array([2.0, 1.0])))
    expected = math.sqrt(0.4 * math.pi) * 1.5 / (2 * math.pi) ** 1.5
    assert ev.value == pytest.approx(expected, rel=1e-13)


def test_ellipsoid_g_matches_direct_quadrature():
    a = np.array([2.0, 1.0, 0.5])
    ev = evaluate(FunctionalId("G"), Ellipsoid(a))
    assert ev.value == pytest.approx(ex.g_ellipsoid_direct(a), rel=1e-9)


def test_components_and_bracket_exact():
    ev = evaluate(FunctionalId("G"), Ball(1.0, np.zeros(3)))
    assert set(ev.components) == {"T", "cap", "V"}
    assert all(c.backend == "exact" for c in ev.components.values())
    assert ev.bracket == (ev.value, ev.value)


def test_components_skips_unused_perimeter():
    # G has no perimeter exponent, G_alpha(1) does
    ev = evaluate(FunctionalId("G"), Ball(1.0, np.zeros(3)))
    assert "P" not in ev.components
    ev2 = evaluate(FunctionalId("G_alpha", 1.0), Ball(1.0, np.zeros(3)))
    assert "P" in ev2.components


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.3, 3.0), min_size=3, max_size=5),
       st.floats(0.5, 2.0), st.floats(0.0, 2.0))
def test_scale_invariance_exact(axes, t, alpha):
    body = Ellipsoid(np.array(axes))
    f = FunctionalId("G_alpha", alpha)
    v1 = evaluate(f, body).value
    v2 = evaluate(f, Ellipsoid(t * np.array(axes))).value
    assert v2 == pytest.approx(v1, rel=1e-10)


def test_ball_is_maximizer_among_random_ellipsoids():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rng.uniform(0.2, 5.0, size=3)
        ev = evaluate(FunctionalId("G"), Ellipsoid(a))
        assert ev.value <= 0.2 * (1 + 1e-12)


# ---------------------------------------------------------------------------
# stochastic backends
# ---------------------------------------------------------------------------

def test_stochastic_evaluation_cube():
    cfg = EstimatorConfig(walk_count=8000, seed=1)
    ev = evaluate(FunctionalId("G"), Polytope(cube_vertices(3)), cfg)
    assert ev.components["T"].backend == "wos_torsion"
    assert ev.components["cap"].backend == "wos_capacity"
    assert ev.components["V"].backend == "exact"
    assert ev.stderr > 0
    assert ev.bracket[0] < ev.value < ev.bracket[1]
    # the unit ball maximizes G; a cube must land strictly below 0.2
    assert ev.value < 0.2


def test_stochastic_evaluation_finite_bracket_at_1000_walks():
    ev = evaluate(FunctionalId("G"), Polytope(cube_vertices(3)),
                  EstimatorConfig(walk_count=1000))
    assert math.isfinite(ev.bracket[0]) and math.isfinite(ev.bracket[1])
    assert ev.bracket[0] < ev.value < ev.bracket[1]


def test_stochastic_evaluation_square_h():
    cfg = EstimatorConfig(walk_count=5000, seed=2)
    ev = evaluate(FunctionalId("H"), Polytope(cube_vertices(2)), cfg)
    assert ev.components["cap"].backend == "symm"
    assert 0 < ev.value < ex.H_BALL


def test_evaluation_to_dict_roundtrippable():
    ev = evaluate(FunctionalId("G_alpha", 1.0), Ball(1.0, np.zeros(3)))
    doc = ev.to_dict()
    assert doc["functional"] == "G_alpha(1)"
    assert doc["components"]["T"]["backend"] == "exact"
    assert doc["bracket"] == [ev.value, ev.value]


def test_components_are_the_backends_estimates():
    # an Evaluation carries each backend's Estimate whole, counters included
    cfg = EstimatorConfig(walk_count=2000, seed=3)
    cube = Polytope(cube_vertices(3))
    comp = evaluate(FunctionalId("G"), cube, cfg).components
    for key, est in (("T", wos_torsion(cube, cfg)), ("cap", wos_capacity(cube, cfg))):
        assert comp[key].value == est.value
        assert comp[key].standard_error == est.standard_error
        assert comp[key].extra["diag"] == est.extra["diag"]


@pytest.mark.parametrize("f, body", [
    (FunctionalId("G_alpha", 1.0), Ball(1.0, np.zeros(3))),        # exact
    (FunctionalId("G"), Polytope(cube_vertices(3))),               # walks
    (FunctionalId("H_alpha", 1.0), Polytope(cube_vertices(2))),    # walks, symm
])
def test_evaluation_to_dict_component_keys(f, body):
    # a walk estimate also writes its counters; exact and symm have none
    ev = evaluate(f, body, EstimatorConfig(walk_count=1000))
    for key, entry in ev.to_dict()["components"].items():
        walks = entry["backend"] in ("wos_torsion", "wos_capacity")
        assert set(entry) == {"backend", "stderr", "value"} | ({"diag"} if walks else set())
        if walks:
            assert entry["diag"] == ev.components[key].extra["diag"]
