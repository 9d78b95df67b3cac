import csv
import json
import math

import numpy as np
import pytest

from shapefn import bounds, exact_ellipsoid as ex
from shapefn.bounds import (
    FAIL,
    INCONCLUSIVE,
    OUT_OF_REGIME,
    PASS,
    VACUOUS,
    BoundReport,
    check_constraint_constants,
    check_planar,
    check_thm1,
    check_thm2,
    check_thm6,
    enumerated_row_types,
    ledger,
    thm3_c_constant,
    write_csv,
    write_json,
)
from shapefn.errors import InternalConsistencyError, ValidationError
from shapefn.estimators import EstimatorConfig
from shapefn.geometry import Ball, Ellipsoid, Polytope


def cube_vertices(d, half=1.0):
    return np.array(np.meshgrid(*[[-1.0, 1.0]] * d)).reshape(d, -1).T * half


CFG = EstimatorConfig(walk_count=4000, seed=0)


# ---------------------------------------------------------------------------
# row plumbing
# ---------------------------------------------------------------------------

def test_status_classification():
    assert bounds._status(1.0, 2.0, 0.0, 1e-10) == PASS
    assert bounds._status(2.0, 1.0, 0.0, 1e-10) == FAIL
    # lhs above rhs but within 3 standard errors: inconclusive
    assert bounds._status(1.05, 1.0, 0.05, 1e-10) == INCONCLUSIVE
    assert bounds._status(2.0, 1.0, 0.01, 1e-10) == FAIL


def test_row_enumeration_guard():
    with pytest.raises(InternalConsistencyError):
        bounds._row("Thm1", "e99", "b", 0.0, 1.0)
    with pytest.raises(KeyError):
        bounds._row("Thm9", "e22", "b", 0.0, 1.0)


def test_slack():
    r = BoundReport("Thm2", "e32", "b", 0.1, 0.2, PASS)
    assert r.slack == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# d >= 3 theorem checks on exact bodies
# ---------------------------------------------------------------------------

def test_thm1_ball_rows():
    rows = check_thm1(Ball(1.0, np.zeros(3)), CFG, "ball")
    by_id = {r.inequality: r for r in rows}
    # the ball attains G(B_1), so the conditional row is live, and the axis
    # ratio 1 gives log lhs = 0
    assert by_id["e22"].status == PASS
    assert by_id["e22"].extra["antecedent_held"]
    assert by_id["e22"].lhs == pytest.approx(0.0, abs=1e-12)
    assert by_id["e26"].status == PASS


def test_thm1_flat_ellipsoid_vacuous():
    # strongly non-spherical: G < G(B_1), antecedent fails
    rows = check_thm1(Ellipsoid(np.array([5.0, 1.0, 0.2])), CFG, "flat")
    e22 = next(r for r in rows if r.inequality == "e22")
    assert e22.status == VACUOUS
    assert not e22.extra["antecedent_held"]


def test_thm2_rows_ellipsoid():
    rows = check_thm2(Ellipsoid(np.array([2.0, 1.0, 1.0, 0.5])), CFG, "e4")
    ids = {r.inequality for r in rows}
    assert ids == {"e32", "e32a", "e33"}
    assert all(r.status == PASS for r in rows)
    e33 = next(r for r in rows if r.inequality == "e33")
    assert e33.extra["eccentricity"] == pytest.approx(ex.eccentricity(
        np.array([2.0, 1.0, 1.0, 0.5]))[0])
    # the bound reads the ellipsoid's own axes: rotation, centre and axis
    # order leave it unchanged to the bit
    Q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)))
    moved = Ellipsoid(np.array([1.0, 0.5, 2.0, 1.0]), np.array([0.3, -0.2, 0.1, 0.5]), Q)
    e33m = next(r for r in check_thm2(moved, CFG, "e4m") if r.inequality == "e33")
    assert e33m.rhs == e33.rhs and e33m.extra == e33.extra
    assert e33m.lhs == pytest.approx(e33.lhs, rel=1e-14) and e33m.status == PASS


def test_thm2_no_e33_for_d3():
    rows = check_thm2(Ball(1.0, np.zeros(3)), CFG, "ball")
    assert {r.inequality for r in rows} == {"e32", "e32a"}


def test_thm2_e33_known_value_at_d4_ball():
    # C = 1 for the ball: rhs = G(B_1) d(d-3)/((d-1)(d-2)) / (1 - 1/2)
    rows = check_thm2(Ball(1.0, np.zeros(4)), CFG, "b4")
    e33 = next(r for r in rows if r.inequality == "e33")
    gb = ex.g_ball(4)
    assert e33.rhs == pytest.approx(gb * 4 * 1 / (3 * 2) / 0.5, rel=1e-12)
    assert e33.rhs == pytest.approx(4.0 / 9.0, rel=1e-12)


def test_thm6_rows():
    rows = check_thm6(Ball(1.0, np.zeros(3)), alphas=(0.0, 2.0), cfg=CFG,
                      body_id="ball")
    kinds = sorted((r.inequality, r.extra["alpha"]) for r in rows)
    assert kinds == [("e81", 0.0), ("e81", 2.0), ("e82", 0.0), ("e82", 2.0),
                     ("e89", 0.0), ("e89", 2.0)]
    e82_0 = next(r for r in rows if r.inequality == "e82" and r.extra["alpha"] == 0.0)
    # alpha=0, d=3: exponent (2d^2+2d+2)/2 = 13, constant 2 d^13
    assert e82_0.lhs == pytest.approx(2.0 * 3 ** 13)
    assert e82_0.lhs == 2 * 1594323
    e82_2 = next(r for r in rows if r.inequality == "e82" and r.extra["alpha"] == 2.0)
    assert e82_2.status == OUT_OF_REGIME


# ---------------------------------------------------------------------------
# constrained-problem constants
# ---------------------------------------------------------------------------

def test_critical_epsilon_values():
    rows = check_constraint_constants(4, 0.1)
    crit = next(r for r in rows if r.inequality == "e43")
    assert crit.rhs == pytest.approx(math.sqrt(3.0 / 2.0) - 1.0, rel=1e-12)
    rows2 = check_constraint_constants(2, 0.1)
    crit2 = next(r for r in rows2 if r.inequality == "e69")
    assert crit2.rhs == pytest.approx(2.0 ** (1.0 / 3.0) - 1.0, rel=1e-12)


def test_d2_bound_value_at_zero():
    rows = check_constraint_constants(2, 0.0)
    b = next(r for r in rows if r.inequality == "e71")
    assert b.lhs == pytest.approx(2.0 ** (11.0 / 3.0) / (2.0 ** (1.0 / 3.0) - 1.0),
                                  rel=1e-12)
    assert b.status == PASS
    assert b.extra["diverges_at_critical"]


def test_d4_bound_value_at_zero():
    rows = check_constraint_constants(4, 0.0)
    b = next(r for r in rows if r.inequality == "e45")
    # 2^4 sqrt(4 * 3^4 * 2 / 1) * (1 - 8/6)^{-3} -- q = 1 - d(d-3)/((d-1)(d-2))
    q = 1.0 - 4.0 * 1.0 / (3.0 * 2.0)
    expected = 16.0 * math.sqrt(4.0 * 81.0 * 2.0) * q ** -3
    assert b.lhs == pytest.approx(expected, rel=1e-12)
    assert b.extra["c_constant"] == pytest.approx(thm3_c_constant(4, 0.0))
    assert thm3_c_constant(4, 0.0) == pytest.approx(math.sqrt(3.0) / q, rel=1e-12)


def test_out_of_regime_epsilon():
    rows = check_constraint_constants(2, 0.5)  # above 2^{1/3} - 1
    assert all(r.status == OUT_OF_REGIME for r in rows)
    with pytest.raises(ValidationError):
        check_constraint_constants(3, 0.1)


# ---------------------------------------------------------------------------
# planar checks
# ---------------------------------------------------------------------------

def test_planar_disk_rows():
    rows = check_planar(Ball(1.0, np.zeros(2)), alphas=(0.0, 1.0), cfg=CFG,
                        body_id="disk")
    ids = sorted({r.inequality for r in rows})
    assert ids == ["e65", "e65a", "e65iii", "e92e", "e93", "e95"]
    assert all(r.status in (PASS, OUT_OF_REGIME) for r in rows)
    e65 = next(r for r in rows if r.inequality == "e65")
    # the disk attains H(B_1) exactly
    assert e65.lhs == pytest.approx(e65.rhs, rel=1e-12)


def test_planar_e65iii_disk_constant():
    rows = check_planar(Ball(1.0, np.zeros(2)), cfg=CFG, body_id="disk")
    r = next(r for r in rows if r.inequality == "e65iii")
    assert r.rhs == pytest.approx(2.0 ** 0.5 * ex.H_BALL, rel=1e-12)


def test_planar_e95_constant():
    rows = check_planar(Ball(1.0, np.zeros(2)), alphas=(0.0,), cfg=CFG)
    r = next(r for r in rows if r.inequality == "e95")
    assert r.lhs == pytest.approx(2.0 * math.pi ** 2, rel=1e-12)


def test_planar_square():
    cfg = EstimatorConfig(walk_count=4000, seed=1)
    rows = check_planar(Polytope(cube_vertices(2)), alphas=(1.0,), cfg=cfg,
                        body_id="square")
    # non-ellipse: no sharp rows, but all coarse rows must hold
    ids = {r.inequality for r in rows}
    assert "e65" not in ids and "e92e" not in ids
    assert all(r.status in (PASS, OUT_OF_REGIME, INCONCLUSIVE) for r in rows)


def test_planar_rejects_3d():
    with pytest.raises(ValidationError):
        check_planar(Ball(1.0, np.zeros(3)))


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_ledger():
    bodies = {
        "ball3": Ball(1.0, np.zeros(3)),
        "ell4": Ellipsoid(np.array([2.0, 1.0, 1.0, 0.8])),
        "disk": Ball(1.0, np.zeros(2)),
        "ellipse": Ellipsoid(np.array([2.0, 1.0])),
    }
    return ledger(bodies, CFG, alphas=(0.0, 1.0), epsilon=0.1)


def test_ledger_no_failures(small_ledger):
    rows, summary = small_ledger
    assert summary[FAIL] == 0
    assert summary["rows"] == len(rows)
    assert summary[PASS] > 0


def test_ledger_row_types_within_enumeration(small_ledger):
    rows, summary = small_ledger
    assert set(summary["row_types"]) <= set(enumerated_row_types())
    # this corpus covers d=2, d=3 and d=4, so every row type appears
    assert set(summary["row_types"]) == set(enumerated_row_types())


def test_ledger_sorted_and_deterministic(small_ledger):
    rows, _ = small_ledger
    keys = [(r.body_id, r.theorem, r.inequality) for r in rows]
    assert keys == sorted(keys)


def test_ledger_rejects_empty():
    with pytest.raises(ValidationError):
        ledger({}, CFG)


def test_ledger_auto_ids():
    rows, summary = ledger([Ball(1.0, np.zeros(3))], CFG, epsilon=0.1)
    assert all(r.body_id in ("body000", "const_d3") for r in rows)
    assert summary[FAIL] == 0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_write_csv_and_json(tmp_path, small_ledger):
    rows, _ = small_ledger
    csv_path = tmp_path / "ledger.csv"
    json_path = tmp_path / "ledger.json"
    write_csv(rows, csv_path)
    write_json(rows, json_path)

    with open(csv_path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["theorem", "body_id", "lhs", "rhs", "slack", "stderr",
                      "status"]
    assert len(got) == len(rows) + 1
    # repr round-trip: lhs column reparses to the exact float
    for line, row in zip(got[1:], rows):
        assert float(line[2]) == row.lhs or (math.isnan(row.lhs))

    doc = json.loads(json_path.read_text())
    assert len(doc) == len(rows)
    assert {r["status"] for r in doc} <= {PASS, FAIL, INCONCLUSIVE, VACUOUS,
                                          OUT_OF_REGIME}
