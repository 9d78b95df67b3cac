import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import shapefn
from shapefn import bounds, cli, estimators, geometry
from shapefn.cli import (
    EXIT_ESTIMATOR,
    EXIT_INTERNAL,
    EXIT_LEDGER_FAILURE,
    EXIT_OK,
    EXIT_VALIDATION,
)
from shapefn.errors import InternalConsistencyError, StuckWalkError, ValidationError

from helpers import cube_vertices


def write_body(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def ball3(tmp_path):
    return write_body(tmp_path / "ball3.json",
                      {"kind": "ball", "radius": 1.0, "center": [0, 0, 0]})


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# deterministic serializer
# ---------------------------------------------------------------------------

def test_dumps_scalars():
    assert cli.dumps(None) == "null"
    assert cli.dumps(True) == "true"
    assert cli.dumps(3) == "3"
    assert cli.dumps(0.1) == "0.1"
    assert cli.dumps(8.0) == "8.0"
    assert cli.dumps(math.inf) == "Infinity"
    assert cli.dumps(-math.inf) == "-Infinity"
    assert cli.dumps("a\"b") == '"a\\"b"'


def test_dumps_float_roundtrip():
    for x in (1 / 3, 1e-300, 2.0 ** 1023, 4 * math.pi, -0.0):
        assert float(cli.dumps(x)) == x


def test_dumps_sorted_keys_and_numpy():
    doc = {"b": np.float64(1.5), "a": np.int64(2), "c": np.arange(3)}
    text = cli.dumps(doc)
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    parsed = json.loads(text)
    assert parsed == {"a": 2, "b": 1.5, "c": [0, 1, 2]}


def test_dumps_rejects_unknown():
    with pytest.raises(ValidationError):
        cli.dumps(object())


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def test_compute_ball_exact(ball3, capsys, tmp_path):
    out_path = tmp_path / "out.json"
    code, out, _ = run(["compute", ball3, "--functional", "G",
                        "--output", str(out_path)], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["evaluation"]["value"] == pytest.approx(0.2, rel=1e-12)
    assert doc["manifest"]["command"] == "compute"
    assert json.loads(out_path.read_text()) == doc


def test_compute_missing_file(capsys):
    code, _, err = run(["compute", "/nonexistent.json", "--functional", "G"],
                       capsys)
    assert code == EXIT_VALIDATION
    assert "error" in err


def test_compute_wrong_dimension(ball3, capsys):
    code, _, err = run(["compute", ball3, "--functional", "H"], capsys)
    assert code == EXIT_VALIDATION


def test_compute_with_a_seed_outside_64_bits_is_a_validation_error(ball3, capsys):
    # the seed would key its stream modulo 2^64, unlike the one the manifest records
    code, out, err = run(["compute", ball3, "--functional", "G", "--seed", "-1"], capsys)
    assert code == EXIT_VALIDATION
    assert out == "" and "seed" in err


@pytest.mark.parametrize("doc", [
    {"kind": "ellipsoid", "semi_axes": [math.inf, 1.0, 1.0]},
    {"kind": "ball", "radius": math.inf, "center": [0, 0, 0]},
    {"kind": "ball", "radius": 1.0, "center": [math.nan, 0, 0]},
    {"kind": "polytope", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, -math.inf]]},
], ids=["ellipsoid-inf-axis", "ball-inf-radius", "ball-nan-center", "polytope-inf-vertex"])
def test_compute_on_non_finite_parameters_is_a_validation_error(doc, tmp_path, capsys):
    body = write_body(tmp_path / "body.json", doc)
    code, out, err = run(["compute", body, "--functional", "G", "--walks", "1000"], capsys)
    assert code == EXIT_VALIDATION
    assert out == "" and "finite" in err


CUBE4 = {"kind": "polytope",
         "vertices": np.array(np.meshgrid(*[[-1.0, 1.0]] * 4)).reshape(4, -1).T.tolist()}


# a triangle that numpy's rank test passes and Qhull finds flat
FLAT_TRIANGLE = {"kind": "polytope", "vertices": [[0, 0], [1, 0], [0.5, 1e-15]]}


@pytest.mark.parametrize("doc, message", [
    (CUBE4, "d <= 3"),
    ({"kind": "ball", "radius": "1", "center": [0, 0, 0]}, "malformed body field"),
    ([1, 2], "JSON object"),
    (FLAT_TRIANGLE, "QH6154"),
    # measures out of double precision range
    ({"kind": "ball", "radius": 1e120, "center": [0, 0, 0]}, "overflow"),
    ({"kind": "ellipsoid", "semi_axes": [1e-200, 1, 1]}, "divide by zero"),
], ids=["cube4", "string-radius", "list", "flat-triangle", "huge-ball", "thin-ellipsoid"])
def test_compute_on_an_unusable_document_is_a_validation_error(doc, message, tmp_path, capsys):
    body = write_body(tmp_path / "body.json", doc)
    code, out, err = run(["compute", body, "--functional", "G", "--walks", "1000"], capsys)
    assert code == EXIT_VALIDATION
    assert out == "" and message in err


def test_compute_h_on_planar_ball_union_is_a_validation_error(tmp_path, capsys):
    pair = write_body(tmp_path / "pair.json", {
        "kind": "ball_union", "centers": [[0.0, 0.0], [4.0, 0.0]], "radii": [1.0, 1.0]})
    code, _, err = run(["compute", pair, "--functional", "H", "--walks", "1000"], capsys)
    assert code == EXIT_VALIDATION
    assert "error" in err


def test_compute_h_on_planar_round_capsule_is_a_validation_error(tmp_path, capsys):
    capsule = write_body(tmp_path / "capsule.json", {
        "kind": "capsule", "p": [0.0, 0.0], "q": [4.0, 0.0], "radius": 0.5})
    code, _, err = run(["compute", capsule, "--functional", "H", "--walks", "1000"], capsys)
    assert code == EXIT_VALIDATION
    assert "error" in err


@pytest.mark.parametrize("doc, functional", [
    ({"kind": "capsule", "p": [0, 0], "q": [1, 0], "radius": 0}, "H"),
    ({"kind": "capsule", "p": [0, 0, 0], "q": [1, 0, 0], "radius": 0}, "G"),
], ids=["segment2-H", "segment3-G"])
def test_compute_on_a_body_without_interior_is_a_validation_error(doc, functional, tmp_path):
    # no walk can start inside a segment, so interior sampling would never
    # end; a process of its own under a timeout turns a hang into a failure
    segment = write_body(tmp_path / "segment.json", doc)
    src = str(Path(shapefn.__file__).parent.parent)
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-m", "shapefn.cli", "compute", segment,
                           "--functional", functional, "--walks", "1000"],
                          capture_output=True, text=True, env=env, timeout=30)
    assert done.returncode == EXIT_VALIDATION
    assert "interior" in done.stderr


@pytest.mark.parametrize("half_width", [2.0 ** 100, 2.0 ** -100, 1e30, 1e-30],
                         ids=["2^100", "2^-100", "1e30", "1e-30"])
@pytest.mark.parametrize("d, functional", [(3, "G"), (2, "H")], ids=["cube", "square"])
def test_compute_on_a_cube_is_the_same_at_every_scale(d, functional, half_width, tmp_path,
                                                      capsys):
    # the inradius LP is solved at unit scale: HiGHS would read offsets of
    # 1e20 and more as infinite, and drop those of 1e-15 and less
    def compute(t):
        cube = write_body(tmp_path / "cube.json", {"kind": "polytope",
                                                   "vertices": (t * cube_vertices(d)).tolist()})
        code, out, err = run(["compute", cube, "--functional", functional,
                              "--walks", "2000", "--seed", "3"], capsys)
        assert code == EXIT_OK, err
        return json.loads(out)["evaluation"]

    unit, scaled = compute(1.0), compute(half_width)
    assert scaled["value"] == pytest.approx(unit["value"], rel=1e-12)
    assert scaled["stderr"] == pytest.approx(unit["stderr"], rel=1e-12)


def test_compute_alpha_functional(ball3, capsys):
    code, out, _ = run(["compute", ball3, "--functional", "G_alpha",
                        "--alpha", "1.0"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["evaluation"]["functional"] == "G_alpha(1)"


@pytest.mark.parametrize("argv", [
    ["compute", "BALL", "--functional", "G", "--alpha", "1"],
    ["search", "--functional", "G", "--alpha", "1", "--dim", "3", "--restarts", "1"],
], ids=["compute", "search"])
def test_alpha_for_g_is_a_validation_error(argv, ball3, capsys):
    # G takes no alpha: one given is refused, not ignored
    code, out, err = run([ball3 if a == "BALL" else a for a in argv], capsys)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "takes no alpha" in err


@pytest.fixture()
def cube(tmp_path):
    return write_body(tmp_path / "cube.json", {
        "kind": "polytope",
        "vertices": np.array(np.meshgrid(*[[-1.0, 1.0]] * 3)).reshape(3, -1).T.tolist()})


def test_compute_at_1000_walks_prints_no_infinity(cube, capsys):
    code, out, _ = run(["compute", cube, "--functional", "G", "--walks", "1000"], capsys)
    assert code == EXIT_OK
    assert "Infinity" not in out


def test_compute_writes_the_walk_counters_alike_in_two_processes(cube):
    # the counters are deterministic, and every walk ends absorbed or in the
    # roulette
    src = str(Path(shapefn.__file__).parent.parent)
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    outs = [subprocess.run([sys.executable, "-m", "shapefn.cli", "compute", cube,
                            "--functional", "G", "--walks", "1000"],
                           capture_output=True, env=env, timeout=60, check=True).stdout
            for _ in range(2)]
    assert outs[0] == outs[1]
    components = json.loads(outs[0])["evaluation"]["components"]
    for name in ("T", "cap"):
        diag = components[name]["diag"]
        assert diag["absorbed"] + diag["roulette_kills"] == 1000
        assert diag["walker_steps"] > 0


def test_compute_estimator_failure_exits_3(cube, capsys, monkeypatch):
    def stuck(body, cfg=None):
        raise StuckWalkError("capacity walk exceeded step budget")

    monkeypatch.setattr(estimators, "wos_capacity", stuck)
    code, _, err = run(["compute", cube, "--functional", "G", "--walks", "1000"], capsys)
    assert code == EXIT_ESTIMATOR
    assert "estimator failure" in err


@pytest.mark.parametrize("argv", [
    ["compute", "body.json", "--functional", "G", "--shell-epsilon", "1e-6"],
    ["verify", "corpus", "--shell-epsilon", "1e-6"],
    ["verify", "corpus", "--self-test-tamper"],
], ids=["compute-shell-epsilon", "verify-shell-epsilon", "verify-self-test-tamper"])
def test_removed_flags_are_usage_errors(argv, capsys):
    # the shell width is fixed and the tamper control lives in the tests
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == EXIT_VALIDATION
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@pytest.fixture()
def corpus(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    write_body(d / "ball3.json", {"kind": "ball", "radius": 1.0,
                                  "center": [0, 0, 0]})
    write_body(d / "ellipse.json", {"kind": "ellipsoid",
                                    "semi_axes": [2.0, 1.0]})
    write_body(d / "ell4.json", {"kind": "ellipsoid",
                                 "semi_axes": [2.0, 1.0, 1.0, 0.8]})
    return d


def test_verify_clean_corpus(corpus, capsys, tmp_path):
    out_csv = str(tmp_path / "ledger.csv")
    out_json = str(tmp_path / "ledger.json")
    code, out, _ = run(["verify", str(corpus), "--out-csv", out_csv,
                        "--out-json", out_json, "--walks", "2000"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 0
    assert doc["summary"]["rows"] > 0
    with open(out_csv, newline="") as fh:
        lines = list(csv.reader(fh))
    assert len(lines) == doc["summary"]["rows"] + 1
    with open(out_json) as fh:
        assert len(json.load(fh)) == doc["summary"]["rows"]


def test_verify_skips_bad_files(corpus, capsys, tmp_path):
    (corpus / "broken.json").write_text("{not json")
    (corpus / "unknown.json").write_text('{"kind": "torus"}')
    (corpus / "notes.txt").write_text("ignored")
    code, out, err = run(["verify", str(corpus),
                          "--out-csv", str(tmp_path / "l.csv"),
                          "--out-json", str(tmp_path / "l.json"),
                          "--walks", "2000"], capsys)
    assert code == EXIT_OK
    assert "skipped broken.json" in err
    assert "skipped unknown.json" in err
    assert json.loads(out)["summary"]["fail"] == 0


@pytest.mark.parametrize("flat", [
    {"kind": "polytope", "vertices": [[0, 0], [1, 1], [2, 2], [3, 3]]},
    FLAT_TRIANGLE,
], ids=["collinear", "flat-to-qhull"])
def test_verify_skips_collinear_polygon(flat, corpus, capsys, tmp_path):
    write_body(corpus / "flat.json", flat)
    code, out, err = run(["verify", str(corpus),
                          "--out-csv", str(tmp_path / "l.csv"),
                          "--out-json", str(tmp_path / "l.json"),
                          "--walks", "2000"], capsys)
    assert code == EXIT_OK
    assert "skipped flat.json" in err
    assert "flat" not in json.loads(out)["manifest"]["bodies"]


def test_verify_skips_non_finite_bodies(corpus, capsys, tmp_path):
    write_body(corpus / "nan_ball.json", {"kind": "ball", "radius": math.nan,
                                          "center": [0, 0, 0]})
    code, out, err = run(["verify", str(corpus),
                          "--out-csv", str(tmp_path / "l.csv"),
                          "--out-json", str(tmp_path / "l.json"),
                          "--walks", "2000"], capsys)
    assert code == EXIT_OK
    assert "skipped nan_ball.json" in err
    doc = json.loads(out)
    assert "nan_ball" not in doc["manifest"]["bodies"]
    assert doc["summary"]["fail"] == 0
    with open(tmp_path / "l.json") as fh:
        assert not any(math.isnan(r["lhs"]) for r in json.load(fh))


def test_verify_skips_a_body_out_of_double_precision_range(tmp_path, capsys):
    # the torsional rigidity of a ball of radius 1e308 overflows; verify names
    # the file and the quantity, leaves the body out and verifies the rest
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_body(corpus / "ball3.json", {"kind": "ball", "radius": 1.0, "center": [0, 0, 0]})
    write_body(corpus / "huge.json", {"kind": "ball", "radius": 1e308, "center": [0, 0, 0]})
    code, out, err = run(["verify", str(corpus),
                          "--out-csv", str(tmp_path / "l.csv"),
                          "--out-json", str(tmp_path / "l.json"),
                          "--walks", "1000"], capsys)
    assert code == EXIT_OK
    skipped = [line for line in err.splitlines() if line.startswith("skipped ")]
    assert skipped == ["skipped huge.json: torsional rigidity: overflow encountered in reduce"]
    doc = json.loads(out)
    assert doc["manifest"]["bodies"] == ["ball3"]
    assert "skipped" not in doc["summary"] and doc["summary"]["fail"] == 0
    with open(tmp_path / "l.json") as fh:
        assert {r["body_id"] for r in json.load(fh)} == {"ball3", "const_d3"}


def test_verify_skips_a_4d_polytope_and_a_list(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_body(corpus / "ball3.json", {"kind": "ball", "radius": 1.0, "center": [0, 0, 0]})
    write_body(corpus / "cube4.json", CUBE4)
    write_body(corpus / "list.json", [1, 2])
    code, out, err = run(["verify", str(corpus),
                          "--out-csv", str(tmp_path / "l.csv"),
                          "--out-json", str(tmp_path / "l.json"),
                          "--walks", "1000"], capsys)
    assert code == EXIT_OK
    skipped = [line for line in err.splitlines() if line.startswith("skipped ")]
    assert len(skipped) == 2
    assert skipped[0].startswith("skipped cube4.json") and "d <= 3" in skipped[0]
    assert skipped[1].startswith("skipped list.json") and "JSON object" in skipped[1]
    assert json.loads(out)["manifest"]["bodies"] == ["ball3"]
    with open(tmp_path / "l.json") as fh:
        assert "ball3" in {r["body_id"] for r in json.load(fh)}


def test_verify_skips_one_dimensional_bodies(tmp_path, capsys):
    # a 1-D ball, capsule or ball union is refused when it is built, as a 1-D
    # polytope is, so verify names it and goes on with the rest
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_body(corpus / "ball3.json", {"kind": "ball", "radius": 1.0, "center": [0, 0, 0]})
    write_body(corpus / "b1.json", {"kind": "ball", "radius": 1, "center": [0]})
    write_body(corpus / "b1_scalar.json", {"kind": "ball", "radius": 1, "center": 0})
    write_body(corpus / "capsule1.json", {"kind": "capsule", "p": [0], "q": [1], "radius": 0.5})
    write_body(corpus / "union1.json", {"kind": "ball_union", "centers": [[0], [5]],
                                        "radii": [1, 1]})
    code, out, err = run(["verify", str(corpus),
                          "--out-csv", str(tmp_path / "l.csv"),
                          "--out-json", str(tmp_path / "l.json"),
                          "--walks", "1000"], capsys)
    assert code == EXIT_OK
    skipped = [line for line in err.splitlines() if line.startswith("skipped ")]
    assert [line.split(":")[0] for line in skipped] == [
        "skipped b1.json", "skipped b1_scalar.json", "skipped capsule1.json",
        "skipped union1.json"]
    assert all("dimension >= 2" in line for line in skipped)
    assert json.loads(out)["manifest"]["bodies"] == ["ball3"]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_verify_non_finite_epsilon_is_a_validation_error(corpus, value, capsys, tmp_path):
    code, _, err = run(["verify", str(corpus), "--epsilon", value,
                        "--out-csv", str(tmp_path / "l.csv"),
                        "--out-json", str(tmp_path / "l.json"),
                        "--walks", "2000"], capsys)
    assert code == EXIT_VALIDATION
    assert "epsilon must be finite" in err


def test_verify_empty_corpus(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    code, _, err = run(["verify", str(d)], capsys)
    assert code == EXIT_VALIDATION
    assert "no usable bodies" in err


def test_verify_corpus_whose_every_body_is_skipped(tmp_path, capsys):
    # it fails as the empty corpus does, after naming the skipped bodies
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_body(corpus / "huge.json", {"kind": "ball", "radius": 1e308, "center": [0, 0, 0]})
    code, out, err = run(["verify", str(corpus),
                          "--out-csv", str(tmp_path / "l.csv"),
                          "--out-json", str(tmp_path / "l.json")], capsys)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.splitlines() == [
        "skipped huge.json: torsional rigidity: overflow encountered in reduce",
        "no usable bodies in corpus"]
    assert not (tmp_path / "l.csv").exists() and not (tmp_path / "l.json").exists()


def test_verify_missing_dir(capsys):
    code, _, _ = run(["verify", "/no/such/dir"], capsys)
    assert code == EXIT_VALIDATION


def test_verify_tamper_negative_control(corpus, capsys, tmp_path, monkeypatch):
    # the ledger reports one finite passing row as failed: verify must exit 1
    ledger = bounds.ledger

    def tampered(*args, **kwargs):
        rows, summary = ledger(*args, **kwargs)
        i = next(i for i, r in enumerate(rows)
                 if r.status == bounds.PASS and math.isfinite(r.rhs))
        r = rows[i]
        rows[i] = dataclasses.replace(r, lhs=2.0 * abs(r.rhs) + 1.0, status=bounds.FAIL,
                                      extra=dict(r.extra, tampered=True))
        summary[bounds.PASS] -= 1
        summary[bounds.FAIL] += 1
        return rows, summary

    monkeypatch.setattr(bounds, "ledger", tampered)
    code, out, _ = run(["verify", str(corpus),
                        "--out-csv", str(tmp_path / "l.csv"),
                        "--out-json", str(tmp_path / "l.json"),
                        "--walks", "2000"], capsys)
    assert code == EXIT_LEDGER_FAILURE
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 1
    tampered = [r for r in json.loads((tmp_path / "l.json").read_text())
                if r["extra"].get("tampered")]
    assert len(tampered) == 1 and tampered[0]["status"] == "fail"


def test_internal_consistency_failure_exits_4(corpus, capsys, monkeypatch, tmp_path):
    def uncontained(body):
        raise InternalConsistencyError("inner John ellipsoid not contained in body")

    monkeypatch.setattr(geometry, "john_pair", uncontained)
    code, out, err = run(["verify", str(corpus), "--out-csv", str(tmp_path / "l.csv"),
                          "--out-json", str(tmp_path / "l.json")], capsys)
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == ("internal consistency failure: "
                   "inner John ellipsoid not contained in body\n")


def test_verify_needle_ellipsoids(tmp_path, capsys):
    # axis ratios down to 1e-6 in d = 2..6 stay on the exact backends: a
    # fixed quadrature rule, so seconds at most and no estimator failure
    d = tmp_path / "needles"
    d.mkdir()
    for name, axes in (("n5", [1, 1, 1, 1, 1e-6]), ("n6", [1, 1, 1, 1, 1, 1e-3]),
                       ("n4", [1, 1, 1, 1e-6]), ("n2", [2, 1e-6])):
        write_body(d / f"{name}.json", {"kind": "ellipsoid", "semi_axes": axes})
    t0 = time.perf_counter()
    code, out, _ = run(["verify", str(d), "--out-csv", str(tmp_path / "l.csv"),
                        "--out-json", str(tmp_path / "l.json")], capsys)
    assert time.perf_counter() - t0 < 5.0
    assert code == EXIT_OK
    assert json.loads(out)["summary"]["fail"] == 0
    rows = json.loads((tmp_path / "l.json").read_text())
    assert rows and all(r["status"] != "fail" for r in rows)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_ellipsoids(capsys):
    code, out, _ = run(["search", "--functional", "G", "--dim", "3",
                        "--restarts", "3"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["result"]["best_value"] == pytest.approx(0.2, abs=1e-7)


def test_search_constrained(capsys):
    code, out, _ = run(["search", "--functional", "G", "--dim", "4",
                        "--epsilon", "0.0", "--restarts", "2"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["result"]["best_value"] == pytest.approx(1.0 / 3.0, abs=1e-5)
    assert doc["result"]["extra"]["epsilon"] == 0.0


@pytest.mark.parametrize("argv", [
    ["--family", "ellipsoids", "--dim", "3"],
    ["--family", "boxes", "--dim", "3"],
    ["--family", "capsules", "--dim", "3"],
    ["--dim", "4", "--epsilon", "0.05"],
], ids=["ellipsoids", "boxes", "capsules", "constrained"])
def test_search_without_restarts_is_a_validation_error(argv, capsys):
    code, _, err = run(["search", "--functional", "G", "--restarts", "0"] + argv, capsys)
    assert code == EXIT_VALIDATION
    assert "restarts must be at least 1" in err


def test_search_bad_epsilon(capsys):
    code, _, err = run(["search", "--functional", "G", "--dim", "4",
                        "--epsilon", "0.5"], capsys)
    assert code == EXIT_VALIDATION


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------

def test_counterexample_table(capsys, tmp_path):
    out_csv = tmp_path / "table.csv"
    code, out, _ = run(["counterexample", "--kmax", "1024",
                        "--out-csv", str(out_csv)], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    ks = [row["k"] for row in doc["table"]]
    assert ks == [2 ** i for i in range(11)]
    assert all(row["G_lower"] <= row["G_upper"] for row in doc["table"])
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "k,G_lower,G_upper,volume,torsion,cap_lower,cap_upper"
    assert len(lines) == len(ks) + 1
    # round-trippable 17-digit floats in the CSV
    first = lines[1].split(",")
    assert float(first[1]) == doc["table"][0]["G_lower"]


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("dim, beta, kmax", [(3, 0.5, 8), (3, 0.5, 2 ** 22),
                                             (4, 0.4, 10 ** 5), (5, 0.3, 5000)])
def test_counterexample_repeats_its_pinned_table(dim, beta, kmax, capsys, tmp_path,
                                                 monkeypatch):
    # the JSON and the CSV, byte for byte as pinned in tests/data; the CSV is
    # written in the working directory so that the manifest names it alike
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["counterexample", "--dim", str(dim), "--beta", str(beta),
                        "--kmax", str(kmax), "--out-csv", "table.csv"], capsys)
    assert code == EXIT_OK
    stem = f"counterexample_d{dim}_beta{beta}_kmax{kmax}"
    assert out == (DATA / f"{stem}.json").read_text()
    assert (tmp_path / "table.csv").read_bytes() == (DATA / f"{stem}.csv").read_bytes()


def test_counterexample_bad_beta(capsys):
    code, _, _ = run(["counterexample", "--beta", "2.0", "--kmax", "4"], capsys)
    assert code == EXIT_VALIDATION


def test_counterexample_kmax_below_one(capsys):
    code, _, err = run(["counterexample", "--kmax", "0"], capsys)
    assert code == EXIT_VALIDATION
    assert "kmax" in err


def test_counterexample_takes_no_estimator_flags(capsys):
    # the table is exact: no walk count, shell width or seed to set or report
    with pytest.raises(SystemExit) as exc:
        cli.main(["counterexample", "--kmax", "4", "--walks", "1000"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(["counterexample", "--kmax", "4"], capsys)
    assert code == EXIT_OK
    manifest = json.loads(out)["manifest"]
    assert "config" not in manifest and "seed" not in manifest


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_pyproject_version_matches_package():
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', text, re.M).group(1) == shapefn.__version__
