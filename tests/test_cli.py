import csv
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

import shapefn
from shapefn import cli
from shapefn.cli import EXIT_ESTIMATOR, EXIT_LEDGER_FAILURE, EXIT_OK, EXIT_VALIDATION
from shapefn.errors import ValidationError


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
    assert cli.dumps(0.1) == "0.10000000000000001"
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


def test_compute_seed_env_default(ball3, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SHAPEFN_SEED", "99")
    code, out, _ = run(["compute", ball3, "--functional", "G"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["manifest"]["seed"] == 99


def test_compute_alpha_functional(ball3, capsys):
    code, out, _ = run(["compute", ball3, "--functional", "G_alpha",
                        "--alpha", "1.0"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["evaluation"]["functional"] == "G_alpha(1)"


def test_compute_at_1000_walks_prints_no_infinity(tmp_path, capsys):
    cube = write_body(tmp_path / "cube.json", {
        "kind": "polytope",
        "vertices": np.array(np.meshgrid(*[[-1.0, 1.0]] * 3)).reshape(3, -1).T.tolist()})
    code, out, _ = run(["compute", cube, "--functional", "G", "--walks", "1000"], capsys)
    assert code == EXIT_OK
    assert "Infinity" not in out


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


def test_verify_skips_collinear_polygon(corpus, capsys, tmp_path):
    write_body(corpus / "flat.json", {"kind": "polytope",
                                      "vertices": [[0, 0], [1, 1], [2, 2], [3, 3]]})
    code, out, err = run(["verify", str(corpus),
                          "--out-csv", str(tmp_path / "l.csv"),
                          "--out-json", str(tmp_path / "l.json"),
                          "--walks", "2000"], capsys)
    assert code == EXIT_OK
    assert "skipped flat.json" in err
    assert "flat" not in json.loads(out)["manifest"]["bodies"]


def test_verify_empty_corpus(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    code, _, err = run(["verify", str(d)], capsys)
    assert code == EXIT_VALIDATION
    assert "no usable bodies" in err


def test_verify_missing_dir(capsys):
    code, _, _ = run(["verify", "/no/such/dir"], capsys)
    assert code == EXIT_VALIDATION


def test_verify_tamper_negative_control(corpus, capsys, tmp_path):
    code, out, _ = run(["verify", str(corpus), "--self-test-tamper",
                        "--out-csv", str(tmp_path / "l.csv"),
                        "--out-json", str(tmp_path / "l.json"),
                        "--walks", "2000"], capsys)
    assert code == EXIT_LEDGER_FAILURE
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 1
    tampered = [r for r in json.loads((tmp_path / "l.json").read_text())
                if r["extra"].get("tampered")]
    assert len(tampered) == 1 and tampered[0]["status"] == "fail"


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
