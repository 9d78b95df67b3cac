"""Command-line surface: compute functionals, run the inequality ledger,
search shape families, and emit the divergent-sequence table."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__, bounds, geometry, search
from .errors import (
    DegenerateEstimateError,
    InternalConsistencyError,
    RankDeficiencyError,
    ShapeFnError,
    StuckWalkError,
    UnsupportedRepresentationError,
    ValidationError,
)
from .estimators import EstimatorConfig
from .functionals import KINDS, evaluate, parse_functional

EXIT_OK = 0
EXIT_LEDGER_FAILURE = 1
EXIT_VALIDATION = 2
EXIT_ESTIMATOR = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# the one JSON writer and the one CSV writer
# ---------------------------------------------------------------------------

def _plain(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise ValidationError(f"cannot serialize {type(obj).__name__}")


def dumps(obj):
    """Deterministic JSON: sorted keys, shortest round-trip floats."""
    return json.dumps(obj, sort_keys=True, indent=1, default=_plain)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _manifest(args, cfg=None, bodies=(), outputs=()):
    """Run manifest; cfg is None for the exact counterexample table."""
    doc = {"command": args.command,
           "bodies": list(bodies),
           "functional": getattr(args, "functional", None),
           "outputs": list(outputs),
           "version": __version__}
    if cfg is not None:
        doc.update(config=cfg.to_dict(), seed=cfg.seed)
    return doc


def _config(args):
    return EstimatorConfig(walk_count=args.walks, seed=args.seed)


def _emit(doc, path=None):
    text = dumps(doc) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_compute(args):
    with open(args.body) as fh:
        body = geometry.body_from_dict(json.load(fh))
    f = parse_functional(args.functional, args.alpha)
    cfg = _config(args)
    ev = evaluate(f, body, cfg)
    _emit({"evaluation": ev.to_dict(),
           "manifest": _manifest(args, cfg, bodies=[args.body])},
          args.output)
    return EXIT_OK


def _load_corpus(directory):
    bodies, errors = {}, []
    try:
        names = sorted(os.listdir(directory))
    except OSError as e:
        raise ValidationError(str(e))
    for name in names:
        if not name.endswith(".json"):
            continue
        path = os.path.join(directory, name)
        try:
            with open(path) as fh:
                bodies[name[:-5]] = geometry.body_from_dict(json.load(fh))
        except (OSError, ValueError, ArithmeticError, ShapeFnError) as e:
            errors.append(f"{name}: {e}")
    return bodies, errors


def cmd_verify(args):
    bodies, errors = _load_corpus(args.corpus)
    for line in errors:
        sys.stderr.write(f"skipped {line}\n")
    if not bodies:
        sys.stderr.write("no usable bodies in corpus\n")
        return EXIT_VALIDATION
    cfg = _config(args)
    alphas = tuple(float(a) for a in args.alphas.split(","))
    rows, summary = bounds.ledger(bodies, cfg, alphas=alphas,
                                  epsilon=args.epsilon)
    skipped = summary.pop("skipped")
    for body_id, why in skipped.items():
        sys.stderr.write(f"skipped {body_id}.json: {why}\n")
    _write_csv(args.out_csv,
               ["theorem", "body_id", "lhs", "rhs", "slack", "stderr", "status"],
               [[f"{r.theorem}({r.inequality})", r.body_id, r.lhs, r.rhs,
                 r.slack, r.stderr, r.status] for r in rows])
    with open(args.out_json, "w") as fh:
        fh.write(dumps([r.to_dict() for r in rows]) + "\n")
    _emit({"summary": summary,
           "manifest": _manifest(args, cfg, bodies=sorted(set(bodies) - set(skipped)),
                                 outputs=[args.out_csv, args.out_json])})
    return EXIT_LEDGER_FAILURE if summary[bounds.FAIL] else EXIT_OK


def cmd_search(args):
    f = parse_functional(args.functional, args.alpha)
    cfg = _config(args)
    if args.epsilon is not None:
        result = search.maximize_constrained(
            f, args.dim, args.epsilon, cfg, restarts=args.restarts,
            seed=args.search_seed)
    else:
        family = search.Family(args.family, args.dim)
        result = search.maximize(f, family, cfg, restarts=args.restarts,
                                 seed=args.search_seed)
    _emit({"result": result.to_dict(), "manifest": _manifest(args, cfg)},
          args.output)
    return EXIT_OK


def cmd_counterexample(args):
    if args.kmax < 1:
        raise ValidationError("--kmax must be at least 1")
    ks = [1 << i for i in range(args.kmax.bit_length())] + [args.kmax]
    rows = search.counterexample_sequence(args.dim, args.beta, ks)
    table = [r.to_dict() for r in rows]
    if args.out_csv:
        cols = ["k", "G_lower", "G_upper", "volume", "torsion", "cap_lower",
                "cap_upper"]
        _write_csv(args.out_csv, cols, [[row[c] for c in cols] for row in table])
    _emit({"table": table,
           "manifest": _manifest(args, outputs=[args.out_csv] if args.out_csv else [])})
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--walks", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0, help="estimator seed")


def build_parser():
    ap = argparse.ArgumentParser(prog="shapefn")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="evaluate a functional on a body")
    p.add_argument("body")
    p.add_argument("--functional", required=True, choices=list(KINDS))
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--output", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("verify", help="run the inequality ledger on a corpus")
    p.add_argument("corpus")
    p.add_argument("--out-csv", default="ledger.csv")
    p.add_argument("--out-json", default="ledger.json")
    p.add_argument("--alphas", default="0,1")
    p.add_argument("--epsilon", type=float, default=0.1)
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("search", help="maximize a functional over a family")
    p.add_argument("--functional", required=True, choices=list(KINDS))
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--family", default="ellipsoids",
                   choices=["ellipsoids", "boxes", "capsules"])
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=None,
                   help="volume-constrained slab-cut search")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--search-seed", type=int, default=0)
    p.add_argument("--output", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("counterexample",
                       help="divergent union-of-balls G-interval table")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--kmax", type=int, default=2 ** 22)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(fn=cmd_counterexample)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # a measure out of double precision range is an error; underflow is not
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.fn(args)
    except (ValidationError, RankDeficiencyError, UnsupportedRepresentationError,
            OSError, ValueError, ArithmeticError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_VALIDATION
    except (StuckWalkError, DegenerateEstimateError) as e:
        sys.stderr.write(f"estimator failure: {e}\n")
        return EXIT_ESTIMATOR
    except InternalConsistencyError as e:
        sys.stderr.write(f"internal consistency failure: {e}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
