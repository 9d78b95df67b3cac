"""The three benchmark workloads: seeded inputs, one timed pass, and the
checks of each pass's output against independent references.

Every workload is a closed loop: one caller runs one operation at a time in
one process, single-threaded. Every pass of a run repeats the same input. A
pass returns the seconds of its timed phase, the operations it attempted,
the ones that failed, and what the run-level checks need.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from shapefn import bounds, cli, exact_ellipsoid, geometry, search
from shapefn.errors import ShapeFnError
from shapefn.estimators import EstimatorConfig
from shapefn.functionals import parse_functional

LEDGER_MC_WALKS = 10_000  # 10 batch means; with fewer, chance fails of the reference checks grow
SLAB_DIM, SLAB_EPSILON = 4, 0.05
SLAB_WALKS, SLAB_RESTARTS, SLAB_MAX_EVALS, SLAB_SEARCH_SEED = 1000, 1, 2, 0

# independent references for the stochastic ledger
SQUARE_TORSION = 0.5623080598137711  # [-1, 1]^2, series solution
SQUARE_LOGCAP = 2.0 * math.gamma(0.25) ** 2 / (4.0 * math.pi ** 1.5)
# [-1, 1]^3; Hwang & Mascagni, J. Appl. Phys. 95, 3798 (2004)
CUBE_CAPACITY = 4.0 * math.pi * 2.0 * 0.660678
# A walk-on-spheres standard error comes from the batch means, 10 of them at
# LEDGER_MC_WALKS, so (estimate - reference) / s.e. of a correct estimator
# follows Student's t with 9 degrees of freedom, not the normal law: a bare
# "4 s.e." check fails a correct estimator 0.31 % of the time. The walk
# checks use the t quantile with the two-sided tail of 4 normal s.e.
# (6.3e-5): scipy.stats.t.isf(scipy.stats.norm.sf(4), 9) = 6.9986. The
# deterministic Fekete check keeps 4.
WALK_SE_MULTIPLE = 7.0
FEKETE_SE_MULTIPLE = 4.0
SQUARE = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
CUBE = np.array(np.meshgrid(*[[-1.0, 1.0]] * 3)).reshape(3, -1).T


@dataclass
class PassResult:
    seconds: float
    attempted: int
    failed: int
    problems: list        # human-readable reasons for failures
    outputs: tuple = None  # must repeat on every pass over the same input
    info: dict = field(default_factory=dict)


def _rotation(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _write_corpus(directory, docs):
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    for name, doc in docs.items():
        (directory / f"{name}.json").write_text(json.dumps(doc))
    return {name: geometry.body_from_dict(json.loads((directory / f"{name}.json")
                                                     .read_text()))
            for name in docs}


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def exact_corpus(rng):
    """Balls, axis-aligned ellipsoids and rotated off-centre ellipsoids in
    d = 2..6, with their semi-axes for the reference G."""
    docs, axes = {}, {}
    for d in range(2, 7):
        r = float(rng.uniform(0.5, 2.0))
        docs[f"d{d}_ball"] = {"kind": "ball", "radius": r,
                              "center": rng.uniform(-1, 1, d).tolist()}
        axes[f"d{d}_ball"] = np.full(d, r)
        a = np.exp(rng.uniform(math.log(0.5), math.log(2.0), d))
        docs[f"d{d}_ellipsoid"] = {"kind": "ellipsoid", "semi_axes": a.tolist()}
        axes[f"d{d}_ellipsoid"] = a
        a = np.exp(rng.uniform(math.log(0.5), math.log(2.0), d))
        docs[f"d{d}_rotated"] = {"kind": "ellipsoid", "semi_axes": a.tolist(),
                                 "center": rng.uniform(-1, 1, d).tolist(),
                                 "orientation": _rotation(rng, d).tolist()}
        axes[f"d{d}_rotated"] = a
    return docs, axes


def mc_corpus(rng):
    """The cube, the square, a random 12-vertex 3-D polytope and a random
    heptagon. The random vertices lie on a sphere or circle (jittered
    Fibonacci / equiangular positions), so every vertex is extreme and the
    cost of a pass barely depends on the seed."""
    n3 = 12
    k = np.arange(n3) + 0.5
    z = 1.0 - 2.0 * k / n3 + rng.normal(0.0, 0.05, n3)
    phi = math.pi * (1.0 + math.sqrt(5.0)) * k + rng.normal(0.0, 0.15, n3)
    rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    P = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    P = rng.uniform(0.8, 1.25) * P @ _rotation(rng, 3).T
    n2 = 7
    t = (2.0 * math.pi * (np.arange(n2) + rng.uniform(-0.25, 0.25, n2)) / n2
         + rng.uniform(0.0, 2.0 * math.pi))
    Q = rng.uniform(0.8, 1.25) * np.stack([np.cos(t), np.sin(t)], axis=1)
    return {"cube": {"kind": "polytope", "vertices": CUBE.tolist()},
            "square": {"kind": "polytope", "vertices": SQUARE.tolist()},
            "polytope3": {"kind": "polytope", "vertices": P.tolist()},
            "polygon": {"kind": "polytope", "vertices": Q.tolist()}}


# ---------------------------------------------------------------------------
# ledger workloads: `shapefn verify` in-process
# ---------------------------------------------------------------------------

# per-layer counts that must stay 0 in the traced run: the layers each
# workload is designed to bypass
EXACT_IDLE = ("estimators.wos_torsion.walker_steps",
              "estimators.wos_capacity.walker_steps",
              "estimators.fekete_logcap.calls")
MC_IDLE = ("geometry.signed_distance.pts.ellipsoid",
           "exact_ellipsoid.cap_newtonian_ellipsoid.calls",
           "exact_ellipsoid.torsion_ellipsoid.us_per_call",
           "exact_ellipsoid.adaptive_gl.calls")
SLAB_IDLE = tuple(f"geometry.{k}.pts.polytope{d}" for d in (2, 3)
                  for k in ("signed_distance", "boundary_distance_lower"))


class Ledger:
    """`cli.main(["verify", ...])` over a corpus written in set-up."""

    def __init__(self, seed, out_dir, stochastic):
        self.seed = seed
        self.stochastic = stochastic
        self.idle_layers = MC_IDLE if stochastic else EXACT_IDLE
        self.dir = out_dir
        self.corpus = out_dir / "corpus"
        self.ledger_json = out_dir / "ledger.json"
        self.reference_g = {}

    def setup(self):
        rng = np.random.default_rng([self.seed, 1 if self.stochastic else 0])
        self.cfg_seed = int(rng.integers(2 ** 31))
        if self.stochastic:
            docs, self.axes = mc_corpus(rng), {}
        else:
            docs, self.axes = exact_corpus(rng)
        self.bodies = _write_corpus(self.corpus, docs)

    def argv(self):
        argv = ["verify", str(self.corpus), "--out-csv", str(self.dir / "ledger.csv"),
                "--out-json", str(self.ledger_json), "--seed", str(self.cfg_seed)]
        if self.stochastic:
            argv += ["--walks", str(LEDGER_MC_WALKS)]
        return argv

    def run_pass(self, tracer):
        self.ledger_json.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            code = tracer.span("cli.main", cli.main, self.argv())
            seconds = time.perf_counter() - t0
        with tracer.paused():
            return self._check(seconds, code, stdout.getvalue(), stderr.getvalue(),
                               tracer.returns)

    def _check(self, seconds, code, stdout, stderr, returns):
        names = sorted(self.bodies)
        if code != 0 or not self.ledger_json.exists():
            return PassResult(seconds, len(names), len(names),
                              [f"verify exited {code}: {stderr.strip()[-300:]}"])
        text = self.ledger_json.read_text()
        rows = json.loads(text)
        bad = {}
        allowed = set(bounds.enumerated_row_types())
        for row in rows:
            rtype = f"{row['theorem']}:{row['inequality']}"
            if rtype not in allowed:
                bad.setdefault(row["body_id"], []).append(f"row type {rtype}")
            if row["status"] == bounds.FAIL:
                bad.setdefault(row["body_id"], []).append(f"fail row {rtype}")
        g_rows = {r["body_id"]: r["lhs"] for r in rows
                  if (r["theorem"], r["inequality"]) == ("Thm2", "e32a")}
        for body_id, axes in self.axes.items():
            if axes.size < 3:
                continue
            if body_id not in g_rows:
                bad.setdefault(body_id, []).append("no Thm2:e32a row")
                continue
            ref = self._reference_g(body_id)
            if abs(g_rows[body_id] - ref) > 1e-9 * abs(ref):
                bad.setdefault(body_id, []).append(
                    f"G {g_rows[body_id]!r} vs direct {ref!r}")
        if self.stochastic:
            for body_id, why in self._reference_checks(returns):
                bad.setdefault(body_id, []).append(why)
        problems = [f"{b}: {', '.join(w)}" for b, w in sorted(bad.items())]
        failed = sum(1 for b in names if b in bad)
        if any(b not in self.bodies for b in bad):
            failed = len(names)  # a constant-only row failed: the pass is wrong
        return PassResult(seconds, len(names), failed, problems,
                          outputs=(stdout, text),
                          info={"s_to_1pct_factor": _accuracy_factor(rows)})

    def _reference_g(self, body_id):
        if body_id not in self.reference_g:
            self.reference_g[body_id] = exact_ellipsoid.g_ellipsoid_direct(
                self.axes[body_id])
        return self.reference_g[body_id]

    def _reference_checks(self, returns):
        """Stochastic estimates of the square and the cube against their
        references, within WALK_SE_MULTIPLE (walks) or FEKETE_SE_MULTIPLE
        standard errors."""
        wanted = [("estimators.wos_torsion", SQUARE, "square", SQUARE_TORSION,
                   "torsion", WALK_SE_MULTIPLE),
                  ("estimators.fekete_logcap", SQUARE, "square", SQUARE_LOGCAP,
                   "log capacity", FEKETE_SE_MULTIPLE),
                  ("estimators.wos_capacity", CUBE, "cube", CUBE_CAPACITY,
                   "capacity", WALK_SE_MULTIPLE)]
        for fn, vertices, body_id, ref, what, multiple in wanted:
            hits = [est for name, body, est, _ in returns
                    if name == fn and _same_polytope(body, vertices)]
            if len(hits) != 1:
                yield body_id, f"{len(hits)} {what} estimates seen, expected 1"
                continue
            est = hits[0]
            if not abs(est.value - ref) <= multiple * est.standard_error:
                yield body_id, (f"{what} {est.value!r} +- {est.standard_error!r} "
                                f"vs reference {ref!r}, over {multiple:.3g} s.e.")


def _same_polytope(body, vertices):
    V = getattr(body, "vertices", None)
    if V is None or V.shape != vertices.shape:
        return False
    key = np.lexsort(V.T[::-1])
    ref = np.lexsort(vertices.T[::-1])
    return bool(np.array_equal(V[key], vertices[ref]))


def _accuracy_factor(rows):
    """mean_i (se_i / (0.01 |v_i|))^2 over the stochastic G (Thm2:e32a) and
    H (Thm4:e65a) values; s_to_1pct is wall time times this factor."""
    terms = [(r["stderr"] / (0.01 * abs(r["lhs"]))) ** 2 for r in rows
             if (r["theorem"], r["inequality"]) in (("Thm2", "e32a"), ("Thm4", "e65a"))
             and r["stderr"] > 0]
    return sum(terms) / len(terms) if terms else None


# ---------------------------------------------------------------------------
# slab_search: scaled-down criterion 10
# ---------------------------------------------------------------------------

class SlabSearch:
    """`search.maximize_constrained(G, d=4, epsilon=0.05)` at 1000 walks: one
    Nelder-Mead restart of two objective evaluations (its start and one
    simplex vertex), plus the search's re-evaluation of its best body.

    The search seed is criterion 10's (0) and only the estimator seed comes
    from the workload seed: the cost of an evaluation depends mostly on the
    start shape (727 to 1254 exact-distance calls over five start shapes,
    against 1075 to 1154 over five estimator seeds of one shape), so seeded
    starts would make wall_s differ by about 20 % between workload seeds."""

    idle_layers = SLAB_IDLE

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.f = parse_functional("G")
        self.g_ball = exact_ellipsoid.g_ball(SLAB_DIM)

    def setup(self):
        rng = np.random.default_rng([self.seed, 2])
        self.cfg = EstimatorConfig(walk_count=SLAB_WALKS, seed=int(rng.integers(2 ** 31)))

    def run_pass(self, tracer):
        evals0, failed0 = tracer.evals, tracer.failed_evals
        problems = []
        result = None
        t0 = time.perf_counter()
        try:
            result = search.maximize_constrained(
                self.f, SLAB_DIM, SLAB_EPSILON, self.cfg, restarts=SLAB_RESTARTS,
                seed=SLAB_SEARCH_SEED, max_evals=SLAB_MAX_EVALS)
        except ShapeFnError as e:
            problems.append(f"{type(e).__name__}: {e}")
        seconds = time.perf_counter() - t0
        attempted = max(tracer.evals - evals0, 1)
        raised = tracer.failed_evals - failed0
        info = {}
        if result is not None:
            extra = result.extra
            if not extra["diam_over_inradius"] <= extra["ratio_bound"]:
                problems.append(f"diam/inradius {extra['diam_over_inradius']!r} above "
                                f"{extra['ratio_bound']!r}")
            if not (math.isfinite(result.best_value) and result.best_value > 0):
                problems.append(f"best value {result.best_value!r}")
            if result.best_eval.value != result.best_value:
                problems.append(f"re-evaluated best {result.best_eval.value!r} differs "
                                f"from the search's {result.best_value!r}")
            info["best_over_gball"] = result.best_value / self.g_ball
        # a wrong search result fails every evaluation of the pass; otherwise
        # only the evaluations that raised (and that maximize scored as 1e9)
        failed = attempted if problems else raised
        if raised:
            problems.append(f"{raised} objective evaluations raised")
        return PassResult(seconds, attempted, failed, problems,
                          outputs=(repr(result.best_value) if result else None,),
                          info=info)


WORKLOADS = {
    "ledger_exact": lambda seed, out_dir: Ledger(seed, out_dir, stochastic=False),
    "ledger_mc": lambda seed, out_dir: Ledger(seed, out_dir, stochastic=True),
    "slab_search": SlabSearch,
}
