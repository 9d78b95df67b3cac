"""In-memory spans and counters around shapefn's public functions.

Each traced name is patched where its caller looks it up (a module global
or a name imported into another module), so the program itself is not
edited. A span is (name, kind, start, end, parent, points); counters are
kept at the same boundaries. A ``Tracer(spans=False)``, as the untraced run
uses, installs only the cheap captures the output checks need (estimator
returns and objective-evaluation counts).
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time

import numpy as np

import shapefn.bounds
import shapefn.estimators
import shapefn.exact_ellipsoid
import shapefn.functionals
import shapefn.geometry
import shapefn.search
from shapefn.errors import ShapeFnError

KINDS = ("ball", "ellipsoid", "polytope2", "polytope3", "slab")
ESTIMATORS = ("wos_torsion", "wos_capacity")

# (module, attribute) lookups that reach each traced function; a function
# imported by name into another module is patched there as well
_KERNELS = {
    "geometry.signed_distance": [(shapefn.geometry, "signed_distance"),
                                 (shapefn.estimators, "signed_distance")],
    "geometry.boundary_distance_lower": [(shapefn.estimators, "boundary_distance_lower")],
}
_TIMED = {
    "geometry.john_pair": [(shapefn.geometry, "john_pair")],
    "geometry.loewner_ellipsoid": [(shapefn.geometry, "loewner_ellipsoid")],
    "geometry.diameter_inradius": [(shapefn.geometry, "diameter_inradius"),
                                   (shapefn.estimators, "diameter_inradius")],
    "geometry.perimeter": [(shapefn.geometry, "perimeter")],
    "exact_ellipsoid.torsion_ellipsoid": [(shapefn.exact_ellipsoid, "torsion_ellipsoid")],
    "exact_ellipsoid.cap_newtonian_ellipsoid": [(shapefn.exact_ellipsoid,
                                                 "cap_newtonian_ellipsoid")],
    "functionals.compute_components": [(shapefn.functionals, "compute_components"),
                                       (shapefn.bounds, "compute_components")],
    "bounds.ledger": [(shapefn.bounds, "ledger")],
    "search.maximize": [(shapefn.search, "maximize")],
}
# captured in every pass, traced or not: the output checks read these
_CAPTURED = {
    "estimators.wos_torsion": [(shapefn.estimators, "wos_torsion")],
    "estimators.wos_capacity": [(shapefn.estimators, "wos_capacity")],
    "estimators.fekete_logcap": [(shapefn.estimators, "fekete_logcap")],
    "search.evaluate": [(shapefn.search, "evaluate")],
}


def body_kind(body):
    name = type(body).__name__
    if name == "Polytope":
        return f"polytope{body.dimension}"
    if name == "SlabBody":
        return "slab"
    return name.lower()


def _n_points(points):
    return int(np.atleast_2d(np.asarray(points)).shape[0])


class Tracer:
    """Patches shapefn for one run; `uninstall` restores every name."""

    def __init__(self, spans):
        self.spans_on = spans
        self.recording = True
        self.spans = []      # [name, kind, start, end, parent, points]
        self.stack = []      # indices of open spans
        self.estimator = []  # names of enclosing estimator spans
        self.counts = {}
        self.returns = []    # (name, body, Estimate, seconds) per estimator call
        self.evals = 0
        self.failed_evals = 0
        self._saved = []

    # -- patching ---------------------------------------------------------

    def install(self):
        groups = [(_CAPTURED, self._captured)]
        if self.spans_on:
            groups += [(_KERNELS, self._kernel), (_TIMED, self._timed)]
        for table, make in groups:
            for name, sites in table.items():
                original = getattr(*sites[0])
                wrapper = make(name, original)
                for module, attr in sites:
                    self._saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, wrapper)
        if self.spans_on:
            self._patch(shapefn.estimators, "minimize_scalar", self._line_search)
            self._patch(shapefn.exact_ellipsoid, "adaptive_gl", self._quadrature)
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _patch(self, module, attr, make):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.estimator.clear()
        self.counts.clear()
        self.returns.clear()
        self.evals = self.failed_evals = 0

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        before, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = before

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- spans ------------------------------------------------------------

    def _open(self, name, kind=None, points=0):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, kind, time.perf_counter(), None, parent, points])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][3] = time.perf_counter()

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span of the given name (for the benchmark's own
        calls into the program, such as cli.main)."""
        if not (self.spans_on and self.recording):
            return fn(*args, **kwargs)
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def _kernel(self, name, fn):
        @functools.wraps(fn)
        def wrapper(body, points, *args, **kwargs):
            if not self.recording:
                return fn(body, points, *args, **kwargs)
            n = _n_points(points)
            if self.estimator and name == "geometry.boundary_distance_lower":
                self.count((self.estimator[-1], "walker_steps"), n)
            self._open(name, body_kind(body), n)
            try:
                return fn(body, points, *args, **kwargs)
            finally:
                self._close()
        return wrapper

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            kind = None
            if name == "exact_ellipsoid.cap_newtonian_ellipsoid":
                kind = "d3" if np.asarray(args[0]).size == 3 else "d4plus"
            self._open(name, kind)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            if name == "bounds.ledger":
                bodies = args[0]
                self.count(("bounds.ledger", "bodies"), len(bodies))
                summary = out[1]
                for key, status in (("rows", "rows"), ("rows.fail", "fail"),
                                    ("rows.inconclusive", "inconclusive"),
                                    ("rows.vacuous", "vacuous")):
                    self.count(("bounds", key), summary[status])
            return out
        return wrapper

    def _captured(self, name, fn):
        is_estimator = name.startswith("estimators.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            timing = self.spans_on and self.recording
            if timing:
                self._open(name)
            t0 = time.perf_counter()
            if is_estimator:
                self.estimator.append(name)
            try:
                out = fn(*args, **kwargs)
            except ShapeFnError:
                if name == "search.evaluate":
                    self.failed_evals += 1
                raise
            finally:
                if is_estimator:
                    self.estimator.pop()
                if timing:
                    self._close()
                if name == "search.evaluate":
                    self.evals += 1
            if is_estimator:
                self.returns.append((name, args[0], out, time.perf_counter() - t0))
            return out
        return wrapper

    def _line_search(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.recording:
                self.count(("estimators.fekete_logcap", "line_searches"))
            return fn(*args, **kwargs)
        return wrapper

    def _quadrature(self, fn):
        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            if not self.recording:
                return fn(f, *args, **kwargs)
            self.count(("exact_ellipsoid.adaptive_gl", "calls"))

            def counted(x):
                self.count(("exact_ellipsoid.adaptive_gl", "nodes"), len(x))
                return f(x)
            return fn(counted, *args, **kwargs)
        return wrapper

    # -- reduction --------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics of everything recorded since the last reset.
        Counts are 0 and rates 0 where a layer did no work."""
        dur = {}
        self_time = {}
        calls = {}
        child = [0.0] * len(self.spans)
        for name, kind, t0, t1, parent, pts in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        per_call_pts = {}
        pts_total = {}
        for i, (name, kind, t0, t1, parent, pts) in enumerate(self.spans):
            key = (name, kind)
            dur[key] = dur.get(key, 0.0) + (t1 - t0)
            self_time[key] = self_time.get(key, 0.0) + (t1 - t0 - child[i])
            calls[key] = calls.get(key, 0) + 1
            if pts:
                pts_total[key] = pts_total.get(key, 0) + pts
                per_call_pts.setdefault(key, []).append(pts)

        def total(name, table=dur):
            return sum(v for (n, _), v in table.items() if n == name)

        def ncalls(name):
            return sum(v for (n, _), v in calls.items() if n == name)

        m = {}
        for kernel in _KERNELS:
            for kind in KINDS:
                key = (kernel, kind)
                n = pts_total.get(key, 0)
                m[f"{kernel}.us_per_pt.{kind}"] = 1e6 * dur[key] / n if n else 0.0
                m[f"{kernel}.pts.{kind}"] = n
                if kernel == "geometry.signed_distance":
                    m[f"{kernel}.pts_per_call.{kind}"] = (
                        statistics.median(per_call_pts[key]) if n else 0)
        m["geometry.john_pair.s"] = total("geometry.john_pair")
        m["geometry.john_pair.calls"] = ncalls("geometry.john_pair")
        m["geometry.loewner_ellipsoid.s"] = total("geometry.loewner_ellipsoid")
        m["geometry.diameter_inradius.s"] = total("geometry.diameter_inradius")
        m["geometry.diameter_inradius.calls"] = ncalls("geometry.diameter_inradius")
        m["geometry.perimeter.s"] = total("geometry.perimeter")

        fallback = {}
        for name, kind, t0, t1, parent, pts in self.spans:
            if name != "geometry.signed_distance":
                continue
            # a fallback is a call from inside an estimator that is not
            # nested in another kernel call (SlabBody's inner ellipsoid call)
            up = parent
            if up >= 0 and self.spans[up][0] == "geometry.signed_distance":
                continue
            while up >= 0 and not self.spans[up][0].startswith("estimators."):
                up = self.spans[up][4]
            if up >= 0:
                owner = self.spans[up][0]
                fallback[owner] = fallback.get(owner, 0) + pts
        for est in ESTIMATORS:
            name = f"estimators.{est}"
            s = total(name)
            steps = self.counts.get((name, "walker_steps"), 0)
            eff = [_efficiency(out, sec) for _, _, out, sec in self._returns_of(name)]
            m[f"{name}.s"] = s
            m[f"{name}.self_s"] = total(name, self_time)
            m[f"{name}.calls"] = ncalls(name)
            m[f"{name}.walker_steps"] = steps
            m[f"{name}.steps_per_s"] = steps / s if s else 0.0
            m[f"{name}.fallback_frac"] = fallback.get(name, 0) / steps if steps else 0.0
            m[f"{name}.efficiency"] = statistics.median(eff) if eff else 0.0
        name = "estimators.fekete_logcap"
        fek = self._returns_of(name)
        m[f"{name}.s"] = total(name)
        m[f"{name}.calls"] = ncalls(name)
        m[f"{name}.line_searches"] = self.counts.get((name, "line_searches"), 0)
        m[f"{name}.converged_frac"] = (
            sum(bool(out.extra.get("converged")) for _, _, out, _ in fek) / len(fek)
            if fek else 0.0)

        name = "exact_ellipsoid.cap_newtonian_ellipsoid"
        for kind in ("d3", "d4plus"):
            n = calls.get((name, kind), 0)
            m[f"{name}.us_per_call.{kind}"] = 1e6 * dur[(name, kind)] / n if n else 0.0
        m[f"{name}.calls"] = ncalls(name)
        name = "exact_ellipsoid.torsion_ellipsoid"
        n = ncalls(name)
        m[f"{name}.us_per_call"] = 1e6 * total(name) / n if n else 0.0
        m["exact_ellipsoid.adaptive_gl.nodes"] = self.counts.get(
            ("exact_ellipsoid.adaptive_gl", "nodes"), 0)
        m["exact_ellipsoid.adaptive_gl.calls"] = self.counts.get(
            ("exact_ellipsoid.adaptive_gl", "calls"), 0)

        name = "functionals.compute_components"
        m[f"{name}.s"] = total(name)
        m[f"{name}.self_s"] = total(name, self_time)
        m[f"{name}.calls"] = ncalls(name)

        s = total("bounds.ledger")
        n_bodies = self.counts.get(("bounds.ledger", "bodies"), 0)
        m["bounds.ledger.s"] = s
        m["bounds.ledger.self_s"] = total("bounds.ledger", self_time)
        m["bounds.ledger.s_per_body"] = s / n_bodies if n_bodies else 0.0
        for key in ("rows", "rows.fail", "rows.inconclusive", "rows.vacuous"):
            m[f"bounds.{key}"] = self.counts.get(("bounds", key), 0)

        s = total("search.maximize")
        evals = self.evals
        m["search.maximize.s"] = s
        m["search.maximize.self_s"] = total("search.maximize", self_time)
        m["search.maximize.objective_evals"] = evals
        m["search.maximize.s_per_eval"] = s / evals if evals else 0.0
        m["search.maximize.failed_evals"] = self.failed_evals

        m["cli.main.s"] = total("cli.main")
        m["cli.main.self_s"] = total("cli.main", self_time)
        return m

    def _returns_of(self, name):
        return [r for r in self.returns if r[0] == name]

    def dump_spans(self):
        return [{"name": n, "kind": k, "start": t0, "end": t1, "parent": p,
                 "points": pts} for n, k, t0, t1, p, pts in self.spans]


def _efficiency(est, seconds):
    """1 / (relative stderr^2 x seconds); 0 when the stderr is not finite."""
    se, v = est.standard_error, est.value
    if not np.isfinite(se) or se <= 0 or v == 0 or seconds <= 0:
        return 0.0
    return 1.0 / ((se / abs(v)) ** 2 * seconds)


# counters that must repeat exactly at a fixed workload seed
DETERMINISTIC = tuple(
    [f"geometry.signed_distance.pts.{k}" for k in KINDS]
    + [f"geometry.boundary_distance_lower.pts.{k}" for k in KINDS]
    + [f"estimators.{e}.walker_steps" for e in ESTIMATORS]
    + ["estimators.fekete_logcap.line_searches",
       "exact_ellipsoid.adaptive_gl.nodes",
       "search.maximize.objective_evals",
       "bounds.rows", "bounds.rows.fail", "bounds.rows.inconclusive",
       "bounds.rows.vacuous"])
