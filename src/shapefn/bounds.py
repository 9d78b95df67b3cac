"""Executable inequality ledger: every quantitative bound on the shape
functionals as a check producing a BoundReport row."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import exact_ellipsoid as exact
from . import geometry
from .errors import InternalConsistencyError, ValidationError
from .functionals import FunctionalId, assemble, compute_components

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
VACUOUS = "vacuous"
OUT_OF_REGIME = "out_of_regime"

# the complete set of checkable inequality rows; a ledger row outside this
# enumeration is a bug
ROW_TYPES = {
    "Thm1": ("e22", "e26"),
    "Thm2": ("e32", "e32a", "e33"),
    "Thm3": ("e43", "e45"),
    "Thm4": ("e65", "e65a", "e65iii"),
    "Thm5": ("e69", "e71"),
    "Thm6": ("e89", "e81", "e82"),
    "Thm8": ("e92e", "e93", "e95"),
}


@dataclass(frozen=True)
class BoundReport:
    theorem: str
    inequality: str
    body_id: str
    lhs: float
    rhs: float
    status: str
    stderr: float = 0.0
    tol: float = 1e-10
    extra: dict = field(default_factory=dict)

    @property
    def slack(self):
        return self.rhs - self.lhs

    def to_dict(self):
        return {"theorem": self.theorem, "inequality": self.inequality,
                "body_id": self.body_id, "lhs": self.lhs, "rhs": self.rhs,
                "slack": self.slack, "status": self.status,
                "stderr": self.stderr, "tol": self.tol, "extra": self.extra}


def _status(lhs, rhs, stderr, tol):
    if lhs <= rhs * (1.0 + tol) + tol * abs(lhs):
        return PASS
    if stderr and lhs - 3.0 * stderr <= rhs * (1.0 + tol):
        return INCONCLUSIVE
    return FAIL


def _row(theorem, inequality, body_id, lhs, rhs, stderr=0.0, tol=1e-10,
         status=None, extra=None):
    if inequality not in ROW_TYPES[theorem]:
        raise InternalConsistencyError(
            f"row type {theorem}/{inequality} not in the ledger enumeration")
    if status is None:
        status = _status(lhs, rhs, stderr, tol)
    return BoundReport(theorem, inequality, body_id, float(lhs), float(rhs),
                       status, float(stderr), tol, extra or {})


# ---------------------------------------------------------------------------
# d >= 3 checks
# ---------------------------------------------------------------------------

def check_thm1(body, cfg=None, body_id="body", comp=None):
    """Sorted-axis ratio bound (conditional) and the intermediate G bound."""
    d = body.dimension
    if d < 3:
        raise ValidationError("need d >= 3")
    comp = comp or compute_components(body, cfg)
    g = assemble(FunctionalId("G"), comp, d)
    b = geometry.john_sorted_axes(body)
    gb = exact.g_ball(d)
    rows = []

    # axis-ratio bound, conditional on G >= G(B_1); the bound itself is
    # astronomically large, so it is compared in log scale
    antecedent = g.value >= gb * (1.0 - 1e-12) - 3.0 * g.stderr
    log_lhs = math.log(b[d - 3] / b[d - 1])
    log_rhs = 2.0 ** ((d - 2.0) / 2.0) * d ** (2.0 * d + 1.0) / (d - 2.0)
    status = None if antecedent else VACUOUS
    rows.append(_row("Thm1", "e22", body_id, log_lhs, log_rhs,
                     status=status,
                     extra={"log_scale": True, "antecedent_held": antecedent,
                            "G": g.value}))

    denom = math.log1p((b[d - 3] / b[d - 1]) ** 2)
    rhs = 2.0 ** (d / 2.0) * d ** (2.0 * d + 1.0) / (d - 2.0) * gb / denom
    rows.append(_row("Thm1", "e26", body_id, g.value, rhs, stderr=g.stderr))
    return rows


def check_thm2(body, cfg=None, body_id="body", comp=None):
    """Ellipsoid supremum, convex-class bound and the eccentricity bound."""
    d = body.dimension
    if d < 3:
        raise ValidationError("need d >= 3")
    comp = comp or compute_components(body, cfg)
    g = assemble(FunctionalId("G"), comp, d)
    gb = exact.g_ball(d)
    axes = body.ellipsoid_axes()
    rows = []
    if axes is not None:
        rows.append(_row("Thm2", "e32", body_id, g.value, gb, stderr=g.stderr))
    rows.append(_row("Thm2", "e32a", body_id, g.value, d ** (2.0 * d) * gb,
                     stderr=g.stderr))
    if axes is not None and d >= 4:
        C, _ = exact.eccentricity(axes)
        rhs = (gb * d * (d - 3.0) / ((d - 1.0) * (d - 2.0))
               / (1.0 - 1.0 / (1.0 + math.sqrt(C))))
        rows.append(_row("Thm2", "e33", body_id, g.value, rhs,
                         stderr=g.stderr, extra={"eccentricity": C}))
    return rows


def critical_epsilon(d):
    """Critical epsilon of the constrained problem: Thm 3 (d >= 4) or
    Thm 5 (d = 2)."""
    if d >= 4:
        return math.sqrt((d - 1.0) * (d - 2.0) / (d * (d - 3.0))) - 1.0
    if d == 2:
        return 2.0 ** (1.0 / 3.0) - 1.0
    raise ValidationError("constrained-problem constants need d = 2 or d >= 4")


def _q(d, epsilon):
    """q(d, epsilon) of the constrained d >= 4 problem, positive below the
    critical epsilon."""
    return 1.0 - d * (d - 3.0) / ((d - 1.0) * (d - 2.0)) * (1.0 + epsilon) ** 2


def ratio_bound(d, epsilon):
    """Diameter/inradius bound of the constrained problem, for epsilon below
    the critical value."""
    if d >= 4:
        return (2.0 ** d * math.sqrt(d * (d - 1.0) ** d * (d - 2.0) / (d - 3.0))
                * _q(d, epsilon) ** (1.0 - d))
    return 2.0 ** (11.0 / 3.0) / (critical_epsilon(d) - epsilon)


def thm3_c_constant(d, epsilon):
    """The axis-ratio constant of the constrained d >= 4 problem."""
    return math.sqrt(d - 1.0) / _q(d, epsilon)


def check_constraint_constants(d, epsilon):
    """Critical epsilon and diameter/inradius bound for the constrained
    problems (d >= 4 and d = 2), with a divergence check on a grid."""
    if not math.isfinite(epsilon):
        raise ValidationError(f"epsilon must be finite, got {epsilon}")
    critical = critical_epsilon(d)
    if d >= 4:
        theorem, crit_id, bound_id = "Thm3", "e43", "e45"
    else:
        theorem, crit_id, bound_id = "Thm5", "e69", "e71"
    in_regime = 0.0 <= epsilon < critical
    rows = [_row(theorem, crit_id, f"const_d{d}", epsilon, critical,
                 status=PASS if in_regime else OUT_OF_REGIME,
                 extra={"critical_epsilon": critical})]
    if not in_regime:
        rows.append(_row(theorem, bound_id, f"const_d{d}", math.inf, math.inf,
                         status=OUT_OF_REGIME))
        return rows

    value = ratio_bound(d, epsilon)
    # the bound must blow up as epsilon approaches the critical value
    grid = epsilon + (critical - epsilon) * (1.0 - 2.0 ** -np.arange(1.0, 11.0))
    values = [ratio_bound(d, e) for e in grid]
    diverges = all(v2 > v1 for v1, v2 in zip(values, values[1:])) \
        and values[-1] > 100.0 * value
    extra = {"epsilon": epsilon, "diverges_at_critical": diverges,
             "grid_max": values[-1]}
    if d >= 4:
        extra["c_constant"] = thm3_c_constant(d, epsilon)
    rows.append(_row(theorem, bound_id, f"const_d{d}", value, math.inf,
                     status=PASS if diverges else FAIL, extra=extra))
    return rows


def check_thm6(body, alphas=(0.0, 1.0), cfg=None, body_id="body", comp=None):
    """Perimeter-weighted functional bounds for d >= 3."""
    d = body.dimension
    if d < 3:
        raise ValidationError("need d >= 3")
    comp = comp or compute_components(body, cfg)
    rows = []
    for alpha in alphas:
        ga = assemble(FunctionalId("G_alpha", alpha), comp, d)
        ref = exact.g_alpha_ball(d, alpha)
        if body.ellipsoid_axes() is not None:
            rows.append(_row("Thm6", "e89", body_id, ga.value, ref,
                             stderr=ga.stderr, extra={"alpha": alpha}))
        rows.append(_row("Thm6", "e81", body_id, ga.value,
                         d ** (2.0 * d) * ref, stderr=ga.stderr,
                         extra={"alpha": alpha}))
    return rows


# ---------------------------------------------------------------------------
# planar checks
# ---------------------------------------------------------------------------

def check_planar(body, alphas=(0.0, 1.0), cfg=None, body_id="body", comp=None):
    """The planar inequality rows of one convex body; the e95 constant,
    which depends on no body, comes from check_dimension_constants."""
    if body.dimension != 2:
        raise ValidationError("need d = 2")
    comp = comp or compute_components(body, cfg)
    h = assemble(FunctionalId("H"), comp, 2)
    b = geometry.john_sorted_axes(body)
    hb = exact.H_BALL
    rows = []

    # inscribed-rhombus perimeter bound (inner ellipse has axes b/2)
    p_lower = 2.0 * math.sqrt(b[0] ** 2 + b[1] ** 2) / 2.0
    if comp["P"].value < p_lower * (1.0 - 1e-6):
        raise InternalConsistencyError(
            f"perimeter {comp['P'].value} below rhombus lower bound {p_lower}")

    if body.ellipsoid_axes() is not None:
        rows.append(_row("Thm4", "e65", body_id, h.value, hb, stderr=h.stderr))
        rows.append(_row("Thm4", "e65iii", body_id, h.value,
                         2.0 ** -0.5 * hb * (1.0 + b[1] / b[0]),
                         stderr=h.stderr))
    rows.append(_row("Thm4", "e65a", body_id, h.value, 8.0 * hb,
                     stderr=h.stderr, extra={"perimeter_lower": p_lower}))

    for alpha in alphas:
        ha = assemble(FunctionalId("H_alpha", alpha), comp, 2)
        ref = exact.h_alpha_ball(alpha)
        if body.ellipsoid_axes() is not None:
            rows.append(_row("Thm8", "e92e", body_id, ha.value, ref,
                             stderr=ha.stderr, extra={"alpha": alpha}))
        rows.append(_row("Thm8", "e93", body_id, ha.value,
                         2.0 ** (2.0 * alpha) * math.pi ** (3.0 - 2.0 * alpha) * ref,
                         stderr=ha.stderr, extra={"alpha": alpha}))
    return rows


# ---------------------------------------------------------------------------
# rows of the dimension alone
# ---------------------------------------------------------------------------

def check_dimension_constants(d, alphas=(0.0, 1.0), epsilon=0.1):
    """The rows that depend on the dimension and not on a body: the e82
    (d >= 3) or e95 (d = 2) constant per alpha, and the constrained-problem
    constants for d = 2 and d >= 4."""
    rows = []
    body_id = f"const_d{d}"
    for alpha in alphas:
        FunctionalId("G_alpha" if d >= 3 else "H_alpha", alpha)  # checks alpha
        extra = {"alpha": alpha}
        if d >= 3 and alpha < 2.0:
            expo = (2.0 * d * d + 2.0 * d - 2.0 * d * alpha + 2.0 - alpha) / (2.0 - alpha)
            rows.append(_row("Thm6", "e82", body_id, 2.0 * d ** expo, math.inf,
                             status=PASS, extra=extra))
        elif d >= 3:
            rows.append(_row("Thm6", "e82", body_id, math.inf, math.inf,
                             status=OUT_OF_REGIME, extra=extra))
        elif alpha < 1.5:
            rows.append(_row("Thm8", "e95", body_id,
                             2.0 ** ((3.0 + 2.0 * alpha) / (3.0 - 2.0 * alpha))
                             * math.pi ** 2,
                             math.inf, status=PASS, extra=extra))
        else:
            rows.append(_row("Thm8", "e95", body_id, math.inf, math.inf,
                             status=OUT_OF_REGIME, extra=extra))
    if d == 2 or d >= 4:
        rows += check_constraint_constants(d, epsilon)
    return rows


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------

def ledger(bodies, cfg=None, alphas=(0.0, 1.0), epsilon=0.1):
    """Run every applicable check over a body corpus.

    bodies: mapping id -> body, or an iterable of bodies (auto ids).
    Returns (rows, summary); summary counts statuses, failures expected zero."""
    if not isinstance(bodies, dict):
        bodies = {f"body{i:03d}": b for i, b in enumerate(bodies)}
    if not bodies:
        raise ValidationError("empty body corpus")
    rows = []
    dims = set()
    for body_id in sorted(bodies):
        body = bodies[body_id]
        d = body.dimension
        dims.add(d)
        comp = compute_components(body, cfg)
        if d == 2:
            rows += check_planar(body, alphas, cfg, body_id, comp)
        else:
            rows += check_thm1(body, cfg, body_id, comp)
            rows += check_thm2(body, cfg, body_id, comp)
            rows += check_thm6(body, alphas, cfg, body_id, comp)
    for d in sorted(dims):
        rows += check_dimension_constants(d, alphas, epsilon)
    rows.sort(key=lambda r: (r.body_id, r.theorem, r.inequality))

    summary = {s: 0 for s in (PASS, FAIL, INCONCLUSIVE, VACUOUS, OUT_OF_REGIME)}
    for r in rows:
        summary[r.status] += 1
    summary["rows"] = len(rows)
    summary["row_types"] = sorted({f"{r.theorem}:{r.inequality}" for r in rows})
    return rows, summary


def enumerated_row_types():
    return sorted(f"{t}:{i}" for t, ids in ROW_TYPES.items() for i in ids)


def write_csv(rows, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theorem", "body_id", "lhs", "rhs", "slack", "stderr",
                    "status"])
        for r in rows:
            w.writerow([f"{r.theorem}({r.inequality})", r.body_id,
                        repr(r.lhs), repr(r.rhs), repr(r.slack),
                        repr(r.stderr), r.status])


def _jsonable(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not serializable: {type(obj).__name__}")


def write_json(rows, path):
    with open(path, "w") as fh:
        json.dump([r.to_dict() for r in rows], fh, sort_keys=True, indent=1,
                  default=_jsonable)
        fh.write("\n")
