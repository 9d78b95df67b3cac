"""Executable inequality ledger: every quantitative bound on the shape
functionals as a BoundReport row.

``ledger`` is the entry point. It builds each body's rows, then the rows
that depend on the dimension alone. Theorems 2, 4, 6 and 8 share one shape
for G, H, G_alpha and H_alpha in turn: an ellipsoid is at most the ball
value, and every convex body is at most a constant times it. The table
``_PAIRS``, keyed by ``FunctionalId.kind``, gives each functional its
theorem, its ellipsoid row, its convex-body row and that row's constant;
the ball value comes from ``FunctionalId.ball_value``. The rows outside
the table (Thm1 e22/e26, Thm2 e33, Thm4 e65iii) and the inscribed-rhombus
perimeter check follow it."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exact_ellipsoid as exact
from . import geometry
from .errors import InternalConsistencyError, ValidationError
from .functionals import KINDS, FunctionalId, _named, assemble, compute_components

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
VACUOUS = "vacuous"
OUT_OF_REGIME = "out_of_regime"
_TOL = 1e-10  # relative tolerance of every row's pass test

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
    tol: float = _TOL
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


def _row(theorem, inequality, body_id, lhs, rhs, stderr=0.0, status=None,
         extra=None):
    if inequality not in ROW_TYPES[theorem]:
        raise InternalConsistencyError(
            f"row type {theorem}/{inequality} not in the ledger enumeration")
    if status is None:
        status = _status(lhs, rhs, stderr, _TOL)
    return BoundReport(theorem, inequality, body_id, float(lhs), float(rhs),
                       status, float(stderr), extra=extra or {})


# ---------------------------------------------------------------------------
# rows of one body
# ---------------------------------------------------------------------------

# kind -> (theorem, ellipsoid row, convex-body row, that row's constant of d
# and alpha)
_PAIRS = {
    "G": ("Thm2", "e32", "e32a", lambda d, alpha: d ** (2.0 * d)),
    "G_alpha": ("Thm6", "e89", "e81", lambda d, alpha: d ** (2.0 * d)),
    "H": ("Thm4", "e65", "e65a", lambda d, alpha: 8.0),
    "H_alpha": ("Thm8", "e92e", "e93",
                lambda d, alpha: 2.0 ** (2.0 * alpha) * math.pi ** (3.0 - 2.0 * alpha)),
}


def _body_rows(body, comp, body_id, alphas):
    """The rows of one body of dimension 2 (H) or >= 3 (G), from its
    components; each alpha's rows follow in the order of alphas."""
    d = body.dimension
    axes = body.ellipsoid_axes()
    with _named("John ellipsoid"):
        b = geometry.john_sorted_axes(body)
    kind = "H" if d == 2 else "G"
    if d == 2:
        # inscribed-rhombus perimeter bound: the inner ellipse has semi-axes
        # b/2, and the rhombus on their ends has perimeter 4 |b/2|
        p_lower = 2.0 * math.sqrt(b[0] ** 2 + b[1] ** 2)
        if comp["P"].value < p_lower * (1.0 - 1e-6):
            raise InternalConsistencyError(
                f"perimeter {comp['P'].value} below rhombus lower bound {p_lower}")

    rows = []
    evs = [assemble(f, comp, d) for f in [FunctionalId(kind)]
           + [FunctionalId(kind + "_alpha", a) for a in alphas]]
    for ev in evs:
        f = ev.functional
        theorem, sharp, coarse, constant = _PAIRS[f.kind]
        ref = f.ball_value(d)
        extra = {} if f.alpha is None else {"alpha": f.alpha}
        if axes is not None:
            rows.append(_row(theorem, sharp, body_id, ev.value, ref, ev.stderr,
                             extra=extra))
        if f.kind == "H":
            extra = {"perimeter_lower": p_lower}
        rows.append(_row(theorem, coarse, body_id, ev.value,
                         constant(d, f.alpha) * ref, ev.stderr, extra=extra))

    g = evs[0]  # G, or H in the plane
    gb = g.functional.ball_value(d)
    if d == 2:
        if axes is not None:
            rows.append(_row("Thm4", "e65iii", body_id, g.value,
                             2.0 ** -0.5 * gb * (1.0 + b[1] / b[0]), g.stderr))
        return rows

    # axis-ratio bound, conditional on G >= G(B_1); the bound itself is
    # astronomically large, so it is compared in log scale
    antecedent = g.value >= gb * (1.0 - 1e-12) - 3.0 * g.stderr
    log_lhs = math.log(b[d - 3] / b[d - 1])
    log_rhs = 2.0 ** ((d - 2.0) / 2.0) * d ** (2.0 * d + 1.0) / (d - 2.0)
    rows.append(_row("Thm1", "e22", body_id, log_lhs, log_rhs,
                     status=None if antecedent else VACUOUS,
                     extra={"log_scale": True, "antecedent_held": antecedent,
                            "G": g.value}))
    denom = math.log1p((b[d - 3] / b[d - 1]) ** 2)
    rhs = 2.0 ** (d / 2.0) * d ** (2.0 * d + 1.0) / (d - 2.0) * gb / denom
    rows.append(_row("Thm1", "e26", body_id, g.value, rhs, g.stderr))
    if axes is not None and d >= 4:
        C, _ = exact.eccentricity(axes)
        rhs = (gb * d * (d - 3.0) / ((d - 1.0) * (d - 2.0))
               / (1.0 - 1.0 / (1.0 + math.sqrt(C))))
        rows.append(_row("Thm2", "e33", body_id, g.value, rhs, g.stderr,
                         extra={"eccentricity": C}))
    return rows


# ---------------------------------------------------------------------------
# rows of the dimension alone
# ---------------------------------------------------------------------------

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


def check_dimension_constants(d, alphas=(0.0, 1.0), epsilon=0.1):
    """The rows that depend on the dimension and not on a body: the e82
    (d >= 3) or e95 (d = 2) constant per alpha, and the constrained-problem
    constants for d = 2 and d >= 4."""
    kind, theorem, inequality = (("G_alpha", "Thm6", "e82") if d >= 3
                                 else ("H_alpha", "Thm8", "e95"))
    rows = []
    body_id = f"const_d{d}"
    for alpha in alphas:
        FunctionalId(kind, alpha)  # checks alpha
        extra = {"alpha": alpha}
        if alpha < KINDS[kind].max_alpha:
            lhs = (2.0 * d ** ((2.0 * d * d + 2.0 * d - 2.0 * d * alpha + 2.0 - alpha)
                               / (2.0 - alpha)) if d >= 3
                   else 2.0 ** ((3.0 + 2.0 * alpha) / (3.0 - 2.0 * alpha)) * math.pi ** 2)
            rows.append(_row(theorem, inequality, body_id, lhs, math.inf,
                             status=PASS, extra=extra))
        else:
            rows.append(_row(theorem, inequality, body_id, math.inf, math.inf,
                             status=OUT_OF_REGIME, extra=extra))
    if d == 2 or d >= 4:
        rows += check_constraint_constants(d, epsilon)
    return rows


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------

def ledger(bodies, cfg=None, alphas=(0.0, 1.0), epsilon=0.1):
    """Run every applicable check over a body corpus.

    bodies: mapping id -> body; each alpha counts once, in the order it
    first appears.
    Returns (rows, summary); summary counts statuses, failures expected
    zero, and summary["skipped"] maps each body left out, one with a
    quantity out of double precision range (an ArithmeticError), to that
    error; its dimension's constant rows come only with another body."""
    alphas = tuple(dict.fromkeys(alphas))
    if not bodies:
        raise ValidationError("empty body corpus")
    rows = []
    dims = set()
    skipped = {}
    for body_id in sorted(bodies):
        body = bodies[body_id]
        try:
            rows += _body_rows(body, compute_components(body, cfg), body_id, alphas)
        except ArithmeticError as e:
            skipped[body_id] = str(e)
            continue
        dims.add(body.dimension)
    for d in sorted(dims):
        rows += check_dimension_constants(d, alphas, epsilon)
    rows.sort(key=lambda r: (r.body_id, r.theorem, r.inequality))

    summary = {s: 0 for s in (PASS, FAIL, INCONCLUSIVE, VACUOUS, OUT_OF_REGIME)}
    for r in rows:
        summary[r.status] += 1
    summary["rows"] = len(rows)
    summary["row_types"] = sorted({f"{r.theorem}:{r.inequality}" for r in rows})
    summary["skipped"] = skipped
    return rows, summary


def enumerated_row_types():
    return sorted(f"{t}:{i}" for t, ids in ROW_TYPES.items() for i in ids)

