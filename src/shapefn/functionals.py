"""Scale-invariant shape functionals assembled from torsion, capacity,
measure and perimeter, with exact/stochastic backend dispatch."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import estimators, geometry
from . import exact_ellipsoid as exact
from .errors import ValidationError
from .estimators import Estimate


@dataclass(frozen=True)
class FunctionalId:
    kind: str  # G | H | G_alpha | H_alpha
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in ("G", "H", "G_alpha", "H_alpha"):
            raise ValidationError(f"unknown functional {self.kind!r}")
        if self.kind == "G_alpha":
            if self.alpha is None or not 0.0 <= self.alpha <= 2.0:
                raise ValidationError("G_alpha needs alpha in [0, 2]")
        elif self.kind == "H_alpha":
            if self.alpha is None or not 0.0 <= self.alpha <= 1.5:
                raise ValidationError("H_alpha needs alpha in [0, 3/2]")
        elif self.alpha is not None:
            raise ValidationError(f"{self.kind} takes no alpha")

    @property
    def name(self):
        if self.alpha is None:
            return self.kind
        return f"{self.kind}({self.alpha:g})"

    def dimension_ok(self, d):
        if self.kind in ("G", "G_alpha"):
            return d >= 3
        return d == 2

    def exponents(self, d):
        """(torsion power, volume power, perimeter power); capacity power 1."""
        if self.kind == "G":
            return 1.0, 2.0, 0.0
        if self.kind == "G_alpha":
            return 1.0, self.alpha, d * (2.0 - self.alpha) / (d - 1.0)
        if self.kind == "H":
            return 0.5, 1.5, 0.0
        return 0.5, self.alpha, 3.0 - 2.0 * self.alpha

    def ball_value(self, d):
        if self.kind == "G":
            return exact.g_ball(d)
        if self.kind == "G_alpha":
            return exact.g_alpha_ball(d, self.alpha)
        if self.kind == "H":
            return exact.H_BALL
        return exact.h_alpha_ball(self.alpha)


def parse_functional(kind, alpha=None):
    if kind in ("G_alpha", "H_alpha"):
        return FunctionalId(kind, float(alpha))
    return FunctionalId(kind)


@dataclass(frozen=True)
class Evaluation:
    functional: FunctionalId
    value: float
    stderr: float
    bracket: tuple
    components: dict = field(default_factory=dict)

    def to_dict(self):
        return {"functional": self.functional.name, "value": self.value,
                "stderr": self.stderr,
                "bracket": [self.bracket[0], self.bracket[1]],
                "components": {k: _component_dict(c) for k, c in self.components.items()}}


def _component_dict(c):
    """A component's JSON form; a walk estimate's counters, which repeat bit
    for bit for a fixed body, seed and walk count, go with it."""
    doc = {"value": c.value, "stderr": c.standard_error, "backend": c.backend}
    if "diag" in c.extra:
        doc["diag"] = c.extra["diag"]
    return doc


def _exact(value):
    return Estimate(value, 0.0, 0, "exact")


def compute_components(body, cfg=None, need=("T", "cap", "V", "P")):
    """Torsion, capacity, volume and perimeter of a body as the Estimates of
    their backends; ellipsoids/balls are exact, other bodies stochastic."""
    d = body.dimension
    axes = body.ellipsoid_axes()
    comp = {}
    if "T" in need:
        comp["T"] = (estimators.wos_torsion(body, cfg) if axes is None
                     else _exact(exact.torsion_ellipsoid(axes)))
    if "cap" in need:
        if axes is None:
            comp["cap"] = (estimators.wos_capacity(body, cfg) if d >= 3
                           else estimators.fekete_logcap(body))
        else:
            comp["cap"] = _exact(exact.cap_newtonian_ellipsoid(axes) if d >= 3
                                 else exact.cap_log_ellipse(*axes))
    if "V" in need:
        comp["V"] = _exact(body.measure())
    if "P" in need:
        comp["P"] = _exact(geometry.perimeter(body))
    return comp


def assemble(f, components, d):
    """Combine components into an Evaluation of functional f."""
    pT, pV, pP = f.exponents(d)
    T = components["T"]
    cap = components["cap"]
    value = T.value ** pT * cap.value
    rel2 = (pT * T.standard_error / T.value) ** 2 if T.standard_error else 0.0
    if cap.value:
        rel2 += (cap.standard_error / cap.value) ** 2 if cap.standard_error else 0.0
    if pV:
        value /= components["V"].value ** pV
    if pP:
        value /= components["P"].value ** pP
    stderr = value * math.sqrt(rel2)
    bracket = (value - 3.0 * stderr, value + 3.0 * stderr)
    return Evaluation(f, value, stderr, bracket, {k: components[k] for k in _needed(pV, pP)})


def _needed(pV, pP):
    """The components a functional with these volume and perimeter powers uses."""
    return ("T", "cap") + ("V",) * bool(pV) + ("P",) * bool(pP)


def evaluate(f, body, cfg=None):
    """Evaluate a functional on a body with backend dispatch."""
    d = body.dimension
    if not f.dimension_ok(d):
        raise ValidationError(f"{f.name} is not defined in dimension {d}")
    _, pV, pP = f.exponents(d)
    return assemble(f, compute_components(body, cfg, need=_needed(pV, pP)), d)


def scale_invariance_check(f, body, t_list, cfg=None):
    """Max relative deviation of f over homotheties of the body.

    Stochastic backends use common random numbers (same config seed), so the
    default relative shell width makes scaled walks identical in law."""
    base = evaluate(f, body, cfg)
    dev = 0.0
    for t in t_list:
        ev = evaluate(f, geometry.scale(body, t), cfg)
        dev = max(dev, abs(ev.value - base.value) / abs(base.value))
    return dev
