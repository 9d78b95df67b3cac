"""Scale-invariant shape functionals assembled from torsion, capacity,
measure and perimeter, with exact/stochastic backend dispatch."""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import estimators, geometry
from . import exact_ellipsoid as exact
from .errors import ValidationError
from .estimators import Estimate


class Kind(NamedTuple):
    max_alpha: float | None  # None: the kind takes no alpha
    planar: bool  # defined for d = 2, else for d >= 3
    exponents: Callable  # (d, alpha) -> (torsion, volume, perimeter) powers
    ball_value: Callable  # (d, alpha) -> the value on a ball


# G, H and their perimeter variants, in the CLI's order
KINDS = {
    "G": Kind(None, False, lambda d, a: (1.0, 2.0, 0.0), lambda d, a: exact.g_ball(d)),
    "H": Kind(None, True, lambda d, a: (0.5, 1.5, 0.0), lambda d, a: exact.H_BALL),
    "G_alpha": Kind(2.0, False, lambda d, a: (1.0, a, d * (2.0 - a) / (d - 1.0)),
                    lambda d, a: exact.g_alpha_ball(d, a)),
    "H_alpha": Kind(1.5, True, lambda d, a: (0.5, a, 3.0 - 2.0 * a),
                    lambda d, a: exact.h_alpha_ball(a)),
}


@dataclass(frozen=True)
class FunctionalId:
    kind: str  # a key of KINDS
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown functional {self.kind!r}")
        top = KINDS[self.kind].max_alpha
        if top is None:
            if self.alpha is not None:
                raise ValidationError(f"{self.kind} takes no alpha")
        elif self.alpha is None or not 0.0 <= self.alpha <= top:
            raise ValidationError(f"{self.kind} needs alpha in [0, {top:g}]")

    @property
    def name(self):
        if self.alpha is None:
            return self.kind
        return f"{self.kind}({self.alpha:g})"

    def dimension_ok(self, d):
        return d == 2 if KINDS[self.kind].planar else d >= 3

    def exponents(self, d):
        """(torsion power, volume power, perimeter power); capacity power 1."""
        return KINDS[self.kind].exponents(d, self.alpha)

    def ball_value(self, d):
        return KINDS[self.kind].ball_value(d, self.alpha)


def parse_functional(kind, alpha=None):
    """The FunctionalId of a kind and its alpha, which checks that they fit."""
    return FunctionalId(kind, None if alpha is None else float(alpha))


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
    return Estimate(value, 0.0, "exact")


@contextmanager
def _named(quantity):
    """Prefixes an ArithmeticError met inside, such as a float overflow,
    with the name of the quantity that met it."""
    try:
        yield
    except ArithmeticError as e:
        raise type(e)(f"{quantity}: {e}") from e


def compute_components(body, cfg=None, need=("T", "cap", "V", "P")):
    """Torsion, capacity, volume and perimeter of a body as the Estimates of
    their backends; ellipsoids/balls are exact, other bodies stochastic. A
    component out of double precision range raises the ArithmeticError it
    met, named after the quantity."""
    d = body.dimension
    axes = body.ellipsoid_axes()
    comp = {}
    if "T" in need:
        with _named("torsional rigidity"):
            comp["T"] = (estimators.wos_torsion(body, cfg) if axes is None
                         else _exact(exact.torsion_ellipsoid(axes)))
    if "cap" in need:
        with _named("capacity"):
            if axes is None:
                comp["cap"] = (estimators.wos_capacity(body, cfg) if d >= 3
                               else estimators.fekete_logcap(body))
            else:
                comp["cap"] = _exact(exact.cap_newtonian_ellipsoid(axes) if d >= 3
                                     else exact.cap_log_ellipse(*axes))
    if "V" in need:
        with _named("volume"):
            comp["V"] = _exact(body.measure())
    if "P" in need:
        with _named("perimeter"):
            comp["P"] = _exact(geometry.perimeter(body))
    return comp


def assemble(f, components, d):
    """Combine components into an Evaluation of functional f."""
    pT, pV, pP = f.exponents(d)
    T = components["T"]
    cap = components["cap"]
    with _named(f.name):
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

