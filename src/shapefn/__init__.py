"""Torsional rigidity, capacity and scale-invariant shape functionals of
convex bodies: exact ellipsoid backends, grid-free Monte Carlo estimators,
an executable inequality ledger and shape-family searches."""

__version__ = "1.0.0"

from .errors import (
    DegenerateEstimateError,
    InternalConsistencyError,
    RankDeficiencyError,
    ShapeFnError,
    StuckWalkError,
    UnsupportedRepresentationError,
    ValidationError,
)
from .geometry import (
    Ball,
    BallUnion,
    Capsule,
    Ellipsoid,
    Polytope,
    body_from_dict,
    diameter_inradius,
    john_pair,
    loewner_ellipsoid,
    perimeter,
    signed_distance,
)
from .exact_ellipsoid import (
    cap_log_ellipse,
    cap_newtonian_ellipsoid,
    eccentricity,
    g_ellipsoid_direct,
    perimeter_ellipsoid,
    torsion_ellipsoid,
)
from .estimators import (
    Estimate,
    EstimatorConfig,
    fekete_logcap,
    wos_capacity,
    wos_torsion,
)
from .functionals import (
    Evaluation,
    FunctionalId,
    evaluate,
    parse_functional,
)
from .bounds import (
    BoundReport,
    check_constraint_constants,
    check_dimension_constants,
    ledger,
)
from .search import (
    Family,
    IntervalValue,
    SearchResult,
    SlabBody,
    build_ball_union,
    counterexample_sequence,
    maximize,
    maximize_constrained,
)
