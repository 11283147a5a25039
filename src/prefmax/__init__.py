"""prefmax: maximal elements of preference relations, certified variationally."""

from .cones import (
    Cone,
    ContourSample,
    ConvexBody,
    body_from_sample,
    box_sample,
    complete_equivalence_check,
    cone_unit_hull,
    normal_membership,
    normal_membership_many,
    sample_contour,
    strict_normal_membership,
)
from .descent import (
    DescentConfig,
    DescentTrace,
    OracleNormViolation,
    ScheduleValidationError,
    StepSchedule,
    gap_convergence_stat,
    quasi_fejer_check,
    run_descent,
)
from .fixtures import Fixture, UnknownFixture, fixture_names, get_fixture, registry
from .harness import (
    CapabilityError,
    ExperimentSpec,
    RunReport,
    Verdict,
    descend_fixture,
    emit_report,
    emit_trace,
    load_trace_json,
    run_experiment,
)
from .plastria import (
    GapFunction,
    audit_gap_flags,
    gap_from_utility,
    plastria_membership,
    plastria_subgradient,
    zero_gap,
    zero_maximality_check,
)
from .points import GroundSet, Point, parse_grid_spec, points_close, pt
from .relations import (
    PropertyReport,
    Relation,
    check_property,
    contour,
    holds,
    maxima,
    maximal_elements,
    preference_matrix,
    random_tabular_relation,
    strictly_prefers,
)
from .vip import (
    VipCertificate,
    certificate_valid,
    mvip_membership,
    mvip_solutions,
    svip_membership,
    svip_solutions,
    uniqueness_check,
)

__version__ = "0.1.0"
