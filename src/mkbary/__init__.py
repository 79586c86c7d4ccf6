"""Monge-Kantorovich transport costs and Frechet barycenters on discrete measures."""

__version__ = "0.1.0"

# numpy loads these on first use (numpy.random from default_rng, numpy.ma
# from unique along an axis); loading them here keeps that out of the
# first solve that needs them.
import numpy.ma  # noqa: E402,F401
import numpy.random  # noqa: E402,F401

from .costs import (
    CostSpec,
    GrowthConstants,
    RelaxedConstants,
    consistency_check,
    growth_constants,
    relaxed_constants,
)
from .errors import (
    CertificateViolation,
    ConstructionFailed,
    EmptySupport,
    ImageOutsideSpace,
    MarginalMismatch,
    MassNotOne,
    MKError,
    NegativeWeight,
    NonFinite,
    NotConvexCost,
    NotOneDimensional,
    NumericalFailure,
    SpaceMismatch,
    TooLarge,
    UnboundedRatio,
)
from .measures import (
    DiscreteMeasure,
    GroundSpace,
    canonicalize,
    dirac,
    measure_from_json,
    measure_to_json,
    mixture,
    pushforward,
    restrict_and_mix,
    tail_cost,
    truncate_to_ball,
)
from .barycenter import (
    BarycenterProblem,
    BarycenterResult,
    Constraint,
    barycenter_fixed_support,
    barycenter_free_support,
    barycenter_quantile_1d,
    objective,
    problem_from_json,
)
from .consistency import (
    MetaDistribution,
    generate_random_measure,
    lln_experiment,
    meta_distance,
    perturbation_experiment,
    random_population,
)
from .topology import (
    SequenceDiagnostics,
    check_convergence,
    truncate_plan,
    weak_proxy_distance,
)
from .transport import (
    TransportPlan,
    brute_force_transport,
    glue,
    interpolation_cost,
    solve_lp_batch,
    solve_transport,
    solve_transport_batch,
    transport_cost,
    transport_costs,
)
