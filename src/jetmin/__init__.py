"""Minimal weighted L2 integrals of holomorphic 1-forms with jet conditions.

The package computes the minimal squared norm G(t) over sublevel regions of a
singular weight, compares it against the optimal-jets upper bound, and tests
the concavity/linearity structure of G after the tail-transform change of
variable.
"""
from .analysis import (
    CandidateReport,
    ConcavityReport,
    CriterionReport,
    StrictnessReport,
    SuitaReport,
    criterion_check,
    extremal_candidate,
    linear_restriction_identity,
    scan_G,
    strictness_experiment,
    suita_compare,
    verify_mass,
    verify_orthogonality,
)
from .errors import (
    BadInputError,
    DomainError,
    GreenPoleError,
    JetminError,
    NonIntegrableWeightError,
    NumericalError,
    TheoremViolationError,
)
from .forms import (
    GramMatrix,
    JetConstraintSystem,
    TruncatedForm,
    form_norm_quadrature,
    gram_analytic_disc,
    jet_constraints,
    norm_of_form,
)
from .gain import GainFunction, class_p_margin, eval_c, eval_h, invert_h, ratio_probe
from .geometry import (
    UNIT_DISC,
    DomainSpec,
    MarkedPoint,
    blaschke_deriv,
    blaschke_factor,
    green_disc,
    green_domain,
    log_capacity,
)
from .problems import (
    Numerics,
    Problem,
    eps_bump_problem,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    random_concavity_problem,
    ring_problem,
    save_problem,
    single_point_problem,
    two_point_problem,
)
from .quadrature import QuadratureConfig
from .solver import (
    MinimalIntegralResult,
    extension_bound,
    kkt_minimize,
    minimal_integral,
)
from .weights import PhiSpec, PsiSpec, WeightPair

__version__ = "0.1.0"

__all__ = [
    "BadInputError",
    "CandidateReport",
    "ConcavityReport",
    "CriterionReport",
    "DomainError",
    "DomainSpec",
    "GainFunction",
    "GramMatrix",
    "GreenPoleError",
    "JetConstraintSystem",
    "JetminError",
    "MarkedPoint",
    "MinimalIntegralResult",
    "NonIntegrableWeightError",
    "Numerics",
    "NumericalError",
    "PhiSpec",
    "Problem",
    "PsiSpec",
    "QuadratureConfig",
    "StrictnessReport",
    "SuitaReport",
    "TheoremViolationError",
    "TruncatedForm",
    "UNIT_DISC",
    "WeightPair",
    "blaschke_deriv",
    "blaschke_factor",
    "class_p_margin",
    "criterion_check",
    "eps_bump_problem",
    "eval_c",
    "eval_h",
    "extension_bound",
    "extremal_candidate",
    "form_norm_quadrature",
    "gram_analytic_disc",
    "green_disc",
    "green_domain",
    "invert_h",
    "jet_constraints",
    "kkt_minimize",
    "linear_restriction_identity",
    "load_problem",
    "log_capacity",
    "minimal_integral",
    "norm_of_form",
    "problem_from_dict",
    "problem_to_dict",
    "random_concavity_problem",
    "ratio_probe",
    "ring_problem",
    "save_problem",
    "scan_G",
    "single_point_problem",
    "strictness_experiment",
    "suita_compare",
    "two_point_problem",
    "verify_mass",
    "verify_orthogonality",
    "__version__",
]
