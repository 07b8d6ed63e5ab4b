"""Minimal weighted L2 integrals of holomorphic 1-forms with jet conditions.

The package computes the minimal squared norm G(t) over sublevel regions of a
singular weight, compares it against the optimal-jets upper bound, and tests
the concavity/linearity structure of G after the tail-transform change of
variable.

Every public name is loaded from its submodule on first access (PEP 562), so
``import jetmin`` imports no submodule, and a name pulls in only the layers
below it: ``load_problem`` needs no solver, and only a quadrature run
imports the quadrature engine.
"""
import sys

# the submodule that defines each public name
_SOURCES = {
    "analysis": (
        "CandidateReport", "ConcavityReport", "CriterionReport", "StrictnessReport",
        "SuitaReport", "criterion_check", "extremal_candidate",
        "linear_restriction_identity", "scan_G", "strictness_experiment",
        "suita_compare", "verify_mass", "verify_orthogonality",
    ),
    "errors": (
        "BadInputError", "DomainError", "GreenPoleError", "JetminError",
        "NonIntegrableWeightError", "NumericalError", "TheoremViolationError",
    ),
    "forms": (
        "GramMatrix", "JetConstraintSystem", "TruncatedForm", "form_norm_quadrature",
        "gram_analytic_disc", "jet_constraints", "norm_of_form",
    ),
    "gain": ("GainFunction", "class_p_margin", "eval_c", "eval_h", "invert_h", "ratio_probe"),
    "geometry": (
        "UNIT_DISC", "DomainSpec", "MarkedPoint", "blaschke_deriv", "blaschke_factor",
        "green_disc", "green_domain", "log_capacity",
    ),
    "mesh": ("QuadratureConfig",),
    "problems": (
        "Numerics", "Problem", "eps_bump_problem", "load_problem", "problem_from_dict",
        "problem_to_dict", "random_concavity_problem", "ring_problem", "save_problem",
        "single_point_problem", "two_point_problem",
    ),
    "solver": (
        "MinimalIntegralResult", "extension_bound", "kkt_minimize", "minimal_integral",
        "minimal_integrals",
    ),
    "weights": ("PhiSpec", "PsiSpec", "WeightPair"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__version__ = "0.1.0"

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's machinery, unlike importlib.import_module, is
    # what ``python -X importtime`` reports, so its tree stays whole
    __import__(f"{__name__}.{module}")
    value = getattr(sys.modules[f"{__name__}.{module}"], name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
