"""Symbolic verification and reduction of Lie point symmetries of SDEs.

The package checks candidate symmetries of Ito and Stratonovich systems
against their determining equations, straightens verified generators to
bring scalar equations to integrable or quadrature form, and backs every
symbolic verdict with Monte Carlo path simulation.
"""

from .expr import (
    Expr, Num, Sym, Add, Mul, Pow, Prim, Opaque, ZERO, ONE,
    Domain, EvalPoint, PolyTestFunction,
    simplify, differentiate, substitute, antiderivative, equivalent,
    evaluate, instantiate_opaque, solve_for, free_symbols, is_zero, to_str,
    max_abs_on_domain, sample_points, opaque, opaque_functions, contains,
    ExprError, EvaluationError, DomainError, NotElementaryError,
)
from .parser import parse, ExprSyntaxError
from .model import (
    ITO, STRATONOVICH, ModelError, SdeSystem, VectorField, Classification,
    ModelFile, load_model, print_model, classify, make_system,
)
from .calculus import (
    ito_laplacian, drift_correction, ito_to_stratonovich,
    stratonovich_to_ito, as_ito, differential, ito_change_of_variables,
    change_of_variables, infinitesimal_map_residuals, TransformedSde,
    InterpretationError,
)
from .symmetry import (
    SymmetryReport, CompatibilityData, SolvabilityResult, NonSimpleCandidate,
    residual_ito, residual_stratonovich, residual_associated_stratonovich,
    tau_condition, compatibility_check, solvable_check, orbit_rank,
    commutator,
)
from .reduction import (
    INTEGRABLE_ITO, INTEGRABLE_QUADRATURE, NOT_INTEGRABLE_FORM,
    ReductionError, DegenerateGenerator, UnverifiedCandidate, HypothesisError,
    StraighteningMap, FreeFunctionAnsatz, ConditionCheck, ReductionResult,
    NecessityResult, SystemReduction,
    straighten, reduce_deterministic, reduce_random, necessity_roundtrip,
    reduce_system_solvable,
)
from .numeric import (
    EULER_MARUYAMA, STRATONOVICH_HEUN,
    SimulationConfig, PathSet, PathwiseReport, OrderEstimate, ScalingResult,
    simulate, pathwise_check, strong_order_estimate,
    epsilon_symmetry_scaling, finite_difference, export_csv, compile_expr,
)

__version__ = "0.1.0"


def fixture_path(name: str) -> str:
    """Filesystem path of a bundled model file, e.g. ``example1.sde``."""
    from importlib.resources import files
    return str(files("sdesym").joinpath("fixtures", name))
