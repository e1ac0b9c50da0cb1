"""Singular-perturbation limits of quantum stochastic models on truncated spaces.

The package builds Hudson-Parthasarathy coefficient quadruples from a
singular-scaling decomposition, validates the unitarity and subspace
requirements, computes the slow-subspace limit coefficients, and produces
numerical convergence witnesses for the limit (generator residuals with a
second-order corrector, sup-over-time semigroup gaps, and truncation
studies).
"""

from .convergence import (
    ConvergenceReport,
    KurtzCorrector,
    field_dressed_parts,
    generator_residual,
    generator_study,
    kurtz_corrector,
    rate_fit,
    semigroup_gap,
    semigroup_study,
    truncation_study,
)
from .elimination import EliminationResult, cavity_closed_form, eliminate
from .errors import (
    ModelParseError,
    PreconditionFailed,
    QsdelimError,
    SingularFastDynamics,
    StructuralViolation,
)
from .modelfile import (
    ModelFile,
    StudyParams,
    eval_expression,
    fixture_to_model_dict,
    limit_to_json,
    load_model,
    parse_model,
)
from .models import (
    BUILTIN_FIXTURES,
    Fixture,
    FockToolbox,
    builtin_fixture,
    cavity_fixture,
    driven_oscillator_limit,
    duan_kimble_fast_blocks,
    duan_kimble_block_indices,
    duan_kimble_fixture,
    fock_toolbox,
    mirror_fixture,
    trivial_family_from_limit,
    windowed_oscillator_limit,
)
from .operator_core import (
    HilbertSpace,
    Operator,
    SubspacePair,
    matrix_exponential,
    restricted_inverse,
    spectral_norm,
    subspace_basis,
    tensor_embed,
)
from .qsde_model import (
    CheckResult,
    QsdeCoefficients,
    ScaledFamily,
    ValidationReport,
    assemble,
    hp_validate,
    scaled_hp_validate,
    structural_validate,
)
from .random_models import (
    random_hp_coefficients,
    random_scaled_family,
    random_structured_fixture,
)
from .semigroup import (
    FieldAmplitudes,
    SimpleFunction,
    dissipativity_check,
    evolve,
    generator,
    matrix_element_U,
    propagate_on_grid,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_FIXTURES",
    "CheckResult",
    "ConvergenceReport",
    "EliminationResult",
    "FieldAmplitudes",
    "Fixture",
    "FockToolbox",
    "HilbertSpace",
    "KurtzCorrector",
    "ModelFile",
    "ModelParseError",
    "Operator",
    "PreconditionFailed",
    "QsdeCoefficients",
    "QsdelimError",
    "ScaledFamily",
    "SimpleFunction",
    "SingularFastDynamics",
    "StructuralViolation",
    "StudyParams",
    "SubspacePair",
    "ValidationReport",
    "assemble",
    "builtin_fixture",
    "cavity_closed_form",
    "cavity_fixture",
    "dissipativity_check",
    "driven_oscillator_limit",
    "duan_kimble_block_indices",
    "duan_kimble_fast_blocks",
    "duan_kimble_fixture",
    "eliminate",
    "eval_expression",
    "evolve",
    "field_dressed_parts",
    "fixture_to_model_dict",
    "fock_toolbox",
    "generator",
    "generator_residual",
    "generator_study",
    "hp_validate",
    "kurtz_corrector",
    "limit_to_json",
    "load_model",
    "matrix_element_U",
    "matrix_exponential",
    "mirror_fixture",
    "parse_model",
    "propagate_on_grid",
    "random_hp_coefficients",
    "random_scaled_family",
    "random_structured_fixture",
    "rate_fit",
    "restricted_inverse",
    "scaled_hp_validate",
    "semigroup_gap",
    "semigroup_study",
    "spectral_norm",
    "structural_validate",
    "subspace_basis",
    "tensor_embed",
    "trivial_family_from_limit",
    "truncation_study",
    "windowed_oscillator_limit",
]
