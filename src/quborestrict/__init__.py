"""Cardinality-restriction penalty encoders for QUBO solvers.

Build exact-rational penalty models that force the sum of a block of binary
variables into an allowed set, pick the construction with the fewest dummy
variables, verify the result by brute-force enumeration, and benchmark how a
noisy (Boltzmann) annealer degrades the ideal transfer step.

The names below load their submodule on first use (PEP 562), so importing
the package, or one command of its CLI, loads only what is used.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": """ConstructionError DataQualityError DimensionError EncodedRestriction
        EncodingKind EncodingNotApplicableError ParameterError QuboModel QuboRestrictError
        RestrictionSpec SizeLimitError as_fraction combine expand_squared_affine""",
    "encoders": """DEFAULT_PARAMS EncoderParams applicable_encoders chain_dummy_count
        encode_equispaced_linear encode_equispaced_log encode_half_integer_chain
        encode_half_integer_m2 encode_one_hot_general encode_reduced_general
        encode_single_value log_dummy_count select_optimal""",
    "oracle": """SpectrumReport VerificationResult enumerate_spectrum fractional_energy_ladder
        verify""",
    "sampler": """SamplerConfig StrayMassWarning TransferCurve boltzmann_probabilities
        exact_sum_distribution exact_transfer_curve fractional_restriction_model
        step_distance sweep_fractional_r""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str) -> object:
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted([*globals(), *_MODULE_OF])
