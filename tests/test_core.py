"""Tests for the exact QUBO data model and the squared-affine expansion."""

from __future__ import annotations

import dataclasses
import itertools
import random
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction as F

import pytest

from quborestrict import core
from quborestrict.core import (
    ConstructionError,
    DimensionError,
    EncodedRestriction,
    EncodingKind,
    ParameterError,
    QuboModel,
    RestrictionSpec,
    SizeLimitError,
    as_fraction,
    combine,
    expand_squared_affine,
)
from quborestrict.cli import render_dummy_table
from quborestrict.encoders import (
    EncoderParams,
    applicable_encoders,
    chain_dummy_count,
    encode_one_hot_general,
    encode_single_value,
    log_dummy_count,
    select_optimal,
)
from quborestrict.oracle import enumerate_spectrum, fractional_energy_ladder, verify
from quborestrict.sampler import (
    SamplerConfig,
    exact_transfer_curve,
    fractional_restriction_model,
    step_distance,
)


def affine_square(terms, constant, lam, assignment):
    """Independent oracle: lam * (sum_i a_i x_i + c)**2 straight from the definition."""
    total = as_fraction(constant)
    for i, a in terms:
        total += as_fraction(a) * assignment[i]
    return as_fraction(lam) * total * total


class TestRestrictionSpec:
    def test_sorts_allowed(self):
        spec = RestrictionSpec(5, (3, 1, 2))
        assert spec.allowed == (1, 2, 3)
        assert spec.m == 3

    def test_spacing_and_consecutive(self):
        assert RestrictionSpec(6, (0, 2, 4)).spacing() == 2
        assert RestrictionSpec(6, (1, 2, 3)).spacing() == 1
        assert RestrictionSpec(6, (1, 2, 4)).spacing() is None
        assert RestrictionSpec(6, (2,)).spacing() is None
        assert RestrictionSpec(6, (1, 2, 3)).is_consecutive
        assert not RestrictionSpec(6, (0, 2, 4)).is_consecutive

    @pytest.mark.parametrize(
        "n_vars,allowed",
        [
            (0, (0,)),
            (5, ()),
            (5, (1, 1, 2)),
            (5, (-1, 2)),
            (5, (6,)),
            (5, (2, 6)),
        ],
    )
    def test_invalid_specs(self, n_vars, allowed):
        with pytest.raises(ConstructionError):
            RestrictionSpec(n_vars, allowed)

    @pytest.mark.parametrize("n_vars,allowed", [
        (True, (True,)),
        (True, (0,)),
        (5, (False,)),
        (5, (1, True)),
        (5, (1, 2.0)),
        ("5", (1,)),
        (5, ("a", 1)),
    ])
    def test_rejects_booleans_and_non_integers(self, n_vars, allowed):
        with pytest.raises(ConstructionError, match="allowed a list of integers"):
            RestrictionSpec(n_vars, allowed)


class TestQuboModel:
    def test_prunes_zero_coefficients(self):
        model = QuboModel(2, 2, {(0, 0): F(0), (0, 1): F(3)}, F(1))
        assert model.coeffs == {(0, 1): F(3)}

    def test_rejects_unordered_or_out_of_range_keys(self):
        with pytest.raises(ConstructionError):
            QuboModel(2, 2, {(1, 0): F(1)})
        with pytest.raises(ConstructionError):
            QuboModel(2, 2, {(0, 2): F(1)})

    def test_n_dummies_counts_the_trailing_block(self):
        model = QuboModel(4, 3, {(0, 0): F(1)})
        assert model.n_dummies == 1

    def test_energy_all_zeros_is_offset(self):
        model = expand_squared_affine([(0, 1), (1, 2)], F(3), 2)
        assert model.energy([0, 0]) == model.offset == 2 * F(3) ** 2

    def test_energy_length_mismatch(self):
        model = expand_squared_affine([(0, 1)], 0)
        with pytest.raises(DimensionError):
            model.energy([0, 1])

    def test_energy_rejects_non_bits(self):
        model = expand_squared_affine([(0, 1)], 0)
        with pytest.raises(ConstructionError):
            model.energy([2])


class TestExpandSquaredAffine:
    def test_single_variable_shift(self):
        # (x - 1)^2 = -x + 1 on binaries
        model = expand_squared_affine([(0, 1)], -1, 1)
        assert model.coeffs == {(0, 0): F(-1)}
        assert model.offset == F(1)

    def test_three_variables_half_integer_constant(self):
        model = expand_squared_affine([(0, 1), (1, 1), (2, 1)], F(-3, 2), 1)
        assert model.offset == F(9, 4)
        for i in range(3):
            assert model.coeffs[(i, i)] == F(-2)
        for i, j in itertools.combinations(range(3), 2):
            assert model.coeffs[(i, j)] == F(2)
        for bits in itertools.product((0, 1), repeat=3):
            assert model.energy(bits) == (sum(bits) - F(3, 2)) ** 2

    def test_empty_affine(self):
        model = expand_squared_affine([], 0, 1)
        assert model.n_total == 0
        assert model.coeffs == {}
        assert model.offset == 0

    def test_duplicate_index_rejected(self):
        with pytest.raises(ConstructionError):
            expand_squared_affine([(0, 1), (0, 2)], 0)
        with pytest.raises(ConstructionError,
                           match="^variable index 2 is out of range for n_total=2$"):
            expand_squared_affine([(0, 1), (2, 0)], 0, n_total=2)

    def test_single_value_restriction_energies(self):
        # (sum(x) - 2)^2 over four variables
        model = expand_squared_affine([(i, 1) for i in range(4)], -2, 1)
        assert model.energy([1, 1, 0, 0]) == 0
        assert model.energy([1, 1, 1, 1]) == (4 - 2) ** 2 == 4

    def test_matches_direct_square_exhaustively(self):
        rng = random.Random(1918)
        for _ in range(25):
            n = rng.randint(1, 8)
            terms = [
                (i, F(rng.randint(-5, 5), rng.randint(1, 4))) for i in range(n)
            ]
            constant = F(rng.randint(-8, 8), rng.randint(1, 4))
            lam = F(rng.randint(1, 6), rng.randint(1, 3))
            model = expand_squared_affine(terms, constant, lam)
            for bits in itertools.product((0, 1), repeat=n):
                assert model.energy(bits) == affine_square(terms, constant, lam, bits)

    def test_matches_direct_square_on_random_wide_assignments(self):
        rng = random.Random(555)
        for n in (13, 16, 20):
            terms = [
                (i, F(rng.randint(-4, 4), rng.randint(1, 3))) for i in range(n)
            ]
            constant = F(rng.randint(-6, 6), 2)
            lam = F(3, 2)
            model = expand_squared_affine(terms, constant, lam)
            for _ in range(200):
                bits = tuple(rng.randint(0, 1) for _ in range(n))
                assert model.energy(bits) == affine_square(terms, constant, lam, bits)

    def test_offset_only_shifts_energies(self):
        model = expand_squared_affine([(i, 1) for i in range(5)], F(-5, 2), 2)
        stripped = QuboModel(model.n_total, model.n_problem, model.coeffs, 0)
        assignments = list(itertools.product((0, 1), repeat=5))
        energies = [model.energy(a) for a in assignments]
        shifted = [stripped.energy(a) for a in assignments]
        assert {e - s for e, s in zip(energies, shifted)} == {model.offset}
        argmin = min(energies)
        argmin_shifted = min(shifted)
        assert [e == argmin for e in energies] == [s == argmin_shifted for s in shifted]

    def test_construction_is_deterministic(self):
        build = lambda: expand_squared_affine(
            [(i, F(i + 1, 2)) for i in range(6)], F(-7, 3), F(5, 4))
        a, b = build(), build()
        assert a == b
        assert list(a.coeffs) == list(b.coeffs) == sorted(a.coeffs)


class TestCombine:
    def test_sums_energies_pointwise(self):
        left = expand_squared_affine([(0, 1), (1, 1)], -1, 1, n_total=3)
        right = expand_squared_affine([(1, 2), (2, -1)], F(1, 2), 2, n_total=3)
        both = combine(left, right)
        for bits in itertools.product((0, 1), repeat=3):
            assert both.energy(bits) == left.energy(bits) + right.energy(bits)

    def test_cancelling_terms_are_pruned(self):
        left = QuboModel(1, 1, {(0, 0): F(2)})
        right = QuboModel(1, 1, {(0, 0): F(-2)})
        assert combine(left, right).coeffs == {}

    def test_mismatched_spaces_rejected(self):
        with pytest.raises(DimensionError):
            combine(QuboModel(2, 2, {}), QuboModel(3, 2, {}))
        with pytest.raises(ConstructionError, match="^combine needs at least one model$"):
            combine()


class TestEncodedRestriction:
    def test_dummy_count_must_match_model(self):
        # the count is read from the model, so it cannot be given separately
        model = expand_squared_affine([(0, 1), (1, 1)], -1, 1, n_problem=1)
        assert EncodedRestriction(model, EncodingKind.SINGLE_VALUE, F(0), F(1)).n_dummies == 1
        with pytest.raises(TypeError):
            EncodedRestriction(model, EncodingKind.SINGLE_VALUE, n_dummies=0,
                               residual_energy=F(0), lambda1=F(1))


@pytest.mark.parametrize("build", [
    lambda lam: expand_squared_affine([(0, 1)], 0, lam),
    lambda lam: EncodedRestriction(expand_squared_affine([(0, 1)], -1, 1),
                                   EncodingKind.SINGLE_VALUE, F(0), lam),
    lambda lam: EncodedRestriction(expand_squared_affine([(0, 1)], -1, 1),
                                   EncodingKind.REDUCED_GENERAL, F(0), F(1), lam),
    lambda lam: EncoderParams(lambda1=lam),
    lambda lam: EncoderParams(lambda2=lam),
    lambda lam: fractional_energy_ladder(4, 1, lam),
    lambda lam: exact_transfer_curve(5, 1, 2, 3, lam),
], ids=["expand", "encoded-lambda1", "encoded-lambda2", "params-lambda1", "params-lambda2",
        "ladder", "sweep"])
@pytest.mark.parametrize("lam", [0, F(-3, 2)], ids=["0", "-3/2"])
def test_nonpositive_multiplier_refused(build, lam):
    # every layer reads a multiplier through as_multiplier, with one message
    with pytest.raises(ParameterError, match=f"^multiplier must be positive, got {lam}$"):
        build(lam)


# what Fraction cannot read: a ValueError, ZeroDivisionError, OverflowError or TypeError there
NOT_RATIONAL = ["x", "1/0", float("nan"), float("inf"), Decimal("Infinity"), None, [1]]


@pytest.mark.parametrize("read", [
    as_fraction,
    lambda value: QuboModel(2, 2, {(0, 0): value}),
    lambda value: QuboModel(2, 2, {}, value),
    lambda value: expand_squared_affine([(0, value)], 0),
    lambda value: expand_squared_affine([(0, 1)], value),
    EncoderParams,
    lambda value: EncodedRestriction(expand_squared_affine([(0, 1)], -1, 1),
                                     EncodingKind.SINGLE_VALUE, value, F(1)),
    lambda value: exact_transfer_curve(3, value, 2, 3),
    lambda value: fractional_energy_ladder(3, value),
], ids=["as_fraction", "coefficient", "offset", "weight", "constant", "params",
        "residual", "r_from", "ladder"])
@pytest.mark.parametrize("value", NOT_RATIONAL, ids=repr)
def test_every_rational_input_refuses_what_is_not_rational(read, value):
    with pytest.raises(ParameterError, match="not a rational number"):
        read(value)


# each integer input: how to pass it, the error, its one-line refusal, a value below its floor
INTEGER_INPUTS = {
    "sweep n_vars": (lambda v: exact_transfer_curve(v, 1, 2, 3), ParameterError,
                     "n_vars must be an integer of at least 1, got {!r}", 0),
    "sweep steps": (lambda v: exact_transfer_curve(3, 1, 2, v), ParameterError,
                    "steps must be an integer of at least 2, got {!r}", 1),
    "n_reads": (lambda v: SamplerConfig(1.0, v), ParameterError,
                "n_reads must be an integer of at least 1, got {!r}", 0),
    "seed": (lambda v: SamplerConfig(1.0, 10, v), ParameterError,
             "seed must be an integer of at least 0, got {!r}", -1),
    "ladder n_vars": (lambda v: fractional_energy_ladder(v, 1), ParameterError,
                      "n_vars must be an integer of at least 1, got {!r}", 0),
    "model n_vars": (lambda v: fractional_restriction_model(v, 1), ParameterError,
                     "n_vars must be an integer of at least 1, got {!r}", 0),
    "chain m": (chain_dummy_count, ParameterError,
                "m must be an integer of at least 2, got {!r}", 1),
    "log m": (log_dummy_count, ParameterError,
              "m must be an integer of at least 2, got {!r}", 1),
    "max_m": (render_dummy_table, ParameterError,
              "--max-m must be an integer of at least 2, got {!r}", 1),
    "n_total": (lambda v: QuboModel(v, 0, {}), ConstructionError,
                "n_total must be an integer of at least 0, got {!r}", -1),
    "n_problem": (lambda v: QuboModel(2, v, {}), ConstructionError,
                  "n_problem must be an integer in [0, n_total=2], got {!r}", -1),
    "key": (lambda v: QuboModel(2, 2, {(v, 1): 1}), ConstructionError,
            "coefficient key ({!r}, 1) is not an ordered in-range pair", -1),
    "index": (lambda v: expand_squared_affine([(0, 1), (v, 1)], -1), ConstructionError,
              "variable index must be an integer of at least 0, got {!r}", -1),
    "expand n_total": (lambda v: expand_squared_affine([(0, 1)], -1, n_total=v),
                       ConstructionError,
                       "n_total must be an integer of at least 0, got {!r}", -1),
    "expand n_problem": (lambda v: expand_squared_affine([(0, 1)], -1, n_total=2, n_problem=v),
                         ConstructionError,
                         "n_problem must be an integer in [0, n_total=2], got {!r}", -1),
    "lower sum": (lambda v: step_distance(exact_transfer_curve(3, 1, 2, 3), v, 2), ParameterError,
                  "transfer sums ({!r}, 2) must be distinct integers in [0, 3]", -1),
    "upper sum": (lambda v: step_distance(exact_transfer_curve(3, 1, 2, 3), 1, v), ParameterError,
                  "transfer sums (1, {!r}) must be distinct integers in [0, 3]", -1),
}


@pytest.mark.parametrize("read, error, message, value", [
    pytest.param(read, error, message, value, id=f"{name}-{value!r}")
    for name, (read, error, message, below) in INTEGER_INPUTS.items()
    for value in (True, 2.5, "3", F(3), None, below)
    # None asks expand_squared_affine to size the model from its indices
    if not (value is None and name.startswith("expand"))
])
def test_every_integer_input_refuses_what_is_not_an_integer(read, error, message, value):
    with pytest.raises(error, match=f"^{re.escape(message.format(value))}$"):
        read(value)


# each shape input: how to pass it, its one-line refusal, and what it refuses; 3-tuples
# are valid terms and allowed sets, and an assignment of 3 bits keeps its DimensionError
SHAPE_INPUTS = {
    "terms": (lambda v: expand_squared_affine(v, 0), "terms must be an iterable, got {!r}",
              [None, 5]),
    "term": (lambda v: expand_squared_affine([(0, 1), v], -1),
             "term must be an iterable of 2 items, got {!r}", [None, 5, (1, 1, 2)]),
    "allowed": (lambda v: RestrictionSpec(3, v), "allowed must be an iterable, got {!r}",
                [None, 5]),
    "assignment": (lambda v: QuboModel(2, 2, {}).energy(v),
                   "assignment must be an iterable, got {!r}", [None, 5]),
    "key": (lambda v: QuboModel(2, 2, {v: -1}),
            "coefficient key {!r} is not an ordered in-range pair",
            [None, 5, (0, 1, 1), frozenset({0, 1})]),
    "coeffs": (lambda v: QuboModel(2, 2, v),
               "coeffs must be a mapping of key to rational, got {!r}",
               [None, 5, ((0, 0), (0, 1), (1, 1)), [(0, 0)]]),
    "model": (lambda v: EncodedRestriction(v, EncodingKind.SINGLE_VALUE, 0, 1),
              "model must be a QuboModel, got {!r}", [None, 5, (2, 2, {})]),
    "kind": (lambda v: EncodedRestriction(QuboModel(2, 2, {}), v, 0, 1),
             "kind must be an EncodingKind, got {!r}", [None, 5, (1, 2, 3), "single_value"]),
}


@pytest.mark.parametrize("read, message, value", [
    pytest.param(read, message, value, id=f"{name}-{value!r}")
    for name, (read, message, refused) in SHAPE_INPUTS.items() for value in refused
])
def test_every_shape_input_refuses_what_it_cannot_read(read, message, value):
    with pytest.raises(ConstructionError, match=f"^{re.escape(message.format(value))}$"):
        read(value)


SPEC = RestrictionSpec(2, (1,))
LONG = QuboModel(2, 2, {}, 10**200)

# each record argument given a record of another type, or the tuple of its fields
RECORD_INPUTS = {
    "verify-model": (lambda: verify(QuboModel(2, 2, {}), SPEC),
                     "encoded must be an EncodedRestriction, got QuboModel(n_total=2, n_problem=2, "
                     "scale=1, int_coeffs={}, int_offset=0)"),
    "verify-tuple": (lambda: verify(encode_single_value(SPEC), (2, (1,))),
                     "spec must be a RestrictionSpec, got (2, (1,))"),
    "spectrum-spec": (lambda: enumerate_spectrum(encode_single_value(SPEC), EncoderParams()),
                      "spec must be a RestrictionSpec, got EncoderParams(lambda1=Fraction(1, 1), "
                      "lambda2=Fraction(1, 1))"),
    "combine": (lambda: combine(QuboModel(2, 2, {}), 5), "model must be a QuboModel, got 5"),
    "select": (lambda: select_optimal((3, (1,))), "spec must be a RestrictionSpec, got (3, (1,))"),
    "applicable": (lambda: applicable_encoders((3, (1,))),
                   "spec must be a RestrictionSpec, got (3, (1,))"),
    "encode": (lambda: encode_single_value((3, (1,))),
               "spec must be a RestrictionSpec, got (3, (1,))"),
    "params": (lambda: select_optimal(SPEC, (1, 1)), "params must be an EncoderParams, got (1, 1)"),
    # a repr is cut at 100 characters, so a whole model in place of its record stays short
    "long": (lambda: verify(LONG, SPEC),
             f"encoded must be an EncodedRestriction, got {LONG!r:.100}..."),
}


@pytest.mark.parametrize("call, message", RECORD_INPUTS.values(), ids=RECORD_INPUTS)
def test_every_record_argument_refuses_another_type(call, message):
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        call()


def test_a_frozenset_key_is_refused_before_verify_can_pass_it():
    # stored as given, the oracle looked the coupling up as (0, 1) and missed it, so verify
    # passed {0, 1, 2} at ground energy 0 although energy([1, 1]) was -1
    with pytest.raises(ConstructionError, match=r"^coefficient key frozenset\(\{0, 1\}\) is "):
        QuboModel(2, 2, {frozenset({0, 1}): -1})
    model = QuboModel(2, 2, {(0, 1): -1})
    result = verify(EncodedRestriction(model, EncodingKind.SINGLE_VALUE, 0, 1),
                    RestrictionSpec(2, (0, 1, 2)))
    assert model.energy([1, 1]) == result.report.ground_energy == -1
    assert not result.passed


@pytest.mark.parametrize("build", [fractional_energy_ladder, fractional_restriction_model],
                         ids=["ladder", "model"])
@pytest.mark.parametrize("n_vars", [True, 3.5, 0, -1], ids=repr)
def test_frc_helpers_take_n_vars_by_the_sweep_rule(build, n_vars):
    # the rule of exact_transfer_curve, checked before any list is built
    with pytest.raises(ParameterError,
                       match=f"^n_vars must be an integer of at least 1, got {n_vars!r}$"):
        build(n_vars, 1)


def test_every_exported_error_is_a_package_error():
    import quborestrict

    exported = [getattr(quborestrict, name) for name in quborestrict.__all__]
    errors = [value for value in exported if isinstance(value, type)
              and issubclass(value, Exception) and not issubclass(value, Warning)]
    assert len(errors) == 7
    assert all(issubclass(error, quborestrict.QuboRestrictError) for error in errors)
    assert issubclass(core.QuboFileError, core.QuboRestrictError)
    assert issubclass(core.QuboRestrictError, ValueError)


class TestRecord:
    def test_behaves_as_a_frozen_dataclass(self):
        reference = dataclasses.make_dataclass(
            "RestrictionSpec", [("n_vars", int), ("allowed", tuple)], frozen=True)
        spec = RestrictionSpec(5, (3, 1))
        assert repr(spec) == repr(reference(5, (1, 3)))
        assert repr(spec) == "RestrictionSpec(n_vars=5, allowed=(1, 3))"
        assert hash(spec) == hash(reference(5, (1, 3)))

    def test_hashes_its_fields(self):
        specs = {RestrictionSpec(5, (3, 1)), RestrictionSpec(allowed=[1, 3], n_vars=5)}
        assert specs == {RestrictionSpec(5, (1, 3))}
        assert RestrictionSpec(5, (1, 3)) in specs and RestrictionSpec(5, (1, 4)) not in specs
        with pytest.raises(TypeError):  # a dict field is unhashable, as in a dataclass
            hash(QuboModel(2, 2, {(0, 1): 1}))

    def test_equal_only_to_its_own_class(self):
        @core.record
        class Lookalike:
            lambda1: F = F(1)
            lambda2: F = F(1)

        assert EncoderParams() == EncoderParams(F(1), 1)
        assert EncoderParams() != Lookalike() and Lookalike() != EncoderParams()
        assert RestrictionSpec(5, (1, 3)) != (5, (1, 3))
        assert QuboModel(2, 2, {(0, 1): 1}) == QuboModel(2, 2, {(0, 1): F(2, 2)})

    @pytest.mark.parametrize("args, kwargs", [
        ((5,), {}),
        ((5, (1,), 3), {}),
        ((5, (1,)), {"extra": 1}),
        ((5, (1,)), {"n_vars": 5}),
        ((), {"allowed": (1,)}),
    ], ids=["missing", "too many", "unknown", "repeated", "missing keyword"])
    def test_bad_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError, match=r"^RestrictionSpec\(\) "):
            RestrictionSpec(*args, **kwargs)

    def test_defaults(self):
        assert EncoderParams().lambda1 == EncoderParams().lambda2 == 1
        assert EncoderParams(lambda2=3) == EncoderParams(1, 3)
        model = expand_squared_affine([(0, 1)], -1, 1)
        encoded = EncodedRestriction(model, EncodingKind.SINGLE_VALUE, F(0), F(1))
        assert encoded.lambda2 is None
        assert encoded == EncodedRestriction(model, EncodingKind.SINGLE_VALUE, 0, 1, lambda2=None)

    def test_fields_are_frozen(self):
        spec = RestrictionSpec(5, (1, 3))
        with pytest.raises(AttributeError):
            spec.n_vars = 6
        with pytest.raises(AttributeError):
            del spec.allowed
        with pytest.raises(AttributeError):
            QuboModel(2, 2, {}).scale = 2
        assert spec == RestrictionSpec(5, (1, 3))


@pytest.mark.parametrize("value", [True, False])
def test_as_fraction_refuses_booleans(value):
    with pytest.raises(ParameterError, match=f"got {value}"):
        as_fraction(value)


def test_as_fraction_reads_decimal_floats_exactly():
    assert as_fraction(0.1) == F(1, 10)
    assert as_fraction("0.5") == F(1, 2)
    assert as_fraction("1/3") == F(1, 3)
    assert as_fraction(7) == F(7)
    assert as_fraction(Decimal("1.50")) == F(3, 2)


def test_as_fraction_caps_the_digits_of_a_decimal():
    # read through its text, before Fraction builds an int of ten million digits
    with pytest.raises(ParameterError, match="more than 3000 digits"):
        as_fraction(Decimal("1e10000000"))


@pytest.mark.parametrize("weights, constant, lam", [
    ([1] * 300, -150, 1),
    (range(1, 301), -7, 1),
    ([1] * 300, -150, 10**30),
    ([3] * 300, F(-3, 2), 6),  # every int shares a factor 2 with the scale
], ids=["unit weights", "distinct weights", "huge multiplier", "common factor"])
def test_traced_expansion_within_its_estimate(monkeypatch, weights, constant, lam):
    estimates, expansion_bytes = [], core.expansion_bytes

    def recorded(*args):
        estimates.append(expansion_bytes(*args))
        return estimates[-1]

    monkeypatch.setattr(core, "expansion_bytes", recorded)
    terms = list(enumerate(weights))
    tracemalloc.start()
    try:
        model = expand_squared_affine(terms, constant, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(model.int_coeffs) >= 300 * 299 // 2
    assert len(estimates) == 1
    assert peak <= estimates[0]


@pytest.mark.parametrize("refused", [
    lambda: encode_single_value(RestrictionSpec(10**6, (1,))),
    lambda: encode_one_hot_general(RestrictionSpec(10**6, (1, 5, 9))),
    lambda: fractional_restriction_model(10**6, F(1, 2)),
], ids=["single value", "one-hot", "fractional target"])
def test_construction_refused_before_its_terms_are_listed(monkeypatch, refused):
    # the n unit weights alone are a lower bound, checked before any O(n) list exists
    monkeypatch.setattr(core, "_physical_memory", lambda: 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="^expanding a square of 1000000 weights into "
                                                 "500000500000 terms needs more than the physical"):
            refused()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
