"""Tests for the exact QUBO data model and the squared-affine expansion."""

from __future__ import annotations

import dataclasses
import itertools
import random
import tracemalloc
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
from quborestrict.encoders import EncoderParams, encode_one_hot_general, encode_single_value
from quborestrict.sampler import fractional_restriction_model


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

    def test_nonpositive_multiplier_rejected(self):
        with pytest.raises(ParameterError):
            expand_squared_affine([(0, 1)], 0, 0)
        with pytest.raises(ParameterError):
            expand_squared_affine([(0, 1)], 0, F(-1, 2))

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


class TestEncodedRestriction:
    def test_dummy_count_must_match_model(self):
        # the count is read from the model, so it cannot be given separately
        model = expand_squared_affine([(0, 1), (1, 1)], -1, 1, n_problem=1)
        assert EncodedRestriction(model, EncodingKind.SINGLE_VALUE, F(0), F(1)).n_dummies == 1
        with pytest.raises(TypeError):
            EncodedRestriction(model, EncodingKind.SINGLE_VALUE, n_dummies=0,
                               residual_energy=F(0), lambda1=F(1))

    def test_multipliers_must_be_positive(self):
        model = expand_squared_affine([(0, 1)], -1, 1)
        with pytest.raises(ParameterError):
            EncodedRestriction(model, EncodingKind.SINGLE_VALUE, F(0), F(0))


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
