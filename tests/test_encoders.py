"""Tests for the restriction-term constructions and the selector."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import pytest

import quborestrict.encoders as encoders_module
from quborestrict.core import (
    EncodingKind,
    EncodingNotApplicableError,
    ParameterError,
    RestrictionSpec,
)
from quborestrict.encoders import (
    applicable_encoders,
    chain_dummy_count,
    encode_equispaced_linear,
    encode_equispaced_log,
    encode_half_integer_chain,
    encode_half_integer_m2,
    encode_one_hot_general,
    encode_reduced_general,
    encode_single_value,
    log_dummy_count,
    select_optimal,
)
from quborestrict.oracle import enumerate_spectrum, verify


def all_specs(max_n, max_m):
    """Every restriction with n_vars <= max_n and at most max_m allowed values."""
    for n in range(1, max_n + 1):
        for m in range(1, min(max_m, n + 1) + 1):
            for allowed in itertools.combinations(range(n + 1), m):
                yield RestrictionSpec(n, allowed)


def reference_kind(spec):
    """The explicit dispatch select_optimal made before the constructions became table rows."""
    if spec.m == 1:
        return EncodingKind.SINGLE_VALUE
    if spec.is_consecutive and spec.m == 2:
        return EncodingKind.HALF_INTEGER_M2
    if spec.is_consecutive and spec.m == 3:
        return EncodingKind.HALF_INTEGER_CHAIN
    if spec.spacing() is not None:
        return EncodingKind.EQUISPACED_LOG
    return EncodingKind.REDUCED_GENERAL


def reference_applicable(spec):
    """The preconditions applicable_encoders checked one by one, in the same order."""
    kinds = [EncodingKind.SINGLE_VALUE] if spec.m == 1 else []
    kinds.append(EncodingKind.ONE_HOT_GENERAL)
    if spec.m == 1 or spec.spacing() is not None:
        kinds.append(EncodingKind.EQUISPACED_LINEAR)
    if spec.m >= 2 and spec.spacing() is not None:
        kinds.append(EncodingKind.EQUISPACED_LOG)
    if spec.m == 2 and spec.is_consecutive:
        kinds.append(EncodingKind.HALF_INTEGER_M2)
    if spec.m >= 2 and spec.is_consecutive:
        kinds.append(EncodingKind.HALF_INTEGER_CHAIN)
    if spec.m >= 2:
        kinds.append(EncodingKind.REDUCED_GENERAL)
    return kinds


def test_public_names_are_the_table_rows():
    spec = RestrictionSpec(3, (0, 1))
    for kind in EncodingKind:
        encoder = getattr(encoders_module, f"encode_{kind.value}")
        assert encoder.__name__ == f"encode_{kind.value}" and encoder.__doc__
        if kind in applicable_encoders(spec):
            assert applicable_encoders(spec)[kind] is encoder
            assert encoder(spec).kind is kind
    with pytest.raises(EncodingNotApplicableError, match="^single_value encoding needs"):
        encode_single_value(spec)


class TestSingleValue:
    def test_ground_set_and_degeneracy(self):
        spec = RestrictionSpec(4, (2,))
        report = enumerate_spectrum(encode_single_value(spec), spec)
        assert report.ground_sums == {2}
        assert report.ground_energy == 0
        assert report.ground_degeneracy == 6  # C(4, 2)

    def test_zero_target(self):
        spec = RestrictionSpec(5, (0,))
        report = enumerate_spectrum(encode_single_value(spec), spec)
        assert report.ground_sums == {0}
        assert report.ground_degeneracy == 1

    def test_wrong_arity(self):
        with pytest.raises(EncodingNotApplicableError):
            encode_single_value(RestrictionSpec(5, (1, 2)))


class TestOneHotGeneral:
    def test_two_values_ground_states_select_their_dummy(self):
        spec = RestrictionSpec(4, (1, 3))
        encoded = encode_one_hot_general(spec)
        assert encoded.n_dummies == 2
        model = encoded.model
        grounds = [
            bits
            for bits in itertools.product((0, 1), repeat=model.n_total)
            if model.energy(bits) == 0
        ]
        assert grounds, "one-hot ground states must sit at zero energy"
        for bits in grounds:
            x, y = bits[:4], bits[4:]
            assert (sum(x), y) in {(1, (1, 0)), (3, (0, 1))}
        assert {sum(bits[:4]) for bits in grounds} == {1, 3}

    def test_single_value_uses_one_dummy(self):
        spec = RestrictionSpec(3, (2,))
        encoded = encode_one_hot_general(spec)
        assert encoded.n_dummies == 1
        report = enumerate_spectrum(encoded, spec)
        assert report.passed

    @pytest.mark.parametrize("allowed", [(1,), (0, 3), (1, 2, 4), (0, 1, 2, 5)])
    def test_dummy_count_equals_value_count(self, allowed):
        spec = RestrictionSpec(5, allowed)
        assert encode_one_hot_general(spec).n_dummies == spec.m


class TestEquispacedLinear:
    def test_consecutive_run(self):
        spec = RestrictionSpec(5, (1, 2, 3))
        encoded = encode_equispaced_linear(spec)
        assert encoded.n_dummies == 2
        report = enumerate_spectrum(encoded, spec)
        assert report.ground_sums == {1, 2, 3}
        assert report.ground_energy == 0

    def test_gap_two(self):
        spec = RestrictionSpec(4, (0, 2, 4))
        report = enumerate_spectrum(encode_equispaced_linear(spec), spec)
        assert report.ground_sums == {0, 2, 4}

    def test_not_equispaced(self):
        with pytest.raises(EncodingNotApplicableError):
            encode_equispaced_linear(RestrictionSpec(4, (1, 2, 4)))


class TestEquispacedLog:
    def test_five_values_use_three_dummies(self):
        spec = RestrictionSpec(6, (0, 1, 2, 3, 4))
        encoded = encode_equispaced_log(spec)
        assert encoded.n_dummies == 3
        # binary weights 1, 2 plus the cap weight 5 - 4 = 1; with the base
        # value at 0 the dummy diagonals are the squared weights and the
        # problem-dummy couplings are -2 * weight.
        model = encoded.model
        diag = [model.coeffs[(6 + k, 6 + k)] for k in range(3)]
        coupling = [model.coeffs[(0, 6 + k)] for k in range(3)]
        assert diag == [F(1), F(4), F(1)]
        assert coupling == [F(-2), F(-4), F(-2)]

    def test_dummy_weights_reach_every_offset(self):
        weights = (1, 2, 1)
        sums = {
            sum(w * b for w, b in zip(weights, bits))
            for bits in itertools.product((0, 1), repeat=3)
        }
        assert sums == {0, 1, 2, 3, 4}

    def test_power_of_two_drops_cap_dummy(self):
        spec = RestrictionSpec(5, (1, 2, 3, 4))
        encoded = encode_equispaced_log(spec)
        assert encoded.n_dummies == 2
        assert enumerate_spectrum(encoded, spec).passed

    def test_ground_set_matches(self):
        spec = RestrictionSpec(6, (0, 1, 2, 3, 4))
        report = enumerate_spectrum(encode_equispaced_log(spec), spec)
        assert report.ground_sums == {0, 1, 2, 3, 4}

    def test_needs_two_values(self):
        with pytest.raises(EncodingNotApplicableError):
            encode_equispaced_log(RestrictionSpec(4, (2,)))

    def test_not_equispaced(self):
        with pytest.raises(EncodingNotApplicableError):
            encode_equispaced_log(RestrictionSpec(6, (0, 1, 3)))


class TestHalfIntegerM2:
    def test_energy_profile_n3(self):
        spec = RestrictionSpec(3, (1, 2))
        encoded = encode_half_integer_m2(spec)
        assert encoded.n_dummies == 0
        assert encoded.residual_energy == F(1, 4)
        report = enumerate_spectrum(encoded, spec)
        assert {s: e for s, (e, _) in report.by_sum.items()} == {
            0: F(9, 4), 1: F(1, 4), 2: F(1, 4), 3: F(9, 4)}
        assert report.ground_sums == {1, 2}

    def test_zero_based_pair(self):
        spec = RestrictionSpec(5, (0, 1))
        report = enumerate_spectrum(encode_half_integer_m2(spec), spec)
        assert report.ground_sums == {0, 1}

    def test_scales_residual_with_multiplier(self):
        spec = RestrictionSpec(3, (1, 2))
        encoded = encode_half_integer_m2(spec, lambda1=F(3))
        assert encoded.residual_energy == F(3, 4)
        assert enumerate_spectrum(encoded, spec).passed

    def test_non_consecutive_pair(self):
        with pytest.raises(EncodingNotApplicableError):
            encode_half_integer_m2(RestrictionSpec(4, (1, 3)))


class TestHalfIntegerChain:
    def test_three_values_one_dummy(self):
        spec = RestrictionSpec(5, (1, 2, 3))
        encoded = encode_half_integer_chain(spec)
        assert encoded.n_dummies == 1
        report = enumerate_spectrum(encoded, spec)
        assert report.ground_sums == {1, 2, 3}
        assert report.ground_energy == F(1, 4)

    def test_two_values_degenerate_to_no_dummies(self):
        spec = RestrictionSpec(4, (2, 3))
        chain = encode_half_integer_chain(spec)
        assert chain.n_dummies == 0
        assert chain.model == encode_half_integer_m2(spec).model

    @pytest.mark.parametrize("m,expected", [(2, 0), (3, 1), (4, 2), (5, 3), (6, 4), (7, 5)])
    def test_dummy_count_ladder(self, m, expected):
        spec = RestrictionSpec(m, tuple(range(1, m + 1)))
        assert encode_half_integer_chain(spec).n_dummies == expected
        assert chain_dummy_count(m) == expected

    def test_less_efficient_than_log_beyond_m5(self):
        spec = RestrictionSpec(7, (1, 2, 3, 4, 5, 6, 7))
        assert encode_half_integer_chain(spec).n_dummies == 5
        assert encode_equispaced_log(spec).n_dummies == 3

    def test_non_consecutive(self):
        with pytest.raises(EncodingNotApplicableError):
            encode_half_integer_chain(RestrictionSpec(6, (0, 2, 4)))


class TestReducedGeneral:
    def test_ragged_three_values(self):
        spec = RestrictionSpec(9, (2, 5, 9))
        encoded = encode_reduced_general(spec)
        assert encoded.n_dummies == 2
        assert encoded.residual_energy == F(1, 4)
        model = encoded.model
        grounds = [
            bits
            for bits in itertools.product((0, 1), repeat=model.n_total)
            if model.energy(bits) == F(1, 4)
        ]
        expected = {(2, (0, 0)), (5, (1, 0)), (9, (0, 1))}
        assert {(sum(b[:9]), b[9:]) for b in grounds} == expected

    def test_double_activation_never_ground(self):
        # With both selector dummies on the selector term alone costs
        # (2 - 1/2)^2 = 9/4 > 1/4, so no such assignment can be a minimum.
        spec = RestrictionSpec(9, (2, 5, 9))
        model = encode_reduced_general(spec).model
        both_on = [
            bits
            for bits in itertools.product((0, 1), repeat=model.n_total)
            if bits[9] == bits[10] == 1
        ]
        assert min(model.energy(b) for b in both_on) >= F(9, 4)

    @pytest.mark.parametrize("allowed", [(0, 3), (1, 2, 5), (0, 1, 4, 6)])
    def test_dummy_count_is_m_minus_one(self, allowed):
        spec = RestrictionSpec(6, allowed)
        assert encode_reduced_general(spec).n_dummies == spec.m - 1

    def test_needs_two_values(self):
        with pytest.raises(EncodingNotApplicableError):
            encode_reduced_general(RestrictionSpec(4, (2,)))


class TestSelectOptimal:
    @pytest.mark.parametrize(
        "n_vars,allowed,kind,n_dummies",
        [
            (5, (1, 2), EncodingKind.HALF_INTEGER_M2, 0),
            (8, (1, 2, 3, 4, 5, 6, 7, 8), EncodingKind.EQUISPACED_LOG, 3),
            (9, (2, 5, 9), EncodingKind.REDUCED_GENERAL, 2),
        ],
    )
    def test_dispatch_examples(self, n_vars, allowed, kind, n_dummies):
        encoded = select_optimal(RestrictionSpec(n_vars, allowed))
        assert encoded.kind is kind
        assert encoded.n_dummies == n_dummies

    def test_never_beaten_on_dummy_count(self):
        for spec in all_specs(max_n=10, max_m=6):
            chosen = select_optimal(spec)
            alternatives = [
                encoder(spec) for encoder in applicable_encoders(spec).values()
            ]
            best = min(alt.n_dummies for alt in alternatives)
            assert chosen.n_dummies == best, spec

    def test_kind_and_applicable_order_match_the_explicit_dispatch(self):
        for spec in all_specs(max_n=10, max_m=6):
            assert select_optimal(spec).kind is reference_kind(spec), spec
            assert list(applicable_encoders(spec)) == reference_applicable(spec), spec

    @pytest.mark.parametrize("allowed, kind", [
        ((7,), EncodingKind.SINGLE_VALUE),
        ((500, 501, 502), EncodingKind.HALF_INTEGER_CHAIN),
        ((0, 100, 200, 300, 400), EncodingKind.EQUISPACED_LOG),
        ((3, 250, 600, 999), EncodingKind.REDUCED_GENERAL),
    ])
    def test_certified_at_a_thousand_variables(self, allowed, kind):
        # the twin-class table takes these models, (n+1) * 2**d entries at the default cap
        spec = RestrictionSpec(1000, allowed)
        encoded = select_optimal(spec, F(1, 7), F(3))
        assert encoded.kind is kind
        result = verify(encoded, spec)
        assert result.passed, result.diagnosis

    def test_log_preferred_at_ties(self):
        # chain and log tie at four and five consecutive values
        for allowed in [(1, 2, 3, 4), (0, 1, 2, 3, 4)]:
            spec = RestrictionSpec(6, allowed)
            assert select_optimal(spec).kind is EncodingKind.EQUISPACED_LOG


class TestMultipliers:
    @pytest.mark.parametrize("params", [{"lambda1": True}, {"lambda2": True}, {"lambda1": False}])
    def test_rejects_booleans(self, params):
        # True == 1 as an int, but it is no multiplier; lambda2 is read without a selector too
        with pytest.raises(ParameterError, match="got (True|False)"):
            encode_single_value(RestrictionSpec(4, (2,)), **params)

    def test_two_term_encodings_record_both_multipliers(self):
        params = {"lambda1": 2, "lambda2": F(3, 2)}
        spec = RestrictionSpec(6, (1, 3, 6))
        onehot = encode_one_hot_general(spec, **params)
        reduced = encode_reduced_general(spec, **params)
        assert (onehot.lambda1, onehot.lambda2) == (F(2), F(3, 2))
        assert reduced.residual_energy == F(3, 8)  # lambda2 / 4
        single = encode_single_value(RestrictionSpec(4, (2,)), **params)
        assert single.lambda2 is None


class TestGroundSetProperty:
    def test_every_applicable_encoder_on_small_specs(self):
        # exhaustive over all restrictions with up to five variables
        checked = 0
        for spec in all_specs(max_n=5, max_m=6):
            for encoder in applicable_encoders(spec).values():
                result = verify(encoder(spec), spec)
                assert result.passed, (spec, result.diagnosis)
                checked += 1
        assert checked > 300

    def test_residuals_scale_with_multipliers(self):
        rng = random.Random(99)
        specs = [
            RestrictionSpec(n, tuple(sorted(rng.sample(range(n + 1), m))))
            for n, m in [(6, 3), (7, 2), (8, 4), (5, 1), (9, 5)]
        ]
        for spec in specs:
            for encoder in applicable_encoders(spec).values():
                encoded = encoder(spec, F(7, 2), F(5))
                result = verify(encoded, spec)
                assert result.passed, (spec, encoded.kind, result.diagnosis)


class TestEncodingEquivalence:
    def test_equispaced_family_agrees(self):
        rng = random.Random(7177)
        seen = 0
        while seen < 12:
            n = rng.randint(2, 8)
            delta = rng.randint(1, min(3, n))
            max_m = (n // delta) + 1
            m = rng.randint(2, min(5, max_m))
            first = rng.randint(0, n - delta * (m - 1))
            spec = RestrictionSpec(n, tuple(first + delta * k for k in range(m)))
            encoders = [encode_equispaced_linear, encode_equispaced_log, encode_one_hot_general]
            if spec.is_consecutive:
                encoders.append(encode_half_integer_chain)
            ground_sets = {
                enumerate_spectrum(encoder(spec), spec).ground_sums
                for encoder in encoders
            }
            assert ground_sets == {frozenset(spec.allowed)}, spec
            seen += 1


class TestDummyCountTable:
    def test_log_counts(self):
        assert [log_dummy_count(m) for m in range(2, 8)] == [1, 2, 2, 3, 3, 3]
        assert log_dummy_count(8) == 3

    def test_chain_counts(self):
        assert [chain_dummy_count(m) for m in range(2, 8)] == [0, 1, 2, 3, 4, 5]

    def test_below_range(self):
        with pytest.raises(ParameterError):
            log_dummy_count(1)
        with pytest.raises(ParameterError):
            chain_dummy_count(1)
