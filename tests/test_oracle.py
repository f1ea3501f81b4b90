"""Tests for the brute-force spectrum oracle and the energy ladder."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quborestrict.core import (
    DimensionError,
    EncodedRestriction,
    EncodingKind,
    ParameterError,
    QuboModel,
    RestrictionSpec,
    SizeLimitError,
    expand_squared_affine,
)
from quborestrict.encoders import (
    EncoderParams,
    encode_half_integer_m2,
    encode_one_hot_general,
    encode_reduced_general,
    encode_single_value,
)
from quborestrict import core, oracle
from quborestrict.cli import render_dummy_table
from quborestrict.oracle import (
    SpectrumReport,
    assignment_energies,
    enumerate_spectrum,
    enumeration_bytes,
    fractional_energy_ladder,
    problem_bit_sums,
    sum_spectrum,
    table_bytes,
    twin_table,
    verify,
)
from quborestrict.sampler import exact_transfer_curve, sweep_fractional_r

from helpers import broken_one_hot, offset_tampered, symmetric_models, twin_class_models


class TestEnumerateSpectrum:
    def test_half_integer_pair_profile(self):
        spec = RestrictionSpec(3, (1, 2))
        report = enumerate_spectrum(encode_half_integer_m2(spec), spec)
        assert [report.by_sum[s][0] for s in range(4)] == [F(9, 4), F(1, 4), F(1, 4), F(9, 4)]
        assert report.ground_sums == {1, 2}
        assert report.passed

    def test_single_value_degeneracies(self):
        spec = RestrictionSpec(4, (2,))
        report = enumerate_spectrum(encode_single_value(spec), spec)
        assert report.ground_sums == {2}
        assert report.ground_energy == 0
        assert report.ground_degeneracy == 6
        assert report.by_sum[0] == (F(4), 1)
        assert report.by_sum[1] == (F(1), 4)

    def test_counting_order_matches_model_energy(self):
        model = expand_squared_affine([(i, F(2 * i + 1, 3)) for i in range(5)], F(-5, 2), F(4, 3))
        energies, scale = assignment_energies(model)
        for b in range(32):
            bits = [(b >> i) & 1 for i in range(5)]
            assert F(int(energies[b]), scale) == model.energy(bits)

    def test_size_cap(self, monkeypatch):
        # the physical memory is the only cap: a 25-bit twin-free model is refused
        # exactly when its estimate exceeds it
        model = expand_squared_affine([(i, i + 1) for i in range(25)], -7, 1)
        assert twin_table(model) is None
        needed = enumeration_bytes(25)
        monkeypatch.setattr(core, "_physical_memory", lambda: needed - 1)
        with pytest.raises(SizeLimitError, match=r"2\*\*25 assignments needs more than"):
            sum_spectrum(model)

        class Admitted(Exception):
            pass

        def admitted(*args, **kwargs):
            raise Admitted

        # admitted, the sweep goes on to allocate its arrays, which is where it stops here
        monkeypatch.setattr(core, "_physical_memory", lambda: needed)
        monkeypatch.setattr(np, "empty", admitted)
        with pytest.raises(Admitted):
            sum_spectrum(model)

    def test_huge_model_refused_before_anything_is_built(self, monkeypatch):
        # distinct diagonals leave no twins; nothing may be built for 2**100000 states
        model = QuboModel(10**5, 10**5, {(i, i): i + 1 for i in range(10**5)})
        monkeypatch.setattr(core, "_physical_memory", lambda: 8 * 2**30)
        monkeypatch.setattr(np, "zeros", mock.Mock(side_effect=AssertionError("built")))
        with pytest.raises(SizeLimitError, match=r"2\*\*100000 assignments"):
            sum_spectrum(model)

    def test_unknown_memory_bounds_by_the_address_space(self, monkeypatch):
        monkeypatch.setattr(core, "_physical_memory", lambda: None)
        for n in (60, 63):  # 60 bits of states need 20 * 2**60 bytes; 63 bits fail the shift test
            model = QuboModel(n, n, {(i, i): i + 1 for i in range(n)})
            with pytest.raises(SizeLimitError, match="more than can be addressed"):
                assignment_energies(model)
        with pytest.raises(SizeLimitError, match=r"2\*\*64 energies needs more than can be"):
            twin_table(QuboModel(128, 64, {}))

    def test_memory_estimate_at_40_bits(self):
        states = 2**40
        assert enumeration_bytes(40) == states * 8 + states // 2 * 8 + states * 8
        # object dtype: each entry is a pointer plus the Python int it holds
        assert enumeration_bytes(40, 8 + 36) == states * 44 + states // 2 * 44 + states * 8

    def test_memory_check_precedes_allocation(self, monkeypatch):
        small = QuboModel(10, 10, {(0, 0): F(1)})
        monkeypatch.setattr(core, "_physical_memory", lambda: enumeration_bytes(10) - 1)
        with pytest.raises(SizeLimitError, match="physical memory"):
            assignment_energies(small)
        monkeypatch.setattr(core, "_physical_memory", lambda: enumeration_bytes(10))
        assert assignment_energies(small)[0].shape == (2**10,)
        # an object-dtype model needs more per entry than the int64 estimate
        huge = QuboModel(10, 10, {(0, 0): F(10**30)})
        with pytest.raises(SizeLimitError, match="physical memory"):
            assignment_energies(huge)

    def test_spec_model_mismatch(self):
        spec = RestrictionSpec(4, (2,))
        encoded = encode_single_value(RestrictionSpec(3, (2,)))
        with pytest.raises(DimensionError):
            enumerate_spectrum(encoded, spec)

    def test_huge_multiplier_takes_exact_bigint_path(self):
        spec = RestrictionSpec(3, (1, 2))
        encoded = encode_half_integer_m2(spec, EncoderParams(lambda1=10**30))
        report = enumerate_spectrum(encoded, spec)
        assert report.ground_energy == F(10**30, 4)
        assert report.ground_sums == {1, 2}

    def test_thirds_multiplier_stays_exact(self):
        spec = RestrictionSpec(4, (1, 3))
        encoded = encode_reduced_general(spec, EncoderParams(lambda1=F(1, 3), lambda2=F(1, 3)))
        report = enumerate_spectrum(encoded, spec)
        assert report.ground_energy == F(1, 12)
        assert report.passed


class TestVerify:
    def test_passes_canonical_encodings(self):
        spec = RestrictionSpec(9, (2, 5, 9))
        result = verify(encode_reduced_general(spec), spec)
        assert result.passed
        assert result.report.ground_energy == F(1, 4)
        assert "match" in result.diagnosis

    def test_refutes_model_without_selector_penalty(self):
        spec = RestrictionSpec(4, (1, 3))
        result = verify(broken_one_hot(spec), spec)
        assert not result.passed
        # with no one-hot penalty the all-off dummies make sum 0 a ground state
        assert 0 in result.report.ground_sums
        assert "spurious" in result.diagnosis
        assert "0" in result.diagnosis

    def test_reports_missing_values(self):
        spec = RestrictionSpec(4, (1, 3))
        wrong_target = encode_single_value(RestrictionSpec(4, (2,)))
        doctored = EncodedRestriction(
            model=wrong_target.model,
            kind=EncodingKind.SINGLE_VALUE,
            residual_energy=F(0),
            lambda1=F(1),
        )
        result = verify(doctored, spec)
        assert not result.passed
        assert "never reach" in result.diagnosis

    def test_all_ground_model_passes_without_second_level(self):
        spec = RestrictionSpec(1, (0, 1))
        result = verify(encode_half_integer_m2(spec), spec)
        assert result.passed
        assert result.report.second_energy is None

    def test_diagnoses_a_ground_energy_off_the_declared_residual(self):
        # the right ground sums at the wrong energy: the offset raised by lambda1 / 2
        spec = RestrictionSpec(4, (2,))
        tampered = offset_tampered(encode_single_value(spec))
        result = verify(tampered, spec)
        assert not result.passed
        assert result.report.ground_sums == {2}
        assert result.diagnosis == "ground energy 1/2 differs from the declared residual 0"


class TestDummyMinimization:
    def test_by_sum_is_a_lower_bound_on_sampled_assignments(self):
        rng = random.Random(31337)
        spec = RestrictionSpec(6, (1, 4, 6))
        model = encode_one_hot_general(spec).model
        by_sum = sum_spectrum(model)
        for _ in range(300):
            bits = tuple(rng.randint(0, 1) for _ in range(model.n_total))
            s = sum(bits[: model.n_problem])
            assert by_sum[s][0] <= model.energy(bits)

    def test_matches_exhaustive_fraction_arithmetic(self):
        # independent route: plain Python enumeration with Fraction energies
        model = encode_reduced_general(RestrictionSpec(4, (0, 2, 3))).model
        by_sum = sum_spectrum(model)
        direct: dict[int, list] = {}
        for bits in itertools.product((0, 1), repeat=model.n_total):
            s = sum(bits[: model.n_problem])
            direct.setdefault(s, []).append(model.energy(bits))
        for s, energies in direct.items():
            e_min = min(energies)
            assert by_sum[s] == (e_min, energies.count(e_min))


class TestFractionalEnergyLadder:
    def test_ladder_matches_published_values(self):
        ladder = fractional_energy_ladder(10, F("6.4"), 1)
        assert ladder[:3] == [(6, F(16, 100)), (7, F(36, 100)), (5, F(196, 100))]

    def test_half_integer_tie_broken_by_smaller_sum(self):
        ladder = fractional_energy_ladder(3, F(3, 2), 1)
        assert ladder[0] == (1, F(1, 4))
        assert ladder[1] == (2, F(1, 4))

    def test_zero_target(self):
        assert fractional_energy_ladder(2, 0, 1) == [(0, F(0)), (1, F(1)), (2, F(4))]

    def test_out_of_range_target(self):
        with pytest.raises(ParameterError):
            fractional_energy_ladder(5, 6, 1)
        with pytest.raises(ParameterError):
            fractional_energy_ladder(5, F(-1, 2), 1)

    def test_argmin_is_nearest_integer_and_ladder_is_convex(self):
        rng = random.Random(4242)
        for _ in range(50):
            n = rng.randint(1, 12)
            r = F(rng.randint(0, 100 * n), 100)
            ladder = fractional_energy_ladder(n, r, F(rng.randint(1, 5), rng.randint(1, 3)))
            best_s, best_e = ladder[0]
            assert abs(best_s - r) == min(abs(s - r) for s in range(n + 1))
            ties = [s for s, e in ladder if e == best_e]
            if r.denominator == 2 and 0 < r < n:
                assert len(ties) == 2
            else:
                assert len(ties) == 1
            by_s = sorted(ladder)
            energies = [e for _, e in by_s]
            # convex in s: discrete second differences are non-negative
            for a, b, c in zip(energies, energies[1:], energies[2:]):
                assert a - 2 * b + c >= 0

    def test_matches_enumerated_spectrum_of_fractional_model(self):
        n, r = 8, F("6.4")
        model = expand_squared_affine([(i, 1) for i in range(n)], -r, 1)
        by_sum = sum_spectrum(model)
        for s, energy in fractional_energy_ladder(n, r, 1):
            assert by_sum[s][0] == energy


def test_problem_bit_sums_counts_only_problem_bits():
    sums = problem_bit_sums(3, 2)
    assert list(sums) == [0, 1, 1, 2, 0, 1, 1, 2]


def reference_energies(model: QuboModel) -> tuple[list[int], int]:
    """Slow reference: the three-operand einsum over full bit vectors, O(n**2) per state."""
    n = model.n_total
    scale = math.lcm(model.offset.denominator, *(q.denominator for q in model.coeffs.values()))
    q_matrix = np.zeros((n, n), dtype=object)
    for (i, j), q in model.coeffs.items():
        q_matrix[i, j] = int(q * scale)
    idx = np.arange(1 << n, dtype=np.int64)
    bits = ((idx[:, None] >> np.arange(n, dtype=np.int64)) & 1).astype(object)
    energies = np.einsum("bi,ij,bj->b", bits, q_matrix, bits) + int(model.offset * scale)
    return [int(e) for e in energies], scale


def reference_report(encoded: EncodedRestriction, spec: RestrictionSpec) -> SpectrumReport:
    """Spectrum of the reference energies, reduced in plain Python."""
    model = encoded.model
    scaled, scale = reference_energies(model)
    energies = [F(e, scale) for e in scaled]
    mask = (1 << model.n_problem) - 1
    sums = [(b & mask).bit_count() for b in range(len(energies))]
    by_sum = {}
    for s in range(model.n_problem + 1):
        at_s = [e for e, t in zip(energies, sums) if t == s]
        by_sum[s] = (min(at_s), at_s.count(min(at_s)))
    ground = min(energies)
    above = [e for e in energies if e > ground]
    ground_sums = frozenset(t for e, t in zip(energies, sums) if e == ground)
    return SpectrumReport(
        by_sum=by_sum,
        ground_energy=ground,
        ground_sums=ground_sums,
        ground_degeneracy=energies.count(ground),
        second_energy=min(above) if above else None,
        passed=ground_sums == frozenset(spec.allowed) and ground == encoded.residual_energy,
    )


@st.composite
def qubo_models(draw, min_problem=0, huge=False):
    """Random models on up to 12 bits; ``huge`` scales them past the int64 bound."""
    n_total = draw(st.integers(min_problem, 12))
    n_problem = draw(st.integers(min_problem, n_total))
    # narrow integers make ties and near-ties common; wide fractions do not
    small = st.one_of(st.integers(-2, 2).map(F),
                      st.fractions(min_value=-20, max_value=20, max_denominator=6))
    pairs = [(i, j) for i in range(n_total) for j in range(i, n_total)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    coeffs = {key: draw(small) for key in keys}
    offset = draw(small)
    if huge:
        lam = draw(st.integers(10**18, 10**30))
        coeffs = {key: lam * q for key, q in coeffs.items()}
        offset = lam * (offset + 5 if offset >= 0 else offset - 5)
    return QuboModel(n_total, n_problem, coeffs, offset)


def drawn_restriction(model: QuboModel, data) -> tuple[EncodedRestriction, RestrictionSpec]:
    """The model with a drawn spec, declaring residual 0 or the magnitude of its ground energy."""
    scaled, scale = reference_energies(model)
    allowed = data.draw(st.sets(st.integers(0, model.n_problem), min_size=1))
    spec = RestrictionSpec(model.n_problem, tuple(allowed))
    encoded = EncodedRestriction(
        model=model, kind=EncodingKind.REDUCED_GENERAL,
        residual_energy=data.draw(st.sampled_from([F(0), abs(F(min(scaled), scale))])),
        lambda1=F(1))
    return encoded, spec


NO_DEADLINE = settings(deadline=None)


class TestAgainstEinsumReference:
    @NO_DEADLINE
    @given(qubo_models())
    def test_energies_and_sums_match(self, model):
        energies, scale = assignment_energies(model)
        assert energies.dtype == np.int64
        assert (energies.tolist(), scale) == reference_energies(model)
        mask = (1 << model.n_problem) - 1
        sums = problem_bit_sums(model.n_total, model.n_problem)
        assert sums.dtype == np.int64
        assert sums.tolist() == [(b & mask).bit_count() for b in range(1 << model.n_total)]

    @NO_DEADLINE
    @given(qubo_models(huge=True))
    def test_huge_multipliers_match_on_the_object_path(self, model):
        energies, scale = assignment_energies(model)
        assert energies.dtype == object
        assert (energies.tolist(), scale) == reference_energies(model)

    @NO_DEADLINE
    @given(st.one_of(qubo_models(min_problem=1), qubo_models(min_problem=1, huge=True)),
           st.data())
    def test_spectrum_reports_match(self, model, data):
        encoded, spec = drawn_restriction(model, data)
        expected = reference_report(encoded, spec)
        assert enumerate_spectrum(encoded, spec) == expected
        assert sum_spectrum(model) == expected.by_sum


def forced_sweep(encoded: EncodedRestriction, spec: RestrictionSpec) -> SpectrumReport:
    """The report of the doubling sweep, with the twin-class table refused."""
    with mock.patch.object(oracle, "twin_table", return_value=None):
        return enumerate_spectrum(encoded, spec)


def lowered_one_hot(i: int, j: int) -> EncodedRestriction:
    """The 17 + 3 bit one-hot encoding with the coupling of bits i and j lowered by 1/2."""
    encoded = encode_one_hot_general(RestrictionSpec(17, (2, 9, 15)))
    coeffs = dict(encoded.model.coeffs)
    coeffs[(i, j)] -= F(1, 2)
    return EncodedRestriction(model=QuboModel(20, 17, coeffs, encoded.model.offset),
                              kind=encoded.kind, residual_energy=encoded.residual_energy,
                              lambda1=encoded.lambda1, lambda2=encoded.lambda2)


class TestSymmetricEngine:
    """The twin-class table against the doubling sweep and the einsum reference."""

    # the 14-bit reference costs about half a second per example
    @settings(deadline=None, max_examples=25)
    @given(st.one_of(symmetric_models(), symmetric_models(huge=True)), st.data())
    def test_reports_match_doubling_and_reference(self, model, data):
        assert twin_table(model)[1] == [list(range(model.n_problem))]
        encoded, spec = drawn_restriction(model, data)
        tabulated = enumerate_spectrum(encoded, spec)
        assert tabulated == forced_sweep(encoded, spec) == reference_report(encoded, spec)

    @settings(deadline=None, max_examples=30)
    @given(st.one_of(twin_class_models(), twin_class_models(huge=True)), st.data())
    def test_multi_class_models_take_the_table_and_match(self, model, data):
        # a perturbed symmetric model or a sum of squares over disjoint blocks
        assert twin_table(model) is not None
        encoded, spec = drawn_restriction(model, data)
        tabulated = enumerate_spectrum(encoded, spec)
        assert tabulated == forced_sweep(encoded, spec) == reference_report(encoded, spec)

    def test_table_of_a_one_hot_encoding(self):
        # (x0 + x1 - y0 - 2*y1)**2 plus the selector (y0 + y1 - 1)**2
        spec = RestrictionSpec(2, (1, 2))
        scale, classes, rows = twin_table(encode_one_hot_general(spec).model)
        assert (scale, classes) == (1, [[0, 1]])
        # columns: dummy patterns y = 0b00, 0b01, 0b10, 0b11
        assert [energies for _, _, energies in rows] == [[1, 1, 4, 10], [2, 0, 1, 5], [5, 1, 0, 2]]
        assert [(counts, multiplicity) for counts, multiplicity, _ in rows] == [
            ((0,), 1), ((1,), 2), ((2,), 1)]

    def test_lowered_coupling_splits_off_its_pair(self):
        # the certify benchmark's broken file: the classes are {i, j} and the other 15 bits
        encoded = lowered_one_hot(4, 11)
        _, classes, rows = twin_table(encoded.model)
        assert classes == [[0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16], [4, 11]]
        assert sum(len(energies) for _, _, energies in rows) == 16 * 3 * 8 == 384
        assert sum(multiplicity for _, multiplicity, _ in rows) == 2**17
        spec = RestrictionSpec(17, (2, 9, 15))
        report = enumerate_spectrum(encoded, spec)
        assert report == forced_sweep(encoded, spec)
        assert not report.passed

    def test_twin_free_model_takes_the_sweep(self):
        # distinct weights leave every bit in its own class: 2**8 count vectors > 9**2
        model = expand_squared_affine([(i, i + 1) for i in range(8)], -10, 1)
        assert twin_table(model) is None
        encoded = EncodedRestriction(model=model, kind=EncodingKind.REDUCED_GENERAL,
                                     residual_energy=F(0), lambda1=F(1))
        spec = RestrictionSpec(8, (4,))
        assert enumerate_spectrum(encoded, spec) == reference_report(encoded, spec)

    def test_equal_term_multisets_that_are_not_twins_take_the_sweep(self):
        # bits 0-3 each have diagonal 1 and couplings 1, 2 and 3 to the other three, so
        # they are proposed as one class; the couplings within it differ, so the
        # second check refuses it
        model = QuboModel(5, 5, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1, (4, 4): 5,
                                 (0, 1): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2,
                                 (0, 3): 3, (1, 2): 3})
        assert twin_table(model) is None
        encoded = EncodedRestriction(model=model, kind=EncodingKind.REDUCED_GENERAL,
                                     residual_energy=F(0), lambda1=F(1))
        spec = RestrictionSpec(5, (0,))
        assert enumerate_spectrum(encoded, spec) == reference_report(encoded, spec)

    def test_many_classes_are_refused_without_their_row_product(self, monkeypatch):
        def forbidden(factors):
            raise RuntimeError("math.prod was called")

        monkeypatch.setattr(math, "prod", forbidden)
        # 10**4 classes of one bit: more than 2 * (n + 1).bit_length() = 28, so no product
        n = 10**4
        assert twin_table(QuboModel._scaled(n, n, 1, {(i, i): i + 1 for i in range(n)}, 0)) is None
        # 3 classes are fewer than 2 * (3 + 1).bit_length() = 6: the product decides
        with pytest.raises(RuntimeError, match="math.prod"):
            twin_table(QuboModel(3, 3, {(0, 0): 1, (1, 1): 2, (2, 2): 3}))

    def test_too_many_dummies_take_the_sweep(self):
        model = QuboModel(5, 1, {(0, 0): F(1), (1, 4): F(2)})
        assert twin_table(model) is None
        assert twin_table(QuboModel(3, 1, {(0, 0): F(1), (1, 2): F(2)})) is not None

    def test_missing_coefficient_breaks_symmetry(self):
        model = expand_squared_affine([(i, 1) for i in range(4)], -2, 1)
        coeffs = dict(model.coeffs)
        del coeffs[(1, 3)]
        # bits 1 and 3 lose only their mutual coupling, so they stay twins
        assert twin_table(QuboModel(4, 4, coeffs, model.offset))[1] == [[0, 2], [1, 3]]

    def test_table_refused_beyond_the_physical_memory(self, monkeypatch):
        model = expand_squared_affine([(i, 1) for i in range(8)], -2, 1)
        estimates = []

        def recorded(*args):
            estimates.append(table_bytes(*args))
            return estimates[-1]

        monkeypatch.setattr(oracle, "table_bytes", recorded)
        assert len(twin_table(model)[2]) == 9
        needed = max(estimates)
        monkeypatch.setattr(core, "_physical_memory", lambda: needed - 1)
        with pytest.raises(SizeLimitError, match="physical memory"):
            twin_table(model)
        with pytest.raises(SizeLimitError, match="physical memory"):
            sum_spectrum(model)
        monkeypatch.setattr(core, "_physical_memory", lambda: needed)
        assert len(twin_table(model)[2]) == 9
        # 2**64 energies per row are refused before any shift or allocation
        monkeypatch.setattr(core, "_physical_memory", lambda: 2**63)
        with pytest.raises(SizeLimitError, match=r"2\*\*64 energies"):
            twin_table(QuboModel(128, 64, {}))

    def test_thirty_bit_symmetric_model_certifies(self):
        spec = RestrictionSpec(27, (2, 9, 20))
        encoded = encode_one_hot_general(spec)
        assert encoded.model.n_total == 30
        result = verify(encoded, spec)
        assert result.passed, result.diagnosis
        assert result.report.ground_degeneracy == math.comb(27, 2) + math.comb(27, 9) + math.comb(27, 20)


@pytest.mark.parametrize("refused", [
    lambda: twin_table(QuboModel(39, 19, {})),  # one class of 19 bits, 20 dummies
    lambda: sum_spectrum(QuboModel(21, 21, {(i, i): i + 1 for i in range(21)})),  # no twins
    lambda: expand_squared_affine([(i, 1) for i in range(500)], -2, 1),
    lambda: render_dummy_table(10**8),
    lambda: sweep_fractional_r(2, 0, 1, 10**8),
    lambda: exact_transfer_curve(2, 0, 1, 10**8),
], ids=["table", "sweep", "construction", "dummy-table", "sampled-grid", "exact-grid"])
def test_every_refusal_comes_from_one_helper_before_allocating(monkeypatch, refused):
    monkeypatch.setattr(core, "_physical_memory", lambda: 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="needs more than the physical memory") as caught:
            refused()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert caught.traceback[-1].name == "check_memory"
    assert peak < 2**20


@pytest.mark.parametrize("lam", [1, 10**30])
def test_traced_peak_within_the_memory_estimate(monkeypatch, lam):
    # distinct problem weights: no twins, so the doubling sweep runs
    model = expand_squared_affine([(i, i + 1) for i in range(16)], -7, lam, n_problem=12)
    assert twin_table(model) is None
    spec = RestrictionSpec(12, (3,))
    encoded = EncodedRestriction(model=model, kind=EncodingKind.REDUCED_GENERAL,
                                 residual_energy=F(0), lambda1=F(1))
    estimates = []

    def recorded(*args):
        estimates.append(enumeration_bytes(*args))
        return estimates[-1]

    monkeypatch.setattr(oracle, "enumeration_bytes", recorded)
    tracemalloc.start()
    try:
        enumerate_spectrum(encoded, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(estimates) == 1
    assert peak <= estimates[0]


@pytest.mark.parametrize("model", [
    expand_squared_affine([(i, 1) for i in range(300)], -150, 1),
    lowered_one_hot(4, 11).model,
    encode_one_hot_general(RestrictionSpec(12, (2, 5, 9)), EncoderParams(10**30, 10**30)).model,
], ids=["one class", "two classes", "huge multipliers"])
def test_traced_table_within_its_estimate(monkeypatch, model):
    estimates = []

    def recorded(*args):
        estimates.append(table_bytes(*args))
        return estimates[-1]

    monkeypatch.setattr(oracle, "table_bytes", recorded)
    tracemalloc.start()
    try:
        twin_table(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the first estimate is the lower bound of one class, the last the table built
    assert len(estimates) == 2
    assert peak <= estimates[-1]
