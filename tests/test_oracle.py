"""Tests for the brute-force spectrum oracle and the energy ladder."""

from __future__ import annotations

import contextlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    encode_equispaced_linear,
    encode_equispaced_log,
    encode_half_integer_chain,
    encode_half_integer_m2,
    encode_one_hot_general,
    encode_reduced_general,
    encode_single_value,
)
from quborestrict import core, encoders, oracle, qubofile
from quborestrict.cli import render_dummy_table
from quborestrict.oracle import (
    SpectrumReport,
    assignment_energies,
    enumerate_spectrum,
    enumeration_bytes,
    fractional_energy_ladder,
    problem_bit_sums,
    table_bytes,
    twin_table,
    verify,
)
from quborestrict.sampler import (
    boltzmann_probabilities,
    exact_sum_distribution,
    exact_transfer_curve,
    sweep_fractional_r,
)

from helpers import (
    broken_one_hot,
    general_encodings,
    offset_tampered,
    shaped_restriction,
    symmetric_models,
    twin_class_models,
    twin_dummy_models,
)


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
            oracle._spectrum(model)

        class Admitted(Exception):
            pass

        def admitted(*args, **kwargs):
            raise Admitted

        # admitted, the sweep goes on to allocate its arrays, which is where it stops here
        monkeypatch.setattr(core, "_physical_memory", lambda: needed)
        monkeypatch.setattr(np, "empty", admitted)
        with pytest.raises(Admitted):
            oracle._spectrum(model)

    def test_huge_model_refused_before_anything_is_built(self, monkeypatch):
        # distinct diagonals leave no twins; nothing may be built for 2**100000 states
        model = QuboModel(10**5, 10**5, {(i, i): i + 1 for i in range(10**5)})
        monkeypatch.setattr(core, "_physical_memory", lambda: 8 * 2**30)
        for allocate in ("zeros", "empty"):
            monkeypatch.setattr(np, allocate, mock.Mock(side_effect=AssertionError("built")))
        with pytest.raises(SizeLimitError, match=r"2\*\*100000 assignments"):
            oracle._spectrum(model)

    def test_unknown_memory_bounds_by_the_address_space(self, monkeypatch):
        monkeypatch.setattr(core, "_physical_memory", lambda: None)
        for n in (60, 63):  # 60 bits of states need 20 * 2**60 bytes; 63 bits fail the shift test
            model = QuboModel(n, n, {(i, i): i + 1 for i in range(n)})
            with pytest.raises(SizeLimitError, match="more than can be addressed"):
                assignment_energies(model)
        # 64 dummies of distinct diagonals: 2**64 entries per row before any merge
        with pytest.raises(SizeLimitError, match=f"{2**64} energies needs more than can be"):
            twin_table(distinct_dummies(64, 64))
        # 2**60 problem bits give at least 2**60 + 1 rows, refused before any list is built
        with pytest.raises(SizeLimitError, match=f"{2**60 + 1} rows of 1 energies needs more "
                                                 "than can be addressed"):
            twin_table(QuboModel(2**60, 2**60, {}))

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
        encoded = encode_half_integer_m2(spec, lambda1=10**30)
        report = enumerate_spectrum(encoded, spec)
        assert report.ground_energy == F(10**30, 4)
        assert report.ground_sums == {1, 2}

    def test_thirds_multiplier_stays_exact(self):
        spec = RestrictionSpec(4, (1, 3))
        encoded = encode_reduced_general(spec, lambda1=F(1, 3), lambda2=F(1, 3))
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

    # lam (x - 1/2)**2 on one bit is lam / 4 on both assignments; 10**30 takes object dtype
    @pytest.mark.parametrize("lam", [1, 10**30])
    @pytest.mark.parametrize("name", ["table", "sweep"])
    def test_all_ground_model_passes_without_second_level(self, name, lam):
        spec = RestrictionSpec(1, (0, 1))
        encoded = encode_half_integer_m2(spec, lambda1=lam)
        assert (oracle._energy_bound(encoded.model) >= 2**62) == (lam > 1)
        with engine(name, encoded.model):
            result = verify(encoded, spec)
        assert result.passed
        assert result.report.second_energy is None
        assert result.diagnosis.endswith("(all assignments are ground states)")

    def test_diagnoses_a_ground_energy_off_the_declared_residual(self):
        # the right ground sums at the wrong energy: the offset raised by lambda1 / 2
        spec = RestrictionSpec(4, (2,))
        tampered = offset_tampered(encode_single_value(spec))
        result = verify(tampered, spec)
        assert not result.passed
        assert result.report.ground_sums == {2}
        assert result.diagnosis == "ground energy 1/2 differs from the declared residual 0"


def raised_coupling(encoded: EncodedRestriction, by: F) -> EncodedRestriction:
    """``encoded`` with the coupling of problem bits 0 and 1 raised by ``by``."""
    model = encoded.model
    coeffs = dict(model.coeffs)
    coeffs[(0, 1)] = coeffs.get((0, 1), 0) + by
    return EncodedRestriction(model=QuboModel(model.n_total, model.n_problem, coeffs, model.offset),
                              kind=encoded.kind, residual_energy=encoded.residual_energy,
                              lambda1=encoded.lambda1, lambda2=encoded.lambda2)


def engine(name: str, model: QuboModel) -> contextlib.AbstractContextManager:
    """A context in which the oracle takes ``name``'s engine, the table or the sweep."""
    if name == "table":
        assert twin_table(model) is not None
        return contextlib.nullcontext()
    return mock.patch.object(oracle, "twin_table", return_value=None)


# the file of `encode --n 6 --allowed 1,3` with its term line "0 1 2" changed to "0 1 4"
RAISED_LOG = raised_coupling(encode_equispaced_log(RestrictionSpec(6, (1, 3))), F(2))
# (x0 - x1)**2 + (x2 - x3)**2: only 2 of the 6 assignments of sum 2 are ground states
TWO_SQUARES = EncodedRestriction(
    QuboModel(4, 4, {(0, 0): 1, (0, 1): -2, (1, 1): 1, (2, 2): 1, (2, 3): -2, (3, 3): 1}),
    EncodingKind.REDUCED_GENERAL, 0, 1)

# a spec per construction whose allowed sums of at least 2 all lie below n
RAISED_SPECS = {
    EncodingKind.SINGLE_VALUE: (3,),
    EncodingKind.ONE_HOT_GENERAL: (1, 4),
    EncodingKind.EQUISPACED_LINEAR: (1, 3, 5),
    EncodingKind.EQUISPACED_LOG: (1, 3),
    EncodingKind.HALF_INTEGER_M2: (2, 3),
    EncodingKind.HALF_INTEGER_CHAIN: (2, 3, 4),
    EncodingKind.REDUCED_GENERAL: (0, 2, 5),
}


@pytest.mark.parametrize("name", ["table", "sweep"])
class TestFeasibleAssignmentsAboveTheGround:
    """A valid restriction is minimal on every assignment of an allowed sum, not on some."""

    @pytest.mark.parametrize("encoded, allowed, s, reached", [
        (RAISED_LOG, (1, 3), 3, 16), (TWO_SQUARES, (0, 2, 4), 2, 2)], ids=["log", "squares"])
    def test_refutes_a_sum_that_only_some_assignments_reach(self, name, encoded, allowed, s,
                                                             reached):
        spec = RestrictionSpec(encoded.model.n_problem, allowed)
        with engine(name, encoded.model):
            result = verify(encoded, spec)
        assert result.report.ground_sums == set(allowed)
        assert result.report.ground_energy == encoded.residual_energy == 0
        # fewer than C(n, s) assignments of sum s reach the ground
        assert result.report.by_sum[s] == (0, reached) and reached < math.comb(spec.n_vars, s)
        assert s not in result.report.uniform_sums
        assert not result.passed and not result.report.passed
        assert result.diagnosis == f"assignments of allowed sums [{s}] lie above the ground energy"

    @pytest.mark.parametrize("kind", RAISED_SPECS, ids=lambda kind: kind.value)
    def test_a_raised_problem_coupling_fails_every_construction(self, name, kind):
        spec = RestrictionSpec(6, RAISED_SPECS[kind])
        encoded = getattr(encoders, f"encode_{kind.value}")(spec)
        raised = raised_coupling(encoded, encoded.lambda1)
        with engine(name, raised.model):
            assert verify(encoded, spec).passed
            result = verify(raised, spec)
        high = [s for s in spec.allowed if s >= 2]
        assert result.diagnosis == f"assignments of allowed sums {high} lie above the ground energy"
        assert result.report.uniform_sums.isdisjoint(high)

    def test_a_sum_that_never_reaches_the_ground_is_named_once(self, name):
        spec = RestrictionSpec(6, (2, 3))
        with engine(name, RAISED_LOG.model):
            result = verify(RAISED_LOG, spec)
        assert 2 not in result.report.uniform_sums
        assert result.diagnosis == (
            "allowed sums [2] never reach the ground energy; assignments of allowed sums [3] "
            "lie above the ground energy; spurious ground states at sums [1]")


class TestDummyMinimization:
    def test_by_sum_is_a_lower_bound_on_sampled_assignments(self):
        rng = random.Random(31337)
        spec = RestrictionSpec(6, (1, 4, 6))
        model = encode_one_hot_general(spec).model
        by_sum = oracle._spectrum(model)[0]
        for _ in range(300):
            bits = tuple(rng.randint(0, 1) for _ in range(model.n_total))
            s = sum(bits[: model.n_problem])
            assert by_sum[s][0] <= model.energy(bits)

    def test_matches_exhaustive_fraction_arithmetic(self):
        # independent route: plain Python enumeration with Fraction energies
        model = encode_reduced_general(RestrictionSpec(4, (0, 2, 3))).model
        by_sum = oracle._spectrum(model)[0]
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
        by_sum = oracle._spectrum(model)[0]
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
    # each problem assignment's energy with its dummies minimized over
    lows: dict[int, F] = {}
    for b, e in enumerate(energies):
        lows[b & mask] = min(lows.get(b & mask, e), e)
    uniform = frozenset(s for s in by_sum
                        if all(low == by_sum[s][0] for p, low in lows.items() if p.bit_count() == s))
    # valid: minimal exactly on the assignments of allowed sums, at the declared residual
    feasible = {p for p in lows if p.bit_count() in spec.allowed}
    return SpectrumReport(
        by_sum=by_sum,
        ground_energy=ground,
        ground_sums=ground_sums,
        ground_degeneracy=energies.count(ground),
        second_energy=min(above) if above else None,
        uniform_sums=uniform,
        passed={p for p, low in lows.items() if low == ground} == feasible
        and ground == encoded.residual_energy,
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

    @pytest.mark.parametrize("bound, dtype", [(2**62 - 1, np.int64), (2**62, object)],
                             ids=["int64", "object"])
    def test_dtype_switches_at_the_int64_bound(self, bound, dtype):
        # distinct diagonals leave no twins; a coupling near 2**62 is added to int64 arrays
        # as a Python int, and the partial sums reach the bound, which no energy passes
        small = {(i, i): i + 1 for i in range(7)} | {(i, i + 1): -1 - i for i in range(6)}
        coupling = bound - sum(map(abs, small.values())) - 3
        model = QuboModel(7, 7, small | {(0, 6): coupling}, offset=-3)
        assert twin_table(model) is None
        assert oracle._energy_bound(model) == bound
        energies, scale = assignment_energies(model)
        assert energies.dtype == dtype
        assert (energies.tolist(), scale) == reference_energies(model)

    @NO_DEADLINE
    @given(st.one_of(qubo_models(min_problem=1), qubo_models(min_problem=1, huge=True)),
           st.data())
    def test_spectrum_reports_match(self, model, data):
        encoded, spec = drawn_restriction(model, data)
        expected = reference_report(encoded, spec)
        assert enumerate_spectrum(encoded, spec) == expected
        assert verify(encoded, spec).passed == expected.passed
        assert oracle._spectrum(model)[0] == expected.by_sum


def distinct_dummies(n: int, d: int) -> QuboModel:
    """n empty problem bits and d dummies of diagonals 2**k: each dummy is a class of one,
    and no two of the 2**d dummy patterns share an energy, so none merge."""
    return QuboModel._scaled(n + d, n, 1, {(n + k, n + k): 1 << k for k in range(d)}, 0)


def coupled_dummies(n: int, d: int) -> QuboModel:
    """n problem bits and d dummies, dummy k coupled to each problem bit by 2**k and
    dummy l > k by 2**k + 2**l: no two dummy patterns share a field, so none merge."""
    coeffs = {(i, n + k): 1 << k for i in range(n) for k in range(d)}
    coeffs.update({(n + k, n + l): (1 << k) + (1 << l) for k in range(d) for l in range(k + 1, d)})
    return QuboModel._scaled(n + d, n, 1, coeffs, 0)


def forced_sweep(encoded: EncodedRestriction, spec: RestrictionSpec) -> SpectrumReport:
    """The report of the doubling sweep, with the twin-class table refused."""
    with mock.patch.object(oracle, "twin_table", return_value=None):
        return enumerate_spectrum(encoded, spec)


def lowered_one_hot(i: int, j: int, spec: RestrictionSpec = RestrictionSpec(17, (2, 9, 15)),
                    lam: int = 1) -> EncodedRestriction:
    """The one-hot encoding of ``spec`` (17 + 3 bits), both multipliers ``lam``, with the
    coupling of bits i and j lowered by 1/2."""
    encoded = encode_one_hot_general(spec, lam, lam)
    coeffs = dict(encoded.model.coeffs)
    coeffs[(i, j)] -= F(1, 2)
    model = encoded.model
    return EncodedRestriction(model=QuboModel(model.n_total, model.n_problem, coeffs, model.offset),
                              kind=encoded.kind, residual_energy=encoded.residual_energy,
                              lambda1=encoded.lambda1, lambda2=encoded.lambda2)


@st.composite
def few_valued_models(draw):
    """Models on up to 8 bits whose terms take one to three values, so twins and bits of
    equal term multisets are common: random terms, a matching or a path over shuffled bits."""
    n_total = draw(st.integers(1, 8))
    n_problem = draw(st.integers(1, n_total))
    order = draw(st.permutations(range(n_total)))
    values = st.sampled_from(draw(st.sampled_from([[1], [-1, 1], [-1, 1, 2]])))
    shape = draw(st.sampled_from(["terms", "matching", "path"]))
    if shape == "matching":
        pairs = list(zip(order[::2], order[1::2]))
    elif shape == "path":
        pairs = list(zip(order, order[1:]))
    else:
        pairs = [pair for pair in itertools.combinations(range(n_total), 2) if draw(st.booleans())]
    coeffs = {tuple(sorted(pair)): draw(values) for pair in pairs}
    for i in draw(st.sets(st.integers(0, n_total - 1))):
        coeffs[(i, i)] = draw(values)
    return QuboModel(n_total, n_problem, coeffs)


def twin_partition(model: QuboModel) -> list[list[int]]:
    """The twin classes by their definition, pair by pair, ordered by first bit."""
    n, coeffs = model.n_problem, model.coeffs

    def q(i: int, j: int) -> F:
        return coeffs.get((min(i, j), max(i, j)), 0)

    def twins(i: int, j: int) -> bool:
        return ((i < n) == (j < n) and q(i, i) == q(j, j)
                and all(q(i, k) == q(j, k) for k in range(model.n_total) if k not in (i, j)))

    classes: list[list[int]] = []
    for i in range(model.n_total):
        # being twins is an equivalence, so the first bit of a class stands for it
        for members in classes:
            if twins(members[0], i):
                members.append(i)
                break
        else:
            classes.append([i])
    return classes


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
        assert verify(encoded, spec).passed == tabulated.passed

    @settings(deadline=None, max_examples=30)
    @given(st.one_of(twin_class_models(), twin_class_models(huge=True)), st.data())
    def test_multi_class_models_take_the_table_and_match(self, model, data):
        # a perturbed symmetric model or a sum of squares over disjoint blocks
        assert twin_table(model) is not None
        encoded, spec = drawn_restriction(model, data)
        tabulated = enumerate_spectrum(encoded, spec)
        assert tabulated == forced_sweep(encoded, spec) == reference_report(encoded, spec)
        assert verify(encoded, spec).passed == tabulated.passed

    # two models the test above drew, a matching and a star among the dummies, pinned
    # here because @example cannot supply its st.data()
    @pytest.mark.parametrize("model, cells", [
        (QuboModel(7, 3, {(0, 0): -1, (3, 6): 1, (4, 5): 1}), [[0], [1, 2], [3, 6], [4, 5]]),
        (QuboModel(7, 3, {(0, 0): -1, (3, 6): -1, (4, 6): 1, (5, 6): 1}),
         [[0], [1, 2], [3], [4, 5], [6]]),
    ], ids=["matched dummies", "star dummies"])
    @pytest.mark.parametrize("allowed", [(0,), (1, 2, 3)])
    def test_pinned_multi_class_models_take_the_table_and_match(self, model, cells, allowed):
        with mock.patch.object(oracle, "_are_twins", wraps=oracle._are_twins) as confirmed:
            assert twin_table(model)[1] == cells[:2]
        assert confirmed.call_args.args[1] == cells
        encoded = EncodedRestriction(model=model, kind=EncodingKind.REDUCED_GENERAL,
                                     residual_energy=F(0), lambda1=F(1))
        spec = RestrictionSpec(3, allowed)
        tabulated = enumerate_spectrum(encoded, spec)
        assert tabulated == forced_sweep(encoded, spec) == reference_report(encoded, spec)

    @settings(deadline=None, max_examples=300)
    @given(st.one_of(few_valued_models(), twin_class_models()))
    # weights from tuple hashes, nearly linear in the bit, meet r1 + r4 == r2 + r3 and
    # would group the non-twins 2 and 4 of this path
    @example(QuboModel(5, 5, {(0, 0): 2, (0, 3): -1, (1, 2): -1, (2, 4): -1, (3, 4): -1}))
    def test_confirmed_classes_are_the_twin_partition(self, model):
        cells, n = twin_partition(model), model.n_problem
        within_caps = (math.prod(len(c) + 1 for c in cells if c[0] < n) <= (n + 1) ** 2
                       and math.prod(len(c) + 1 for c in cells if c[0] >= n) <= 2 << n)
        with mock.patch.object(oracle, "_are_twins", wraps=oracle._are_twins) as confirmed:
            table = twin_table(model)
        assert (table is not None) == within_caps
        if within_caps:
            assert confirmed.call_args.args[1] == cells

    @settings(deadline=None, max_examples=60)
    @given(st.one_of(few_valued_models(), twin_class_models()), st.data())
    def test_colliding_weights_cost_only_speed(self, model, data):
        encoded, spec = drawn_restriction(model, data)
        with mock.patch("random.Random") as equal_weights:
            equal_weights.return_value.getrandbits.return_value = 1
            tabulated = enumerate_spectrum(encoded, spec)
        assert tabulated == forced_sweep(encoded, spec)

    def test_equal_weights_group_non_twins_and_take_the_sweep(self):
        # a path 1-2-4-3-0: with every weight 1, bits 2, 3 and 4 share diagonal 0 and row
        # sum -2, so they are proposed as one class, which the confirming pass refuses
        model = QuboModel(5, 5, {(0, 0): 2, (0, 3): -1, (1, 2): -1, (2, 4): -1, (3, 4): -1})
        assert twin_table(model)[1] == [[0], [1], [2], [3], [4]]
        with mock.patch("random.Random") as equal_weights:
            equal_weights.return_value.getrandbits.return_value = 1
            with mock.patch.object(oracle, "_are_twins", wraps=oracle._are_twins) as confirmed:
                assert twin_table(model) is None
        assert confirmed.call_args.args[1] == [[0], [1], [2, 3, 4]]

    @settings(deadline=None, max_examples=30)
    @given(st.one_of(twin_dummy_models(), twin_dummy_models(huge=True),
                     twin_dummy_models(perturbed=True)), st.data())
    def test_twin_dummy_models_match_doubling_and_reference(self, model, data):
        encoded, spec = drawn_restriction(model, data)
        tabulated = enumerate_spectrum(encoded, spec)
        assert tabulated == forced_sweep(encoded, spec) == reference_report(encoded, spec)
        assert verify(encoded, spec).passed == tabulated.passed

    def test_chain_dummies_form_one_class(self):
        # (sum(x) - y0 - y1 - y2 - 3/2)**2: three twin dummies, four count vectors
        encoded = encode_half_integer_chain(RestrictionSpec(6, (1, 2, 3, 4, 5)))
        _, classes, weights, rows = twin_table(encoded.model)
        assert (classes, weights) == ([list(range(6))], [1, 3, 3, 1])
        assert [len(energies) for _, _, energies in rows] == [4] * 7
        spec = RestrictionSpec(6, (1, 2, 3, 4, 5))
        assert enumerate_spectrum(encoded, spec) == forced_sweep(encoded, spec)

    def test_changed_problem_coupling_splits_its_dummy_off(self):
        # dummy 6 of the chain's twins 6, 7, 8 couples differently to bit 0: bit 0 and
        # dummy 6 each become a class of one
        spec = RestrictionSpec(6, (1, 2, 3, 4, 5))
        encoded = encode_half_integer_chain(spec)
        coeffs = dict(encoded.model.coeffs)
        coeffs[(0, 6)] += F(1, 2)
        changed = EncodedRestriction(model=QuboModel(9, 6, coeffs, encoded.model.offset),
                                     kind=encoded.kind, residual_energy=encoded.residual_energy,
                                     lambda1=encoded.lambda1)
        _, classes, weights, _ = twin_table(changed.model)
        assert classes == [[0], [1, 2, 3, 4, 5]]
        assert weights == [1, 1, 2, 2, 1, 1]  # {6} varies fastest, then {7, 8}
        assert enumerate_spectrum(changed, spec) == forced_sweep(changed, spec)

    def test_removed_dummy_coupling_keeps_the_pair_that_lost_it(self):
        # dummies 6 and 7 lose only their mutual coupling, so they stay twins; 8 splits off
        spec = RestrictionSpec(6, (1, 2, 3, 4, 5))
        encoded = encode_half_integer_chain(spec)
        coeffs = dict(encoded.model.coeffs)
        del coeffs[(6, 7)]
        removed = EncodedRestriction(model=QuboModel(9, 6, coeffs, encoded.model.offset),
                                     kind=encoded.kind, residual_energy=encoded.residual_energy,
                                     lambda1=encoded.lambda1)
        with mock.patch.object(oracle, "_are_twins", wraps=oracle._are_twins) as confirmed:
            _, classes, weights, _ = twin_table(removed.model)
        assert confirmed.call_args.args[1] == [list(range(6)), [6, 7], [8]]
        # one set dummy, of either class, has one energy and one field on the problem bits:
        # its 2 + 1 patterns merge, while 6 and 7 both set miss the coupling 6 + 8 has
        assert (classes, weights) == ([list(range(6))], [1, 3, 1, 2, 1])
        assert enumerate_spectrum(removed, spec) == forced_sweep(removed, spec)

    @pytest.mark.parametrize("encode, m", [
        (encode_half_integer_chain, 18), (encode_half_integer_chain, 24),
        (encode_half_integer_chain, 41), (encode_equispaced_linear, 24),
        (encode_equispaced_linear, 41),
    ])
    def test_long_chains_certify_at_forty_bits(self, encode, m):
        # M - 2 or M - 1 twin dummies: one class, so each row holds M - 1 or M energies
        spec = RestrictionSpec(40, tuple(range(3, 3 + m)) if m < 41 else tuple(range(41)))
        encoded = encode(spec)
        result = verify(encoded, spec)
        assert result.passed, result.diagnosis
        low = spec.allowed[0]
        assert result.report.by_sum[low][1] == math.comb(40, low)
        assert len(twin_table(encoded.model)[2]) == encoded.model.n_dummies + 1

    def test_table_of_a_one_hot_encoding(self):
        # (x0 + x1 - y0 - 2*y1)**2 plus the selector (y0 + y1 - 1)**2
        spec = RestrictionSpec(2, (1, 2))
        scale, classes, weights, rows = twin_table(encode_one_hot_general(spec).model)
        assert (scale, classes) == (1, [[0, 1]])
        # columns: dummy patterns y = 0b00, 0b01, 0b10, 0b11, each a class of one
        assert weights == [1, 1, 1, 1]
        assert [energies for _, _, energies in rows] == [[1, 1, 4, 10], [2, 0, 1, 5], [5, 1, 0, 2]]
        assert [(counts, multiplicity) for counts, multiplicity, _ in rows] == [
            ((0,), 1), ((1,), 2), ((2,), 1)]

    def test_lowered_coupling_splits_off_its_pair(self):
        # the certify benchmark's broken file: the classes are {i, j} and the other 15 bits
        encoded = lowered_one_hot(4, 11)
        _, classes, weights, rows = twin_table(encoded.model)
        assert classes == [[0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16], [4, 11]]
        assert weights == [1] * 8  # three dummies of distinct weights
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

    def test_equal_term_multisets_of_non_twins_stay_apart(self):
        # bits 0-3 each have diagonal 1 and couplings 1, 2 and 3 to the other three, yet
        # no two are twins: five classes of one bit give 2**5 <= 6**2 count vectors
        model = QuboModel(5, 5, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1, (4, 4): 5,
                                 (0, 1): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2,
                                 (0, 3): 3, (1, 2): 3})
        assert twin_table(model)[1] == [[0], [1], [2], [3], [4]]
        encoded = EncodedRestriction(model=model, kind=EncodingKind.REDUCED_GENERAL,
                                     residual_energy=F(0), lambda1=F(1))
        spec = RestrictionSpec(5, (0,))
        assert enumerate_spectrum(encoded, spec) == forced_sweep(encoded, spec)
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
        # one problem bit takes at most 2**(1 + 1) dummy count vectors: three distinct
        # dummies give 2**3, and the twin pairs {1, 4} and {2, 3} give 3 * 3
        assert twin_table(distinct_dummies(1, 3)) is None
        assert twin_table(QuboModel(5, 1, {(0, 0): F(1), (1, 4): F(2)})) is None
        assert twin_table(distinct_dummies(1, 2))[2] == [1, 1, 1, 1]
        assert twin_table(distinct_dummies(2, 3))[2] == [1] * 8
        assert twin_table(distinct_dummies(2, 4)) is None
        # 5,000 dummy classes on one problem bit go before the pass that confirms them
        model = QuboModel._scaled(5001, 1, 1, {(k, k): k for k in range(1, 5001)}, 0)
        with mock.patch.object(oracle, "_are_twins", side_effect=AssertionError("confirmed")):
            assert twin_table(model) is None
        # four free dummies on two problem bits: all 16 patterns have energy 0 and no
        # field, so they merge into one entry
        assert twin_table(QuboModel(6, 2, {}))[2] == [16]

    def test_equal_subset_sums_merge(self):
        # dummies of diagonals 1, 2 and 3 are no twins, but the patterns {1, 2} and {3}
        # share an energy and have no field: the product's 8 entries merge to 7
        model = QuboModel(5, 2, {(2, 2): F(1), (3, 3): F(2), (4, 4): F(3)})
        assert twin_table(model)[2] == [1, 1, 1, 2, 1, 1, 1]
        # coupled to bit 0, the dummy of diagonal 3 has a field of its own: nothing merges
        model = QuboModel(5, 2, {(2, 2): F(1), (3, 3): F(2), (4, 4): F(3), (0, 4): F(1)})
        assert twin_table(model)[2] == [1] * 8

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
        assert len(twin_table(model)[3]) == 9
        needed = max(estimates)
        monkeypatch.setattr(core, "_physical_memory", lambda: needed - 1)
        with pytest.raises(SizeLimitError, match="physical memory"):
            twin_table(model)
        with pytest.raises(SizeLimitError, match="physical memory"):
            oracle._spectrum(model)
        monkeypatch.setattr(core, "_physical_memory", lambda: needed)
        assert len(twin_table(model)[3]) == 9
        # 2**64 entries per row are refused before any allocation, however many would merge
        monkeypatch.setattr(core, "_physical_memory", lambda: 2**63)
        model = distinct_dummies(64, 64)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match=f"over 65 classes of 65 rows of {2**64} "
                                                     "energies"):
                twin_table(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    @settings(deadline=None, max_examples=60)
    @given(st.one_of(general_encodings(), general_encodings(perturbed=True),
                     twin_dummy_models(perturbed=True)),
           st.sampled_from([0.5, 1.0, 2.5]), st.data())
    def test_merged_dummies_match_the_references(self, drawn, temperature, data):
        # distinct dummies and perturbed dummy blocks, against the doubling sweep, the
        # einsum reference and the per-assignment sum law
        if isinstance(drawn, QuboModel):
            encoded, spec = drawn_restriction(drawn, data)
        else:
            encoded, spec = drawn
            assert twin_table(encoded.model) is not None
        report = enumerate_spectrum(encoded, spec)
        assert report == forced_sweep(encoded, spec) == reference_report(encoded, spec)
        assert verify(encoded, spec).passed == report.passed
        model = encoded.model
        probabilities = boltzmann_probabilities(model, temperature)
        sums = problem_bit_sums(model.n_total, model.n_problem)
        expected = np.bincount(sums, weights=probabilities, minlength=model.n_problem + 1)
        np.testing.assert_allclose(
            exact_sum_distribution(model, temperature), expected, rtol=1e-12, atol=0)

    # values of no pattern: each construction has M - 1 or M dummies of distinct weights
    @pytest.mark.parametrize("encode", [encode_reduced_general, encode_one_hot_general])
    def test_distinct_dummies_certify_at_a_hundred_bits(self, encode, monkeypatch):
        # 16 values: the 2**15 or 2**16 dummy patterns merge to a few thousand entries
        spec = RestrictionSpec(100, tuple(sorted(random.Random(16).sample(range(101), 16))))
        result = verify(encode(spec), spec)
        assert result.passed, result.diagnosis
        assert result.report.ground_degeneracy == sum(math.comb(100, r) for r in spec.allowed)
        # 32 values: 2**31 or 2**32 dummy count vectors, refused before any is built
        spec = RestrictionSpec(100, tuple(sorted(random.Random(32).sample(range(101), 32))))
        model = encode(spec).model
        monkeypatch.setattr(core, "_physical_memory", lambda: 8 * 2**30)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match=f"101 rows of {2**model.n_dummies} "
                                                     "energies needs more than the physical"):
                twin_table(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_thirty_bit_symmetric_model_certifies(self):
        spec = RestrictionSpec(27, (2, 9, 20))
        encoded = encode_one_hot_general(spec)
        assert encoded.model.n_total == 30
        result = verify(encoded, spec)
        assert result.passed, result.diagnosis
        assert result.report.ground_degeneracy == math.comb(27, 2) + math.comb(27, 9) + math.comb(27, 20)


# 2,080 terms: the text's parse is estimated at 1.13 MB and the JSON's at 1.78 MB; the
# 1,035 terms over prime denominators parse in less than 1 MiB, then scale to 1.7 MB more
REFUSED_FILES = {"text-parse": qubofile.dumps(shaped_restriction("repeated", 64)),
                 "json-parse": qubofile.dumps_json(shaped_restriction("repeated", 64)),
                 "scaling": qubofile.dumps(shaped_restriction("denominator", 45))}


@pytest.mark.parametrize("refused", [
    lambda: twin_table(distinct_dummies(19, 20)),  # one class of 19 bits, 20 distinct dummies
    lambda: oracle._spectrum(QuboModel(21, 21, {(i, i): i + 1 for i in range(21)})),  # no twins
    lambda: expand_squared_affine([(i, 1) for i in range(500)], -2, 1),
    lambda: render_dummy_table(10**8),
    lambda: sweep_fractional_r(2, 0, 1, 10**8),
    lambda: exact_transfer_curve(2, 0, 1, 10**8),
    lambda: qubofile.loads(REFUSED_FILES["text-parse"]),
    lambda: qubofile.loads_json(REFUSED_FILES["json-parse"]),
    lambda: qubofile.loads(REFUSED_FILES["scaling"]),
], ids=["table", "sweep", "construction", "dummy-table", "sampled-grid",
        "exact-grid", *REFUSED_FILES])
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


def test_a_billion_problem_bits_are_refused_before_any_list(monkeypatch):
    # n + 1 rows are the fewest any partition gives; nothing O(n) may be built first
    model = QuboModel(10**9, 10**9, {})
    monkeypatch.setattr(core, "_physical_memory", lambda: 8 * 2**30)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match=f"{10**9 + 1} rows of 1 energies") as caught:
            twin_table(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert caught.traceback[-1].name == "check_memory"
    assert peak < 2**16


TRACED_READERS = {
    "spectrum": enumerate_spectrum,
    "per-assignment law": lambda encoded, spec: boltzmann_probabilities(encoded.model, 0.2),
    "sum law": lambda encoded, spec: exact_sum_distribution(encoded.model, 0.2),
}


@pytest.mark.parametrize("lam, reader", [
    pytest.param(lam, reader, id=str(lam) if reader == "spectrum" else f"{lam}-{reader}")
    for reader in TRACED_READERS for lam in (1, 10**30)])
def test_traced_peak_within_the_memory_estimate(monkeypatch, lam, reader):
    # distinct problem weights: no twins, so the doubling sweep runs, and the one gate
    # that admits it bounds every reader of its energies
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
        TRACED_READERS[reader](encoded, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(estimates) == 1
    assert peak <= estimates[0]


@pytest.mark.parametrize("model", [
    expand_squared_affine([(i, 1) for i in range(300)], -150, 1),
    lowered_one_hot(4, 11).model,
    encode_one_hot_general(RestrictionSpec(12, (2, 5, 9)), 10**30, 10**30).model,
    encode_half_integer_chain(RestrictionSpec(60, tuple(range(5, 45)))).model,
    encode_equispaced_linear(RestrictionSpec(60, tuple(range(0, 61, 3)))).model,
    # 81,406 coefficients, whose row sums over the position weights hold O(bits)
    lowered_one_hot(4, 11, RestrictionSpec(400, (2, 200, 397))).model,
    # the row sums grow with the coefficients
    lowered_one_hot(4, 11, RestrictionSpec(100, (2, 50, 97)), 10**30).model,
    # 11 dummies of distinct weights whose 2**11 patterns merge to 232 entries
    encode_reduced_general(RestrictionSpec(100, tuple(range(1, 97, 8)))).model,
    # 10 coupled dummies whose 2**10 patterns never merge: their keys hold 11 fields
    coupled_dummies(10, 10),
], ids=["one class", "two classes", "huge multipliers", "chain", "linear", "long terms",
        "huge long terms", "merged dummies", "unmerged dummies"])
def test_traced_table_within_its_estimate(monkeypatch, model):
    tables = []

    def recorded(*args):
        tables.append(table_bytes(*args))
        return tables[-1]

    monkeypatch.setattr(oracle, "table_bytes", recorded)
    tracemalloc.start()
    try:
        twin_table(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the first table estimate is the lower bound of one class per kind, then one
    # per proposal, each refining the one before it; the last is the table built,
    # and covers the second proposal's weights and row sums too
    assert len(tables) in (2, 3) and tables == sorted(tables)
    assert peak <= tables[-1]
