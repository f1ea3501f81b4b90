"""Tests for the Boltzmann sampler, transfer sweeps and the step benchmark."""

from __future__ import annotations

import math
import random
import re
import tracemalloc
import warnings
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quborestrict import cli, core, oracle
from quborestrict.core import (
    ConstructionError,
    DataQualityError,
    ParameterError,
    QuboModel,
    SizeLimitError,
    expand_squared_affine,
)
from quborestrict.encoders import encode_single_value
from quborestrict.core import RestrictionSpec
from quborestrict.sampler import (
    StrayMassWarning,
    TransferCurve,
    _binomial,
    _check_temperature,
    _log_binomials,
    _multinomial,
    boltzmann_probabilities,
    curve_bytes,
    curve_csv,
    exact_sum_distribution,
    exact_transfer_curve,
    fractional_restriction_model,
    step_distance,
    sweep_fractional_r,
)

from helpers import symmetric_models, twin_class_models, twin_dummy_models, twin_free_models

GRID_11 = tuple(F(10 + k, 10) for k in range(11))


def curve_from(distributions, n_vars=5, grid=GRID_11):
    """Hand-built curve for metric tests; the stored distance is irrelevant."""
    return TransferCurve(
        n_vars=n_vars,
        r_grid=grid,
        distributions=tuple(tuple(d) for d in distributions),
        step_distance=float("nan"),
    )


class TestBoltzmannProbabilities:
    def test_normalized_and_boltzmann_ratioed(self):
        model = fractional_restriction_model(1, F(0), 1)  # energies 0 and 1
        p = boltzmann_probabilities(model, temperature=1.0)
        assert p.sum() == pytest.approx(1.0)
        assert p[1] / p[0] == pytest.approx(math.exp(-1.0))

    def test_cold_limit_concentrates_on_ground_states(self):
        spec = RestrictionSpec(4, (2,))
        model = encode_single_value(spec).model
        dist = exact_sum_distribution(model, temperature=1e-3)
        assert dist[2] >= 0.99

    def test_temperature_must_be_positive(self):
        model = fractional_restriction_model(2, 1, 1)
        with pytest.raises(ParameterError):
            boltzmann_probabilities(model, temperature=0.0)
        with pytest.raises(ParameterError):
            exact_sum_distribution(model, temperature=0.0)

    @pytest.mark.parametrize("entry", [
        lambda t: sweep_fractional_r(5, 1, 2, 3, 1, t),
        lambda t: boltzmann_probabilities(fractional_restriction_model(2, 1, 1), t),
        lambda t: exact_sum_distribution(fractional_restriction_model(2, 1, 1), t),
        lambda t: exact_transfer_curve(5, 1, 2, 3, 1, temperature=t),
    ], ids=["sweep", "probabilities", "sum-distribution", "exact-curve"])
    @pytest.mark.parametrize("temperature, message", [
        (True, "a positive number, got True"),  # True is no temperature
        ("0.2", "a positive number, got '0.2'"),
        (None, "a positive number, got None"),
        (0, "positive, got 0"),
        (-1, "positive, got -1"),
        (math.nan, "positive, got nan"),
    ], ids=["True", "str", "None", "0", "-1", "nan"])
    def test_temperature_must_be_a_positive_number(self, entry, temperature, message):
        with pytest.raises(ParameterError, match=f"^temperature must be {re.escape(message)}$"):
            entry(temperature)


class TestSumLaw:
    """The sum law over the twin-class table against the per-assignment distribution.

    A twin-free model takes the per-assignment fallback itself.
    """

    # narrow integers keep |E|/T small, so the float rounding of the
    # per-assignment path stays far inside the tolerance
    @settings(deadline=None, max_examples=90)
    @given(st.one_of(symmetric_models(values=st.integers(-2, 2)),
                     symmetric_models(values=st.integers(-2, 2), perturbed=True),
                     symmetric_models(huge=True),
                     twin_class_models(values=st.integers(-2, 2)),
                     twin_class_models(huge=True),
                     twin_dummy_models(),
                     twin_dummy_models(perturbed=True),
                     twin_dummy_models(huge=True),
                     twin_free_models(),
                     twin_free_models(huge=True)),
           st.sampled_from([1.0, 2.5, 10.0]))
    def test_matches_per_assignment_bincount(self, model, temperature):
        probabilities = boltzmann_probabilities(model, temperature)
        sums = oracle.problem_bit_sums(model.n_total, model.n_problem)
        expected = np.bincount(sums, weights=probabilities, minlength=model.n_problem + 1)
        np.testing.assert_allclose(
            exact_sum_distribution(model, temperature), expected, rtol=1e-12, atol=0)

    def test_large_offset_keeps_unit_excitations(self):
        # energies near 10**17 are spaced 16 apart as floats; the shift must be exact
        model = QuboModel(2, 2, {(0, 0): F(1), (1, 1): F(1), (0, 1): F(-2)}, F(10**17))
        expected = [1 / (2 + 2 / math.e), (2 / math.e) / (2 + 2 / math.e), 1 / (2 + 2 / math.e)]
        per_assignment = boltzmann_probabilities(model, 1.0)
        assert np.bincount([0, 1, 1, 2], weights=per_assignment).tolist() == pytest.approx(
            expected, rel=1e-12)
        assert exact_sum_distribution(model, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_excitations_beyond_the_float_range_weigh_nothing(self):
        # only the ground sums 1 and 2 keep weight, in the ratio C(4,1) : C(4,2), when the
        # excitation 2 * lam, or its quotient by T, is past the float range; below it
        # every sum keeps its C(4, s) / 16
        ground_only, binomial = [0.0, 0.4, 0.6, 0.0, 0.0], [1 / 16, 4 / 16, 6 / 16, 4 / 16, 1 / 16]
        for lam, temperature, expected in [(10**400, 0.05, ground_only),
                                           (10**400, math.inf, ground_only),
                                           (10**30, 1e-300, ground_only),
                                           (F(1, 10**400), 1.0, binomial)]:
            # the table's law and, with the table refused, the per-assignment fallback
            model = fractional_restriction_model(4, F(3, 2), lam)
            tabulated = exact_sum_distribution(model, temperature)
            with mock.patch.object(oracle, "twin_table", return_value=None):
                per_assignment = exact_sum_distribution(model, temperature)
            assert tabulated == pytest.approx(expected, rel=1e-12, abs=0)
            assert per_assignment == pytest.approx(tabulated, rel=1e-12, abs=0)

    def test_degeneracy_ratio_at_half_integer_target(self):
        # both neighbouring sums share the residual energy, so their exact
        # probability ratio is the degeneracy ratio C(5,2)/C(5,1) = 2
        model = fractional_restriction_model(5, F(3, 2), 1)
        exact = exact_sum_distribution(model, temperature=0.05)
        assert exact[2] / exact[1] == pytest.approx(2.0, rel=1e-12)


def every_law(temperature):
    """Each exact law and a seeded sweep at ``temperature``, where only stray mass may warn."""
    model = fractional_restriction_model(3, F(3, 2))
    # distinct weights leave every bit a class of one: the table refuses this model
    twin_free = expand_squared_affine([(i, i + 1) for i in range(8)], -10, 1)
    assert oracle.twin_table(twin_free) is None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StrayMassWarning)
        laws = {"table": exact_sum_distribution(model, temperature)}
        with mock.patch.object(oracle, "twin_table", return_value=None):
            laws["fallback"] = exact_sum_distribution(model, temperature)
        laws["twin-free"] = exact_sum_distribution(twin_free, temperature)
        laws["curve"] = exact_transfer_curve(3, 1, 2, 3, 1, temperature).distributions
        laws["sweep"] = sweep_fractional_r(3, 1, 2, 3, 1, temperature, 100, 1).distributions
    return laws


class TestOneTemperature:
    """Every law divides by the one float that the temperature check returns."""

    @pytest.mark.parametrize("temperature, value", [
        (0.5, 0.5), (F(1, 2), 0.5), (2, 2.0),
        # past the float range: inf above it, as float("1e400") reads, the least float below
        (10**400, math.inf), (F(10**400, 3), math.inf), (math.inf, math.inf),
        (F(1, 10**400), math.ulp(0.0)),
    ], ids=["0.5", "1/2", "2", "1e400", "1e400/3", "inf", "1e-400"])
    def test_every_path_divides_by_the_same_float(self, temperature, value):
        read = _check_temperature(temperature)
        assert type(read) is float and read == value
        laws = every_law(temperature)
        for law in (laws["table"], laws["fallback"], laws["twin-free"], *laws["curve"]):
            assert all(map(math.isfinite, law)) and math.fsum(law) == pytest.approx(1.0)
        assert laws["fallback"] == pytest.approx(laws["table"], rel=1e-12)
        # the curve's middle point, R = 3/2, is the model's law
        assert laws["curve"][1] == pytest.approx(laws["table"], rel=1e-12)
        if value == math.inf:  # every assignment weighs 1
            assert laws["twin-free"] == pytest.approx(
                [math.comb(8, s) / 256 for s in range(9)], rel=1e-12)
        assert every_law(value) == laws


def reference_curve(n_vars, r_from, r_to, steps, lam, temperature):
    """Each grid point's law from its built model, in grid order: the slow path of a sweep."""
    span = F(r_to) - F(r_from)
    grid = [F(r_from) + span * i / (steps - 1) for i in range(steps)]
    return tuple(tuple(exact_sum_distribution(fractional_restriction_model(n_vars, r, lam),
                                              temperature)) for r in grid)


def outcome(call, *args):
    """What ``call(*args)`` returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except Exception as exc:  # the comparison is the point
        return type(exc), str(exc)


class TestClosedFormLaw:
    """A sweep's closed-form law against the law of the model it stands for."""

    @pytest.mark.parametrize("lam", [1, F(3, 2), 10**400, F(1, 10**400)],
                             ids=["1", "3/2", "1e400", "1e-400"])
    @pytest.mark.parametrize("temperature", [1e-9, 0.05, 1.0, 1e9])
    def test_matches_the_model_float_for_float(self, lam, temperature):
        sizes = list(range(1, 41))
        if (lam, temperature) == (F(3, 2), 1.0):
            sizes.append(300)  # one larger size: each reference point expands 45,150 terms
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StrayMassWarning)
            for n in sizes:
                k = n * 2 // 3
                # integers, halves, thirds and sixths; then a 10**50 denominator
                for r_from, r_to, steps in [(k, k + 1, 7),
                                            (k + F(1, 10**50), k + 1 - F(1, 10**50), 3)]:
                    curve = exact_transfer_curve(n, r_from, r_to, steps, lam, temperature)
                    assert curve.distributions == reference_curve(
                        n, r_from, r_to, steps, lam, temperature), (n, r_from)

    @pytest.mark.parametrize("temperature, n_vars, r_from, r_to, lam", [
        # R's denominator passes the bit cap
        (0.05, 4, 1 + F(1, 2**12001), 2, 1),
        (0, 4, 1 + F(1, 2**12001), 2, 1),
        (0.05, 5, 1, 2, 0),
        (0, 5, 1, 2, 0),
        (0.05, 5, 1, 2, F(-3, 2)),
        (0, 5, 1, 2, F(-3, 2)),
        # the first point's model is built, and its bad temperature is refused
        (0, 4, 1, 1 + F(1, 10**1400), F(1, 10**1000)),
    ], ids=["0.05-denominator-bits", "0-denominator-bits", "0.05-lambda-0", "0-lambda-0",
            "0.05-lambda-negative", "0-lambda-negative", "0-later-point"])
    def test_refuses_what_building_the_model_refuses(self, temperature, n_vars, r_from, r_to,
                                                     lam):
        # a bad temperature is refused after the multiplier and R, as a built model's law refuses it
        expected = outcome(reference_curve, n_vars, r_from, r_to, 3, lam, temperature)
        assert expected[0] is ParameterError
        assert outcome(exact_transfer_curve, n_vars, r_from, r_to, 3, lam,
                       temperature) == expected
        sampled = outcome(sweep_fractional_r, n_vars, r_from, r_to, 3, lam, temperature, 100)
        if temperature:
            assert sampled == expected
        else:  # a sampled sweep reads its temperature before anything else
            assert sampled == (ParameterError, "temperature must be positive, got 0")

    @pytest.mark.parametrize("n_vars, r_from, r_to, lam, unit_temperature", [
        # the model's scale b*q**2 passes the bit cap
        (4, F(10**1400 + 1, 10**1400), 2, F(1, 10**1000), math.inf),
        # the first point's scale does not pass it; the second's, at denominator 2*10**1400, does
        (4, 1, 1 + F(1, 10**1400), F(1, 10**1000), math.inf),
        # at R = 1/2 the coupling 8*lam passes it after the common factor 4 is divided out
        (2, 0, 1, 2**11999, 5e-324),
        (40, 13, 14, 10**3700, 5e-324),
    ], ids=["scale-bits", "later-point", "2**11999", "1e3700"])
    def test_answers_where_only_the_model_passes_the_bit_cap(self, n_vars, r_from, r_to, lam,
                                                             unit_temperature):
        # the sweep builds no model, so the cap on the model's ints is not its rule
        refused = outcome(reference_curve, n_vars, r_from, r_to, 3, lam, 0.05)
        assert refused[0] is ParameterError and refused[1].startswith("exact coefficients need")
        # a multiplier of 1/10**1000 weighs every sum as T = inf does, a huge one as T = 5e-324
        expected = reference_curve(n_vars, r_from, r_to, 3, 1, unit_temperature)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StrayMassWarning)
            assert exact_transfer_curve(n_vars, r_from, r_to, 3, lam, 0.05).distributions == (
                expected)
        assert outcome(exact_transfer_curve, n_vars, r_from, r_to, 3, lam, 0) == (
            ParameterError, "temperature must be positive, got 0")

    @pytest.mark.parametrize("lam", [2**11998])
    def test_admits_what_building_the_model_admits_at_the_bit_cap(self, lam):
        # at R = 1/2 the coupling 8*lam is within the cap once the common
        # factor 4 of the model's ints is divided out
        expected = reference_curve(2, 0, 1, 3, lam, 1.0)
        assert exact_transfer_curve(2, 0, 1, 3, lam, 1.0).distributions == expected

    @pytest.mark.parametrize("lam", [1, 10**100], ids=["1", "1e100"])
    def test_answers_as_the_model_with_room_to_build_it(self, monkeypatch, lam):
        expected = reference_curve(40, 13, 14, 3, lam, 0.05)
        # room for 40 unit weights, not for weights of a hundred digits
        monkeypatch.setattr(core, "_physical_memory", lambda: core.expansion_bytes(40, 1))
        refused = outcome(reference_curve, 40, 13, 14, 3, lam, 0.05)
        assert (refused[0] is SizeLimitError) is (lam != 1)
        assert exact_transfer_curve(40, 13, 14, 3, lam, 0.05).distributions == expected

    def test_admits_a_sweep_whose_model_exceeds_the_memory(self, monkeypatch):
        monkeypatch.setattr(core, "_physical_memory", lambda: 8 * 2**30)
        assert outcome(fractional_restriction_model, 20_000, 10_000) == (
            SizeLimitError, "expanding a square of 20000 weights into 200010000 terms "
                            "needs more than the physical memory")
        curve = exact_transfer_curve(20_000, 10_000, 10_001, 3, 1, 0.05)
        assert curve.distributions[0][10_000] > 0.99
        assert curve.distributions[-1][10_001] > 0.99
        assert curve.step_distance < 0.01

    @pytest.mark.parametrize("lam", [1, 0])  # before the multiplier is read
    def test_refuses_more_unit_weights_than_the_memory_holds(self, monkeypatch, lam):
        n_vars = 10**7  # its row of log-binomials alone would take 320 MB
        estimate = curve_bytes(3, n_vars + 1, n_vars * 2, lam)
        monkeypatch.setattr(core, "_physical_memory", lambda: estimate - 1)
        tracemalloc.start()
        try:
            refused = outcome(exact_transfer_curve, n_vars, 13, 14, 3, lam, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert refused == (SizeLimitError,
                           "a sweep of 3 grid points needs more than the physical memory")
        assert peak < 2**16


def test_log_binomials_are_the_logs_of_the_exact_binomials():
    # built up to n // 2 and mirrored: the same floats for odd and even n
    for n in range(1, 61):
        assert _log_binomials(n) == [math.log(math.comb(n, s)) for s in range(n + 1)], n


class TestCurveBytes:
    """``curve_bytes`` is the only memory gate of a sweep, so it must bound what one holds."""

    @pytest.mark.parametrize("n_vars, r_from, steps, lam", [
        (16, 8, 2, 1), (1000, 500, 2, 1), (20_000, 10_000, 2, 1), (20_000, 10_000, 11, 1),
        (5, 2, 200, 1), (1000, 500, 2, 10**400),
        # R = 1 + 1/10**1400 and lam = 1/10**1000: the ints of its model pass the bit cap
        (4, 1 + F(1, 10**1400), 3, F(1, 10**1000)),
        # each sum's excitation is an int the size of lam's numerator
        (60, 30, 11, 2**10**6),
    ], ids=["16x2", "1000x2", "20000x2", "20000x11", "5x200", "1000x2-1e400", "4x3-1e-1000",
            "60x11-2e1e6"])
    def test_bounds_the_traced_peak_of_a_sweep_and_its_csv(self, n_vars, r_from, steps, lam):
        # a hot, many-read sweep: long CSV cells and counts beyond the cached small ints
        r_to = math.floor(r_from) + 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StrayMassWarning)
            tracemalloc.start()
            try:
                curve_csv(sweep_fractional_r(n_vars, r_from, r_to, steps, lam, 1e9, 10**6, 3))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        bound = n_vars * F(r_from).denominator * (steps - 1)  # as the sweep bounds its grid
        assert peak <= curve_bytes(steps, n_vars + 1, bound, F(lam).numerator)


class TestTransferRule:
    """The CSV's ``p_norm`` cells and ``step_distance`` read one transfer, over one pair."""

    @pytest.mark.parametrize("n_vars, r_from, r_to, steps, temperature, reads, seed", [
        (5, 1, 2, 11, 0.2, 2000, 7), (16, 3, 4, 11, 0.2, 10_000, 5),
        (40, F(37, 3), F(38, 3), 7, 0.5, 1000, 11), (9, F(1, 2), 1, 5, 1.0, 50, 3),
        # one read a point, mostly off the pair: some cells are nan
        (8, 4, 5, 11, 1e9, 1, 2),
    ], ids=["5", "16", "40-thirds", "9-half", "8-missed"])
    def test_each_cell_is_the_transfer_the_distance_averages(
            self, n_vars, r_from, r_to, steps, temperature, reads, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StrayMassWarning)
            curve = sweep_fractional_r(n_vars, r_from, r_to, steps, 1, temperature, reads, seed)
        lower, upper = math.floor(F(r_from)), math.ceil(F(r_to))
        lines = curve_csv(curve).splitlines()
        assert len(lines) == steps + 2
        assert lines[-1] == f"step_distance={curve.step_distance:.6g}"
        deviations = []
        for r, dist, line in zip(curve.r_grid, curve.distributions, lines[1:-1]):
            pair = dist[lower] + dist[upper]
            cell = line.split(",")[-1]
            if pair == 0:
                assert cell == "nan"
                continue
            transfer = dist[upper] / pair
            assert cell == f"{transfer:.6g}"
            ideal = 0.5 if 2 * r == lower + upper else float(2 * r > lower + upper)
            deviations.append(abs(transfer - ideal))
        assert curve.step_distance == sum(deviations) / len(deviations)
        if reads == 1:  # this sweep misses the pair somewhere and leaves those points out
            assert 0 < len(deviations) < steps

    def test_the_command_writes_the_same_text(self, capsys):
        argv = ["sweep", "--n", "8", "--r-from", "4", "--r-to", "5", "--steps", "11",
                "--temperature", "1e9", "--reads", "1", "--seed", "2"]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StrayMassWarning)
            assert out == curve_csv(sweep_fractional_r(8, 4, 5, 11, 1, 1e9, 1, 2))
        assert ",nan\n" in out
        assert err == "warning: 1 of the mass lies outside sums (4, 5) at R=4\n"


class TestSweep:
    def test_endpoints_pin_to_integer_targets(self):
        curve = sweep_fractional_r(5, 1, 2, 5, 1, temperature=0.05, n_reads=10_000, seed=7)
        assert curve.r_grid == (F(1), F(5, 4), F(3, 2), F(7, 4), F(2))
        assert curve.distributions[0][1] >= 0.99
        assert curve.distributions[-1][2] >= 0.99

    def test_distributions_sum_to_one(self):
        curve = sweep_fractional_r(4, 1, 2, 4, 1, temperature=0.2, n_reads=5_000, seed=1)
        for dist in curve.distributions:
            assert sum(dist) == pytest.approx(1.0, abs=1e-12)

    def test_determinism_across_runs(self):
        a = sweep_fractional_r(5, 1, 2, 7, 1, temperature=0.1, n_reads=3_000, seed=123)
        b = sweep_fractional_r(5, 1, 2, 7, 1, temperature=0.1, n_reads=3_000, seed=123)
        assert a == b

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            sweep_fractional_r(5, 1, 2, 1, 1, 0.1)
        with pytest.raises(ParameterError):
            sweep_fractional_r(5, 2, 1, 5, 1, 0.1)
        with pytest.raises(ParameterError):
            sweep_fractional_r(5, 1, 6, 5, 1, 0.1)

    @pytest.mark.parametrize("r_from, r_to, pair",
                             [(0, 4, "(0, 4)"), (F(3, 2), F(5, 2), "(1, 3)")])
    def test_range_over_more_than_one_integer_is_rejected(self, r_from, r_to, pair):
        with pytest.raises(ParameterError, match=re.escape(pair)):
            sweep_fractional_r(5, r_from, r_to, 5, 1, 1e3, 100)
        with pytest.raises(ParameterError, match=re.escape(pair)):
            exact_transfer_curve(5, r_from, r_to, 5, 1, temperature=1e3)

    @pytest.mark.parametrize("n_vars, steps, message", [
        (True, 3, "n_vars must be an integer of at least 1, got True"),
        (2.5, 3, "n_vars must be an integer of at least 1, got 2.5"),
        (0, 3, "n_vars must be an integer of at least 1, got 0"),
        (-3, 3, "n_vars must be an integer of at least 1, got -3"),
        (3, True, "steps must be an integer of at least 2, got True"),
        (3, 3.0, "steps must be an integer of at least 2, got 3.0"),
    ])
    def test_sweep_size_is_checked_first(self, n_vars, steps, message):
        # before the range, which is bad here too
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            sweep_fractional_r(n_vars, 0, "x", steps, 1, 1e3, 100)
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            exact_transfer_curve(n_vars, 0, "x", steps, 1, temperature=1e3)

    def test_exact_curve_matches_sampled_curve_in_the_large_read_limit(self):
        exact = exact_transfer_curve(5, 1, 2, 5, 1, temperature=0.05)
        n_reads = 40_000
        sampled = sweep_fractional_r(5, 1, 2, 5, 1, 0.05, n_reads, seed=2)
        for e_dist, s_dist in zip(exact.distributions, sampled.distributions):
            for p_exact, p_hat in zip(e_dist, s_dist):
                sigma = math.sqrt(max(p_exact * (1 - p_exact), 1e-12) / n_reads)
                assert abs(p_hat - p_exact) <= 4 * sigma + 1e-4


class TestDraw:
    """The pure-Python binomial and multinomial behind sampled sweeps."""

    # n * p spans both branches (geometric below 10, BTRS above) and p > 0.5
    CASES = [(n, p) for n in (0, 1, 2, 7, 40, 1_000, 10**6)
             for p in (0.0, 1e-6, 0.01, 0.2, 0.5, 0.6, 0.99, 1.0)]

    @pytest.mark.skipif(not hasattr(random.Random, "binomialvariate"),
                        reason="Random.binomialvariate is new in Python 3.12")
    def test_binomial_matches_binomialvariate_draw_for_draw(self):
        for seed in range(5):
            ours, reference = random.Random(seed), random.Random(seed)
            for n, p in self.CASES:
                for _ in range(3):
                    assert _binomial(ours, n, p) == reference.binomialvariate(n, p), (seed, n, p)
            assert ours.getstate() == reference.getstate()

    def test_counts_sum_to_the_reads(self):
        rng = random.Random(0)
        model = fractional_restriction_model(16, F(37, 10), 1)
        for n_reads in (1, 2, 10_000):
            for temperature in (0.05, 1.0, 100.0):
                probabilities = exact_sum_distribution(model, temperature)
                counts = _multinomial(rng, n_reads, probabilities)
                assert len(counts) == 17 and min(counts) >= 0 and sum(counts) == n_reads

    @pytest.mark.parametrize("probabilities, expected", [
        ([0.0, 1.0, 0.0], [0, 500, 0]),
        ([1.0, 0.0, 0.0], [500, 0, 0]),
        ([0.0, 0.0, 1.0], [0, 0, 500]),
        ([0.5, 0.0, 0.5], None),
    ])
    def test_certain_and_impossible_outcomes(self, probabilities, expected):
        for seed in range(20):
            counts = _multinomial(random.Random(seed), 500, probabilities)
            if expected is None:
                assert counts[1] == 0 and sum(counts) == 500
            else:
                assert counts == expected

    @staticmethod
    def assert_binomial_moments(column, n, p):
        # Binomial(n, p) has mean n*p and variance n*p*(1-p).  The bounds are
        # 5 standard errors over k draws, the variance's from
        # Var(sample variance) = var**2 * (2 / (k - 1) + excess kurtosis / k).
        k = len(column)
        mean = math.fsum(column) / k
        variance = math.fsum((c - mean) ** 2 for c in column) / (k - 1)
        expected_var = n * p * (1 - p)
        kurtosis = (1 - 6 * p * (1 - p)) / expected_var
        assert abs(mean - n * p) <= 5 * math.sqrt(expected_var / k)
        assert abs(variance - expected_var) <= 5 * expected_var * math.sqrt(
            2 / (k - 1) + abs(kurtosis) / k)

    # geometric (n*p < 10), BTRS, and p > 0.5 through each of them
    @pytest.mark.parametrize("n, p", [(40, 0.2), (40, 0.85), (1_000, 0.3), (1_000, 0.7)])
    def test_binomial_moments(self, n, p):
        rng = random.Random(n)
        self.assert_binomial_moments([_binomial(rng, n, p) for _ in range(4_000)], n, p)

    def test_multinomial_marginals_are_binomial(self):
        probabilities = [0.004, 0.0, 0.3, 0.5, 0.196]  # conditionals cover both branches
        rng = random.Random(2024)
        draws = [_multinomial(rng, 1_000, probabilities) for _ in range(2_000)]
        assert all(counts[1] == 0 for counts in draws)
        for s in (0, 2, 3, 4):
            self.assert_binomial_moments([counts[s] for counts in draws], 1_000, probabilities[s])


class TestModalTracking:
    def test_mode_sits_on_nearest_integer_off_the_midpoint(self):
        curve = exact_transfer_curve(5, 1, 2, 11, 1, temperature=0.05)
        for r, dist in zip(curve.r_grid, curve.distributions):
            if r == F(3, 2):
                continue  # degenerate midpoint: two nearest integers
            nearest = min(range(6), key=lambda s: (abs(s - r), s))
            assert int(np.argmax(dist)) == nearest, r


class TestStepDistance:
    def test_ideal_step_has_zero_distance(self):
        distributions = []
        for r in GRID_11:
            if r < F(3, 2):
                distributions.append((0.0, 1.0, 0.0, 0.0, 0.0, 0.0))
            elif r == F(3, 2):
                distributions.append((0.0, 0.5, 0.5, 0.0, 0.0, 0.0))
            else:
                distributions.append((0.0, 0.0, 1.0, 0.0, 0.0, 0.0))
        assert step_distance(curve_from(distributions), 1, 2) == 0.0

    def test_constant_half_transfer(self):
        distributions = [(0.0, 0.5, 0.5, 0.0, 0.0, 0.0)] * 11
        expected = (10 * 0.5 + 0.0) / 11  # midpoint matches the ideal 0.5
        assert step_distance(curve_from(distributions), 1, 2) == pytest.approx(expected)
        assert expected == pytest.approx(5 / 11)

    def test_point_without_pair_mass_is_left_out(self):
        # R = 1.2 draws nothing on sums 1 or 2: the mean runs over the other 10
        # points, and the stray mass of 1 there is warned of
        distributions = [(0.0, 0.5, 0.5, 0.0, 0.0, 0.0)] * 11
        distributions[2] = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.warns(StrayMassWarning, match=r"^1 of the mass .* at R=6/5$"):
            distance = step_distance(curve_from(distributions), 1, 2)
        assert distance == pytest.approx(9 * 0.5 / 10)

    def test_degenerate_transfer_mass_raises(self):
        distributions = [(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)] * 11
        with pytest.raises(DataQualityError):
            step_distance(curve_from(distributions), 1, 2)
        # a hand-built curve of no grid point has no transfer either
        with pytest.raises(DataQualityError, match="^the curve has no grid points; "):
            step_distance(TransferCurve(4, (), (), 0.0), 1, 2)

    @pytest.mark.parametrize("r_grid, distributions, message", [
        ((F(1), F(2)), ((0.5, 0.5, 0, 0, 0), (0.5,)),
         "curve.distributions[1] must be an iterable of 5 items, got (0.5,)"),
        # one R over two points: a zip would answer from the first point only
        ((F(1),), ((0, 0.5, 0.5, 0, 0),) * 2,
         "curve.r_grid must be an iterable of 2 items, got (Fraction(1, 1),)"),
        (None, ((0, 0.5, 0.5, 0, 0),) * 2, "curve.r_grid must be an iterable of 2 items, got None"),
    ], ids=["unequal-rows", "short-grid", "no-grid"])
    def test_hand_built_curve_of_another_shape_is_refused(self, r_grid, distributions, message):
        with pytest.raises(ConstructionError) as caught:
            step_distance(TransferCurve(4, r_grid, distributions, 0.0), 1, 2)
        assert str(caught.value) == message

    def test_bad_transfer_sums_rejected(self):
        distributions = [(0.0, 0.5, 0.5, 0.0, 0.0, 0.0)] * 11
        with pytest.raises(ParameterError):
            step_distance(curve_from(distributions), 1, 1)
        with pytest.raises(ParameterError):
            step_distance(curve_from(distributions), 1, 9)

    def test_warns_on_stray_mass(self):
        hot = [(0.0, 0.45, 0.45, 0.10, 0.0, 0.0)] * 11
        with pytest.warns(StrayMassWarning):
            step_distance(curve_from(hot), 1, 2)

    def test_stray_mass_warning_names_the_calling_line(self):
        hot = [(0.0, 0.45, 0.45, 0.10, 0.0, 0.0)] * 11
        for call in (
            lambda: step_distance(curve_from(hot), 1, 2),
            lambda: exact_transfer_curve(5, 1, 2, 5, temperature=0.5),
            lambda: sweep_fractional_r(5, 1, 2, 5, temperature=0.5, n_reads=1000),
        ):
            with pytest.warns(StrayMassWarning) as record:
                call()
            assert [w.filename for w in record] == [__file__]

    def test_exact_curve_distance_grows_with_temperature(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StrayMassWarning)
            distances = [
                exact_transfer_curve(5, 1, 2, 11, 1, temperature=t).step_distance
                for t in (0.001, 0.05, 0.2, 0.5)
            ]
        assert distances == sorted(distances)
        assert distances[1] < distances[2] < distances[3]

    def test_cold_exact_curve_approaches_degeneracy_skewed_step(self):
        # at the midpoint the transfer is 10/15 regardless of temperature, so
        # the zero-temperature limit of the distance is |2/3 - 1/2| / 11
        curve = exact_transfer_curve(5, 1, 2, 11, 1, temperature=0.001)
        assert curve.step_distance == pytest.approx((1 / 6) / 11)


def test_fractional_restriction_model_energies():
    model = fractional_restriction_model(3, F("1.4"), 2)
    assert model.energy([0, 0, 0]) == 2 * F(49, 25)
    assert model.energy([1, 0, 0]) == 2 * F(4, 25)
    assert model.energy([1, 1, 0]) == 2 * F(9, 25)
