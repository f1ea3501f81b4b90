"""Tests for the Boltzmann sampler, transfer sweeps and the step benchmark."""

from __future__ import annotations

import math
import random
import re
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quborestrict import oracle
from quborestrict.core import DataQualityError, ParameterError, QuboModel
from quborestrict.encoders import encode_single_value
from quborestrict.core import RestrictionSpec
from quborestrict.sampler import (
    SamplerConfig,
    StrayMassWarning,
    TransferCurve,
    _binomial,
    _multinomial,
    boltzmann_probabilities,
    boltzmann_sample,
    exact_sum_distribution,
    exact_transfer_curve,
    fractional_restriction_model,
    step_distance,
    sum_frequencies,
    sweep_fractional_r,
)

from helpers import symmetric_models, twin_class_models, twin_free_models

GRID_11 = tuple(F(10 + k, 10) for k in range(11))


def curve_from(distributions, n_vars=5, grid=GRID_11):
    """Hand-built curve for metric tests; the stored distance is irrelevant."""
    return TransferCurve(
        n_vars=n_vars,
        r_grid=grid,
        distributions=tuple(tuple(d) for d in distributions),
        step_distance=float("nan"),
    )


class TestSamplerConfig:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            SamplerConfig(temperature=0)
        with pytest.raises(ParameterError):
            SamplerConfig(temperature=-1.0)
        with pytest.raises(ParameterError):
            SamplerConfig(temperature=1.0, n_reads=0)
        with pytest.raises(ParameterError):
            SamplerConfig(temperature=1.0, n_reads=2.5)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            SamplerConfig(temperature=1.0, seed=seed)


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


class TestBoltzmannSample:
    def test_cold_limit_mass(self):
        spec = RestrictionSpec(4, (2,))
        model = encode_single_value(spec).model
        freqs = boltzmann_sample(model, SamplerConfig(temperature=1e-3, n_reads=10_000, seed=3))
        by_sum = sum_frequencies(freqs, n_problem=4)
        assert by_sum.get(2, 0.0) >= 0.99

    def test_hot_limit_is_uniform_within_3_sigma(self):
        spec = RestrictionSpec(4, (2,))
        model = encode_single_value(spec).model
        n_reads = 10_000
        freqs = boltzmann_sample(model, SamplerConfig(temperature=1e6, n_reads=n_reads, seed=11))
        sigma = math.sqrt((1 / 16) * (15 / 16) / n_reads)
        for b in range(16):
            assert abs(freqs.get(b, 0.0) - 1 / 16) <= 3 * sigma

    def test_frequencies_sum_to_one(self):
        model = fractional_restriction_model(5, F(3, 2), 1)
        config = SamplerConfig(temperature=0.3, n_reads=4_096, seed=5)
        freqs = boltzmann_sample(model, config)
        counts = [round(f * config.n_reads) for f in freqs.values()]
        assert sum(counts) == config.n_reads
        assert sum(freqs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_seed_determinism(self):
        model = fractional_restriction_model(4, F(5, 4), 1)
        config = SamplerConfig(temperature=0.2, n_reads=2_000, seed=42)
        assert boltzmann_sample(model, config) == boltzmann_sample(model, config)

    def test_degeneracy_ratio_at_half_integer_target(self):
        # both neighbouring sums share the residual energy, so their exact
        # probability ratio is the degeneracy ratio C(5,2)/C(5,1) = 2
        model = fractional_restriction_model(5, F(3, 2), 1)
        exact = exact_sum_distribution(model, temperature=0.05)
        assert exact[2] / exact[1] == pytest.approx(2.0, rel=1e-12)
        freqs = boltzmann_sample(model, SamplerConfig(temperature=0.05, n_reads=20_000, seed=9))
        by_sum = sum_frequencies(freqs, n_problem=5)
        assert by_sum[2] / by_sum[1] == pytest.approx(2.0, rel=0.1)


class TestSumLaw:
    """The sum law over the twin-class table against the per-assignment distribution.

    A twin-free model takes the per-assignment fallback itself.
    """

    # narrow integers keep |E|/T small, so the float rounding of the
    # per-assignment path stays far inside the tolerance
    @settings(deadline=None, max_examples=60)
    @given(st.one_of(symmetric_models(values=st.integers(-2, 2)),
                     symmetric_models(values=st.integers(-2, 2), perturbed=True),
                     symmetric_models(huge=True),
                     twin_class_models(values=st.integers(-2, 2)),
                     twin_class_models(huge=True),
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
        assert exact_sum_distribution(model, 1.0).tolist() == pytest.approx(expected, rel=1e-12)

    def test_excitations_beyond_the_float_range_weigh_nothing(self):
        model = fractional_restriction_model(4, F(3, 2), 10**400)
        # only the ground sums 1 and 2 keep weight, in the ratio C(4,1) : C(4,2)
        assert exact_sum_distribution(model, 0.05).tolist() == pytest.approx(
            [0.0, 0.4, 0.6, 0.0, 0.0], rel=1e-12, abs=0)


def test_sum_frequencies_ignores_dummy_bits():
    # three bits, two of them problem bits: key 0b101 has problem sum 1
    freqs = {0b101: 0.25, 0b011: 0.5, 0b100: 0.25}
    assert sum_frequencies(freqs, n_problem=2) == {1: 0.25, 2: 0.5, 0: 0.25}


class TestSweep:
    def test_endpoints_pin_to_integer_targets(self):
        config = SamplerConfig(temperature=0.05, n_reads=10_000, seed=7)
        curve = sweep_fractional_r(5, 1, 2, 5, 1, config)
        assert curve.r_grid == (F(1), F(5, 4), F(3, 2), F(7, 4), F(2))
        assert curve.distributions[0][1] >= 0.99
        assert curve.distributions[-1][2] >= 0.99

    def test_distributions_sum_to_one(self):
        config = SamplerConfig(temperature=0.2, n_reads=5_000, seed=1)
        curve = sweep_fractional_r(4, 1, 2, 4, 1, config)
        for dist in curve.distributions:
            assert sum(dist) == pytest.approx(1.0, abs=1e-12)

    def test_determinism_across_runs(self):
        config = SamplerConfig(temperature=0.1, n_reads=3_000, seed=123)
        a = sweep_fractional_r(5, 1, 2, 7, 1, config)
        b = sweep_fractional_r(5, 1, 2, 7, 1, config)
        assert a == b

    def test_parameter_validation(self):
        config = SamplerConfig(temperature=0.1)
        with pytest.raises(ParameterError):
            sweep_fractional_r(5, 1, 2, 1, 1, config)
        with pytest.raises(ParameterError):
            sweep_fractional_r(5, 2, 1, 5, 1, config)
        with pytest.raises(ParameterError):
            sweep_fractional_r(5, 1, 6, 5, 1, config)

    @pytest.mark.parametrize("r_from, r_to, pair",
                             [(0, 4, "(0, 4)"), (F(3, 2), F(5, 2), "(1, 3)")])
    def test_range_over_more_than_one_integer_is_rejected(self, r_from, r_to, pair):
        config = SamplerConfig(temperature=1e3, n_reads=100)
        with pytest.raises(ParameterError, match=re.escape(pair)):
            sweep_fractional_r(5, r_from, r_to, 5, 1, config)
        with pytest.raises(ParameterError, match=re.escape(pair)):
            exact_transfer_curve(5, r_from, r_to, 5, 1, temperature=1e3)

    def test_exact_curve_matches_sampled_curve_in_the_large_read_limit(self):
        exact = exact_transfer_curve(5, 1, 2, 5, 1, temperature=0.05)
        config = SamplerConfig(temperature=0.05, n_reads=40_000, seed=2)
        sampled = sweep_fractional_r(5, 1, 2, 5, 1, config)
        for e_dist, s_dist in zip(exact.distributions, sampled.distributions):
            for p_exact, p_hat in zip(e_dist, s_dist):
                sigma = math.sqrt(max(p_exact * (1 - p_exact), 1e-12) / config.n_reads)
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
                probabilities = exact_sum_distribution(model, temperature).tolist()
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

    def test_degenerate_transfer_mass_raises(self):
        distributions = [(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)] * 11
        with pytest.raises(DataQualityError):
            step_distance(curve_from(distributions), 1, 2)

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
            lambda: sweep_fractional_r(5, 1, 2, 5, config=SamplerConfig(0.5, n_reads=1000)),
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
