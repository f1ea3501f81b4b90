"""Parametric stand-in for a noisy annealer.

Samples assignments from the exact Boltzmann distribution of a penalty model
at temperature T: the T -> 0 limit recovers an ideal annealer that only ever
returns ground states, while finite T smears probability onto excited states
as a monotone-decreasing function of the energy gap.  Sampling is exact
categorical (the full partition function is enumerated once), so convergence
is never a confound.

This module is the only floating-point corner of the package; everything it
consumes is exact and everything it emits is an empirical or exact
probability.  Distributions over the problem-bit sum of a model that
``oracle.twin_table`` takes come from the sum law over its rows, never from
a per-assignment array.  Sweeps draw their reads with the standard
library's ``random`` (a multinomial over the sums built from binomial
draws), so a sweep never imports numpy; only the per-assignment functions
build arrays.
"""

from __future__ import annotations

import math
import random
import sys
import warnings
from fractions import Fraction

from . import oracle
from .core import (
    DataQualityError,
    ParameterError,
    QuboModel,
    as_fraction,
    check_expansion,
    check_memory,
    expand_squared_affine,
    is_integer,
    record,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Mapping, Optional, Sequence

    import numpy as np

    from .core import RationalLike


class StrayMassWarning(UserWarning):
    """More than 1% of the measured mass sits outside the transfer pair."""


@record
class SamplerConfig:
    """Boltzmann temperature (in the model's energy units), reads, and seed."""

    temperature: float
    n_reads: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.temperature > 0:
            raise ParameterError(f"temperature must be positive, got {self.temperature}")
        if not is_integer(self.n_reads) or self.n_reads < 1:
            raise ParameterError(f"n_reads must be an integer of at least 1, got {self.n_reads!r}")
        if not is_integer(self.seed) or self.seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed!r}")


@record
class TransferCurve:
    """Per-target distributions of the problem-bit sum along a target sweep.

    ``distributions[k][s]`` is the probability of measuring sum s at target
    ``r_grid[k]``.  Sampled curves sum to 1 exactly (counts over reads);
    ``step_distance`` is the mean absolute deviation of the normalized
    transfer from the ideal zero-temperature step.
    """

    n_vars: int
    r_grid: tuple[Fraction, ...]
    distributions: tuple[tuple[float, ...], ...]
    step_distance: float


def fractional_restriction_model(
    n_vars: int, r: RationalLike, lam: RationalLike = 1
) -> QuboModel:
    """``lam * (sum(x) - R)**2`` with an arbitrary, possibly fractional, target R."""
    check_expansion(n_vars, 1)  # before the list of weights is built
    return expand_squared_affine(
        [(i, 1) for i in range(n_vars)], -as_fraction(r), lam, n_total=n_vars)


def boltzmann_probabilities(model: QuboModel, temperature: float) -> np.ndarray:
    """Exact Boltzmann distribution P(x) ~ exp(-E(x)/T) over all assignments.

    Returned in the oracle's counting order (assignment ``b`` sets bit ``i``
    to ``(b >> i) & 1``).
    """
    import numpy as np

    if not temperature > 0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    energies, scale = oracle.assignment_energies(model)
    # shift exactly: a float rounds energies beyond 2**53, and huge ones may not fit
    shifted = energies - energies.min()
    if energies.dtype == object:
        limit = int(np.finfo(np.float64).max) * scale  # weight 0 beyond the float range
        excitation = np.array([x / scale if x <= limit else math.inf for x in shifted])
    else:
        excitation = shifted / scale
    weights = np.exp(-excitation / temperature)
    return weights / weights.sum()


def boltzmann_sample(model: QuboModel, config: SamplerConfig) -> dict[int, float]:
    """Empirical frequencies of ``config.n_reads`` draws from the Boltzmann law.

    Keys are assignment integers (bit ``i`` of the key is variable ``i``);
    only assignments that were actually drawn appear.  Frequencies sum to 1
    exactly.
    """
    import numpy as np

    probabilities = boltzmann_probabilities(model, config.temperature)
    rng = np.random.default_rng(config.seed)
    counts = rng.multinomial(config.n_reads, probabilities)
    hit = np.nonzero(counts)[0]
    return {int(b): counts[b] / config.n_reads for b in hit}


def sum_frequencies(frequencies: Mapping[int, float], n_problem: int) -> dict[int, float]:
    """Aggregate an assignment-frequency map by problem-bit sum."""
    mask = (1 << n_problem) - 1
    out: dict[int, float] = {}
    for key, f in frequencies.items():
        s = (key & mask).bit_count()
        out[s] = out.get(s, 0.0) + f
    return out


def exact_sum_distribution(model: QuboModel, temperature: float) -> np.ndarray:
    """Exact Boltzmann probability of each problem-bit sum 0..n_problem.

    A model the twin-class table takes has the sum law
    ``P(s) ~ sum_rows multiplicity * sum_y exp(-(E(row, y) - E0) / T)`` over
    the table rows of sum s and the dummy patterns y; any other model sums
    the per-assignment probabilities.
    """
    import numpy as np

    return np.array(_sum_probabilities(model, temperature))


def _sum_probabilities(model: QuboModel, temperature: float) -> list[float]:
    """:func:`exact_sum_distribution` as Python floats; numpy only off the sum law."""
    if not temperature > 0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    table = oracle.twin_table(model)
    if table is None:
        import numpy as np

        probabilities = boltzmann_probabilities(model, temperature)
        sums = oracle.problem_bit_sums(model.n_total, model.n_problem)
        return np.bincount(
            sums, weights=probabilities, minlength=model.n_problem + 1).tolist()
    scale, _, rows = table
    return _sum_law(model.n_problem, scale, rows, temperature)


def _sum_law(n: int, scale: int, rows: list[tuple[tuple[int, ...], int, list[int]]],
             temperature: float) -> list[float]:
    """Normalized ``sum_rows multiplicity * sum_y exp(-(E - E0) / T)`` per sum, in log space.

    The excitations are shifted exactly in ints; one beyond the float range
    has weight 0.
    """
    ground = min(min(energies) for _, _, energies in rows)

    def exponent(e: int) -> float:
        try:
            return -((e - ground) / scale) / temperature
        except OverflowError:
            return -math.inf

    by_sum: list[list[float]] = [[] for _ in range(n + 1)]
    for counts, multiplicity, energies in rows:
        by_sum[sum(counts)].append(
            math.log(multiplicity) + _log_sum_exp([exponent(e) for e in energies]))
    logs = [_log_sum_exp(terms) for terms in by_sum]
    total = _log_sum_exp(logs)
    return [math.exp(x - total) for x in logs]


def _log_sum_exp(values: list[float]) -> float:
    top = max(values)
    if top == -math.inf:
        return top
    return top + math.log(math.fsum(math.exp(x - top) for x in values))


def _multinomial(rng: random.Random, n_reads: int, probabilities: Sequence[float]) -> list[int]:
    """Counts of ``n_reads`` draws over non-negative ``probabilities`` summing to 1.

    One binomial per outcome in order, on the mass not yet assigned, as numpy
    draws it: the conditional probability is clamped to 1 against rounding,
    and the last outcome takes the reads that are left.
    """
    counts = [0] * len(probabilities)
    left, mass = n_reads, 1.0
    for s, p in enumerate(probabilities[:-1]):
        if left == 0:
            break
        counts[s] = _binomial(rng, left, p / mass if mass > p else 1.0)
        left -= counts[s]
        mass -= p
    counts[-1] += left
    return counts


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """Successes in ``n`` trials of probability ``p``: ``Random.binomialvariate``.

    The same algorithm and draws as CPython 3.12's method, on every Python
    version: Devroye's geometric method while ``n * p < 10``, otherwise
    Hoermann's transformed rejection with squeeze (BTRS, 1993).  It costs
    O(1) draws for any ``n``.  ``p`` outside (0, 1) gives 0 or ``n``.
    """
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if n == 1:
        return int(rng.random() < p)
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)

    if n * p < 10.0:
        # geometric method (Devroye): skip ahead over the failures
        x = y = 0
        c = math.log2(1.0 - p)
        if not c:
            return x
        while True:
            y += math.floor(math.log2(rng.random()) / c) + 1
            if y > n:
                return x
            x += 1

    # BTRS: transformed rejection, with a squeeze test before the log-pmf one
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    lpq = math.log(p / (1.0 - p))
    m = math.floor((n + 1) * p)  # the mode
    h = math.lgamma(m + 1) + math.lgamma(n - m + 1)
    while True:
        u = rng.random()
        u -= 0.5
        us = 0.5 - math.fabs(u)
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = rng.random()
        if us >= 0.07 and v <= vr:
            return k
        v *= alpha / (a / (us * us) + b)
        if math.log(v) <= h - math.lgamma(k + 1) - math.lgamma(n - k + 1) + (k - m) * lpq:
            return k


def sweep_fractional_r(
    n_vars: int,
    r_from: RationalLike,
    r_to: RationalLike,
    steps: int,
    lam: RationalLike = 1,
    config: SamplerConfig = SamplerConfig(temperature=0.05),
) -> TransferCurve:
    """Sample the transfer of measured sums as the fractional target sweeps.

    For each target on the grid a single-term penalty with that (fractional)
    target is built and sampled ``config.n_reads`` times.  The range must lie
    between two consecutive integers, the transfer pair.  A master
    ``random.Random(config.seed)`` draws one 128-bit seed per grid point, in
    grid order, and each point draws from its own ``random.Random`` seeded
    with it, so the curve is identical regardless of evaluation order.  The
    reads are one multinomial draw over the n+1 sums of the exact sum
    distribution, at a cost per point that does not grow with
    ``config.n_reads``.
    """
    master = random.Random(config.seed)

    def draw(probabilities: list[float]) -> tuple[float, ...]:
        rng = random.Random(master.getrandbits(128))
        counts = _multinomial(rng, config.n_reads, probabilities)
        return tuple(c / config.n_reads for c in counts)

    return _transfer_curve(n_vars, r_from, r_to, steps, lam, config.temperature, draw)


def exact_transfer_curve(
    n_vars: int,
    r_from: RationalLike,
    r_to: RationalLike,
    steps: int,
    lam: RationalLike = 1,
    temperature: float = 0.05,
) -> TransferCurve:
    """Infinite-read limit of :func:`sweep_fractional_r`: exact Boltzmann curves."""
    return _transfer_curve(n_vars, r_from, r_to, steps, lam, temperature, tuple)


def _transfer_curve(
    n_vars: int,
    r_from: RationalLike,
    r_to: RationalLike,
    steps: int,
    lam: RationalLike,
    temperature: float,
    draw: Callable[[list[float]], tuple[float, ...]],
) -> TransferCurve:
    """The curve of ``draw`` applied to each grid point's exact sum distribution, in grid order.

    A grid whose ``curve_bytes`` exceed the physical memory raises
    ``SizeLimitError`` before it is built.
    """
    r_from, r_to = as_fraction(r_from), as_fraction(r_to)
    if steps < 2:
        raise ParameterError(f"a sweep needs at least 2 grid points, got {steps}")
    if not r_from < r_to:
        raise ParameterError(f"sweep range must be increasing, got [{r_from}, {r_to}]")
    if r_from < 0 or r_to > n_vars:
        raise ParameterError(
            f"sweep range [{r_from}, {r_to}] must lie within [0, {n_vars}]")
    lower, upper = math.floor(r_from), math.ceil(r_to)
    if upper - lower > 1:
        raise ParameterError(
            f"sweep range [{r_from}, {r_to}] is bracketed by ({lower}, {upper}); "
            f"the transfer needs two consecutive integers")
    # no grid value's numerator or denominator exceeds this
    bound = max(n_vars, 1) * r_from.denominator * r_to.denominator * (steps - 1)
    check_memory(f"a sweep of {steps} grid points", 0, curve_bytes, steps, n_vars + 1, bound)
    span = r_to - r_from
    grid = tuple(r_from + span * i / (steps - 1) for i in range(steps))
    distributions = tuple(
        draw(_sum_probabilities(fractional_restriction_model(n_vars, r, lam), temperature))
        for r in grid)
    # a warning names the line that called sweep_fractional_r or exact_transfer_curve
    distance = _step_distance(grid, distributions, lower, upper, stacklevel=4)
    return TransferCurve(
        n_vars=n_vars, r_grid=grid, distributions=distributions, step_distance=distance)


def curve_bytes(steps: int, n_sums: int, bound: int) -> int:
    """Estimated peak bytes of a curve of ``steps`` points over ``n_sums`` sums.

    Each point holds a grid Fraction of two ints up to ``bound``, a tuple of
    ``n_sums`` floats (32 bytes a sum) and its CSV row, as a line and again
    in the joined text (up to 32 bytes a sum more); 256 bytes cover the
    headers of these objects.
    """
    return steps * (256 + 2 * sys.getsizeof(bound) + 64 * n_sums)


def step_distance(curve: TransferCurve, lower_s: int, upper_s: int) -> float:
    """Mean absolute deviation of the normalized transfer from an ideal step.

    The transfer is ``p(R) = P(upper_s) / (P(lower_s) + P(upper_s))``; the
    ideal step is 0 below the midpoint of the two sums, 1 above it, and 0.5
    exactly at it.  Mass on other sums is discarded by the normalization;
    if it exceeds 1% anywhere a :class:`StrayMassWarning` is emitted.
    """
    return _step_distance(curve.r_grid, curve.distributions, lower_s, upper_s, stacklevel=3)


def _step_distance(
    r_grid: Sequence[Fraction],
    distributions: Sequence[Sequence[float]],
    lower_s: int,
    upper_s: int,
    stacklevel: int,
) -> float:
    """:func:`step_distance` over a grid; ``stacklevel`` points a warning past the package."""
    n_sums = len(distributions[0])
    if not (0 <= lower_s < n_sums and 0 <= upper_s < n_sums and lower_s != upper_s):
        raise ParameterError(
            f"transfer sums ({lower_s}, {upper_s}) must be distinct values in [0, {n_sums - 1}]")
    midpoint = Fraction(lower_s + upper_s, 2)
    deviations = []
    worst_stray = 0.0
    worst_r: Optional[Fraction] = None
    for r, dist in zip(r_grid, distributions):
        pair_mass = dist[lower_s] + dist[upper_s]
        if pair_mass == 0:
            raise DataQualityError(
                f"no mass on sums {lower_s} or {upper_s} at R={r}; "
                f"the transfer ratio is undefined")
        stray = 1.0 - pair_mass
        if stray > worst_stray:
            worst_stray, worst_r = stray, r
        transfer = dist[upper_s] / pair_mass
        if r == midpoint:
            ideal = 0.5
        else:
            ideal = 0.0 if r < midpoint else 1.0
        deviations.append(abs(transfer - ideal))
    if worst_stray > 0.01:
        warnings.warn(
            StrayMassWarning(
                f"{worst_stray:.3g} of the mass lies outside sums "
                f"({lower_s}, {upper_s}) at R={worst_r}"),
            stacklevel=stacklevel,
        )
    return sum(deviations) / len(deviations)
