"""Parametric stand-in for a noisy annealer.

Samples the problem-bit sum of a penalty model from the exact Boltzmann
distribution at temperature T: the T -> 0 limit recovers an ideal annealer
that only ever returns ground states, while finite T smears probability onto
excited states as a monotone-decreasing function of the energy gap.
Sampling is exact categorical (the full partition function is enumerated
once), so convergence is never a confound.

This module is the only floating-point corner of the package; everything it
consumes is exact and everything it emits is an empirical or exact
probability.  :func:`exact_sum_distribution` is the one exact law over the
sums of a model: for a model that ``oracle.twin_table`` takes it is the sum
law over the table's rows, never a per-assignment array.  A sweep knows its
law in closed form: ``lam * (sum(x) - R)**2`` with R = p/q and lam = a/b
has one row per sum s, of multiplicity C(n, s) and energy
``a * (s*q - p)**2`` at scale ``b * q**2``, so it builds no model and
imports no ``oracle``: only R's bit cap and :func:`curve_bytes`, what it
holds, bound it.  Sweeps draw their reads with the standard library's
``random`` (one multinomial over the sums built from binomial draws), so a
sweep never imports numpy; only :func:`boltzmann_probabilities`, the
per-assignment law of a model the table does not take, builds arrays.  All
three laws weigh an excitation by one rule, ``_exponent``: one whose
quotient by the scale or by T is beyond the float range has weight 0.
"""

from __future__ import annotations

import math
import numbers
import random
import sys
import warnings
from fractions import Fraction

from .core import (
    DataQualityError,
    ParameterError,
    QuboModel,
    as_fraction,
    as_multiplier,
    check_bits,
    check_count,
    check_expansion,
    check_memory,
    expand_squared_affine,
    is_integer,
    record,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Iterator, Sequence

    import numpy as np

    from .core import RationalLike


class StrayMassWarning(UserWarning):
    """More than 1% of the measured mass sits outside the transfer pair."""


def _check_temperature(temperature: object) -> float:
    """``float(T)``, which every law divides by, for a real T > 0; ``math.inf`` past the range."""
    if isinstance(temperature, bool) or not isinstance(temperature, numbers.Real):
        raise ParameterError(f"temperature must be a positive number, got {temperature!r}")
    if not temperature > 0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    try:
        return float(temperature) or math.ulp(0.0)  # below the float range: its least float
    except OverflowError:  # above it, as float("1e400") reads
        return math.inf


@record
class SamplerConfig:
    """Boltzmann temperature (in energy units, as the float every law divides by), reads, seed."""

    temperature: float
    n_reads: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "temperature", _check_temperature(self.temperature))
        check_count("n_reads", self.n_reads)
        check_count("seed", self.seed, 0)


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
    check_count("n_vars", n_vars)
    check_expansion(n_vars, 1)  # before the list of weights is built
    return expand_squared_affine(
        [(i, 1) for i in range(n_vars)], -as_fraction(r), lam, n_total=n_vars)


def boltzmann_probabilities(model: QuboModel, temperature: float) -> np.ndarray:
    """Exact Boltzmann distribution P(x) ~ exp(-E(x)/T) over all assignments.

    Returned in the oracle's counting order (assignment ``b`` sets bit ``i``
    to ``(b >> i) & 1``).
    """
    temperature = _check_temperature(temperature)
    import numpy as np

    from . import oracle

    energies, scale = oracle.assignment_energies(model)
    # shift exactly, in place: a float rounds energies beyond 2**53, and huge ones may not fit
    energies -= energies.min()
    if energies.dtype == object or scale > sys.float_info.max:
        # an int64 over a scale past the float range is not the exact quotient
        weights = np.fromiter((_exponent(e, scale, temperature) for e in map(int, energies)),
                              dtype=float, count=len(energies))
    else:
        weights = energies / -scale  # the bits of -(energies / scale)
        with np.errstate(over="ignore"):  # -inf is weight 0, as _exponent gives it
            weights /= temperature
    np.exp(weights, out=weights)
    weights /= weights.sum()
    return weights


def exact_sum_distribution(model: QuboModel, temperature: float) -> list[float]:
    """Exact Boltzmann probability of each problem-bit sum 0..n_problem.

    A model the twin-class table takes has the sum law over the table rows:
    ``P(s) ~ sum_rows multiplicity * sum_y weight_y * exp(-(E(row, y) - E0) / T)``
    over the rows of sum s and the entries y, whose energies are ints over
    ``scale``; it is summed in log space in Python floats without numpy.  The
    excitations are shifted exactly in ints, and one beyond the float range
    has weight 0.  Any other model sums the per-assignment probabilities of
    :func:`boltzmann_probabilities`, which weighs its excitations by the same
    rule.
    """
    temperature = _check_temperature(temperature)
    from . import oracle

    table = oracle.twin_table(model)
    if table is None:
        import numpy as np

        probabilities = boltzmann_probabilities(model, temperature)
        sums = oracle.problem_bit_sums(model.n_total, model.n_problem)
        return np.bincount(
            sums, weights=probabilities, minlength=model.n_problem + 1).tolist()
    scale, _, weights, rows = table
    log_weights = [math.log(w) for w in weights]
    ground = min(min(energies) for _, _, energies in rows)
    by_sum: list[list[float]] = [[] for _ in range(model.n_problem + 1)]
    for counts, multiplicity, energies in rows:
        by_sum[sum(counts)].append(math.log(multiplicity) + _log_sum_exp(
            [_exponent(e - ground, scale, temperature) + w for e, w in zip(energies, log_weights)]))
    return _normalized([_log_sum_exp(terms) for terms in by_sum])


def _exponent(excitation: int, scale: int, temperature: float) -> float:
    """``-(excitation / scale) / temperature``; an excitation beyond the float range gives -inf."""
    try:
        return -(excitation / scale) / temperature
    except OverflowError:
        return -math.inf


def _log_sum_exp(values: list[float]) -> float:
    top = max(values)
    if top == -math.inf:
        return top
    return top + math.log(math.fsum(math.exp(x - top) for x in values))


def _normalized(logs: list[float]) -> list[float]:
    """The probabilities of the log-weights ``logs``: each exact law ends here."""
    total = _log_sum_exp(logs)
    return [math.exp(x - total) for x in logs]


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

    For each target on the grid the exact sum law of the single-term penalty
    with that (fractional) target is sampled ``config.n_reads`` times.  The
    range must lie between two consecutive integers, the transfer pair.  A
    master ``random.Random(config.seed)`` draws one 128-bit seed per grid
    point, in grid order, and each point draws from its own
    ``random.Random`` seeded with it, so the curve is identical regardless of
    evaluation order.  The reads are one multinomial draw over the n+1 sums
    of the exact sum distribution, at a cost per point that does not grow
    with ``config.n_reads``.  The inputs are checked once, before any draw;
    the bit cap holds each grid R, not the ints of a model, which is never built.
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

    ``n_vars`` must be an int of at least 1 and ``steps`` an int of at least
    2, else ``ParameterError`` is raised before any other check.  The
    multiplier is read next, since ``curve_bytes`` count its numerator: a
    sweep whose estimate exceeds the physical memory raises
    ``SizeLimitError`` before its first list.  Then the multiplier's sign,
    the bit cap on each grid R's denominator (R leaves in the curve and in
    warnings) and the temperature are each checked once, before the
    log-binomials.
    """
    check_count("n_vars", n_vars)
    check_count("steps", steps, 2)
    r_from, r_to = as_fraction(r_from), as_fraction(r_to)
    if not r_from < r_to:
        raise ParameterError(f"sweep range must be increasing, got [{r_from}, {r_to}]")
    if r_from < 0 or r_to > n_vars:
        raise ParameterError(f"sweep range [{r_from}, {r_to}] must lie within [0, {n_vars}]")
    lower, upper = _transfer_pair((r_from, r_to))
    if upper - lower > 1:
        raise ParameterError(
            f"sweep range [{r_from}, {r_to}] is bracketed by ({lower}, {upper}); "
            f"the transfer needs two consecutive integers")
    # no grid value's numerator or denominator exceeds this
    bound = n_vars * r_from.denominator * r_to.denominator * (steps - 1)
    lam = as_fraction(lam)
    check_memory(f"a sweep of {steps} grid points",
                 curve_bytes(steps, n_vars + 1, bound, lam.numerator))
    lam = as_multiplier(lam)
    a, b = lam.numerator, lam.denominator
    span = r_to - r_from
    grid = tuple(r_from + span * i / (steps - 1) for i in range(steps))
    for r in grid:
        check_bits(r.denominator)
    t = _check_temperature(temperature)
    log_binomials = _log_binomials(n_vars)

    def law(r: Fraction) -> list[float]:
        """``exact_sum_distribution(fractional_restriction_model(n_vars, r, lam), temperature)``."""
        p, q = r.numerator, r.denominator
        ground, scale = a * min(p % q, q - p % q) ** 2, b * q * q  # ground at floor/ceil R
        return _normalized([log_binomials[s] + _exponent(a * (s * q - p) ** 2 - ground, scale, t)
                            for s in range(n_vars + 1)])

    distributions = tuple(draw(law(r)) for r in grid)
    # a warning names the line that called sweep_fractional_r or exact_transfer_curve
    distance = _step_distance(grid, distributions, lower, upper, stacklevel=4)
    return TransferCurve(
        n_vars=n_vars, r_grid=grid, distributions=distributions, step_distance=distance)


def _log_binomials(n: int) -> list[float]:
    """``math.log(C(n, s))`` for s = 0..n, from one running exact binomial."""
    logs, binomial = [0.0], 1
    for s in range(n):
        binomial = binomial * (n - s) // (s + 1)
        logs.append(math.log(binomial))
    return logs


def curve_bytes(steps: int, n_sums: int, bound: int, numerator: int) -> int:
    """Estimated peak bytes of a sweep of ``steps`` points over ``n_sums`` sums, with the
    text :func:`curve_csv` writes of it.

    Once: 64 KiB for ``random.Random`` states and small objects, and a sum's
    log-binomials (48 bytes), running binomial (1), one point's working
    lists (128) and an excitation the size of the multiplier's
    ``numerator``, which each sum's weight multiplies.  Each point keeps a
    Fraction of two ints up to ``bound``, a sum's float (32 bytes) and CSV
    cell in a line and twice in the text (48).
    """
    return (65536 + (48 + 1 + 128 + sys.getsizeof(numerator)) * n_sums
            + steps * (256 + 2 * sys.getsizeof(bound) + 80 * n_sums))


def curve_csv(curve: TransferCurve) -> str:
    """The sweep CSV: ``R,P0,...,PN,p_norm``, a row per grid point to 6 significant digits,
    and a last ``step_distance=`` line.  ``p_norm`` is the transfer the distance averages."""
    lower, upper = _transfer_pair(curve.r_grid)
    lines = ["R," + ",".join(f"P{s}" for s in range(curve.n_vars + 1)) + ",p_norm"]
    for r, dist, (transfer, _) in zip(
            curve.r_grid, curve.distributions, _transfers(curve.distributions, lower, upper)):
        lines.append(",".join([f"{float(r):.6g}", *(f"{p:.6g}" for p in dist), f"{transfer:.6g}"]))
    lines.append(f"step_distance={curve.step_distance:.6g}")
    return "\n".join(lines) + "\n"


def _transfer_pair(r_grid: Sequence[Fraction]) -> tuple[int, int]:
    """The pair of sums a sweep's transfer runs between: floor of the first R, ceil of the last."""
    return math.floor(r_grid[0]), math.ceil(r_grid[-1])


def _transfers(distributions: Sequence[Sequence[float]], lower: int, upper: int
               ) -> Iterator[tuple[float, float]]:
    """Per grid point, the transfer ``P(upper) / (P(lower) + P(upper))``, NaN where the pair
    has no mass, and the stray mass off the pair."""
    for dist in distributions:
        pair_mass = dist[lower] + dist[upper]
        yield dist[upper] / pair_mass if pair_mass else math.nan, 1.0 - pair_mass


def step_distance(curve: TransferCurve, lower_s: int, upper_s: int) -> float:
    """Mean absolute deviation of the normalized transfer from an ideal step.

    The transfer is ``p(R) = P(upper_s) / (P(lower_s) + P(upper_s))``; the
    ideal step is 0 below the midpoint of the two sums, 1 above it, and 0.5
    exactly at it.  Mass on other sums is discarded by the normalization;
    if it exceeds 1% anywhere a :class:`StrayMassWarning` is emitted.  A grid
    point with no mass on the pair is left out of the mean, and its stray
    mass of 1 is warned of; with no such mass anywhere the distance is
    undefined and :class:`DataQualityError` is raised.
    """
    return _step_distance(curve.r_grid, curve.distributions, lower_s, upper_s, stacklevel=3)


def _step_distance(r_grid: Sequence[Fraction], distributions: Sequence[Sequence[float]],
                   lower_s: int, upper_s: int, stacklevel: int) -> float:
    """:func:`step_distance` over a grid; ``stacklevel`` points a warning past the package."""
    n_sums = len(distributions[0])
    if not all(is_integer(s) and 0 <= s < n_sums for s in (lower_s, upper_s)) or lower_s == upper_s:
        raise ParameterError(f"transfer sums ({lower_s!r}, {upper_s!r}) must be distinct "
                             f"integers in [0, {n_sums - 1}]")
    midpoint = Fraction(lower_s + upper_s, 2)
    deviations, worst_stray, worst_r = [], 0.0, None
    for r, (transfer, stray) in zip(r_grid, _transfers(distributions, lower_s, upper_s)):
        if stray > worst_stray:
            worst_stray, worst_r = stray, r
        if math.isnan(transfer):  # no mass on the pair, no transfer here
            continue
        ideal = 0.5 if r == midpoint else 0.0 if r < midpoint else 1.0
        deviations.append(abs(transfer - ideal))
    if not deviations:
        raise DataQualityError(
            f"no mass on sums {lower_s} or {upper_s} at any R; the transfer ratio is undefined")
    if worst_stray > 0.01:
        warnings.warn(StrayMassWarning(f"{worst_stray:.3g} of the mass lies outside sums "
                                       f"({lower_s}, {upper_s}) at R={worst_r}"),
                      stacklevel=stacklevel)
    return sum(deviations) / len(deviations)
