"""Exact ground-truth engines for encoded restrictions.

Computes the exact energy spectrum of a model grouped by the problem-bit sum,
and certifies (or refutes) that the minimum-energy assignments realize
exactly the allowed sums at the declared residual energy.

Both engines work in integer arithmetic on the model's ints, which share
one scale; energies convert back to Fractions at the end.  The engines:

* the symmetric engine serves models whose energy depends on the problem
  bits only through their sum s (every construction in ``encoders``), and
  tabulates ``E(s, y)`` over sums and dummy patterns y in Python ints;
* every other model takes the doubling sweep over all ``2**n_total``
  assignments: the states with bit k set cost ``E[b] + Q_kk + h_k[b]`` for
  ``b < 2**k``, and the field ``h_k`` on bit k is itself built by doubling,
  so each state costs O(1) additions, in place, for int64 and object dtype.

numpy is imported only by the functions that build arrays, so certifying a
symmetric model never loads it.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .core import (
    DimensionError,
    EncodedRestriction,
    ParameterError,
    QuboModel,
    RationalLike,
    RestrictionSpec,
    SizeLimitError,
    as_fraction,
)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MAX_BITS = 24


@dataclass(frozen=True)
class SpectrumReport:
    """Exact spectrum of an encoded restriction, projected on the problem-bit sum.

    ``by_sum`` maps each sum s to the minimum energy over assignments whose
    problem bits add to s (dummies minimized over) and the count of
    assignments attaining it.  ``passed`` is True when the global minima
    realize exactly the allowed sums at the declared residual energy.
    """

    by_sum: dict[int, tuple[Fraction, int]]
    ground_energy: Fraction
    ground_sums: frozenset[int]
    ground_degeneracy: int
    second_energy: Optional[Fraction]
    passed: bool


@dataclass(frozen=True)
class VerificationResult:
    passed: bool
    diagnosis: str
    report: SpectrumReport


def _check_size(n_total: int, max_bits: int) -> None:
    if n_total > max_bits:
        raise SizeLimitError(
            f"model has {n_total} variables; enumeration is capped at {max_bits} bits "
            f"(pass a larger max_bits to override)")


def symmetric_energies(
    model: QuboModel, max_bits: int = DEFAULT_MAX_BITS
) -> Optional[tuple[int, list[list[int]]]]:
    """Energies ``E(s, y)`` of a model symmetric in its problem bits, or None.

    The model is symmetric when every problem bit has the same diagonal
    coefficient, every pair of problem bits the same coupling, and each dummy
    the same coupling to every problem bit (absent coefficients count as 0).
    Its energy then depends on the problem bits only through their sum s:
    ``E(s, y) = offset + a*s + b*s*(s-1)/2 + s*c(y) + D(y)`` for dummy
    pattern y.  The structure is read from the coefficients, never from the
    encoding kind, so a tampered file is judged by what it contains.

    Returns ``(scale, table)``: ``table[s][y]`` is the energy times ``scale``
    as a Python int, for s = 0..n_problem and y < 2**n_dummies (bit k of y is
    dummy k).  Returns None for an asymmetric model, and for one with more
    than ``n_problem + 1`` dummies, whose table would outgrow the doubling
    sweep.  ``max_bits`` caps ``n_total`` as it does for the sweep.
    """
    _check_size(model.n_total, max_bits)
    n, d = model.n_problem, model.n_dummies
    if d > n + 1:
        return None
    coeffs = model.int_coeffs
    # the shared coefficients, read off problem bit 0
    diagonal = coeffs.get((0, 0), 0) if n else 0
    pair = coeffs.get((0, 1), 0) if n > 1 else 0
    field = [coeffs.get((0, n + k), 0) if n else 0 for k in range(d)]
    present = 0
    for (i, j), q in coeffs.items():
        if i < n:
            if q != (diagonal if i == j else pair if j < n else field[j - n]):
                return None
            present += 1
    # stored coefficients are never zero, so a missing one shows in the count
    if present != n * (diagonal != 0) + n * (n - 1) // 2 * (pair != 0) + n * sum(
            c != 0 for c in field):
        return None

    # D(y) plus the offset, and c(y), over the dummy patterns, by doubling
    dummy_energy, slope = [model.int_offset], [0]
    for k in range(d):
        kick = [coeffs.get((n + k, n + k), 0)]
        for l in range(k):
            coupling = coeffs.get((n + l, n + k), 0)
            kick += [x + coupling for x in kick]
        dummy_energy += [e + x for e, x in zip(dummy_energy, kick)]
        slope += [t + field[k] for t in slope]
    table = [[diagonal * s + pair * (s * (s - 1) // 2) + s * t + e
              for t, e in zip(slope, dummy_energy)] for s in range(n + 1)]
    return model.scale, table


def enumeration_bytes(n_total: int, entry_bytes: int = 8) -> int:
    """Estimated peak bytes of the doubling sweep and its reduction by sum.

    The sweep holds the energies and a half-size field (``entry_bytes``
    each); the reduction then holds the energies, the int64 sums and
    temporaries that fit in the space of the freed field.
    """
    states = 1 << n_total
    return (states + states // 2) * entry_bytes + states * 8


def _physical_memory() -> Optional[int]:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # the platform cannot say
        return None


def assignment_energies(
    model: QuboModel, max_bits: int = DEFAULT_MAX_BITS
) -> tuple[np.ndarray, int]:
    """Energies of all ``2**n_total`` assignments, times an integer ``scale``.

    Assignments are visited in plain counting order: assignment ``b`` sets
    bit ``i`` to ``(b >> i) & 1``.  Returns ``(scaled_energies, scale)``;
    exact energies are ``Fraction(int(e), scale)``.
    """
    import numpy as np

    n = model.n_total
    _check_size(n, max_bits)
    # no partial energy exceeds this bound; past int64, exact Python ints in object dtype
    bound = sum(map(abs, model.int_coeffs.values())) + abs(model.int_offset)
    q_matrix = np.zeros((n, n), dtype=np.int64 if bound < 2**62 else object)
    for (i, j), v in model.int_coeffs.items():
        q_matrix[i, j] = v
    # object-dtype entries are a pointer plus the Python int they point to, which
    # an addition allocates with one spare digit
    object_entry = 8 + sys.getsizeof(bound) + sys.int_info.sizeof_digit
    needed = enumeration_bytes(n, 8 if q_matrix.dtype != object else object_entry)
    available = _physical_memory()
    if available is not None and needed > available:
        raise SizeLimitError(f"enumerating 2**{n} assignments needs about "
                             f"{needed / 2**30:.3g} GiB, more than the physical memory")
    energies = np.empty(1 << n, dtype=q_matrix.dtype)
    field = np.empty((1 << n) // 2, dtype=q_matrix.dtype)
    energies[0] = model.int_offset
    for k in range(n):
        # field[b] = Q_kk + sum_{i<k} Q_ik * bit_i(b) for b < 2**k (Q is upper-triangular)
        field[0] = q_matrix[k, k]
        for i in range(k):
            np.add(field[: 1 << i], q_matrix[i, k], out=field[1 << i: 2 << i])
        np.add(energies[: 1 << k], field[: 1 << k], out=energies[1 << k: 2 << k])
    return energies, model.scale


def problem_bit_sums(n_total: int, n_problem: int) -> np.ndarray:
    """Problem-bit sum of every assignment, in counting order."""
    import numpy as np

    sums = np.zeros(1 << n_total, dtype=np.int64)
    for k in range(n_total):
        np.add(sums[: 1 << k], int(k < n_problem), out=sums[1 << k: 2 << k])
    return sums


def _minima_by_sum(energies: np.ndarray, model: QuboModel) -> tuple[np.ndarray, np.ndarray]:
    """Per-sum minimum of the energies and the number of states attaining it."""
    import numpy as np

    n = model.n_problem
    sums = problem_bit_sums(model.n_total, n)
    # assignment 2**s - 1 has sum s, so every group starts from one of its members
    minima = energies[(1 << np.arange(n + 1)) - 1]
    np.minimum.at(minima, sums, energies)
    # counted in eighths, so the temporaries fit in the space the sweep's field freed
    counts = np.zeros(n + 1, dtype=np.int64)
    step = max(1, sums.size // 8)
    for start in range(0, sums.size, step):
        part = sums[start: start + step]
        hit = energies[start: start + step] == minima[part]
        counts += np.bincount(part[hit], minlength=n + 1)
    return minima, counts


def _spectrum(
    model: QuboModel, max_bits: int
) -> tuple[dict[int, tuple[Fraction, int]], Optional[Fraction]]:
    """``by_sum`` and the lowest energy above the ground energy, if any.

    Symmetric models are read off ``symmetric_energies``, where sum s stands
    for ``C(n_problem, s)`` assignments per dummy pattern; every other model
    takes the doubling sweep.
    """
    symmetric = symmetric_energies(model, max_bits)
    if symmetric is not None:
        scale, table = symmetric
        minima = [min(row) for row in table]
        by_sum = {s: (Fraction(low, scale), math.comb(model.n_problem, s) * row.count(low))
                  for s, (row, low) in enumerate(zip(table, minima))}
        ground = min(minima)
        second = min((e for row in table for e in row if e != ground), default=None)
    else:
        energies, scale = assignment_energies(model, max_bits)
        minima, counts = _minima_by_sum(energies, model)
        by_sum = {s: (Fraction(int(e), scale), int(c))
                  for s, (e, c) in enumerate(zip(minima, counts))}
        above = energies[energies != minima.min()]
        second = above.min() if above.size else None
    return by_sum, None if second is None else Fraction(int(second), scale)


def sum_spectrum(
    model: QuboModel, max_bits: int = DEFAULT_MAX_BITS
) -> dict[int, tuple[Fraction, int]]:
    """Minimum energy and its degeneracy for each problem-bit sum.

    Dummy bits are minimized over: the value reported for sum s is the best
    energy any assignment with s active problem bits can reach.
    """
    return _spectrum(model, max_bits)[0]


def enumerate_spectrum(
    encoded: EncodedRestriction,
    spec: RestrictionSpec,
    max_bits: int = DEFAULT_MAX_BITS,
) -> SpectrumReport:
    """Exhaustive spectrum of an encoding, with the pass/fail verdict filled in."""
    model = encoded.model
    if model.n_problem != spec.n_vars:
        raise DimensionError(
            f"model has {model.n_problem} problem bits, spec has {spec.n_vars}")
    by_sum, second_energy = _spectrum(model, max_bits)
    ground_energy = min(e for e, _ in by_sum.values())
    ground_sums = frozenset(s for s, (e, _) in by_sum.items() if e == ground_energy)
    ground_degeneracy = sum(by_sum[s][1] for s in ground_sums)

    passed = (
        ground_sums == frozenset(spec.allowed)
        and ground_energy == encoded.residual_energy
    )
    return SpectrumReport(
        by_sum=by_sum,
        ground_energy=ground_energy,
        ground_sums=ground_sums,
        ground_degeneracy=ground_degeneracy,
        second_energy=second_energy,
        passed=passed,
    )


def verify(
    encoded: EncodedRestriction,
    spec: RestrictionSpec,
    max_bits: int = DEFAULT_MAX_BITS,
) -> VerificationResult:
    """Certify an encoding against its spec, with a human-readable diagnosis.

    Passes when the ground-state sums equal the allowed set and the ground
    energy equals the declared residual exactly.  The diagnosis of a pass
    names the gap to the next distinct energy level, when one exists.
    """
    report = enumerate_spectrum(encoded, spec, max_bits)
    allowed = frozenset(spec.allowed)
    problems: list[str] = []
    missing = sorted(allowed - report.ground_sums)
    spurious = sorted(report.ground_sums - allowed)
    if missing:
        problems.append(
            f"allowed sums {missing} never reach the ground energy")
    if spurious:
        problems.append(
            f"spurious ground states at sums {spurious}")
    if report.ground_energy != encoded.residual_energy:
        problems.append(
            f"ground energy {report.ground_energy} differs from the declared "
            f"residual {encoded.residual_energy}")
    if problems:
        return VerificationResult(False, "; ".join(problems), report)
    gap = (
        f"gap to next level {report.second_energy - report.ground_energy}"
        if report.second_energy is not None
        else "all assignments are ground states"
    )
    diagnosis = (
        f"ground sums {sorted(report.ground_sums)} match the allowed set at "
        f"energy {report.ground_energy} ({gap})"
    )
    return VerificationResult(True, diagnosis, report)


def fractional_energy_ladder(
    n_vars: int, r: RationalLike, lam: RationalLike = 1
) -> list[tuple[int, Fraction]]:
    """Energies ``lam * (s - R)**2`` for s = 0..n_vars, sorted ascending.

    Ties (which occur exactly at half-integer R) are broken by the smaller
    sum first.  For fractional R the minimum lands on the integer nearest R,
    with a nonzero floor energy shared by no second level unless R is a
    half-integer.
    """
    r = as_fraction(r)
    lam = as_fraction(lam)
    if lam <= 0:
        raise ParameterError(f"multiplier must be positive, got {lam}")
    if not 0 <= r <= n_vars:
        raise ParameterError(f"target {r} must lie in [0, {n_vars}]")
    ladder = [(s, lam * (s - r) ** 2) for s in range(n_vars + 1)]
    ladder.sort(key=lambda entry: (entry[1], entry[0]))
    return ladder
