"""Exact ground-truth engines for encoded restrictions.

Computes the exact energy spectrum of a model grouped by the problem-bit sum,
and certifies (or refutes) that the minimum-energy assignments realize
exactly the allowed sums at the declared residual energy.

Both engines work in integer arithmetic on the model's ints, which share
one scale; energies convert back to Fractions at the end.  The engines:

* the twin-class table partitions the problem bits into classes of twins,
  bits whose swap leaves every energy unchanged (each construction in
  ``encoders`` is one class), and tabulates the energy over the per-class
  counts of set bits and the dummy patterns, in Python ints.  It takes a
  model with at most ``n_problem + 1`` dummies whose classes give at most
  ``(n_problem + 1)**2`` count vectors;
* every other model takes the doubling sweep over all ``2**n_total``
  assignments: the states with bit k set cost ``E[b] + Q_kk + h_k[b]`` for
  ``b < 2**k``, and the field ``h_k`` on bit k is itself built by doubling,
  so each state costs O(1) additions, in place, for int64 and object dtype.

One rule bounds both: ``core.check_memory`` refuses a table whose
``table_bytes``, or a sweep whose ``enumeration_bytes``, exceed the physical
memory, before anything is allocated.  numpy is imported only by the
functions that build arrays, so certifying a model the table takes never
loads it.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import islice

from .core import (
    DimensionError,
    EncodedRestriction,
    ParameterError,
    QuboModel,
    RestrictionSpec,
    as_fraction,
    check_memory,
    record,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional

    import numpy as np

    from .core import RationalLike


@record
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


@record
class VerificationResult:
    passed: bool
    diagnosis: str
    report: SpectrumReport


def _energy_bound(model: QuboModel) -> int:
    """``sum |q| + |offset|`` over the model's ints: no partial energy exceeds it."""
    return sum(map(abs, model.int_coeffs.values())) + abs(model.int_offset)


def _entry_bytes(bound: int) -> int:
    """Bytes of one stored energy up to ``bound``: a pointer and the Python int it
    points to, which an addition allocates with one spare digit."""
    return 8 + sys.getsizeof(bound) + sys.int_info.sizeof_digit


def twin_table(
    model: QuboModel,
) -> Optional[tuple[int, list[list[int]], list[tuple[tuple[int, ...], int, list[int]]]]]:
    """``(scale, classes, rows)``: the model's twin-class table, or None for the sweep.

    Problem bits are twins when they share a diagonal and couple equally to
    every other bit (absent coefficients count as 0), so swapping them leaves
    every energy unchanged.  ``classes`` partitions the problem bits into
    classes of twins, ordered by first bit.  ``rows`` holds ``(counts,
    multiplicity, energies)`` per vector of per-class set-bit counts, the
    first class varying slowest: ``energies[y]`` is the energy times
    ``scale`` of each assignment with those counts and dummy pattern y (bit
    k of y is dummy k), and ``multiplicity = prod C(len(c), s_c)`` counts
    them.

    Read from the coefficients, never from the kind: the table takes a model
    with at most ``n_problem + 1`` dummies whose classes give at most
    ``(n_problem + 1)**2`` count vectors.  One class is tried first, so a
    symmetric model costs one pass over the terms; otherwise bits with equal
    multisets of terms are proposed as classes and a second pass confirms
    them, so a wrong proposal costs only speed.  A table whose
    ``table_bytes`` exceed the physical memory raises ``SizeLimitError``
    before it is built.
    """
    n, d = model.n_problem, model.n_dummies
    if d > n + 1:
        return None
    coeffs, bound = model.int_coeffs, _energy_bound(model)
    present = len(coeffs)
    for i, _ in reversed(coeffs):  # sorted keys put the dummy rows last
        if i < n:
            break
        present -= 1
    # no partition has fewer rows than one class
    check_memory(f"a twin-class table of {n + 1} rows of 2**{d} energies", d,
                 table_bytes, n + 1, n, d, bound)
    classes = [list(range(n))] if n else []
    n_rows = n + 1
    if not _are_twins(coeffs, present, classes, d):
        # propose classes of bits with equal multisets of terms: the diagonal, the
        # couplings to problem bits by value alone (twins share their mutual one)
        # and the dummy couplings by value and dummy
        terms: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (i, j), q in islice(coeffs.items(), present):
            term = (q, i == j if j < n else ~j)
            terms[i].append(term)
            if i != j < n:
                terms[j].append(term)
        groups: dict[tuple, list[int]] = {}
        for i, bit_terms in enumerate(terms):
            groups.setdefault(tuple(sorted(bit_terms)), []).append(i)
        classes = list(groups.values())
        # each class at least doubles the rows: this many give more than (n + 1)**2
        if len(classes) == 1 or len(classes) >= 2 * (n + 1).bit_length():
            return None
        n_rows = math.prod(len(c) + 1 for c in classes)
        if n_rows > (n + 1) ** 2:
            return None
        if not _are_twins(coeffs, present, classes, d):
            return None
    check_memory(f"a twin-class table of {n_rows} rows of 2**{d} energies", d,
                 table_bytes, n_rows, n, d, bound)

    # the offset plus the dummy block over the dummy patterns, by doubling
    dummy_energy = [model.int_offset]
    for k in range(d):
        kick = [coeffs.get((n + k, n + k), 0)]
        for l in range(k):
            coupling = coeffs.get((n + l, n + k), 0)
            kick += [x + coupling for x in kick]
        dummy_energy += [e + x for e, x in zip(dummy_energy, kick)]
    # one more set bit in a class adds its diagonal, its pair coupling times the
    # class's set bits, its links to the earlier classes' set bits, and its
    # coupling to the dummy pattern (the slope, by doubling)
    rows = [((), 1, dummy_energy)]
    for c, members in enumerate(classes):
        first, size = members[0], len(members)
        pair = coeffs.get((first, members[1]), 0) if size > 1 else 0
        links = [coeffs.get((other[0], first), 0) for other in classes[:c]]
        slope = [0]
        for k in range(d):
            field = coeffs.get((first, n + k), 0)
            slope += [t + field for t in slope]
        grown = []
        for counts, multiplicity, energies in rows:
            step = coeffs.get((first, first), 0) + sum(w * s for w, s in zip(links, counts))
            binomial = 1
            for s in range(size + 1):
                grown.append((counts + (s,), multiplicity * binomial, energies))
                energies = [e + t + step + pair * s for e, t in zip(energies, slope)]
                binomial = binomial * (size - s) // (s + 1)
        rows = grown
    return model.scale, classes, rows


def _are_twins(coeffs: dict[tuple[int, int], int], present: int, classes: list[list[int]],
               n_dummies: int) -> bool:
    """Whether each block of the problem rows' terms holds one value.

    Absent terms count as 0.  Each class and each dummy is a cell u with
    column code ``2**u``.  The blocks are the diagonals of a class, keyed
    ``-2**u``, and the pairs within a class or between a class and a later
    cell, keyed ``2**u + 2**v``.
    """
    n = sum(map(len, classes))
    cells = classes + [[j] for j in range(n, n + n_dummies)]
    column = [0] * (n + n_dummies)
    for u, members in enumerate(cells):
        for i in members:
            column[i] = 1 << u
    values: dict[int, int] = {}
    first = values.setdefault
    for (i, j), q in islice(coeffs.items(), present):
        if first(column[i] + column[j] if i != j else -column[i], q) != q:
            return False
    size = {}
    for u, members in enumerate(classes):
        size[-1 << u] = m = len(members)
        for v in range(u, len(cells)):
            size[(1 << u) + (1 << v)] = m * len(cells[v]) if u != v else m * (m - 1) // 2
    # stored coefficients are never zero, so a block with a missing term shows in the count
    return sum(size[key] for key in values) == present


def table_bytes(n_rows: int, n_problem: int, n_dummies: int, bound: int) -> int:
    """Estimated peak bytes of a twin-class table of ``n_rows`` rows, energies up to ``bound``.

    A row costs about 256 bytes of tuples and list, a multiplicity of up to
    ``n_problem`` bits and ``2**n_dummies`` energies, each a list slot and an
    int with a spare digit; the level built before the last, at most as
    large, is alive meanwhile.
    """
    return 2 * n_rows * (256 + n_problem // 8 + (_entry_bytes(bound) << n_dummies))


def enumeration_bytes(n_total: int, entry_bytes: int = 8) -> int:
    """Estimated peak bytes of the doubling sweep and its reduction by sum.

    The sweep holds the energies and a half-size field (``entry_bytes``
    each); the reduction then holds the energies, the int64 sums and
    temporaries that fit in the space of the freed field.
    """
    states = 1 << n_total
    return (states + states // 2) * entry_bytes + states * 8


def assignment_energies(model: QuboModel) -> tuple[np.ndarray, int]:
    """Energies of all ``2**n_total`` assignments, times an integer ``scale``.

    Assignments are visited in plain counting order: assignment ``b`` sets
    bit ``i`` to ``(b >> i) & 1``.  Returns ``(scaled_energies, scale)``;
    exact energies are ``Fraction(int(e), scale)``.  A sweep whose
    ``enumeration_bytes`` exceed the physical memory raises
    ``SizeLimitError`` before anything is built.
    """
    n, bound = model.n_total, _energy_bound(model)
    fits_int64 = bound < 2**62  # past int64, exact Python ints in object dtype
    check_memory(f"enumerating 2**{n} assignments", n,
                 enumeration_bytes, n, 8 if fits_int64 else _entry_bytes(bound))
    import numpy as np

    q_matrix = np.zeros((n, n), dtype=np.int64 if fits_int64 else object)
    for (i, j), v in model.int_coeffs.items():
        q_matrix[i, j] = v
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


def _spectrum(model: QuboModel) -> tuple[dict[int, tuple[Fraction, int]], Optional[Fraction]]:
    """``SpectrumReport.by_sum`` of any model and its lowest energy above the ground, if any.

    Models the twin-class table takes are read off its rows, where each
    energy stands for ``multiplicity`` assignments; every other model takes
    the doubling sweep.  Either is refused with ``SizeLimitError`` when its
    estimate exceeds the physical memory.
    """
    table = twin_table(model)
    if table is not None:
        scale, _, rows = table
        minima = [None] * (model.n_problem + 1)
        counts = [0] * (model.n_problem + 1)
        for class_counts, multiplicity, energies in rows:
            s, low = sum(class_counts), min(energies)
            if minima[s] is None or low < minima[s]:
                minima[s], counts[s] = low, 0
            if low == minima[s]:
                counts[s] += multiplicity * energies.count(low)
        ground = min(minima)
        second = min((e for _, _, energies in rows for e in energies if e != ground), default=None)
    else:
        energies, scale = assignment_energies(model)
        minima, counts = _minima_by_sum(energies, model)
        above = energies[energies != minima.min()]
        second = above.min() if above.size else None
    by_sum = {s: (Fraction(int(e), scale), int(c)) for s, (e, c) in enumerate(zip(minima, counts))}
    return by_sum, None if second is None else Fraction(int(second), scale)


def enumerate_spectrum(encoded: EncodedRestriction, spec: RestrictionSpec) -> SpectrumReport:
    """Exhaustive spectrum of an encoding, with the pass/fail verdict filled in."""
    model = encoded.model
    if model.n_problem != spec.n_vars:
        raise DimensionError(
            f"model has {model.n_problem} problem bits, spec has {spec.n_vars}")
    by_sum, second_energy = _spectrum(model)
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


def verify(encoded: EncodedRestriction, spec: RestrictionSpec) -> VerificationResult:
    """Certify an encoding against its spec, with a human-readable diagnosis.

    Passes when the ground-state sums equal the allowed set and the ground
    energy equals the declared residual exactly.  The diagnosis of a pass
    names the gap to the next distinct energy level, when one exists.  A
    model whose exact engine would need more than the physical memory
    raises ``SizeLimitError``.
    """
    report = enumerate_spectrum(encoded, spec)
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
