"""Exact ground-truth engines for encoded restrictions.

Computes the exact energy spectrum of a model grouped by the problem-bit sum,
and certifies (or refutes) that the penalty is a valid restriction: minimal
exactly on the feasible assignments, every assignment of an allowed sum and
no other, at the declared residual energy.

Both engines work in integer arithmetic on the model's ints, which share
one scale; energies convert back to Fractions at the end.  The engines:

* the twin-class table splits each kind of bit, problem or dummy, into
  classes of twins, whose swap leaves every energy unchanged, and tabulates
  the energy over per-class set-bit counts in Python ints: at most
  ``(n + 1)**2`` rows of ``prod(|c| + 1)`` entries over dummy classes c,
  fewer where dummy patterns merge, ``weights`` counting them;
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
import operator
import sys
from fractions import Fraction

from .core import (
    DimensionError,
    EncodedRestriction,
    ParameterError,
    QuboModel,
    RestrictionSpec,
    as_fraction,
    as_multiplier,
    check_count,
    check_memory,
    check_type,
    record,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterator, Optional

    import numpy as np

    from .core import RationalLike


@record
class SpectrumReport:
    """Exact spectrum of an encoded restriction, projected on the problem-bit sum.

    ``by_sum`` maps each sum s to the minimum energy over assignments whose
    problem bits add to s (dummies minimized over) and the count of
    assignments attaining it.  ``uniform_sums`` holds the sums s at which
    every assignment of the problem bits reaches that minimum once its
    dummies are minimized over.  ``passed`` is True when the penalty is
    minimal exactly on the feasible assignments: every assignment of an
    allowed sum and no other, at the declared residual energy.
    """

    by_sum: dict[int, tuple[Fraction, int]]
    ground_energy: Fraction
    ground_sums: frozenset[int]
    ground_degeneracy: int
    second_energy: Optional[Fraction]
    uniform_sums: frozenset[int]
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
) -> Optional[tuple[int, list[list[int]], list[int], list[tuple[tuple[int, ...], int, list[int]]]]]:
    """``(scale, classes, weights, rows)``: the model's twin-class table, or None for the sweep.

    Two bits of one kind, problem or dummy, are twins when they share a
    diagonal and couple equally to every other bit (absent coefficients count
    as 0), so swapping them leaves every energy unchanged.  Each kind is
    partitioned into classes of twins, ordered by first bit; ``classes``
    holds the problem classes.  The entries come one dummy class at a time:
    partial assignments of equal energy and equal fields on the classes to
    come share a future and merge, ``weights[y]`` counting entry y's dummy
    patterns.  ``rows`` holds ``(counts, multiplicity, energies)`` per vector
    of set-bit counts s_c over the problem classes, the first varying
    slowest: ``energies[y]`` is the energy times ``scale`` of
    ``multiplicity * weights[y]`` assignments, ``multiplicity = prod C(|c|, s_c)``.

    Read from the coefficients, never from the kind: the table takes at most
    ``(n_problem + 1)**2`` rows, and at most ``2**(n_problem + 1)`` dummy
    count vectors, which bound the entries before any merge.  Bits of one
    kind with equal diagonals are tried first as classes, then the twin
    classes, found from each row's sum over random position weights, and a
    pass over the terms confirms them, so colliding weights cost only speed:
    the table takes every model whose twin classes meet those caps.  A table
    whose ``table_bytes`` at that bound exceed the physical memory raises
    ``SizeLimitError`` before it is built.
    """
    n, d = model.n_problem, model.n_dummies
    coeffs, bound = model.int_coeffs, _energy_bound(model)
    # no partition has fewer rows, or fewer entries, than one class of each kind
    check_memory(f"a twin-class table of {n + 1} rows of {d + 1} energies",
                 table_bytes(n + 1, d + 1, 0, n, d, bound))
    # propose bits of one kind with equal diagonals as classes, then the twin classes
    keys: list = [coeffs.get((i, i), 0) for i in range(n + d)]
    for proposal in range(2):
        if proposal:
            # twins i, j coupled by w have equal rows off the pair, so over position weights
            # r the row sums h_i = sum_{k != i} Q_ik r_k meet h_i + w r_i == h_j + w r_j
            import random

            rng = random.Random(n + d)
            r = [rng.getrandbits(64) for _ in keys]
            h = [0] * (n + d)
            for (i, j), q in coeffs.items():
                if i != j:
                    h[i] += q * r[j]
                    h[j] += q * r[i]
            # label each bit by the first of its kind with its diagonal and h, which groups
            # twins with w = 0, then lower j's label to i where a coupling meets the equation
            first: dict[tuple, int] = {}
            diagonals, keys = keys, [first.setdefault((i >= n, e, f), i)
                                     for i, (e, f) in enumerate(zip(keys, h))]
            for (i, j), q in coeffs.items():  # a diagonal term keeps its label, at most i
                if ((i < n) == (j < n) and diagonals[i] == diagonals[j]
                        and h[i] + q * r[i] == h[j] + q * r[j]):
                    keys[j] = min(keys[j], i)
        groups: dict[tuple, list[int]] = {}
        for i, key in enumerate(keys):
            groups.setdefault((i >= n, key), []).append(i)
        problem = [members for (is_dummy, _), members in groups.items() if not is_dummy]
        dummy = [members for (is_dummy, _), members in groups.items() if is_dummy]
        # each class at least doubles the rows or entries: this many give more than the caps
        if len(problem) >= 2 * (n + 1).bit_length() or len(dummy) > n + 1:
            return None
        n_rows = math.prod(len(c) + 1 for c in problem)
        n_entries = math.prod(len(c) + 1 for c in dummy)
        if n_rows > (n + 1) ** 2 or n_entries > 2 << n:
            return None
        n_classes = len(problem) + len(dummy)  # a merge only shrinks the entries
        check_memory(f"a twin-class table over {n_classes} classes of {n_rows} rows of "
                     f"{n_entries} energies",
                     table_bytes(n_rows, n_entries, n_classes, n, d, bound))
        if _are_twins(coeffs, problem + dummy):
            break
    else:
        return None

    # the entries one dummy class at a time, merging equal keys (energy, fields to come)
    later = dummy + problem
    keys, weights = [(model.int_offset, *[0] * len(later))], [1]
    for c, members in enumerate(dummy):
        links = [coeffs.get(tuple(sorted((members[0], other[0]))), 0) for other in later[c + 1:]]
        merged: dict[tuple, int] = {}
        for s, (binomial, level) in enumerate(_levels(
                coeffs, members, [key[0] for key in keys], [key[1] for key in keys], 0)):
            shift = [s * q for q in links]
            for e, key, w in zip(level, keys, weights):
                future = (e, *map(operator.add, key[2:], shift))
                merged[future] = merged.get(future, 0) + w * binomial
        keys, weights = list(merged), list(merged.values())
    rows = [((), 1, [key[0] for key in keys])]
    for c, members in enumerate(problem):
        slope = [key[1 + c] for key in keys]
        links = [coeffs.get((other[0], members[0]), 0) for other in problem[:c]]
        rows = [(counts + (s,), multiplicity * binomial, level)
                for counts, multiplicity, energies in rows
                for s, (binomial, level) in enumerate(_levels(
                    coeffs, members, energies, slope, sum(map(operator.mul, links, counts))))]
    return model.scale, problem, weights, rows


def _levels(coeffs: dict[tuple[int, int], int], members: list[int], energies: list[int],
            slope: list[int], step: int) -> Iterator[tuple[int, list[int]]]:
    """``(C(|c|, s), energies)`` for s = 0..|c| set bits of class c, each adding its
    diagonal, ``step``, its pair coupling times the set bits before it and ``slope``."""
    first, size = members[0], len(members)
    pair = coeffs.get((first, members[1]), 0) if size > 1 else 0
    step += coeffs.get((first, first), 0)
    binomial = 1
    yield binomial, energies
    for s in range(size):
        energies = [e + t + step + pair * s for e, t in zip(energies, slope)]
        binomial = binomial * (size - s) // (s + 1)
        yield binomial, energies


def _are_twins(coeffs: dict[tuple[int, int], int], cells: list[list[int]]) -> bool:
    """Whether each block of the terms holds one value, the cells partitioning every bit.

    Absent terms count as 0.  Cell u has column code ``2**u``.  The blocks
    are the diagonals of a cell, keyed ``-2**u``, and the pairs within a
    cell or between two cells, keyed ``2**u + 2**v``.
    """
    column = [0] * sum(map(len, cells))
    for u, members in enumerate(cells):
        for i in members:
            column[i] = 1 << u
    values: dict[int, int] = {}
    first = values.setdefault
    for (i, j), q in coeffs.items():
        if first(column[i] + column[j] if i != j else -column[i], q) != q:
            return False
    size = {}
    for u, members in enumerate(cells):
        size[-1 << u] = m = len(members)
        for v in range(u, len(cells)):
            size[(1 << u) + (1 << v)] = m * len(cells[v]) if u != v else m * (m - 1) // 2
    # stored coefficients are never zero, so a block with a missing term shows in the count
    return sum(size[key] for key in values) == len(coeffs)


def table_bytes(n_rows: int, n_entries: int, n_classes: int, n_problem: int, n_dummies: int,
                bound: int) -> int:
    """Estimated peak bytes of a twin-class table of ``n_rows`` rows of ``n_entries`` energies.

    A row costs about 256 bytes of tuples and list, a multiplicity of up to
    ``n_problem`` bits and its energies up to ``bound``, each a list slot and
    an int with a spare digit; the level built before the last, at most as
    large, is alive meanwhile.  The weights cost a list slot and an int of
    up to ``n_dummies`` bits per entry, twice while the last is built, and
    so do the keys the entries merge under: a tuple and a dict slot, about
    128 bytes, and an energy and a field per one of ``n_classes`` classes.
    """
    return (2 * n_rows * (256 + n_problem // 8 + n_entries * _entry_bytes(bound))
            + 2 * n_entries * (168 + n_dummies // 8 + (1 + n_classes) * _entry_bytes(bound)))


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
    # 2**64 states exceed any memory, so no estimate shifts by more than 64
    check_memory(f"enumerating 2**{n} assignments",
                 enumeration_bytes(min(n, 64), 8 if fits_int64 else _entry_bytes(bound)))
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


def _minima_by_sum(energies: np.ndarray,
                   model: QuboModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sum minimum of the energies, the number of states attaining it, and the
    number of problem assignments attaining it once their dummies are minimized over."""
    import numpy as np

    n, d = model.n_problem, model.n_dummies
    # the problem bits are the low bits, so column b holds the states of assignment b
    lows = energies.reshape(1 << d, 1 << n).min(axis=0) if d else energies
    sums = problem_bit_sums(n, n)
    # assignment 2**s - 1 has sum s, so every group starts from one of its members
    minima = lows[(1 << np.arange(n + 1)) - 1]
    np.minimum.at(minima, sums, lows)
    reached = _hits_by_sum(lows, sums, minima)
    if not d:  # each problem assignment is one state
        return minima, reached, reached
    del lows, sums  # their space holds the sums of all states
    return minima, _hits_by_sum(energies, problem_bit_sums(model.n_total, n), minima), reached


def _hits_by_sum(energies: np.ndarray, sums: np.ndarray, minima: np.ndarray) -> np.ndarray:
    """How many of the energies equal the minimum of their sum, by sum."""
    import numpy as np

    # counted in eighths, so the temporaries fit in the space the sweep's field freed
    hits = np.zeros(minima.size, dtype=np.int64)
    step = max(1, sums.size // 8)
    for start in range(0, sums.size, step):
        part = sums[start: start + step]
        hit = energies[start: start + step] == minima[part]
        hits += np.bincount(part[hit], minlength=minima.size)
    return hits


def _spectrum(model: QuboModel) -> tuple[dict[int, tuple[Fraction, int]], Optional[Fraction],
                                         frozenset[int]]:
    """``SpectrumReport.by_sum`` of any model, its lowest energy above the ground, if
    any, and ``SpectrumReport.uniform_sums``.

    Models the twin-class table takes are read off its rows, where each
    energy stands for ``multiplicity`` times its entry's weight of
    assignments, and each row for problem assignments of one minimum over
    the dummies, so a sum is uniform when no row of it lies above its
    minimum; every other model takes the doubling sweep.  Either is refused
    with ``SizeLimitError`` when its estimate exceeds the physical memory.
    """
    n = model.n_problem
    table = twin_table(model)
    if table is not None:
        scale, _, weights, rows = table
        minima, counts, raised = [None] * (n + 1), [0] * (n + 1), [False] * (n + 1)
        for class_counts, multiplicity, energies in rows:
            s, low = sum(class_counts), min(energies)
            if minima[s] is None or low < minima[s]:
                # the rows of s before this one, if any, lie above its new minimum
                minima[s], counts[s], raised[s] = low, 0, minima[s] is not None
            elif low > minima[s]:
                raised[s] = True
            if low == minima[s]:
                y = -1
                for _ in range(energies.count(low)):  # each entry at the minimum, by its weight
                    y = energies.index(low, y + 1)
                    counts[s] += multiplicity * weights[y]
        ground = min(minima)
        second = min((e for _, _, energies in rows for e in energies if e != ground), default=None)
        uniform = frozenset(s for s in range(n + 1) if not raised[s])
    else:
        energies, scale = assignment_energies(model)
        minima, counts, reached = _minima_by_sum(energies, model)
        above = energies[energies != minima.min()]
        second = above.min() if above.size else None
        uniform = frozenset(s for s in range(n + 1) if reached[s] == math.comb(n, s))
    by_sum = {s: (Fraction(int(e), scale), int(c)) for s, (e, c) in enumerate(zip(minima, counts))}
    return by_sum, None if second is None else Fraction(int(second), scale), uniform


def _failures(ground_energy: Fraction, ground_sums: frozenset[int], uniform_sums: frozenset[int],
              spec: RestrictionSpec, residual: Fraction) -> list[str]:
    """Every rule of a valid restriction that a spectrum breaks, one diagnosis each.

    A valid restriction is minimal exactly on the feasible assignments
    (Glover, Kochenberger and Du, arXiv 1811.11538): every assignment of an
    allowed sum reaches the ground energy, no assignment of another sum
    does, and the ground energy is the declared residual.
    """
    allowed = frozenset(spec.allowed)
    failures = []
    missing = sorted(allowed - ground_sums)
    if missing:
        failures.append(f"allowed sums {missing} never reach the ground energy")
    raised = sorted((allowed & ground_sums) - uniform_sums)
    if raised:
        failures.append(f"assignments of allowed sums {raised} lie above the ground energy")
    spurious = sorted(ground_sums - allowed)
    if spurious:
        failures.append(f"spurious ground states at sums {spurious}")
    if ground_energy != residual:
        failures.append(f"ground energy {ground_energy} differs from the declared "
                        f"residual {residual}")
    return failures


def enumerate_spectrum(encoded: EncodedRestriction, spec: RestrictionSpec) -> SpectrumReport:
    """Exhaustive spectrum of an encoding, with the pass/fail verdict filled in."""
    check_type("encoded", encoded, EncodedRestriction)
    check_type("spec", spec, RestrictionSpec)
    model = encoded.model
    if model.n_problem != spec.n_vars:
        raise DimensionError(
            f"model has {model.n_problem} problem bits, spec has {spec.n_vars}")
    by_sum, second_energy, uniform_sums = _spectrum(model)
    ground_energy = min(e for e, _ in by_sum.values())
    ground_sums = frozenset(s for s, (e, _) in by_sum.items() if e == ground_energy)
    return SpectrumReport(
        by_sum=by_sum,
        ground_energy=ground_energy,
        ground_sums=ground_sums,
        ground_degeneracy=sum(by_sum[s][1] for s in ground_sums),
        second_energy=second_energy,
        uniform_sums=uniform_sums,
        passed=not _failures(ground_energy, ground_sums, uniform_sums, spec,
                             encoded.residual_energy),
    )


def verify(encoded: EncodedRestriction, spec: RestrictionSpec) -> VerificationResult:
    """Certify an encoding against its spec, with a human-readable diagnosis.

    Passes when the penalty is minimal exactly on the feasible assignments:
    every assignment of an allowed sum, and no other, at exactly the
    declared residual.  The diagnosis of a failure lists every rule broken;
    that of a pass names the gap to the next distinct energy level, when one
    exists.  A model whose exact engine would need more than the physical
    memory raises ``SizeLimitError``.
    """
    report = enumerate_spectrum(encoded, spec)
    if not report.passed:
        failures = _failures(report.ground_energy, report.ground_sums, report.uniform_sums,
                             spec, encoded.residual_energy)
        return VerificationResult(False, "; ".join(failures), report)
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
    check_count("n_vars", n_vars)
    r, lam = as_fraction(r), as_multiplier(lam)
    if not 0 <= r <= n_vars:
        raise ParameterError(f"target {r} must lie in [0, {n_vars}]")
    ladder = [(s, lam * (s - r) ** 2) for s in range(n_vars + 1)]
    ladder.sort(key=lambda entry: (entry[1], entry[0]))
    return ladder
