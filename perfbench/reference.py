"""Independent references for the program's outputs.

Nothing here imports ``quborestrict``.  Each reference re-derives what a
command must print or write from the restriction itself, from the penalty
file's own terms, or from a closed form:

* ``verify``: for a penalty whose problem bits are interchangeable, the
  energy depends only on the problem-bit sum s and the dummy pattern y, so one
  representative assignment per (s, y) gives the exact spectrum; the
  degeneracy of sum s is ``C(n, s)`` times the number of minimising y.
* ``sweep``: the sum law ``P(s) ~ C(n, s) * exp(-lam * (s - R)**2 / T)``, with
  a binomial tolerance fixed here.
* ``encode``: every coefficient of ``lam * (sum_i a_i x_i + c)**2`` is
  ``Q_ii = lam * a_i * (a_i + 2c)`` and ``Q_ij = 2 * lam * a_i * a_j``; the
  constructions are re-derived as lists of such squared affine forms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

MAGIC = "qubo-restriction v1"
# The oracle enumerates in int64 below this bound on sum(|coefficients|) and
# falls back to object dtype (exact Python ints) at or above it.
OBJECT_DTYPE_BOUND = 2**62
# The oracle builds the bit matrix in chunks of 2**16 assignments.
CHUNK_BITS = 16
# Binomial tolerance of the sweep check: a frequency may miss its closed form
# by Z standard deviations plus Z**2/3 reads (a Bernstein bound, so rare sums
# with a handful of expected reads are covered too).  At Z = 7 a correct
# program fails one cell in about 10**10.
SWEEP_Z = 7.0


class Mismatch(Exception):
    """The program's output disagrees with the reference."""


# --------------------------------------------------------------------------
# Penalty files


@dataclass
class Penalty:
    """The fields of a penalty file, parsed without the program's reader."""

    header: dict[str, str]
    offset: Fraction
    coeffs: dict[tuple[int, int], Fraction]

    @property
    def n_total(self) -> int:
        return int(self.header["n_total"])

    @property
    def n_problem(self) -> int:
        return int(self.header["n_problem"])


def _fields(text: str) -> tuple[dict[str, str], Iterator[tuple[int, int, str]]]:
    """Header fields and (i, j, coefficient text) terms of either penalty format."""
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        if payload.get("format") != MAGIC:
            raise Mismatch("JSON penalty lacks the format tag")
        header = {key: str(value) for key, value in payload.items()
                  if key not in ("format", "terms") and value is not None}
        return header, ((int(i), int(j), str(q)) for i, j, q in payload["terms"])
    lines = text.splitlines()
    if not lines or lines[0] != MAGIC:
        raise Mismatch("penalty file lacks its first line")
    cut = next((k for k, line in enumerate(lines) if line.startswith("terms ")), None)
    if cut is None or int(lines[cut].split()[1]) != len(lines) - cut - 1:
        raise Mismatch("terms line missing or disagreeing with the term lines")
    header = dict(line.split(" ", 1) for line in lines[1:cut])
    return header, ((int(i), int(j), q) for i, j, q in (line.split() for line in lines[cut + 1:]))


def read_penalty(text: str) -> Penalty:
    header, terms = _fields(text)
    return Penalty(header, Fraction(header["offset"]), {(i, j): Fraction(q) for i, j, q in terms})


def dtype_path(penalty: Penalty) -> str:
    """The dtype the oracle will enumerate this penalty in, from its coefficient bound."""
    scale = math.lcm(penalty.offset.denominator,
                     *(q.denominator for q in penalty.coeffs.values()))
    bound = abs(penalty.offset * scale) + sum(abs(q * scale) for q in penalty.coeffs.values())
    return "int64" if bound < OBJECT_DTYPE_BOUND else "object"


def array_bytes(n_total: int) -> int:
    """Computed size of the oracle's energy array plus one bit chunk.

    Object dtype has the same 8-byte items (pointers); the Python ints they
    point to are not counted.
    """
    chunk_rows = min(1 << n_total, 1 << CHUNK_BITS)
    return 8 * (1 << n_total) + 8 * chunk_rows * n_total


# --------------------------------------------------------------------------
# verify


@dataclass
class Spectrum:
    by_sum: dict[int, tuple[Fraction, int]]
    ground_energy: Fraction
    ground_sums: tuple[int, ...]
    ground_degeneracy: int
    second_energy: Optional[Fraction]
    verdict: str


def symmetric_spectrum(penalty: Penalty, allowed: tuple[int, ...]) -> Optional[Spectrum]:
    """Exact spectrum from one representative per (sum, dummy pattern).

    Returns None when the problem bits are not interchangeable, in which case
    this reference does not apply.
    """
    n, d = penalty.n_problem, penalty.n_total - penalty.n_problem
    q = penalty.coeffs
    zero = Fraction(0)
    if len({q.get((i, i), zero) for i in range(n)}) > 1:
        return None
    if len({q.get((i, j), zero) for i in range(n) for j in range(i + 1, n)}) > 1:
        return None
    dummy_links = []
    for k in range(n, n + d):
        links = {q.get((i, k), zero) for i in range(n)}
        if len(links) > 1:
            return None
        dummy_links.append(links.pop() if links else zero)
    diag = q.get((0, 0), zero) if n else zero
    pair = q.get((0, 1), zero) if n > 1 else zero

    energies: dict[int, list[Fraction]] = {}
    for s in range(n + 1):
        base = penalty.offset + s * diag + (s * (s - 1) // 2) * pair
        row = []
        for pattern in range(1 << d):
            on = [k for k in range(d) if pattern >> k & 1]
            e = base
            for a, k in enumerate(on):
                e += q.get((n + k, n + k), zero) + s * dummy_links[k]
                for l in on[a + 1:]:
                    e += q.get((n + k, n + l), zero)
            row.append(e)
        energies[s] = row

    by_sum = {}
    for s, row in energies.items():
        low = min(row)
        by_sum[s] = (low, math.comb(n, s) * row.count(low))
    ground = min(e for e, _ in by_sum.values())
    ground_sums = tuple(s for s, (e, _) in by_sum.items() if e == ground)
    above = [e for row in energies.values() for e in row if e > ground]
    residual = Fraction(penalty.header["residual_energy"])
    passed = ground_sums == tuple(sorted(allowed)) and ground == residual
    return Spectrum(
        by_sum=by_sum,
        ground_energy=ground,
        ground_sums=ground_sums,
        ground_degeneracy=sum(by_sum[s][1] for s in ground_sums),
        second_energy=min(above) if above else None,
        verdict="PASS" if passed else "FAIL",
    )


def parse_verify_output(stdout: str) -> Spectrum:
    lines = stdout.splitlines()
    if not lines or lines[0].split() != ["s", "min_energy", "degeneracy"]:
        raise Mismatch("verify output lacks the spectrum header")
    by_sum = {}
    fields = {}
    for line in lines[1:]:
        parts = line.split()
        if len(parts) == 3 and parts[0].isdigit():
            by_sum[int(parts[0])] = (Fraction(parts[1]), int(parts[2]))
            continue
        key, sep, value = line.partition(": ")
        if sep and key in ("ground_energy", "ground_sums", "ground_degeneracy",
                           "second_energy", "verdict"):
            fields[key] = value
    try:
        return Spectrum(
            by_sum=by_sum,
            ground_energy=Fraction(fields["ground_energy"]),
            ground_sums=tuple(int(s) for s in fields["ground_sums"].split(",") if s),
            ground_degeneracy=int(fields["ground_degeneracy"]),
            second_energy=(Fraction(fields["second_energy"])
                           if "second_energy" in fields else None),
            verdict=fields["verdict"],
        )
    except KeyError as exc:
        raise Mismatch(f"verify output lacks {exc.args[0]!r}") from None


def check_verify(stdout: str, expected: Spectrum) -> None:
    got = parse_verify_output(stdout)
    if got != expected:
        for field in ("verdict", "by_sum", "ground_energy", "ground_sums",
                      "ground_degeneracy", "second_energy"):
            if getattr(got, field) != getattr(expected, field):
                raise Mismatch(f"verify {field}: got {getattr(got, field)}, "
                               f"reference {getattr(expected, field)}")


# --------------------------------------------------------------------------
# sweep


def sum_law(n: int, r: Fraction, lam: Fraction, temperature: float) -> list[float]:
    """Closed-form Boltzmann probability of each problem-bit sum 0..n."""
    logs = [math.log(math.comb(n, s)) - float(lam * (s - r) ** 2) / temperature
            for s in range(n + 1)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    total = sum(weights)
    return [w / total for w in weights]


def sweep_grid(r_from: Fraction, r_to: Fraction, steps: int) -> list[Fraction]:
    return [r_from + (r_to - r_from) * i / (steps - 1) for i in range(steps)]


def check_sweep_csv(text: str, n: int, r_from: Fraction, r_to: Fraction, steps: int,
                    temperature: float, reads: int, lam: Fraction = Fraction(1)) -> None:
    lines = text.splitlines()
    header = ",".join(["R", *(f"P{s}" for s in range(n + 1)), "p_norm"])
    if len(lines) != steps + 2 or lines[0] != header:
        raise Mismatch(f"sweep CSV has {len(lines)} lines or a wrong header")
    lower, upper = math.floor(r_from), math.ceil(r_to)
    midpoint = Fraction(lower + upper, 2)
    deviations = []
    for r, line in zip(sweep_grid(r_from, r_to, steps), lines[1:-1]):
        cells = line.split(",")
        if cells[0] != f"{float(r):.6g}":
            raise Mismatch(f"sweep grid point {cells[0]}, expected {float(r):.6g}")
        measured = [float(c) for c in cells[1:-1]]
        for s, (got, p) in enumerate(zip(measured, sum_law(n, r, lam, temperature))):
            tol = (SWEEP_Z * math.sqrt(reads * p * (1 - p)) + SWEEP_Z ** 2 / 3) / reads
            if abs(got - p) > tol + 1e-6:
                raise Mismatch(f"sweep P{s} at R={r}: {got} vs closed form {p:.6g}")
        transfer = measured[upper] / (measured[lower] + measured[upper])
        if abs(float(cells[-1]) - transfer) > 1e-5:
            raise Mismatch(f"sweep p_norm at R={r}: {cells[-1]} vs {transfer:.6g}")
        ideal = 0.5 if r == midpoint else float(r > midpoint)
        deviations.append(abs(transfer - ideal))
    key, _, value = lines[-1].partition("=")
    distance = sum(deviations) / len(deviations)
    if key != "step_distance" or abs(float(value) - distance) > 1e-4:
        raise Mismatch(f"sweep summary {lines[-1]!r}, recomputed {distance:.6g}")


# --------------------------------------------------------------------------
# encode

KINDS = {
    "single": "single_value",
    "onehot": "one_hot_general",
    "linear": "equispaced_linear",
    "log": "equispaced_log",
    "half2": "half_integer_m2",
    "halfchain": "half_integer_chain",
    "reduced": "reduced_general",
}
HALF = Fraction(1, 2)


def spacing(allowed: tuple[int, ...]) -> Optional[int]:
    gaps = {b - a for a, b in zip(allowed, allowed[1:])}
    return gaps.pop() if len(gaps) == 1 else None


def log_dummy_count(m: int) -> int:
    gamma = m.bit_length() - 1
    return gamma if 1 << gamma == m else gamma + 1


def auto_method(allowed: tuple[int, ...]) -> str:
    """The construction the fewest-dummy selector must pick."""
    m, gap = len(allowed), spacing(allowed)
    if m == 1:
        return "single"
    if gap == 1 and m == 2:
        return "half2"
    if gap == 1 and m == 3:
        return "halfchain"
    return "log" if gap is not None else "reduced"


@dataclass
class Encoding:
    """A construction as the sum of squared affine forms over one variable space.

    Variables fall into classes that share every weight: class 0 holds the n
    problem bits, class 1 + k holds dummy k alone.
    """

    kind: str
    n: int
    n_dummies: int
    lambda1: Fraction
    lambda2: Optional[Fraction]
    residual: Fraction
    # (weight of each class, constant, multiplier) per form
    forms: list[tuple[list[Fraction], Fraction, Fraction]]

    @property
    def n_total(self) -> int:
        return self.n + self.n_dummies

    def _cls(self, index: int) -> int:
        return 0 if index < self.n else 1 + index - self.n

    def _class_table(self) -> tuple[list[Fraction], dict[tuple[int, int], Fraction]]:
        size = 1 + self.n_dummies
        diag = [sum((lam * w[c] * (w[c] + 2 * const) for w, const, lam in self.forms),
                    Fraction(0)) for c in range(size)]
        pair = {(a, b): sum((2 * lam * w[a] * w[b] for w, _, lam in self.forms), Fraction(0))
                for a in range(size) for b in range(a, size)}
        return diag, pair

    @property
    def offset(self) -> Fraction:
        return sum((lam * const * const for _, const, lam in self.forms), Fraction(0))

    def term_count(self) -> int:
        diag, pair = self._class_table()
        count = self.n * (diag[0] != 0) + (self.n * (self.n - 1) // 2) * (pair[0, 0] != 0)
        for c in range(1, 1 + self.n_dummies):
            count += (diag[c] != 0) + self.n * (pair[0, c] != 0)
            count += sum(pair[c, e] != 0 for e in range(c + 1, 1 + self.n_dummies))
        return count

    def header(self) -> dict[str, str]:
        fields = {
            "kind": self.kind,
            "n_total": str(self.n_total),
            "n_problem": str(self.n),
            "n_dummies": str(self.n_dummies),
            "lambda1": str(self.lambda1),
            "residual_energy": str(self.residual),
            "offset": str(self.offset),
        }
        if self.lambda2 is not None:
            fields["lambda2"] = str(self.lambda2)
        return fields

    def check_terms(self, terms) -> int:
        """Compare (i, j, coefficient string) triples with the closed form."""
        diag, pair = self._class_table()
        diag_text = [str(v) for v in diag]
        pair_text = {key: str(v) for key, v in pair.items()}
        previous = (-1, -1)
        count = 0
        for i, j, q in terms:
            if not previous < (i, j) or not 0 <= i <= j < self.n_total:
                raise Mismatch(f"term ({i}, {j}) out of order or out of range")
            previous = (i, j)
            expected = diag_text[self._cls(i)] if i == j else pair_text[
                self._cls(i), self._cls(j)]
            if q != expected:
                raise Mismatch(f"Q[{i},{j}] = {q}, closed form gives {expected}")
            count += 1
        if count != self.term_count():
            raise Mismatch(f"{count} terms, closed form has {self.term_count()} nonzero")
        return count


def expected_encoding(method: str, n: int, allowed: tuple[int, ...],
                      lambda1: Fraction, lambda2: Fraction) -> Encoding:
    """Re-derive a construction from its definition (see the module docstring)."""
    allowed = tuple(sorted(allowed))
    if method == "auto":
        method = auto_method(allowed)
    m, gap, low, one = len(allowed), spacing(allowed), allowed[0], Fraction(1)

    def target(dummy_weights, const, residual=Fraction(0), selector=None):
        weights = [one, *(Fraction(w) for w in dummy_weights)]
        forms = [(weights, Fraction(const), lambda1)]
        if selector is not None:
            forms.append(([Fraction(0)] + [one] * len(dummy_weights), -selector, lambda2))
        return Encoding(KINDS[method], n, len(dummy_weights), lambda1,
                        None if selector is None else lambda2, residual, forms)

    if method == "single":
        return target([], -low)
    if method == "onehot":
        return target([-r for r in allowed], 0, selector=one)
    if method == "linear":
        return target([gap or 0] * (m - 1), -allowed[-1])
    if method == "log":
        gamma = m.bit_length() - 1
        weights = [gap << t for t in range(gamma)]
        if m > 1 << gamma:
            weights.append(gap * (m - (1 << gamma)))
        return target([-w for w in weights], -low)
    if method in ("half2", "halfchain"):
        return target([-1] * (m - 2), -(low + HALF), residual=lambda1 / 4)
    if method == "reduced":
        return target([low - r for r in allowed[1:]], -low,
                      residual=lambda2 / 4, selector=HALF)
    raise ValueError(f"unknown method {method!r}")


def check_penalty_file(text: str, encoding: Encoding) -> int:
    """Check a written penalty file (either format) field by field; returns its term count."""
    header, terms = _fields(text)
    if header != encoding.header():
        raise Mismatch(f"header {header} differs from the closed form {encoding.header()}")
    return encoding.check_terms(terms)
