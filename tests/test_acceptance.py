"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is deterministic (fixed seeds everywhere).
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from fractions import Fraction as F
from pathlib import Path

import pytest

from quborestrict.cli import main
from quborestrict.core import EncodingKind, RestrictionSpec
from quborestrict.encoders import applicable_encoders, select_optimal
from quborestrict.oracle import enumerate_spectrum, fractional_energy_ladder, verify
from quborestrict.qubofile import dumps, loads
from quborestrict.sampler import (
    StrayMassWarning,
    TransferCurve,
    exact_transfer_curve,
    step_distance,
    sweep_fractional_r,
)

GOLDEN_TABLE = Path(__file__).parent / "data" / "table_m7_golden.txt"

GRID_SEED = 987654321
GRID_SIZE = 210


def report(number: int, name: str, problems: list[str]) -> None:
    status = "FAIL" if problems else "PASS"
    print(f"ACCEPTANCE {number} {name}: {status}")
    assert not problems, f"criterion {number}: " + "; ".join(problems)


@pytest.fixture(scope="module")
def grid_encodings():
    """Seeded grid of distinct specs (N <= 10, M <= 6) with every applicable encoding."""
    rng = random.Random(GRID_SEED)
    seen = set()
    pairs = []
    while len(seen) < GRID_SIZE:
        n = rng.randint(1, 10)
        m = rng.randint(1, min(6, n + 1))
        allowed = tuple(sorted(rng.sample(range(n + 1), m)))
        if (n, allowed) in seen:
            continue
        seen.add((n, allowed))
        spec = RestrictionSpec(n, allowed)
        for encoder in applicable_encoders(spec).values():
            pairs.append((spec, encoder(spec)))
    return pairs


def test_criterion_1_dummy_count_table(capsys):
    problems = []
    exit_code = main(["table", "--max-m", "7"])
    out = capsys.readouterr().out
    if exit_code != 0:
        problems.append(f"table command exited {exit_code}")
    if out != GOLDEN_TABLE.read_text():
        problems.append("table output differs from the golden file")
    rows = [line.split() for line in out.splitlines()]
    if [int(v) for v in rows[1][2:]] != [0, 1, 2, 3, 4, 5]:
        problems.append(f"chain counts wrong: {rows[1]}")
    if [int(v) for v in rows[2][2:]] != [1, 2, 2, 3, 3, 3]:
        problems.append(f"log counts wrong: {rows[2]}")
    with capsys.disabled():
        report(1, "dummy-count table M=2..7", problems)


DISPATCH_SUITE = [
    (4, (2,), EncodingKind.SINGLE_VALUE, 0),
    (5, (0,), EncodingKind.SINGLE_VALUE, 0),
    (5, (1, 2), EncodingKind.HALF_INTEGER_M2, 0),
    (3, (0, 1), EncodingKind.HALF_INTEGER_M2, 0),
    (5, (1, 2, 3), EncodingKind.HALF_INTEGER_CHAIN, 1),
    (4, (0, 1, 2), EncodingKind.HALF_INTEGER_CHAIN, 1),
    (6, (0, 2, 4), EncodingKind.EQUISPACED_LOG, 2),        # M=3, floor(log2)+1
    (6, (0, 1, 2, 3, 4), EncodingKind.EQUISPACED_LOG, 3),  # M=5, floor(log2)+1
    (7, (1, 3, 5, 7), EncodingKind.EQUISPACED_LOG, 2),     # M=4, power of two
    (8, (1, 2, 3, 4, 5, 6, 7, 8), EncodingKind.EQUISPACED_LOG, 3),  # M=8
    (9, (2, 5, 9), EncodingKind.REDUCED_GENERAL, 2),
    (8, (0, 1, 3, 7), EncodingKind.REDUCED_GENERAL, 3),
]


def test_criterion_2_selector_dispatch(capsys):
    problems = []
    for n, allowed, kind, dummies in DISPATCH_SUITE:
        encoded = select_optimal(RestrictionSpec(n, allowed))
        if encoded.kind is not kind or encoded.n_dummies != dummies:
            problems.append(
                f"spec ({n}, {allowed}): got ({encoded.kind.value}, {encoded.n_dummies}), "
                f"want ({kind.value}, {dummies})")
    with capsys.disabled():
        report(2, "selector dispatch on 12 fixed specs", problems)


def test_criterion_3_fractional_energy_ladder(capsys):
    problems = []
    ladder = fractional_energy_ladder(10, F("6.4"), 1)
    expected = [(6, F(16, 100)), (7, F(36, 100)), (5, F(196, 100))]
    if ladder[:3] != expected:
        problems.append(f"ladder head {ladder[:3]} != {expected}")
    with capsys.disabled():
        report(3, "fractional target energy ladder", problems)


def test_criterion_4_master_ground_set_property(capsys, grid_encodings):
    problems = []
    specs = {spec for spec, _ in grid_encodings}
    if len(specs) < 200:
        problems.append(f"grid holds only {len(specs)} specs")
    for spec, encoded in grid_encodings:
        result = verify(encoded, spec)
        if not result.passed:
            problems.append(f"{spec} / {encoded.kind.value}: {result.diagnosis}")
    with capsys.disabled():
        report(4, f"ground sets on {len(specs)} seeded specs", problems)


def equispaced_specs():
    specs = []
    for n in range(2, 11):
        for delta in (1, 2, 3):
            for m in range(2, 7):
                reach = delta * (m - 1)
                if reach > n:
                    continue
                for first in {0, n - reach}:
                    specs.append(RestrictionSpec(n, tuple(first + delta * k for k in range(m))))
    return sorted(set(specs), key=lambda s: (s.n_vars, s.allowed))


def test_criterion_5_encoding_equivalence(capsys):
    problems = []
    specs = equispaced_specs()
    if len(specs) < 50:
        problems.append(f"only {len(specs)} equispaced specs generated")
    for spec in specs:
        kinds = [
            EncodingKind.EQUISPACED_LINEAR,
            EncodingKind.EQUISPACED_LOG,
            EncodingKind.ONE_HOT_GENERAL,
        ]
        if spec.is_consecutive:
            kinds.append(EncodingKind.HALF_INTEGER_CHAIN)
        encoders = applicable_encoders(spec)
        ground_sets = {
            kind: enumerate_spectrum(encoders[kind](spec), spec).ground_sums
            for kind in kinds
        }
        if set(ground_sets.values()) != {frozenset(spec.allowed)}:
            problems.append(f"{spec}: ground sets diverge: {ground_sets}")
    with capsys.disabled():
        report(5, f"equispaced encodings agree on {len(specs)} specs", problems)


def test_criterion_6_transfer_curve_sweep(capsys):
    problems = []
    n_reads = 10_000
    sampled = sweep_fractional_r(5, 1, 2, 11, 1, temperature=0.05, n_reads=n_reads, seed=7)
    exact = exact_transfer_curve(5, 1, 2, 11, 1, temperature=0.05)

    if sampled.distributions[0][1] < 0.99:
        problems.append(f"P(s=1)={sampled.distributions[0][1]} < 0.99 at R=1")
    if sampled.distributions[-1][2] < 0.99:
        problems.append(f"P(s=2)={sampled.distributions[-1][2]} < 0.99 at R=2")

    exact_p2 = [dist[2] for dist in exact.distributions]
    if any(b < a for a, b in zip(exact_p2, exact_p2[1:])):
        problems.append(f"exact P(s=2) not monotone: {exact_p2}")
    for r, p_exact, dist in zip(sampled.r_grid, exact_p2, sampled.distributions):
        sigma = math.sqrt(p_exact * (1 - p_exact) / n_reads)
        if abs(dist[2] - p_exact) > 3 * sigma:
            problems.append(
                f"sampled P(s=2)={dist[2]} departs {p_exact} by more than "
                f"3 sigma at R={r}")

    for r, dist in zip(sampled.r_grid, sampled.distributions):
        stray = 1.0 - dist[1] - dist[2]
        if stray > 0.01:
            problems.append(f"stray mass {stray} > 1% at R={r}")
    with capsys.disabled():
        report(6, "five-variable transfer sweep, target 1 to 2", problems)


def test_criterion_7_benchmark_metric_sanity(capsys):
    problems = []
    grid = tuple(F(10 + k, 10) for k in range(11))
    ideal = []
    for r in grid:
        if r < F(3, 2):
            ideal.append((0.0, 1.0, 0.0, 0.0, 0.0, 0.0))
        elif r == F(3, 2):
            ideal.append((0.0, 0.5, 0.5, 0.0, 0.0, 0.0))
        else:
            ideal.append((0.0, 0.0, 1.0, 0.0, 0.0, 0.0))
    ideal_curve = TransferCurve(5, grid, tuple(ideal), 0.0)
    d_ideal = step_distance(ideal_curve, 1, 2)
    if d_ideal != 0.0:
        problems.append(f"ideal step scores {d_ideal} instead of 0")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StrayMassWarning)
        d_cold = exact_transfer_curve(5, 1, 2, 11, 1, temperature=0.001).step_distance
        d_hot = exact_transfer_curve(5, 1, 2, 11, 1, temperature=0.5).step_distance
    if not d_hot > d_cold:
        problems.append(f"distance at T=0.5 ({d_hot}) not above T=0.001 ({d_cold})")
    with capsys.disabled():
        report(7, "step-distance benchmark sanity", problems)


def test_criterion_8_round_trip(capsys, grid_encodings):
    problems = []
    for spec, encoded in grid_encodings:
        text = dumps(encoded)
        reparsed = loads(text)
        if reparsed != encoded:
            problems.append(f"{spec} / {encoded.kind.value}: parse is not inverse")
        elif dumps(reparsed) != text:
            problems.append(f"{spec} / {encoded.kind.value}: second serialization differs")
    with capsys.disabled():
        report(8, f"serialization round-trip on {len(grid_encodings)} encodings", problems)
