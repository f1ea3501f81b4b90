"""Seeded inputs, set-up and output checks of the three benchmark workloads.

Every workload is a closed loop with one client: the generator process
spawns one CLI command, waits for it, checks its output and only then
spawns the next.  Inputs come from ``random.Random("<workload>:<seed>")``
alone, so a seed fixes them.  The mix of inputs is fixed rather than drawn
(the classes of the certify pool; the size schedule and method order of
encode_large), so every seed sees the same proportions; otherwise the median
of a short run would follow the luck of the draw.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Optional

from quborestrict import qubofile

import reference as ref
from reference import Mismatch


@dataclass(frozen=True)
class Sizes:
    certify_bits: int
    object_bits: int
    sweep_n: int
    sweep_reads: int
    encode_n: tuple[int, int]
    repeat_setup: bool  # set up several times and report the median


SIZES = {
    # The sizes the workloads are defined at.
    "full": Sizes(certify_bits=20, object_bits=16, sweep_n=16, sweep_reads=10_000,
                  encode_n=(150, 400), repeat_setup=True),
    # Seconds-long runs for the harness smoke test.
    "tiny": Sizes(certify_bits=12, object_bits=10, sweep_n=8, sweep_reads=2_000,
                  encode_n=(20, 40), repeat_setup=False),
}

# A quarter of the certify files are untrusted: one is tampered without
# touching the problem bits ("symmetric": the offset or a dummy term moves),
# one has a problem-problem coupling lowered ("broken").  One valid file uses
# multipliers >= 10**18, which forces the oracle's object-dtype path.
CERTIFY_POOL = ("plain",) * 5 + ("object", "symmetric", "broken")
CONSTRUCTIONS = ("single", "onehot", "linear", "log", "half2", "halfchain", "reduced")
METHODS = ("auto", *CONSTRUCTIONS)
MAX_CERTIFY_DUMMIES = 4
MAX_ENCODE_M = 6
LAMBDAS = (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(1, 2))
HUGE_LAMBDA = 10**18
SWEEP_STEPS = 11
SWEEP_TEMPERATURES = (0.05, 0.2)
# Spacing of the low-discrepancy sequence of encode sizes.
GOLDEN = (math.sqrt(5) - 1) / 2
# More commands than any run can complete; generating them is cheap.
PREPARED_COMMANDS = 400


@dataclass
class Outcome:
    """What one CLI command returned, however it was run."""

    code: int
    stdout: str
    stderr: str
    seconds: float
    rss_mb: float = 0.0


@dataclass
class Command:
    argv: list[str]
    states: int  # sum of 2**n_total over the models the command certifies or samples
    terms: int  # QUBO terms in the models the command reads, builds or writes
    check: Callable[[Outcome], None]  # raises Mismatch


Runner = Callable[[list[str]], Outcome]


def check(command: Command, outcome: Outcome, failures: list[str]) -> None:
    """Check one command's output, recording any disagreement as a failure."""
    try:
        command.check(outcome)
    except Exception as exc:  # output of any shape can be wrong; each is one failure
        failures.append(f"{command.argv[0]}: {type(exc).__name__}: {exc}")


def _dummies(method: str, m: int) -> int:
    return {
        "single": 0,
        "half2": 0,
        "halfchain": m - 2,
        "linear": m - 1,
        "log": ref.log_dummy_count(m),
        "onehot": m,
        "reduced": m - 1,
    }[method]


_M_RANGE = {
    "single": (1, 1), "half2": (2, 2), "halfchain": (2, 6), "linear": (1, 16),
    "log": (2, 16), "onehot": (1, 16), "reduced": (2, 16),
}
_SHAPE = {
    "single": "any", "half2": "consecutive", "halfchain": "consecutive",
    "linear": "equispaced", "log": "equispaced", "onehot": "any", "reduced": "any",
}


def _allowed(rng: random.Random, shape: str, m: int, n: int) -> tuple[int, ...]:
    if shape == "consecutive":
        low = rng.randint(0, n - m + 1)
        return tuple(range(low, low + m))
    if shape == "equispaced" and m > 1:
        gap = rng.randint(1, n // (m - 1))
        low = rng.randint(0, n - gap * (m - 1))
        return tuple(low + gap * k for k in range(m))
    return tuple(sorted(rng.sample(range(n + 1), m)))


def _spec(rng: random.Random, method: str, *, n_total: Optional[int] = None,
          n: Optional[int] = None, max_m: int = 16) -> tuple[int, tuple[int, ...]]:
    """A restriction the method applies to: either n_total or n is fixed."""
    if method == "auto":
        method = rng.choice(CONSTRUCTIONS)
    lo, hi = _M_RANGE[method]

    def problem_bits(m: int) -> int:
        return n if n is not None else n_total - _dummies(method, m)

    choices = [m for m in range(lo, min(hi, max_m) + 1)
               if (n_total is None or _dummies(method, m) <= MAX_CERTIFY_DUMMIES)
               and m <= problem_bits(m)]
    m = rng.choice(choices)
    return problem_bits(m), _allowed(rng, _SHAPE[method], m, problem_bits(m))


def _encode_argv(n, allowed, method, lambda1, lambda2, fmt, out) -> list[str]:
    return ["encode", "--n", str(n), "--allowed", ",".join(map(str, allowed)),
            "--method", method, "--lambda", str(lambda1), "--lambda2", str(lambda2),
            "--format", fmt, "--out", str(out)]


def _retouch(text: str, key, value: Fraction) -> str:
    """Set the offset or one coefficient of a penalty file, keeping it well-formed."""
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        if key == "offset":
            payload["offset"] = str(value)
        else:
            entry = next(e for e in payload["terms"] if (e[0], e[1]) == key)
            entry[2] = str(value)
        return json.dumps(payload, indent=2) + "\n"
    prefix = "offset " if key == "offset" else f"{key[0]} {key[1]} "
    lines = text.splitlines()
    hits = [k for k, line in enumerate(lines) if line.startswith(prefix)]
    if len(hits) != 1:
        raise Mismatch(f"cannot tamper {key}: {len(hits)} matching lines")
    lines[hits[0]] = prefix + str(value)
    return "\n".join(lines) + "\n"


def _tamper(rng: random.Random, cls: str, text: str, n: int,
            lambda1: Fraction) -> tuple[str, Optional[str], Optional[str]]:
    """Tamper a penalty file as its class says; returns the text, what changed
    and the verdict known in advance (None: the reference decides)."""
    if cls == "symmetric":
        penalty = ref.read_penalty(text)
        dummy_diagonals = [(k, k) for k in range(n, penalty.n_total) if (k, k) in penalty.coeffs]
        if dummy_diagonals and rng.random() < 0.5:
            key = rng.choice(dummy_diagonals)
            old = penalty.coeffs[key]
            new = old + lambda1 if old + lambda1 != 0 else old + 2 * lambda1
            return _retouch(text, key, new), f"dummy diagonal {key}", None
        return _retouch(text, "offset", penalty.offset + lambda1 / 2), "offset", "FAIL"
    if cls == "broken":
        i, j = sorted(rng.sample(range(n), 2))
        # Every construction couples two problem bits by 2*lambda1.  Lowering
        # one coupling puts an intended ground state with both bits set (some
        # allowed sum is >= 2) below the declared residual.
        return (_retouch(text, (i, j), 2 * lambda1 - lambda1 / 2),
                f"coupling ({i}, {j}) lowered", "FAIL")
    return text, None, "PASS"


class Certify:
    """``verify`` on penalty files made by ``encode`` during set-up, a quarter tampered."""

    name = "certify"
    setup_reps = 3  # each set-up spawns nine CLI commands

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir
        self.instances: list[dict] = []
        self._pool: list[Command] = []
        self._first_rep: Optional[dict[str, bytes]] = None

    def setup(self, run: Runner, rep: int) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        classes = list(CERTIFY_POOL)
        rng.shuffle(classes)
        constructions = list(CONSTRUCTIONS)
        rng.shuffle(constructions)
        folder = self.workdir / f"setup{rep}"
        folder.mkdir(parents=True, exist_ok=True)
        self.instances, self._pool = [], []
        written = {}
        for index, cls in enumerate(classes):
            method = constructions[index % len(constructions)]
            bits = self.sizes.object_bits if cls == "object" else self.sizes.certify_bits
            while True:
                n, allowed = _spec(rng, method, n_total=bits)
                if cls != "broken" or allowed[-1] >= 2:
                    break
            if cls == "object":
                lambda1 = Fraction(HUGE_LAMBDA + rng.randrange(1000))
                lambda2 = Fraction(HUGE_LAMBDA + rng.randrange(1000))
            else:
                lambda1, lambda2 = rng.choice(LAMBDAS), rng.choice(LAMBDAS)
            fmt = ("text", "json")[index % 2]
            path = folder / f"penalty{index}.{fmt}"
            outcome = run(_encode_argv(n, allowed, method, lambda1, lambda2, fmt, path))
            if outcome.code != 0:
                raise Mismatch(f"set-up encode exited {outcome.code}: {outcome.stderr.strip()}")
            text = path.read_text()
            encoding = ref.expected_encoding(method, n, allowed, lambda1, lambda2)
            ref.check_penalty_file(text, encoding)

            text, tamper, known = _tamper(rng, cls, text, n, lambda1)
            path.write_text(text)
            written[path.name] = text.encode()

            penalty = ref.read_penalty(text)
            expected = ref.symmetric_spectrum(penalty, allowed)
            if (expected is None) != (cls == "broken"):
                raise Mismatch(f"{path.name}: problem-bit symmetry does not match class {cls}")
            verdict = expected.verdict if expected is not None else known
            if known is not None and verdict != known:
                raise Mismatch(f"{path.name}: reference verdict {verdict}, planned {known}")
            dtype = ref.dtype_path(penalty)
            if (dtype == "object") != (cls == "object"):
                raise Mismatch(f"{path.name}: dtype path {dtype} for class {cls}")
            self.instances.append({
                "file": path.name, "class": cls, "construction": method, "format": fmt,
                "n_total": penalty.n_total, "n_dummies": penalty.n_total - n,
                "tamper": tamper, "verdict": verdict, "dtype": dtype,
                "array_bytes_computed": ref.array_bytes(penalty.n_total),
            })
            self._pool.append(Command(
                argv=["verify", "--qubo", str(path), "--n", str(n),
                      "--allowed", ",".join(map(str, allowed))],
                states=1 << penalty.n_total,
                terms=len(penalty.coeffs),
                check=self._checker(verdict, expected),
            ))
        if self._first_rep is None:
            self._first_rep = written
        elif written != self._first_rep:
            raise Mismatch("set-up repetitions wrote different penalty files")

    @staticmethod
    def _checker(verdict: str, expected: Optional[ref.Spectrum]) -> Callable[[Outcome], None]:
        def check(outcome: Outcome) -> None:
            if outcome.code != (0 if verdict == "PASS" else 1):
                raise Mismatch(f"verify exited {outcome.code}, expected verdict {verdict}")
            if expected is not None:
                ref.check_verify(outcome.stdout, expected)
            elif f"verdict: {verdict}" not in outcome.stdout.splitlines():
                raise Mismatch(f"verify did not print verdict {verdict}")
        return check

    def commands(self) -> Iterator[Command]:
        return itertools.cycle(self._pool)

    def record(self) -> dict:
        total = len(self.instances)

        def share(test) -> float:
            return sum(map(test, self.instances)) / total

        return {
            "instances": self.instances,
            "working_set_bytes_computed": max(i["array_bytes_computed"] for i in self.instances),
            "shares": {
                "symmetric": share(lambda i: i["class"] != "broken"),
                "symmetry_broken": share(lambda i: i["class"] == "broken"),
                "object_dtype": share(lambda i: i["dtype"] == "object"),
            },
        }


class Sweep:
    """``sweep`` of a fractional target across [k, k+1] at N = 16, 11 steps, 10,000 reads."""

    name = "sweep"
    setup_reps = 5  # a set-up is one short CLI command, so its median needs more of them

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir
        self._commands: list[Command] = []

    def setup(self, run: Runner, rep: int) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        n, reads = self.sizes.sweep_n, self.sizes.sweep_reads
        self._commands = []
        for _ in range(PREPARED_COMMANDS):
            low = rng.randrange(n)
            temperature = rng.choice(SWEEP_TEMPERATURES)
            grid = ref.sweep_grid(Fraction(low), Fraction(low + 1), SWEEP_STEPS)
            self._commands.append(Command(
                argv=["sweep", "--n", str(n), "--r-from", str(low), "--r-to", str(low + 1),
                      "--steps", str(SWEEP_STEPS), "--temperature", str(temperature),
                      "--reads", str(reads), "--seed", str(rng.randrange(2**31))],
                states=SWEEP_STEPS << n,
                # lam * (sum(x) - R)**2 has every pair and, unless R = 1/2, every diagonal.
                terms=sum(n * (n - 1) // 2 + n * (r != Fraction(1, 2)) for r in grid),
                check=self._checker(n, low, temperature, reads),
            ))

    @staticmethod
    def _checker(n, low, temperature, reads) -> Callable[[Outcome], None]:
        def check(outcome: Outcome) -> None:
            if outcome.code != 0:
                raise Mismatch(f"sweep exited {outcome.code}: {outcome.stderr.strip()}")
            ref.check_sweep_csv(outcome.stdout, n, Fraction(low), Fraction(low + 1),
                                SWEEP_STEPS, temperature, reads)
        return check

    def commands(self) -> Iterator[Command]:
        return iter(self._commands)

    def record(self) -> dict:
        return {
            "working_set_bytes_computed": ref.array_bytes(self.sizes.sweep_n),
            "excluded": "multi-integer ranges (they always exit 2 at this commit)",
        }


class EncodeLarge:
    """``encode`` at N from 150..400, each spec written in both formats."""

    name = "encode_large"
    setup_reps = 5

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir
        self._commands: list[Command] = []

    def setup(self, run: Runner, rep: int) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        lo, hi = self.sizes.encode_n
        jitter = (hi - lo) // 32
        self._commands = []
        for k in range(PREPARED_COMMANDS // 2):
            # Command time grows with N and differs by method up to 2.5x, so a
            # run of about a dozen specs has a steady median only if every run
            # pairs sizes and methods alike: the size follows a fixed
            # low-discrepancy schedule, jittered by the seed, and the methods
            # rotate in a fixed order.  The seed draws everything else.
            stratum = lo + jitter + int((hi - lo - 2 * jitter) * ((k * GOLDEN) % 1.0))
            n = stratum + rng.randint(-jitter, jitter)
            method = METHODS[k % len(METHODS)]
            _, allowed = _spec(rng, method, n=n, max_m=MAX_ENCODE_M)
            lambda1, lambda2 = rng.choice(LAMBDAS), rng.choice(LAMBDAS)
            encoding = ref.expected_encoding(method, n, allowed, lambda1, lambda2)
            terms = encoding.term_count()
            for fmt in ("text", "json"):
                out = self.workdir / f"encode{k}.{fmt}"
                self._commands.append(Command(
                    argv=_encode_argv(n, allowed, method, lambda1, lambda2, fmt, out),
                    states=0,
                    terms=terms,
                    check=self._checker(encoding, fmt, out),
                ))

    @staticmethod
    def _checker(encoding: ref.Encoding, fmt: str, out: Path) -> Callable[[Outcome], None]:
        def check(outcome: Outcome) -> None:
            try:
                if outcome.code != 0:
                    raise Mismatch(f"encode exited {outcome.code}: {outcome.stderr.strip()}")
                if f"kind: {encoding.kind}" not in outcome.stdout.splitlines():
                    raise Mismatch(f"encode did not report kind {encoding.kind}")
                text = out.read_text()
                ref.check_penalty_file(text, encoding)
                reread = qubofile.load(out)
                again = qubofile.dumps(reread) if fmt == "text" else qubofile.dumps_json(reread)
                if again != text:
                    raise Mismatch(f"{out.name}: reading back and writing again changed the bytes")
            finally:
                out.unlink(missing_ok=True)
        return check

    def commands(self) -> Iterator[Command]:
        return iter(self._commands)

    def record(self) -> dict:
        return {"working_set_bytes_computed": 0}  # construction and writing use no arrays


WORKLOADS = {cls.name: cls for cls in (Certify, Sweep, EncodeLarge)}
