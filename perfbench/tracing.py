"""In-process traced run: where a workload's command time goes, layer by layer.

Each public function of a layer is wrapped at the module attribute where its
callers look it up at call time, so the package itself is unchanged:

* ``expand_squared_affine`` in ``encoders`` and ``sampler`` (they import it
  by name) and ``encoders.combine``.  ``cli._METHODS`` binds the encoder
  functions at import, so construction is timed here and not at ``encode_*``;
* ``oracle.assignment_energies``, ``oracle.problem_bit_sums`` and
  ``oracle.enumerate_spectrum``, which ``oracle.verify`` and ``sampler``
  resolve through the module;
* ``sampler.boltzmann_probabilities`` and ``sampler.sweep_fractional_r``;
* ``qubofile.dumps``, ``qubofile.dumps_json`` and ``qubofile.load``;
* ``cli.cmd_*``, which ``cli.main`` binds when it builds its parser.

A span records its name, start, end, parent span and command id.  Spans stay
in memory until the run ends.  A span's self time is its duration minus the
durations of its children (one thread, so children never overlap).
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import time
from collections import defaultdict
from typing import Callable, Iterator, Optional

from quborestrict import cli, encoders, oracle, qubofile, sampler

import reference as ref
from workloads import Command, Outcome, Runner, check

STARTUP_ARGV = ["table", "--max-m", "7"]
STARTUP_RUNS = 3

# name, unit: the per-layer metrics, in the order they are printed.  Times
# and counts are per traced command; see layer_metrics for the exceptions.
PER_LAYER = {
    "core.expand_s": "s",
    "core.combine_s": "s",
    "core.terms": "count",
    "oracle.energies_s": "s",
    "oracle.object_energies_s": "s",
    "oracle.object_calls": "count",
    "oracle.sums_s": "s",
    "oracle.reduce_s": "s",
    "oracle.states": "count",
    "oracle.array_bytes": "bytes",
    "sampler.weights_s": "s",
    "sampler.draw_s": "s",
    "sampler.points": "count",
    "qubofile.dumps_s": "s",
    "qubofile.load_s": "s",
    "qubofile.bytes": "bytes",
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "trace.command_s": "s",
    "trace.overhead_s": "s",
    "trace.commands": "count",
    "cover.oracle": "ratio",
    "cover.core_qubofile": "ratio",
}


# layer -> the cover ratio its spans count towards
COVER = {"oracle": "cover.oracle", "core": "cover.core_qubofile", "qubofile": "cover.core_qubofile"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.command: Optional[int] = None
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None, "cmd": self.command}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        opened = self.open(name)
        try:
            yield opened
        finally:
            self.close(opened)


def _terms(args, result) -> dict:
    return {"terms": len(result.coeffs)}


def _energies(args, result) -> dict:
    n_total = args[0].n_total
    return {"states": 1 << n_total, "object": bool(result[0].dtype == object),
            "bytes": ref.array_bytes(n_total)}


def _written(args, result) -> dict:
    return {"bytes": len(result)}


def _read(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# module, attribute, span name, annotation taken from the arguments and result
TARGETS = [
    (encoders, "expand_squared_affine", "core.expand", _terms),
    (sampler, "expand_squared_affine", "core.expand", _terms),
    (encoders, "combine", "core.combine", _terms),
    (oracle, "assignment_energies", "oracle.energies", _energies),
    (oracle, "problem_bit_sums", "oracle.sums", None),
    (oracle, "enumerate_spectrum", "oracle.enumerate", None),
    (sampler, "boltzmann_probabilities", "sampler.weights", None),
    (sampler, "sweep_fractional_r", "sampler.sweep", None),
    (qubofile, "dumps", "qubofile.dumps", _written),
    (qubofile, "dumps_json", "qubofile.dumps", _written),
    (qubofile, "load", "qubofile.load", _read),
    *((cli, name, "cli.cmd", None)
      for name in ("cmd_encode", "cmd_verify", "cmd_sweep", "cmd_table")),
]


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TARGETS]

    def wrap(original: Callable, name: str, annotate) -> Callable:
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if annotate is not None:
                span.update(annotate(args, result))
            return result
        return traced

    for (module, attr, name, annotate), (_, _, original) in zip(TARGETS, originals):
        setattr(module, attr, wrap(original, name, annotate))
    try:
        yield
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)


def run_in_process(argv: list[str], tracer: Optional[Tracer] = None) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        root = tracer.open("cli.main") if tracer is not None else None
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - start
        if root is not None:
            tracer.close(root)
    return Outcome(code, out.getvalue(), err.getvalue(), seconds)


def layer_metrics(spans: list[dict], commands: int) -> dict[str, float]:
    """Per-layer totals over the traced pass, divided by the commands traced.

    ``oracle.array_bytes`` is the largest single call; the ``cover.*`` ratios
    are the share of traced command time spent inside that layer.
    """
    children = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]

    def root_of(index: int) -> str:
        while spans[index]["parent"] is not None:
            index = spans[index]["parent"]
        return spans[index]["name"]

    total = defaultdict(float)
    array_bytes = 0
    for index, span in enumerate(spans):
        name = span["name"]
        duration = span["end"] - span["start"]
        own = duration - children[index]
        if name in ("core.expand", "core.combine"):
            total[name + "_s"] += duration
            total["core.terms"] += span["terms"]
        elif name == "oracle.energies":
            kind = "oracle.object_energies_s" if span["object"] else "oracle.energies_s"
            total[kind] += duration
            total["oracle.object_calls"] += span["object"]
            total["oracle.states"] += span["states"]
            array_bytes = max(array_bytes, span["bytes"])
        elif name == "oracle.sums":
            total["oracle.sums_s"] += duration
        elif name == "oracle.enumerate":
            total["oracle.reduce_s"] += own
        elif name == "sampler.weights":
            total["sampler.weights_s"] += own
            total["sampler.points"] += 1
        elif name == "sampler.sweep":
            total["sampler.draw_s"] += own
        elif name in ("qubofile.dumps", "qubofile.load"):
            total[name + "_s"] += duration
            total["qubofile.bytes"] += span["bytes"]
        elif name in ("cli.main", "cli.cmd"):
            total["cli.self_s"] += own
            if name == "cli.main":
                total["trace.command_s"] += duration

        # A span counts towards a cover ratio when it enters that layer from
        # outside it, inside a command (not inside the benchmark's checks).
        group = COVER.get(name.split(".")[0])
        parent = spans[span["parent"]]["name"] if span["parent"] is not None else ""
        if group and group != COVER.get(parent.split(".")[0]) and root_of(index) == "cli.main":
            total[group] += duration

    out = {name: total[name] / commands for name in PER_LAYER}
    out["oracle.array_bytes"] = array_bytes
    for name in set(COVER.values()):
        out[name] = total[name] / total["trace.command_s"]
    out["trace.commands"] = commands
    return out


def traced_run(commands: Iterator[Command], seconds: float, run_cli: Runner,
               failures: list[str]) -> tuple[dict[str, float], int, list[dict]]:
    """Run each command in-process twice, untraced and traced, for about ``seconds``.

    The two runs of a command alternate which goes first, so drift in machine
    speed and warm caches cancel out of the tracing overhead.  Returns the
    per-layer metrics, the number of commands attempted and the spans.
    Output checks run after every command, outside the command spans; the
    read-back of written files is traced under a ``bench.check`` root.
    """
    tracer = Tracer()
    traced = untraced = 0.0
    count = 0
    while untraced + traced < seconds or not count:
        command = next(commands, None)
        if command is None:
            break
        for with_trace in (count % 2 == 0, count % 2 == 1):
            if not with_trace:
                outcome = run_in_process(command.argv)
                untraced += outcome.seconds
                check(command, outcome, failures)
                continue
            tracer.command = count
            with instrumented(tracer):
                outcome = run_in_process(command.argv, tracer)
                traced += outcome.seconds
                with tracer.span("bench.check"):
                    check(command, outcome, failures)
        count += 1
    metrics = layer_metrics(tracer.spans, count)
    metrics["trace.overhead_s"] = (traced - untraced) / count

    startups = []
    for _ in range(STARTUP_RUNS):
        outcome = run_cli(STARTUP_ARGV)
        if outcome.code != 0:
            failures.append(f"table exited {outcome.code}")
        startups.append(outcome.seconds)
    metrics["cli.startup_s"] = statistics.median(startups)
    return metrics, 2 * count + STARTUP_RUNS, tracer.spans
