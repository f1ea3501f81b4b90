"""Benchmark of the quborestrict command line: one workload, one seed, one result.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 50 --trace 0

Workloads (see perfbench/design.json for why each was chosen):

* ``certify``: CLI ``verify`` on penalty files that set-up makes with CLI
  ``encode`` (n_total 20), a quarter of them tampered;
* ``sweep``: CLI ``sweep`` at N = 16, 11 steps, 10,000 reads;
* ``encode_large``: CLI ``encode`` at N = 150..400 in both formats.  It is
  not in BENCHMARK.json: the run budget holds two workloads at run lengths
  long enough for steady medians, and the layers it stresses (core,
  qubofile) are also measured on the other two.  Run it by name to measure
  construction and writing.

With ``--trace 0`` the benchmark spawns the real CLI (``python -m
quborestrict.cli`` with ``src`` on the path, nothing installed) one command
at a time, checks every output against its own references, and prints the
end-to-end metrics.  With ``--trace 1`` it runs the same commands in-process
(``quborestrict.cli.main``), each once untraced and once traced, and prints
the per-layer metrics and the tracing overhead.  The last line of standard
output is the JSON result; the lines before it are a readable table and a
``record`` line with the environment and the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
CLI = [sys.executable, "-m", "quborestrict.cli"]
WARM_UP_ARGV = ["table", "--max-m", "7"]
# A command that runs longer than this is killed and counts as failed.
COMMAND_TIMEOUT_S = 120.0
# Enough samples for cmd_tail_s, which needs ten samples beyond it.
MIN_SAMPLES = 11
# The measured loop stops here whatever the sample count, so a run ends in time.
LOOP_CAP_S = 110.0

END_TO_END = {
    "setup_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "terms_per_s": "terms/s",
    "peak_rss_mb": "MB",
}


def run_cli(argv: list[str], env: dict[str, str], scratch: Path):
    """Spawn one CLI command and wait for it; wall time from spawn to exit."""
    from workloads import Outcome

    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([*CLI, *argv], cwd=ROOT, env=env, stdout=out, stderr=err)
        lock, reaped = threading.Lock(), []

        def kill() -> None:
            with lock:
                if not reaped:
                    proc.kill()

        timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            with lock:
                reaped.append(True)
            timer.cancel()
            timer.join()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, out_path.read_text(), err_path.read_text(), seconds,
                   usage.ru_maxrss / 1024)


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and which one it is."""
    ordered = sorted(times)
    k = len(ordered) - 10
    if k < 1:
        return ordered[0], 0.0
    return ordered[k - 1], 100.0 * k / len(ordered)


def environment() -> dict:
    import numpy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "caches": caches or "unavailable",
    }


def end_to_end(workload, sizes, seconds: float, run, failures: list[str]):
    setup_times = []
    for rep in range(workload.setup_reps if sizes.repeat_setup else 1):
        start = time.perf_counter()
        warm = run(WARM_UP_ARGV)
        if warm.code != 0:
            raise RuntimeError(f"warm-up exited {warm.code}: {warm.stderr.strip()}")
        workload.setup(run, rep)
        setup_times.append(time.perf_counter() - start)

    from workloads import check

    samples = []
    busy = 0.0
    commands = workload.commands()
    loop_start = time.perf_counter()
    while ((busy < seconds or len(samples) < MIN_SAMPLES)
           and time.perf_counter() - loop_start < LOOP_CAP_S):
        command = next(commands, None)
        if command is None:
            break
        outcome = run(command.argv)
        check(command, outcome, failures)
        samples.append((outcome.seconds, command.states, command.terms, outcome.rss_mb))
        busy += outcome.seconds

    times = [s[0] for s in samples]
    tail_value, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "cmd_p50_s": statistics.median(times),
        "cmd_tail_s": tail_value,
        "terms_per_s": sum(s[2] for s in samples) / busy,
        "peak_rss_mb": max(s[3] for s in samples),
    }
    states = sum(s[1] for s in samples)
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "cmd_p50_s": f"{len(times)} commands",
        "cmd_tail_s": f"p{tail_pct:.1f} of {len(times)} samples, 10 beyond it",
        "terms_per_s": f"{sum(s[2] for s in samples)} terms in {busy:.2f} s",
        "peak_rss_mb": "largest child, from wait4",
    }
    lines = [f"metric {name} {value:.6g} {END_TO_END[name]} ({notes[name]})"
             for name, value in metrics.items()]
    if states:
        lines.append(f"metric states_per_s {states / busy:.6g} assignments/s "
                     f"({states} assignments in {busy:.2f} s)")
    else:
        lines.append("metric states_per_s n/a (this workload certifies and samples nothing)")
    lines.append(f"metric failed_ratio {len(failures) / len(samples):.6g} ratio "
                 f"({len(failures)} of {len(samples)} commands)")
    return metrics, END_TO_END, len(samples), lines


def traced(workload, seconds: float, run, failures: list[str], seed: int):
    from tracing import PER_LAYER, traced_run

    workload.setup(run, 0)
    metrics, attempted, spans = traced_run(workload.commands(), seconds, run, failures)
    spans_path = WORK / f"spans-{workload.name}-seed{seed}.json"
    spans_path.write_text(json.dumps(spans))
    lines = [f"metric {name} {metrics[name]:.6g} {unit}" for name, unit in PER_LAYER.items()]
    lines.append(f"spans {len(spans)} written to {spans_path.relative_to(ROOT)}")
    return metrics, PER_LAYER, attempted, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "sweep", "encode_large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="command time to measure (traced runs: both passes together)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the harness smoke test")
    args = parser.parse_args()

    if not (SRC / "quborestrict" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'quborestrict'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import SIZES, WORKLOADS

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    scratch = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    sizes = SIZES[args.size]
    workload = WORKLOADS[args.workload](args.seed, sizes, scratch)
    failures: list[str] = []

    def run(argv: list[str]):
        return run_cli(argv, env, scratch)

    try:
        if args.trace:
            metrics, units, attempted, lines = traced(
                workload, args.seconds, run, failures, args.seed)
        else:
            metrics, units, attempted, lines = end_to_end(
                workload, sizes, args.seconds, run, failures)
        record = {"environment": environment(), "workload": args.workload,
                  "seed": args.seed, "size": args.size, "trace": args.trace,
                  **workload.record()}
    except Exception:  # a failed set-up or harness error leaves nothing to report
        traceback.print_exc()
        print("error: the run could not be measured", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for message in failures[:10]:
        print(f"failed: {message}", file=sys.stderr)
    for line in lines:
        print(line)
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
