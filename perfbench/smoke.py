"""Smoke test of the benchmark harness at tiny sizes; not part of the tier-1 tests.

Run from the repository root (about a minute):

    python3 perfbench/smoke.py

Each workload of design.json runs once untraced and once traced.  The test checks that
every metric BENCHMARK.json names is printed with its unit, that every
end-to-end metric of design.json appears in the readable output, that no
command failed (failed_ratio 0), that the certify shares match design.json,
and that the benchmark refuses to run where the program is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAIL: {message}")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_readable(where: str, printed: dict[str, list[str]], design: dict) -> None:
    """Every end-to-end metric of design.json is printed with its unit; none failed."""
    for name, spec in design["end_to_end"].items():
        expect(name in printed, f"{where}: {name} missing from the readable output")
        if printed[name][0] != "n/a":
            expect(printed[name][1:2] == [spec["unit"]], f"{where}: {name} printed as {printed[name]}")
    expect(printed["failed_ratio"][0] == "0", f"{where}: failed_ratio {printed['failed_ratio']}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    design = json.loads((HERE / "design.json").read_text())
    for workload in design["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run(workload, trace)
            where = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{where} exited {proc.returncode}: {proc.stderr}")
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0,
                   f"{where}: {result['failed']} of {result['attempted']} failed: {proc.stderr}")
            units = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == units, f"{where}: metrics {got} differ from BENCHMARK.json {units}")
            printed = {line.split()[1]: line.split()[2:] for line in lines
                       if line.startswith("metric ")}
            for name in units:
                expect(name in printed, f"{where}: {name} missing from the readable output")
            if not trace:
                check_readable(where, printed, design)
            if workload == "certify":
                record = json.loads(next(l for l in lines if l.startswith("record "))[7:])
                expect(record["shares"] == design["workloads"]["certify"]["shares"],
                       f"certify shares {record['shares']}")
            print(f"smoke: ok {where}")

    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        proc = run(next(iter(design["workloads"])), 0, cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"without the program the benchmark exited {proc.returncode}: {proc.stdout}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: ok refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
