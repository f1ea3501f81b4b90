"""End-to-end tests of the command-line interface and its exit codes."""

from __future__ import annotations

import json
import os
import site
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from quborestrict import core, qubofile
from quborestrict.cli import main
from quborestrict.core import (
    EncodedRestriction,
    EncodingKind,
    QuboModel,
    RestrictionSpec,
    expand_squared_affine,
)
from quborestrict.encoders import encode_single_value

from helpers import broken_one_hot, offset_tampered

GOLDEN_TABLE = Path(__file__).parent / "data" / "table_m7_golden.txt"


def twin_free_restriction(n: int) -> EncodedRestriction:
    """A penalty with distinct problem weights: no two bits are twins, so the sweep runs."""
    model = expand_squared_affine([(i, i + 1) for i in range(n)], -n, 1)
    return EncodedRestriction(model=model, kind=EncodingKind.SINGLE_VALUE,
                              residual_energy=F(0), lambda1=F(1))


def run_cli(capsys, *args):
    try:
        code = main([str(a) for a in args])
    except SystemExit as exc:  # argparse refuses a flag
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestEncode:
    def test_auto_picks_half_integer_pair(self, capsys, tmp_path):
        out_path = tmp_path / "pair.qubo"
        code, out, _ = run_cli(
            capsys, "encode", "--n", 5, "--allowed", "1,2", "--method", "auto",
            "--out", out_path)
        assert code == 0
        assert "kind: half_integer_m2" in out
        assert "n_dummies: 0" in out
        assert "residual_energy: 1/4" in out
        assert qubofile.load(out_path).kind is EncodingKind.HALF_INTEGER_M2

    def test_auto_picks_reduced_for_ragged_values(self, capsys, tmp_path):
        out_path = tmp_path / "ragged.qubo"
        code, out, _ = run_cli(
            capsys, "encode", "--n", 9, "--allowed", "2,5,9", "--out", out_path)
        assert code == 0
        assert "kind: reduced_general" in out
        assert "n_dummies: 2" in out

    def test_file_on_stdout_without_out_flag(self, capsys):
        code, out, err = run_cli(capsys, "encode", "--n", 4, "--allowed", "2")
        assert code == 0
        encoded = qubofile.loads(out)
        assert encoded.kind is EncodingKind.SINGLE_VALUE
        assert "kind: single_value" in err

    def test_inapplicable_method_fails_with_message(self, capsys):
        code, _, err = run_cli(
            capsys, "encode", "--n", 4, "--allowed", "1,2,4", "--method", "linear")
        assert code == 2
        assert "equispaced" in err

    def test_json_format_mirrors_text(self, capsys, tmp_path):
        text_path = tmp_path / "m.qubo"
        json_path = tmp_path / "m.json"
        run_cli(capsys, "encode", "--n", 6, "--allowed", "1,3,6", "--out", text_path)
        run_cli(capsys, "encode", "--n", 6, "--allowed", "1,3,6",
                "--format", "json", "--out", json_path)
        assert qubofile.load(text_path) == qubofile.load(json_path)
        assert json.loads(json_path.read_text())["kind"] == "reduced_general"

    def test_spec_json_input_with_multipliers(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"n_vars": 5, "allowed": [1, 2], "lambda1": "2"}))
        out_path = tmp_path / "s.qubo"
        code, out, _ = run_cli(
            capsys, "encode", "--spec-json", spec_path, "--out", out_path)
        assert code == 0
        assert "residual_energy: 1/2" in out  # lambda1 / 4

    def test_flag_overrides_spec_json_multiplier(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"n_vars": 5, "allowed": [1, 2], "lambda1": "2"}))
        code, out, _ = run_cli(
            capsys, "encode", "--spec-json", spec_path, "--lambda", "4",
            "--out", tmp_path / "s.qubo")
        assert code == 0
        assert "residual_energy: 1" in out

    def test_conflicting_spec_sources(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"n_vars": 5, "allowed": [1, 2]}))
        code, _, err = run_cli(
            capsys, "encode", "--spec-json", spec_path, "--n", 5, "--allowed", "1,2")
        assert code == 2
        assert "not both" in err

    def test_missing_spec(self, capsys):
        code, _, err = run_cli(capsys, "encode", "--n", 5)
        assert code == 2
        assert "--allowed" in err

    @pytest.mark.parametrize("payload, message", [
        ({"n_vars": 5, "allowed": 2}, "allowed a list of integers"),
        ({"n_vars": True, "allowed": [True]}, "allowed a list of integers"),
        ({"n_vars": 5, "allowed": [1, 2], "lambda1": "abc"}, "Invalid literal for Fraction"),
        ({"n_vars": 5, "allowed": ["a", 1]}, "allowed a list of integers"),
        ({"n_vars": 4, "allowed": [1, 3], "lambda1": True}, "expected a rational number, got True"),
        ({"n_vars": 4, "allowed": [1, 3], "lambda2": False}, "expected a rational number, got False"),
    ])
    def test_mistyped_spec_json_is_a_usage_error(self, capsys, tmp_path, payload, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "encode", "--spec-json", spec_path)
        assert (code, out) == (2, "")
        assert message in err
        assert "Traceback" not in err
        assert err.count("\n") == 1

    def test_invalid_spec_values(self, capsys):
        code, _, err = run_cli(capsys, "encode", "--n", 5, "--allowed", "6")
        assert code == 2
        assert "exceeds" in err

    @pytest.mark.parametrize("flags, message", [
        (("--lambda", "1e5000"), "more than 3000 digits"),
        (("--lambda", "1e999999999"), "more than 3000 digits"),
        (("--lambda2", "1e-5000"), "more than 3000 digits"),
        (("--lambda", "9" * 3001), "more than 3000 digits"),
        # each multiplier is short enough, their common denominator is not
        (("--lambda", f"1/{10**1990 + 1}", "--lambda2", f"1/{10**1990 + 3}"), "bit cap"),
    ])
    def test_huge_numbers_are_usage_errors(self, capsys, flags, message):
        code, out, err = run_cli(
            capsys, "encode", "--n", 4, "--allowed", "1,3", "--method", "reduced", *flags)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err

    def test_bad_flag_is_one_line(self, capsys):
        code, out, err = run_cli(capsys, "encode", "--n", 4, "--allowed", "1,3", "--lambda", "abc")
        assert (code, out, err) == (2, "", "error: argument --lambda: not a rational number: 'abc'\n")


class TestVerify:
    def test_encoded_file_verifies(self, capsys, tmp_path):
        out_path = tmp_path / "ok.qubo"
        run_cli(capsys, "encode", "--n", 9, "--allowed", "2,5,9", "--out", out_path)
        code, out, _ = run_cli(
            capsys, "verify", "--qubo", out_path, "--n", 9, "--allowed", "2,5,9")
        assert code == 0
        assert "verdict: PASS" in out
        assert "ground_sums: 2,5,9" in out

    def test_tampered_file_is_refuted(self, capsys, tmp_path):
        bad_path = tmp_path / "bad.qubo"
        qubofile.save(broken_one_hot(RestrictionSpec(4, (1, 3))), bad_path)
        code, out, _ = run_cli(
            capsys, "verify", "--qubo", bad_path, "--n", 4, "--allowed", "1,3")
        assert code == 1
        assert "verdict: FAIL" in out
        assert "spurious" in out

    def test_offset_tampered_file_is_refuted(self, capsys, tmp_path):
        bad_path = tmp_path / "offset.qubo"
        qubofile.save(offset_tampered(encode_single_value(RestrictionSpec(4, (2,)))), bad_path)
        code, out, _ = run_cli(capsys, "verify", "--qubo", bad_path, "--n", 4, "--allowed", "2")
        assert code == 1
        assert out.endswith("verdict: FAIL\n"
                            "ground energy 1/2 differs from the declared residual 0\n")

    def test_truncated_file_is_a_parse_error(self, capsys, tmp_path):
        good = tmp_path / "good.qubo"
        run_cli(capsys, "encode", "--n", 5, "--allowed", "1,2,3", "--out", good)
        clipped = tmp_path / "clipped.qubo"
        clipped.write_text("".join(good.read_text().splitlines(keepends=True)[:-2]))
        code, _, err = run_cli(
            capsys, "verify", "--qubo", clipped, "--n", 5, "--allowed", "1,2,3")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda raw: raw.replace(b"\nn_total 6\nn_problem 5\n",
                                             b"\nn_problem 5\nn_total 6\n"), id="permuted header"),
        pytest.param(lambda raw: raw.replace(b"\nn_total 6\n", b"\nn_total 6\nn_total 6\n"),
                     id="duplicated header"),
        pytest.param(lambda raw: raw[:-1], id="no final newline"),
        pytest.param(lambda raw: raw.replace(b"\n", b"\r\n"), id="CRLF"),
        pytest.param(lambda raw: raw.replace(b"\n", "\x1c".encode()), id="file separator"),
        pytest.param(lambda raw: raw.replace(b"\n", "\u2028".encode()), id="line separator"),
        pytest.param(lambda raw: raw.replace(b"kind ", b"kind \xff\xfe"), id="not UTF-8"),
    ])
    def test_non_canonical_text_file_is_a_parse_error(self, capsys, tmp_path, edit):
        good = tmp_path / "good.qubo"
        spec = ("--n", 5, "--allowed", "1,2,3")
        run_cli(capsys, "encode", *spec, "--out", good)
        bad = tmp_path / "bad.qubo"
        bad.write_bytes(edit(good.read_bytes()))
        assert bad.read_bytes() != good.read_bytes()
        code, out, err = run_cli(capsys, "verify", "--qubo", bad, *spec)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_multipliers_are_encode_flags_only(self, capsys, tmp_path):
        good = tmp_path / "good.qubo"
        run_cli(capsys, "encode", "--n", 5, "--allowed", "1,2", "--out", good)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"n_vars": 5, "allowed": [1, 2], "lambda1": "pi"}))
        code, out, _ = run_cli(capsys, "verify", "--qubo", good, "--spec-json", spec_path)
        assert code == 0 and "verdict: PASS" in out
        code, out, err = run_cli(
            capsys, "verify", "--qubo", good, "--n", 5, "--allowed", "1,2", "--lambda", 2)
        assert (code, out, err) == (2, "", "error: unrecognized arguments: --lambda 2\n")

    @pytest.mark.parametrize("case", [
        "float n_total", "string n_total", "float n_dummies", "float term index",
        "unknown key", "duplicate term",
    ])
    def test_malformed_json_file_is_a_parse_error(self, capsys, tmp_path, case):
        # each of these used to be truncated, ignored or overwritten by loads_json
        good = tmp_path / "good.json"
        spec = ("--n", 5, "--allowed", "1,2,3")
        run_cli(capsys, "encode", *spec, "--format", "json", "--out", good)
        payload = json.loads(good.read_text())
        if case == "float n_total":
            payload["n_total"] += 0.7
        elif case == "string n_total":
            payload["n_total"] = str(payload["n_total"])
        elif case == "float n_dummies":
            payload["n_dummies"] += 0.2
        elif case == "float term index":
            payload["terms"][0][0] += 0.9
        elif case == "unknown key":
            payload["comment"] = "ignored"
        else:
            i, j, _ = payload["terms"][0]
            payload["terms"].append([i, j, "-100"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "verify", "--qubo", bad, *spec)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("offset", ["1e100000", "1e999999999", "1" * 5000])
    def test_huge_offset_literal_is_a_parse_error(self, capsys, tmp_path, fmt, offset):
        good = tmp_path / f"good.{fmt}"
        spec = ("--n", 5, "--allowed", "1,2,3")
        run_cli(capsys, "encode", *spec, "--format", fmt, "--out", good)
        if fmt == "json":
            payload = json.loads(good.read_text())
            payload["offset"] = offset
            text = json.dumps(payload)
        else:
            text = "".join(f"offset {offset}\n" if line.startswith("offset ") else line
                           for line in good.read_text().splitlines(keepends=True))
        bad = tmp_path / f"bad.{fmt}"
        bad.write_text(text)
        code, out, err = run_cli(capsys, "verify", "--qubo", bad, *spec)
        assert (code, out) == (2, "")
        assert err.startswith("error: header offset: bad rational") and err.count("\n") == 1

    def test_max_bits_cap_is_an_error(self, capsys, tmp_path):
        # the physical memory alone bounds both engines, so there is no cap to set
        code, out, err = run_cli(capsys, "verify", "--qubo", tmp_path / "absent.qubo",
                                 "--n", 3, "--allowed", "1", "--max-bits", "6")
        assert (code, out) == (2, "")
        assert err == "error: unrecognized arguments: --max-bits 6\n"

    @pytest.mark.parametrize("value", ["0", "-3", "x"])
    def test_max_bits_must_be_positive(self, capsys, tmp_path, value):
        # a value that was never a valid cap is refused along with the flag itself
        code, out, err = run_cli(capsys, "verify", "--qubo", tmp_path / "absent.qubo",
                                 "--n", 3, "--allowed", "1", "--max-bits", value)
        assert (code, out) == (2, "")
        assert err == f"error: unrecognized arguments: --max-bits {value}\n"

    def test_memory_is_the_only_size_limit(self, capsys, tmp_path, monkeypatch):
        spec = ("--n", 8, "--allowed", "1,2")
        twin_free = tmp_path / "twin_free.qubo"
        qubofile.save(twin_free_restriction(8), twin_free)
        code, out, _ = run_cli(capsys, "verify", "--qubo", twin_free, *spec)
        assert code == 1
        assert "verdict: FAIL" in out
        monkeypatch.setattr(core, "_physical_memory", lambda: 2**12)
        code, out, err = run_cli(capsys, "verify", "--qubo", twin_free, *spec)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith(" needs more than the physical memory\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("encode", "--n", 20_000, "--allowed", 1),
        ("sweep", "--n", 20_000, "--r-from", 0, "--r-to", 1, "--steps", 2),
    ], ids=["encode", "sweep"])
    def test_oversized_construction_is_refused_in_one_line(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(core, "_physical_memory", lambda: 8 * 2**30)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == ("error: expanding a square of 20000 weights into 200010000 terms "
                       "needs more than the physical memory\n")

    @pytest.mark.parametrize("argv, what", [
        (("table", "--max-m", 10**8), "a table of 99999999 columns"),
        (("sweep", "--n", 2, "--r-from", 0, "--r-to", 1, "--steps", 10**8),
         "a sweep of 100000000 grid points"),
    ], ids=["table", "sweep"])
    def test_oversized_output_is_refused_in_one_line(self, capsys, monkeypatch, argv, what):
        monkeypatch.setattr(core, "_physical_memory", lambda: 2**20)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {what} needs more than the physical memory\n"


class TestSweep:
    def test_writes_csv_and_prints_distance(self, capsys, tmp_path):
        csv_path = tmp_path / "curve.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--n", 5, "--r-from", 1, "--r-to", 2, "--steps", 11,
            "--temperature", 0.001, "--reads", 2000, "--seed", 7, "--out", csv_path)
        assert code == 0
        assert out.startswith("step_distance=")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "R,P0,P1,P2,P3,P4,P5,p_norm"
        assert len(lines) == 13  # header + 11 grid points + summary
        assert lines[-1].startswith("step_distance=")
        first = lines[1].split(",")
        last = lines[-2].split(",")
        assert float(first[2]) >= 0.99   # P1 at R=1
        assert float(last[3]) >= 0.99    # P2 at R=2

    def test_csv_to_stdout_without_out_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", 4, "--r-from", 1, "--r-to", 2, "--steps", 3,
            "--temperature", 0.05, "--reads", 500, "--seed", 1)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("R,P0")
        assert lines[-1].startswith("step_distance=")

    def test_hotter_sweep_has_larger_distance(self, capsys, tmp_path):
        distances = {}
        for temp in ("0.001", "0.5"):
            code, out, _ = run_cli(
                capsys, "sweep", "--n", 5, "--r-from", 1, "--r-to", 2, "--steps", 11,
                "--temperature", temp, "--reads", 5000, "--seed", 7,
                "--out", tmp_path / f"t{temp}.csv")
            assert code == 0
            distances[temp] = float(out.split("=")[1])
        assert distances["0.5"] > distances["0.001"]

    def test_warning_is_one_line(self, capsys, tmp_path):
        argv = ("sweep", "--n", 16, "--r-from", 3, "--r-to", 4, "--temperature", 0.2,
                "--reads", 1000, "--seed", 1, "--out", tmp_path / "f.csv")
        expected = (0, "step_distance=0.1372\n",
                    "warning: 0.012 of the mass lies outside sums (3, 4) at R=39/10\n")
        assert run_cli(capsys, *argv) == expected
        # a warning turned into an error does not change the exit code either
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "quborestrict.cli",
                               *map(str, argv)], env=env, capture_output=True, text=True,
                              timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected

    def test_huge_multiplier_does_not_overflow(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", 4, "--r-from", 1, "--r-to", 2, "--steps", 3,
            "--lambda", "1e400")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:4]]
        assert float(rows[0][2]) == 1.0   # P1 at R=1
        assert float(rows[2][3]) == 1.0   # P2 at R=2
        assert float(rows[1][2]) + float(rows[1][3]) == pytest.approx(1.0)

    def test_single_step_is_a_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--n", 5, "--r-from", 1, "--r-to", 2, "--steps", 1)
        assert code == 2
        assert "grid points" in err

    def test_negative_seed_is_a_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--n", 5, "--r-from", 1, "--r-to", 2, "--seed", -1)
        assert (code, out) == (2, "")
        assert err.startswith("error: seed") and err.count("\n") == 1

    @pytest.mark.parametrize("r_from, r_to, pair", [(0, 4, "(0, 4)"), ("1.5", "2.5", "(1, 3)")])
    def test_range_over_more_than_one_integer_is_a_usage_error(self, capsys, r_from, r_to, pair):
        code, out, err = run_cli(
            capsys, "sweep", "--n", 5, "--r-from", r_from, "--r-to", r_to,
            "--temperature", 1000)
        assert (code, out) == (2, "")
        assert pair in err and err.count("\n") == 1


class TestTable:
    def test_matches_golden_file(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-m", 7)
        assert code == 0
        assert out == GOLDEN_TABLE.read_text()

    def test_m8_binary_weighted_count_stays_at_three(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-m", 8)
        assert code == 0
        rows = [line.split() for line in out.splitlines()]
        assert rows[1][-1] == "6"  # chain grows linearly
        assert rows[2][-1] == "3"  # 8 = 2**3 is a power of two

    def test_max_m_below_two_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, "table", "--max-m", 1)
        assert code == 2
        assert "at least 2" in err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# Runs one command in a fresh interpreter and reports, last, whether numpy got
# loaded and which package modules did.
# Standard modules whose import is a large share of start-up and that no command needs
STARTUP_HEAVY = {"dataclasses", "inspect", "typing", "pathlib"}

IMPORT_PROBE = """
import sys
before = set(sys.modules)
from quborestrict.cli import main
code = main(sys.argv[1:])
print(",".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""


def loaded_modules(cwd, *args):
    """Exit code of one command and the modules it adds to ``sys.modules``.

    The command runs under ``python -S`` with this interpreter's
    site-packages on the path, so no ``.pth`` start-up hook can import a
    module first and hide that the command imports it.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src, env.get("PYTHONPATH"), *site.getsitepackages(), site.getusersitepackages()]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    proc = subprocess.run([sys.executable, "-S", "-c", IMPORT_PROBE, *map(str, args)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, set(proc.stdout.splitlines()[-1].split(","))


def probe_imports(cwd, *args):
    """Exit code, whether numpy was loaded, and the package's submodules a command loads."""
    code, added = loaded_modules(cwd, *args)
    package = {name.split(".")[1] for name in added if name.startswith("quborestrict.")}
    return code, str("numpy" in added), package


def test_numpy_loads_only_where_arrays_are_built(tmp_path):
    spec_flags = ("--n", 9, "--allowed", "2,5,9")
    encode = {"cli", "core", "encoders", "qubofile"}
    verify = {"cli", "core", "oracle", "qubofile"}
    assert probe_imports(tmp_path, "table", "--max-m", 7) == (0, "False",
                                                               {"cli", "core", "encoders"})
    assert probe_imports(tmp_path, "sweep", "--n", 16, "--r-from", 3, "--r-to", 4) == (
        0, "False", {"cli", "core", "oracle", "sampler"})
    assert probe_imports(tmp_path, "encode", *spec_flags, "--out", "ok.qubo") == (
        0, "False", encode)
    assert probe_imports(tmp_path, "verify", "--qubo", "ok.qubo", *spec_flags) == (
        0, "False", verify)
    assert probe_imports(tmp_path, "encode", *spec_flags, "--lambda", 10**18, "--lambda2", 10**18,
                         "--out", "huge.qubo") == (0, "False", encode)
    assert probe_imports(tmp_path, "verify", "--qubo", "huge.qubo", *spec_flags) == (
        0, "False", verify)
    # lowering one problem coupling splits bits 0 and 1 off as a class of twins,
    # which the table still takes
    encoded = qubofile.load(tmp_path / "ok.qubo")
    coeffs = dict(encoded.model.coeffs)
    coeffs[(0, 1)] -= F(1, 2)
    model = QuboModel(encoded.model.n_total, encoded.model.n_problem, coeffs, encoded.model.offset)
    qubofile.save(EncodedRestriction(
        model=model, kind=encoded.kind,
        residual_energy=encoded.residual_energy, lambda1=encoded.lambda1,
        lambda2=encoded.lambda2), tmp_path / "broken.qubo")
    assert probe_imports(tmp_path, "verify", "--qubo", "broken.qubo", *spec_flags) == (
        1, "False", verify)
    # distinct weights leave no twins: the doubling sweep needs numpy
    qubofile.save(twin_free_restriction(9), tmp_path / "twin_free.qubo")
    assert probe_imports(tmp_path, "verify", "--qubo", "twin_free.qubo", *spec_flags) == (
        1, "True", verify)


def test_no_command_loads_dataclasses_typing_or_pathlib(tmp_path):
    spec_flags = ("--n", 9, "--allowed", "2,5,9")
    (tmp_path / "spec.json").write_text('{"n_vars": 9, "allowed": [2, 5, 9]}')
    for argv in [
        ("table", "--max-m", 7),
        ("sweep", "--n", 16, "--r-from", 3, "--r-to", 4, "--out", "sweep.csv"),
        ("encode", *spec_flags, "--out", "ok.qubo"),
        ("encode", "--spec-json", "spec.json", "--format", "json", "--out", "ok.json"),
        ("verify", "--qubo", "ok.qubo", *spec_flags),
        ("verify", "--qubo", "ok.json", "--spec-json", "spec.json"),
    ]:
        code, added = loaded_modules(tmp_path, *argv)
        assert code == 0 and "quborestrict.cli" in added, argv
        assert not added & STARTUP_HEAVY, (argv, added & STARTUP_HEAVY)
