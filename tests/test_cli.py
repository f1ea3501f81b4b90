"""End-to-end tests of the command-line interface and its exit codes."""

from __future__ import annotations

import gc
import json
import os
import site
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from quborestrict import cli, core, oracle, qubofile
from quborestrict.cli import main, parse_args
from quborestrict.core import (
    EncodedRestriction,
    EncodingKind,
    QuboModel,
    RestrictionSpec,
    expand_squared_affine,
)
from quborestrict.encoders import encode_half_integer_chain, encode_single_value

from helpers import broken_one_hot, offset_tampered

GOLDEN_TABLE = Path(__file__).parent / "data" / "table_m7_golden.txt"
GOLDEN_SWEEP = Path(__file__).parent / "data" / "sweep_n16_golden.csv"
GOLDEN_SWEEP_N40 = Path(__file__).parent / "data" / "sweep_n40_golden.csv"
GOLDEN_VERIFY = {"2,5,9": (0, Path(__file__).parent / "data" / "verify_pass_golden.txt"),
                 "2,5": (1, Path(__file__).parent / "data" / "verify_fail_golden.txt")}


def twin_free_restriction(n: int) -> EncodedRestriction:
    """A penalty with distinct problem weights: no two bits are twins, so the sweep runs."""
    model = expand_squared_affine([(i, i + 1) for i in range(n)], -n, 1)
    return EncodedRestriction(model=model, kind=EncodingKind.SINGLE_VALUE,
                              residual_energy=F(0), lambda1=F(1))


def run_cli(capsys, *args):
    try:
        code = main([str(a) for a in args])
    except SystemExit as exc:  # a usage error or help
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def spawn(cwd, *args, python=("-m", "quborestrict.cli")):
    """Exit code, stdout and stderr of `python *python *args` run as a process of its own."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *python, *map(str, args)],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


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

    @pytest.mark.parametrize("name", ["plain.qubo", "w\nx.qubo"], ids=["printable", "line-break"])
    def test_summary_names_the_written_file_on_one_line(self, capsys, tmp_path, name):
        out_path = tmp_path / name
        code, out, _ = run_cli(capsys, "encode", "--n", 3, "--allowed", 1, "--out", out_path)
        assert code == 0
        # a printable path as it is, any other as its repr
        shown = str(out_path) if name.isprintable() else repr(str(out_path))
        assert out.splitlines() == [
            "kind: single_value", "n_dummies: 0", "residual_energy: 0", f"wrote {shown}"]
        assert qubofile.load(out_path).kind is EncodingKind.SINGLE_VALUE

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

    def test_conflicting_spec_sources(self, capsys):
        # the restriction comes from --n/--allowed only: a spec JSON is no flag
        assert run_cli(capsys, "encode", "--n", 5, "--allowed", 1, "--spec-json", "s.json") == (
            2, "", "error: unrecognized arguments: --spec-json s.json\n")

    def test_missing_spec(self, capsys):
        code, _, err = run_cli(capsys, "encode", "--n", 5)
        assert code == 2
        assert "--allowed" in err

    def test_invalid_spec_values(self, capsys):
        code, _, err = run_cli(capsys, "encode", "--n", 5, "--allowed", "6")
        assert code == 2
        assert "exceeds" in err
        # the sweep's wording for a block of no bits
        expected = (2, "", "error: n_vars must be an integer of at least 1, got 0\n")
        assert run_cli(capsys, "encode", "--n", 0, "--allowed", "0") == expected
        assert run_cli(capsys, "sweep", "--n", 0, "--r-from", 0, "--r-to", 1) == expected

    @pytest.mark.parametrize("flags, message", [
        (("--lambda", "1e5000"), "more than 3000 digits"),
        (("--lambda", "1e999999999"), "more than 3000 digits"),
        (("--lambda2", "1e-5000"), "more than 3000 digits"),
        (("--lambda", "9" * 3001), "more than 3000 digits"),
        # each multiplier is short enough, their common denominator is not
        (("--lambda", f"1/{10**1990 + 1}", "--lambda2", f"1/{10**1990 + 3}"), "bit cap"),
        # a multiplier at or below 0, with the sweep's message
        (("--lambda", "0"), "multiplier must be positive, got 0"),
        (("--lambda2", "-1/2"), "multiplier must be positive, got -1/2"),
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

    @pytest.mark.parametrize("allowed", GOLDEN_VERIFY)
    def test_report_matches_golden_file(self, capsys, tmp_path, allowed):
        # every line of the report, its table and its Fractions, byte for byte; without 9
        # the sum 9 at energy 1/8 is spurious
        path = tmp_path / "reduced.qubo"
        run_cli(capsys, "encode", "--n", 12, "--allowed", "2,5,9", "--method", "reduced",
                "--lambda", "3/2", "--lambda2", "1/2", "--out", path)
        code, out, _ = run_cli(capsys, "verify", "--qubo", path, "--n", 12, "--allowed", allowed)
        expected_code, golden = GOLDEN_VERIFY[allowed]
        assert code == expected_code
        assert out.encode() == golden.read_bytes()

    def test_tampered_file_is_refuted(self, capsys, tmp_path):
        bad_path = tmp_path / "bad.qubo"
        qubofile.save(broken_one_hot(RestrictionSpec(4, (1, 3))), bad_path)
        code, out, _ = run_cli(
            capsys, "verify", "--qubo", bad_path, "--n", 4, "--allowed", "1,3")
        assert code == 1
        assert "verdict: FAIL" in out
        assert "spurious" in out

    def test_matched_chain_dummies_are_refuted_at_a_hundred_bits(self, capsys, tmp_path,
                                                                 monkeypatch):
        # a matching among the chain's 4 twin dummies leaves the twin pairs {100, 101} and
        # {102, 103}: the table refutes the file without the sweep's 2**104 states
        encoded = encode_half_integer_chain(RestrictionSpec(100, range(40, 46)))
        coeffs = dict(encoded.model.coeffs)
        coeffs[(100, 101)] += 1
        coeffs[(102, 103)] += 1
        path = tmp_path / "matched.qubo"
        qubofile.save(EncodedRestriction(
            model=QuboModel(104, 100, coeffs, encoded.model.offset), kind=encoded.kind,
            residual_energy=encoded.residual_energy, lambda1=encoded.lambda1), path)

        def no_sweep(model):
            raise AssertionError("the twin-class table did not take the model")

        monkeypatch.setattr(oracle, "assignment_energies", no_sweep)
        code, out, _ = run_cli(capsys, "verify", "--qubo", path, "--n", 100,
                               "--allowed", "40,41,42,43,44,45")
        assert code == 1
        assert out.endswith("verdict: FAIL\nallowed sums [44, 45] never reach the ground energy\n")

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

    def test_file_the_model_refuses_is_one_line(self, capsys, tmp_path):
        good = tmp_path / "good.qubo"
        spec = ("--n", 5, "--allowed", "1,2,3")
        run_cli(capsys, "encode", *spec, "--out", good)
        bad = tmp_path / "bad.qubo"
        bad.write_text(good.read_text().replace(
            "n_total 6\nn_problem 5\nn_dummies 1\n", "n_total -1\nn_problem -1\nn_dummies 0\n"))
        code, out, err = run_cli(capsys, "verify", "--qubo", bad, *spec)
        assert (code, out) == (2, "")
        assert err == ("error: inconsistent file contents: "
                       "n_total must be an integer of at least 0, got -1\n")

    def test_restriction_is_refused_before_the_file_is_opened(self, capsys, tmp_path):
        missing = tmp_path / "missing.qubo"
        assert run_cli(capsys, "verify", "--qubo", missing, "--n", 3, "--allowed", 5) == (
            2, "", "error: allowed value 5 exceeds n_vars=3\n")

    def test_json_file_with_a_repeated_key_is_one_line(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        spec = ("--n", 4, "--allowed", "1,3")
        run_cli(capsys, "encode", *spec, "--format", "json", "--out", path)
        text = path.read_text()
        path.write_text(text.replace("{\n", '{\n  "residual_energy": "0",\n', 1))
        assert run_cli(capsys, "verify", "--qubo", path, *spec) == (
            2, "", "error: duplicate key 'residual_energy'\n")

    def test_multipliers_are_encode_flags_only(self, capsys, tmp_path):
        good = tmp_path / "good.qubo"
        run_cli(capsys, "encode", "--n", 5, "--allowed", "1,2", "--out", good)
        code, out, err = run_cli(
            capsys, "verify", "--qubo", good, "--n", 5, "--allowed", "1,2", "--lambda", 2)
        assert (code, out, err) == (2, "", "error: unrecognized arguments: --lambda 2\n")

    @pytest.mark.parametrize("case", [
        "float n_total", "string n_total", "float n_dummies", "float term index",
        "unknown key", "unknown key with a line break", "duplicate term", "number lambda1",
        "swapped terms", "zero term",
    ])
    def test_malformed_json_file_is_a_parse_error(self, capsys, tmp_path, case):
        # each of these used to be truncated, ignored, overwritten, converted,
        # sorted or dropped by loads_json
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
        elif case == "unknown key with a line break":  # quoted, so the error stays one line
            payload["bad\nkey"] = 1
        elif case == "number lambda1":
            payload["lambda1"] = 0.5
        elif case == "swapped terms":
            payload["terms"][:2] = payload["terms"][1::-1]
        elif case == "zero term":
            payload["terms"][-1][2] = "0"
        else:
            i, j, _ = payload["terms"][0]
            payload["terms"].append([i, j, "-100"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "verify", "--qubo", bad, *spec)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_byte_order_mark_is_named(self, capsys, tmp_path, fmt):
        # the parser of either format would report a bad first line or payload instead
        good = tmp_path / f"good.{fmt}"
        spec = ("--n", 5, "--allowed", "1,2,3")
        run_cli(capsys, "encode", *spec, "--format", fmt, "--out", good)
        assert not good.read_bytes().startswith(b"\xef\xbb\xbf")
        bad = tmp_path / f"bom.{fmt}"
        bad.write_bytes(b"\xef\xbb\xbf" + good.read_bytes())
        code, out, err = run_cli(capsys, "verify", "--qubo", bad, *spec)
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: starts with a UTF-8 byte-order mark\n"

    def test_path_with_a_line_break_is_quoted(self, capsys, tmp_path):
        bad = tmp_path / "bad\nname.qubo"
        bad.write_bytes(b"kind \xff\n")
        code, out, err = run_cli(capsys, "verify", "--qubo", bad, "--n", 5, "--allowed", 1)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {str(bad)!r}: not UTF-8 text: ") and err.count("\n") == 1

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
        # 16 bits: the parse of the file is estimated at 80 kB and its sweep at 1.3 MB
        spec = ("--n", 16, "--allowed", "1,2")
        twin_free = tmp_path / "twin_free.qubo"
        qubofile.save(twin_free_restriction(16), twin_free)
        code, out, _ = run_cli(capsys, "verify", "--qubo", twin_free, *spec)
        assert code == 1
        assert "verdict: FAIL" in out
        monkeypatch.setattr(core, "_physical_memory", lambda: 2**20)
        code, out, err = run_cli(capsys, "verify", "--qubo", twin_free, *spec)
        assert (code, out) == (2, "")
        assert err == "error: enumerating 2**16 assignments needs more than the physical memory\n"

    @pytest.mark.parametrize("fmt, what", [("text", "a penalty file"),
                                           ("json", "a JSON penalty file")])
    def test_a_file_too_large_to_parse_is_refused_in_one_line(self, capsys, tmp_path,
                                                              monkeypatch, fmt, what):
        path = tmp_path / "penalty"
        qubofile.save(twin_free_restriction(8), path, fmt=fmt)
        size = len(path.read_text(encoding="utf-8"))
        monkeypatch.setattr(core, "_physical_memory", lambda: 2**12)
        code, out, err = run_cli(capsys, "verify", "--qubo", path, "--n", 8, "--allowed", "1,2")
        assert (code, out) == (2, "")
        assert err == (f"error: parsing {what} of {size} characters needs more than the "
                       "physical memory\n")

    # a sweep builds no model, so what refuses it is its own lists, here at n = 10**8
    @pytest.mark.parametrize("argv, what", [
        (("encode", "--n", 20_000, "--allowed", 1),
         "expanding a square of 20000 weights into 200010000 terms"),
        (("sweep", "--n", 10**8, "--r-from", 0, "--r-to", 1, "--steps", 2),
         "a sweep of 2 grid points"),
    ], ids=["encode", "sweep"])
    def test_oversized_construction_is_refused_in_one_line(self, capsys, monkeypatch, argv,
                                                           what):
        monkeypatch.setattr(core, "_physical_memory", lambda: 8 * 2**30)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {what} needs more than the physical memory\n"

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

    @pytest.mark.parametrize("flags", [
        ("--n", 4, "--r-from", 1, "--r-to", 2, "--temperature", 0.05, "--reads", 500),
        # a sweep builds no model, so it runs where the model's 200 million terms would not fit
        ("--n", 20_000, "--r-from", 10_000, "--r-to", 10_001, "--reads", 1000),
        # a sweep caps each R it returns, not the ints of the model it never builds: with
        # R = 1 + 1/10**1400 and lam = 1e-1000 those ints would pass the 12,000-bit cap
        ("--n", 4, "--r-from", "1." + "0" * 1399 + "1", "--r-to", 2, "--reads", 100,
         "--lambda", "1e-1000"),
    ], ids=["small", "n20000", "1400-digit-R"])
    def test_csv_to_stdout_without_out_flag(self, capsys, flags):
        code, out, _ = run_cli(capsys, "sweep", *flags, "--steps", 3, "--seed", 1)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5  # header + 3 grid points + summary
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
        assert spawn(None, *argv, python=("-W", "error", "-m", "quborestrict.cli")) == expected

    def test_seeded_sweep_matches_golden_file(self, capsys):
        # every cell of a seeded 11-point sweep, not only its distance
        code, out, err = run_cli(capsys, "sweep", "--n", 16, "--r-from", 3, "--r-to", 4,
                                 "--steps", 11, "--temperature", 0.2, "--reads", 10000,
                                 "--seed", 5)
        assert code == 0
        assert out.encode() == GOLDEN_SWEEP.read_bytes()
        assert err == "warning: 0.0161 of the mass lies outside sums (3, 4) at R=4\n"

    def test_seeded_n40_sweep_matches_golden_file(self, capsys):
        # thirds of R and a fractional multiplier, at 40 bits and 100,000 reads
        code, out, err = run_cli(capsys, "sweep", "--n", 40, "--r-from", "37/3", "--r-to", "38/3",
                                 "--steps", 7, "--temperature", 0.5, "--lambda", "3/2",
                                 "--reads", 100000, "--seed", 11)
        assert code == 0
        assert out.encode() == GOLDEN_SWEEP_N40.read_bytes()
        assert err == "warning: 0.0112 of the mass lies outside sums (12, 13) at R=38/3\n"

    def test_point_without_pair_mass_is_a_nan_cell(self, capsys):
        # at R=0 and T=100 all 10,000 reads of this seed miss sums 0 and 1:
        # a sampling outcome, not a usage error
        code, out, err = run_cli(capsys, "sweep", "--n", 16, "--r-from", 0, "--r-to", 1,
                                 "--temperature", 100, "--seed", 2)
        assert (code, err) == (0, "warning: 1 of the mass lies outside sums (0, 1) at R=0\n")
        rows = [line.split(",") for line in out.splitlines()[1:-1]]
        assert len(rows) == 11 and rows[0][0] == "0" and rows[0][-1] == "nan"
        assert "nan" not in [row[-1] for row in rows[1:]]
        assert out.splitlines()[-1].startswith("step_distance=")

    def test_huge_multiplier_does_not_overflow(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", 4, "--r-from", 1, "--r-to", 2, "--steps", 3,
            "--lambda", "1e400")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:4]]
        assert float(rows[0][2]) == 1.0   # P1 at R=1
        assert float(rows[2][3]) == 1.0   # P2 at R=2
        assert float(rows[1][2]) + float(rows[1][3]) == pytest.approx(1.0)

    def test_temperature_below_the_float_range_reads_as_the_least_float(self, capsys):
        # the flag reads the exact 1/10**400, which the temperature rule maps to 5e-324
        argv = ("sweep", "--n", 16, "--r-from", 3, "--r-to", 4, "--seed", 5, "--temperature")
        least = run_cli(capsys, *argv, "5e-324")
        assert least[0] == 0
        assert run_cli(capsys, *argv, "1e-400") == least
        for temperature in ("0", "-1e-400"):
            code, out, err = run_cli(capsys, *argv, temperature)
            assert (code, out) == (2, "") and err.count("\n") == 1
            assert err.startswith("error: temperature must be positive, got ")
        # what is no rational is refused by the converter, as --lambda would be
        for temperature in ("nan", "inf"):
            assert run_cli(capsys, *argv, temperature) == (
                2, "", f"error: argument --temperature: not a rational number: {temperature!r}\n")

    def test_temperature_is_read_as_an_exact_rational(self, capsys):
        argv = ("sweep", "--n", 16, "--r-from", 3, "--r-to", 4, "--steps", 11, "--reads", 10000,
                "--seed", 5, "--temperature")
        code, out, _ = run_cli(capsys, *argv, "1/5")
        assert code == 0
        assert out.encode() == GOLDEN_SWEEP.read_bytes()
        assert run_cli(capsys, *argv, "-1/2") == (
            2, "", "error: temperature must be positive, got -1/2\n")

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


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


PACKAGE_ERRORS = [core.ConstructionError, core.DataQualityError, core.DimensionError,
                  core.EncodingNotApplicableError, core.ParameterError, core.QuboFileError,
                  core.SizeLimitError]


@pytest.mark.parametrize("error", PACKAGE_ERRORS, ids=lambda error: error.__name__)
def test_each_package_error_exits_2_with_one_line(capsys, monkeypatch, error):
    def refuse(args):
        raise error("refused")

    monkeypatch.setattr(cli, "cmd_verify", refuse)
    argv = ["verify", "--qubo", "a.qubo", "--n", "3", "--allowed", "1"]
    assert run_cli(capsys, *argv) == (2, "", "error: refused\n")


def test_a_plain_value_error_keeps_its_traceback(monkeypatch):
    def fail(args):
        raise ValueError("a bug")

    monkeypatch.setattr(cli, "cmd_verify", fail)
    with pytest.raises(ValueError, match="^a bug$"):
        main(["verify", "--qubo", "a.qubo", "--n", "3", "--allowed", "1"])


METHOD_CHOICES = "'auto', 'single', 'onehot', 'linear', 'log', 'half2', 'halfchain', 'reduced'"


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus' "
                "(choose from 'encode', 'verify', 'sweep', 'table')"),
    (["sweep", "--n", "5"], "the following arguments are required: --r-from, --r-to"),
    # a bad value comes before a missing required flag
    (["sweep", "--n", "x"], "argument --n: invalid int value: 'x'"),
    (["sweep", "--n", "5", "--r-from", "0", "--r-to", "1", "--temperature", "hot"],
     "argument --temperature: not a rational number: 'hot'"),
    # and before an unrecognized argument
    (["encode", "--bogus", "--method", "nope"],
     f"argument --method: invalid choice: 'nope' (choose from {METHOD_CHOICES})"),
    (["sweep", "--r-from", "0", "--r-to", "1", "--n"], "argument --n: expected one argument"),
    # a flag is its full name, never a prefix of it
    (["sweep", "--n", "5", "--r-from", "0", "--r-to", "1", "--temp", "0.2"],
     "unrecognized arguments: --temp 0.2"),
    (["verify", "--qubo", "a.qubo", "--n", "4", "--allowed", "1", "--lambda", "2"],
     "unrecognized arguments: --lambda 2"),
    (["encode", "--n", "4", "--allowed", "1", "--lambda", "abc"],
     "argument --lambda: not a rational number: 'abc'"),
    (["encode", "--n", "3", "--allowed", "1", "--lambda", "nan"],
     "argument --lambda: not a rational number: 'nan'"),
    (["sweep", "--n", "3", "--r-from", "1/0", "--r-to", "2"],
     "argument --r-from: not a rational number: '1/0'"),
    # every count is read by check_count
    (["table", "--max-m", "1"], "--max-m must be an integer of at least 2, got 1"),
    (["sweep", "--n", "3", "--r-from", "1", "--r-to", "2", "--steps", "1"],
     "steps must be an integer of at least 2, got 1"),
    (["sweep", "--n", "3", "--r-from", "1", "--r-to", "2", "--seed", "-1"],
     "seed must be an integer of at least 0, got -1"),
    # encode and sweep refuse a multiplier at or below 0 with the same line
    (["encode", "--n", "3", "--allowed", "1", "--lambda", "0"], "multiplier must be positive, got 0"),
    (["sweep", "--n", "3", "--r-from", "1", "--r-to", "2", "--lambda", "0"],
     "multiplier must be positive, got 0"),
    # a flag takes the next word as its value, whatever it starts with
    (["sweep", "--n", "--r-from", "0", "--r-to", "1"], "argument --n: invalid int value: '--r-from'"),
    # a word with a line break is quoted, so the error stays one line
    (["table", "--max-m", "3", "a\nb", "c"], "unrecognized arguments: 'a\\nb' c"),
    # the restriction is required before any file is opened
    (["verify", "--qubo", "missing.qubo"], "the following arguments are required: --n, --allowed"),
    # both multipliers are read before the row's precondition, with or without a selector
    (["encode", "--n", "3", "--allowed", "1", "--method", "single", "--lambda2", "0"],
     "multiplier must be positive, got 0"),
    (["encode", "--n", "5", "--allowed", "1,3", "--method", "half2", "--lambda", "0"],
     "multiplier must be positive, got 0"),
    # and after the restriction itself
    (["encode", "--n", "3", "--allowed", "5", "--lambda2", "0"],
     "allowed value 5 exceeds n_vars=3"),
    # a sweep reads the temperature, the reads and the seed before its size and range
    (["sweep", "--n", "0", "--r-from", "1", "--r-to", "2", "--temperature", "0", "--reads", "0",
      "--seed", "-1"], "temperature must be positive, got 0"),
    (["sweep", "--n", "4", "--r-from", "1", "--r-to", "2", "--reads", "0", "--seed", "-1",
      "--steps", "1"], "n_reads must be an integer of at least 1, got 0"),
])
def test_usage_errors_keep_their_text(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


FLAGS = {
    "encode": ["--n", "--allowed", "--lambda", "--lambda2", "--method", "--out", "--format"],
    "verify": ["--qubo", "--n", "--allowed"],
    "sweep": ["--n", "--r-from", "--r-to", "--steps", "--temperature", "--reads", "--seed",
              "--lambda", "--out"],
    "table": ["--max-m"],
}


@pytest.mark.parametrize("command", [None, *FLAGS])
def test_help_names_every_command_and_flag(capsys, command):
    prefix = [] if command is None else [command]
    code, out, err = run_cli(capsys, *prefix, "-h")
    assert (code, err) == (0, "")
    words = out.replace(",", " ").split()
    for name in FLAGS if command is None else ["-h", "--help", *FLAGS[command]]:
        assert name in words, (command, name)
    # --help is the same help; after a command, -h is help also after other flags
    spellings = [["--help"]] if command is None else [["--help"], ["--bogus", "-h"]]
    for spelling in spellings:
        assert run_cli(capsys, *prefix, *spelling) == (0, out, "")


def test_joined_and_repeated_flags_parse_as_long_forms():
    long = ["sweep", "--n", "5", "--r-from", "0", "--r-to", "1", "--temperature", "0.2"]
    function, args = parse_args(long)
    assert function == "cmd_sweep"
    assert (args.r_from, args.temperature, args.lambda1) == (F(0), F(1, 5), F(1))
    for spelling in (["sweep", "--n", "5", "--r-from=0", "--r-to", "1", "--temperature", "0.2"],
                     ["sweep", "--n=5", "--r-from", "0", "--r-to=1", "--temperature=0.2"],
                     # a repeated flag: the last one wins
                     [*long[:2], "7", *long[1:]]):
        assert vars(parse_args(spelling)[1]) == vars(args), spelling


def test_process_exit_loses_no_output(capsys, tmp_path, monkeypatch):
    # the process entry freezes the collector before it exits: each stream and
    # file is still complete, and main alone leaves the collector as it was
    monkeypatch.chdir(tmp_path)
    qubofile.save(broken_one_hot(RestrictionSpec(4, (1, 3))), tmp_path / "bad.qubo")
    frozen = gc.get_freeze_count()
    for argv, written in [
        (("sweep", "--n", 16, "--r-from", 3, "--r-to", 4, "--seed", 5, "--out", "f.csv"), "f.csv"),
        (("encode", "--n", 12, "--allowed", "2,5,9", "--method", "onehot", "--out", "f.qubo"),
         "f.qubo"),
        (("sweep", "--n", "x"), None),
        (("verify", "--qubo", "bad.qubo", "--n", 4, "--allowed", "1,3"), None),
    ]:
        spawned = spawn(tmp_path, *argv)
        spawned_file = written and (tmp_path / written).read_text()
        assert run_cli(capsys, *argv) == spawned
        assert (written and (tmp_path / written).read_text()) == spawned_file
    assert spawned[0] == 1 and "verdict: FAIL" in spawned[1]
    assert gc.get_freeze_count() == frozen
    # atexit handlers and weakref.finalize callbacks still run, after the freeze
    program = (
        "import atexit, gc, sys, weakref\n"
        "class Box: pass\n"
        "box = Box()\n"
        "weakref.finalize(box, print, 'finalize ran')\n"
        "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 0))\n"
        "from quborestrict.cli import run\n"
        "run()\n")
    code, out, err = spawn(tmp_path, "table", "--max-m", 3, python=("-c", program))
    assert (code, err) == (0, "")
    assert out.splitlines()[-2:] == ["frozen at exit: True", "finalize ran"]


WRITER_PROBE = """
import _pyio, builtins, os, sys
from quborestrict import cli, qubofile
from quborestrict.core import RestrictionSpec
from quborestrict.encoders import encode_single_value
if sys.argv[1] == "crlf":  # text mode as on Windows, which writes "\\n" as os.linesep
    os.linesep, builtins.open = "\\r\\n", _pyio.open
qubofile.save(encode_single_value(RestrictionSpec(4, (2,))), "f.qubo")
sys.exit(cli.main(["sweep", *sys.argv[2:], "--out", "f.csv"]))
"""


@pytest.mark.parametrize("line_end", ["native", "crlf"])
def test_written_files_are_utf8_with_newline_line_ends(tmp_path, line_end):
    # neither writer takes the locale's encoding or the platform's line end, so under
    # EncodingWarning as an error both run and write the bytes of what they render
    sweep = ("--n", 16, "--r-from", 3, "--r-to", 4, "--steps", 11, "--temperature", 0.2,
             "--reads", 10000, "--seed", 5)
    strict = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    code, _, err = spawn(tmp_path, line_end, *sweep, python=(*strict, "-c", WRITER_PROBE))
    assert (code, err) == (0, "warning: 0.0161 of the mass lies outside sums (3, 4) at R=4\n")
    encoded = encode_single_value(RestrictionSpec(4, (2,)))
    assert (tmp_path / "f.qubo").read_bytes() == qubofile.dumps(encoded).encode()
    assert (tmp_path / "f.csv").read_bytes() == GOLDEN_SWEEP.read_bytes()


# Runs one command in a fresh interpreter and reports, last, whether numpy got
# loaded and which package modules did.
# Standard modules whose import is a large share of start-up and that no command needs
STARTUP_HEAVY = {"dataclasses", "inspect", "typing", "pathlib", "argparse", "gettext", "locale"}

IMPORT_PROBE = """
import sys
before = set(sys.modules)
from quborestrict.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # a usage error or help
    code = exc.code
print(",".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""


SUM_LAW_PROBE = """
import sys
before = set(sys.modules)
from quborestrict.core import expand_squared_affine
from quborestrict.sampler import exact_sum_distribution, fractional_restriction_model
if sys.argv[1] == "twin-free":  # distinct weights: no two bits are twins
    model = expand_squared_affine([(i, i + 1) for i in range(16)], -16, 1)
else:
    model = fractional_restriction_model(16, "37/10")
exact_sum_distribution(model, 0.2)
print(",".join(sorted(set(sys.modules) - before)))
"""


def loaded_modules(cwd, *args, probe=IMPORT_PROBE):
    """Exit code of one command and the modules it adds to ``sys.modules``.

    The command runs under ``python -S`` with this interpreter's
    site-packages on the path, so no ``.pth`` start-up hook can import a
    module first and hide that the command imports it.  ``probe`` is the
    script run with ``args``; the default runs them as a CLI command.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src, env.get("PYTHONPATH"), *site.getsitepackages(), site.getusersitepackages()]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    proc = subprocess.run([sys.executable, "-S", "-c", probe, *map(str, args)], cwd=cwd,
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
        0, "False", {"cli", "core", "sampler"})
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


def test_long_chain_certifies_without_numpy(tmp_path):
    # 22 twin dummies form one class, so the table has 41 rows of 23 energies
    spec_flags = ("--n", 40, "--allowed", ",".join(map(str, range(3, 27))))
    assert probe_imports(tmp_path, "encode", *spec_flags, "--method", "halfchain", "--out",
                         "chain.qubo") == (0, "False", {"cli", "core", "encoders", "qubofile"})
    assert probe_imports(tmp_path, "verify", "--qubo", "chain.qubo", *spec_flags) == (
        0, "False", {"cli", "core", "oracle", "qubofile"})
    code, out, _ = spawn(tmp_path, "verify", "--qubo", "chain.qubo", *spec_flags)
    assert code == 0 and "verdict: PASS" in out.splitlines()


def test_sum_law_loads_numpy_only_off_the_twin_table(tmp_path):
    # the exact sum distribution of a model the table takes is Python floats
    # throughout; a twin-free model sums numpy's per-assignment probabilities
    for model, loads_numpy in (("fractional", False), ("twin-free", True)):
        code, added = loaded_modules(tmp_path, model, probe=SUM_LAW_PROBE)
        assert (code, "numpy" in added) == (0, loads_numpy), model


def test_no_command_loads_dataclasses_typing_or_pathlib(tmp_path):
    spec_flags = ("--n", 9, "--allowed", "2,5,9")
    for expected, argv in [
        (0, ("table", "--max-m", 7)),
        (0, ("sweep", "--n", 16, "--r-from", 3, "--r-to", 4, "--out", "sweep.csv")),
        (0, ("encode", *spec_flags, "--out", "ok.qubo")),
        (0, ("encode", *spec_flags, "--format", "json", "--out", "ok.json")),
        (0, ("verify", "--qubo", "ok.qubo", *spec_flags)),
        (0, ("verify", "--qubo", "ok.json", *spec_flags)),
        # the flags are read without argparse, for a usage error and help too
        (2, ("sweep", "--n", "x")),
        (0, ("encode", "-h")),
    ]:
        code, added = loaded_modules(tmp_path, *argv)
        assert code == expected and "quborestrict.cli" in added, argv
        assert not added & STARTUP_HEAVY, (argv, added & STARTUP_HEAVY)
