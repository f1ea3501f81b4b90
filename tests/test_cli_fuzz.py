"""Fuzz the CLI with malformed penalty files, text and JSON, and argument lists.

Whatever the input, every command must exit 0, 1 or 2, and an exit 2 must
print one ``error:`` line, never a traceback.  Drawn integers
are at most 12 and drawn strings at most 5 characters; the fixed tokens add
non-canonical integers and fractions, and literals whose exponent or digits
would build a gigantic int if they were not refused as text first.  Text
penalty files also draw their line separator, and some carry bytes that are
not UTF-8; JSON penalty files gain header keys drawn from the tokens.
Argument lists mix the commands, full flag names, ``-h``, ``--``, small
values, ``--flag=value`` and junk.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from quborestrict.cli import COMMANDS, main

from helpers import SEPARATORS, TOKENS

SCALARS = (st.none() | st.booleans() | st.integers(-2, 12) | TOKENS
           | st.floats(-20, 20) | st.sampled_from([float("nan"), float("inf")]))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TOKENS, inner, max_size=3),
    max_leaves=6)
SPEC = ["--n", "5", "--allowed", "1,2,4"]
NOT_UTF8 = st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])  # stray, cut short, surrogate
FUZZ = settings(deadline=None, max_examples=150)


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error or help
            code = exc.code
    return code, err.getvalue()


def assert_clean_exit(code: int, err: str) -> None:
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("error:"), err


def encoded_file(directory: Path, fmt: str) -> str:
    path = directory / f"good.{fmt}"
    code, _ = run(["encode", *SPEC, "--method", "onehot", "--format", fmt, "--out", str(path)])
    assert code == 0
    return path.read_text()


@FUZZ
@given(st.data())
def test_malformed_text_penalty_file(data):
    with tempfile.TemporaryDirectory() as tmp:
        lines = encoded_file(Path(tmp), "text").splitlines()
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(lines) - 1))
            action = data.draw(st.sampled_from(["token", "drop", "copy", "insert"]))
            if action == "token":
                tokens = lines[at].split(" ")
                tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(TOKENS)
                lines[at] = " ".join(tokens)
            elif action == "drop":
                del lines[at]
            elif action == "copy":
                lines.insert(at, lines[data.draw(st.integers(0, len(lines) - 1))])
            else:
                lines.insert(at, " ".join(data.draw(st.lists(TOKENS, max_size=3))))
            if not lines:
                break
        separator = data.draw(SEPARATORS)
        raw = (separator.join(lines) + data.draw(st.sampled_from([separator, ""]))).encode()
        if data.draw(st.integers(0, 4)) == 0:  # bytes that are not UTF-8
            at = data.draw(st.integers(0, len(raw)))
            raw = raw[:at] + data.draw(NOT_UTF8) + raw[at:]
        path = Path(tmp) / "bad.qubo"
        path.write_bytes(raw)
        assert_clean_exit(*run(["verify", "--qubo", str(path), *SPEC]))


@FUZZ
@given(st.data())
def test_malformed_json_penalty_file(data):
    with tempfile.TemporaryDirectory() as tmp:
        payload = json.loads(encoded_file(Path(tmp), "json"))
        for _ in range(data.draw(st.integers(1, 3))):
            key = data.draw(st.sampled_from(sorted(payload)) | TOKENS)
            action = data.draw(st.sampled_from(["replace", "drop", "term"]))
            if action == "drop":
                payload.pop(key, None)
            elif action == "term" and isinstance(payload.get("terms"), list) and payload["terms"]:
                terms = payload["terms"]
                at = data.draw(st.integers(0, len(terms) - 1))
                terms[at] = data.draw(st.sampled_from([
                    terms[data.draw(st.integers(0, len(terms) - 1))],
                    data.draw(JSON_VALUES),
                    [data.draw(SCALARS) for _ in range(data.draw(st.integers(2, 4)))],
                ]))
            else:
                payload[key] = data.draw(JSON_VALUES)
        path = Path(tmp) / "bad.json"
        path.write_text(json.dumps(payload))
        assert_clean_exit(*run(["verify", "--qubo", str(path), *SPEC]))


FLAG_NAMES = sorted({flag for _, _, flags in COMMANDS.values() for flag, _, _, _ in flags})
# small enough that no command runs long; the files are made in each example's directory
FLAG_VALUES = st.sampled_from([
    "0", "1", "2", "4", "-1", "1/2", "0.2", "-0.5", "1e3", "nan", "inf", "x", "", "1,2",
    "1,2,4", "onehot", "half2", "json", "ok.qubo", "out", ".", "-h", "--"])
WORDS = st.one_of(
    st.sampled_from([*COMMANDS, *FLAG_NAMES, "-h", "--help", "--", "=", "-"]),
    FLAG_VALUES,
    st.builds("{}={}".format, st.sampled_from(FLAG_NAMES), FLAG_VALUES),
    st.text(max_size=5))
VALID_ARGVS = [
    ["encode", *SPEC, "--method", "onehot"],
    ["verify", "--qubo", "ok.qubo", *SPEC],
    ["sweep", "--n", "4", "--r-from", "1", "--r-to", "2", "--steps", "3", "--reads", "50"],
    ["table", "--max-m", "4"],
]


@st.composite
def argument_lists(draw):
    """A valid command line with flags and words of ``WORDS`` inserted, put in place of
    others or dropped."""
    argv = list(draw(st.sampled_from(VALID_ARGVS)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        action = draw(st.sampled_from(["flag", "insert", "replace", "drop"]))
        if action == "flag":
            argv[at:at] = [draw(st.sampled_from(FLAG_NAMES)), draw(FLAG_VALUES)]
        elif action == "insert" or at == len(argv):
            argv.insert(at, draw(WORDS))
        elif action == "replace":
            argv[at] = draw(WORDS)
        else:
            del argv[at]
    return argv


@settings(deadline=None, max_examples=300)
@given(argument_lists())
def test_argument_lists(argv):
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "ok.qubo").write_text(encoded_file(Path(tmp), "text"))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            assert_clean_exit(*run(argv))
        finally:
            os.chdir(cwd)
