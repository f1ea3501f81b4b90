"""Fuzz the CLI with malformed spec JSON and penalty files.

Whatever the input, ``encode`` and ``verify`` must exit 0, 1 or 2, and an
exit 2 must print one ``error:`` line, never a traceback.  Drawn integers
are at most 12 and drawn strings at most 5 characters; the fixed tokens add
non-canonical integers and fractions, and literals whose exponent or digits
would build a gigantic int if they were not refused as text first.  Text
penalty files also draw their line separator, and some carry bytes that are
not UTF-8.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from quborestrict.cli import main

from helpers import SEPARATORS, TOKENS

SCALARS = (st.none() | st.booleans() | st.integers(-2, 12) | TOKENS
           | st.floats(-20, 20) | st.sampled_from([float("nan"), float("inf")]))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TOKENS, inner, max_size=3),
    max_leaves=6)
METHODS = st.sampled_from(["auto", "single", "onehot", "linear", "log", "half2", "halfchain",
                           "reduced"])
SPEC = ["--n", "5", "--allowed", "1,2,4"]
NOT_UTF8 = st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])  # stray, cut short, surrogate
FUZZ = settings(deadline=None, max_examples=150)


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag
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


@st.composite
def spec_payloads(draw):
    """A spec dict with some keys dropped, retyped or added."""
    payload = {"n_vars": 5, "allowed": [1, 2, 4], "lambda1": "1/2", "lambda2": 3}
    for key in list(payload):
        action = draw(st.sampled_from(["keep", "keep", "drop", "replace"]))
        if action == "drop":
            del payload[key]
        elif action == "replace":
            payload[key] = draw(JSON_VALUES)
    if draw(st.booleans()):
        payload[draw(TOKENS)] = draw(JSON_VALUES)
    return draw(st.sampled_from([payload, draw(JSON_VALUES)]))


@FUZZ
@given(spec_payloads(), METHODS)
def test_malformed_spec_json(payload, method):
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps(payload))
        assert_clean_exit(*run(["encode", "--spec-json", str(spec), "--method", method]))
        (Path(tmp) / "ok.qubo").write_text(encoded_file(Path(tmp), "text"))
        assert_clean_exit(*run(["verify", "--qubo", str(Path(tmp) / "ok.qubo"),
                                "--spec-json", str(spec)]))


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
            key = data.draw(st.sampled_from(sorted(payload) + ["extra"]))
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
