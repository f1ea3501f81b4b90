"""Portable serialization of encoded restrictions.

The text format is line-oriented and canonical: coefficients are exact
fraction strings (``-3``, ``1/2``), term lines are sorted by index pair, and
serializing a parsed file reproduces it byte for byte.  A JSON mirror with
the same fields exists for programmatic consumers; the text form is the one
golden files are written against.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Union

from .core import EncodedRestriction, EncodingKind, QuboModel, is_integer

MAGIC = "qubo-restriction v1"

_INTEGER_KEYS = ("n_total", "n_problem", "n_dummies")
_RATIONAL_KEYS = ("lambda1", "residual_energy", "offset")
_REQUIRED_KEYS = ("kind", *_INTEGER_KEYS, *_RATIONAL_KEYS)


class QuboFileError(ValueError):
    """The file is not a well-formed encoded restriction."""


def dumps(encoded: EncodedRestriction) -> str:
    """Canonical text form of an encoded restriction."""
    model = encoded.model
    lines = [
        MAGIC,
        f"kind {encoded.kind.value}",
        f"n_total {model.n_total}",
        f"n_problem {model.n_problem}",
        f"n_dummies {model.n_dummies}",
        f"lambda1 {encoded.lambda1}",
    ]
    if encoded.lambda2 is not None:
        lines.append(f"lambda2 {encoded.lambda2}")
    lines.append(f"residual_energy {encoded.residual_energy}")
    lines.append(f"offset {model.offset}")
    items = sorted(model.coeffs.items())
    lines.append(f"terms {len(items)}")
    for (i, j), q in items:
        lines.append(f"{i} {j} {q}")
    return "\n".join(lines) + "\n"


def _parse_fraction(token: object, context: str) -> Fraction:
    """A text token, or a JSON string or number (floats through their shortest repr)."""
    if isinstance(token, (str, int, float)) and not isinstance(token, bool):
        try:
            return Fraction(str(token))
        except (ValueError, ZeroDivisionError):
            pass
    raise QuboFileError(f"{context}: bad rational {token!r}")


def _parse_int(token: str, context: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise QuboFileError(f"{context}: bad integer {token!r}") from exc


def _integer(value: object, context: str) -> int:
    if not is_integer(value):
        raise QuboFileError(f"{context}: bad integer {value!r}")
    return value


def _build(
    header: dict[str, object], terms: list[tuple[str, object, object, object]]
) -> EncodedRestriction:
    """Validate the fields of either format, given as header values and (where, i, j, q) terms.

    Integers must already be ints (the text parser converts its tokens first),
    rationals may be strings or numbers, and keys and terms must be unique.
    """
    missing = [key for key in _REQUIRED_KEYS if key not in header]
    if missing:
        raise QuboFileError(f"missing header keys: {', '.join(missing)}")
    unknown = set(header) - set(_REQUIRED_KEYS) - {"lambda2"}
    if unknown:
        raise QuboFileError(f"unknown header keys: {', '.join(sorted(unknown))}")
    n_total, n_problem, n_dummies = (_integer(header[key], f"header {key}")
                                     for key in _INTEGER_KEYS)
    lambda1, residual, offset = (_parse_fraction(header[key], f"header {key}")
                                 for key in _RATIONAL_KEYS)
    lambda2 = header.get("lambda2")
    if lambda2 is not None:
        lambda2 = _parse_fraction(lambda2, "header lambda2")
    coeffs: dict[tuple[int, int], Fraction] = {}
    for where, i, j, q in terms:
        key = (_integer(i, where), _integer(j, where))
        if key in coeffs:
            raise QuboFileError(f"{where}: duplicate term {key}")
        coeffs[key] = _parse_fraction(q, where)
    try:
        kind = EncodingKind(header["kind"])
    except ValueError as exc:
        raise QuboFileError(f"unknown encoding kind {header['kind']!r}") from exc
    if n_dummies != n_total - n_problem:
        raise QuboFileError(f"inconsistent file contents: n_dummies={n_dummies} disagrees "
                            f"with n_total - n_problem = {n_total - n_problem}")
    try:
        model = QuboModel(
            n_total=n_total, n_problem=n_problem, coeffs=coeffs, offset=offset)
        return EncodedRestriction(
            model=model,
            kind=kind,
            residual_energy=residual,
            lambda1=lambda1,
            lambda2=lambda2,
        )
    except ValueError as exc:
        raise QuboFileError(f"inconsistent file contents: {exc}") from exc


def loads(text: str) -> EncodedRestriction:
    """Parse the canonical text form."""
    lines = text.splitlines()
    if not lines or lines[0] != MAGIC:
        raise QuboFileError(f"first line must be {MAGIC!r}")
    header: dict[str, object] = {}
    cursor = 1
    n_terms = None
    while cursor < len(lines):
        line = lines[cursor]
        cursor += 1
        key, _, value = line.partition(" ")
        if not key or not value:
            raise QuboFileError(f"line {cursor}: expected 'key value', got {line!r}")
        if key == "terms":
            n_terms = _parse_int(value, f"line {cursor}")
            break
        if key in header:
            raise QuboFileError(f"line {cursor}: duplicate key {key!r}")
        header[key] = _parse_int(value, f"header {key}") if key in _INTEGER_KEYS else value
    if n_terms is None:
        raise QuboFileError("truncated file: no terms section")

    term_lines = lines[cursor:]
    if len(term_lines) != n_terms:
        raise QuboFileError(
            f"terms section announces {n_terms} lines but {len(term_lines)} follow")
    terms = []
    for number, line in enumerate(term_lines, cursor + 1):
        where = f"line {number}"
        parts = line.split()
        if len(parts) != 3:
            raise QuboFileError(f"{where}: expected 'i j coefficient', got {line!r}")
        terms.append((where, _parse_int(parts[0], where), _parse_int(parts[1], where), parts[2]))
    return _build(header, terms)


def dumps_json(encoded: EncodedRestriction) -> str:
    """JSON mirror of the text form (same fields, exact fraction strings)."""
    model = encoded.model
    payload = {
        "format": MAGIC,
        "kind": encoded.kind.value,
        "n_total": model.n_total,
        "n_problem": model.n_problem,
        "n_dummies": model.n_dummies,
        "lambda1": str(encoded.lambda1),
        "lambda2": None if encoded.lambda2 is None else str(encoded.lambda2),
        "residual_energy": str(encoded.residual_energy),
        "offset": str(model.offset),
        "terms": [[i, j, str(q)] for (i, j), q in sorted(model.coeffs.items())],
    }
    return json.dumps(payload, indent=2) + "\n"


def loads_json(text: str) -> EncodedRestriction:
    """Parse the JSON mirror; it is held to the same rules as the text form."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise QuboFileError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != MAGIC:
        raise QuboFileError(f"JSON payload must declare format {MAGIC!r}")
    header = {key: value for key, value in payload.items() if key not in ("format", "terms")}
    raw_terms = payload.get("terms")
    if not isinstance(raw_terms, list):
        raise QuboFileError("JSON payload needs a 'terms' list")
    terms = []
    for number, entry in enumerate(raw_terms):
        where = f"terms entry {number}"
        if not (isinstance(entry, list) and len(entry) == 3):
            raise QuboFileError(f"{where}: expected [i, j, coefficient], got {entry!r}")
        terms.append((where, *entry))
    return _build(header, terms)


def load(path: Union[str, Path]) -> EncodedRestriction:
    """Read either serialization format, sniffing JSON by its leading brace."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return loads_json(text)
    return loads(text)


def save(encoded: EncodedRestriction, path: Union[str, Path], fmt: str = "text") -> None:
    if fmt == "text":
        Path(path).write_text(dumps(encoded))
    elif fmt == "json":
        Path(path).write_text(dumps_json(encoded))
    else:
        raise ValueError(f"unknown format {fmt!r}")
