"""Portable serialization of encoded restrictions.

The text format is line-oriented and canonical: coefficients are exact
fraction strings (``-3``, ``1/2``), term lines hold the nonzero terms sorted
by index pair, and serializing a parsed file reproduces it byte for byte.
The parser accepts only that form: an integer is ASCII ``0`` or
``-?[1-9][0-9]*`` and a rational is the ``str`` of its own Fraction, so
``06``, ``+1``, ``1_0``, ``2/4`` and ``0.5`` are errors.  A JSON mirror with
the same fields exists for programmatic consumers, held to the same token
rules; it also takes rationals as JSON numbers, terms in any order, and
zero terms, which it drops.  The text form is the one golden files are
written against.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from itertools import islice, repeat, starmap
from pathlib import Path
from typing import Iterator, Optional, Union

from .core import (
    MAX_LITERAL_DIGITS,
    EncodedRestriction,
    EncodingKind,
    QuboFileError,
    QuboModel,
    as_fraction,
    common_denominator,
    is_integer,
)

MAGIC = "qubo-restriction v1"

_INTEGER_KEYS = ("n_total", "n_problem", "n_dummies")
_RATIONAL_KEYS = ("lambda1", "residual_energy", "offset")
_REQUIRED_KEYS = ("kind", *_INTEGER_KEYS, *_RATIONAL_KEYS)

# canonical tokens of at most MAX_LITERAL_DIGITS digits per integer
_DIGITS = f"[0-9]{{0,{MAX_LITERAL_DIGITS - 1}}}"
_INTEGER = re.compile(f"-?[1-9]{_DIGITS}|0")
_RATIONAL = re.compile(f"(-?[1-9]{_DIGITS}|0)(?:/([1-9]{_DIGITS}))?")


def _terms(model: QuboModel) -> Iterator[tuple[int, int, str]]:
    """The model's terms in key order, each coefficient as the text of its Fraction."""
    scale = model.scale
    for (i, j), q in model.int_coeffs.items():
        common = math.gcd(q, scale)
        yield i, j, str(q // common) if common == scale else f"{q // common}/{scale // common}"


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
    lines.append(f"terms {len(model.int_coeffs)}")
    lines.extend(f"{i} {j} {q}" for i, j, q in _terms(model))
    return "\n".join(lines) + "\n"


def _canonical(token: object) -> Optional[tuple[int, int]]:
    """Numerator and denominator of a token that is the ``str`` of its own Fraction, else None."""
    match = _RATIONAL.fullmatch(token) if isinstance(token, str) else None
    if match is None:
        return None
    num, den = int(match[1]), int(match[2] or 1)
    return (num, den) if match[2] is None or (den > 1 and math.gcd(num, den) == 1) else None


def _rational(token: object, context: str) -> tuple[int, int]:
    """Numerator and denominator of a canonical token, or of a JSON number.

    A float goes through its shortest repr, so ``0.5`` reads as 1/2.
    """
    ratio = _canonical(token)
    if ratio is None and isinstance(token, (int, float)) and not isinstance(token, bool):
        try:
            value = as_fraction(str(token))
            ratio = value.numerator, value.denominator
        except ValueError:  # nan, inf or too many digits
            pass
    if ratio is None:
        raise QuboFileError(f"{context}: bad rational {token!r}")
    return ratio


def _integer(value: object, context: str) -> int:
    if not is_integer(value):
        raise QuboFileError(f"{context}: bad integer {value!r}")
    return value


def _build(header: dict[str, object], keys: list[tuple[int, int]],
           ratios: list[tuple[int, int]], top: Optional[int] = None) -> EncodedRestriction:
    """Validate the fields of either format, given as header values and parsed terms.

    Integers must already be ints; term k is the (numerator, denominator)
    pair ``ratios[k]`` at the unique key ``keys[k]``.  ``top``, if given, is
    the largest index of nonzero terms at ordered keys in increasing order.
    """
    missing = [key for key in _REQUIRED_KEYS if key not in header]
    if missing:
        raise QuboFileError(f"missing header keys: {', '.join(missing)}")
    unknown = set(header) - set(_REQUIRED_KEYS) - {"lambda2"}
    if unknown:
        raise QuboFileError(f"unknown header keys: {', '.join(sorted(unknown))}")
    n_total, n_problem, n_dummies = (_integer(header[key], f"header {key}")
                                     for key in _INTEGER_KEYS)
    lambda1, residual, offset = (_rational(header[key], f"header {key}")
                                 for key in _RATIONAL_KEYS)
    lambda2 = header.get("lambda2")
    if lambda2 is not None:
        lambda2 = Fraction(*_rational(lambda2, "header lambda2"))
    try:
        kind = EncodingKind(header["kind"])
    except ValueError as exc:
        raise QuboFileError(f"unknown encoding kind {header['kind']!r}") from exc
    if n_dummies != n_total - n_problem:
        raise QuboFileError(f"inconsistent file contents: n_dummies={n_dummies} disagrees "
                            f"with n_total - n_problem = {n_total - n_problem}")
    try:
        # coefficients repeat, so each distinct one is scaled once
        distinct = set(ratios)
        scale = common_denominator([offset[1], *(den for _, den in distinct)])
        scaled = {ratio: ratio[0] * (scale // ratio[1]) for ratio in distinct}
        model = QuboModel._scaled(
            n_total, n_problem, scale, dict(zip(keys, map(scaled.__getitem__, ratios))),
            offset[0] * (scale // offset[1]),
            check=top is None or top >= n_total)
        return EncodedRestriction(
            model=model,
            kind=kind,
            residual_energy=Fraction(*residual),
            lambda1=Fraction(*lambda1),
            lambda2=lambda2,
        )
    except ValueError as exc:
        raise QuboFileError(f"inconsistent file contents: {exc}") from exc


def _terms_of(lines: list[str], first: int) -> tuple[list[tuple[int, int]],
                                                     list[tuple[int, int]], int]:
    """Keys and (numerator, denominator) pairs of term lines, and the largest index.

    The lines must be canonical, as ``dumps`` writes them: ``i j q`` with
    ``0 <= i <= j``, keys increasing and q nonzero.  Each distinct token is
    read once and the rest are C-level passes over the section, so a large
    file parses at a small cost per term.
    """
    if not lines:
        return [], [], -1
    tokens = " ".join(lines).split(" ")
    rows, cols, coefficients = tokens[0::3], tokens[1::3], tokens[2::3]
    indices = {name: int(name) if _INTEGER.fullmatch(name) else -1
               for name in set(rows).union(cols)}
    ratios = {token: _canonical(token) for token in set(coefficients)}
    keys = list(zip(map(indices.__getitem__, rows), map(indices.__getitem__, cols)))
    if not (set(map(str.count, lines, repeat(" "))) == {2} and min(indices.values()) >= 0
            and None not in ratios.values() and (0, 1) not in ratios.values()
            and all(starmap(operator.le, keys))
            and all(map(operator.lt, keys, islice(keys, 1, None)))):
        raise _first_bad_line(lines, first)
    return keys, list(map(ratios.__getitem__, coefficients)), max(indices.values())


def _first_bad_line(lines: list[str], first: int) -> QuboFileError:
    """The error naming the first term line, counted from line ``first``, that is not canonical."""
    previous = (-1, -1)
    for number, line in enumerate(lines, first):
        parts = line.split(" ")
        key = tuple(int(part) if _INTEGER.fullmatch(part) else -1 for part in parts[:2])
        if (len(parts) != 3 or not 0 <= key[0] <= key[1] or key <= previous
                or _canonical(parts[2]) in (None, (0, 1))):
            return QuboFileError(f"line {number}: expected 'i j coefficient' with a nonzero "
                                 f"coefficient, 0 <= i <= j and keys in increasing order, "
                                 f"got {line!r}")
        previous = key
    return QuboFileError("the terms section is not canonical")


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
        if key in ("terms", *_INTEGER_KEYS):
            if not _INTEGER.fullmatch(value):
                where = f"line {cursor}" if key == "terms" else f"header {key}"
                raise QuboFileError(f"{where}: bad integer {value!r}")
            value = int(value)
        if key == "terms":
            n_terms = value
            break
        if key in header:
            raise QuboFileError(f"line {cursor}: duplicate key {key!r}")
        header[key] = value
    if n_terms is None:
        raise QuboFileError("truncated file: no terms section")

    term_lines = lines[cursor:]
    if len(term_lines) != n_terms:
        raise QuboFileError(
            f"terms section announces {n_terms} lines but {len(term_lines)} follow")
    keys, ratios, top = _terms_of(term_lines, cursor + 1)
    return _build(header, keys, ratios, top)


def dumps_json(encoded: EncodedRestriction) -> str:
    """JSON mirror of the text form (same fields, exact fraction strings)."""
    import json

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
        "terms": [list(term) for term in _terms(model)],
    }
    return json.dumps(payload, indent=2) + "\n"


def loads_json(text: str) -> EncodedRestriction:
    """Parse the JSON mirror; it is held to the same rules as the text form."""
    import json

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
    terms: dict[tuple[int, int], tuple[int, int]] = {}
    for number, entry in enumerate(raw_terms):
        where = f"terms entry {number}"
        if not (isinstance(entry, list) and len(entry) == 3):
            raise QuboFileError(f"{where}: expected [i, j, coefficient], got {entry!r}")
        key = (_integer(entry[0], where), _integer(entry[1], where))
        if key in terms:
            raise QuboFileError(f"{where}: duplicate term {key}")
        terms[key] = _rational(entry[2], where)
    return _build(header, list(terms), list(terms.values()))


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
