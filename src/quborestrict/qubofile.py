"""Portable serialization of encoded restrictions.

The text format is line-oriented and canonical: coefficients are exact
fraction strings (``-3``, ``1/2``), term lines hold the nonzero terms sorted
by index pair, and serializing a parsed file reproduces it byte for byte.
The parser accepts only that form.  The file is UTF-8, every line ends in
``\\n`` alone (the last line too), and after the ``qubo-restriction v1``
line the header keys come in the order ``kind``, ``n_total``,
``n_problem``, ``n_dummies``, ``lambda1``, ``lambda2`` (present only for
the two-term encodings), ``residual_energy``, ``offset``, followed by the
``terms`` count and the term lines.  An integer is ASCII ``0`` or
``-?[1-9][0-9]*`` and a rational is the ``str`` of its own Fraction, so
``06``, ``+1``, ``1_0``, ``2/4`` and ``0.5`` are errors.  A JSON mirror with
the same fields exists for programmatic consumers, and its reader accepts
what ``dumps_json`` writes: each rational is a canonical string, and each
term an ``[i, j, "q"]`` entry under the rule of a text term line.  The text
form is the one golden files are written against.
"""

from __future__ import annotations

import functools
import gc
import math
import operator
import re
from bisect import bisect_left
from fractions import Fraction
from itertools import islice, repeat, starmap

from .core import (
    MAX_LITERAL_DIGITS,
    EncodedRestriction,
    EncodingKind,
    ParameterError,
    QuboFileError,
    QuboModel,
    QuboRestrictError,
    as_printable,
    common_denominator,
    is_integer,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from os import PathLike
    from typing import Callable, Iterator, Optional, Union

MAGIC = "qubo-restriction v1"

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


def _canonical(token: object) -> Optional[tuple[int, int]]:
    """Numerator and denominator of a token that is the ``str`` of its own Fraction, else None."""
    match = _RATIONAL.fullmatch(token) if isinstance(token, str) else None
    if match is None:
        return None
    num, den = int(match[1]), int(match[2] or 1)
    return (num, den) if match[2] is None or (den > 1 and math.gcd(num, den) == 1) else None


def _fraction(token: object, context: str) -> Fraction:
    ratio = _canonical(token)
    if ratio is None:
        raise QuboFileError(f"{context}: bad rational {token!r}")
    return Fraction(*ratio)


def _integer(value: object, context: str) -> int:
    if not is_integer(value):
        raise QuboFileError(f"{context}: bad integer {value!r}")
    return value


def _kind(value: object, context: str) -> EncodingKind:
    try:
        return EncodingKind(value)
    except ValueError as exc:
        raise QuboFileError(f"unknown encoding kind {value!r}") from exc


# The header fields in file order: each key with the reader of its value and
# the value as the writers put it.  Only lambda2 may be absent (None).
_HEADER = {
    "kind": (_kind, lambda encoded: encoded.kind.value),
    "n_total": (_integer, lambda encoded: encoded.model.n_total),
    "n_problem": (_integer, lambda encoded: encoded.model.n_problem),
    "n_dummies": (_integer, lambda encoded: encoded.model.n_dummies),
    "lambda1": (_fraction, lambda encoded: str(encoded.lambda1)),
    "lambda2": (lambda token, context: None if token is None else _fraction(token, context),
                lambda encoded: None if encoded.lambda2 is None else str(encoded.lambda2)),
    "residual_energy": (_fraction, lambda encoded: str(encoded.residual_energy)),
    "offset": (_fraction, lambda encoded: str(encoded.model.offset)),
}


def dumps(encoded: EncodedRestriction) -> str:
    """Canonical text form of an encoded restriction."""
    model = encoded.model
    header = {key: write(encoded) for key, (_, write) in _HEADER.items()}
    lines = [MAGIC, *(f"{key} {value}" for key, value in header.items() if value is not None)]
    lines.append(f"terms {len(model.int_coeffs)}")
    lines.extend(f"{i} {j} {q}" for i, j, q in _terms(model))
    return "\n".join(lines) + "\n"


def _build(header: dict[str, object], keys: list[tuple[int, int]],
           ratios: list[tuple[int, int]], top: int) -> EncodedRestriction:
    """Validate header values and the terms of :func:`_read_terms`, from either format.

    Integers must already be ints.
    """
    missing = [key for key in _HEADER if key not in header and key != "lambda2"]
    if missing:
        raise QuboFileError(f"missing header keys: {', '.join(missing)}")
    unknown = set(header) - set(_HEADER)
    if unknown:
        raise QuboFileError(
            f"unknown header keys: {', '.join(map(as_printable, sorted(unknown)))}")
    values = {key: read(header[key], f"header {key}")
              for key, (read, _) in _HEADER.items() if key in header}
    n_total, n_problem, offset = values["n_total"], values["n_problem"], values["offset"]
    if values["n_dummies"] != n_total - n_problem:
        raise QuboFileError(f"inconsistent file contents: n_dummies={values['n_dummies']} "
                            f"disagrees with n_total - n_problem = {n_total - n_problem}")
    try:
        # coefficients repeat, so each distinct one is scaled once
        distinct = set(ratios)
        scale = common_denominator([offset.denominator, *(den for _, den in distinct)])
        scaled = {ratio: ratio[0] * (scale // ratio[1]) for ratio in distinct}
        model = QuboModel._scaled(
            n_total, n_problem, scale, dict(zip(keys, map(scaled.__getitem__, ratios))),
            offset.numerator * (scale // offset.denominator),
            check=top >= n_total)
        return EncodedRestriction(
            model=model,
            kind=values["kind"],
            residual_energy=values["residual_energy"],
            lambda1=values["lambda1"],
            lambda2=values.get("lambda2"),
        )
    except QuboRestrictError as exc:
        raise QuboFileError(f"inconsistent file contents: {exc}") from exc


def _read_terms(lines: list[str]) -> Optional[tuple[list[tuple[int, int]],
                                                    list[tuple[int, int]], int]]:
    """Keys and (numerator, denominator) pairs of term lines and the largest index, or None.

    This is the term-line rule: each line is ``i j q`` as ``dumps`` writes
    it, with ``0 <= i <= j``, keys increasing and q nonzero; None if any line
    breaks it.  Each distinct token is read once and the rest are C-level
    passes over the section, so a large file parses at a small cost per term.
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
        return None
    return keys, list(map(ratios.__getitem__, coefficients)), max(indices.values())


def _first_bad(lines: list[str]) -> int:
    """The index of the first line that breaks the term-line rule: as the rule holds for
    every prefix of a canonical section, the shortest prefix that breaks it ends there."""
    return bisect_left(range(1, len(lines) + 1), True,
                       key=lambda size: _read_terms(lines[:size]) is None)


def _collector_paused(read: Callable[[str], EncodedRestriction]
                      ) -> Callable[[str], EncodedRestriction]:
    """``read`` with the garbage collector paused, which would walk a parse's fresh tuples and
    lists again and again, freeing none; the caller's setting comes back, also on a bad file."""
    @functools.wraps(read)
    def paused(text: str) -> EncodedRestriction:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return read(text)
        finally:
            if enabled:
                gc.enable()
    return paused


@_collector_paused
def loads(text: str) -> EncodedRestriction:
    """Parse the canonical text form."""
    lines = text.split("\n")
    if lines[0] != MAGIC:
        raise QuboFileError(f"first line must be {MAGIC!r}")
    if lines.pop():
        raise QuboFileError("the last line does not end in a newline")
    header: dict[str, object] = {}
    n_terms = None
    for cursor, line in enumerate(islice(lines, 1, None), 2):
        key, _, value = line.partition(" ")
        if not key or not value:
            raise QuboFileError(f"line {cursor}: expected 'key value', got {line!r}")
        if key == "terms" or _HEADER.get(key, (None,))[0] is _integer:
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
    terms = _read_terms(term_lines)
    if terms is None:
        bad = _first_bad(term_lines)
        raise QuboFileError(f"line {cursor + 1 + bad}: expected 'i j coefficient' with a "
                            f"nonzero coefficient, 0 <= i <= j and keys in increasing "
                            f"order, got {term_lines[bad]!r}")
    encoded = _build(header, *terms)
    if list(header) != [key for key in _HEADER if key in header]:
        raise QuboFileError(f"header keys out of order: expected {', '.join(_HEADER)}")
    return encoded


def dumps_json(encoded: EncodedRestriction) -> str:
    """JSON mirror of the text form (same fields, exact fraction strings)."""
    import json

    payload = {
        "format": MAGIC,
        **{key: write(encoded) for key, (_, write) in _HEADER.items()},
        "terms": [list(term) for term in _terms(encoded.model)],
    }
    return json.dumps(payload, indent=2) + "\n"


@_collector_paused
def loads_json(text: str) -> EncodedRestriction:
    """Parse the JSON mirror as ``dumps_json`` writes it, held to the rules of the text form."""
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
    # an entry [i, j, q] is the text term line 'i j q'; any other entry is '', which breaks it
    lines = ["{} {} {}".format(*entry) if isinstance(entry, list)
             and list(map(type, entry)) == [int, int, str] else "" for entry in raw_terms]
    terms = _read_terms(lines)
    if terms is None:
        bad = _first_bad(lines)
        where, entry = f"terms entry {bad}", raw_terms[bad]
        if isinstance(entry, list) and len(entry) == 3:  # a bad index says so
            for index in entry[:2]:
                _integer(index, where)
        raise QuboFileError(f"{where}: expected [i, j, coefficient] with a nonzero canonical "
                            f"coefficient, 0 <= i <= j and keys increasing, got {entry!r}")
    return _build(header, *terms)


def load(path: Union[str, PathLike[str]]) -> EncodedRestriction:
    """Read either serialization format, sniffing JSON by its leading brace.

    The bytes are decoded as UTF-8 with no newline translation, so a line
    end other than ``\\n`` reaches the parser and is refused there.  Neither
    format starts with a byte-order mark, and a file that does is refused before parsing.
    """
    try:
        with open(path, "rb") as file:
            text = file.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise QuboFileError(f"{as_printable(str(path))}: not UTF-8 text: {exc}") from exc
    if text.startswith("\ufeff"):
        raise QuboFileError(f"{as_printable(str(path))}: starts with a UTF-8 byte-order mark")
    if text.lstrip().startswith("{"):
        return loads_json(text)
    return loads(text)


def save(encoded: EncodedRestriction, path: Union[str, PathLike[str]], fmt: str = "text") -> None:
    if fmt not in ("text", "json"):
        raise ParameterError(f"unknown format {fmt!r}")
    text = dumps(encoded) if fmt == "text" else dumps_json(encoded)
    with open(path, "w", encoding="utf-8", newline="\n") as file:
        file.write(text)
