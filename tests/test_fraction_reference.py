"""The integer-scaled model against the Fraction formulas it replaced.

A model keeps ints over one scale; these tests rebuild every coefficient
with one ``Fraction`` per term, as the code did before, and require the same
coefficients, offset, key order and file bytes from the fast paths:
``expand_squared_affine``, ``combine``, ``dumps``/``dumps_json`` and
``loads``/``loads_json``.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from quborestrict.core import (
    EncodedRestriction,
    EncodingKind,
    QuboFileError,
    QuboModel,
    combine,
    expand_squared_affine,
)
from quborestrict.qubofile import dumps, dumps_json, loads, loads_json

HUGE = 10**18


def reference_square(terms, constant, lam):
    """``lam * (sum a_i x_i + c)**2`` as a dict of nonzero Fractions and an offset."""
    coeffs = {}
    for i, a in terms:
        coeffs[(i, i)] = lam * a * (a + 2 * constant)
    for (i, a), (j, b) in itertools.combinations(terms, 2):
        coeffs[(min(i, j), max(i, j))] = 2 * lam * a * b
    return {key: q for key, q in sorted(coeffs.items()) if q}, lam * constant * constant


def reference_sum(*parts):
    """The sum of several (coefficients, offset) pairs, zeros dropped, keys sorted."""
    coeffs, offset = {}, F(0)
    for part, part_offset in parts:
        offset += part_offset
        for key, q in part.items():
            coeffs[key] = coeffs.get(key, F(0)) + q
    return {key: q for key, q in sorted(coeffs.items()) if q}, offset


def reference_text(encoded):
    """The canonical text form, printed from Fractions."""
    model = encoded.model
    lines = ["qubo-restriction v1", f"kind {encoded.kind.value}", f"n_total {model.n_total}",
             f"n_problem {model.n_problem}", f"n_dummies {model.n_dummies}",
             f"lambda1 {encoded.lambda1}"]
    if encoded.lambda2 is not None:
        lines.append(f"lambda2 {encoded.lambda2}")
    lines += [f"residual_energy {encoded.residual_energy}", f"offset {model.offset}",
              f"terms {len(model.coeffs)}"]
    lines += [f"{i} {j} {q}" for (i, j), q in sorted(model.coeffs.items())]
    return "\n".join(lines) + "\n"


def reference_parse(text):
    """Coefficients and offset of a text file, one ``Fraction(str)`` per term."""
    lines = text.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("terms "))
    offset = next(F(line.split()[1]) for line in lines if line.startswith("offset "))
    coeffs = {}
    for line in lines[start + 1:]:
        i, j, q = line.split()
        coeffs[(int(i), int(j))] = F(q)
    return coeffs, offset


def assert_matches(model, coeffs, offset):
    assert model.coeffs == coeffs
    assert list(model.coeffs) == list(coeffs)
    assert model.offset == offset
    # the scale is always the least common denominator
    assert model.scale == math.lcm(offset.denominator, *(q.denominator for q in coeffs.values()))
    assert all(model.int_coeffs.values())


# rationals of every size: small with small denominators, multiples of 10**18 and
# more, and fractions whose numerator and denominator pass 10**18
RATIONALS = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(lambda k, d: F(k * HUGE, d), st.integers(-5, 5), st.integers(1, 7)),
    st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**25)),
)
MULTIPLIERS = st.one_of(
    st.fractions(min_value=F(1, 9), max_value=100, max_denominator=9),
    st.sampled_from([F(1), F(1, 7), F(HUGE), F(HUGE, 3), F(10**30 + 1, 10**20)]),
    st.builds(F, st.integers(1, 10**40), st.integers(1, 10**25)),
)


@st.composite
def affine_forms(draw, n_total=8):
    """Distinct indices below ``n_total`` in any order, each with a rational weight."""
    indices = draw(st.permutations(range(n_total)))[:draw(st.integers(0, n_total))]
    return [(i, draw(RATIONALS)) for i in indices], draw(RATIONALS), draw(MULTIPLIERS)


FAST = settings(deadline=None, max_examples=100)


@FAST
@given(affine_forms())
def test_expand_matches_the_fraction_formulas(form):
    terms, constant, lam = form
    model = expand_squared_affine(terms, constant, lam, n_total=8, n_problem=5)
    assert_matches(model, *reference_square(terms, constant, lam))
    assert (model.n_total, model.n_problem) == (8, 5)


@FAST
@given(affine_forms(), affine_forms(), affine_forms())
def test_combine_matches_the_fraction_sums(first, second, third):
    forms = (first, second, third)
    models = [expand_squared_affine(*form, n_total=8, n_problem=5) for form in forms]
    assert_matches(combine(*models), *reference_sum(*map(reference_square, *zip(*forms))))
    # a model and its negation cancel to nothing, with the scale back at 1
    negated = QuboModel(8, 5, {key: -q for key, q in models[0].coeffs.items()}, -models[0].offset)
    assert_matches(combine(models[0], models[1], negated), *reference_square(*second))
    assert combine(models[0], negated) == QuboModel(8, 5, {})


@FAST
@given(affine_forms(), st.data())
def test_files_match_the_fraction_formulas(form, data):
    model = expand_squared_affine(*form, n_total=8, n_problem=5)
    lambda2 = data.draw(st.none() | MULTIPLIERS)
    encoded = EncodedRestriction(
        model=model, kind=data.draw(st.sampled_from(list(EncodingKind))),
        residual_energy=abs(data.draw(RATIONALS)), lambda1=data.draw(MULTIPLIERS),
        lambda2=lambda2)
    text = dumps(encoded)
    assert text == reference_text(encoded)
    assert_matches(loads(text).model, *reference_parse(text))
    assert loads(text) == encoded
    payload = json.loads(dumps_json(encoded))
    assert payload["terms"] == [[i, j, str(q)] for (i, j), q in model.coeffs.items()]
    assert loads_json(dumps_json(encoded)) == encoded


@FAST
@given(st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)).map(sorted).map(tuple),
                       RATIONALS | st.integers(-3, 3) | st.floats(-4, 4).map(lambda x: round(x, 2)),
                       max_size=12),
       RATIONALS)
def test_public_constructor_and_json_read_any_order(coeffs, offset):
    model = QuboModel(6, 4, coeffs, offset)
    reference = {key: F(str(q)) if isinstance(q, float) else F(q) for key, q in coeffs.items()}
    assert_matches(model, {key: q for key, q in sorted(reference.items()) if q}, offset)
    # the JSON mirror reads its terms only as dumps_json writes them: keys in
    # increasing order and no zeros
    payload = json.loads(dumps_json(EncodedRestriction(model, EncodingKind.ONE_HOT_GENERAL,
                                                       F(0), F(1), F(1))))
    canonical = payload["terms"]
    payload["terms"] = [[i, j, str(q)] for (i, j), q in sorted(reference.items(), reverse=True)]
    if payload["terms"] == canonical:
        assert loads_json(json.dumps(payload)).model == model
    else:
        with pytest.raises(QuboFileError, match="^terms entry "):
            loads_json(json.dumps(payload))
