"""Shared helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction as F

from hypothesis import strategies as st

from quborestrict.core import (
    EncodedRestriction,
    EncodingKind,
    QuboModel,
    RestrictionSpec,
    combine,
    expand_squared_affine,
)
from quborestrict.encoders import (
    encode_equispaced_linear,
    encode_equispaced_log,
    encode_half_integer_chain,
    encode_one_hot_general,
    encode_reduced_general,
)

# tokens a fuzz test swaps into a file: non-canonical integers and fractions,
# and literals whose exponent or digits would build a gigantic int if they
# were not refused as text first
TOKENS = st.sampled_from([
    "", "x", "-1", "0", "1", "2", "7", "12", "1/2", "-3/4", "1/0", "0.5", "3.7", "1e3",
    "nan", "inf", "True", "null", "[]", "2,3",
    "0_6", "+0", "-0", "06", " 2", "2 ", "\u0663", "\uff17", "2/4", "3/1", "0/5", "1/-2",
    "1e5000", "1e-5000", "1e999999999", "9" * 5000, "1/" + "7" * 3500,
]) | st.text(max_size=5)
# line separators a penalty file may be written with; only the first is canonical
SEPARATORS = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x1c", "\u2028"])


def broken_one_hot(spec: RestrictionSpec) -> EncodedRestriction:
    """One-hot target term with the selector penalty left out entirely.

    With nothing forcing exactly one dummy on, the all-off dummy pattern
    makes sum 0 (and the all-on pattern other spurious sums) reach zero
    energy, so verification must refute this model.
    """
    n, m = spec.n_vars, spec.m
    target_only = expand_squared_affine(
        [(i, 1) for i in range(n)] + [(n + k, -r) for k, r in enumerate(spec.allowed)],
        0,
        1,
        n_total=n + m,
        n_problem=n,
    )
    return EncodedRestriction(
        model=target_only,
        kind=EncodingKind.ONE_HOT_GENERAL,
        residual_energy=F(0),
        lambda1=F(1),
        lambda2=F(1),
    )


def offset_tampered(encoded: EncodedRestriction) -> EncodedRestriction:
    """The encoding with its offset raised by ``lambda1 / 2``, as the certify benchmark tampers it."""
    model = encoded.model
    return EncodedRestriction(
        model=QuboModel(model.n_total, model.n_problem, model.coeffs,
                        model.offset + encoded.lambda1 / 2),
        kind=encoded.kind, residual_energy=encoded.residual_energy,
        lambda1=encoded.lambda1, lambda2=encoded.lambda2)


@st.composite
def symmetric_models(draw, huge=False, perturbed=False, values=None):
    """Models symmetric in their problem bits, n_total <= 14 with at most 4 dummies.

    Problem bits share one diagonal, one pairwise coupling and, per dummy,
    one coupling to the dummy; the dummy block is arbitrary.  ``perturbed``
    changes one problem-side coefficient so the symmetry breaks (it needs
    at least two problem bits).  ``huge`` scales past the int64 bound.
    """
    if values is None:
        values = st.one_of(st.integers(-2, 2).map(F),
                           st.fractions(min_value=-20, max_value=20, max_denominator=6))
    n = draw(st.integers(2 if perturbed else 1, 14))
    d = draw(st.integers(0, min(4, n + 1, 14 - n)))
    diagonal, pair, offset = draw(values), draw(values), draw(values)
    field = [draw(values) for _ in range(d)]
    coeffs = {(i, i): diagonal for i in range(n)}
    coeffs.update({(i, j): pair for i in range(n) for j in range(i + 1, n)})
    coeffs.update({(i, n + k): c for i in range(n) for k, c in enumerate(field)})
    coeffs.update({(n + k, n + l): draw(values) for k in range(d) for l in range(k, d)})
    if perturbed:
        # one bit's diagonal or dummy coupling, or one pair when three bits make it unique
        keys = [(i, i) for i in range(n)] + [(i, n + k) for i in range(n) for k in range(d)]
        keys += [(i, j) for i in range(n) for j in range(i + 1, n)] if n > 2 else []
        key = draw(st.sampled_from(keys))
        coeffs[key] = coeffs[key] + draw(st.sampled_from([F(-1), F(1, 2), F(3)]))
    if huge:
        lam = draw(st.integers(10**18, 10**30))
        coeffs = {key: lam * q for key, q in coeffs.items()}
        offset = lam * (offset + 5 if offset >= 0 else offset - 5)
    return QuboModel(n + d, n, coeffs, offset)


@st.composite
def twin_class_models(draw, huge=False, values=None):
    """Models with several classes of twin problem bits, n_total <= 14.

    Either ``symmetric_models(perturbed=True)`` (``values`` goes to it), or a
    sum of ``expand_squared_affine`` squares over one to three disjoint
    blocks of problem bits, n_total <= 12 with at most n_problem + 1
    dummies: block b weighs its bits b + 1 and may own up to two dummies, so
    the bits of a block are twins.  One multiplier serves every block: 1 or
    2, which keeps ``|E|`` under 700, or ``huge``, past the int64 bound.
    """
    if draw(st.booleans()):
        return draw(symmetric_models(huge=huge, perturbed=True, values=values))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    dummies = [draw(st.integers(0, 2)) for _ in sizes]
    # at most n_problem + 1 dummies, as the table requires, and 12 bits in all
    while sum(dummies) > min(sum(sizes) + 1, 12 - sum(sizes)):
        dummies[dummies.index(max(dummies))] -= 1
    lam = draw(st.integers(10**18, 10**30) if huge else st.integers(1, 2))
    n, n_total = sum(sizes), sum(sizes) + sum(dummies)
    squares, bit, dummy = [], 0, n
    for b, (size, d) in enumerate(zip(sizes, dummies)):
        terms = [(i, b + 1) for i in range(bit, bit + size)]
        terms += [(k, -draw(st.integers(1, 2))) for k in range(dummy, dummy + d)]
        target = draw(st.fractions(min_value=0, max_value=size * (b + 1), max_denominator=3))
        squares.append(expand_squared_affine(terms, -target, lam, n_total=n_total, n_problem=n))
        bit, dummy = bit + size, dummy + d
    return combine(*squares)


@st.composite
def twin_dummy_models(draw, huge=False, perturbed=False):
    """Half-integer chain and linear encodings, whose dummies are twins, n_total <= 12.

    The allowed sums are a run of consecutive values or, for the linear row,
    values 1 or 2 apart.  ``perturbed`` changes or deletes one coefficient,
    which may split a class of problem bits or of dummies.  The multiplier is
    1 or 1/2, or ``huge``, past the int64 bound.
    """
    n = draw(st.integers(1, 8))
    gap = draw(st.integers(1, min(2, n)))
    m = draw(st.integers(2, min(n // gap + 1, 13 - n)))
    start = draw(st.integers(0, n - gap * (m - 1)))
    spec = RestrictionSpec(n, tuple(range(start, start + gap * m, gap)))
    lam = draw(st.integers(10**18, 10**30) if huge else st.sampled_from([F(1), F(1, 2)]))
    chain = gap == 1 and draw(st.booleans())
    model = (encode_half_integer_chain if chain else encode_equispaced_linear)(
        spec, lam).model
    coeffs = dict(model.coeffs)
    if not perturbed or not coeffs:  # (x - 1/2)**2 on one bit has no terms
        return model
    key = draw(st.sampled_from(sorted(coeffs)))
    coeffs[key] += draw(st.sampled_from([-coeffs[key], -lam, lam / 2, 3 * lam]))
    return QuboModel(model.n_total, model.n_problem, coeffs, model.offset)


@st.composite
def general_encodings(draw, perturbed=False):
    """``(encoded, spec)``: a reduced, one-hot or binary-weighted encoding, n <= 8, M <= 6.

    Their dummies have distinct weights, so each is a class of one, and
    dummy patterns of equal weighted sum (and, with a selector, equal count)
    merge in the twin-class table.  ``perturbed`` changes or adds one
    coefficient of the dummy block, a diagonal or a coupling between two
    dummies.  The multipliers are 1, 1/2 or 3/2.
    """
    n = draw(st.integers(1, 8))
    encode = draw(st.sampled_from(
        [encode_reduced_general, encode_one_hot_general, encode_equispaced_log]))
    if encode is encode_equispaced_log:
        gap = draw(st.integers(1, n))
        m = draw(st.integers(2, min(6, n // gap + 1)))
        start = draw(st.integers(0, n - gap * (m - 1)))
        allowed = range(start, start + gap * m, gap)
    else:
        allowed = draw(st.sets(st.integers(0, n), min_size=2, max_size=min(6, n + 1)))
    spec = RestrictionSpec(n, tuple(allowed))
    lam1, lam2 = (draw(st.sampled_from([F(1), F(1, 2), F(3, 2)])) for _ in range(2))
    encoded = encode(spec, lam1, lam2)
    model = encoded.model
    if not perturbed:
        return encoded, spec
    dummies = range(n, model.n_total)
    coeffs = dict(model.coeffs)
    key = draw(st.sampled_from([(i, j) for i in dummies for j in dummies if i <= j]))
    coeffs[key] = coeffs.get(key, 0) + draw(st.sampled_from([-lam1, lam1 / 2, 3 * lam1]))
    return EncodedRestriction(
        model=QuboModel(model.n_total, n, coeffs, model.offset), kind=encoded.kind,
        residual_energy=encoded.residual_energy, lambda1=encoded.lambda1,
        lambda2=encoded.lambda2), spec


@st.composite
def twin_free_models(draw, huge=False):
    """Models the twin-class table refuses, so the doubling sweep serves them.

    One square over n = 6..10 problem bits of distinct weights 1..n and up
    to two dummies, n_total <= 12: no two bits are twins, and n classes of
    one bit give more count vectors than the table takes.  The multiplier is
    1 or 2, or ``huge``, past the int64 bound.
    """
    n = draw(st.integers(6, 10))
    d = draw(st.integers(0, min(2, 12 - n)))
    lam = draw(st.integers(10**18, 10**30) if huge else st.integers(1, 2))
    terms = [(i, i + 1) for i in range(n)] + [(n + k, -draw(st.integers(1, n))) for k in range(d)]
    target = draw(st.fractions(min_value=0, max_value=n, max_denominator=3))
    return expand_squared_affine(terms, -target, lam, n_total=n + d, n_problem=n)


# the 1,000 primes below 7,920: their product, a common denominator, has about 11,300 bits
PRIMES = [p for p in range(2, 7920) if all(p % d for d in range(2, int(p**0.5) + 1))]
# coefficient k of a term line, by the shape of the file a parse is measured on
COEFFICIENT_SHAPES = {
    "repeated": lambda k: 1 + k % 5,
    "distinct": lambda k: F(-1 - k, 7),
    "long": lambda k: 10**2899 + k,  # 2,900 digits each
    "denominator": lambda k: F(1 + k // len(PRIMES), PRIMES[k % len(PRIMES)]),
}


def shaped_restriction(shape: str, n: int) -> EncodedRestriction:
    """A model on n bits whose every pair i <= j holds a coefficient of the given shape."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    coeffs = {key: COEFFICIENT_SHAPES[shape](k) for k, key in enumerate(pairs)}
    return EncodedRestriction(model=QuboModel(n, n, coeffs), kind=EncodingKind.REDUCED_GENERAL,
                              residual_energy=F(0), lambda1=F(1))
