"""Restriction-term constructions and the dummy-minimizing selector.

Every construction is ``lambda1 * (sum(x) + sum(w_k * y_k) + c)**2`` over the
problem bits x and appended dummies y, two of them plus a selector term
``lambda2 * (sum(y) + c2)**2``.  Only the dummy weights w, the constant c (a
half-integer c costs every ground state a quarter of its multiplier) and c2
differ, so each construction is one row of a table that one builder expands.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    EncodedRestriction,
    EncodingKind,
    EncodingNotApplicableError,
    RestrictionSpec,
    as_multiplier,
    check_count,
    check_expansion,
    check_type,
    combine,
    expand_squared_affine,
    record,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Optional

    Encoder = Callable[[RestrictionSpec, "EncoderParams"], EncodedRestriction]


@record
class EncoderParams:
    """Lagrange multipliers; lambda2 only matters for the two-term encodings."""

    lambda1: Fraction = Fraction(1)
    lambda2: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambda1", as_multiplier(self.lambda1))
        object.__setattr__(self, "lambda2", as_multiplier(self.lambda2))


DEFAULT_PARAMS = EncoderParams()


def _log_weights(m: int, gap: int) -> list[int]:
    """gap*1, gap*2, gap*4, ... and a cap gap*(m - 2**floor(log2 m)), dropped when zero."""
    gamma = m.bit_length() - 1
    top = m - (1 << gamma)
    return [gap << t for t in range(gamma)] + ([gap * top] if top else [])


@record
class _Row:
    """One construction: when it applies, its dummy weights w, c, and c2 if it has a selector."""

    applies: Callable[[RestrictionSpec], bool]
    needs: str  # completes "<kind> encoding needs ..." when the row does not apply
    weights: Callable[[RestrictionSpec], list[int]]
    constant: Callable[[RestrictionSpec], Fraction]
    selector: Optional[Fraction]
    doc: str


_CHAIN = _Row(
    lambda spec: spec.is_consecutive, "a consecutive run of at least two allowed values",
    lambda spec: [-1] * (spec.m - 2), lambda spec: -(spec.allowed[0] + Fraction(1, 2)), None,
    """Half-integer target plus M-2 unit dummies for a consecutive run.

    With the target between the two lowest values, each active dummy shifts
    the matched sum up by one, covering all M values at residual lam/4.  The
    two-value case degenerates to the dummy-free half-integer encoding.""")

_ROWS: dict[EncodingKind, _Row] = {
    EncodingKind.SINGLE_VALUE: _Row(
        lambda spec: spec.m == 1, "exactly one allowed value",
        lambda spec: [], lambda spec: -spec.allowed[0], None,
        """``lam * (sum(x) - R)**2`` for a single allowed value R; no dummies.

        The penalty is zero exactly on assignments whose sum equals R and
        strictly positive everywhere else."""),
    EncodingKind.ONE_HOT_GENERAL: _Row(
        lambda spec: True, "",
        lambda spec: [-r for r in spec.allowed], lambda spec: 0, Fraction(-1),
        """One selector dummy per allowed value; the active dummy picks the target.

        First term matches the problem sum to the selected value, second term
        forces exactly one selector on.  Uses M dummies and two multipliers."""),
    EncodingKind.EQUISPACED_LINEAR: _Row(
        lambda spec: spec.m == 1 or spec.spacing() is not None, "equispaced allowed values",
        lambda spec: [spec.spacing()] * (spec.m - 1), lambda spec: -spec.allowed[-1], None,
        """Unit-weight dummy chain for equispaced values; M-1 dummies.

        Each active dummy lowers the effective target by one gap, so the sums
        R_M, R_M - gap, ..., R_1 all reach the penalty minimum."""),
    EncodingKind.EQUISPACED_LOG: _Row(
        lambda spec: spec.spacing() is not None, "at least two equispaced allowed values",
        lambda spec: [-w for w in _log_weights(spec.m, spec.spacing())],
        lambda spec: -spec.allowed[0], None,
        """Binary-weighted dummy chain for equispaced values; ~log2(M) dummies.

        Dummy weights gap*1, gap*2, gap*4, ... count the offset above R_1 in
        binary; a final dummy weighted gap*(M - 2**floor(log2 M)) caps the
        offsets at gap*(M-1), and is dropped when M is a power of two."""),
    EncodingKind.HALF_INTEGER_M2: _Row(
        lambda spec: spec.m == 2 and spec.is_consecutive, "two consecutive allowed values",
        _CHAIN.weights, _CHAIN.constant, None,
        """``lam * (sum(x) - n - 1/2)**2`` for two consecutive values; no dummies.

        No integer sum can hit the half-integer target, so every assignment pays
        at least lam/4; the sums n and n+1 are equidistant from the target and
        tie at exactly that residual.  The model is the chain's at M = 2."""),
    EncodingKind.HALF_INTEGER_CHAIN: _CHAIN,
    EncodingKind.REDUCED_GENERAL: _Row(
        lambda spec: spec.m >= 2, "at least two allowed values",
        lambda spec: [spec.allowed[0] - r for r in spec.allowed[1:]],
        lambda spec: -spec.allowed[0], Fraction(-1, 2),
        """Arbitrary value sets with M-1 dummies via a half-integer selector.

        Dummies carry the offsets R_k - R_1 for k >= 2; the second term
        ``lambda2 * (sum(y) - 1/2)**2`` is minimal when at most one is active, so
        the matched sums are exactly R_1, ..., R_M at residual lambda2/4."""),
}

# select_optimal's tie-break among rows with equally few dummies
_PREFERENCE = [EncodingKind(value) for value in "single_value half_integer_m2 equispaced_log "
               "half_integer_chain reduced_general equispaced_linear one_hot_general".split()]


def _build(kind: EncodingKind, spec: RestrictionSpec,
           params: EncoderParams) -> EncodedRestriction:
    """Expand one row; a half-integer constant leaves a quarter of its multiplier as residual."""
    check_type("spec", spec, RestrictionSpec)
    check_type("params", params, EncoderParams)
    row = _ROWS[kind]
    if not row.applies(spec):
        raise EncodingNotApplicableError(
            f"{kind.value} encoding needs {row.needs}, got {spec.allowed}")
    check_expansion(spec.n_vars, 1)  # the unit weights alone, before any list is built
    n, weights, constant = spec.n_vars, row.weights(spec), Fraction(row.constant(spec))
    n_total = n + len(weights)
    terms = [(i, 1) for i in range(n)] + list(zip(range(n, n_total), weights))
    model = expand_squared_affine(terms, constant, params.lambda1, n_total=n_total, n_problem=n)
    squares = [(constant, params.lambda1)]
    lambda2 = None if row.selector is None else params.lambda2
    if lambda2 is not None:
        squares.append((row.selector, lambda2))
        selector = [(i, 1) for i in range(n, n_total)]
        model = combine(model, expand_squared_affine(
            selector, row.selector, lambda2, n_total=n_total, n_problem=n))
    residual = sum((lam / 4 for c, lam in squares if c.denominator == 2), Fraction(0))
    return EncodedRestriction(model=model, kind=kind, residual_energy=residual,
                              lambda1=params.lambda1, lambda2=lambda2)


def _encoder(kind: EncodingKind) -> Encoder:
    def encode(spec: RestrictionSpec,
               params: EncoderParams = DEFAULT_PARAMS) -> EncodedRestriction:
        return _build(kind, spec, params)

    encode.__name__ = encode.__qualname__ = f"encode_{kind.value}"
    encode.__doc__ = _ROWS[kind].doc
    return encode


_ENCODERS = {kind: _encoder(kind) for kind in EncodingKind}
# the public names, each ``encode_<kind.value>``, in enum order
(encode_single_value, encode_one_hot_general, encode_equispaced_linear, encode_equispaced_log,
 encode_half_integer_m2, encode_half_integer_chain, encode_reduced_general) = _ENCODERS.values()

def applicable_encoders(spec: RestrictionSpec) -> dict[EncodingKind, Encoder]:
    """Every construction whose preconditions the spec satisfies, in enum order."""
    check_type("spec", spec, RestrictionSpec)
    return {kind: encode for kind, encode in _ENCODERS.items() if _ROWS[kind].applies(spec)}


def select_optimal(
    spec: RestrictionSpec, params: EncoderParams = DEFAULT_PARAMS
) -> EncodedRestriction:
    """The applicable construction with the fewest dummies for this spec.

    Ties go to the first of single value, half-integer M=2, binary-weighted,
    half-integer chain, reduced general, linear and one-hot.
    """
    check_type("spec", spec, RestrictionSpec)
    kind = min((kind for kind in _PREFERENCE if _ROWS[kind].applies(spec)),
               key=lambda kind: len(_ROWS[kind].weights(spec)))
    return _build(kind, spec, params)


def chain_dummy_count(m: int) -> int:
    """Dummies used by the half-integer chain on a consecutive run of m values."""
    check_count("m", m, 2)
    return m - 2


def log_dummy_count(m: int) -> int:
    """Dummies used by the binary-weighted encoder on m equispaced values."""
    check_count("m", m, 2)
    return len(_log_weights(m, 1))
