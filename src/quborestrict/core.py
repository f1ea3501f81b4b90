"""Exact-rational QUBO data model shared by the encoders, oracle and sampler.

A model stores its coefficients and offset as Python ints over one integer
scale, their least common denominator, so half-integer coefficients and
quarter-multiplier residual energies stay exact and compare exactly without
a :class:`fractions.Fraction` per term.  Fractions appear only where values
enter or leave: constructor arguments, ``QuboModel.coeffs`` and ``offset``,
and energies.  Floating point only appears downstream in the Boltzmann
sampler.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Mapping  # loaded by fractions already
from decimal import Decimal  # loaded by fractions already
from enum import Enum
from fractions import Fraction

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Optional, Sequence, Union

    RationalLike = Union[Fraction, int, str, float]

# A literal may carry at most this many digits, counting its exponent, and a
# model's scale and ints at most this many bits: 12,000 bits are 3,613
# digits, which leaves room for the sums the oracle prints under Python's
# 4,300-digit limit on converting an int to text.
MAX_LITERAL_DIGITS = 3_000
MAX_VALUE_BITS = 12_000


class QuboRestrictError(ValueError):
    """Base of every error the package raises on input it refuses."""


class DimensionError(QuboRestrictError):
    """An assignment or variable space has the wrong size."""


class ConstructionError(QuboRestrictError):
    """Invalid arguments while building a spec or a model."""


class ParameterError(QuboRestrictError):
    """A numeric parameter is outside its admissible range."""


class EncodingNotApplicableError(QuboRestrictError):
    """The requested construction cannot encode the given restriction."""


class SizeLimitError(QuboRestrictError):
    """An operation's estimated peak memory exceeds the physical memory."""


class DataQualityError(QuboRestrictError):
    """Measured data is too degenerate for the requested statistic."""


class QuboFileError(QuboRestrictError):
    """The file is not a well-formed encoded restriction."""


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce a number to an exact Fraction.

    A float is read through its shortest repr, so 0.1 becomes 1/10, not the
    float's binary expansion, and a ``Decimal`` through its text.  A string
    is refused before any int is built when its digits and exponent could
    exceed ``MAX_LITERAL_DIGITS``.  A bool is refused (True is no multiplier),
    and so is what ``Fraction`` cannot read: ``"x"``, ``"1/0"``, NaN, inf, None.
    """
    if isinstance(value, bool):
        raise ParameterError(f"expected a rational number, got {value!r}")
    number = str(value) if isinstance(value, (float, Decimal)) else value
    if isinstance(number, str):
        mantissa, _, exponent = number.lower().partition("e")
        digits = len(number)
        try:  # a short literal has the digits of its mantissa plus its exponent
            if digits <= MAX_LITERAL_DIGITS:
                digits = len(mantissa) + abs(int(exponent or 0))
        except ValueError:  # no exponent: Fraction reads or refuses the text
            pass
        if digits > MAX_LITERAL_DIGITS:
            shown = number if len(number) <= 20 else number[:20] + "..."
            raise ParameterError(f"number {shown!r} has more than {MAX_LITERAL_DIGITS} digits")
    try:
        return Fraction(number)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError):
        raise ParameterError(f"not a rational number: {value!r}") from None


def as_multiplier(value: RationalLike) -> Fraction:
    """A Lagrange multiplier as :func:`as_fraction` reads it, refused at or below 0."""
    lam = as_fraction(value)
    if lam <= 0:
        raise ParameterError(f"multiplier must be positive, got {lam}")
    return lam


def check_bits(value: int) -> None:
    """Refuse an exact int of more than ``MAX_VALUE_BITS`` bits."""
    if value.bit_length() > MAX_VALUE_BITS:
        raise ParameterError(f"exact coefficients need {value.bit_length()} bits, more than "
                             f"the {MAX_VALUE_BITS}-bit cap that keeps every value printable")


def common_denominator(denominators: Iterable[int]) -> int:
    """Least common multiple of positive denominators, refused as soon as it passes the bit cap."""
    scale = 1
    for den in set(denominators):
        scale = math.lcm(scale, den)
        check_bits(scale)
    return scale


def _physical_memory() -> Optional[int]:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # the platform cannot say
        return None


def check_memory(what: str, estimate: int) -> None:
    """Refuse ``what`` when its ``estimate`` of peak bytes exceeds the physical memory.

    Where the platform cannot say how much memory it has, the limit is what
    can be addressed, ``sys.maxsize``.
    """
    available = _physical_memory()
    limit = sys.maxsize if available is None else available
    if estimate > limit:
        where = "the physical memory" if available is not None else "can be addressed"
        raise SizeLimitError(f"{what} needs more than {where}")


def is_integer(value: object) -> bool:
    """An ``int`` that is not a ``bool``: True is no count, sum or seed."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_count(name: str, value: object, least: int = 1) -> None:
    """Refuse a count ``name``, such as ``n_vars``, that is not an int of at least ``least``."""
    if not is_integer(value) or value < least:
        raise ParameterError(f"{name} must be an integer of at least {least}, got {value!r}")


def as_tuple(name: str, value: object, length: Optional[int] = None) -> tuple:
    """The items of an iterable ``name`` as a tuple, of ``length`` items if one is given."""
    try:
        items = tuple(value)
    except TypeError:
        items = None
    if items is None or length is not None and len(items) != length:
        of = "" if length is None else f" of {length} items"
        raise ConstructionError(f"{name} must be an iterable{of}, got {value!r}")
    return items


def check_type(name: str, value: object, cls: type) -> None:
    """Refuse a ``name`` that is not a ``cls`` with a one-line ``ConstructionError``.

    The value shows as its repr, cut at 100 characters: a record passed in
    place of another, a whole model, say, could print megabytes.
    """
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        shown = repr(value)
        shown = shown if len(shown) <= 100 else shown[:100] + "..."
        raise ConstructionError(f"{name} must be {article} {cls.__name__}, got {shown}")


def as_printable(text: str) -> str:
    """``text`` as it is, or its repr if it is not printable, so an error stays one line."""
    return text if text.isprintable() else repr(text)


def record(cls: type) -> type:
    """Make ``cls`` a frozen dataclass, without the start-up cost of ``dataclasses``.

    The annotations name the fields; a class attribute is a default.  Unless
    the class has its own, ``__init__`` takes the fields by position or
    keyword and calls ``__post_init__``.  Records of one class with equal
    fields are equal, and hash alike if every field hashes (a dict field, as
    in ``QuboModel``, does not); they print as ``Name(field=value, ...)``.
    """
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}

    def values(self: object) -> tuple:
        return tuple(getattr(self, name) for name in fields)

    def __init__(self: object, *args: object, **kwargs: object) -> None:
        given = {**defaults, **dict(zip(fields, args)), **kwargs}
        if (len(args) > len(fields) or kwargs.keys() & fields[:len(args)]
                or given.keys() != set(fields)):
            raise TypeError(f"{cls.__name__}() takes {', '.join(fields)}, each once")
        for name in fields:
            object.__setattr__(self, name, given[name])
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __eq__(self: object, other: object) -> bool:
        return values(self) == values(other) if type(other) is type(self) else NotImplemented

    def __repr__(self: object) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values(self)))
        return f"{type(self).__qualname__}({shown})"

    def frozen(self: object, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")

    methods = {"__init__": __init__, "__eq__": __eq__, "__repr__": __repr__,
               "__hash__": lambda self: hash(values(self)),
               "__setattr__": frozen, "__delattr__": frozen}
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


@record
class RestrictionSpec:
    """Require the sum over a block of binary variables to land in a fixed set.

    ``n_vars`` is the size of the variable block (indices ``0..n_vars-1``) and
    ``allowed`` the admissible values of its sum, stored sorted ascending.
    """

    n_vars: int
    allowed: tuple[int, ...]

    def __post_init__(self) -> None:
        values = as_tuple("allowed", self.allowed)
        if not all(is_integer(v) for v in (self.n_vars, *values)):
            raise ConstructionError(f"n_vars must be an integer and allowed a list of integers, "
                                    f"got {self.n_vars!r} and {values!r}")
        if self.n_vars < 1:
            raise ConstructionError(f"n_vars must be an integer of at least 1, got {self.n_vars!r}")
        values = tuple(sorted(values))
        if not values:
            raise ConstructionError("allowed must contain at least one value")
        for v in values:
            if v < 0:
                raise ConstructionError(f"allowed values must be non-negative integers, got {v!r}")
        if len(set(values)) != len(values):
            raise ConstructionError(f"allowed values must be distinct, got {values}")
        if values[-1] > self.n_vars:
            raise ConstructionError(f"allowed value {values[-1]} exceeds n_vars={self.n_vars}")
        object.__setattr__(self, "allowed", values)

    @property
    def m(self) -> int:
        """Number of admissible sum values."""
        return len(self.allowed)

    def spacing(self) -> Optional[int]:
        """Common gap between successive allowed values.

        Returns None when the gaps differ or when there is a single value.
        """
        if self.m < 2:
            return None
        gaps = {b - a for a, b in zip(self.allowed, self.allowed[1:])}
        return gaps.pop() if len(gaps) == 1 else None

    @property
    def is_consecutive(self) -> bool:
        """True for a run n, n+1, ..., n+m-1 with at least two values."""
        return self.spacing() == 1


@record
class QuboModel:
    """Upper-triangular QUBO with an exact constant offset.

    The first ``n_problem`` indices are problem variables; the remainder are
    dummy variables appended by an encoder.  Linear terms sit on the diagonal
    (``x == x**2`` on binaries) and zero coefficients are never stored.

    The coefficients and the offset are kept as the ints ``int_coeffs`` and
    ``int_offset`` over one ``scale``, always their least common
    denominator, so two models built from the same construction compare
    equal.  ``int_coeffs`` is sorted by key.  The constructor takes rationals;
    ``coeffs`` and ``offset`` give them back as Fractions.
    """

    n_total: int
    n_problem: int
    scale: int
    int_coeffs: dict[tuple[int, int], int]
    int_offset: int

    def __init__(self, n_total: int, n_problem: int,
                 coeffs: Mapping[tuple[int, int], RationalLike],
                 offset: RationalLike = 0) -> None:
        if not isinstance(coeffs, Mapping):
            raise ConstructionError(f"coeffs must be a mapping of key to rational, got {coeffs!r}")
        ratios = {key: as_fraction(q) for key, q in coeffs.items()}
        offset = as_fraction(offset)
        scale = common_denominator([offset.denominator, *(q.denominator for q in ratios.values())])
        self._fill(n_total, n_problem, scale,
                   {key: q.numerator * (scale // q.denominator) for key, q in ratios.items()},
                   offset.numerator * (scale // offset.denominator), check=True)

    @classmethod
    def _scaled(cls, n_total: int, n_problem: int, scale: int,
                int_coeffs: dict[tuple[int, int], int], int_offset: int,
                check: bool = False) -> QuboModel:
        """A model from ints that are ``scale`` times its coefficients and offset.

        Unless ``check`` is set, the keys must already be ordered in-range
        pairs, sorted, with no zero value, and the model takes ``int_coeffs``
        over rather than copying it.  The common factor of the ints and the
        scale is divided out either way.
        """
        model = cls.__new__(cls)
        model._fill(n_total, n_problem, scale, int_coeffs, int_offset, check)
        return model

    def _fill(self, n_total: int, n_problem: int, scale: int,
              int_coeffs: dict[tuple[int, int], int], int_offset: int, check: bool) -> None:
        if not is_integer(n_total) or n_total < 0:
            raise ConstructionError(f"n_total must be an integer of at least 0, got {n_total!r}")
        if not (is_integer(n_problem) and 0 <= n_problem <= n_total):
            raise ConstructionError(
                f"n_problem must be an integer in [0, n_total={n_total}], got {n_problem!r}")
        if check:
            for key in int_coeffs:  # stored as given, so only a tuple is looked up alike
                if not (isinstance(key, tuple) and len(key) == 2 and all(map(is_integer, key))
                        and 0 <= key[0] <= key[1] < n_total):
                    raise ConstructionError(
                        f"coefficient key {key!r} is not an ordered in-range pair")
            int_coeffs = {key: int_coeffs[key] for key in sorted(int_coeffs) if int_coeffs[key]}
        common = math.gcd(scale, int_offset, *int_coeffs.values()) if scale > 1 else 1
        if common > 1:
            scale //= common
            int_offset //= common
            for key, q in int_coeffs.items():  # in place: no second dict at the peak
                int_coeffs[key] = q // common
        extremes = (min(int_coeffs.values()), max(int_coeffs.values())) if int_coeffs else ()
        check_bits(max(abs(v) for v in (scale, int_offset, *extremes)))
        for name, value in (("n_total", n_total), ("n_problem", n_problem), ("scale", scale),
                            ("int_coeffs", int_coeffs), ("int_offset", int_offset)):
            object.__setattr__(self, name, value)

    @property
    def coeffs(self) -> dict[tuple[int, int], Fraction]:
        """The coefficients as Fractions, sorted by key (a new dict on each access)."""
        return {key: Fraction(q, self.scale) for key, q in self.int_coeffs.items()}

    @property
    def offset(self) -> Fraction:
        return Fraction(self.int_offset, self.scale)

    @property
    def n_dummies(self) -> int:
        return self.n_total - self.n_problem

    def energy(self, assignment: Sequence[int]) -> Fraction:
        """Exact energy ``sum(Q_ij * x_i * x_j) + offset`` of a bit vector."""
        assignment = as_tuple("assignment", assignment)
        if len(assignment) != self.n_total:
            raise DimensionError(
                f"assignment has {len(assignment)} bits, model has {self.n_total}")
        for bit in assignment:
            if bit not in (0, 1):
                raise ConstructionError(f"assignment entries must be 0 or 1, got {bit!r}")
        total = self.int_offset + sum(
            q for (i, j), q in self.int_coeffs.items() if assignment[i] and assignment[j])
        return Fraction(total, self.scale)


class EncodingKind(Enum):
    """The seven restriction-term constructions."""

    SINGLE_VALUE = "single_value"
    ONE_HOT_GENERAL = "one_hot_general"
    EQUISPACED_LINEAR = "equispaced_linear"
    EQUISPACED_LOG = "equispaced_log"
    HALF_INTEGER_M2 = "half_integer_m2"
    HALF_INTEGER_CHAIN = "half_integer_chain"
    REDUCED_GENERAL = "reduced_general"


@record
class EncodedRestriction:
    """A penalty model plus the metadata needed to verify it.

    ``residual_energy`` is the exact energy every intended ground state pays:
    zero for the integer-coefficient encodings, a quarter of the relevant
    multiplier for the half-integer ones.  It is constant across the intended
    minima, so it never changes which assignments are ground states.
    """

    model: QuboModel
    kind: EncodingKind
    residual_energy: Fraction
    lambda1: Fraction
    lambda2: Optional[Fraction] = None

    def __post_init__(self) -> None:
        check_type("model", self.model, QuboModel)
        check_type("kind", self.kind, EncodingKind)
        object.__setattr__(self, "residual_energy", as_fraction(self.residual_energy))
        object.__setattr__(self, "lambda1", as_multiplier(self.lambda1))
        if self.lambda2 is not None:
            object.__setattr__(self, "lambda2", as_multiplier(self.lambda2))
        if self.residual_energy < 0:
            raise ConstructionError("residual_energy must be non-negative")

    @property
    def n_dummies(self) -> int:
        """Dummies the construction appended, read from the model."""
        return self.model.n_dummies


def expansion_bytes(n_weights: int, bound: int) -> int:
    """Estimated peak bytes of expanding a square of ``n_weights`` weights, values up to ``bound``.

    The model costs about 4 KiB and each weight about 256 bytes of input
    tuples and Fractions.  Each of the ``n_weights * (n_weights + 1) / 2``
    terms is a key tuple of 56 bytes, an int and dict slots of 16 bytes of
    entry and up to 8 of index: 3 slots per key after a resize, 4.5 while
    the old table is still alive.
    """
    n_terms = n_weights * (n_weights + 1) // 2
    return 4096 + 256 * n_weights + n_terms * (56 + sys.getsizeof(bound) + 108)


def check_expansion(n_weights: int, bound: int) -> None:
    """Refuse a square of ``n_weights`` nonzero weights up to ``bound`` beyond the memory."""
    n_terms = n_weights * (n_weights + 1) // 2
    check_memory(f"expanding a square of {n_weights} weights into {n_terms} terms",
                 expansion_bytes(n_weights, bound))


def expand_squared_affine(
    terms: Iterable[tuple[int, RationalLike]],
    constant: RationalLike,
    lam: RationalLike = 1,
    *,
    n_total: Optional[int] = None,
    n_problem: Optional[int] = None,
) -> QuboModel:
    """Exact QUBO of ``lam * (sum_i a_i * x_i + c)**2``.

    On binaries ``x == x**2``, so the square expands to
    ``Q_ii = lam * a_i * (a_i + 2c)``, ``Q_ij = 2 * lam * a_i * a_j`` for
    ``i < j``, and a constant ``lam * c**2``.  Every encoder in this package
    is assembled from this primitive.  With ``L`` the common denominator of
    c and the a_i, the model is built in ints at scale ``den(lam) * L**2``.
    """
    lam, c = as_multiplier(lam), as_fraction(constant)
    pairs = [(i, as_fraction(a)) for i, a in (as_tuple("term", term, 2)
                                              for term in as_tuple("terms", terms))]
    indices = [i for i, _ in pairs]
    for i in indices:
        if not is_integer(i) or i < 0:
            raise ConstructionError(f"variable index must be an integer of at least 0, got {i!r}")
    if len(set(indices)) != len(indices):
        raise ConstructionError("duplicate variable index in affine form")
    if n_total is None:
        n_total = max(indices) + 1 if indices else 0
    if n_problem is None:
        n_problem = n_total

    common = common_denominator([c.denominator, *(a.denominator for _, a in pairs)])
    c = c.numerator * (common // c.denominator)
    # a zero weight contributes nothing; sorted indices give sorted keys
    weights = sorted((i, a.numerator * (common // a.denominator)) for i, a in pairs if a)
    # no diagonal, coupling or constant exceeds 2 * lam * (max|a| + |c|)**2
    bound = 2 * lam.numerator * (max((abs(a) for _, a in weights), default=0) + abs(c)) ** 2
    check_expansion(len(weights), bound)
    coeffs: dict[tuple[int, int], int] = {}
    for k, (i, a) in enumerate(weights):
        diagonal = lam.numerator * a * (a + 2 * c)
        if diagonal:
            coeffs[(i, i)] = diagonal
        pair = 2 * lam.numerator * a
        for j, b in weights[k + 1:]:
            coeffs[(i, j)] = pair * b
    # the model checks n_total before an index is compared with it
    model = QuboModel._scaled(n_total, n_problem, lam.denominator * common * common, coeffs,
                              lam.numerator * c * c)
    if indices and max(indices) >= n_total:
        raise ConstructionError(f"variable index {max(indices)} is out of range "
                                f"for n_total={n_total}")
    return model


def combine(*models: QuboModel) -> QuboModel:
    """Sum penalty terms that share one variable space."""
    if not models:
        raise ConstructionError("combine needs at least one model")
    for model in models:
        check_type("model", model, QuboModel)
    first = models[0]
    for other in models[1:]:
        if (other.n_total, other.n_problem) != (first.n_total, first.n_problem):
            raise DimensionError("models cover different variable spaces")
    scale = math.lcm(*(model.scale for model in models))
    factor = scale // first.scale
    coeffs = {key: q * factor for key, q in first.int_coeffs.items()}
    offset = first.int_offset * factor
    for model in models[1:]:
        factor = scale // model.scale
        offset += model.int_offset * factor
        for key, q in model.int_coeffs.items():
            coeffs[key] = coeffs.get(key, 0) + q * factor
    if len(coeffs) > len(first.int_coeffs) or 0 in coeffs.values():  # new keys came last
        coeffs = {key: coeffs[key] for key in sorted(coeffs) if coeffs[key]}
    return QuboModel._scaled(first.n_total, first.n_problem, scale, coeffs, offset)
