"""Exact-rational QUBO data model shared by the encoders, oracle and sampler.

Energies are kept in :class:`fractions.Fraction` end to end so that
half-integer coefficients and quarter-multiplier residual energies compare
exactly; floating point only appears downstream in the Boltzmann sampler.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

RationalLike = Union[Fraction, int, str, float]


class DimensionError(ValueError):
    """An assignment or variable space has the wrong size."""


class ConstructionError(ValueError):
    """Invalid arguments while building a spec or a model."""


class ParameterError(ValueError):
    """A numeric parameter is outside its admissible range."""


class EncodingNotApplicableError(ValueError):
    """The requested construction cannot encode the given restriction."""


class SizeLimitError(ValueError):
    """An exhaustive operation would exceed its variable-count cap."""


class DataQualityError(ValueError):
    """Measured data is too degenerate for the requested statistic."""


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce a number to an exact Fraction.

    Floats go through their shortest decimal repr, so 0.1 becomes 1/10
    rather than the binary expansion of the float.
    """
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


def is_integer(value: object) -> bool:
    """An ``int`` that is not a ``bool``: True is no count, sum or seed."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class RestrictionSpec:
    """Require the sum over a block of binary variables to land in a fixed set.

    ``n_vars`` is the size of the variable block (indices ``0..n_vars-1``) and
    ``allowed`` the admissible values of its sum, stored sorted ascending.
    """

    n_vars: int
    allowed: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(self.allowed)
        if not all(is_integer(v) for v in (self.n_vars, *values)):
            raise ConstructionError(f"n_vars must be an integer and allowed a list of integers, "
                                    f"got {self.n_vars!r} and {values!r}")
        if self.n_vars < 1:
            raise ConstructionError(f"n_vars must be a positive integer, got {self.n_vars!r}")
        values = tuple(sorted(values))
        if not values:
            raise ConstructionError("allowed must contain at least one value")
        for v in values:
            if v < 0:
                raise ConstructionError(f"allowed values must be non-negative integers, got {v!r}")
        if len(set(values)) != len(values):
            raise ConstructionError(f"allowed values must be distinct, got {values}")
        if values[-1] > self.n_vars:
            raise ConstructionError(
                f"allowed value {values[-1]} exceeds n_vars={self.n_vars}")
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


@dataclass(frozen=True)
class QuboModel:
    """Upper-triangular QUBO with an exact constant offset.

    The first ``n_problem`` indices are problem variables; the remainder are
    dummy variables appended by an encoder.  Linear terms sit on the diagonal
    (``x == x**2`` on binaries) and zero coefficients are never stored, so two
    models built from the same construction compare equal.
    """

    n_total: int
    n_problem: int
    coeffs: Mapping[tuple[int, int], Fraction]
    offset: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if self.n_total < 0:
            raise ConstructionError("n_total must be non-negative")
        if not 0 <= self.n_problem <= self.n_total:
            raise ConstructionError(
                f"n_problem={self.n_problem} must lie in [0, n_total={self.n_total}]")
        clean: dict[tuple[int, int], Fraction] = {}
        for key in sorted(self.coeffs):
            i, j = key
            if not (isinstance(i, int) and isinstance(j, int) and 0 <= i <= j < self.n_total):
                raise ConstructionError(f"coefficient key {key!r} is not an ordered in-range pair")
            q = as_fraction(self.coeffs[key])
            if q != 0:
                clean[(i, j)] = q
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "offset", as_fraction(self.offset))

    @property
    def n_dummies(self) -> int:
        return self.n_total - self.n_problem

    def energy(self, assignment: Sequence[int]) -> Fraction:
        """Exact energy ``sum(Q_ij * x_i * x_j) + offset`` of a bit vector."""
        if len(assignment) != self.n_total:
            raise DimensionError(
                f"assignment has {len(assignment)} bits, model has {self.n_total}")
        for bit in assignment:
            if bit not in (0, 1):
                raise ConstructionError(f"assignment entries must be 0 or 1, got {bit!r}")
        total = self.offset
        for (i, j), q in self.coeffs.items():
            if assignment[i] and assignment[j]:
                total += q
        return total


class EncodingKind(Enum):
    """The seven restriction-term constructions."""

    SINGLE_VALUE = "single_value"
    ONE_HOT_GENERAL = "one_hot_general"
    EQUISPACED_LINEAR = "equispaced_linear"
    EQUISPACED_LOG = "equispaced_log"
    HALF_INTEGER_M2 = "half_integer_m2"
    HALF_INTEGER_CHAIN = "half_integer_chain"
    REDUCED_GENERAL = "reduced_general"


@dataclass(frozen=True)
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
        object.__setattr__(self, "residual_energy", as_fraction(self.residual_energy))
        object.__setattr__(self, "lambda1", as_fraction(self.lambda1))
        if self.lambda2 is not None:
            object.__setattr__(self, "lambda2", as_fraction(self.lambda2))
        if self.residual_energy < 0:
            raise ConstructionError("residual_energy must be non-negative")
        if self.lambda1 <= 0 or (self.lambda2 is not None and self.lambda2 <= 0):
            raise ParameterError("Lagrange multipliers must be positive")

    @property
    def n_dummies(self) -> int:
        """Dummies the construction appended, read from the model."""
        return self.model.n_dummies


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
    is assembled from this primitive.
    """
    lam = as_fraction(lam)
    if lam <= 0:
        raise ParameterError(f"multiplier must be positive, got {lam}")
    c = as_fraction(constant)
    pairs = [(int(i), as_fraction(a)) for i, a in terms]
    indices = [i for i, _ in pairs]
    if len(set(indices)) != len(indices):
        raise ConstructionError("duplicate variable index in affine form")
    if indices and min(indices) < 0:
        raise ConstructionError("variable indices must be non-negative")
    if n_total is None:
        n_total = max(indices) + 1 if indices else 0
    if n_problem is None:
        n_problem = n_total

    coeffs: dict[tuple[int, int], Fraction] = {}
    for i, a in pairs:
        coeffs[(i, i)] = lam * a * (a + 2 * c)
    for (i, a), (j, b) in itertools.combinations(pairs, 2):
        key = (i, j) if i < j else (j, i)
        coeffs[key] = 2 * lam * a * b
    return QuboModel(n_total=n_total, n_problem=n_problem, coeffs=coeffs, offset=lam * c * c)


def combine(*models: QuboModel) -> QuboModel:
    """Sum penalty terms that share one variable space."""
    if not models:
        raise ConstructionError("combine needs at least one model")
    first = models[0]
    for other in models[1:]:
        if (other.n_total, other.n_problem) != (first.n_total, first.n_problem):
            raise DimensionError("models cover different variable spaces")
    coeffs: dict[tuple[int, int], Fraction] = {}
    offset = Fraction(0)
    for model in models:
        offset += model.offset
        for key, q in model.coeffs.items():
            coeffs[key] = coeffs.get(key, Fraction(0)) + q
    return QuboModel(first.n_total, first.n_problem, coeffs, offset)
