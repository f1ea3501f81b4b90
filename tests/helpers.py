"""Shared helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction as F

from hypothesis import strategies as st

from quborestrict.core import (
    EncodedRestriction,
    EncodingKind,
    QuboModel,
    RestrictionSpec,
    expand_squared_affine,
)


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
