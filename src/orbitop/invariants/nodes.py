"""Linear checks on node configurations.

A configuration is a list of curve classes in a fixed homology space.
Smoothability asks for a vanishing combination with every coefficient
nonzero; Kahler positivity asks for a linear functional strictly
positive on every class.  Both are decided exactly over the rationals,
and each answer carries a witness that is re-verified before it is
returned.

Kahler positivity rests on Gordan's theorem: {y : y . c >= 1 for every
class c} is empty iff some lam >= 0 with sum(lam) = 1 has
sum(lam_i c_i) = 0.  Phase 1 of the simplex method over Fractions, with
Bland's rule so that it terminates, decides that system.  Its solution
is lam; otherwise its final duals give y.  Either certificate is checked
on integers, with the classes scaled by one common denominator.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul
from typing import NamedTuple

from ..errors import PreconditionError, VerificationError
from ..exact import int_apply, int_kernel, integer_coefficients, zero_pairings


class NodeConfiguration(
    NamedTuple("NodeConfiguration", [("classes", tuple[tuple[Fraction, ...], ...])])
):
    def __new__(cls, classes):
        if not classes:
            raise PreconditionError("configuration needs at least one class")
        d = len(classes[0])
        if any(len(c) != d for c in classes):
            raise PreconditionError("classes must share a dimension")
        return super().__new__(cls, classes)

    @classmethod
    def make(cls, classes) -> "NodeConfiguration":
        return cls(
            classes=tuple(tuple(Fraction(x) for x in c) for c in classes)
        )


class SmoothabilityResult(NamedTuple):
    smoothable: bool
    witness: tuple[Fraction, ...] | None


class KahlerResult(NamedTuple):
    """`certificate` is a functional y with y . c >= 1 for every class
    when `positive`, else coefficients lam >= 0 summing to 1 with
    sum(lam_i c_i) = 0."""

    positive: bool
    certificate: tuple[Fraction, ...]


def node_smoothable(cfg: NodeConfiguration, seed: int = 0) -> SmoothabilityResult:
    """A vanishing relation with all coefficients nonzero exists iff the
    relation space avoids every coordinate hyperplane; the witness is a
    generic element of the relation space, re-verified on integers."""
    k = len(cfg.classes)
    # The classes, scaled by one common denominator, as columns.
    rows = tuple(zip(*_integer_rows(cfg.classes)))
    kernel = int_kernel([(row,) for row in rows])
    parts = kernel[1]
    if not parts or any(all(vec[0][j] == 0 for vec in parts) for j in range(k)):
        return SmoothabilityResult(smoothable=False, witness=None)
    forms = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    d, (witness,) = generic_combination(kernel, forms, seed=seed)
    if any(int_apply(rows, witness)):
        raise VerificationError("witness is not a relation")
    if any(x == 0 for x in witness):
        raise VerificationError("witness has a zero coefficient")
    return SmoothabilityResult(
        smoothable=True, witness=tuple(Fraction(x, d) for x in witness)
    )


def node_kahler(cfg: NodeConfiguration) -> KahlerResult:
    """Strict positivity of some functional on every class, with a
    certificate either way, re-verified on integers."""
    lam, y = _gordan_phase_one(cfg.classes)
    rows = _integer_rows(cfg.classes)
    if y is None:
        (scaled,) = _integer_rows([lam])
        if any(x < 0 for x in scaled) or sum(scaled) == 0:
            raise VerificationError("Kahler certificate is not a convex combination")
        if any(int_apply(tuple(zip(*rows)), scaled)):
            raise VerificationError("Kahler certificate is not a relation")
        return KahlerResult(positive=False, certificate=lam)
    (scaled,) = _integer_rows([y])
    if any(v <= 0 for v in int_apply(rows, scaled)):
        raise VerificationError("Kahler functional is not positive on every class")
    return KahlerResult(positive=True, certificate=y)


def _integer_rows(vectors):
    """Rational vectors scaled by one common positive denominator."""
    return [part for (part,) in integer_coefficients(vectors)[2]]


def _gordan_phase_one(classes):
    """Phase 1 of the simplex method on [c_1 .. c_k; 1 .. 1] lam =
    (0, .., 0, 1), lam >= 0, with one artificial variable per row and
    Bland's rule.  Returns (lam, None) when the system is feasible and
    (None, y) with y . c >= 1 for every class c otherwise."""
    k, d = len(classes), len(classes[0])
    one, zero = Fraction(1), Fraction(0)
    # Tableau rows: k lam columns, d + 1 artificial columns, right side.
    rows = [
        [c[i] for c in classes] + [one if j == i else zero for j in range(d + 1)]
        + [zero]
        for i in range(d)
    ]
    rows.append([one] * k + [zero] * d + [one, one])
    basis = list(range(k, k + d + 1))
    # Reduced costs of the sum of the artificials, minus its value last.
    cost = [-sum(col) for col in zip(*rows)]
    for j in basis:
        cost[j] += 1
    while True:
        enter = next((j for j, r in enumerate(cost[:-1]) if r < 0), None)
        if enter is None:
            break
        # Phase 1 is bounded below, so some entry of the column is positive;
        # among the least ratios the smallest basic index leaves.
        leave = min(
            (i for i, row in enumerate(rows) if row[enter] > 0),
            key=lambda i: (rows[i][-1] / rows[i][enter], basis[i]),
        )
        pivot = rows[leave]
        p = pivot[enter]
        pivot[:] = [x / p for x in pivot]
        for row in rows + [cost]:
            f = row[enter]
            if row is not pivot and f:
                row[:] = [a - f * b if b else a for a, b in zip(row, pivot)]
        basis[leave] = enter
    if cost[-1] == 0:
        lam = [zero] * k
        for i, j in enumerate(basis):
            if j < k:
                lam[j] = rows[i][-1]
        return tuple(lam), None
    # The duals (u, t) of the artificial columns: t is the optimum, > 0,
    # and u . c + t <= 0 for every class because no reduced cost is negative.
    *u, t = (1 - r for r in cost[k:-1])
    return None, tuple(-x / t for x in u)


def generic_combination(basis, forms, seed: int = 0, attempts: int = 1000):
    """An element of span(basis) on which every form that can be nonzero
    is nonzero.  Seeded random rationals first, then a deterministic
    power-basis fallback that is guaranteed to succeed.

    The basis is in the integer_coefficients form (d, parts) and the
    forms are int rows; the element is returned as (d', rows), one
    vector of that form.  Candidates are combined and tested on those
    int rows: a form is nonzero on a vector when it is on one of its
    coefficient rows."""
    if not set(map(type, chain.from_iterable(forms))) <= {int, bool}:
        raise PreconditionError("generic_combination needs integer forms")
    d, parts = basis
    if not parts:
        raise PreconditionError("generic_combination needs a nonempty basis")
    # Only the forms some basis vector pairs with nonzero constrain.
    rows = [row for vec in parts for row in vec]
    relevant = [f for f, dead in zip(forms, zero_pairings(forms, rows)) if not dead]

    rng = random.Random(seed)
    k = len(parts)
    for _ in range(attempts):
        draws = [(rng.randint(-97, 97), rng.randint(1, 97)) for _ in range(k)]
        den = lcm(*(q for _, q in draws))
        combined = _combine(parts, [p * (den // q) for p, q in draws])
        if not any(zero_pairings(relevant, combined)):
            return d * den, combined
    # Sum of t^i basis_i: each pairing is a nonzero polynomial in t of
    # degree < k, so some t among k*len(relevant)+1 integers works.
    for t in range(1, k * len(relevant) + 2):
        combined = _combine(parts, [t**i for i in range(k)])
        if not any(zero_pairings(relevant, combined)):
            return d, combined
    raise PreconditionError("no generic combination exists")


def _combine(parts, coeffs):
    """sum_k coeffs[k] parts[k], plane by plane, on ints."""
    return tuple(
        tuple(sum(map(mul, coeffs, column)) for column in zip(*planes))
        for planes in zip(*parts)
    )
