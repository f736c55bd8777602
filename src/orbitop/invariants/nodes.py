"""Linear checks on node configurations.

A configuration is a list of curve classes in a fixed homology space.
Smoothability asks for a vanishing combination with every coefficient
nonzero; Kahler positivity asks for a linear functional strictly
positive on every class.  Both are decided exactly over the rationals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from ..errors import CapExceededError, PreconditionError, VerificationError
from ..exact import Matrix, int_apply, integer_coefficients

# Rows one Fourier-Motzkin step may build.  A step pairs every lower
# bound with every upper bound, so the row count can square per step;
# the ten classes of the nodes_d4 stress scenario need 313,344.
FOURIER_MOTZKIN_ROW_CAP = 500_000


@dataclass(frozen=True)
class NodeConfiguration:
    classes: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not self.classes:
            raise PreconditionError("configuration needs at least one class")
        d = len(self.classes[0])
        if any(len(c) != d for c in self.classes):
            raise PreconditionError("classes must share a dimension")

    @classmethod
    def make(cls, classes) -> "NodeConfiguration":
        return cls(
            classes=tuple(tuple(Fraction(x) for x in c) for c in classes)
        )


@dataclass(frozen=True)
class SmoothabilityResult:
    smoothable: bool
    witness: tuple[Fraction, ...] | None


def node_smoothable(cfg: NodeConfiguration, seed: int = 0) -> SmoothabilityResult:
    """A vanishing relation with all coefficients nonzero exists iff the
    relation space avoids every coordinate hyperplane; the witness is a
    generic element of the relation space, re-verified exactly."""
    k = len(cfg.classes)
    m = Matrix.from_columns(cfg.classes)
    kernel = m.kernel_basis()
    if not kernel:
        return SmoothabilityResult(smoothable=False, witness=None)
    for j in range(k):
        if all(vec[j] == 0 for vec in kernel):
            return SmoothabilityResult(smoothable=False, witness=None)
    forms = [tuple(Fraction(int(i == j)) for i in range(k)) for j in range(k)]
    witness = generic_combination(kernel, forms, seed=seed)
    if any(x != 0 for x in m.apply(witness)):
        raise VerificationError("witness is not a relation")
    if any(x == 0 for x in witness):
        raise VerificationError("witness has a zero coefficient")
    return SmoothabilityResult(smoothable=True, witness=witness)


def node_kahler(cfg: NodeConfiguration) -> bool:
    """Feasibility of {y : y . c >= 1 for every class c}, decided by
    Fourier-Motzkin elimination; equivalent to strict positivity."""
    rows = [list(c) + [Fraction(1)] for c in cfg.classes]  # a.y >= b, b last
    return _fourier_motzkin_feasible(rows)


def _fourier_motzkin_feasible(rows) -> bool:
    """Rows are (a_1..a_d, b) meaning a . y >= b; decide feasibility."""
    if not rows:
        return True
    d = len(rows[0]) - 1
    for _ in range(d):
        lowers, uppers, keep = [], [], []
        for row in rows:
            c = row[0]
            rest = row[1:]
            if c > 0:
                lowers.append([x / c for x in rest])
            elif c < 0:
                uppers.append([x / c for x in rest])
            else:
                keep.append(rest)
        needed = len(keep) + len(lowers) * len(uppers)
        if needed > FOURIER_MOTZKIN_ROW_CAP:
            raise CapExceededError(
                f"Fourier-Motzkin step needs {needed} rows, "
                f"over cap {FOURIER_MOTZKIN_ROW_CAP}"
            )
        new_rows = keep
        for lo in lowers:
            for up in uppers:
                # lo-bound <= y_var <= up-bound: (up - lo) . (y,1) "&" signs:
                # lo gave y >= (b_lo - a_lo.y')/..., combined constraint is
                # a_up.y' - a_lo.y' >= b_up - b_lo after normalization.
                combined = [l - u for l, u in zip(lo, up)]
                new_rows.append(combined)
        rows = new_rows
        if not rows:
            return True
    return all(row[-1] <= 0 for row in rows)


def generic_combination(basis, forms, seed: int = 0, attempts: int = 1000):
    """An element of span(basis) on which every form that can be nonzero
    is nonzero.  Seeded random rationals first, then a deterministic
    power-basis fallback that is guaranteed to succeed.

    The forms are rational.  Candidates are tested on integers: each
    pairing of a combination is the same combination of the basis
    vectors' pairings, taken on their integer coefficient rows."""
    parts = integer_coefficients(basis)[2]
    order, _, form_parts = integer_coefficients(forms)
    if order != 1:
        raise PreconditionError("generic_combination needs rational forms")
    pairings = [[int_apply(vec, f) for vec in parts] for (f,) in form_parts]
    # Per relevant form, the pairings of the basis vectors by coefficient.
    relevant = [list(zip(*p)) for p in pairings if any(map(any, p))]

    def generic(coeffs):
        return all(any(int_apply(cols, coeffs)) for cols in relevant)

    rng = random.Random(seed)
    k = len(basis)
    for _ in range(attempts):
        draws = [(rng.randint(-97, 97), rng.randint(1, 97)) for _ in range(k)]
        den = lcm(*(q for _, q in draws))
        if generic([p * (den // q) for p, q in draws]):
            return _combine(basis, [Fraction(p, q) for p, q in draws])
    # Sum of t^i basis_i: each pairing is a nonzero polynomial in t of
    # degree < k, so some t among k*len(relevant)+1 integers works.
    for t in range(1, k * len(relevant) + 2):
        if generic([t**i for i in range(k)]):
            return _combine(basis, [Fraction(t) ** i for i in range(k)])
    raise PreconditionError("no generic combination exists")


def _combine(basis, coeffs):
    out = None
    for c, vec in zip(coeffs, basis):
        term = [c * x for x in vec]
        out = term if out is None else [a + b for a, b in zip(out, term)]
    return tuple(out)
