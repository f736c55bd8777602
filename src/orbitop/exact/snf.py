"""Smith normal form of integer matrices with unimodular transforms.

Matrices come in and go out as tuples of int rows; no Fraction is
built.  Pivot choice is the smallest-absolute-value nonzero entry, ties
broken by row-major position, so the decomposition is deterministic for
a fixed input.  The result is re-verified exactly on ints.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import PreconditionError, VerificationError
from .matrix import int_product


class SmithDecomposition(NamedTuple):
    """U @ M @ V == D with U, V unimodular and D diagonal, each a tuple of
    int rows.  invariant_factors lists the full diagonal of D (length
    min(m, n)), nonnegative, each nonzero entry dividing the next.
    """

    U: tuple[tuple[int, ...], ...]
    D: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]
    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d != 0)


def _find_pivot(a, t, m, n):
    best = None
    for i in range(t, m):
        for j in range(t, n):
            v = a[i][j]
            if v != 0 and (best is None or abs(v) < abs(best[2])):
                best = (i, j, v)
                if abs(v) == 1:
                    return best
    return best


def _all_ints(*matrices) -> bool:
    return all(type(x) is int for rows in matrices for row in rows for x in row)


def snf(rows) -> SmithDecomposition:
    """Smith normal form of a nonempty integer matrix given as rows of
    ints."""
    rows = tuple(map(tuple, rows))
    if not rows or not rows[0]:
        raise PreconditionError("snf requires a nonempty matrix")
    if any(len(row) != len(rows[0]) for row in rows):
        raise PreconditionError("snf requires rows of equal length")
    if not _all_ints(rows):
        raise PreconditionError("snf requires integer entries")
    a = [list(row) for row in rows]
    m, n = len(a), len(a[0])
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    while t < min(m, n):
        found = _find_pivot(a, t, m, n)
        if found is None:
            break
        i, j, _ = found
        if i != t:
            swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        # Clear row and column t; pivot magnitude strictly decreases on
        # every nonzero remainder, so this terminates.
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # Enforce divisibility: fold any non-divisible entry into row t.
        pivot = a[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % pivot != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue  # redo this pivot position
        t += 1

    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]

    factors = tuple(a[i][i] for i in range(min(m, n)))
    result = SmithDecomposition(
        U=tuple(map(tuple, u)),
        D=tuple(map(tuple, a)),
        V=tuple(map(tuple, v)),
        invariant_factors=factors,
    )
    _verify(rows, result)
    return result


def _verify(matrix, result: SmithDecomposition) -> None:
    """Re-check that U, D, V are integral, U @ M @ V == D and the
    divisibility chain, exactly on ints."""
    u, d, v = result.U, result.D, result.V
    if not _all_ints(u, d, v) or int_product(int_product(u, matrix), v) != d:
        raise VerificationError("snf transform verification failed")
    factors = result.invariant_factors
    for x, y in zip(factors, factors[1:]):
        if not (y == 0 or (x != 0 and y % x == 0)):
            raise VerificationError("snf divisibility chain violated")
