"""Sign data on the three families of singular lines and its exact
combinatorics.

A ChiData is three n x n sign matrices chi1[j,k], chi2[i,k], chi3[i,j].
It is admissible when, at every index triple (i,j,k), the number of -1
entries among chi1[j,k], chi2[i,k], chi3[i,j] is 0, 1, or 3 -- never 2.

Bit encoding used internally: bit set <=> sign -1; chi1 occupies bits
(n*j + k), chi2 bits (n*i + k), chi3 bits (n*i + j); a full assignment
packs the three blocks little-endian into one integer.

Admissibility is decided on 64-bit lanes, one code per lane.  Triple
(i, j, k) is lane bit n^2 i + n j + k (n^3 <= 64 for n <= MAX_GRID_N),
and the three blocks are spread over the triples by masks and shifts:

    A = chi1 copied into every i-block      (chi1[j,k] at every i)
    B = row i of chi2 copied over j          (chi2[i,k] at every j)
    C = bit (i, j) of chi3 filled over k     (chi3[i,j] at every k)

(A&B | A&C | B&C) ^ (A&B&C) marks the triples with exactly two -1
signs, so a lane is inadmissible iff it is nonzero there.  No step
carries across a lane boundary, so the census packs 4096 members into
one Python int (`array('Q')` bytes) and checks them all at once with a
few dozen big-int operations; `code_admissible` is the one-lane case.

The total count runs two independent algorithms.  The chi1 sweep sums
N(chi1)^n over all 2^(n^2) chi1 and carries the products behind N down
the n rows of chi1 as prefix vectors, so each chi1 costs one dot
product; the column transfer groups the chi2 side by column multisets.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from collections.abc import Iterable
from functools import lru_cache, reduce
from math import factorial
from operator import and_, mul
from typing import NamedTuple

from ..errors import PreconditionError, VerificationError


class ChiData(
    NamedTuple(
        "ChiData",
        [
            ("chi1", tuple[tuple[int, ...], ...]),
            ("chi2", tuple[tuple[int, ...], ...]),
            ("chi3", tuple[tuple[int, ...], ...]),
        ],
    )
):
    """Three n x n matrices with entries +1/-1."""

    def __new__(cls, chi1, chi2, chi3):
        n = len(chi1)
        for m in (chi1, chi2, chi3):
            if len(m) != n or any(len(row) != n for row in m):
                raise PreconditionError("chi matrices must be square of equal size")
            if any(x not in (1, -1) for row in m for x in row):
                raise PreconditionError("chi entries must be +1 or -1")
        return super().__new__(cls, chi1, chi2, chi3)

    @property
    def n(self) -> int:
        return len(self.chi1)

    def encode(self) -> int:
        n = self.n
        code = 0
        for j in range(n):
            for k in range(n):
                if self.chi1[j][k] == -1:
                    code |= 1 << (n * j + k)
        for i in range(n):
            for k in range(n):
                if self.chi2[i][k] == -1:
                    code |= 1 << (n * n + n * i + k)
        for i in range(n):
            for j in range(n):
                if self.chi3[i][j] == -1:
                    code |= 1 << (2 * n * n + n * i + j)
        return code

    @classmethod
    def decode(cls, code: int, n: int) -> "ChiData":
        def block(offset):
            return tuple(
                tuple(
                    -1 if code >> (offset + n * a + b) & 1 else 1
                    for b in range(n)
                )
                for a in range(n)
            )

        return cls(chi1=block(0), chi2=block(n * n), chi3=block(2 * n * n))


def chi_admissible(data: ChiData) -> bool:
    """The per-point rule: 0, 1, or 3 of the three signs are -1, never 2."""
    n = data.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                minus = (
                    (data.chi1[j][k] == -1)
                    + (data.chi2[i][k] == -1)
                    + (data.chi3[i][j] == -1)
                )
                if minus == 2:
                    return False
    return True


@lru_cache(maxsize=None)
def _spread_table(n: int):
    """(spread, repeat) for grid size n: spread[v] is the mask with row j
    filled wherever bit j of v is set, and repeat * u copies the n-bit
    row u into every row."""
    row = (1 << n) - 1
    spread = []
    for v in range(1 << n):
        m = 0
        for j in range(n):
            if v >> j & 1:
                m |= row << (n * j)
        spread.append(m)
    return tuple(spread), sum(1 << (n * j) for j in range(n))


@lru_cache(maxsize=None)
def _lane_masks(n: int, lanes: int):
    """AND masks of the lane rule repeated over `lanes` 64-bit lanes: the
    n^2-bit grid, one n-bit row, and the first bit of every n^2-bit block."""
    ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * lanes, "little")
    nn = n * n
    starts = sum(1 << (nn * i) for i in range(n))
    return ((1 << nn) - 1) * ones, ((1 << n) - 1) * ones, starts * ones


def _two_minus(packed: int, n: int, lanes: int) -> int:
    """The index triples with exactly two -1 signs, for every code packed
    one per 64-bit lane; triple (i, j, k) is lane bit n^2 i + n j + k."""
    nn = n * n
    grid, row, starts = _lane_masks(n, lanes)
    a = (packed & grid) * sum(1 << (nn * i) for i in range(n))  # chi1 at every i
    b = c = 0
    for i in range(n):  # row i of chi2 and of chi3 to block i
        b |= (packed >> (nn + n * i) & row) << (nn * i)
        c |= (packed >> (2 * nn + n * i) & row) << (nn * i)
    b *= sum(1 << (n * j) for j in range(n))  # chi2[i,k] at every j
    spaced = 0
    for j in range(n):  # bit j of block i to row j of block i
        spaced |= (c >> j & starts) << (n * j)
    c = spaced * ((1 << n) - 1)  # chi3[i,j] at every k
    ab = a & b
    return (ab | a & c | b & c) ^ (ab & c)


def code_admissible(code: int, n: int = 4) -> bool:
    """Bit-parallel admissibility check, equivalent to chi_admissible:
    the one-lane case of the census check."""
    return not _two_minus(code, n, 1)


MAX_GRID_N = 4


def _check_grid(n: int) -> None:
    """The census and the count hold 2^(n^2)-element sets and sweeps, so
    the grid size is capped before anything is allocated."""
    if not 1 <= n <= MAX_GRID_N:
        raise PreconditionError(f"grid size n must be in 1..{MAX_GRID_N}, got {n}")


def _check_admissible(codes: Iterable[int], n: int) -> None:
    """Check every code by the lane rule, 4096 codes per packed int; the
    packed chunk stays small, so the check adds no memory peak."""
    it = iter(codes)
    while chunk := array("Q", list(itertools.islice(it, 4096))):
        packed = int.from_bytes(chunk.tobytes(), sys.byteorder)
        bad = _two_minus(packed, n, len(chunk))
        if bad:
            lanes = array("Q", bad.to_bytes(8 * len(chunk), sys.byteorder))
            code = next(c for c, t in zip(chunk, lanes) if t)
            raise VerificationError(
                f"census member {code:#x} is inadmissible for n = {n}"
            )


class ChiCensus(NamedTuple):
    family1_count: int
    axis_family_count: int
    union_count: int
    members: frozenset[int]
    n: int


def _product_family(n: int) -> set[int]:
    """Codes of chi1 = eps x zeta, chi2 = delta x zeta, chi3 = -delta x eps
    over all sign vectors delta, eps, zeta, as masks: eps x zeta is
    spread[eps] ^ zeta * repeat."""
    nn = n * n
    grid = (1 << nn) - 1
    spread, repeat = _spread_table(n)
    size = 1 << n
    return {
        (spread[eps] ^ zeta * repeat)
        | (spread[delta] ^ zeta * repeat) << nn
        | (grid ^ spread[delta] ^ eps * repeat) << (2 * nn)
        for delta in range(size)
        for eps in range(size)
        for zeta in range(size)
    }


def _inclusion_exclusion(sets) -> int:
    """The size of the union of `sets` from the sizes of their intersections."""
    return sum(
        (-1) ** (r + 1) * len(reduce(and_, combo))
        for r in range(1, len(sets) + 1)
        for combo in itertools.combinations(sets, r)
    )


def chi_family_census(n: int = 4) -> ChiCensus:
    """Enumerate the product family and the three axis families, dedupe,
    cross-check the union by inclusion-exclusion, and check every member
    by the lane rule."""
    _check_grid(n)
    nn = n * n
    family1 = _product_family(n)
    axis1 = set(range(1 << nn))
    axis2 = set(range(0, 1 << (2 * nn), 1 << nn))
    axis3 = set(range(0, 1 << (3 * nn), 1 << (2 * nn)))
    sets = [family1, axis1, axis2, axis3]
    union = frozenset().union(*sets)
    if _inclusion_exclusion(sets) != len(union):
        raise VerificationError("inclusion-exclusion does not match the union")
    _check_admissible(union, n)
    return ChiCensus(
        family1_count=len(family1),
        axis_family_count=len(axis1),
        union_count=len(union),
        members=union,
        n=n,
    )


# ---------------------------------------------------------------------------
# Exact total count of admissible assignments


def chi_total_count(n: int = 4) -> int:
    """Exact number of admissible assignments, by two independent
    algorithms that must agree (and by brute force for n <= 2)."""
    _check_grid(n)
    a = _count_by_chi1_sweep(n)
    b = _count_by_column_transfer(n)
    if a != b:
        raise VerificationError(
            f"independent chi counts disagree: {a} vs {b}"
        )
    if n <= 2:
        c = chi_count_brute_force(n)
        if a != c:
            raise VerificationError(
                f"chi count {a} disagrees with brute force {c}"
            )
    return a


def _count_by_chi1_sweep(n: int) -> int:
    """Sum over all 2^(n^2) chi1 of N(chi1)^n, where N counts the (chi2
    row, chi3 row) pairs compatible with chi1; rows enter independently,
    so the per-row count is row-index free.  N is the sum over u of the
    product over the chi1 rows r of c[r][u]; those products are carried
    down the rows as one prefix vector per chi1 prefix, so each chi1
    costs one dot product of its last row's vector with its prefix."""
    size = 1 << n
    c = [[(0 if r & u else 1) + (r == u) for u in range(size)] for r in range(size)]
    prefixes = [[1] * size]
    for _ in range(n - 1):
        prefixes = [list(map(mul, p, cr)) for p in prefixes for cr in c]
    return sum(sum(map(mul, p, cr)) ** n for p in prefixes for cr in c)


def _cell_choices(u: int, v: int) -> int:
    """Number of allowed chi1 values at one cell given the columns of
    chi2 and chi3 over i at that cell: a mixed index forces +1, a doubly
    set index forces -1, a conflict kills the cell."""
    forced_plus = bool(u ^ v)
    forced_minus = bool(u & v)
    if forced_plus and forced_minus:
        return 0
    if forced_plus or forced_minus:
        return 1
    return 2


def _count_by_column_transfer(n: int) -> int:
    """Sum over the chi2 side of (sum over one chi3 column of the product
    of per-cell chi1 choices)^n, memoized on the multiset of chi2 columns."""
    size = 1 << n
    f = [[_cell_choices(u, v) for v in range(size)] for u in range(size)]
    total = 0
    for multiset in itertools.combinations_with_replacement(range(size), n):
        counts: dict[int, int] = {}
        for u in multiset:
            counts[u] = counts.get(u, 0) + 1
        arrangements = factorial(n)
        for c in counts.values():
            arrangements //= factorial(c)
        inner = 0
        for v in range(size):
            prod = 1
            for u in multiset:
                prod *= f[u][v]
                if prod == 0:
                    break
            inner += prod
        total += arrangements * inner**n
    return total


def chi_count_brute_force(n: int) -> int:
    """Direct enumeration of all 2^(3 n^2) assignments; n <= 2 only."""
    if n > 2:
        raise PreconditionError("brute force limited to n <= 2")
    count = 0
    for code in range(1 << (3 * n * n)):
        if code_admissible(code, n):
            count += 1
    return count
