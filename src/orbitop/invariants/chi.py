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
The census never holds its union: axis family b is the codes supported
on block b (mask grid << b n^2), so the union streams as ranges and then
the product-family members outside every mask, and inclusion-exclusion
recounts it from the ANDs of the masks.

The total count runs two independent algorithms.  The chi1 sweep sums
N(chi1)^n over all 2^(n^2) chi1 and carries the products behind N down
the n rows of chi1 as prefix vectors counted by multiplicity; the column
transfer walks the chi2 column multisets depth-first, carrying products.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from collections import Counter
from collections.abc import Iterable
from functools import lru_cache, reduce
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
        return sum(
            1 << (b * n * n + n * row + col)  # entry [row][col] of block b
            for b, m in enumerate(self)
            for row, signs in enumerate(m)
            for col, x in enumerate(signs)
            if x == -1
        )

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
    return all(
        (data.chi1[j][k], data.chi2[i][k], data.chi3[i][j]).count(-1) != 2
        for i, j, k in itertools.product(range(data.n), repeat=3)
    )


@lru_cache(maxsize=None)
def _spread_table(n: int):
    """(spread, repeat) for grid size n: spread[v] is the mask with row j
    filled wherever bit j of v is set, and repeat * u copies the n-bit
    row u into every row."""
    row = (1 << n) - 1
    spread = (
        sum(row << (n * j) for j in range(n) if v >> j & 1) for v in range(1 << n)
    )
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
    """The census streams 3 * 2^(n^2) codes and the count sweeps 2^(n^2)
    chi1, so the grid size is capped before anything runs."""
    if not 1 <= n <= MAX_GRID_N:
        raise PreconditionError(f"grid size n must be in 1..{MAX_GRID_N}, got {n}")


def _check_admissible(codes: Iterable[int], n: int) -> None:
    """Check every code of a stream by the lane rule, 4096 codes per
    packed int; only one chunk is held at a time, never the stream."""
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
    spanning: tuple[int, ...]  # product-family members outside every axis family
    n: int

    @property
    def members(self) -> frozenset[int]:
        """The union, built on access."""
        return frozenset(itertools.chain(*_axis_ranges(self.n), self.spanning))


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


def _axis_ranges(n: int) -> list[range]:
    """The union of the axis families: 0 once, then the nonzero codes
    supported on each block."""
    nn = n * n
    return [range(1)] + [range(1 << b, 1 << b + nn, 1 << b) for b in (0, nn, 2 * nn)]


def _inclusion_exclusion(families) -> int:
    """The size of the union of `families` from the sizes of their
    intersections.  A family (mask, members) is the codes supported on
    mask, only those in members unless members is None."""
    total = 0
    for r in range(1, len(families) + 1):
        for combo in itertools.combinations(families, r):
            mask = reduce(and_, (m for m, _ in combo))
            listed = [s for _, s in combo if s is not None]
            if listed:
                size = sum(not x & ~mask for x in reduce(and_, listed))
            else:
                size = 1 << mask.bit_count()
            total += (-1) ** (r + 1) * size
    return total


def chi_family_census(n: int = 4) -> ChiCensus:
    """Count the union of the product family and the three axis families,
    cross-check it by inclusion-exclusion over the block masks, and check
    every member by the lane rule in one stream, never holding the union:
    the axis ranges, then the product-family members outside every mask."""
    _check_grid(n)
    nn = n * n
    family1 = _product_family(n)
    masks = [((1 << nn) - 1) << b for b in (0, nn, 2 * nn)]
    spanning = tuple(x for x in family1 if all(x & ~m for m in masks))
    stream = [*_axis_ranges(n), spanning]
    union_count = sum(map(len, stream))
    families = [((1 << 3 * nn) - 1, family1)] + [(m, None) for m in masks]
    if _inclusion_exclusion(families) != union_count:
        raise VerificationError("inclusion-exclusion does not match the union")
    _check_admissible(itertools.chain(*stream), n)
    return ChiCensus(len(family1), 1 << nn, union_count, spanning, n)


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
    down the rows as a {prefix vector: number of prefixes} Counter, so
    equal prefix vectors are extended and dotted once."""
    size = 1 << n
    c = [[(0 if r & u else 1) + (r == u) for u in range(size)] for r in range(size)]
    prefixes = Counter({(1,) * size: 1})
    for _ in range(n - 1):
        grown = Counter()
        for p, weight in prefixes.items():
            for cr in c:
                grown[tuple(map(mul, p, cr))] += weight
        prefixes = grown
    return sum(w * sum(map(mul, p, cr)) ** n for p, w in prefixes.items() for cr in c)


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
    of per-cell chi1 choices)^n, per multiset of chi2 columns times its
    arrangements.  The multisets are walked depth-first as nondecreasing
    sequences carrying the product vector; a zero vector ends its branch."""
    size = 1 << n
    f = [[_cell_choices(u, v) for v in range(size)] for u in range(size)]
    total = 0
    # (columns placed, last column, its multiplicity, arrangements, products)
    stack = [(0, 0, 0, 1, [1] * size)]
    while stack:
        depth, last, run, ways, vec = stack.pop()
        if depth == n:
            total += ways * sum(vec) ** n
            continue
        for u in range(last, size):
            k = run + 1 if u == last and depth else 1
            grown = list(map(mul, vec, f[u]))
            if any(grown):
                stack.append((depth + 1, u, k, ways * (depth + 1) // k, grown))
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
