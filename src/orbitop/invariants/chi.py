"""Sign data on the three families of singular lines and its exact
combinatorics.

A ChiData is three n x n sign matrices chi1[j,k], chi2[i,k], chi3[i,j].
It is admissible when, at every index triple (i,j,k), the number of -1
entries among chi1[j,k], chi2[i,k], chi3[i,j] is 0, 1, or 3 -- never 2.

Bit encoding used internally: bit set <=> sign -1; chi1 occupies bits
(n*j + k), chi2 bits (n*i + k), chi3 bits (n*i + j); a full assignment
packs the three blocks little-endian into one integer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from ..errors import PreconditionError


@dataclass(frozen=True)
class ChiData:
    """Three n x n matrices with entries +1/-1."""

    chi1: tuple[tuple[int, ...], ...]
    chi2: tuple[tuple[int, ...], ...]
    chi3: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.chi1)
        for m in (self.chi1, self.chi2, self.chi3):
            if len(m) != n or any(len(row) != n for row in m):
                raise PreconditionError("chi matrices must be square of equal size")
            if any(x not in (1, -1) for row in m for x in row):
                raise PreconditionError("chi entries must be +1 or -1")

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


def code_admissible(code: int, n: int = 4) -> bool:
    """Bit-parallel admissibility check, equivalent to chi_admissible."""
    nn = n * n
    grid = (1 << nn) - 1
    row = (1 << n) - 1
    spread, repeat = _spread_table(n)
    a = code & grid
    chi2 = code >> nn & grid
    chi3 = code >> (2 * nn) & grid
    for i in range(n):
        u = chi2 >> (n * i) & row
        v = chi3 >> (n * i) & row
        u16 = u * repeat
        v16 = spread[v]
        need = u16 & v16  # cells where chi1 must be -1
        forbid = u16 ^ v16  # cells where chi1 must be +1
        if a & forbid or need & ~a & grid:
            return False
    return True


MAX_GRID_N = 4


def _check_grid(n: int) -> None:
    """The census and the count hold 2^(n^2)-element sets and sweeps, so
    the grid size is capped before anything is allocated."""
    if not 1 <= n <= MAX_GRID_N:
        raise PreconditionError(f"grid size n must be in 1..{MAX_GRID_N}, got {n}")


@dataclass(frozen=True)
class ChiCensus:
    family1_count: int
    axis_family_count: int
    union_count: int
    members: frozenset[int]
    n: int


def chi_family_census(n: int = 4) -> ChiCensus:
    """Enumerate the product family and the three axis families, dedupe,
    and cross-check the union by inclusion-exclusion."""
    _check_grid(n)
    nn = n * n
    family1 = set()
    for bits in range(1 << (3 * n)):
        delta = [(bits >> i) & 1 for i in range(n)]
        eps = [(bits >> (n + j)) & 1 for j in range(n)]
        zeta = [(bits >> (2 * n + k)) & 1 for k in range(n)]
        code = 0
        for j in range(n):
            for k in range(n):
                if eps[j] ^ zeta[k]:
                    code |= 1 << (n * j + k)
        for i in range(n):
            for k in range(n):
                if delta[i] ^ zeta[k]:
                    code |= 1 << (nn + n * i + k)
        for i in range(n):
            for j in range(n):
                if 1 ^ delta[i] ^ eps[j]:
                    code |= 1 << (2 * nn + n * i + j)
        family1.add(code)

    axis1 = {chi1 for chi1 in range(1 << nn)}
    axis2 = {chi2 << nn for chi2 in range(1 << nn)}
    axis3 = {chi3 << (2 * nn) for chi3 in range(1 << nn)}
    union = family1 | axis1 | axis2 | axis3

    sets = [family1, axis1, axis2, axis3]
    incl_excl = 0
    for r in range(1, 5):
        for combo in itertools.combinations(sets, r):
            inter = combo[0]
            for s in combo[1:]:
                inter = inter & s
            incl_excl += (-1) ** (r + 1) * len(inter)
    if incl_excl != len(union):
        raise PreconditionError("inclusion-exclusion does not match the union")

    for code in union:
        if not code_admissible(code, n):
            raise PreconditionError("census produced an inadmissible member")

    return ChiCensus(
        family1_count=len(family1),
        axis_family_count=len(axis1),
        union_count=len(union),
        members=frozenset(union),
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
        raise PreconditionError(
            f"independent chi counts disagree: {a} vs {b}"
        )
    if n <= 2:
        c = chi_count_brute_force(n)
        if a != c:
            raise PreconditionError(
                f"chi count {a} disagrees with brute force {c}"
            )
    return a


def _count_by_chi1_sweep(n: int) -> int:
    """Sum over chi1 of N(chi1)^n, where N counts the (chi2 row, chi3 row)
    pairs compatible with chi1; rows enter independently, so the per-row
    count is row-index free."""
    row = (1 << n) - 1
    total = 0
    for chi1 in range(1 << (n * n)):
        rows = [(chi1 >> (n * j)) & row for j in range(n)]
        pairs = 0
        for u in range(1 << n):
            prod = 1
            for r in rows:
                c = (0 if r & u else 1) + (1 if r == u else 0)
                if c == 0:
                    prod = 0
                    break
                prod *= c
            pairs += prod
        total += pairs**n
    return total


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
