"""Simply laced Dynkin diagrams, root systems, Weyl groups, and the
semidirect product of diagram symmetries with the reflection group.

Simple roots are ordered deterministically per family: A_r along the
path; D_r along the path with the two fork tips last; E_6/7/8 in the
conventional numbering with the branch vertex second.

Group operations run on tuples of int rows.  `weyl_group` closes the
simple reflections breadth-first on int rows (right multiplication by
s_i subtracts a multiple of Cartan row i from each row) and builds the
`Matrix` objects of `WeylGroup.elements` once, sorted by their rows.
`ExtendedElement` keeps its Weyl part as a `Matrix` but multiplies,
inverts and dualizes on its int rows: conjugating by a diagram
automorphism b is the reindexing W[b[i]][b[j]], and the inverse of the
unimodular lattice matrix comes from integer row operations, re-checked
by an integer product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial

from .errors import CapExceededError, PreconditionError, VerificationError
from .exact import Matrix, int_apply, int_product

RANK_CAP = 8
WEYL_ENUMERATION_CAP = 100_000

# Exceptional-family edge lists (0-indexed; branch vertex is index 1,
# attached to the third vertex of the chain).
_E_EDGES = {
    6: [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)],
    7: [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)],
    8: [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)],
}

_E_WEYL_ORDERS = {6: 51_840, 7: 2_903_040, 8: 696_729_600}

# Per-vertex coefficient bounds for positive roots: the coefficients of
# the highest root, which dominate every positive root coefficientwise.
_E_HIGHEST = {
    6: (1, 2, 2, 3, 2, 1),
    7: (2, 2, 3, 4, 3, 2, 1),
    8: (2, 3, 4, 6, 5, 4, 3, 2),
}


@dataclass(frozen=True)
class DynkinDiagram:
    family: str
    rank: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def make(cls, family: str, rank: int) -> "DynkinDiagram":
        family = family.upper()
        if rank > RANK_CAP:
            raise CapExceededError(f"rank {rank} exceeds cap {RANK_CAP}")
        if family == "A":
            if rank < 1:
                raise PreconditionError("A_r requires r >= 1")
            edges = [(i, i + 1) for i in range(rank - 1)]
        elif family == "D":
            if rank < 4:
                raise PreconditionError("D_r requires r >= 4")
            edges = [(i, i + 1) for i in range(rank - 3)]
            edges += [(rank - 3, rank - 2), (rank - 3, rank - 1)]
        elif family == "E":
            if rank not in (6, 7, 8):
                raise PreconditionError("E_r requires r in {6, 7, 8}")
            edges = _E_EDGES[rank]
        else:
            raise PreconditionError(f"unknown family {family!r}")
        return cls(family=family, rank=rank, edges=tuple(edges))

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    def neighbors(self, v: int) -> tuple[int, ...]:
        out = []
        for i, j in self.edges:
            if i == v:
                out.append(j)
            elif j == v:
                out.append(i)
        return tuple(sorted(out))

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def highest_root_bounds(self) -> tuple[int, ...]:
        r = self.rank
        if self.family == "A":
            return (1,) * r
        if self.family == "D":
            return (1,) + (2,) * (r - 3) + (1, 1)
        return _E_HIGHEST[r]


@dataclass(frozen=True)
class RootSystem:
    diagram: DynkinDiagram
    cartan: Matrix
    intersection_form: Matrix
    roots: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return self.diagram.rank

    def self_intersection(self, v) -> Fraction:
        image = self.intersection_form.apply(v)
        return sum(a * b for a, b in zip(v, image))


def build_root_system(diagram: DynkinDiagram) -> RootSystem:
    """Enumerate the roots: vectors of self-intersection -2 in the box
    bounded coefficientwise by the highest root, closed under negation."""
    r = diagram.rank
    cartan = [[2 * int(i == j) for j in range(r)] for i in range(r)]
    for i, j in diagram.edges:
        cartan[i][j] = cartan[j][i] = -1
    bounds = diagram.highest_root_bounds()
    edges = diagram.edges
    positives = []
    for coeffs in itertools.product(*(range(b + 1) for b in bounds)):
        if not any(coeffs):
            continue
        # v^T C v = 2*sum c_i^2 - 2*sum_edges c_i c_j, exploiting sparsity
        q = 2 * sum(c * c for c in coeffs)
        q -= 2 * sum(coeffs[i] * coeffs[j] for i, j in edges)
        if q == 2:
            positives.append(coeffs)
    roots = sorted(positives) + sorted(tuple(-c for c in v) for v in positives)
    expected = _root_count(diagram)
    if len(roots) != expected:
        raise PreconditionError(
            f"root enumeration for {diagram.name} found {len(roots)}, "
            f"expected {expected}"
        )
    cm = Matrix(cartan)
    return RootSystem(
        diagram=diagram,
        cartan=cm,
        intersection_form=-cm,
        roots=tuple(tuple(c) for c in roots),
    )


def _root_count(diagram: DynkinDiagram) -> int:
    r = diagram.rank
    if diagram.family == "A":
        return r * (r + 1)
    if diagram.family == "D":
        return 2 * r * (r - 1)
    return {6: 72, 7: 126, 8: 240}[r]


def weyl_order(diagram: DynkinDiagram) -> int:
    r = diagram.rank
    if diagram.family == "A":
        return factorial(r + 1)
    if diagram.family == "D":
        return 2 ** (r - 1) * factorial(r)
    return _E_WEYL_ORDERS[r]


@dataclass(frozen=True)
class WeylGroup:
    diagram: DynkinDiagram
    generators: tuple[Matrix, ...]
    order: int
    elements: tuple[Matrix, ...] | None  # None when kept lazy

    @property
    def enumerated(self) -> bool:
        return self.elements is not None


def simple_reflections(rs: RootSystem) -> tuple[Matrix, ...]:
    """Reflection matrices on the root lattice in the simple-root basis."""
    r = rs.rank
    gens = []
    for i in range(r):
        m = [[Fraction(int(a == b)) for b in range(r)] for a in range(r)]
        for j in range(r):
            m[i][j] -= rs.cartan[i, j]
        gens.append(Matrix(m))
    return tuple(gens)


def weyl_group(rs: RootSystem, enumeration_cap: int = WEYL_ENUMERATION_CAP) -> WeylGroup:
    gens = simple_reflections(rs)
    order = weyl_order(rs.diagram)
    elements = None
    if order <= enumeration_cap:
        # s_i = 1 - e_i C_i, with C_i row i of the Cartan matrix, so
        # s_i @ m differs from m only in row i: m_i - sum_j C_ij m_j.
        terms = [
            [(j, c) for j, c in enumerate(c_row) if c]
            for c_row in rs.cartan.int_rows()
        ]
        ident = _identity_rows(rs.rank)
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for m in frontier:
                for i, t in enumerate(terms):
                    cols = zip(*(m[j] for j, _ in t))
                    step = int_apply(cols, [c for _, c in t])
                    row = tuple(x - y for x, y in zip(m[i], step))
                    p = m[:i] + (row,) + m[i + 1:]
                    if p not in seen:
                        seen.add(p)
                        nxt.append(p)
            frontier = nxt
        if len(seen) != order:
            raise PreconditionError(
                f"Weyl enumeration for {rs.diagram.name} found {len(seen)} "
                f"elements, expected {order}"
            )
        elements = tuple(Matrix.from_int_rows(m) for m in sorted(seen))
    return WeylGroup(diagram=rs.diagram, generators=gens, order=order, elements=elements)


def _identity_rows(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def graph_automorphisms(diagram: DynkinDiagram) -> tuple[tuple[int, ...], ...]:
    """All vertex permutations preserving adjacency, identity first."""
    adj = {frozenset(e) for e in diagram.edges}
    auts = []
    for perm in itertools.permutations(range(diagram.rank)):
        if all(frozenset((perm[i], perm[j])) in adj for i, j in diagram.edges):
            auts.append(perm)
    auts.sort()
    return tuple(auts)


def perm_matrix(perm: tuple[int, ...]) -> Matrix:
    n = len(perm)
    return Matrix(
        [[Fraction(int(perm[j] == i)) for j in range(n)] for i in range(n)]
    )


@dataclass(frozen=True)
class ExtendedElement:
    """Element (a, w) of Aut(diagram) x| W acting on the root lattice by
    v |-> P_a (M_w v)."""

    aut: tuple[int, ...]
    weyl: Matrix

    @classmethod
    def identity(cls, rank: int) -> "ExtendedElement":
        return cls(aut=tuple(range(rank)), weyl=Matrix.identity(rank))

    def __mul__(self, other: "ExtendedElement") -> "ExtendedElement":
        # (a, w)(a', w') = (a a', (a'^-1 w a') w'), matching composition
        # of the lattice actions; conjugating by P_a' reindexes w.
        b = other.aut
        w = self.weyl.int_rows()
        conj = [[w[i][j] for j in b] for i in b]
        return ExtendedElement(
            aut=tuple(self.aut[i] for i in b),
            weyl=Matrix.from_int_rows(int_product(conj, other.weyl.int_rows())),
        )

    @cached_property
    def lattice_rows(self) -> tuple[tuple[int, ...], ...]:
        """P_a M_w as int rows: row k of M_w moves to row a[k]."""
        rows = [None] * len(self.aut)
        for k, row in zip(self.aut, self.weyl.int_rows()):
            rows[k] = row
        return tuple(rows)

    @cached_property
    def dual_rows(self) -> tuple[tuple[int, ...], ...]:
        """The inverse transpose of the lattice matrix, as int rows."""
        return tuple(zip(*_unimodular_inverse(self.lattice_rows)))

    def lattice_matrix(self) -> Matrix:
        return Matrix.from_int_rows(self.lattice_rows)

    def dual_matrix(self) -> Matrix:
        return Matrix.from_int_rows(self.dual_rows)

    def is_identity(self) -> bool:
        n = len(self.aut)
        ident = _identity_rows(n)
        return self.aut == tuple(range(n)) and self.weyl.int_rows() == ident

    def inverse(self) -> "ExtendedElement":
        inv_aut = [0] * len(self.aut)
        for i, v in enumerate(self.aut):
            inv_aut[v] = i
        # P_a M_w^-1 P_a^-1 has entry (i, j) = M_w^-1[a^-1 i][a^-1 j].
        w_inv = _unimodular_inverse(self.weyl.int_rows())
        conj = [[w_inv[i][j] for j in inv_aut] for i in inv_aut]
        return ExtendedElement(aut=tuple(inv_aut), weyl=Matrix.from_int_rows(conj))


def _unimodular_inverse(rows) -> tuple[tuple[int, ...], ...]:
    """Inverse of a square integer matrix of determinant +-1, as int
    rows; the result is re-checked by an integer product."""
    inv = _row_reduce_inverse(rows)
    if int_product(inv, rows) != _identity_rows(len(rows)):
        raise VerificationError("integer inverse check failed")
    return inv


def _row_reduce_inverse(rows):
    """Reduce [L | 1] to [1 | L^-1] by integer row operations: Euclid on
    each column below the diagonal, then back substitution."""
    n = len(rows)
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        while True:
            live = [r for r in range(c, n) if work[r][c]]
            if not live:
                raise PreconditionError("matrix is singular")
            p = min(live, key=lambda r: abs(work[r][c]))
            work[c], work[p] = work[p], work[c]
            pivot = work[c][c]
            for r in range(c + 1, n):
                q = work[r][c] // pivot
                if q:
                    work[r] = [x - q * y for x, y in zip(work[r], work[c])]
            if not any(work[r][c] for r in range(c + 1, n)):
                break
        if abs(pivot) != 1:
            raise PreconditionError("matrix is not invertible over the integers")
        if pivot < 0:
            work[c] = [-x for x in work[c]]
    for c in reversed(range(n)):
        for r in range(c):
            f = work[r][c]
            if f:
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return tuple(tuple(row[n:]) for row in work)


def extended_action(element: ExtendedElement, vector, dual: bool = False):
    """Apply an extended element to a lattice vector or (dual) class."""
    m = element.dual_matrix() if dual else element.lattice_matrix()
    return m.apply(vector)
