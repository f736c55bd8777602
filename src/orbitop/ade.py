"""Simply laced Dynkin diagrams, root systems, Weyl groups, and the
semidirect product of diagram symmetries with the reflection group.

Simple roots are ordered deterministically per family: A_r along the
path; D_r along the path with the two fork tips last; E_6/7/8 in the
conventional numbering with the branch vertex second.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import CapExceededError, PreconditionError
from .exact import Matrix

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
        seen = {Matrix.identity(rs.rank)}
        frontier = [Matrix.identity(rs.rank)]
        while frontier:
            nxt = []
            for m in frontier:
                for g in gens:
                    p = m @ g
                    if p not in seen:
                        seen.add(p)
                        nxt.append(p)
            frontier = nxt
        if len(seen) != order:
            raise PreconditionError(
                f"Weyl enumeration for {rs.diagram.name} found {len(seen)} "
                f"elements, expected {order}"
            )
        elements = tuple(sorted(seen, key=lambda m: m.data))
    return WeylGroup(diagram=rs.diagram, generators=gens, order=order, elements=elements)


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
        # of the lattice actions.
        a, b = self.aut, other.aut
        comp = tuple(a[b[i]] for i in range(len(a)))
        pb = perm_matrix(b)
        conj = pb.inverse() @ self.weyl @ pb
        return ExtendedElement(aut=comp, weyl=conj @ other.weyl)

    def lattice_matrix(self) -> Matrix:
        return perm_matrix(self.aut) @ self.weyl

    def dual_matrix(self) -> Matrix:
        return self.lattice_matrix().inverse().T

    def is_identity(self) -> bool:
        return self.aut == tuple(range(len(self.aut))) and self.weyl == Matrix.identity(
            len(self.aut)
        )

    def inverse(self) -> "ExtendedElement":
        inv_aut = [0] * len(self.aut)
        for i, v in enumerate(self.aut):
            inv_aut[v] = i
        pa = perm_matrix(self.aut)
        inv_weyl = pa @ self.weyl.inverse() @ pa.inverse()
        return ExtendedElement(aut=tuple(inv_aut), weyl=inv_weyl)


def extended_action(element: ExtendedElement, vector, dual: bool = False):
    """Apply an extended element to a lattice vector or (dual) class."""
    m = element.dual_matrix() if dual else element.lattice_matrix()
    return m.apply(vector)
