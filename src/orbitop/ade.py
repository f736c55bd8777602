"""Simply laced Dynkin diagrams, root systems, Weyl groups, and the
semidirect product of diagram symmetries with the reflection group.

Simple roots are ordered deterministically per family: A_r along the
path; D_r along the path with the two fork tips last; E_6/7/8 in the
conventional numbering with the branch vertex second.

Every matrix here is integral and is a tuple of int rows: the Cartan
matrix and intersection form, the simple reflections, the Weyl group
elements and the Weyl part of an extended element.  W acts faithfully
on the root set (Humphreys, *Reflection Groups and Coxeter Groups*,
1990), so `weyl_group` closes the simple reflections breadth-first as
permutations of a root tuple that lists the simple roots first: a
product is a reindexing, and an element's int rows are read off the
images of the simple roots.  `ExtendedElement` conjugates by a diagram
automorphism b by the reindexing W[b[i]][b[j]].  Nothing here inverts a
lattice matrix: a lift into Aut x| W is a homomorphism, so its images
hold their own inverses (`mckay.ChiLift.dual_rows`).
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property
from math import factorial
from operator import mul
from typing import NamedTuple

from .errors import CapExceededError, PreconditionError
from .exact import int_apply, int_product

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


class DynkinDiagram(NamedTuple):
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


class RootSystem(NamedTuple):
    diagram: DynkinDiagram
    cartan: tuple[tuple[int, ...], ...]
    intersection_form: tuple[tuple[int, ...], ...]
    roots: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return self.diagram.rank

    def self_intersection(self, v) -> int:
        return sum(map(mul, v, int_apply(self.intersection_form, v)))


def build_root_system(diagram: DynkinDiagram) -> RootSystem:
    """The roots are the orbit of the simple roots under the simple
    reflections s_i v = v - (C v)_i e_i (Humphreys 1990, section 1.5),
    listed as the sorted positive roots, then the sorted negative ones."""
    r = diagram.rank
    cartan = [[2 * int(i == j) for j in range(r)] for i in range(r)]
    for i, j in diagram.edges:
        cartan[i][j] = cartan[j][i] = -1
    roots = list(_identity_rows(r))
    seen = set(roots)
    for v in roots:
        for i, row in enumerate(cartan):
            w = v[:i] + (v[i] - sum(map(mul, row, v)),) + v[i + 1:]
            if w not in seen:
                seen.add(w)
                roots.append(w)
    # Every root has all coefficients >= 0 or all <= 0.
    roots.sort(key=lambda v: (min(v) < 0, v))
    expected = _root_count(diagram)
    if len(roots) != expected:
        raise PreconditionError(
            f"root enumeration for {diagram.name} found {len(roots)}, "
            f"expected {expected}"
        )
    return RootSystem(
        diagram=diagram,
        cartan=tuple(map(tuple, cartan)),
        intersection_form=tuple(tuple(-c for c in row) for row in cartan),
        roots=tuple(roots),
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


class WeylGroup(
    NamedTuple(
        "WeylGroup",
        # The roots with the simple roots first, and each element, in
        # breadth-first order from the identity, as the permutation of
        # their indices it induces; perms is None when kept lazy.
        [("diagram", DynkinDiagram), ("generators", tuple), ("order", int),
         ("roots", tuple), ("perms", tuple | None)],
    )
):
    @property
    def enumerated(self) -> bool:
        return self.perms is not None

    @cached_property
    def elements(self) -> tuple[tuple[tuple[int, ...], ...], ...] | None:
        """Int rows of each element, aligned with `perms`, built on first read."""
        if self.perms is None:
            return None
        return tuple(_perm_rows(self.roots, p) for p in self.perms)

    def aut_perm(self, aut) -> tuple[int, ...]:
        """The permutation of `roots` that P_aut induces: coordinate k of
        a root moves to coordinate aut[k]."""
        index = {v: k for k, v in enumerate(self.roots)}
        source = sorted(range(len(aut)), key=aut.__getitem__)
        return tuple(index[tuple(map(v.__getitem__, source))] for v in self.roots)

    def extended_element(self, aut, perm) -> "ExtendedElement":
        """(aut, w) from the root permutation of P_aut M_w: row k of the
        Weyl part is row aut[k] of the lattice rows."""
        rows = _perm_rows(self.roots, perm)
        return ExtendedElement(aut, tuple(rows[t] for t in aut))


def simple_reflections(rs: RootSystem) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Reflection matrices on the root lattice in the simple-root basis:
    s_i is the identity with Cartan row i subtracted from row i."""
    ident = _identity_rows(rs.rank)
    gens = []
    for i, c_row in enumerate(rs.cartan):
        row = tuple(x - c for x, c in zip(ident[i], c_row))
        gens.append(ident[:i] + (row,) + ident[i + 1:])
    return tuple(gens)


def weyl_group(rs: RootSystem, enumeration_cap: int = WEYL_ENUMERATION_CAP) -> WeylGroup:
    gens = simple_reflections(rs)
    order = weyl_order(rs.diagram)
    simple = _identity_rows(rs.rank)
    roots = simple + tuple(v for v in rs.roots if v not in simple)
    perms = None
    if order <= enumeration_cap:
        index = {v: k for k, v in enumerate(roots)}
        reflections = [tuple(index[int_apply(s, v)] for v in roots) for s in gens]
        # An element is determined by the images of the simple roots,
        # which come first, so those images alone tell whether s p is new.
        found = [tuple(range(len(roots)))]
        seen = {found[0][:rs.rank]}
        for p in found:
            for s in reflections:
                head = tuple(map(s.__getitem__, p[:rs.rank]))
                if head not in seen:
                    seen.add(head)
                    found.append(tuple(map(s.__getitem__, p)))
        if len(found) != order:
            raise PreconditionError(
                f"Weyl enumeration for {rs.diagram.name} found {len(found)} "
                f"elements, expected {order}"
            )
        perms = tuple(found)
    return WeylGroup(rs.diagram, gens, order, roots, perms)


def _perm_rows(roots, perm) -> tuple[tuple[int, ...], ...]:
    """Int rows of the lattice map sending simple root j to roots[perm[j]]:
    column j is that root."""
    return tuple(zip(*(roots[k] for k in perm[: len(roots[0])])))


@cache
def _identity_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The n x n identity as int rows, one tuple per rank."""
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


class ExtendedElement(
    NamedTuple(
        "ExtendedElement",
        [("aut", tuple[int, ...]), ("weyl", tuple[tuple[int, ...], ...])],
    )
):
    """Element (a, w) of Aut(diagram) x| W acting on the root lattice by
    v |-> P_a (M_w v), with M_w as int rows."""

    @classmethod
    def identity(cls, rank: int) -> "ExtendedElement":
        return cls(aut=tuple(range(rank)), weyl=_identity_rows(rank))

    def __mul__(self, other: "ExtendedElement") -> "ExtendedElement":
        # (a, w)(a', w') = (a a', (a'^-1 w a') w'), matching composition
        # of the lattice actions; conjugating by P_a' reindexes w.
        b = other.aut
        w = self.weyl
        conj = [[w[i][j] for j in b] for i in b]
        return ExtendedElement(
            aut=tuple(self.aut[i] for i in b), weyl=int_product(conj, other.weyl)
        )

    @cached_property
    def lattice_rows(self) -> tuple[tuple[int, ...], ...]:
        """P_a M_w as int rows: row k of M_w moves to row a[k]."""
        rows = [None] * len(self.aut)
        for k, row in zip(self.aut, self.weyl):
            rows[k] = row
        return tuple(rows)

    def is_identity(self) -> bool:
        n = len(self.aut)
        return self.aut == tuple(range(n)) and self.weyl == _identity_rows(n)
