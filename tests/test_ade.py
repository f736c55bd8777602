"""Root systems, Weyl groups, diagram automorphisms, extended elements."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitop.ade import (
    DynkinDiagram,
    ExtendedElement,
    _unimodular_inverse,
    build_root_system,
    graph_automorphisms,
    weyl_group,
)
from orbitop.errors import CapExceededError, PreconditionError
from orbitop.exact import Matrix, int_apply, int_product


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def brute_force_roots(diagram, bound=4):
    """Box-search oracle with an independent generous bound."""
    r = diagram.rank
    cartan = [[2 * int(i == j) for j in range(r)] for i in range(r)]
    for i, j in diagram.edges:
        cartan[i][j] = cartan[j][i] = -1
    found = set()
    for v in itertools.product(range(-bound, bound + 1), repeat=r):
        q = sum(cartan[i][j] * v[i] * v[j] for i in range(r) for j in range(r))
        if q == 2:
            found.add(v)
    return found


@pytest.mark.parametrize(
    "family,rank,count",
    [("A", 1, 2), ("A", 2, 6), ("A", 3, 12), ("D", 4, 24), ("D", 5, 40)],
)
def test_root_counts_match_oracle(family, rank, count):
    rs = build_root_system(DynkinDiagram.make(family, rank))
    assert len(rs.roots) == count
    assert set(rs.roots) == brute_force_roots(rs.diagram)


def test_e6_root_count_against_oracle():
    rs = build_root_system(DynkinDiagram.make("E", 6))
    assert len(rs.roots) == 72
    assert set(rs.roots) == brute_force_roots(rs.diagram, bound=4)


def test_roots_closed_under_negation():
    for family, rank in [("A", 3), ("D", 4)]:
        rs = build_root_system(DynkinDiagram.make(family, rank))
        roots = set(rs.roots)
        assert all(tuple(-x for x in v) in roots for v in roots)
        assert all(rs.self_intersection(v) == -2 for v in roots)


def test_rank_cap():
    with pytest.raises(CapExceededError):
        DynkinDiagram.make("A", 9)


def test_bad_families_rejected():
    with pytest.raises(PreconditionError):
        DynkinDiagram.make("D", 3)
    with pytest.raises(PreconditionError):
        DynkinDiagram.make("E", 5)
    with pytest.raises(PreconditionError):
        DynkinDiagram.make("B", 2)


@pytest.mark.parametrize(
    "family,rank,order",
    [("A", 1, 2), ("A", 2, 6), ("A", 3, 24), ("D", 4, 192)],
)
def test_weyl_orders_against_enumeration(family, rank, order):
    rs = build_root_system(DynkinDiagram.make(family, rank))
    w = weyl_group(rs)
    assert w.order == order
    assert w.enumerated and len(w.elements) == order


def test_a1_weyl_is_negation():
    rs = build_root_system(DynkinDiagram.make("A", 1))
    w = weyl_group(rs)
    nontrivial = [m for m in w.elements if m != ((1,),)]
    assert len(nontrivial) == 1
    assert nontrivial[0] == ((-1,),)


def test_weyl_lazy_above_cap():
    rs = build_root_system(DynkinDiagram.make("D", 4))
    w = weyl_group(rs, enumeration_cap=10)
    assert not w.enumerated
    assert w.order == 192


def test_weyl_elements_preserve_form_and_permute_roots():
    for family, rank in [("A", 2), ("A", 3), ("D", 4)]:
        rs = build_root_system(DynkinDiagram.make(family, rank))
        w = weyl_group(rs)
        roots = set(rs.roots)
        form = Matrix(rs.intersection_form)
        for m in w.elements:
            assert Matrix(m).T @ form @ Matrix(m) == form
            assert {int_apply(m, v) for v in roots} == roots


@pytest.mark.parametrize(
    "family,rank,order",
    [
        ("A", 1, 1),
        ("A", 3, 2),
        ("D", 4, 6),
        ("D", 5, 2),
        ("E", 6, 2),
        ("E", 7, 1),
        ("E", 8, 1),
    ],
)
def test_graph_automorphism_orders(family, rank, order):
    assert len(graph_automorphisms(DynkinDiagram.make(family, rank))) == order


def test_graph_automorphisms_preserve_form():
    for family, rank in [("A", 3), ("D", 4), ("E", 6)]:
        rs = build_root_system(DynkinDiagram.make(family, rank))
        form = Matrix(rs.intersection_form)
        for perm in graph_automorphisms(rs.diagram):
            p = Matrix(ExtendedElement(perm, _identity(len(perm))).lattice_rows)
            assert p.T @ form @ p == form


def test_extended_identity_action():
    rs = build_root_system(DynkinDiagram.make("A", 2))
    e = ExtendedElement.identity(2)
    v = (1, 2)
    assert int_apply(e.lattice_rows, v) == v
    assert int_apply(e.dual_rows, v) == v


def test_a1_weyl_generator_negates_simple_root():
    rs = build_root_system(DynkinDiagram.make("A", 1))
    w = weyl_group(rs)
    gen = ExtendedElement(aut=(0,), weyl=w.generators[0])
    assert int_apply(gen.lattice_rows, (1,)) == (-1,)


def test_d4_triality_cycles_outer_roots():
    diagram = DynkinDiagram.make("D", 4)
    rs = build_root_system(diagram)
    outer = [v for v in range(4) if diagram.degree(v) == 1]
    cycles = [
        perm
        for perm in graph_automorphisms(diagram)
        if all(perm[v] != v for v in outer)
        and sorted(perm[v] for v in outer) == sorted(outer)
    ]
    assert cycles  # order-3 elements of the symmetric action on the tips
    perm = cycles[0]
    e = ExtendedElement(aut=perm, weyl=_identity(4))
    roots = set(rs.roots)
    assert {int_apply(e.lattice_rows, v) for v in roots} == roots
    # simple roots permute exactly as the vertex permutation
    for v in outer:
        basis = tuple(int(i == v) for i in range(4))
        image = int_apply(e.lattice_rows, basis)
        assert image == tuple(int(i == perm[v]) for i in range(4))


def test_semidirect_composition_matches_matrix_action():
    rng = random.Random(5)
    rs = build_root_system(DynkinDiagram.make("D", 4))
    w = weyl_group(rs)
    auts = graph_automorphisms(rs.diagram)
    pool = [
        ExtendedElement(aut=rng.choice(auts), weyl=rng.choice(w.elements))
        for _ in range(12)
    ]
    for _ in range(40):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert (a * b).lattice_rows == int_product(a.lattice_rows, b.lattice_rows)
        assert (a * a.inverse()).is_identity()


@st.composite
def _unimodular(draw):
    """Products of integer row operations and sign flips, rank 1..8."""
    n = draw(st.integers(1, 8))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            q = draw(st.integers(-3, 3))
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return tuple(map(tuple, rows))


@settings(max_examples=200, deadline=None)
@given(_unimodular())
def test_unimodular_inverse_matches_rational_inverse(rows):
    assert Matrix(_unimodular_inverse(rows)) == Matrix(rows).inverse()


@pytest.mark.parametrize("rows", [((2, 0), (0, 1)), ((1, 2), (2, 4)), ((0,),)])
def test_unimodular_inverse_rejects_other_matrices(rows):
    with pytest.raises(PreconditionError):
        _unimodular_inverse(rows)
