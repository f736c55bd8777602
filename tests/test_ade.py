"""Root systems, Weyl groups, diagram automorphisms, extended elements."""

import itertools
import random
from collections import Counter
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix as SympyMatrix

from orbitop.ade import (
    RANK_CAP,
    DynkinDiagram,
    ExtendedElement,
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


# The 16 diagrams under the rank cap: A1-A8, D4-D8, E6-E8.
ALL_DIAGRAMS = [
    DynkinDiagram.make(family, rank)
    for family, first in (("A", 1), ("D", 4), ("E", 6))
    for rank in range(first, RANK_CAP + 1)
]

# The coefficients of the highest root, which bound every positive root
# coefficientwise.
_HIGHEST_E = {
    6: (1, 2, 2, 3, 2, 1),
    7: (2, 2, 3, 4, 3, 2, 1),
    8: (2, 3, 4, 6, 5, 4, 3, 2),
}


def _reference_box_roots(diagram):
    """The roots as first enumerated: vectors of self-intersection -2 in
    the box bounded by the highest root, sorted positives then sorted
    negatives."""
    r = diagram.rank
    if diagram.family == "A":
        bounds = (1,) * r
    elif diagram.family == "D":
        bounds = (1,) + (2,) * (r - 3) + (1, 1)
    else:
        bounds = _HIGHEST_E[r]
    positives = []
    for coeffs in itertools.product(*(range(b + 1) for b in bounds)):
        if not any(coeffs):
            continue
        q = 2 * sum(c * c for c in coeffs)
        q -= 2 * sum(coeffs[i] * coeffs[j] for i, j in diagram.edges)
        if q == 2:
            positives.append(coeffs)
    return tuple(sorted(positives) + sorted(tuple(-c for c in v) for v in positives))


@pytest.mark.parametrize("diagram", ALL_DIAGRAMS, ids=lambda d: d.name)
def test_reflection_closure_matches_box_search(diagram):
    assert build_root_system(diagram).roots == _reference_box_roots(diagram)


@pytest.mark.parametrize("diagram", ALL_DIAGRAMS, ids=lambda d: d.name)
def test_aut_perm_matches_permutation_matrix(diagram):
    w = weyl_group(build_root_system(diagram), enumeration_cap=0)
    index = {v: k for k, v in enumerate(w.roots)}
    for aut in graph_automorphisms(diagram):
        p_a = ExtendedElement(aut, _identity(len(aut))).lattice_rows
        assert w.aut_perm(aut) == tuple(index[int_apply(p_a, v)] for v in w.roots)


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
    [("A", 1, 2), ("A", 2, 6), ("A", 3, 24), ("D", 4, 192), ("D", 5, 1920)],
)
def test_weyl_orders_against_enumeration(family, rank, order):
    rs = build_root_system(DynkinDiagram.make(family, rank))
    w = weyl_group(rs)
    assert w.order == order
    assert w.enumerated and len(w.elements) == order
    assert len(set(w.perms)) == len(set(w.elements)) == order


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
        assert w.roots[: rs.rank] == _identity(rs.rank)
        assert set(w.roots) == roots
        for m, perm in zip(w.elements, w.perms):
            assert Matrix(m).T @ form @ Matrix(m) == form
            assert [int_apply(m, v) for v in w.roots] == [w.roots[k] for k in perm]


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


def _compose(p, q):
    """The permutation p after q."""
    return tuple(p[t] for t in q)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([("A", 3), ("D", 4), ("D", 5), ("E", 6)]), st.data())
def test_root_permutation_products_match_int_rows(weyl, diagram, data):
    w = weyl(*diagram)
    i, j = (data.draw(st.integers(0, w.order - 1)) for _ in range(2))
    unit = ExtendedElement.identity(w.diagram.rank).aut
    pq = _compose(w.perms[i], w.perms[j])
    product = int_product(w.elements[i], w.elements[j])
    assert w.extended_element(unit, pq) == ExtendedElement(unit, product)
    # (a, root permutation of P_a M_w) multiplies as ExtendedElement does.
    auts = graph_automorphisms(w.diagram)
    a, b = (data.draw(st.sampled_from(auts)) for _ in range(2))
    x, y = ExtendedElement(a, w.elements[i]), ExtendedElement(b, w.elements[j])
    px = _compose(w.aut_perm(a), w.perms[i])
    py = _compose(w.aut_perm(b), w.perms[j])
    assert w.extended_element(a, px) == x
    assert w.extended_element((x * y).aut, _compose(px, py)) == x * y


def _perm_order(perm):
    """The lcm of the cycle lengths."""
    lengths, seen = [], set()
    for start in range(len(perm)):
        if start in seen:
            continue
        k, t = 0, start
        while t not in seen:
            seen.add(t)
            t, k = perm[t], k + 1
        lengths.append(k)
    return lcm(*lengths)


def _row_order(rows):
    """The least k with rows^k = 1, by integer products."""
    power, k = rows, 1
    while power != _identity(len(rows)):
        power, k = int_product(power, rows), k + 1
    return k


@pytest.mark.parametrize("family,rank", [("D", 4), ("D", 5)])
def test_element_orders_match_int_row_powers(weyl, family, rank):
    w = weyl(family, rank)
    by_rows = Counter(map(_row_order, w.elements))
    assert Counter(map(_perm_order, w.perms)) == by_rows
    assert sum(by_rows.values()) == w.order


def test_e6_involutions_and_fourth_roots_of_one(weyl):
    w = weyl("E", 6)
    assert len(w.perms) == 51_840
    orders = Counter(map(_perm_order, w.perms))
    # Carter (1972): the involutions of W(E6) are the classes A1, 2A1,
    # 3A1 and 4A1, kA1 having a -1 eigenspace of dimension k.
    involutions = [m for m, p in zip(w.elements, w.perms) if _perm_order(p) == 2]
    assert len(involutions) == orders[2] == 891

    def minus_one_dim(m):
        plus_one = tuple(
            tuple(x + (i == j) for j, x in enumerate(row)) for i, row in enumerate(m)
        )
        return 6 - SympyMatrix(plus_one).rank()

    assert Counter(map(minus_one_dim, involutions)) == {1: 36, 2: 270, 3: 540, 4: 45}
    # The elements with x^4 = 1: the lift count of e6_bt, where Z4 acts
    # trivially on the diagram.
    assert orders[1] + orders[2] + orders[4] == 6832
