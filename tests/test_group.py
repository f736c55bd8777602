"""Finite motion groups: closure, classes, quotients, classification."""

from fractions import Fraction

import pytest

from orbitop.cli import load_scenario
from orbitop.errors import CapExceededError, PreconditionError
from orbitop.exact import Matrix
from orbitop.group import (
    Motion,
    NotASubgroupError,
    NotNormalError,
    close,
    conjugacy_classes,
    normal_and_quotient,
    spin7_check,
    splitting_multiplier,
    stabilizer,
    su_classify,
)


def brute_force_classes(group):
    """Union-find over all conjugation pairs, independent of the library
    class routine."""
    n = group.order
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in range(n):
        for h in range(n):
            a, b = find(h), find(group.conjugate(g, h))
            if a != b:
                parent[a] = b
    buckets = {}
    for x in range(n):
        buckets.setdefault(find(x), set()).add(x)
    return sorted(sorted(c) for c in buckets.values())


def test_kappa_closure_order_four(z4_group):
    assert z4_group.order == 4
    assert z4_group.is_abelian()


def test_identity_closure_trivial(trivial_c3_group):
    assert trivial_c3_group.order == 1


def test_order8_group_structure(order8_group):
    assert order8_group.order == 8
    assert not order8_group.is_abelian()
    sizes = sorted(len(c) for c in conjugacy_classes(order8_group))
    assert sizes == [1, 1, 2, 2, 2]


def test_classes_against_brute_force(z4_group, z2z2_group, order8_group):
    for group in (z4_group, z2z2_group, order8_group):
        ours = sorted(sorted(c) for c in conjugacy_classes(group))
        assert ours == brute_force_classes(group)


def test_class_equation(z4_group, order8_group, z2z2_group):
    for group in (z4_group, order8_group, z2z2_group):
        classes = conjugacy_classes(group)
        assert sum(len(c) for c in classes) == group.order
        assert (group.identity_index,) in classes
        assert all(group.order % len(c) == 0 for c in classes)


def test_closure_cap_exceeded(kappa):
    with pytest.raises(CapExceededError):
        close([kappa], cap=2)


def test_closure_rejects_mismatched_dims(kappa, octonionic_pair):
    with pytest.raises(PreconditionError):
        close([kappa, octonionic_pair[0]])


def test_quotient_by_half(z4_group):
    ki = next(
        i
        for i in range(4)
        if i != z4_group.identity_index and z4_group.element_order(i) == 4
    )
    k2 = z4_group.mul(ki, ki)
    q = normal_and_quotient(z4_group, {z4_group.identity_index, k2})
    assert q.order == 2
    # projection is a homomorphism on all pairs (checked internally too)
    for a in range(4):
        for b in range(4):
            assert q.projection[z4_group.mul(a, b)] == q.mul(
                q.projection[a], q.projection[b]
            )


def test_quotient_by_whole_group(z4_group):
    q = normal_and_quotient(z4_group, set(range(4)))
    assert q.order == 1


def test_order8_quotient_by_cyclic(order8_group, octonionic_pair):
    kap, _ = octonionic_pair
    ki = next(
        i for i, m in enumerate(order8_group.elements) if m.matrix == kap.matrix
    )
    h = {order8_group.identity_index}
    cur = ki
    while cur not in h:
        h.add(cur)
        cur = order8_group.mul(cur, ki)
    assert len(h) == 4
    q = normal_and_quotient(order8_group, h)
    assert q.order == 2


def test_not_subgroup_and_not_normal_are_distinct(order8_group):
    non_identity = next(
        i for i in range(8) if i != order8_group.identity_index
    )
    with pytest.raises(NotASubgroupError):
        normal_and_quotient(order8_group, {non_identity})
    # A non-normal subgroup of a motion group: order-2 subgroup of the
    # symmetric permutation action on C^3.
    swap12 = Motion.from_complex(
        [
            [(0, 0), (1, 0), (0, 0)],
            [(1, 0), (0, 0), (0, 0)],
            [(0, 0), (0, 0), (1, 0)],
        ]
    )
    cycle = Motion.from_complex(
        [
            [(0, 0), (0, 0), (1, 0)],
            [(1, 0), (0, 0), (0, 0)],
            [(0, 0), (1, 0), (0, 0)],
        ]
    )
    s3 = close([swap12, cycle])
    assert s3.order == 6
    swap_idx = next(
        i for i, m in enumerate(s3.elements) if m.matrix == swap12.matrix
    )
    with pytest.raises(NotNormalError):
        normal_and_quotient(s3, {s3.identity_index, swap_idx})


def test_stabilizer_of_axis_plane(z4_group, kappa):
    plane = [
        tuple(Fraction(int(i == 0)) for i in range(6)),
        tuple(Fraction(int(i == 1)) for i in range(6)),
    ]
    stab = stabilizer(z4_group, subspace=plane)
    ki = next(
        i for i, m in enumerate(z4_group.elements) if m.matrix == kappa.matrix
    )
    k2 = z4_group.mul(ki, ki)
    assert sorted(stab) == sorted([z4_group.identity_index, k2])


def test_stabilizer_of_origin_is_everything(z4_group):
    origin = tuple(Fraction(0) for _ in range(6))
    assert len(stabilizer(z4_group, point=origin)) == 4


def test_generic_point_has_trivial_stabilizer(z4_group):
    point = tuple(
        Fraction(1, p) for p in (2, 3, 5, 7, 11, 13)
    )
    # oracle: every nonidentity element visibly moves the point
    for i, m in enumerate(z4_group.elements):
        if i != z4_group.identity_index:
            assert m.matrix.apply(point) != point
    assert stabilizer(z4_group, point=point) == (z4_group.identity_index,)


def test_lagrange_for_stabilizers(z4_group, z2z2_group, order8_group):
    for group in (z4_group, z2z2_group, order8_group):
        dim = group.dim_real
        for probe in (
            tuple(Fraction(0) for _ in range(dim)),
            tuple(Fraction(1, k + 2) for k in range(dim)),
        ):
            stab = stabilizer(group, point=probe)
            assert group.order % len(stab) == 0


def test_su_classification(kappa, octonionic_pair):
    kap8, lam8 = octonionic_pair
    assert su_classify(kappa).kind == "su"
    assert su_classify(kappa).determinant == 1
    assert su_classify(kap8).kind == "su"
    assert su_classify(lam8).kind == "anti_linear"
    ident = Motion(matrix=Matrix.identity(4))
    assert su_classify(ident).kind == "su"
    phase = Motion.from_complex([[(0, 1), (0, 0)], [(0, 0), (1, 0)]])
    cls = phase.matrix and su_classify(phase)
    assert cls.kind == "u_not_su"
    from orbitop.exact import Cyclotomic

    assert cls.determinant == Cyclotomic.zeta(4)


def test_su_closure_under_product(z4_group):
    for a in z4_group.elements:
        for b in z4_group.elements:
            if su_classify(a).in_su() and su_classify(b).in_su():
                assert su_classify(a.compose(b)).in_su()


def test_spin7_membership(order8_group, octonionic_pair):
    kap8, lam8 = octonionic_pair
    ident = Motion(matrix=Matrix.identity(8))
    assert spin7_check(ident)
    assert spin7_check(kap8)
    assert spin7_check(lam8)
    assert all(spin7_check(m) for m in order8_group.elements)


def test_spin7_rejects_reflection():
    rows = [[Fraction(int(i == j)) for j in range(8)] for i in range(8)]
    rows[0][0] = Fraction(-1)
    assert not spin7_check(Motion(matrix=Matrix(rows)))


def test_spin7_needs_dimension_eight(kappa):
    with pytest.raises(PreconditionError):
        spin7_check(kappa)


def test_splitting_multiplier_values(kappa, flip_generators):
    assert splitting_multiplier(kappa, 0) == -1
    ident = Motion(matrix=Matrix.identity(6))
    assert splitting_multiplier(ident, 0) == 1
    _, k2 = flip_generators
    assert splitting_multiplier(k2, 0) == -1


def test_splitting_multiplier_requires_preserved_axis():
    swap = Motion.from_complex([[(0, 0), (1, 0)], [(1, 0), (0, 0)]])
    with pytest.raises(PreconditionError):
        splitting_multiplier(swap, 0)


def test_motion_flags(kappa, octonionic_pair):
    kap8, lam8 = octonionic_pair
    assert kappa.is_isometry and kappa.is_complex_linear
    assert not kappa.is_anti_linear
    assert lam8.is_anti_linear and lam8.is_isometry
    assert not lam8.is_complex_linear


# --- multiplication table from generator words ---------------------------

H = Fraction(1, 2)

# Inline generators of two stress groups (complex rows of (re, im) pairs).
E6_BT_GENERATORS = (  # order 96; the z1-axis stabilizer is binary tetrahedral
    [[(1, 0), (0, 0), (0, 0)], [(0, 0), (0, 1), (0, 0)], [(0, 0), (0, 0), (0, -1)]],
    [[(1, 0), (0, 0), (0, 0)], [(0, 0), (0, 0), (1, 0)], [(0, 0), (-1, 0), (0, 0)]],
    [[(-1, 0), (0, 0), (0, 0)], [(0, 0), (1, 0), (0, 0)], [(0, 0), (0, 0), (1, 0)]],
    [[(0, 1), (0, 0), (0, 0)], [(0, 0), (H, H), (H, H)], [(0, 0), (-H, H), (H, -H)]],
)
MONO48_GENERATORS = (  # signed permutation matrices of C^3, order 48
    [[(-1, 0), (0, 0), (0, 0)], [(0, 0), (1, 0), (0, 0)], [(0, 0), (0, 0), (1, 0)]],
    [[(0, 0), (0, 0), (1, 0)], [(1, 0), (0, 0), (0, 0)], [(0, 0), (1, 0), (0, 0)]],
    [[(0, 0), (1, 0), (0, 0)], [(1, 0), (0, 0), (0, 0)], [(0, 0), (0, 0), (1, 0)]],
)

INLINE_GENERATORS = {"e6_bt": E6_BT_GENERATORS, "mono48": MONO48_GENERATORS}


def _generators(name):
    if name in INLINE_GENERATORS:
        return [Motion.from_complex(g) for g in INLINE_GENERATORS[name]]
    return load_scenario(name).motions()


@pytest.mark.parametrize(
    "name,order",
    [("t6_z4", 4), ("t6_z2z2", 4), ("c3_z4", 4), ("c3_z2z2", 4), ("r8_q8", 8),
     ("e6_bt", 96), ("mono48", 48)],
)
def test_table_equals_brute_force_products(name, order, monkeypatch):
    generators = _generators(name)
    products = 0
    matmul = Matrix.__matmul__

    def counting(a, b):
        nonlocal products
        products += 1
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counting)
    group = close(generators)
    monkeypatch.undo()
    n = group.order
    assert n == order
    # Closure multiplies each element by each generator once and then
    # re-verifies min(n^2, 200) table entries: never more products than
    # the n * |gens| + n^2 of building the table by brute force.
    assert products == n * len(generators) + min(n * n, 200)
    index = {m.matrix: i for i, m in enumerate(group.elements)}
    brute = tuple(
        tuple(index[a.matrix @ b.matrix] for b in group.elements)
        for a in group.elements
    )
    assert group.table == brute
    ident = Matrix.identity(group.dim_real)
    assert group.elements[group.identity_index].matrix == ident
    for i, m in enumerate(group.elements):
        assert m.matrix @ group.elements[group.inverse[i]].matrix == ident
