"""Finite motion groups: closure, classes, quotients, classification."""

import json
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ_I
from sympy.polys.matrices import DomainMatrix

from orbitop import group as group_module
from orbitop.cli import main
from orbitop.errors import CapExceededError, PreconditionError
from orbitop.exact import Cyclotomic, Matrix, int_apply, int_product
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
from orbitop.scenario import load_scenario


def as_matrix(motion):
    """The motion as a Fraction matrix, an oracle independent of its int
    rows over one denominator."""
    return Matrix([[Fraction(x, motion.den) for x in row] for row in motion.rows])


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


@pytest.mark.parametrize(
    "generators,word,trace",
    [
        ([Motion(((2, 1), (1, 1)))], "g1", "3"),
        ([Motion(((3, -4), (4, 3)), 5)], "g1", "6/5"),
        # two reflections of finite order whose product is a rotation
        # of infinite order
        ([Motion(((1, 0), (0, -1))), Motion(((3, 4), (4, -3)), 5)], "g1*g2", "6/5"),
    ],
    ids=["cat-map", "rotation", "reflection-pair"],
)
def test_closure_refuses_an_element_of_infinite_order(generators, word, trace):
    """The trace of an element of finite order is an integer of absolute
    value at most the dimension; the first element whose trace is not
    ends the closure, long before the cap."""
    with pytest.raises(PreconditionError, match="infinite order") as exc:
        close(generators)
    assert f"product {word} has trace {trace}," in str(exc.value)


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
        i for i, m in enumerate(order8_group.elements) if m == kap
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
        i for i, m in enumerate(s3.elements) if m == swap12
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
        i for i, m in enumerate(z4_group.elements) if m == kappa
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
            assert as_matrix(m).apply(point) != point
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
    ident = Motion.identity(4)
    assert su_classify(ident).kind == "su"
    phase = Motion.from_complex([[(0, 1), (0, 0)], [(0, 0), (1, 0)]])
    cls = su_classify(phase)
    assert cls.kind == "u_not_su"
    assert cls.determinant == Cyclotomic.zeta(4)


def test_su_closure_under_product(z4_group):
    for a in z4_group.elements:
        for b in z4_group.elements:
            if su_classify(a).in_su() and su_classify(b).in_su():
                product = Motion(int_product(a.rows, b.rows), a.den * b.den)
                assert su_classify(product).in_su()


def test_spin7_membership(order8_group, octonionic_pair):
    kap8, lam8 = octonionic_pair
    ident = Motion.identity(8)
    assert spin7_check(ident)
    assert spin7_check(kap8)
    assert spin7_check(lam8)
    assert all(spin7_check(m) for m in order8_group.elements)


def test_spin7_with_denominator_two():
    """A binary tetrahedral block on (z1, z2): in SU(4), hence in Spin(7),
    with diag(1, 1) on (z3, z4), and outside it with diag(1, i)."""
    h = Fraction(1, 2)
    zero = (0, 0)

    def on_c4(last):
        return Motion.from_complex(
            [
                [(h, h), (h, h), zero, zero],
                [(-h, h), (h, -h), zero, zero],
                [zero, zero, (1, 0), zero],
                [zero, zero, zero, last],
            ]
        )

    su4, u4 = on_c4((1, 0)), on_c4((0, 1))
    assert su4.den == 2 and su_classify(su4).kind == "su"
    assert spin7_check(su4)
    assert su_classify(u4).kind == "u_not_su"
    assert not spin7_check(u4)


def test_spin7_rejects_reflection():
    rows = [[int(i == j) for j in range(8)] for i in range(8)]
    rows[0][0] = -1
    assert not spin7_check(Motion(rows))


def test_spin7_needs_dimension_eight(kappa):
    with pytest.raises(PreconditionError):
        spin7_check(kappa)


def test_splitting_multiplier_values(kappa, flip_generators):
    assert splitting_multiplier(kappa, 0) == -1
    ident = Motion.identity(6)
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
    # z -> conj(z) fixes the real axis and negates the imaginary one.
    conj = Motion.from_complex([[(1, 0)]], conjugate=True)
    assert conj == Motion(((1, 0), (0, -1))) and conj.is_anti_linear


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
    return load_scenario(name).generators


def _scaled(matrix):
    """A Fraction matrix as (d, int columns) over the lcm d of its
    denominators."""
    d = lcm(*(x.denominator for row in matrix.data for x in row))
    return d, tuple(zip(*((int(x * d) for x in row) for row in matrix.data)))


def _scaled_product(a, b):
    """The Fraction matrix of a @ b from two scaled operands: one Fraction
    per entry instead of one per term, so the n^2 products of the brute
    force stay fast."""
    (da, cols_a), (db, cols_b) = a, b
    rows_a = list(zip(*cols_a))
    return Matrix(
        [[Fraction(sum(map(mul, r, c)), da * db) for c in cols_b] for r in rows_a]
    )


@pytest.mark.parametrize(
    "name,order",
    [("t6_z4", 4), ("t6_z2z2", 4), ("c3_z4", 4), ("c3_z2z2", 4), ("r8_q8", 8),
     ("e6_bt", 96), ("mono48", 48)],
)
def test_table_equals_brute_force_products(name, order, monkeypatch):
    generators = _generators(name)
    products = applies = 0

    def counting(a, b):
        nonlocal products
        products += 1
        return int_product(a, b)

    def counting_apply(rows, vector):
        nonlocal applies
        applies += 1
        return int_apply(rows, vector)

    monkeypatch.setattr(group_module, "int_product", counting)
    monkeypatch.setattr(group_module, "int_apply", counting_apply)
    group = close(generators)
    monkeypatch.undo()
    n = group.order
    assert n == order
    # Closure multiplies each element by each generator once: n * |gens|
    # matrix products, never the n^2 of building the table by brute force.
    # The re-verification packs each element once into a vector and then
    # checks min(n^2, 200) table entries by one matrix-vector product each.
    assert products == n * len(generators)
    assert applies == n + min(n * n, 200)
    # The oracle: Fraction matrices built from each motion's rows / den.
    matrices = [as_matrix(m) for m in group.elements]
    index = {m: i for i, m in enumerate(matrices)}
    assert len(index) == n
    scaled = [_scaled(m) for m in matrices]
    for a, b in ((0, n - 1), (n - 1, n // 2)):
        assert _scaled_product(scaled[a], scaled[b]) == matrices[a] @ matrices[b]
    brute = tuple(
        tuple(index[_scaled_product(a, b)] for b in scaled) for a in scaled
    )
    assert group.table == brute
    ident = Matrix.identity(group.dim_real)
    assert matrices[group.identity_index] == ident
    for i, m in enumerate(matrices):
        assert m @ matrices[group.inverse[i]] == ident


# --- int rows over one denominator against Fraction matrices ----------------

STRESS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"
SCENARIO_GENERATORS = {
    name: load_scenario(name).generators
    for name in ("t6_z4", "t6_z2z2", "c3_z4", "c3_z2z2", "r8_q8")
} | {
    path.stem: load_scenario(str(path)).generators
    for path in sorted(STRESS.glob("*.scn"))
}


@st.composite
def _words(draw):
    name = draw(st.sampled_from(sorted(SCENARIO_GENERATORS)))
    count = len(SCENARIO_GENERATORS[name])
    word = st.lists(st.integers(0, count - 1), max_size=6)
    return name, draw(word), draw(word)


def _motion_word(name, word):
    generators = SCENARIO_GENERATORS[name]
    out = Motion.identity(generators[0].dim_real)
    for k in word:
        out = Motion(*group_module._product(out, generators[k]))
    return out


def _matrix_word(name, word):
    generators = SCENARIO_GENERATORS[name]
    out = Matrix.identity(generators[0].dim_real)
    for k in word:
        out = out @ as_matrix(generators[k])
    return out


@settings(max_examples=150, deadline=None)
@given(_words())
def test_int_products_and_equality_match_fraction_matrices(case):
    """Words in the bundled and stress generators: the int product over
    one denominator is the Fraction matrix product, and two motions are
    equal, with equal hashes, exactly when their Fraction matrices are.
    So the denominator is canonical: positive and in lowest terms."""
    name, w1, w2 = case
    m1, m2 = _motion_word(name, w1), _motion_word(name, w2)
    f1, f2 = _matrix_word(name, w1), _matrix_word(name, w2)
    assert as_matrix(m1) == f1 and as_matrix(m2) == f2
    assert (m1 == m2) == (f1 == f2)
    if f1 == f2:
        assert hash(m1) == hash(m2) and (m1.rows, m1.den) == (m2.rows, m2.den)
    for m in (m1, m2):
        assert m.den > 0 and gcd(m.den, *(x for row in m.rows for x in row)) == 1


# --- complex determinants on Gaussian integers ------------------------------


def _reference_complex_matrix(motion):
    """The n x n matrix over Q(i) of a complex-linear motion, entry (r, c)
    read off the real 2 x 2 block (rows 2r, 2r+1; column 2c)."""
    rows, den = motion.rows, motion.den
    n = motion.dim_real // 2
    return Matrix(
        [
            [
                Cyclotomic.gaussian(
                    Fraction(rows[2 * r][2 * c], den),
                    Fraction(rows[2 * r + 1][2 * c], den),
                )
                for c in range(n)
            ]
            for r in range(n)
        ]
    )


_gaussian_ints = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@st.composite
def _gaussian_matrices(draw):
    n = draw(st.integers(1, 5))
    # Zero entries are drawn often, so that pivots vanish and rows swap.
    entry = st.one_of(st.just((0, 0)), _gaussian_ints)
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(_gaussian_matrices())
def test_gaussian_det_matches_fraction_and_sympy_determinants(rows):
    """Bareiss over Z[i] against the Q(zeta_4) `Matrix.det` and against
    sympy's determinant over the Gaussian integers."""
    re, im = group_module._gaussian_det(rows)
    reference = Matrix([[Cyclotomic.gaussian(a, b) for a, b in row] for row in rows]).det()
    assert Cyclotomic.gaussian(re, im) == reference
    n = len(rows)
    oracle = DomainMatrix(
        [[ZZ_I(a, b) for a, b in row] for row in rows], (n, n), ZZ_I
    ).det()
    assert (re, im) == (oracle.x, oracle.y)


@pytest.mark.parametrize("name", ["c3_z4", "r8_q8", "e6_bt", "mono48"])
def test_su_classify_determinant_matches_reference(name):
    group = close(_generators(name))
    seen = set()
    for m in group.elements:
        cls = su_classify(m)
        if not (m.is_complex_linear and m.is_isometry):
            assert cls.determinant is None
            continue
        det = _reference_complex_matrix(m).det()
        assert cls.determinant == det
        assert cls.kind == ("su" if det == 1 else "u_not_su")
        seen.add(cls.kind)
    assert "su" in seen


# --- Spin(7) decided on the generators ---------------------------------------


def _scenario_text(generators):
    """A linear C^4 scenario with the given complex generators."""
    blocks = [
        "[generator]\n" + "".join(f"row: {row}\n" for row in g) for g in generators
    ]
    return "name: spin7_probe\nambient: linear\ncomplex_dim: 4\n\n" + "\n".join(blocks)


TIMES_I = ["i 0 0 0", "0 i 0 0", "0 0 i 0", "0 0 0 i"]
LAST_TIMES_I = ["1 0 0 0", "0 1 0 0", "0 0 1 0", "0 0 0 i"]


@pytest.mark.parametrize(
    "scenario,expected",
    [
        ("r8_q8", True),
        # i on C^4 lies in SU(4), hence in Spin(7); diag(1, 1, 1, i) has
        # determinant i, so it is in U(4) but not in Spin(7).
        ((TIMES_I, LAST_TIMES_I), False),
        ((TIMES_I,), True),
    ],
)
def test_spin7_all_on_generators_equals_all_elements(scenario, expected, tmp_path, capsys):
    if isinstance(scenario, str):
        ref = scenario
    else:
        ref = str(tmp_path / "probe.scn")
        Path(ref).write_text(_scenario_text(scenario))
    assert main(["group", "--scenario", ref, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    elements = close(load_scenario(ref).generators).elements
    assert report["spin7_all"] == all(spin7_check(m) for m in elements) == expected
