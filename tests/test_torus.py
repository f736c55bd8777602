"""Torus fixed sets and singular-set decomposition."""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitop import torus
from orbitop.errors import PreconditionError, VerificationError
from orbitop.exact import Matrix, int_apply, int_det
from orbitop.group import Motion, close
from orbitop.torus import (
    TorusLattice,
    common_fixed_set,
    fixed_set,
    lattice_matrix,
    singular_set,
)


def _powers(group, motion):
    idx = next(i for i, m in enumerate(group.elements) if m == motion)
    out = {1: idx}
    cur = idx
    for k in range(2, group.order + 1):
        cur = group.mul(cur, idx)
        out[k] = cur
    return out


def test_lattice_matrix_identity(gaussian_lattice):
    ident = Motion.identity(6)
    assert lattice_matrix(ident, gaussian_lattice) == tuple(
        tuple(int(i == j) for j in range(6)) for i in range(6)
    )


def test_lattice_matrix_kappa_integral(kappa, gaussian_lattice):
    m = lattice_matrix(kappa, gaussian_lattice)
    assert all(type(x) is int for row in m for x in row)
    assert Matrix(m).det() == 1


def test_non_preserving_motion_rejected():
    # A rational rotation of infinite order cannot fix the square lattice.
    rot = Motion(((3, -4), (4, 3)), 5)
    with pytest.raises(PreconditionError):
        lattice_matrix(rot, TorusLattice.standard(2))


def test_fixed_sets_of_z4(kappa, z4_group, gaussian_lattice):
    powers = _powers(z4_group, kappa)
    f1 = fixed_set(kappa, gaussian_lattice)
    f2 = fixed_set(z4_group.elements[powers[2]], gaussian_lattice)
    f3 = fixed_set(z4_group.elements[powers[3]], gaussian_lattice)
    assert (f1.dimension, f1.component_count) == (0, 16)
    assert (f3.dimension, f3.component_count) == (0, 16)
    assert (f2.dimension, f2.component_count) == (2, 16)
    # The sixteen isolated points: z1 ranges over the four half-lattice
    # shifts, z2 and z3 over 0 and the diagonal half shift.
    half = Fraction(1, 2)
    expected = {
        (z1r, z1i, z2, z2, z3, z3)
        for z1r in (0, half)
        for z1i in (0, half)
        for z2 in (0, half)
        for z3 in (0, half)
    }
    assert set(f1.representatives) == {
        tuple(Fraction(x) for x in p) for p in expected
    }


def test_fixed_set_identity(gaussian_lattice):
    ident = Motion.identity(6)
    fam = fixed_set(ident, gaussian_lattice)
    assert (fam.dimension, fam.component_count) == (6, 1)


def test_fixed_points_of_generator_lie_in_square_fixed_set(
    kappa, z4_group, gaussian_lattice
):
    powers = _powers(z4_group, kappa)
    square = z4_group.elements[powers[2]]
    f1 = fixed_set(kappa, gaussian_lattice)
    m2 = lattice_matrix(square, gaussian_lattice)
    for p in f1.representatives:
        image = tuple(x % 1 for x in int_apply(m2, p))
        assert image == p


def test_common_fixed_set_of_generator_and_square(kappa, z4_group, gaussian_lattice):
    powers = _powers(z4_group, kappa)
    square = z4_group.elements[powers[2]]
    fam = common_fixed_set([kappa, square], gaussian_lattice)
    assert (fam.dimension, fam.component_count) == (0, 16)


def test_common_fixed_set_identity_pair(gaussian_lattice):
    ident = Motion.identity(6)
    fam = common_fixed_set([ident, ident], gaussian_lattice)
    assert (fam.dimension, fam.component_count) == (6, 1)


def test_common_fixed_set_of_flips(flip_generators, gaussian_lattice):
    fam = common_fixed_set(list(flip_generators), gaussian_lattice)
    assert (fam.dimension, fam.component_count) == (0, 64)


def test_common_fixed_set_order_independent(flip_generators, gaussian_lattice):
    k1, k2 = flip_generators
    a = common_fixed_set([k1, k2], gaussian_lattice)
    b = common_fixed_set([k2, k1], gaussian_lattice)
    assert a.dimension == b.dimension
    assert a.component_count == b.component_count
    assert set(a.representatives) == set(b.representatives)


def test_fixed_set_equals_inverse_fixed_set(kappa, z4_group, gaussian_lattice):
    powers = _powers(z4_group, kappa)
    inv = z4_group.elements[powers[3]]
    a = fixed_set(kappa, gaussian_lattice)
    b = fixed_set(inv, gaussian_lattice)
    assert a.dimension == b.dimension
    assert a.component_count == b.component_count
    assert set(a.representatives) == set(b.representatives)


def test_component_count_multiplicative_on_blocks():
    rng = random.Random(314)
    blocks = [
        ((0, -1), (1, 0)),
        ((-1, 0), (0, -1)),
        ((0, 1), (-1, -1)),  # order 6
        ((1, 0), (0, 1)),
    ]
    for _ in range(12):
        b1 = rng.choice(blocks)
        b2 = rng.choice(blocks)
        m = [[0] * 4 for _ in range(4)]
        for i in range(2):
            for j in range(2):
                m[i][j] = b1[i][j]
                m[2 + i][2 + j] = b2[i][j]
        f = fixed_set(Motion(m), TorusLattice.standard(4))
        f1 = fixed_set(Motion(b1), TorusLattice.standard(2))
        f2 = fixed_set(Motion(b2), TorusLattice.standard(2))
        assert f.component_count == f1.component_count * f2.component_count
        assert f.dimension == f1.dimension + f2.dimension


def test_singular_set_z4(z4_group, gaussian_lattice):
    report = singular_set(z4_group, gaussian_lattice)
    assert report.count_by_label() == {"T2": 6, "T2/Z2": 4}
    quotients = [c for c in report.components if c.quotient_label == "T2/Z2"]
    assert all(len(c.special_points) == 4 for c in quotients)
    plains = [c for c in report.components if c.quotient_label == "T2"]
    assert all(len(c.special_points) == 0 for c in plains)
    assert all(c.orbit_size == 2 for c in plains)
    assert all(c.orbit_size == 1 for c in quotients)
    assert report.intersection_points == ()
    # generic stabilizer of every line is the order-2 subgroup
    assert all(len(c.generic_stabilizer) == 2 for c in report.components)


def test_singular_set_z2z2(z2z2_group, gaussian_lattice):
    report = singular_set(z2z2_group, gaussian_lattice)
    assert report.count_by_label() == {"T2/Z2": 48}
    assert len(report.intersection_points) == 64
    assert all(len(inc) == 3 for _, inc in report.intersection_points)
    # each of the 48 lines passes through 4 of the 64 points
    from collections import Counter

    by_comp = Counter()
    for _, inc in report.intersection_points:
        for c in inc:
            by_comp[c] += 1
    assert sorted(by_comp.values()) == [4] * 48


def _order(perm):
    """The order of a permutation, the lcm of its cycle lengths."""
    seen, out = set(), 1
    for start in range(len(perm)):
        size, cur = 0, start
        while cur not in seen:
            seen.add(cur)
            cur = perm[cur]
            size += 1
        out = lcm(out, size or 1)
    return out


def _in_span(v, d1, d2):
    """v lies in the rational span of d1 and d2: every 3 x 3 minor of the
    columns d1, d2, v vanishes."""
    return all(
        int_det([[d1[i], d2[i], v[i]] for i in rows]) == 0
        for rows in itertools.combinations(range(len(v)), 3)
    )


def _grid(p, d1, d2, n):
    """Numerators mod n of p + a d1 + b d2 for a, b in range(n)."""
    return [
        tuple((x + a * u + b * v) % n for x, u, v in zip(p, d1, d2))
        for a, b in itertools.product(range(n), repeat=2)
    ]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["z4_group", "z2z2_group", "z4z4_group"])
def test_labels_and_special_points_match_grid_scan(
    request, shear_lattice, name, seed
):
    """Each 2-dimensional component p + D t meets (1/N)Z^6 in the grid
    t in (1/N)Z^2/Z^2, N = 12 den.  A finite-order affine map of T^2 has
    |det(A - 1)| in {1, 2, 3, 4}, so its isolated fixed points lie on
    that grid, and a positive-dimensional fixed set holds at least N of
    its points.  The elements mapping the component to itself permute
    the grid; that permutation group is the acting quotient, and its
    order and largest element order give the label."""
    group = request.getfixturevalue(name)
    lattice = shear_lattice(seed)
    report = singular_set(group, lattice)
    mats = [lattice_matrix(m, lattice) for m in group.elements]
    checked = 0
    for comp in report.components:
        if comp.dimension != 2:
            continue
        den = lcm(*(x.denominator for x in comp.representative))
        n = 12 * den
        p = [int(x * n) for x in comp.representative]
        d1, d2 = comp.direction
        points = _grid(p, d1, d2, n)
        grid = {x: k for k, x in enumerate(points)}
        assert len(grid) == n * n
        perms, special = set(), set()
        for m in mats:
            # m maps the component to itself when it keeps the direction
            # span and takes p back onto the component.
            image = tuple(x % n for x in int_apply(m, p))
            u, v = int_apply(m, d1), int_apply(m, d2)
            if image not in grid or not (_in_span(u, d1, d2) and _in_span(v, d1, d2)):
                continue
            perm = tuple(grid[x] for x in _grid(image, u, v, n))
            perms.add(perm)
            fixed = [x for k, x in enumerate(points) if perm[k] == k]
            if len(fixed) <= 4:
                special.update(tuple(Fraction(y, n) for y in x) for x in fixed)
            else:
                assert len(fixed) >= n
        assert sorted(special) == list(comp.special_points)
        q = len(perms)
        top = max(map(_order, perms))
        expected = (
            "T2" if q == 1
            else f"T2/Z{q}" if top == q
            else "T2/Z2xZ2" if (q, top) == (4, 2)
            else "unclassified"
        )
        assert comp.quotient_label == expected
        checked += 1
    assert checked


def test_singular_set_trivial_group(trivial_c3_group, gaussian_lattice):
    report = singular_set(trivial_c3_group, gaussian_lattice)
    assert report.components == ()
    assert report.intersection_points == ()


def test_singular_set_rejects_an_image_off_the_list(
    z4_group, gaussian_lattice, monkeypatch
):
    """Every element maps a maximal translate to a maximal translate.  A
    matrix list whose kappa swaps z1 and z2 maps the T2 lines along z1
    to lines along z2, which no element fixes."""
    mats = list(torus.lattice_matrices(z4_group, gaussian_lattice))
    order = [2, 3, 0, 1, 4, 5]
    kappa = next(i for i in range(4) if z4_group.element_order(i) == 4)
    mats[kappa] = tuple(tuple(int(j == order[i]) for j in range(6)) for i in range(6))
    monkeypatch.setattr(torus, "lattice_matrices", lambda group, lattice: tuple(mats))
    with pytest.raises(VerificationError, match="off the list"):
        singular_set(z4_group, gaussian_lattice)


def test_representatives_satisfy_congruence(z2z2_group, gaussian_lattice):
    for i, motion in enumerate(z2z2_group.elements):
        if i == z2z2_group.identity_index:
            continue
        fam = fixed_set(motion, gaussian_lattice)
        m = lattice_matrix(motion, gaussian_lattice)
        for p in fam.representatives:
            assert tuple(x % 1 for x in int_apply(m, p)) == p


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4])
def test_isolated_fixed_points_match_lefschetz(
    seed, z4_group, z2z2_group, z4z4_group, shear_lattice
):
    """An automorphism M of a torus with isolated fixed points has
    |det(M - 1)| of them; the determinant is taken on the motion itself,
    as a Fraction matrix built from its rows / den, so it depends neither
    on the lattice basis nor on the torus code."""
    if seed is None:
        lattice = TorusLattice.standard(6)
    else:
        lattice = shear_lattice(seed)
    isolated = 0
    for group in (z4_group, z2z2_group, z4z4_group):
        for motion in group.elements:
            fam = fixed_set(motion, lattice)
            if fam.dimension == 0:
                isolated += 1
                shifted = Matrix(
                    [
                        [Fraction(x, motion.den) - (i == j) for j, x in enumerate(row)]
                        for i, row in enumerate(motion.rows)
                    ]
                )
                lefschetz = abs(shifted.det())
                assert fam.component_count == len(fam.representatives) == lefschetz
    assert isolated == 2 + 0 + 6


# The join-based algorithms that singular_set used before it read its
# points off the fixed sets of subgroups, kept as independent references:
# one ambient congruence per moving element for the special points, and
# one Smith form of [D1 | -D2] per pair of spans for the intersections.


def _oracle_special_points(comp, moving):
    """Solutions t of (m - 1)(p + D t) = 0 (mod Z^n), one congruence in
    the ambient lattice per matrix m moving the component; a
    positive-dimensional solution set gives no special points."""
    points = set()
    for m in moving:
        shift = torus._shifts([m])
        solved = torus._solve_congruence(
            torus.int_product(shift, tuple(zip(*comp.dirs))),
            (tuple(-x for x in int_apply(shift, comp.nums)), comp.den),
        )
        if solved is None or solved[0] > 0:
            continue
        _, _, t_den, reps, _ = solved
        for t in reps:
            offset = int_apply(tuple(zip(*comp.dirs)), t)
            ambient = [x * t_den + comp.den * y for x, y in zip(comp.nums, offset)]
            points.add(torus._fractions(*torus._canon(ambient, comp.den * t_den)))
    return tuple(sorted(points))


def _oracle_intersection_points(maximal, mats, comp_of):
    """A s = p2 - p1 with A = [D1 | -D2] for translates of distinct spans,
    solved for the pairs whose values under the trailing rows of U in
    A's Smith form agree, then deduplicated up to G and kept where two
    components meet."""
    by_span = {}
    for t in maximal:
        by_span.setdefault(t.span, []).append(t)
    raw_points = set()
    for first, second in itertools.combinations(by_span.values(), 2):
        d1, d2 = first[0].dirs, second[0].dirs
        a = tuple(zip(*(d1 + tuple(tuple(-x for x in d) for d in d2))))
        dec = torus.snf(a)
        tail = dec.U[dec.rank:]
        joined = {}
        for t2 in second:
            key = torus._canon(int_apply(tail, t2.nums), t2.den)
            joined.setdefault(key, []).append(t2)
        for t1 in first:
            for t2 in joined.get(torus._canon(int_apply(tail, t1.nums), t1.den), ()):
                q = lcm(t1.den, t2.den)
                rhs = tuple(
                    y * (q // t2.den) - x * (q // t1.den)
                    for x, y in zip(t1.nums, t2.nums)
                )
                solved = torus._solve_congruence(a, (rhs, q))
                assert solved is not None and solved[0] == 0
                _, _, s_den, reps, _ = solved
                for s in reps:
                    offset = int_apply(tuple(zip(*d1)), s)
                    ambient = [x * s_den + t1.den * y for x, y in zip(t1.nums, offset)]
                    raw_points.add(torus._canon(ambient, t1.den * s_den))
    comp_by_key = {t.key: comp_of[k] for k, t in enumerate(maximal)}
    spans = {t.span: t for t in maximal}.values()
    out, seen = [], set()
    for nums, den in raw_points:
        if (nums, den) in seen:
            continue
        images = {tuple(x % den for x in int_apply(m, nums)) for m in mats}
        seen.update((img, den) for img in images)
        incident = {comp_by_key.get(t.parallel_key(nums, den)) for t in spans}
        incident.discard(None)
        if len(incident) >= 2:
            out.append((torus._fractions(min(images), den), tuple(sorted(incident))))
    return tuple(sorted(out))


def _half_lattice():
    """Z^6 + (1/2)(1, ..., 1): its first basis vector mixes all three
    complex planes."""
    rows = [[Fraction(1, 2)] * 6]
    rows += [[int(i == j) for j in range(6)] for i in range(1, 6)]
    return TorusLattice(basis=Matrix(rows).T)


@pytest.mark.parametrize("lattice_ref", [None, "half", 0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", ["z4_group", "z2z2_group", "z4z4_group"])
def test_singular_points_match_the_join_based_reference(
    request, shear_lattice, name, lattice_ref
):
    group = request.getfixturevalue(name)
    if lattice_ref is None:
        lattice = TorusLattice.standard(6)
    elif lattice_ref == "half":
        lattice = _half_lattice()
    else:
        lattice = shear_lattice(lattice_ref)
    report = singular_set(group, lattice)
    mats = torus.lattice_matrices(group, lattice)
    # Every maximal translate is an image of a reported component's.
    maximal, comp_of, keys = [], {}, set()
    for k, comp in enumerate(report.components):
        den = lcm(*(x.denominator for x in comp.representative))
        nums = [int(x * den) for x in comp.representative]
        t = torus._Translate(nums, den, comp.direction)
        moving = []
        for i, m in enumerate(mats):
            image = t.image(m)
            if image.key == t.key and i not in comp.generic_stabilizer:
                moving.append(m)
            if image.key not in keys:
                keys.add(image.key)
                comp_of[len(maximal)] = k
                maximal.append(image)
        assert comp.special_points == _oracle_special_points(t, moving)
    assert report.intersection_points == _oracle_intersection_points(
        maximal, mats, comp_of
    )


@pytest.mark.parametrize(
    "name,lattice_ref,most", [("z2z2_group", None, 5), ("z4z4_group", 0, 30)]
)
def test_one_solve_per_subgroup(
    request, shear_lattice, monkeypatch, name, lattice_ref, most
):
    """Every stabilizer and point comes from one cached Fix(H) per
    subgroup H, so the solves are bounded by the subgroups met, not by
    the components and their pairs (243 and 282 solves before)."""
    group = request.getfixturevalue(name)
    lattice = shear_lattice(lattice_ref) if lattice_ref is not None else (
        TorusLattice.standard(6)
    )
    solve, calls = torus._solve_congruence, []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(torus, "_solve_congruence", counted)
    singular_set(group, lattice)
    assert len(calls) <= most


def _reference_span_key(dirs):
    """`torus._span_key` as it was written on `Matrix.rref`: boxed
    Fraction elimination, each row cleared of denominators."""
    if not dirs:
        return ()
    reduced, _ = Matrix(dirs).rref()
    out = []
    for row in reduced.data:
        k = lcm(*(x.denominator for x in row))
        out.append(tuple(int(x * k) for x in row))
    return tuple(out)


@st.composite
def _independent_directions(draw):
    """1 to 5 independent vectors in Z^6, entries in [-6, 6]: the
    directions a translate carries are the columns of a unimodular
    matrix, or their images under an invertible motion."""
    vector = st.tuples(*[st.integers(-6, 6)] * 6)
    dirs = tuple(draw(st.lists(vector, min_size=1, max_size=5)))
    assume(len(Matrix(dirs).rref()[1]) == len(dirs))
    return dirs


@settings(max_examples=300, deadline=None)
@given(_independent_directions())
def test_span_key_matches_the_fraction_rref_reference(dirs):
    assert torus._span_key(dirs) == _reference_span_key(dirs)
