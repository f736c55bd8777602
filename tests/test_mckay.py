"""ADE classification, diagram actions, lifts, invariant pairs, second stage."""

import functools
import itertools
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix as SympyMatrix

from orbitop.ade import DynkinDiagram, ExtendedElement, build_root_system, weyl_group
from orbitop import mckay
from orbitop.cli import main
from orbitop.errors import CapExceededError, PreconditionError
from orbitop.exact import (
    Cyclotomic,
    Matrix,
    int_product,
    integer_coefficients,
    zero_pairings,
)
from orbitop.exact import matrix as exact_matrix
from orbitop.invariants.nodes import generic_combination
from orbitop.group import (
    Motion,
    close,
    normal_and_quotient,
    order_modulo,
    splitting_multiplier,
    stabilizer,
)
from orbitop.mckay import (
    ASeriesModel,
    PipelineResult,
    PsiHom,
    analyze_splitting,
    build_invariant_pair_problem,
    classify_kleinian,
    enumerate_chi_lifts,
    invariant_pair_decide,
    iterate_residual,
    second_stage_classify,
)
from orbitop.scenario import load_scenario
from test_exact import _reference_kernel


def su2_motion(rows):
    return Motion.from_complex(rows)


@pytest.fixture(scope="module")
def minus_one_group():
    m = su2_motion([[(-1, 0), (0, 0)], [(0, 0), (-1, 0)]])
    return close([m])


@pytest.fixture(scope="module")
def cyclic4_su2():
    m = su2_motion([[(0, 1), (0, 0)], [(0, 0), (0, -1)]])
    return close([m])


@pytest.fixture(scope="module")
def quaternion8_su2():
    i = su2_motion([[(0, 1), (0, 0)], [(0, 0), (0, -1)]])
    j = su2_motion([[(0, 0), (1, 0)], [(-1, 0), (0, 0)]])
    return close([i, j])


# --- classification -----------------------------------------------------------


def test_minus_one_classifies_a1(minus_one_group):
    kc = classify_kleinian(minus_one_group)
    assert kc.diagram.name == "A1"
    assert len(kc.classes) == 1
    assert not kc.ambiguous


def test_cyclic4_classifies_a3(cyclic4_su2):
    kc = classify_kleinian(cyclic4_su2)
    assert kc.diagram.name == "A3"
    # oracle: the three nonidentity elements are singleton classes
    assert len(kc.classes) == 3
    assert all(len(c) == 1 for c in kc.classes)


def test_quaternion8_classifies_d4(quaternion8_su2):
    kc = classify_kleinian(quaternion8_su2)
    assert kc.diagram.name == "D4"
    assert len(kc.classes) == 4
    assert kc.ambiguous
    # the size-1 class (the central involution) always sits on the hub
    hub = next(v for v in range(4) if kc.diagram.degree(v) == 3)
    central = next(i for i, c in enumerate(kc.classes) if len(c) == 1)
    assert all(vmap[central] == hub for vmap in kc.vertex_maps)


def test_trivial_subgroup_rejected():
    ident = su2_motion([[(1, 0), (0, 0)], [(0, 0), (1, 0)]])
    with pytest.raises(PreconditionError):
        classify_kleinian(close([ident]))


def test_non_su2_rejected():
    phase = su2_motion([[(0, 1), (0, 0)], [(0, 0), (1, 0)]])  # det = i
    with pytest.raises(PreconditionError):
        classify_kleinian(close([phase]))


# --- psi ------------------------------------------------------------------------


def test_psi_trivial_for_z4(z4_group):
    result = analyze_splitting(z4_group)
    assert result.classification.diagram.name == "A1"
    assert result.psi.is_trivial()
    assert result.quotient.order == 2


def test_pipeline_refuses_when_whole_group_fixes_line():
    gen = Motion.from_complex(
        [
            [(1, 0), (0, 0), (0, 0)],
            [(0, 0), (0, 1), (0, 0)],
            [(0, 0), (0, 0), (0, -1)],
        ]
    )
    g = close([gen])
    with pytest.raises(PreconditionError):
        # The whole group fixes the line: no quotient data to analyze.
        analyze_splitting(g)


def _chain_flip_group():
    """H = Z4 = <diag(i, -i)> on (z2, z3), and an element that negates z1
    and swaps z2 with z3, so conjugates the generator of H to its inverse:
    K = Z2 flips the A3 chain."""
    a = Motion.from_complex(
        [
            [(1, 0), (0, 0), (0, 0)],
            [(0, 0), (0, 1), (0, 0)],
            [(0, 0), (0, 0), (0, -1)],
        ]
    )
    b = Motion.from_complex(
        [
            [(-1, 0), (0, 0), (0, 0)],
            [(0, 0), (0, 0), (1, 0)],
            [(0, 0), (1, 0), (0, 0)],
        ]
    )
    return close([a, b])


def test_psi_end_vertex_swap_for_dihedral():
    g = _chain_flip_group()
    assert g.order == 8
    result = analyze_splitting(g)
    assert result.classification.diagram.name == "A3"
    images = set(result.psi.images)
    assert (0, 1, 2) in images  # identity coset
    assert (2, 1, 0) in images  # the chain flip
    # oracle: conjugating the order-4 generator of H by any element
    # outside H inverts it, so the induced chain map is the end swap
    h = sorted(result.h_indices)
    gen_idx = next(i for i in h if g.element_order(i) == 4)
    for out_idx in (i for i in range(g.order) if i not in h):
        assert g.conjugate(out_idx, gen_idx) == g.inverse[gen_idx]


def test_psi_does_not_depend_on_the_order_of_the_blocks():
    g = _chain_flip_group()
    h = analyze_splitting(g).h_indices
    blocks = [mckay._complement_block(g.elements[i]) for i in h]
    forward, backward = close(blocks), close(blocks[::-1])
    assert forward.elements != backward.elements
    psis = [
        mckay.compute_psi(g, set(h), classify_kleinian(sub))
        for sub in (forward, backward)
    ]
    assert psis[0].images == psis[1].images
    assert set(psis[0].images) == {(0, 1, 2), (2, 1, 0)}


def test_psi_refuses_a_subgroup_that_is_not_the_restriction():
    g = _chain_flip_group()
    h = analyze_splitting(g).h_indices
    # Another Z4 in SU(2), the one generated by the quaternion j.
    other = close([Motion.from_complex([[(0, 0), (1, 0)], [(-1, 0), (0, 0)]])])
    classification = classify_kleinian(other)
    assert classification.diagram.name == "A3"
    with pytest.raises(PreconditionError, match="restriction"):
        mckay.compute_psi(g, set(h), classification)


@pytest.mark.parametrize("axis", [3, 7, -1])
def test_pipeline_refuses_an_axis_outside_the_space(z4_group, axis):
    with pytest.raises(PreconditionError, match=f"axis {axis} is not in 0..2"):
        analyze_splitting(z4_group, axis=axis)


# --- lifts ----------------------------------------------------------------------


def _synthetic_z2_quotient():
    neg = Motion.from_complex(
        [
            [(-1, 0), (0, 0), (0, 0)],
            [(0, 0), (-1, 0), (0, 0)],
            [(0, 0), (0, 0), (1, 0)],
        ]
    )
    g = close([neg])
    return normal_and_quotient(g, {g.identity_index})


def test_two_lifts_for_z2_over_a1():
    quotient = _synthetic_z2_quotient()
    diagram = DynkinDiagram.make("A", 1)
    rs = build_root_system(diagram)
    w = weyl_group(rs)
    psi = PsiHom(source=quotient, diagram=diagram, images=((0,), (0,)))
    lifts = enumerate_chi_lifts(psi, w)
    assert len(lifts) == 2
    assert lifts[0].is_canonical()


def test_one_lift_for_trivial_quotient(trivial_c3_group):
    quotient = normal_and_quotient(
        trivial_c3_group, {trivial_c3_group.identity_index}
    )
    diagram = DynkinDiagram.make("A", 1)
    rs = build_root_system(diagram)
    psi = PsiHom(source=quotient, diagram=diagram, images=((0,),))
    lifts = enumerate_chi_lifts(psi, weyl_group(rs))
    assert len(lifts) == 1
    assert lifts[0].is_canonical()


def test_four_lifts_for_z2_over_a2():
    quotient = _synthetic_z2_quotient()
    diagram = DynkinDiagram.make("A", 2)
    rs = build_root_system(diagram)
    w = weyl_group(rs)
    psi = PsiHom(source=quotient, diagram=diagram, images=((0, 1), (0, 1)))
    lifts = enumerate_chi_lifts(psi, w)
    # oracle: identity plus the three reflections square to one
    involutions = [m for m in w.elements if _product(m, m) == ((1, 0), (0, 1))]
    assert len(involutions) == 4
    assert len(lifts) == 4


def _synthetic_z2z2_quotient():
    """Z2 x Z2 = <diag(-1, -1, 1), diag(-1, 1, -1)> modulo the trivial group."""
    def diag(a, b, c):
        return Motion.from_complex(
            [
                [(a, 0), (0, 0), (0, 0)],
                [(0, 0), (b, 0), (0, 0)],
                [(0, 0), (0, 0), (c, 0)],
            ]
        )

    g = close([diag(-1, -1, 1), diag(-1, 1, -1)])
    assert g.order == 4
    return normal_and_quotient(g, {g.identity_index})


def _trivial_psi(quotient, diagram):
    ident = tuple(range(diagram.rank))
    return PsiHom(source=quotient, diagram=diagram, images=(ident,) * quotient.order)


def _signed_permutations_d4():
    """W(D4) as 4x4 signed permutation matrices with an even number of
    minus signs, built without orbitop.ade."""
    out = []
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((1, -1), repeat=4):
            if signs.count(-1) % 2 == 0:
                out.append(
                    tuple(
                        tuple(signs[i] if perm[i] == j else 0 for j in range(4))
                        for i in range(4)
                    )
                )
    return out


def _product(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def _commuting_involution_pairs(elements, mul, identity):
    involutions = [x for x in elements if mul(x, x) == identity]
    return involutions, sum(
        1 for x in involutions for y in involutions if mul(x, y) == mul(y, x)
    )


def test_z2z2_lifts_over_d4_match_signed_permutation_oracle():
    # A lift of the trivial action of Z2 x Z2 is a pair (x, y) of
    # commuting elements of W with x^2 = y^2 = 1.
    elements = _signed_permutations_d4()
    ident = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    involutions, pairs = _commuting_involution_pairs(elements, _product, ident)
    assert len(elements) == 192 and len(involutions) == 44
    diagram = DynkinDiagram.make("D", 4)
    w = weyl_group(build_root_system(diagram))
    lifts = enumerate_chi_lifts(_trivial_psi(_synthetic_z2z2_quotient(), diagram), w)
    assert len(lifts) == pairs
    assert lifts[0].is_canonical()
    assert not any(lift.is_canonical() for lift in lifts[1:])


def test_z2z2_lifts_over_a2_match_involution_oracle():
    diagram = DynkinDiagram.make("A", 2)
    w = weyl_group(build_root_system(diagram))
    involutions, pairs = _commuting_involution_pairs(
        w.elements, _product, ((1, 0), (0, 1))
    )
    assert len(involutions) == 4
    lifts = enumerate_chi_lifts(_trivial_psi(_synthetic_z2z2_quotient(), diagram), w)
    # identity with anything (4 + 3) and each reflection with itself (3)
    assert len(lifts) == pairs == 10


def _coordinate_permutation(image):
    """The motion of R^6 sending e_i to e_image[i] (fixed past the tuple)."""
    image = tuple(image)
    image += tuple(range(len(image), 6))
    return Motion(tuple(tuple(int(image[j] == i) for j in range(6)) for i in range(6)))


def _cyclic_quotient(k):
    """Z_k acting on R^6 by a k-cycle of the first k coordinates, modulo
    the trivial group."""
    g = close([_coordinate_permutation((i + 1) % k for i in range(k))])
    return normal_and_quotient(g, {g.identity_index})


@pytest.mark.parametrize(
    "family,rank,k",
    [("D", 4, 2), ("D", 4, 3), ("D", 4, 4), ("D", 4, 6),
     ("D", 5, 2), ("D", 5, 3), ("D", 5, 4), ("D", 5, 5), ("D", 5, 6)],
)
def test_cyclic_lifts_are_the_roots_of_one_by_int_row_powers(weyl, family, rank, k):
    # A lift of the trivial action of Z_k is determined by the image x
    # of its generator, any x in W with x^k = 1.
    w = weyl(family, rank)
    quotient = _cyclic_quotient(k)
    (gen,) = mckay._quotient_generators(quotient)
    lifts = enumerate_chi_lifts(_trivial_psi(quotient, w.diagram), w)
    ident = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))

    def power(m):
        p = ident
        for _ in range(k):
            p = int_product(p, m)
        return p

    expected = sorted(m for m in w.elements if power(m) == ident)
    assert sorted(lift.images[gen].weyl for lift in lifts) == expected
    assert lifts[0].is_canonical()


def test_triality_lifts_over_d4_match_extended_products():
    # K = S3 permuting three coordinates, acting on D4 by permuting the
    # tips 0, 2, 3 of the fork: the one non-abelian K in the suite, so
    # the order of each product matters.  Oracle: pairs (x, y) over the
    # 3-cycle s and the swap t with x^3 = y^2 = (xy)^2 = 1, multiplied
    # as ExtendedElements.
    diagram = DynkinDiagram.make("D", 4)
    w = weyl_group(build_root_system(diagram))
    s, t = (1, 2, 0), (1, 0, 2)
    g = close([_coordinate_permutation(s), _coordinate_permutation(t)])
    quotient = normal_and_quotient(g, {g.identity_index})
    tips = (0, 2, 3)

    def vertex_perm(motion):
        # The motion's permutation of the coordinates, carried to the tips.
        image = [0, 1, 2, 3]
        for i in range(3):
            row = next(r for r, entries in enumerate(motion.rows) if entries[i])
            image[tips[i]] = tips[row]
        return tuple(image)

    images = tuple(
        vertex_perm(g.elements[quotient.coset_rep(c)]) for c in range(quotient.order)
    )
    psi = PsiHom(source=quotient, diagram=diagram, images=images)
    assert mckay._is_perm_hom(quotient, images) and len(set(images)) == 6
    lifts = enumerate_chi_lifts(psi, w)

    def coset_of(perm):
        motion = _coordinate_permutation(perm)
        return next(
            c for c in range(quotient.order)
            if g.elements[quotient.coset_rep(c)] == motion
        )

    cs, ct = coset_of(s), coset_of(t)
    unit = ExtendedElement.identity(4)

    def power(x, k):
        p = unit
        for _ in range(k):
            p = p * x
        return p

    xs = [ExtendedElement(images[cs], m) for m in w.elements]
    ys = [ExtendedElement(images[ct], m) for m in w.elements]
    xs = [x for x in xs if power(x, 3).is_identity()]
    ys = [y for y in ys if power(y, 2).is_identity()]
    expected = {(x, y) for x in xs for y in ys if power(x * y, 2).is_identity()}
    assert {(lift.images[cs], lift.images[ct]) for lift in lifts} == expected
    assert len(lifts) == len(expected) == 224
    assert lifts[0].is_canonical()


def test_e6_lifts_of_a_trivial_z4_action(weyl):
    # 6,832 elements of W(E6) with x^4 = 1: also the lift count of e6_bt,
    # whose psi is trivial.
    w = weyl("E", 6)
    lifts = enumerate_chi_lifts(_trivial_psi(_cyclic_quotient(4), w.diagram), w)
    assert len(lifts) == 6832
    assert lifts[0].is_canonical()


def test_lift_search_cap(monkeypatch):
    diagram = DynkinDiagram.make("D", 4)
    w = weyl_group(build_root_system(diagram))
    psi = _trivial_psi(_synthetic_z2z2_quotient(), diagram)
    monkeypatch.setattr(mckay, "LIFT_SEARCH_CAP", 44 * 44 - 1)
    with pytest.raises(CapExceededError, match="1936 candidate assignments"):
        enumerate_chi_lifts(psi, w)
    monkeypatch.setattr(mckay, "LIFT_SEARCH_CAP", 44 * 44)
    assert len(enumerate_chi_lifts(psi, w)) > 1


def test_cyclic_quotient_gets_one_generator():
    # e6_bt: K = G/H is Z4.  A redundant order-2 generator would multiply
    # the 6,832 lift candidates of the order-4 one by its own 892.
    stress = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"
    group = close(load_scenario(str(stress / "e6_bt.scn")).generators)
    z1_plane = [tuple(Fraction(int(i == j)) for i in range(6)) for j in (0, 1)]
    quotient = normal_and_quotient(group, stabilizer(group, subspace=z1_plane))
    assert quotient.order == 4
    (gen,) = mckay._quotient_generators(quotient)
    assert order_modulo(quotient.table, gen, (quotient.identity_coset,)) == 4


def test_lifts_command_does_not_decide_pairs(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise PreconditionError("lifts built an invariant-pair problem")

    monkeypatch.setattr(mckay, "build_invariant_pair_problem", refuse)
    out = tmp_path / "lifts.json"
    argv = ["lifts", "--scenario", "c3_z4", "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    assert main(["invariant-pair", "--scenario", "c3_z4"]) == 3


def test_lifts_are_homomorphisms_projecting_to_psi(z4_group):
    result = analyze_splitting(z4_group)
    quotient = result.quotient
    for lift in result.lifts:
        for x in range(quotient.order):
            for y in range(quotient.order):
                assert (
                    lift.images[quotient.mul(x, y)]
                    == lift.images[x] * lift.images[y]
                )
            assert lift.images[x].aut == result.psi.images[x]


# --- invariant pairs ------------------------------------------------------------


def test_case_a_holds_with_beta_zero(z4_group):
    result = analyze_splitting(z4_group)
    canonical = result.decisions[0]
    assert result.lifts[0].is_canonical()
    assert canonical.exists
    assert all(x == 0 for x in canonical.label.beta)
    assert any(x != 0 for x in canonical.label.alpha)


def test_case_b_holds_with_alpha_zero(z4_group):
    result = analyze_splitting(z4_group)
    other = result.decisions[1]
    assert not result.lifts[1].is_canonical()
    assert other.exists
    assert all(x == 0 for x in other.label.alpha)
    assert any(not x.is_zero() for x in other.label.beta)


def test_blocking_case_impossible_and_sampled_oracle():
    quotient = _synthetic_z2_quotient()
    diagram = DynkinDiagram.make("A", 1)
    rs = build_root_system(diagram)
    w = weyl_group(rs)
    psi = PsiHom(source=quotient, diagram=diagram, images=((0,), (0,)))
    lifts = enumerate_chi_lifts(psi, w)
    flip = next(l for l in lifts if not l.is_canonical())
    one = Cyclotomic.from_rational(1)
    problem = build_invariant_pair_problem(rs, flip, (one, one))
    decision = invariant_pair_decide(problem)
    assert not decision.exists
    assert decision.blocking_root in rs.roots
    # randomized oracle: no sampled pair from the fixed spaces may be generic
    rng = random.Random(17)
    for _ in range(100):
        alpha = _sample(problem.real_fixed_basis, rng)
        beta = _sample_cyc(problem.complex_fixed_basis, rng)
        assert not _satisfies_genericity(alpha, beta, rs)


# --- fixed spaces from the generators of K against all cosets -------------------

STRESS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"


@functools.lru_cache(maxsize=None)
def _pipeline(name):
    path = STRESS / f"{name}.scn"
    scenario = load_scenario(str(path) if path.exists() else name)
    group = close(scenario.generators)
    return analyze_splitting(group, axis=scenario.splitting_axis - 1)


@functools.lru_cache(maxsize=None)
def _lift_problems(name):
    """(root system, lifts, phi, quotient) of a scenario, or of the trivial
    action of the synthetic Z2 x Z2 on a diagram ("z2z2/A3"): the bundled
    and stress scenarios all have a cyclic K."""
    if not name.startswith("z2z2/"):
        result = _pipeline(name)
        return result.root_system, result.lifts, result.phi, result.quotient
    diagram = DynkinDiagram.make(name[5], int(name[6:]))
    rs = build_root_system(diagram)
    quotient = _synthetic_z2z2_quotient()
    lifts = enumerate_chi_lifts(_trivial_psi(quotient, diagram), weyl_group(rs))
    phi = tuple(
        splitting_multiplier(quotient.parent.elements[quotient.coset_rep(c)])
        for c in range(quotient.order)
    )
    return rs, lifts, phi, quotient


def _reference_fixed_bases(rs, chi, phi):
    """The fixed spaces as they were computed before: one boxed kernel
    per coset of K (`_reference_kernel`, not the code under test),
    intersected in coset order through a matrix product."""
    quotient = chi.psi.source
    field_order = lcm(*(s.root_of_unity_order() for s in phi))

    def intersect(basis, block):
        if basis is None:
            return _reference_kernel(block)
        if not basis:
            return []
        bm = Matrix.from_columns(basis)
        return [bm.apply(c) for c in _reference_kernel(block @ bm)]

    real = complex_ = None
    for coset in range(quotient.order):
        dual = chi.dual_rows(coset)
        scalar = phi[coset].embed(lcm(field_order, phi[coset].order))
        real = intersect(real, Matrix(
            [[d - (i == j) for j, d in enumerate(row)] for i, row in enumerate(dual)]
        ))
        complex_ = intersect(complex_, Matrix(
            [[scalar * d - int(i == j) for j, d in enumerate(row)]
             for i, row in enumerate(dual)]
        ))
    return tuple(real), tuple(complex_)


def _spelled(basis):
    """Entries with their field: the reports print a Cyclotomic's order."""
    return [[repr(x) for x in vec] for vec in basis]


def _assert_reference_bases(rs, lift, phi):
    problem = build_invariant_pair_problem(rs, lift, phi)
    real, complex_ = _reference_fixed_bases(rs, lift, phi)
    assert problem.real_fixed_basis == real
    assert problem.complex_fixed_basis == complex_
    assert _spelled(problem.real_fixed_basis) == _spelled(real)
    assert _spelled(problem.complex_fixed_basis) == _spelled(complex_)


@pytest.mark.parametrize("reverse", [False, True], ids=["gens", "reversed-gens"])
@pytest.mark.parametrize(
    "name",
    ["c3_z4", "c3_z2z2", "t6_z4", "t6_z2z2", "d4_q8z2", "d4_q8z4", "z2z2/A2", "z2z2/A3"],
)
def test_generator_fixed_spaces_equal_all_coset_reference(name, reverse, monkeypatch):
    rs, lifts, phi, quotient = _lift_problems(name)
    gens = mckay._quotient_generators(quotient)
    assert len(gens) == (2 if name.startswith("z2z2/") else 1)
    if reverse:
        monkeypatch.setattr(mckay, "_quotient_generators", lambda q: gens[::-1])
    for lift in lifts:
        _assert_reference_bases(rs, lift, phi)


@pytest.mark.parametrize("name", ["d4_q8z2", "d4_q8z4"])
def test_lift_dual_rows_are_sympy_inverse_transposes(name):
    _, lifts, _, quotient = _lift_problems(name)
    assert quotient.order > 1
    for lift in lifts:
        for coset, image in enumerate(lift.images):
            expected = SympyMatrix(image.lattice_rows).inv().T
            assert SympyMatrix(lift.dual_rows(coset)) == expected


def test_trivial_quotient_fixes_the_whole_space(trivial_c3_group):
    quotient = normal_and_quotient(trivial_c3_group, {trivial_c3_group.identity_index})
    assert mckay._quotient_generators(quotient) == ()
    diagram = DynkinDiagram.make("A", 1)
    rs = build_root_system(diagram)
    psi = PsiHom(source=quotient, diagram=diagram, images=((0,),))
    (lift,) = enumerate_chi_lifts(psi, weyl_group(rs))
    phi = (Cyclotomic.zeta(4) ** 4,)
    problem = build_invariant_pair_problem(rs, lift, phi)
    assert problem.real_fixed_basis == ((Fraction(1),),)
    assert problem.complex_fixed_basis == ((Cyclotomic.from_rational(1, 4),),)
    _assert_reference_bases(rs, lift, phi)


def test_deciding_d4_q8z4_lifts_takes_one_kernel_per_field(monkeypatch):
    result = _pipeline("d4_q8z4")
    assert len(result.lifts) == 80
    calls = {"int_kernel": [], "kernel_basis": 0, "matmul": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def int_kernel(rows, order=1):
        calls["int_kernel"].append(order)
        return exact_matrix.int_kernel(rows, order)

    monkeypatch.setattr(mckay, "int_kernel", int_kernel)
    monkeypatch.setattr(
        Matrix, "kernel_basis", counting("kernel_basis", Matrix.kernel_basis)
    )
    monkeypatch.setattr(Matrix, "__matmul__", counting("matmul", Matrix.__matmul__))
    # A fresh result, so that `decisions` is not already cached.
    decisions = PipelineResult(*result).decisions
    monkeypatch.undo()
    assert len(decisions) == 80
    # K = Z4 has one generator: a kernel over Q and one over Q(zeta_4)
    # per lift, both on int rows.
    assert calls["int_kernel"] == [1, 4] * 80
    assert calls["kernel_basis"] == 0
    assert calls["matmul"] == 0


def _satisfies_genericity(alpha, beta, rs):
    for delta in rs.roots:
        a = sum(x * d for x, d in zip(alpha, delta))
        b_zero = all((x * d).is_zero() for x, d in zip(beta, delta))
        if a == 0 and b_zero:
            return False
    return True


def test_sampled_oracle_agrees_on_existence(z4_group):
    rs = build_root_system(DynkinDiagram.make("A", 1))
    result = analyze_splitting(z4_group)
    rng = random.Random(3)
    for lift, decision in zip(result.lifts, result.decisions):
        problem = build_invariant_pair_problem(rs, lift, result.phi)
        hits = 0
        for _ in range(100):
            alpha = _sample(problem.real_fixed_basis, rng)
            beta = _sample_cyc(problem.complex_fixed_basis, rng)
            if _satisfies_genericity(alpha, beta, rs):
                hits += 1
        if hits:
            assert decision.exists


def _sample(basis, rng):
    if not basis:
        return (Fraction(0),)
    out = None
    for vec in basis:
        c = Fraction(rng.randint(-5, 5))
        term = [c * x for x in vec]
        out = term if out is None else [a + b for a, b in zip(out, term)]
    return tuple(out)


def _sample_cyc(basis, rng):
    if not basis:
        return (Cyclotomic.from_rational(0),)
    out = None
    for vec in basis:
        c = Fraction(rng.randint(-5, 5))
        term = [c * x for x in vec]
        out = term if out is None else [a + b for a, b in zip(out, term)]
    return tuple(out)


# Entries over Q, Q(zeta_4) and Q(zeta_8).  zeta_8^2 = zeta_4, so one value
# can arrive in either field: the embedding to a common order must match.
_small_q = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_mixed_entry = st.one_of(
    _small_q,
    st.builds(Cyclotomic, st.just(4), st.lists(_small_q, min_size=1, max_size=2)),
    st.builds(Cyclotomic, st.just(8), st.lists(_small_q, min_size=1, max_size=4)),
)


def _other_field(x):
    """The same value written in another field: order 8 for elements of
    Q(zeta_4) and Q, a Fraction for rational order-8 elements."""
    if isinstance(x, Cyclotomic) and x.order == 8 and x.is_rational():
        return x.rational_value()
    if isinstance(x, Cyclotomic) and x.order == 8:
        return x
    return Cyclotomic.from_rational(0, 8) + x


@st.composite
def _vectors_and_form(draw):
    """Vectors with mixed entries and a small integer form; about half
    the vectors end in an entry that cancels the pairing exactly, written
    in another field than the sum it cancels."""
    n = draw(st.integers(1, 4))
    form = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    vectors = []
    for _ in range(draw(st.integers(1, 4))):
        vec = draw(st.lists(_mixed_entry, min_size=n, max_size=n))
        if draw(st.booleans()):
            vec.append(_other_field(sum(a * b for a, b in zip(vec, form))))
        else:
            vec.append(draw(_mixed_entry))
        vectors.append(vec)
    return vectors, form + [-1]


@settings(max_examples=300, deadline=None)
@given(_vectors_and_form())
def test_integer_pairing_zero_test_matches_reference(case):
    vectors, form = case
    m, d, parts = integer_coefficients(vectors)
    zeta = Cyclotomic.zeta(m)
    for vec, rows in zip(vectors, parts):
        # the coefficient rows give back the entries
        for i, x in enumerate(vec):
            value = sum(Fraction(row[i], d) * zeta**t for t, row in enumerate(rows))
            assert value == x
        reference = sum(a * b for a, b in zip(vec, form)) == 0
        assert zero_pairings([form], rows) == [reference]
    # Over a whole basis: zero exactly when zero on every vector.
    assert zero_pairings([form], [row for rows in parts for row in rows]) == [
        all(sum(a * b for a, b in zip(vec, form)) == 0 for vec in vectors)
    ]


def _reference_generic_combination(basis, forms, seed=0, attempts=1000):
    """generic_combination as it was written over boxed field elements."""

    def pair(vec, form):
        return sum(a * b for a, b in zip(vec, form))

    def combine(coeffs):
        out = None
        for c, vec in zip(coeffs, basis):
            term = [c * x for x in vec]
            out = term if out is None else [a + b for a, b in zip(out, term)]
        return tuple(out)

    relevant = [f for f in forms if any(pair(vec, f) != 0 for vec in basis)]
    rng = random.Random(seed)
    k = len(basis)
    for _ in range(attempts):
        coeffs = [
            Fraction(rng.randint(-97, 97), rng.randint(1, 97)) for _ in range(k)
        ]
        cand = combine(coeffs)
        if all(pair(cand, f) != 0 for f in relevant):
            return cand
    for t in range(1, k * len(relevant) + 2):
        cand = combine([Fraction(t) ** i for i in range(k)])
        if all(pair(cand, f) != 0 for f in relevant):
            return cand
    raise PreconditionError("no generic combination exists")


def _outcome(fn, *args, **kwargs):
    try:
        value = fn(*args, **kwargs)
    except PreconditionError:
        return "no generic combination"
    return value


def _int_generic_combination(basis, forms, seed=0, attempts=1000):
    """generic_combination on the integer coefficient rows of the basis,
    its answer read back as Cyclotomics of the basis field."""
    m, d, parts = integer_coefficients(basis)
    den, rows = generic_combination((d, parts), forms, seed=seed, attempts=attempts)
    assert len(rows) == len(parts[0])
    return tuple(
        sum(Fraction(x, den) * Cyclotomic.zeta(m) ** t for t, x in enumerate(entry))
        for entry in zip(*rows)
    )


@settings(max_examples=200, deadline=None)
@given(
    _vectors_and_form(),
    st.lists(
        st.lists(st.integers(-2, 2), min_size=5, max_size=5), min_size=1, max_size=6
    ),
    st.integers(0, 5),
    st.sampled_from([0, 1, 1000]),
)
def test_generic_combination_matches_boxed_reference(case, raw_forms, seed, attempts):
    basis, _ = case
    n = len(basis[0])
    if seed % 2:
        # Unit vectors: forms like (1, -1) vanish on the plain sum, so the
        # power-basis fallback has to go past t = 1.
        basis = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    forms = [tuple(f[:n]) for f in raw_forms]
    assert _outcome(
        _int_generic_combination, basis, forms, seed=seed, attempts=attempts
    ) == _outcome(_reference_generic_combination, basis, forms, seed, attempts)


def test_generic_combination_refuses_non_integer_forms():
    basis = 1, (((1, 0),),)
    for form in ((Fraction(1), 0), (Cyclotomic.zeta(4), 0), (0.5, 1)):
        with pytest.raises(PreconditionError, match="integer forms"):
            generic_combination(basis, [form])
    with pytest.raises(PreconditionError, match="nonempty basis"):
        generic_combination((1, ()), [(1, 0)])
    # (0, 1) vanishes on the whole span, so only (1, 0) constrains.
    d, ((x, y),) = generic_combination(basis, [(1, 0), (0, 1)])
    assert d > 0 and x != 0 and y == 0


def test_witnesses_reverify_exactly(z4_group):
    # verification happens inside invariant_pair_decide; run with several
    # seeds to exercise distinct witnesses
    for seed in (0, 1, 7):
        result = analyze_splitting(z4_group, seed=seed)
        for decision in result.decisions:
            assert decision.exists


# --- second stage and residual ----------------------------------------------


def _i():
    return Cyclotomic.zeta(4)


def test_second_stage_case_a_curve():
    model = ASeriesModel(
        n=2,
        side="resolution",
        line_multiplier=Cyclotomic.from_rational(-1),
        p=_i(),
        q=_i(),
        k_order=2,
    )
    report = second_stage_classify(model)
    assert report.outcome == "codimension-two"
    curves = [p for p in report.pieces if p.dimension == 1]
    assert len(curves) == 1 and curves[0].count == 1


def test_second_stage_case_b_free():
    model = ASeriesModel(
        n=2,
        side="deformation",
        line_multiplier=Cyclotomic.from_rational(-1),
        p=_i(),
        q=_i(),
        k_order=2,
    )
    report = second_stage_classify(model)
    assert report.outcome == "free"
    assert report.pieces == ()


def test_second_stage_trivial_action_degenerate():
    one = Cyclotomic.from_rational(1)
    model = ASeriesModel(
        n=2, side="deformation", line_multiplier=one, p=one, q=one, k_order=1
    )
    report = second_stage_classify(model)
    assert report.outcome == "degenerate"


def test_residual_group_strictly_smaller():
    model = ASeriesModel(
        n=2,
        side="resolution",
        line_multiplier=Cyclotomic.from_rational(-1),
        p=_i(),
        q=_i(),
        k_order=2,
    )
    report = second_stage_classify(model)
    residuals = iterate_residual(model, report, parent_order=4)
    assert len(residuals) == 1
    assert residuals[0].group_order == 2 < 4


def test_residual_empty_for_free_action():
    model = ASeriesModel(
        n=2,
        side="deformation",
        line_multiplier=Cyclotomic.from_rational(-1),
        p=_i(),
        q=_i(),
        k_order=2,
    )
    report = second_stage_classify(model)
    assert iterate_residual(model, report, parent_order=4) == []


def test_residual_empty_for_trivial_quotient():
    one = Cyclotomic.from_rational(1)
    model = ASeriesModel(
        n=2, side="deformation", line_multiplier=one, p=one, q=one, k_order=1
    )
    report = second_stage_classify(model)
    assert iterate_residual(model, report, parent_order=2) == []


def test_second_stage_rejects_bad_deformation_action():
    one = Cyclotomic.from_rational(1)
    model = ASeriesModel(
        n=2,
        side="deformation",
        line_multiplier=one,
        p=_i(),
        q=one,  # p*q not an n-th root of unity on x y = z^2 + c
        k_order=4,
    )
    with pytest.raises(PreconditionError):
        second_stage_classify(model)


def test_z2z2_pipeline_matches_z4_shape(z2z2_group):
    result = analyze_splitting(z2z2_group)
    assert result.classification.diagram.name == "A1"
    assert result.quotient.order == 2
    assert len(result.lifts) == 2
    assert result.decisions[0].exists and result.decisions[1].exists
    assert result.phi[result.quotient.identity_coset] == 1
    other = 1 - result.quotient.identity_coset
    assert result.phi[other] == -1
