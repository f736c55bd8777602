"""Euler characteristics, quotient Betti numbers, the ledger, node checks."""

import itertools
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix as SympyMatrix
from sympy import QQ, symbols
from sympy.polys.matrices import DomainMatrix
from sympy.solvers.simplex import InfeasibleLPError, lpmin

from orbitop.cli import load_scenario
from orbitop.errors import PreconditionError
from orbitop.exact import Matrix
from orbitop.group import Motion, close, conjugacy_classes
from orbitop.invariants import (
    BettiVector,
    ContributionTable,
    NodeConfiguration,
    exterior_power_matrix,
    ledger_apply,
    node_kahler,
    node_smoothable,
    orbifold_euler,
    plan_from_choices,
    quotient_betti,
)
from orbitop.invariants import euler
from orbitop.torus import (
    TorusLattice,
    common_fixed_set,
    lattice_matrices,
    singular_set,
)

Z4_TABLE = ContributionTable(
    name="t6_z4",
    entries={
        ("T2", "crepant"): (1, 1),
        ("T2/Z2", "a"): (5, 0),
        ("T2/Z2", "b"): (0, 1),
    },
)

Z2Z2_TABLE = ContributionTable(
    name="t6_z2z2",
    entries={
        ("T2/Z2", "crepant"): (1, 0),
        ("T2/Z2", "deformation"): (0, 1),
        ("point3", "i"): (0, 0),
        ("point3", "ix"): (0, 1),
    },
)


# --- Orbifold Euler characteristic -----------------------------------------


def test_euler_z4_torus(z4_group, gaussian_lattice):
    assert orbifold_euler(z4_group, gaussian_lattice).value == 48


def test_euler_trivial_torus(trivial_c3_group, gaussian_lattice):
    assert orbifold_euler(trivial_c3_group, gaussian_lattice).value == 0


def test_euler_z2z2_torus_matches_hodge_difference(z2z2_group, gaussian_lattice):
    # cross-check against twice the difference of the crepant Hodge pair
    assert orbifold_euler(z2z2_group, gaussian_lattice).value == 96 == 2 * (51 - 3)


def test_euler_linear_order8(order8_group):
    report = orbifold_euler(order8_group)
    # oracle: count commuting pairs directly from the table
    pairs = sum(
        1
        for g in range(8)
        for h in range(8)
        if order8_group.mul(g, h) == order8_group.mul(h, g)
    )
    assert pairs == 40
    assert report.commuting_pairs == 40
    assert report.value == 5
    assert report.class_count == 5
    assert report.nonidentity_class_count == 4


def test_euler_linear_equals_class_count(z4_group, z2z2_group, order8_group):
    for group in (z4_group, z2z2_group, order8_group):
        report = orbifold_euler(group)
        assert report.value == len(conjugacy_classes(group))


def _isolated_common_fixed_points(g, h):
    """Points of (1/2)Z^6 / Z^6 fixed by both motions, or 0 when their
    common fixed space has positive dimension.  The bundled torus groups
    are diagonal over C with entries 1, -1, i, -i, and each nonzero
    lambda - 1 divides 2 in Z[i], so isolated common fixed points lie on
    this grid."""
    stacked = Matrix(
        [
            [Fraction(x, m.den) - (i == j) for j, x in enumerate(row)]
            for m in (g, h)
            for i, row in enumerate(m.rows)
        ]
    )
    if stacked.kernel_basis():
        return 0
    return sum(
        1
        for p in itertools.product((0, Fraction(1, 2)), repeat=6)
        if all(x.denominator == 1 for x in stacked.apply(p))
    )


def test_euler_presum_divisible(z4_group, z2z2_group, gaussian_lattice):
    # orbifold_euler divides the commuting-pair sum of chi(common fixed
    # set) by |G|; recount that sum on the half-lattice grid, without the
    # torus code, and check that it is exactly value * |G|
    for group in (z4_group, z2z2_group):
        report = orbifold_euler(group, gaussian_lattice)
        presum = sum(
            _isolated_common_fixed_points(group.elements[g], group.elements[h])
            for g in range(group.order)
            for h in range(group.order)
            if group.mul(g, h) == group.mul(h, g)
        )
        assert presum == report.value * group.order
        linear = orbifold_euler(group)
        assert linear.value * group.order == linear.commuting_pairs


def _per_pair_euler(group, lattice):
    """The torus Euler sum as first written: one common_fixed_set solve
    per ordered commuting pair."""
    total = pairs = 0
    for g in range(group.order):
        for h in range(group.order):
            if group.mul(g, h) != group.mul(h, g):
                continue
            pairs += 1
            fam = common_fixed_set([group.elements[g], group.elements[h]], lattice)
            total += fam.euler_characteristic()
    return total // group.order, pairs


def _counting_common_fixed_set(monkeypatch):
    calls = []

    def counting(motions, lattice):
        calls.append(motions)
        return common_fixed_set(motions, lattice)

    monkeypatch.setattr(euler, "common_fixed_set", counting)
    return calls


@pytest.mark.parametrize(
    "name,seed,solves",
    [("z4", None, 3), ("z2z2", None, 5), ("z4z4", 1, 15), ("z4z4", 2, 15),
     ("z4z4", 3, 15)],
)
def test_euler_solves_once_per_subgroup(name, seed, solves, request, monkeypatch):
    """T^g & T^h = T^<g,h>: one solve per subgroup generated by a commuting
    pair (3, 5 and 15 of them), the same value as one solve per pair."""
    group = request.getfixturevalue(f"{name}_group")
    if seed is None:
        lattice = TorusLattice.standard(6)
    else:
        lattice = request.getfixturevalue("shear_lattice")(seed)
    value, pairs = _per_pair_euler(group, lattice)
    calls = _counting_common_fixed_set(monkeypatch)
    report = orbifold_euler(group, lattice)
    assert (report.value, report.commuting_pairs) == (value, pairs)
    assert len(calls) == solves


@pytest.mark.parametrize(
    "ref,pairs,classes",
    [("t6_z4", 16, 4), ("t6_z4z4.scn", 256, 16), ("mono48.scn", 480, 10),
     ("e6_bt.scn", 2688, 28)],
)
def test_commuting_pairs_number_order_times_classes(ref, pairs, classes):
    """Burnside's identity, which `orbifold_euler` re-checks on every call."""
    scenario = load_scenario(
        str(Path(__file__).resolve().parents[1] / "perfbench/scenarios" / ref)
        if ref.endswith(".scn") else ref
    )
    group = close(scenario.motions())
    lattice = scenario.lattice() if scenario.ambient == "torus" else None
    report = orbifold_euler(group, lattice)
    assert (report.commuting_pairs, report.class_count) == (pairs, classes)
    assert pairs == group.order * classes


def _dense_lattice(seed):
    """Unit lower times unit upper triangular, entries in {-1, 0, 1}."""
    rng = random.Random(seed)
    lower = [
        [int(i == j) or (rng.choice((-1, 0, 1)) if i > j else 0) for j in range(6)]
        for i in range(6)
    ]
    upper = [
        [int(i == j) or (rng.choice((-1, 0, 1)) if i < j else 0) for j in range(6)]
        for i in range(6)
    ]
    return TorusLattice(basis=Matrix(lower) @ Matrix(upper))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_euler_on_dense_bases(seed, z4z4_group):
    """With one solve per pair, two of these bases did not finish within
    120 s: the Smith forms of the stacked pair congruences grow on dense
    bases.  The 15 per-subgroup solves finish in well under a second; that
    comes from fewer solves, and the growth itself is not fixed."""
    assert orbifold_euler(z4z4_group, _dense_lattice(seed)).value == 180


# --- Quotient Betti numbers -------------------------------------------------


def test_betti_z4(z4_group, gaussian_lattice):
    bv = quotient_betti(z4_group, gaussian_lattice)
    assert bv.b == (1, 0, 5, 4, 5, 0, 1)
    assert bv.h11 == 5 and bv.h21 == 1


def test_betti_trivial(trivial_c3_group, gaussian_lattice):
    bv = quotient_betti(trivial_c3_group, gaussian_lattice)
    assert bv.b == tuple(comb(6, k) for k in range(7))


def invariant_form_count_oracle(signs_list, k):
    """For commuting diagonal +-1 actions: count k-index subsets whose
    sign product is +1 for every group element."""
    count = 0
    for subset in itertools.combinations(range(6), k):
        if all(
            all(signs[i] == 1 for i in subset) or _product(signs, subset) == 1
            for signs in signs_list
        ):
            count += 1
    return count


def _product(signs, subset):
    out = 1
    for i in subset:
        out *= signs[i]
    return out


def test_betti_z2z2_against_monomial_oracle(z2z2_group, gaussian_lattice):
    bv = quotient_betti(z2z2_group, gaussian_lattice)
    assert bv.b == (1, 0, 3, 8, 3, 0, 1)
    # Diagonal sign actions on the six real coordinates: count invariant
    # coordinate forms directly.
    signs_list = [
        (1, 1, -1, -1, -1, -1),
        (-1, -1, 1, 1, -1, -1),
        (-1, -1, -1, -1, 1, 1),
    ]
    for k in (2, 3):
        assert bv.b[k] == invariant_form_count_oracle(signs_list, k)


def test_betti_poincare_symmetry(z4_group, z2z2_group, gaussian_lattice):
    for group in (z4_group, z2z2_group):
        bv = quotient_betti(group, gaussian_lattice)
        assert bv.b == tuple(reversed(bv.b))
        assert bv.euler_characteristic == sum(
            (-1) ** k * x for k, x in enumerate(bv.b)
        )


STRESS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"
BETTI_CASES = {
    "t6_z4": (1, 0, 5, 4, 5, 0, 1),
    "t6_z2z2": (1, 0, 3, 8, 3, 0, 1),
    "t6_z4z4": (1, 0, 3, 2, 3, 0, 1),
}


def _scenario_group(name):
    """A bundled scenario, or a stress scenario of the benchmark."""
    path = STRESS / f"{name}.scn"
    scenario = load_scenario(str(path) if path.exists() else name)
    return close(scenario.motions()), scenario.lattice()


def character_betti_oracle(group, lattice):
    """b^k = (1/|G|) sum_g e_k(g), e_k(g) the coefficient of t^k in
    det(I + t g) = trace of Lambda^k g, from sympy's characteristic
    polynomial det(x I - g) = sum_k (-1)^k e_k(g) x^(d-k)."""
    mats = lattice_matrices(group, lattice)
    sums = [0] * (lattice.rank + 1)
    for m in mats:
        coeffs = SympyMatrix(m).charpoly(symbols("x")).all_coeffs()
        for k, a in enumerate(coeffs):
            sums[k] += (-1) ** k * int(a)
    assert all(s % group.order == 0 for s in sums)
    return tuple(s // group.order for s in sums)


def _rank_betti_oracle(group, lattice):
    """b^k as the nullity of Lambda^k g - I stacked over every g: the
    invariant k-forms, each exterior power built from k x k minors by
    `exterior_power_matrix`, the nullity found by sympy over Q."""
    mats = lattice_matrices(group, lattice)
    out = [1]
    for k in range(1, lattice.rank + 1):
        rows = [
            [QQ(x - (i == j)) for j, x in enumerate(row)]
            for m in mats
            for i, row in enumerate(exterior_power_matrix(Matrix(m), k).data)
        ]
        width = comb(lattice.rank, k)
        out.append(width - DomainMatrix(rows, (len(rows), width), QQ).rank())
    return tuple(out)


@pytest.mark.parametrize("name", sorted(BETTI_CASES))
def test_betti_matches_character_oracle(name):
    group, lattice = _scenario_group(name)
    bv = quotient_betti(group, lattice)
    assert bv.b == BETTI_CASES[name] == character_betti_oracle(group, lattice)
    assert bv.b == _rank_betti_oracle(group, lattice)
    assert bv.b == tuple(reversed(bv.b))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_betti_on_dense_bases_matches_both_oracles(seed, z4z4_group):
    lattice = _dense_lattice(seed)
    bv = quotient_betti(z4z4_group, lattice)
    assert bv.b == BETTI_CASES["t6_z4z4"] == character_betti_oracle(z4z4_group, lattice)
    assert bv.b == _rank_betti_oracle(z4z4_group, lattice)


@st.composite
def _shear_basis(draw):
    """A unimodular basis of Z^6: row shears of the identity, then a row
    permutation and sign flips."""
    rows = [[int(i == j) for j in range(6)] for i in range(6)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.lists(st.integers(0, 5), min_size=2, max_size=2, unique=True))
        q = draw(st.sampled_from((-2, -1, 1, 2)))
        rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    rows = draw(st.permutations(rows))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=6, max_size=6))
    return [[s * x for x in row] for s, row in zip(signs, rows)]


def test_betti_of_orientation_reversing_groups_matches_rank_oracle():
    """T/G is not orientable here: b^top = 0 and Poincare duality fails,
    which the Molien re-check must not mistake for a fault."""
    conj = Motion.from_complex(
        [[(1, 0), (0, 0), (0, 0)], [(0, 0), (1, 0), (0, 0)], [(0, 0), (0, 0), (1, 0)]],
        conjugate=True,
    )
    z4 = Motion.from_complex(
        [[(0, 1), (0, 0), (0, 0)], [(0, 0), (0, 1), (0, 0)], [(0, 0), (0, 0), (-1, 0)]]
    )
    cases = [
        (close([Motion.from_rational([[1, 0], [0, -1]])]), 2, (1, 1, 0)),
        (close([conj, z4]), 6, (1, 0, 1, 2, 4, 0, 0)),
    ]
    for group, rank, expected in cases:
        lattice = TorusLattice.standard(rank)
        assert quotient_betti(group, lattice).b == expected
        assert _rank_betti_oracle(group, lattice) == expected


@settings(max_examples=15, deadline=None)
@given(basis=_shear_basis(), name=st.sampled_from(sorted(BETTI_CASES)))
def test_betti_independent_of_lattice_basis(basis, name):
    group, _ = _scenario_group(name)
    lattice = TorusLattice(basis=Matrix(basis))
    bv = quotient_betti(group, lattice)
    assert bv.b == BETTI_CASES[name] == character_betti_oracle(group, lattice)


# --- Ledger ------------------------------------------------------------------


def test_ledger_z4_family(z4_group, gaussian_lattice):
    report = singular_set(z4_group, gaussian_lattice)
    base = quotient_betti(z4_group, gaussian_lattice)
    quotient_ids = [
        i for i, c in enumerate(report.components) if c.quotient_label == "T2/Z2"
    ]
    for k in range(5):
        choices = {}
        for i, c in enumerate(report.components):
            if c.quotient_label == "T2":
                choices[i] = "crepant"
        for pos, i in enumerate(quotient_ids):
            choices[i] = "a" if pos < k else "b"
        plan = plan_from_choices(report, choices)
        result = ledger_apply(base, plan, Z4_TABLE)
        assert result.b[2] == 11 + 5 * k
        assert result.b[3] == 24 - 2 * k
        assert result.euler_characteristic == 12 * k


def test_ledger_z2z2_extremes(z2z2_group, gaussian_lattice):
    report = singular_set(z2z2_group, gaussian_lattice)
    base = quotient_betti(z2z2_group, gaussian_lattice)
    signs = {"crepant": 1, "deformation": -1}
    crepant = plan_from_choices(
        report,
        {i: "crepant" for i in range(len(report.components))},
        {i: "i" for i in range(len(report.intersection_points))},
        signs,
    )
    res = ledger_apply(base, crepant, Z2Z2_TABLE)
    assert (res.h11, res.h21) == (51, 3)
    deform = plan_from_choices(
        report,
        {i: "deformation" for i in range(len(report.components))},
        {i: "ix" for i in range(len(report.intersection_points))},
        signs,
    )
    res = ledger_apply(base, deform, Z2Z2_TABLE)
    assert (res.h11, res.h21) == (3, 115)


def test_ledger_additive_over_subplans(z4_group, gaussian_lattice):
    report = singular_set(z4_group, gaussian_lattice)
    base = quotient_betti(z4_group, gaussian_lattice)
    full = {}
    for i, c in enumerate(report.components):
        full[i] = "crepant" if c.quotient_label == "T2" else "a"
    plan = plan_from_choices(report, full)
    once = ledger_apply(base, plan, Z4_TABLE)
    # split: apply the lines first, then the quotient components
    from orbitop.invariants import DesingPlan

    lines = [i for i, c in enumerate(report.components) if c.quotient_label == "T2"]
    quot = [i for i in full if i not in lines]
    sub1 = DesingPlan(
        component_choices=tuple((i, full[i]) for i in lines),
        component_kinds=plan.component_kinds,
    )
    sub2 = DesingPlan(
        component_choices=tuple((i, full[i]) for i in quot),
        component_kinds=plan.component_kinds,
    )
    twice = ledger_apply(ledger_apply(base, sub1, Z4_TABLE), sub2, Z4_TABLE)
    assert once.b == twice.b


def test_ledger_missing_key_names_it(z4_group, gaussian_lattice):
    report = singular_set(z4_group, gaussian_lattice)
    base = quotient_betti(z4_group, gaussian_lattice)
    choices = {i: "crepant" for i in range(len(report.components))}
    plan = plan_from_choices(report, choices)
    with pytest.raises(PreconditionError, match="T2/Z2"):
        ledger_apply(base, plan, Z4_TABLE)


def test_plan_rejects_incompatible_point_case(z2z2_group, gaussian_lattice):
    report = singular_set(z2z2_group, gaussian_lattice)
    signs = {"crepant": 1, "deformation": -1}
    with pytest.raises(PreconditionError):
        plan_from_choices(
            report,
            {i: "crepant" for i in range(len(report.components))},
            {i: "ix" for i in range(len(report.intersection_points))},
            signs,
        )


# --- Node configurations ------------------------------------------------------


def test_single_class_not_smoothable_but_kahler():
    cfg = NodeConfiguration.make([[1, 0]])
    assert not node_smoothable(cfg).smoothable
    assert node_kahler(cfg).positive


def test_opposite_pair_smoothable_not_kahler():
    cfg = NodeConfiguration.make([[1, 0], [-1, 0]])
    result = node_smoothable(cfg)
    assert result.smoothable
    lam = result.witness
    assert lam[0] == lam[1] != 0
    assert not node_kahler(cfg).positive


def test_triangle_relation():
    cfg = NodeConfiguration.make([[1, 0, 0], [0, 1, 0], [-1, -1, 0]])
    result = node_smoothable(cfg)
    assert result.smoothable
    a, b, c = result.witness
    assert a == b == c != 0


def test_independent_pair_kahler_not_smoothable():
    cfg = NodeConfiguration.make([[1, 0], [0, 1]])
    assert node_kahler(cfg).positive
    assert not node_smoothable(cfg).smoothable


def test_randomized_node_consistency():
    rng = random.Random(2718)
    for _ in range(40):
        dim = rng.randint(1, 4)
        k = rng.randint(1, 5)
        classes = [
            [Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(k)
        ]
        if any(all(x == 0 for x in c) for c in classes):
            continue
        cfg = NodeConfiguration.make(classes)
        sm = node_smoothable(cfg)
        if sm.smoothable:
            lam = sm.witness
            assert all(x != 0 for x in lam)
            combo = [
                sum(lam[j] * classes[j][i] for j in range(k)) for i in range(dim)
            ]
            assert all(x == 0 for x in combo)
        feasible = node_kahler(cfg).positive
        # one-sided randomized oracle: any sampled positive functional
        # forces feasible = True
        for _ in range(60):
            y = [Fraction(rng.randint(-6, 6)) for _ in range(dim)]
            if all(
                sum(a * b for a, b in zip(y, c)) > 0 for c in classes
            ):
                assert feasible
                break


NODES_D4 = [
    [2, 0, 2, -2], [2, -1, 0, -2], [1, 1, -1, -2], [1, -2, 2, -1], [-2, -2, -1, 2],
    [2, 1, 0, 2], [-2, 1, -2, -1], [2, 0, 1, 2], [-2, 0, 2, -2], [2, 1, 0, -1],
]


def test_nodes_d4_is_not_kahler_positive():
    result = node_kahler(NodeConfiguration.make(NODES_D4))
    assert not result.positive
    assert_kahler_certificate(NODES_D4, result)


def test_twenty_classes_are_not_kahler_positive_with_verified_relation():
    rng = random.Random(20)
    classes = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(20)]
    result = node_kahler(NodeConfiguration.make(classes))
    assert not result.positive
    assert len(result.certificate) == 20
    assert_kahler_certificate(classes, result)


def assert_kahler_certificate(classes, result):
    """The certificate satisfies its defining conditions, in Fractions."""
    classes = [[Fraction(x) for x in c] for c in classes]
    cert = result.certificate
    if result.positive:
        assert len(cert) == len(classes[0])
        assert all(sum(a * b for a, b in zip(cert, c)) >= 1 for c in classes)
    else:
        assert len(cert) == len(classes)
        assert all(x >= 0 for x in cert) and sum(cert) == 1
        assert all(
            sum(lam * c[i] for lam, c in zip(cert, classes)) == 0
            for i in range(len(classes[0]))
        )


def fourier_motzkin_feasible(classes) -> bool:
    """Reference oracle: Fourier-Motzkin elimination of y from the rows
    y . c >= 1, without redundancy removal."""
    rows = [[Fraction(x) for x in c] + [Fraction(1)] for c in classes]
    for _ in range(len(classes[0])):
        lowers, uppers, keep = [], [], []
        for row in rows:
            c, rest = row[0], row[1:]
            if c > 0:
                lowers.append([x / c for x in rest])
            elif c < 0:
                uppers.append([x / c for x in rest])
            else:
                keep.append(rest)
        # A row (a, b) means a . y >= b.  Divided by its leading
        # coefficient, a lower row gives y_0 >= lo_b - lo_a . y' and an
        # upper row y_0 <= up_b - up_a . y', so each pair leaves lo - up.
        rows = keep + [[l - u for l, u in zip(lo, up)] for lo in lowers for up in uppers]
        if not rows:
            return True
    return all(row[-1] <= 0 for row in rows)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(-3, 3), min_size=d, max_size=d),
            min_size=1,
            max_size=8,
        )
    )
)
def test_kahler_decision_matches_fourier_motzkin(classes):
    result = node_kahler(NodeConfiguration.make(classes))
    assert result.positive == fourier_motzkin_feasible(classes)
    assert_kahler_certificate(classes, result)


def _hidden_functional_classes(seed):
    """20-40 classes in dimension 3-5.  Odd seeds keep y . c >= 0 for a
    hidden integer y, so both answers occur; even seeds draw freely."""
    rng = random.Random(seed)
    d, k = rng.randint(3, 5), rng.randint(20, 40)
    y = [rng.randint(-2, 2) for _ in range(d)]
    classes = []
    while len(classes) < k:
        c = [rng.randint(-3, 3) for _ in range(d)]
        if seed % 2 and sum(a * b for a, b in zip(y, c)) < 0:
            c = [-x for x in c]
        classes.append(c)
    return classes


def _sympy_feasible(classes):
    """Whether {y : y . c >= 1 for every class} is nonempty, by sympy's
    exact simplex, or None where sympy reports that its phase 1
    oscillated.  y = p - q with p, q >= 0: sympy orders free variables by
    string hash, and under some PYTHONHASHSEED values its phase 1 then
    cycles forever on these inputs; nonnegative variables keep its
    columns in name order."""
    d = len(classes[0])
    p, q = symbols(f"p0:{d}"), symbols(f"q0:{d}")
    pairings = [sum((a - b) * x for a, b, x in zip(p, q, c)) for c in classes]
    constraints = [v >= 0 for v in p + q] + [f >= 1 for f in pairings]
    try:
        _, point = lpmin(sum(p + q), constraints)
    except InfeasibleLPError as exc:
        if "Oscillating" in str(exc):
            return None
        return False
    assert all(f.subs(point) >= 1 for f in pairings)
    return True


@pytest.mark.parametrize("seed", range(12))
def test_kahler_decision_matches_sympy_simplex(seed):
    classes = _hidden_functional_classes(seed)
    result = node_kahler(NodeConfiguration.make(classes))
    assert_kahler_certificate(classes, result)
    # sympy 1.14 gives up on seed 9, a positive configuration; the
    # certificate check above still decides it.
    expected = _sympy_feasible(classes)
    if expected is not None:
        assert result.positive == expected


def test_sympy_oracle_rejects_the_known_non_positive_configurations():
    rng = random.Random(20)
    twenty = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(20)]
    assert _sympy_feasible(twenty) is False
    assert _sympy_feasible(NODES_D4) is False


def test_betti_vector_h_fields():
    bv = BettiVector(b=(1, 0, 5, 4, 5, 0, 1))
    assert bv.h11 == 5 and bv.h21 == 1
    with pytest.raises(PreconditionError):
        BettiVector(b=(1, 0, 5, 3, 5, 0, 1)).h21
