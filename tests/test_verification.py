"""Exact re-verifications raise VerificationError, also under python -O."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import orbitop
import orbitop.cli
from orbitop.cli import load_scenario, main
from orbitop import ade
from orbitop.ade import ExtendedElement, build_root_system
from orbitop.errors import PreconditionError, VerificationError
from orbitop.exact import Cyclotomic, int_kernel, int_product, integer_coefficients, snf
from orbitop.exact import matrix as exact_matrix
from orbitop.exact.snf import SmithDecomposition, _verify
from orbitop.group import (
    FiniteMatrixGroup,
    _sample_triples,
    _spot_check_associativity,
    _verify_table_sample,
    close,
    normal_and_quotient,
)
from orbitop.invariants import (
    NodeConfiguration,
    betti,
    chi,
    node_kahler,
    node_smoothable,
    nodes,
    quotient_betti,
)
from orbitop.invariants import euler
from orbitop import mckay
from orbitop.mckay import _verify_pair, analyze_splitting, build_invariant_pair_problem
from orbitop import torus
from orbitop.torus import common_fixed_set, fixed_set


STRESS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"


def corrupted(group, a, b, value):
    """A copy of group whose table says a * b = value."""
    table = [list(row) for row in group.table]
    table[a][b] = value
    return FiniteMatrixGroup(
        elements=group.elements,
        table=tuple(map(tuple, table)),
        identity_index=group.identity_index,
        inverse=group.inverse,
    )


def z4_with_bad_entry(z4_group):
    # Elements are kappa^0..kappa^3 in closure order; claim kappa^2 * kappa^3
    # = kappa^2 instead of kappa.  The subgroup {1, kappa^2} still passes
    # the closure and normality checks, which never read this entry.
    assert [z4_group.mul(1, k) for k in range(4)] == [1, 2, 3, 0]
    return corrupted(z4_group, 2, 3, 2)


def test_table_sample_catches_wrong_entry(z4_group):
    _verify_table_sample(z4_group)
    with pytest.raises(VerificationError, match=r"\(2, 3\)"):
        _verify_table_sample(z4_with_bad_entry(z4_group))


def test_associativity_check_catches_corrupted_table(z4_group):
    _spot_check_associativity(z4_group)
    with pytest.raises(VerificationError, match="associative"):
        _spot_check_associativity(z4_with_bad_entry(z4_group))


def test_quotient_projection_check_catches_corrupted_table(z4_group):
    assert normal_and_quotient(z4_group, [0, 2]).order == 2
    with pytest.raises(VerificationError, match="homomorphism"):
        normal_and_quotient(z4_with_bad_entry(z4_group), [0, 2])


def test_snf_verification_catches_bad_transform():
    m = ((2, 4), (6, 8))
    good = snf(m)
    _verify(m, good)
    bad_u = int_product(((1, 1), (0, 1)), good.U)
    with pytest.raises(VerificationError, match="transform"):
        _verify(m, SmithDecomposition(bad_u, good.D, good.V, good.invariant_factors))


def test_snf_verification_catches_non_integral_transform():
    m = ((2, 4), (6, 8))
    good = snf(m)
    half_u = tuple(tuple(Fraction(x, 2) for x in row) for row in good.U)
    with pytest.raises(VerificationError, match="transform"):
        _verify(m, SmithDecomposition(half_u, good.D, good.V, good.invariant_factors))
    # Here U M V == D holds exactly; only integrality rules U out.
    half = ((Fraction(1, 2),),)
    with pytest.raises(VerificationError, match="transform"):
        _verify(((2,),), SmithDecomposition(half, ((1,),), ((1,),), (1,)))


def test_snf_verification_catches_broken_divisibility_chain():
    m = ((2, 0), (0, 3))
    ident = ((1, 0), (0, 1))
    with pytest.raises(VerificationError, match="divisibility"):
        _verify(m, SmithDecomposition(ident, m, ident, (2, 3)))


def _int_rows(vector, order):
    """(d, rows): a vector over Q(zeta_order) in integer_coefficients form."""
    zero = Cyclotomic.from_rational(0, order)
    m, d, (rows,) = integer_coefficients([[x + zero for x in vector]])
    assert m == order
    return d, rows


def test_pair_check_catches_corrupted_witness(z4_group):
    # Over A1 the canonical lift fixes the root and the other lift negates
    # it; the Z4 generator multiplies the distinguished line by -1.
    result = analyze_splitting(z4_group)
    rs = build_root_system(result.classification.diagram)
    canonical, flip = (
        build_invariant_pair_problem(rs, lift, result.phi) for lift in result.lifts
    )
    m = canonical.field_order
    label = result.decisions[0].label
    alpha, beta = _int_rows(label.alpha, 1), _int_rows(label.beta, m)
    _verify_pair(canonical, alpha, beta)
    zero, one = (1, ((0,),)), _int_rows((1,), m)
    with pytest.raises(VerificationError, match="alpha"):
        _verify_pair(flip, (1, ((1,),)), _int_rows((0,), m))
    with pytest.raises(VerificationError, match="beta"):
        _verify_pair(canonical, alpha, one)
    with pytest.raises(VerificationError, match="genericity"):
        _verify_pair(canonical, zero, _int_rows((0,), m))
    with pytest.raises(PreconditionError, match="Q\\(zeta_m\\)"):
        _verify_pair(canonical, alpha, (1, ((0,),)))


def test_pair_check_twists_beta_by_a_fourth_root_of_unity():
    """On d4_q8z4 phi takes the values +-i: the check multiplies beta by
    zeta_4^s on its int rows, which moves coefficients between the rows.
    A fixed beta that is not real passes; its complex conjugate, fixed
    under the conjugate twist instead, does not."""
    scenario = load_scenario(str(STRESS / "d4_q8z4.scn"))
    group = close(scenario.motions())
    result = analyze_splitting(group, axis=scenario.splitting_axis - 1)
    assert sorted(map(str, result.phi)) == ["Cyc(-1)", "Cyc(-1*z4)", "Cyc(1)", "Cyc(1*z4)"]
    checked = 0
    for lift, decision in zip(result.lifts, result.decisions):
        if not decision.exists or all(x.coeffs[1] == 0 for x in decision.label.beta):
            continue
        problem = build_invariant_pair_problem(result.root_system, lift, result.phi)
        alpha = _int_rows(decision.label.alpha, 1)
        d, (re, im) = _int_rows(decision.label.beta, 4)
        _verify_pair(problem, alpha, (d, (re, im)))
        with pytest.raises(VerificationError, match="beta"):
            _verify_pair(problem, alpha, (d, (re, tuple(-x for x in im))))
        checked += 1
    assert checked


KERNEL_CASES = [
    ([((1, 2, 3),), ((2, 3, 4),)], 1),
    ([((1, 0, 1), (0, 1, 1)), ((0, 1, 0), (1, 0, 0))], 4),
]


def _off_by_one(clear):
    """An elimination step that adds 1 to the last entry of each row it
    changes."""

    def step(row, *args):
        out = clear(row, *args)
        if out is None or out is row:
            return out
        out = [list(plane) for plane in out]
        out[0][-1] += 1
        return out

    return step


def test_kernel_check_catches_a_corrupted_vector(monkeypatch):
    """A wrong elimination step leaves kernel vectors that are not in
    the kernel; only the re-check A v = 0 on ints can see it."""
    for rows, order in KERNEL_CASES:
        assert int_kernel(rows, order)[1]
    cfg = NodeConfiguration.make([[1, 2], [2, 3], [3, 4]])
    assert node_smoothable(cfg).smoothable
    monkeypatch.setattr(exact_matrix, "_clear", _off_by_one(exact_matrix._clear))
    for rows, order in KERNEL_CASES:
        with pytest.raises(VerificationError, match="not annihilated"):
            int_kernel(rows, order)
    with pytest.raises(VerificationError, match="not annihilated"):
        node_smoothable(cfg)


def _wrong_inverse_image(lift):
    """lift with the image of its first generator's inverse coset times a
    simple reflection, so that it no longer inverts the generator's image."""
    quotient = lift.psi.source
    gen = mckay._quotient_generators(quotient)[0]
    inverse = quotient.table[gen].index(quotient.identity_coset)
    rs = build_root_system(lift.psi.diagram)
    reflection = ExtendedElement(tuple(range(rs.rank)), ade.simple_reflections(rs)[0])
    images = list(lift.images)
    images[inverse] = images[inverse] * reflection
    return lift._replace(images=tuple(images))


def test_dual_check_catches_a_wrong_inverse_image():
    # K = Z4 here, so a generator's inverse coset is another coset.
    scenario = load_scenario(str(STRESS / "d4_q8z4.scn"))
    result = analyze_splitting(close(scenario.motions()))
    for lift in result.lifts[:3]:
        build_invariant_pair_problem(result.root_system, lift, result.phi)
        with pytest.raises(VerificationError, match="does not invert"):
            build_invariant_pair_problem(
                result.root_system, _wrong_inverse_image(lift), result.phi
            )


def test_cli_maps_wrong_inverse_image_to_exit_5(monkeypatch, capsys):
    lifts = mckay.enumerate_chi_lifts
    monkeypatch.setattr(
        mckay,
        "enumerate_chi_lifts",
        lambda psi, weyl: [_wrong_inverse_image(lift) for lift in lifts(psi, weyl)],
    )
    assert main(["invariant-pair", "--scenario", str(STRESS / "d4_q8z4.scn")]) == 5
    assert "does not invert" in capsys.readouterr().err


def _bumped_trace(lattice_matrices, by=1):
    """lattice_matrices with `by` added to the first diagonal entry of
    the matrix of element 1."""

    def bumped(group, lattice):
        mats = list(lattice_matrices(group, lattice))
        first, *rest = mats[1]
        mats[1] = ((first[0] + by, *first[1:]), *rest)
        return tuple(mats)

    return bumped


@pytest.mark.parametrize(
    "fixture,by,message",
    [
        ("z4_group", 1, "element 1: Newton sum not divisible by 2"),
        # Every element of Z2 x Z2 has trace -2 and squares to 1: trace 0
        # is the trace of an involution too, so the Newton sums stay
        # exact and only the Molien sum over G can see it.
        ("z2z2_group", 2, "Molien sums .* give no Betti vector"),
    ],
)
def test_betti_check_catches_a_wrong_trace(
    monkeypatch, request, gaussian_lattice, fixture, by, message
):
    group = request.getfixturevalue(fixture)
    assert group.identity_index == 0
    quotient_betti(group, gaussian_lattice)
    bumped = _bumped_trace(torus.lattice_matrices, by)
    monkeypatch.setattr(betti, "lattice_matrices", bumped)
    with pytest.raises(VerificationError, match=message):
        quotient_betti(group, gaussian_lattice)


def test_cli_maps_betti_verification_error_to_exit_5(monkeypatch, capsys):
    monkeypatch.setattr(betti, "lattice_matrices", _bumped_trace(torus.lattice_matrices))
    assert main(["ledger", "--scenario", "t6_z4"]) == 5
    assert "Newton sum not divisible" in capsys.readouterr().err


@pytest.mark.parametrize(
    "witness,message", [((1, 1, 0), "not a relation"), ((0, 0, 0), "zero coefficient")]
)
def test_smoothability_check_catches_corrupted_witness(monkeypatch, witness, message):
    cfg = NodeConfiguration.make([[1, 0], [0, 1], [-1, -1]])
    assert node_smoothable(cfg).witness is not None
    monkeypatch.setattr(nodes, "generic_combination", lambda *a, **k: (1, (witness,)))
    with pytest.raises(VerificationError, match=message):
        node_smoothable(cfg)


F = Fraction


@pytest.mark.parametrize(
    "classes,certificate,message",
    [
        # lam: a relation with a negative coefficient, all zero, no relation
        ([[1, 0], [-1, 0], [2, 0]], ((F(-1), F(1), F(1)), None), "convex"),
        ([[1, 0], [-1, 0]], ((F(0), F(0)), None), "convex"),
        ([[1, 0], [-1, 0]], ((F(1, 3), F(2, 3)), None), "relation"),
        # y: zero on one class, negative on another
        ([[1, 0], [0, 1]], (None, (F(1), F(0))), "positive"),
        ([[1, 0], [0, 1]], (None, (F(1), F(-1, 2))), "positive"),
    ],
)
def test_kahler_check_catches_corrupted_certificate(
    monkeypatch, classes, certificate, message
):
    cfg = NodeConfiguration.make(classes)
    node_kahler(cfg)
    monkeypatch.setattr(nodes, "_gordan_phase_one", lambda classes: certificate)
    with pytest.raises(VerificationError, match=message):
        node_kahler(cfg)


def test_no_assert_statements_in_the_package():
    """Checks written as `assert` vanish under python -O; the package
    raises VerificationError instead."""
    package = Path(orbitop.__file__).resolve().parent
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_inverse_check_catches_a_norm_that_is_not_rational(monkeypatch):
    # With every Galois conjugate replaced by x itself the norm would
    # be x^phi(m), and zeta_5^4 is not rational; embeddings stay right.
    spread = Cyclotomic._spread
    monkeypatch.setattr(
        Cyclotomic,
        "_spread",
        lambda self, n, k: spread(self, n, 1 if n == self.order else k),
    )
    with pytest.raises(VerificationError, match="not rational"):
        Cyclotomic.zeta(5).inverse()


OPTIMIZED_SCRIPT = """
import sys
assert False, "asserts are stripped under -O, so this never fires"
from orbitop.errors import VerificationError
from orbitop.exact.snf import SmithDecomposition, _verify
from orbitop.group import (
    FiniteMatrixGroup, Motion, _verify_table_sample, close, normal_and_quotient,
)
from fractions import Fraction
from orbitop.invariants import NodeConfiguration, chi, node_kahler, node_smoothable, nodes

kappa = Motion.from_complex([[(-1, 0), (0, 0)], [(0, 0), (0, 1)]])
group = close([kappa])
table = [list(row) for row in group.table]
table[2][3] = 2
bad = FiniteMatrixGroup(group.elements, tuple(map(tuple, table)), 0, group.inverse)
caught = []
try:
    _verify_table_sample(bad)
except VerificationError:
    caught.append("table")
try:
    normal_and_quotient(bad, [0, 2])
except VerificationError:
    caught.append("quotient")
m = ((2, 0), (0, 3))
ident = ((1, 0), (0, 1))
try:
    _verify(m, SmithDecomposition(ident, m, ident, (2, 3)))
except VerificationError:
    caught.append("snf")
nodes.generic_combination = lambda *args, **kwargs: (1, ((1, 1, 0),))
try:
    node_smoothable(NodeConfiguration.make([[1, 0], [0, 1], [-1, -1]]))
except VerificationError:
    caught.append("witness")
nodes._gordan_phase_one = lambda classes: (None, (Fraction(1), Fraction(-1)))
try:
    node_kahler(NodeConfiguration.make([[1, 0], [0, 1]]))
except VerificationError:
    caught.append("kahler")

import os
from pathlib import Path
import orbitop
from orbitop import ade, mckay
from orbitop.cli import main
from orbitop.exact import Cyclotomic
from orbitop.invariants import betti
from orbitop.mckay import _verify_pair, analyze_splitting, build_invariant_pair_problem

lifts = mckay.enumerate_chi_lifts

def wrong_inverse_images(psi, weyl):
    # The image of the inverse of the generator (coset 1 of Z4) times s_1.
    reflection = ade.ExtendedElement((0, 1, 2, 3), weyl.generators[0])
    out = []
    for lift in lifts(psi, weyl):
        quotient = lift.psi.source
        inverse = quotient.table[1].index(quotient.identity_coset)
        images = list(lift.images)
        images[inverse] = images[inverse] * reflection
        out.append(lift._replace(images=tuple(images)))
    return out

mckay.enumerate_chi_lifts = wrong_inverse_images
d4_q8z4 = Path(orbitop.__file__).resolve().parents[2] / "perfbench/scenarios/d4_q8z4.scn"
argv = ["invariant-pair", "--scenario", str(d4_q8z4), "--out", os.devnull]
if main(argv) == 5:
    caught.append("dual")
mckay.enumerate_chi_lifts = lifts
matrices = betti.lattice_matrices

def bumped(group, lattice):
    mats = list(matrices(group, lattice))
    first, *rest = mats[1]
    mats[1] = ((first[0] + 1, *first[1:]), *rest)
    return tuple(mats)

betti.lattice_matrices = bumped
if main(["ledger", "--scenario", "t6_z4", "--out", os.devnull]) == 5:
    caught.append("betti")
betti.lattice_matrices = matrices
kappa3 = Motion.from_complex(
    [[(-1, 0), (0, 0), (0, 0)], [(0, 0), (0, 1), (0, 0)], [(0, 0), (0, 0), (0, 1)]]
)
result = analyze_splitting(close([kappa3]))
problem = build_invariant_pair_problem(result.root_system, result.lifts[0], result.phi)
try:
    _verify_pair(problem, (1, ((0,),)), (1, ((0,), (0,))))
except VerificationError:
    caught.append("pair")
try:
    _verify_pair(problem, (1, ((0,),)), (1, ((0,), (1,))))
except VerificationError:
    caught.append("beta")
from orbitop.exact import int_kernel, matrix
clear = matrix._clear

def off_by_one(row, *args):
    out = clear(row, *args)
    if out is None or out is row:
        return out
    return [[*out[0][:-1], out[0][-1] + 1], *out[1:]]

matrix._clear = off_by_one
try:
    int_kernel([((1, 0, 1), (0, 1, 1)), ((0, 1, 0), (1, 0, 0))], 4)
except VerificationError:
    caught.append("kernel")
matrix._clear = clear
spread = Cyclotomic._spread
Cyclotomic._spread = lambda self, n, k: spread(self, n, 1 if n == self.order else k)
try:
    Cyclotomic.zeta(5).inverse()
except VerificationError:
    caught.append("norm")
Cyclotomic._spread = spread
family = chi._product_family
chi._product_family = lambda n: family(n) | {1 | 1 << (n * n)}
try:
    chi.chi_family_census(2)
except VerificationError:
    caught.append("census")
chi._count_by_column_transfer = lambda n: 0
try:
    chi.chi_total_count(2)
except VerificationError:
    caught.append("count")
print(sys.flags.optimize, " ".join(caught))
"""


def test_verification_survives_python_optimize():
    src = str(Path(orbitop.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        "1", "table", "quotient", "snf", "witness", "kahler", "dual", "betti", "pair",
        "beta", "kernel", "norm", "census", "count",
    ]


def test_cli_maps_chi_verification_error_to_exit_5(monkeypatch, capsys):
    monkeypatch.setattr(chi, "chi_count_brute_force", lambda n: 0)
    assert main(["chi-count", "--grid-n", "2"]) == 5
    assert "brute force" in capsys.readouterr().err


def test_cli_maps_verification_error_to_exit_5(monkeypatch, capsys):
    def failing_close(*args, **kwargs):
        raise VerificationError("table entry (0, 0) disagrees with the product")

    monkeypatch.setattr(orbitop.cli, "close", failing_close)
    assert main(["group", "--scenario", "c3_z4"]) == 5
    assert "verification failed" in capsys.readouterr().err


def _one_more_point(common_fixed_set):
    """common_fixed_set with one extra component on every isolated set."""

    def counted(motions, lattice):
        fam = common_fixed_set(motions, lattice)
        if fam.dimension:
            return fam
        return fam._replace(component_count=fam.component_count + 1)

    return counted


def test_cli_maps_indivisible_euler_sum_to_exit_5(monkeypatch, capsys):
    # On t6_z2z2 the 6 pairs generating the whole group each add one more.
    monkeypatch.setattr(euler, "common_fixed_set", _one_more_point(common_fixed_set))
    assert main(["euler", "--scenario", "t6_z2z2"]) == 5
    assert "not divisible by group order 4" in capsys.readouterr().err


def _doubled_factors(rows):
    """The Smith form of rows with every invariant factor doubled: a
    corrupted decomposition whose extra half-steps solve nothing."""
    dec = snf(rows)
    return SmithDecomposition(
        dec.U, dec.D, dec.V, tuple(2 * f for f in dec.invariant_factors)
    )


def test_torus_congruence_check_catches_corrupted_snf(
    monkeypatch, kappa, gaussian_lattice
):
    monkeypatch.setattr(torus, "snf", _doubled_factors)
    with pytest.raises(VerificationError, match="A x = rhs"):
        fixed_set(kappa, gaussian_lattice)
    with pytest.raises(VerificationError, match="A x = rhs"):
        common_fixed_set([kappa, kappa], gaussian_lattice)


TORUS_OPTIMIZED_SCRIPT = """
import os
import sys
assert False, "asserts are stripped under -O, so this never fires"
from orbitop import torus
from orbitop.errors import VerificationError
from orbitop.exact import snf
from orbitop.exact.snf import SmithDecomposition
from orbitop.group import Motion

def doubled(rows):
    dec = snf(rows)
    factors = tuple(2 * f for f in dec.invariant_factors)
    return SmithDecomposition(dec.U, dec.D, dec.V, factors)

caught = []
smith = torus.snf
torus.snf = doubled
kappa = Motion.from_complex([[(-1, 0), (0, 0)], [(0, 0), (0, 1)]])
try:
    torus.fixed_set(kappa, torus.TorusLattice.standard(4))
except VerificationError:
    caught.append("torus")
torus.snf = smith

from orbitop.cli import main
from orbitop.invariants import euler

solve = euler.common_fixed_set

def off_by_one(motions, lattice):
    fam = solve(motions, lattice)
    return fam._replace(component_count=fam.component_count + (fam.dimension == 0))

euler.common_fixed_set = off_by_one
if main(["euler", "--scenario", "t6_z2z2", "--out", os.devnull]) == 5:
    caught.append("euler")
print(sys.flags.optimize, " ".join(caught))
"""


def test_torus_verification_survives_python_optimize():
    src = str(Path(orbitop.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-O", "-c", TORUS_OPTIMIZED_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "torus", "euler"]



def _slid_image(translate, m, image=torus._Translate.image):
    """The same translate through another point: the image's point moved
    by half its first direction, so no element seems to fix it pointwise."""
    out = image(translate, m)
    nums = [2 * x + d for x, d in zip(out.nums, out.dirs[0])]
    return torus._Translate(nums, 2 * out.den, out.dirs)


def test_stabilizer_check_catches_a_pointwise_test_that_disagrees(
    monkeypatch, z2z2_group, gaussian_lattice
):
    """The pointwise stabilizer is read off the elements whose fixed sets
    have the component as a component, and re-checked on the sweep's
    images; a wrong image point makes the two disagree."""
    monkeypatch.setattr(torus._Translate, "image", _slid_image)
    with pytest.raises(VerificationError, match="pointwise stabilizer"):
        torus.singular_set(z2z2_group, gaussian_lattice)


STABILIZER_OPTIMIZED_SCRIPT = """
import sys
assert False, "asserts are stripped under -O, so this never fires"
from orbitop import torus
from orbitop.cli import load_scenario
from orbitop.errors import VerificationError
from orbitop.group import close

def slid(translate, m, image=torus._Translate.image):
    out = image(translate, m)
    nums = [2 * x + d for x, d in zip(out.nums, out.dirs[0])]
    return torus._Translate(nums, 2 * out.den, out.dirs)

torus._Translate.image = slid
scenario = load_scenario("t6_z2z2")
try:
    torus.singular_set(close(scenario.motions()), scenario.lattice())
except VerificationError as exc:
    print(sys.flags.optimize, exc)
"""


def test_stabilizer_check_survives_python_optimize():
    src = str(Path(orbitop.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-O", "-c", STABILIZER_OPTIMIZED_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("1 pointwise stabilizer"), done.stdout


def test_table_sample_catches_a_wrong_sampled_entry():
    """mono48 has 48^2 > 200 entries, so the check reads a sample: a
    wrong entry in it fails the packed product check."""
    group = close(load_scenario(str(STRESS / "mono48.scn")).motions())
    _verify_table_sample(group)
    a, b, _ = next(_sample_triples(group.order, 200))
    wrong = group.mul(a, group.mul(a, b))  # a * a * b != a * b
    with pytest.raises(VerificationError, match=rf"\({a}, {b}\)"):
        _verify_table_sample(corrupted(group, a, b, wrong))


ORDER_MODULO_SCRIPT = """
import sys
from orbitop.cli import load_scenario
from orbitop.errors import VerificationError
from orbitop.group import close, order_modulo

group = close(load_scenario("t6_z4").motions())
try:
    order_modulo(group.table, 1, ())
except VerificationError as exc:
    print(sys.flags.optimize, exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_order_modulo_stops_at_the_group_order(flags):
    """No power of an element lies in the empty set: the search stops
    after |G| steps instead of spinning (the timeout catches a hang)."""
    src = str(Path(orbitop.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, *flags, "-c", ORDER_MODULO_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        f"{len(flags)} no power of element 1 up to |G| = 4 lies in the subgroup\n"
    )


def test_euler_checks_commuting_pairs_against_the_class_count(monkeypatch, capsys):
    """Burnside: the commuting pairs number |G| times the classes, so a
    class census that drops one class fails re-verification (exit 5)."""
    classes = euler.conjugacy_classes
    monkeypatch.setattr(euler, "conjugacy_classes", lambda group: classes(group)[:-1])
    assert main(["euler", "--scenario", "t6_z4"]) == 5
    assert "16 commuting pairs, not |G| * classes = 4 * 3" in capsys.readouterr().err
