"""Exact re-verifications raise VerificationError, also under python -O."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbitop
import orbitop.cli
from orbitop.cli import main
from orbitop.errors import VerificationError
from orbitop.exact import Matrix, snf
from orbitop.exact.snf import SmithDecomposition, _verify
from orbitop.group import (
    FiniteMatrixGroup,
    _spot_check_associativity,
    _verify_table_sample,
    normal_and_quotient,
)


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
    m = Matrix([[2, 4], [6, 8]])
    good = snf(m)
    _verify(m, good)
    bad_u = Matrix([[1, 1], [0, 1]]) @ good.U
    with pytest.raises(VerificationError, match="transform"):
        _verify(m, SmithDecomposition(bad_u, good.D, good.V, good.invariant_factors))


def test_snf_verification_catches_broken_divisibility_chain():
    m = Matrix([[2, 0], [0, 3]])
    ident = Matrix.identity(2)
    with pytest.raises(VerificationError, match="divisibility"):
        _verify(m, SmithDecomposition(ident, m, ident, (2, 3)))


OPTIMIZED_SCRIPT = """
import sys
assert False, "asserts are stripped under -O, so this never fires"
from orbitop.errors import VerificationError
from orbitop.exact import Matrix
from orbitop.exact.snf import SmithDecomposition, _verify
from orbitop.group import FiniteMatrixGroup, Motion, close, normal_and_quotient

kappa = Motion.from_complex([[(-1, 0), (0, 0)], [(0, 0), (0, 1)]])
group = close([kappa])
table = [list(row) for row in group.table]
table[2][3] = 2
bad = FiniteMatrixGroup(group.elements, tuple(map(tuple, table)), 0, group.inverse)
caught = []
try:
    normal_and_quotient(bad, [0, 2])
except VerificationError:
    caught.append("quotient")
m = Matrix([[2, 0], [0, 3]])
ident = Matrix.identity(2)
try:
    _verify(m, SmithDecomposition(ident, m, ident, (2, 3)))
except VerificationError:
    caught.append("snf")
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
    assert done.stdout.split() == ["1", "quotient", "snf"]


def test_cli_maps_verification_error_to_exit_5(monkeypatch, capsys):
    def failing_close(*args, **kwargs):
        raise VerificationError("table entry (0, 0) disagrees with the product")

    monkeypatch.setattr(orbitop.cli, "close", failing_close)
    assert main(["group", "--scenario", "c3_z4"]) == 5
    assert "verification failed" in capsys.readouterr().err
