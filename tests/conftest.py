"""Shared motions, groups, lattices and Weyl groups for the test suite."""

import functools
import random

import pytest

from orbitop.ade import DynkinDiagram, build_root_system, weyl_group
from orbitop.group import Motion, close
from orbitop.torus import TorusLattice


def motion_c3(rows, conjugate=False):
    return Motion.from_complex(rows, conjugate=conjugate)


@pytest.fixture(scope="session")
def kappa():
    """(z1, z2, z3) -> (-z1, i z2, i z3)"""
    return motion_c3(
        [
            [(-1, 0), (0, 0), (0, 0)],
            [(0, 0), (0, 1), (0, 0)],
            [(0, 0), (0, 0), (0, 1)],
        ]
    )


@pytest.fixture(scope="session")
def z4_group(kappa):
    return close([kappa])


@pytest.fixture(scope="session")
def flip_generators():
    """(z1,z2,z3) -> (z1,-z2,-z3) and (-z1,z2,-z3)"""
    k1 = motion_c3(
        [
            [(1, 0), (0, 0), (0, 0)],
            [(0, 0), (-1, 0), (0, 0)],
            [(0, 0), (0, 0), (-1, 0)],
        ]
    )
    k2 = motion_c3(
        [
            [(-1, 0), (0, 0), (0, 0)],
            [(0, 0), (1, 0), (0, 0)],
            [(0, 0), (0, 0), (-1, 0)],
        ]
    )
    return k1, k2


@pytest.fixture(scope="session")
def z2z2_group(flip_generators):
    return close(list(flip_generators))


@pytest.fixture(scope="session")
def z4z4_group():
    """diag(i, i, -1) and diag(1, i, -i) on C^3: the t6_z4z4 action."""
    return close(
        [
            motion_c3([[(0, 1), (0, 0), (0, 0)], [(0, 0), (0, 1), (0, 0)],
                       [(0, 0), (0, 0), (-1, 0)]]),
            motion_c3([[(1, 0), (0, 0), (0, 0)], [(0, 0), (0, 1), (0, 0)],
                       [(0, 0), (0, 0), (0, -1)]]),
        ]
    )


@pytest.fixture(scope="session")
def shear_lattice():
    """seed -> a unimodular lattice of Z^6 drawn like the benchmark's
    seeded t6_z4z4 basis: three row shears of the identity, rows
    shuffled, signs flipped."""

    def draw(seed):
        rng = random.Random(seed)
        rows = [[int(i == j) for j in range(6)] for i in range(6)]
        for _ in range(3):
            i, j = rng.sample(range(6), 2)
            sign = rng.choice((-1, 1))
            rows[i] = [a + sign * b for a, b in zip(rows[i], rows[j])]
        rng.shuffle(rows)
        rows = [[-x for x in row] if rng.random() < 0.5 else row for row in rows]
        return TorusLattice(rows)

    return draw


@pytest.fixture(scope="session")
def octonionic_pair():
    """Multiplication by i on C^4 and the conjugate-linear pair swap."""
    kap = Motion.from_complex(
        [[(0, 1) if i == j else (0, 0) for j in range(4)] for i in range(4)]
    )
    lam = Motion.from_complex(
        [
            [(0, 0), (1, 0), (0, 0), (0, 0)],
            [(-1, 0), (0, 0), (0, 0), (0, 0)],
            [(0, 0), (0, 0), (0, 0), (1, 0)],
            [(0, 0), (0, 0), (-1, 0), (0, 0)],
        ],
        conjugate=True,
    )
    return kap, lam


@pytest.fixture(scope="session")
def order8_group(octonionic_pair):
    return close(list(octonionic_pair))


@pytest.fixture(scope="session")
def gaussian_lattice():
    return TorusLattice.standard(6)


@pytest.fixture(scope="session")
def trivial_c3_group():
    ident = motion_c3(
        [
            [(1, 0), (0, 0), (0, 0)],
            [(0, 0), (1, 0), (0, 0)],
            [(0, 0), (0, 0), (1, 0)],
        ]
    )
    return close([ident])


@pytest.fixture(scope="session")
def weyl():
    """W of the diagram (family, rank), enumerated once per session."""

    @functools.lru_cache(maxsize=None)
    def enumerate_weyl(family, rank):
        return weyl_group(build_root_system(DynkinDiagram.make(family, rank)))

    return enumerate_weyl
