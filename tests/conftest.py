"""Shared motions, groups, lattices and Weyl groups for the test suite."""

import functools

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
