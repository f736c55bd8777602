"""The commuting-pair orbifold Euler characteristic.

On a torus the fixed set of a linear motion is a union of subtori, which
contributes its component count when zero-dimensional and 0 otherwise.
On a linear space every nonempty fixed set is a subspace, hence
contractible, so each commuting pair contributes 1.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import PreconditionError
from ..group import FiniteMatrixGroup, conjugacy_classes
from ..torus import TorusLattice, common_fixed_set


class EulerReport(NamedTuple):
    value: int
    commuting_pairs: int
    class_count: int
    nonidentity_class_count: int


def orbifold_euler(
    group: FiniteMatrixGroup, lattice: TorusLattice | None = None
) -> EulerReport:
    """Average of chi(fixed(g) intersect fixed(h)) over commuting pairs.

    Pass a lattice for the torus case; omit it for a linear space.  The
    report carries the conjugacy class counts so callers can surface the
    relationship between the value and the class census.
    """
    n = group.order
    total = 0
    pairs = 0
    for g in range(n):
        for h in range(n):
            if group.mul(g, h) != group.mul(h, g):
                continue
            pairs += 1
            if lattice is None:
                total += 1
            else:
                fam = common_fixed_set(
                    [group.elements[g], group.elements[h]], lattice
                )
                total += fam.euler_characteristic()
    if total % n:
        raise PreconditionError(
            f"commuting-pair sum {total} is not divisible by group order {n}"
        )
    classes = conjugacy_classes(group)
    return EulerReport(
        value=total // n,
        commuting_pairs=pairs,
        class_count=len(classes),
        nonidentity_class_count=len(classes) - 1,
    )

