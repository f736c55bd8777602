"""The commuting-pair orbifold Euler characteristic.

On a torus the fixed set of a linear motion is a union of subtori, which
contributes its component count when zero-dimensional and 0 otherwise;
a commuting pair fixes T^g & T^h = T^<g,h>, solved once per subgroup.
On a linear space every nonempty fixed set is a subspace, hence
contractible, so each commuting pair contributes 1.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import VerificationError
from ..group import FiniteMatrixGroup, conjugacy_classes, generated
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

    Pass a lattice for the torus case; omit it for a linear space.  On a
    torus chi is solved once per subgroup <g, h> and added once per pair,
    so the divisibility check sees the full pair sum.  The report carries
    the conjugacy class counts so callers can surface the relationship
    between the value and the class census.
    """
    n = group.order
    table = group.table
    pairs = [(g, h) for g in range(n) for h in range(n) if table[g][h] == table[h][g]]
    total = len(pairs)  # each pair adds 1 on a linear space
    if lattice is not None:
        total = 0
        chi_of: dict[frozenset[int], int] = {}
        for g, h in pairs:
            key = generated(table, (g, h))
            if key not in chi_of:
                pair = [group.elements[g], group.elements[h]]
                chi_of[key] = common_fixed_set(pair, lattice).euler_characteristic()
            total += chi_of[key]
    if total % n:
        raise VerificationError(
            f"commuting-pair sum {total} is not divisible by group order {n}"
        )
    classes = conjugacy_classes(group)
    return EulerReport(
        value=total // n,
        commuting_pairs=len(pairs),
        class_count=len(classes),
        nonidentity_class_count=len(classes) - 1,
    )
