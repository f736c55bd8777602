"""Betti numbers of torus quotients and the desingularization ledger.

Quotient Betti numbers come from invariant exterior forms: b^k is the
dimension of the common fixed space of the induced group action on the
k-th exterior power, computed as an exact kernel (no averaging).  It
runs on the integer lattice matrices of the group: Lambda^k g is built
from k x k minors (Bareiss determinants on ints), and b^k is C(2n, k)
minus the rank of the rows of Lambda^k g - I stacked over g, found by
fraction-free integer elimination that stops at full rank.

The ledger adds per-component contributions to a base Betti vector.
Contribution tables are calibrated data for the bundled quotients; the
ledger refuses unknown (component kind, choice) keys rather than
extrapolating.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import NamedTuple

from ..errors import PreconditionError
from ..exact import Matrix, int_det, int_rank
from ..group import FiniteMatrixGroup
from ..torus import SingularSetReport, TorusLattice, lattice_matrices


class BettiVector(NamedTuple):
    """b^0..b^top; for 6-manifold use, h11/h21 are read off b2 and b3."""

    b: tuple[int, ...]

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** k * v for k, v in enumerate(self.b))

    @property
    def h11(self) -> int:
        return self.b[2]

    @property
    def h21(self) -> int:
        if len(self.b) != 7 or self.b[3] % 2 or self.b[3] < 2:
            raise PreconditionError("h21 needs a 3-fold Betti vector with even b3 >= 2")
        return (self.b[3] - 2) // 2


def exterior_power_matrix(m: Matrix, k: int) -> Matrix:
    """Matrix of the induced map on the k-th exterior power."""
    n = m.rows
    subsets = list(itertools.combinations(range(n), k))
    cols = []
    for t in subsets:
        col = []
        for s in subsets:
            col.append(m.submatrix(s, t).det())
        cols.append(col)
    return Matrix.from_columns(cols)


def _exterior_rows(rows, k: int):
    """Rows of the k-th exterior power of an integer matrix: entry (s, t)
    is the minor on rows s and columns t, over sorted k-subsets."""
    subsets = list(itertools.combinations(range(len(rows)), k))
    for s in subsets:
        picked = [rows[i] for i in s]
        yield [int_det([[r[j] for j in t] for r in picked]) for t in subsets]


def quotient_betti(group: FiniteMatrixGroup, lattice: TorusLattice) -> BettiVector:
    """Betti numbers of T/G via invariant exterior forms: b^k is C(2n, k)
    minus the rank of the rows of Lambda^k g - I stacked over g in G."""
    dim = lattice.rank
    # integer rows in lattice coordinates; raises if the lattice is not preserved
    mats = lattice_matrices(group, lattice)
    others = [m for i, m in enumerate(mats) if i != group.identity_index]
    out = []
    for k in range(dim + 1):
        width = comb(dim, k)
        rows = (
            [x - (i == j) for j, x in enumerate(row)]
            for m in others
            for i, row in enumerate(_exterior_rows(m, k))
        )
        out.append(width - int_rank(rows, width))
    return BettiVector(b=tuple(out))


# ---------------------------------------------------------------------------
# Ledger


class ContributionTable(NamedTuple):
    """(component kind, resolution choice) -> (delta h11, delta h21)."""

    name: str
    entries: dict[tuple[str, str], tuple[int, int]]

    def lookup(self, kind: str, choice: str) -> tuple[int, int]:
        key = (kind, choice)
        if key not in self.entries:
            raise PreconditionError(
                f"contribution table {self.name!r} has no entry for {key}"
            )
        return self.entries[key]


class DesingPlan(NamedTuple):
    """Per-component resolution choices, plus per-point choices where the
    singular set has triple points."""

    component_choices: tuple[tuple[int, str], ...]
    point_choices: tuple[tuple[int, str], ...] = ()
    component_kinds: tuple[str, ...] = ()
    point_kinds: tuple[str, ...] = ()


# Required sign pattern (chi_1, chi_2, chi_3) at a triple point for each
# local desingularization case; cases sharing a pattern are distinguished
# only by their local topology.
POINT_CASE_PATTERNS = {
    "i": (1, 1, 1),
    "ii": (1, 1, 1),
    "iii": (-1, 1, 1),
    "iv": (-1, 1, 1),
    "v": (1, -1, 1),
    "vi": (1, -1, 1),
    "vii": (1, 1, -1),
    "viii": (1, 1, -1),
    "ix": (-1, -1, -1),
}


def ledger_apply(
    base: BettiVector, plan: DesingPlan, table: ContributionTable
) -> BettiVector:
    """Add the plan's contributions to the base Betti vector.

    Deltas land on b2 (and b4 by duality) and on b3 in even steps, so the
    result stays a valid closed-oriented 6-manifold vector.
    """
    if len(base.b) != 7:
        raise PreconditionError("ledger expects a 6-manifold Betti vector")
    dh11 = 0
    dh21 = 0
    for idx, choice in plan.component_choices:
        kind = plan.component_kinds[idx]
        a, b = table.lookup(kind, choice)
        dh11 += a
        dh21 += b
    for idx, choice in plan.point_choices:
        kind = plan.point_kinds[idx]
        a, b = table.lookup(kind, choice)
        dh11 += a
        dh21 += b
    b = list(base.b)
    b[2] += dh11
    b[4] += dh11
    b[3] += 2 * dh21
    return BettiVector(b=tuple(b))


def plan_from_choices(
    report: SingularSetReport,
    component_choices: dict[int, str],
    point_choices: dict[int, str] | None = None,
    chi_of_choice: dict[str, int] | None = None,
) -> DesingPlan:
    """Build a validated plan against a singular-set report.

    When chi_of_choice maps line choices to signs and the report has
    triple points, each point's case must match the signs of its three
    incident lines, and the induced sign data must satisfy the local
    {0,1,3} rule.
    """
    n_comp = len(report.components)
    if sorted(component_choices) != list(range(n_comp)):
        raise PreconditionError("plan must choose for every component exactly once")
    point_choices = dict(point_choices or {})
    comp_kinds = tuple(c.quotient_label for c in report.components)
    point_kinds = tuple("point3" for _ in report.intersection_points)
    if report.intersection_points:
        if sorted(point_choices) != list(range(len(report.intersection_points))):
            raise PreconditionError("plan must choose a case for every triple point")
        if chi_of_choice is None:
            raise PreconditionError("triple-point plans need line signs")
        for pidx, (point, incident) in enumerate(report.intersection_points):
            if len(incident) != 3:
                raise PreconditionError("only triple intersection points supported")
            case = point_choices[pidx]
            if case not in POINT_CASE_PATTERNS:
                raise PreconditionError(f"unknown point case {case!r}")
            pattern = POINT_CASE_PATTERNS[case]
            by_family = {}
            for c in incident:
                fam = _line_family(report.components[c])
                choice = component_choices[c]
                if choice not in chi_of_choice:
                    raise PreconditionError(
                        f"point {pidx}: no line sign for choice {choice!r}"
                    )
                by_family[fam] = chi_of_choice[choice]
            if sorted(by_family) != [0, 1, 2]:
                raise PreconditionError(
                    f"point {pidx} does not meet one line of each coordinate family"
                )
            signs = tuple(by_family[f] for f in range(3))
            if sum(1 for s in signs if s == -1) == 2:
                raise PreconditionError(
                    f"point {pidx} has exactly two -1 line signs; not admissible"
                )
            if signs != pattern:
                raise PreconditionError(
                    f"point {pidx} case {case} needs signs {pattern}, got {signs}"
                )
    return DesingPlan(
        component_choices=tuple(sorted(component_choices.items())),
        point_choices=tuple(sorted(point_choices.items())),
        component_kinds=comp_kinds,
        point_kinds=point_kinds,
    )


def _line_family(component) -> int:
    """Which complex coordinate plane a singular line runs along."""
    coords = {
        i for d in component.direction for i, x in enumerate(d) if x != 0
    }
    for f in range(len(component.representative) // 2):
        if coords == {2 * f, 2 * f + 1}:
            return f
    raise PreconditionError(
        "component direction is not a single coordinate plane"
    )
