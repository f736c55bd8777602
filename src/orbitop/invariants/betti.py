"""Betti numbers of torus quotients and the desingularization ledger.

Quotient Betti numbers come from Molien's formula: b^k is the average
over G of e_k(g), the trace of Lambda^k g on the lattice (Molien 1897;
Humphreys, *Reflection Groups and Coxeter Groups*, 3.7).  Each element
gives one int trace, the traces of its powers are read off the Cayley
table, and Newton's identities turn them into the e_k(g).  Every
division is re-checked to be exact, as are b^0 = 1, b^k >= 0 and, when
G keeps the orientation, Poincare duality.

The ledger adds per-component contributions to a base Betti vector.
Contribution tables are calibrated data for the bundled quotients; the
ledger refuses unknown (component kind, choice) keys rather than
extrapolating.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from ..errors import PreconditionError, VerificationError
from ..exact import Matrix
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


def quotient_betti(group: FiniteMatrixGroup, lattice: TorusLattice) -> BettiVector:
    """Betti numbers of T/G by Molien's formula, b^k = sum_g e_k(g) / |G|,
    with e_k(g) from the power traces p_i = tr(g^i) by Newton's
    identities k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) p_i."""
    dim = lattice.rank
    # integer rows in lattice coordinates; raises if the lattice is not preserved
    mats = lattice_matrices(group, lattice)
    traces = [sum(m[i][i] for i in range(dim)) for m in mats]
    sums = [0] * (dim + 1)
    for g in range(group.order):
        p, power = [], g
        for _ in range(dim):
            p.append(traces[power])
            power = group.mul(power, g)
        e = [1]
        for k in range(1, dim + 1):
            newton = sum((-1) ** i * e[k - 1 - i] * p[i] for i in range(k))
            if newton % k:
                raise VerificationError(f"element {g}: Newton sum not divisible by {k}")
            e.append(newton // k)
        sums = [s + x for s, x in zip(sums, e)]
    b, rest = zip(*(divmod(s, group.order) for s in sums))
    # b^top is the average of det g: 1 when G keeps the orientation, else 0.
    if any(rest) or b[0] != 1 or min(b) < 0 or b[-1] and b != b[::-1]:
        raise VerificationError(f"Molien sums {sums} give no Betti vector")
    return BettiVector(b=b)


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
                fam = _line_family(report.components[c], report.lattice)
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


def _line_family(component, lattice: TorusLattice) -> int:
    """Which complex coordinate plane a singular line runs along, read off
    its ambient directions B d (the direction is in lattice coordinates)."""
    ambient = [lattice.ambient(d) for d in component.direction]
    coords = {i for d in ambient for i, x in enumerate(d) if x != 0}
    for f in range(len(component.representative) // 2):
        if coords == {2 * f, 2 * f + 1}:
            return f
    raise PreconditionError(
        "component direction is not a single coordinate plane"
    )
