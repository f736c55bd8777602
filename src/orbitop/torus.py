"""Flat tori R^{2n}/L with finite linear actions: fixed-point sets via
lattice congruences and Smith normal form, and the full singular-set
decomposition of the quotient.

All torus points carry rational coordinates in the lattice basis,
reduced to [0,1).  Fixed points of finite linear actions on rational
lattices are rational, so everything here is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CapExceededError, PreconditionError, VerificationError
from .exact import Matrix, snf
from .group import FiniteMatrixGroup, Motion

REPRESENTATIVE_CAP = 65_536


@dataclass(frozen=True)
class TorusLattice:
    """A full-rank lattice in R^{2n}, columns of `basis` generating it."""

    basis: Matrix

    def __post_init__(self):
        if self.basis.rows != self.basis.cols:
            raise PreconditionError("lattice basis must be square")
        if self.basis.det() == 0:
            raise PreconditionError("lattice basis must be independent")

    @classmethod
    def standard(cls, dim_real: int) -> "TorusLattice":
        return cls(basis=Matrix.identity(dim_real))

    @property
    def rank(self) -> int:
        return self.basis.rows


def lattice_matrix(motion: Motion, lattice: TorusLattice) -> Matrix:
    """Matrix of the motion in lattice coordinates; errors if the motion
    does not preserve the lattice."""
    m = lattice.basis.inverse() @ motion.matrix @ lattice.basis
    if not m.is_integer():
        for j in range(m.cols):
            col = m.column(j)
            if any(x.denominator != 1 for x in col):
                raise PreconditionError(
                    f"motion does not preserve the lattice: basis vector {j} "
                    f"maps to non-integral coordinates {col}"
                )
    return m


def reduce_point(point) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) % 1 for x in point)


@dataclass(frozen=True)
class SubtorusFamily:
    """Solution set of a lattice congruence: finitely many parallel
    translates of one subtorus."""

    dimension: int
    component_count: int
    representatives: tuple[tuple[Fraction, ...], ...]
    direction: tuple[tuple[int, ...], ...]

    def euler_characteristic(self) -> int:
        return self.component_count if self.dimension == 0 else 0


@lru_cache(maxsize=4096)
def _snf_cached(a: Matrix):
    return snf(a)


def _solve_congruence(a: Matrix, rhs=None):
    """Solve A x = rhs (mod Z^m) for x in the torus R^n/Z^n, m >= n.

    Returns (dimension, count, representatives, directions) or None when
    the congruence is infeasible (only possible with nonzero rhs).
    """
    if a.rows < a.cols:
        raise PreconditionError("congruence solver expects m >= n")
    dec = _snf_cached(a)
    n = a.cols
    w = dec.U.apply(rhs) if rhs is not None else (Fraction(0),) * a.rows
    factors = dec.invariant_factors
    rank = dec.rank
    for i in range(a.rows):
        d = factors[i] if i < n else 0
        if d == 0 and w[i].denominator != 1:
            return None
    count = 1
    for d in factors[:rank]:
        count *= d
    dims = [j for j in range(n) if j >= rank or factors[j] == 0]
    if count > REPRESENTATIVE_CAP:
        raise CapExceededError(
            f"congruence has {count} components, over cap {REPRESENTATIVE_CAP}"
        )
    choices = []
    for i in range(rank):
        base = w[i] / factors[i]
        choices.append([base + Fraction(s, factors[i]) for s in range(factors[i])])
    reps = []
    for combo in itertools.product(*choices) if choices else [()]:
        y = [Fraction(0)] * n
        for i, val in enumerate(combo):
            y[i] = val
        reps.append(reduce_point(dec.V.apply(y)))
    directions = tuple(
        tuple(int(x) for x in dec.V.column(j)) for j in dims
    )
    return len(dims), count, tuple(sorted(reps)), directions


def fixed_set(motion: Motion, lattice: TorusLattice) -> SubtorusFamily:
    """Solutions of (g - 1) x = 0 (mod lattice), as translates of a subtorus."""
    m = lattice_matrix(motion, lattice)
    a = m - Matrix.identity(m.rows)
    dim, count, reps, dirs = _solve_congruence(a)
    for p in reps:
        if any(x.denominator != 1 for x in a.apply(p)):
            raise VerificationError("fixed-set representative fails its congruence")
    return SubtorusFamily(
        dimension=dim, component_count=count, representatives=reps, direction=dirs
    )


def common_fixed_set(motions, lattice: TorusLattice) -> SubtorusFamily:
    """Simultaneous fixed set of several motions (stacked congruence)."""
    if not motions:
        raise PreconditionError("need at least one motion")
    mats = [lattice_matrix(m, lattice) for m in motions]
    stacked = None
    for m in mats:
        block = m - Matrix.identity(m.rows)
        stacked = block if stacked is None else stacked.stack(block)
    dim, count, reps, dirs = _solve_congruence(stacked)
    for p in reps:
        for m in mats:
            if reduce_point(m.apply(p)) != p:
                raise VerificationError("common fixed point not fixed by every motion")
    return SubtorusFamily(
        dimension=dim, component_count=count, representatives=reps, direction=dirs
    )


# ---------------------------------------------------------------------------
# Singular set machinery


class _Translate:
    """One subtorus translate in lattice coordinates: point + direction span."""

    __slots__ = ("point", "dirs", "span_key", "_snf", "_trailing")

    def __init__(self, point, dirs):
        self.point = reduce_point(point)
        self.dirs = tuple(tuple(int(x) for x in d) for d in dirs)
        self.span_key = _span_key(self.dirs, len(self.point))
        self._snf = None
        self._trailing = None

    @property
    def dimension(self):
        return len(self.dirs)

    def direction_matrix(self) -> Matrix | None:
        if not self.dirs:
            return None
        return Matrix.from_columns(self.dirs)

    def snf_u(self):
        if self._snf is None and self.dirs:
            self._snf = _snf_cached(self.direction_matrix())
        return self._snf

    def _trailing_rows(self):
        # Integer functionals vanishing on the direction span; a point is
        # on the translate iff they take integer values on the difference.
        if self._trailing is None:
            dec = self.snf_u()
            self._trailing = tuple(
                tuple(int(x) for x in dec.U.row(i))
                for i in range(len(self.dirs), dec.U.rows)
            )
        return self._trailing

    def contains(self, point) -> bool:
        """Whether point lies on this translate (mod the integer lattice)."""
        diff = [Fraction(a) - Fraction(b) for a, b in zip(point, self.point)]
        if not self.dirs:
            return all(x.denominator == 1 for x in diff)
        for row in self._trailing_rows():
            total = Fraction(0)
            for coef, x in zip(row, diff):
                if coef:
                    total += coef * x
            if total.denominator != 1:
                return False
        return True

    def same_translate(self, other: "_Translate") -> bool:
        return self.span_key == other.span_key and self.contains(other.point)

    def contained_in(self, bigger: "_Translate") -> bool:
        if self.dimension > bigger.dimension:
            return False
        if self.dirs:
            rows = [list(d) for d in bigger.dirs] + [list(d) for d in self.dirs]
            if Matrix(rows).rank() != bigger.dimension:
                return False
        return bigger.contains(self.point)

    def image(self, m: Matrix) -> "_Translate":
        return _Translate(
            m.apply(self.point), [m.apply(d) for d in self.dirs]
        )


def _span_key(dirs, ambient_dim):
    if not dirs:
        return ()
    reduced, _ = Matrix([list(d) for d in dirs]).rref()
    return reduced.data


@dataclass(frozen=True)
class SingularComponent:
    """One component of the singular set of T/G."""

    representative: tuple[Fraction, ...]
    direction: tuple[tuple[int, ...], ...]
    orbit_size: int
    generic_stabilizer: tuple[int, ...]
    quotient_label: str
    special_points: tuple[tuple[Fraction, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.direction)


@dataclass(frozen=True)
class SingularSetReport:
    components: tuple[SingularComponent, ...]
    intersection_points: tuple[tuple[tuple[Fraction, ...], tuple[int, ...]], ...]

    def count_by_label(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for c in self.components:
            out[c.quotient_label] = out.get(c.quotient_label, 0) + 1
        return out


def _affine_action(m: Matrix, comp: _Translate):
    """The map induced on the component torus: t -> A t + b (mod Z^d)."""
    d = comp.direction_matrix()
    md = m @ d
    cols = []
    for j in range(md.cols):
        sol = _solve_in_span(d, md.column(j))
        cols.append(sol)
    a_rows = [
        [cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))
    ]
    if any(x.denominator != 1 for row in a_rows for x in row):
        raise VerificationError("direction action not integral")
    shift = [x - y for x, y in zip(m.apply(comp.point), comp.point)]
    dec = snf(d)
    w = dec.U.apply(shift)
    rank = len(comp.dirs)
    if any(x.denominator != 1 for x in w[rank:]):
        raise VerificationError("shift leaves the component")
    y = [w[i] / dec.invariant_factors[i] for i in range(rank)]
    b = dec.V.apply(y)
    a_int = tuple(tuple(int(x) for x in row) for row in a_rows)
    return a_int, tuple(Fraction(x) % 1 for x in b)


def _solve_in_span(d: Matrix, target):
    """Coordinates of target in the column span of d (exact, must exist)."""
    aug = Matrix(
        [list(d.row(i)) + [target[i]] for i in range(d.rows)]
    )
    reduced, pivots = aug.rref()
    sol = [Fraction(0)] * d.cols
    for r, c in enumerate(pivots):
        if c == d.cols:
            raise PreconditionError("vector not in component span")
        sol[c] = reduced[r, d.cols]
    return sol


def _compose_affine(f, g, modulus=True):
    a1, b1 = f
    a2, b2 = g
    n = len(b1)
    a = tuple(
        tuple(sum(a1[i][k] * a2[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    b = [sum(a1[i][k] * b2[k] for k in range(n)) + b1[i] for i in range(n)]
    if modulus:
        b = [x % 1 for x in b]
    return a, tuple(b)


def singular_set(group: FiniteMatrixGroup, lattice: TorusLattice) -> SingularSetReport:
    """Decompose the singular set of T/G into labeled components with
    stabilizers, special points, and intersection points."""
    mats = [lattice_matrix(m, lattice) for m in group.elements]
    ident = group.identity_index
    dim = lattice.rank

    translates: list[_Translate] = []
    for i, motion in enumerate(group.elements):
        if i == ident:
            continue
        fam = fixed_set(motion, lattice)
        for rep in fam.representatives:
            cand = _Translate(rep, fam.direction)
            if not any(cand.same_translate(t) for t in translates):
                translates.append(cand)

    # Keep only maximal translates; lower strata reappear as special points.
    maximal = []
    for t in translates:
        if not any(
            t is not other and t.contained_in(other) and not other.contained_in(t)
            for other in translates
        ):
            maximal.append(t)

    # Group the maximal translates into G-orbits.
    orbit_of = {}
    orbits: list[list[int]] = []
    for idx, t in enumerate(maximal):
        if idx in orbit_of:
            continue
        orbit = {idx}
        frontier = [idx]
        while frontier:
            cur = frontier.pop()
            for m in mats:
                img = maximal[cur].image(m)
                for jdx, other in enumerate(maximal):
                    if jdx not in orbit and img.same_translate(other):
                        orbit.add(jdx)
                        frontier.append(jdx)
        for jdx in orbit:
            orbit_of[jdx] = len(orbits)
        orbits.append(sorted(orbit))

    components = []
    comp_translate = []
    for orbit in orbits:
        comp = maximal[orbit[0]]
        stab = []
        normalizer = []
        for i in range(group.order):
            m = mats[i]
            img = comp.image(m)
            if not img.same_translate(comp):
                continue
            normalizer.append(i)
            if comp.dirs:
                pointwise = all(
                    tuple(m.apply(d)) == tuple(Fraction(x) for x in d)
                    for d in comp.dirs
                ) and all(
                    (a - b).denominator == 1
                    for a, b in zip(m.apply(comp.point), comp.point)
                )
            else:
                pointwise = reduce_point(m.apply(comp.point)) == comp.point
            if pointwise:
                stab.append(i)
        if comp.dirs:
            actions = {}
            for i in normalizer:
                actions.setdefault(_affine_action(mats[i], comp), []).append(i)
            label = _quotient_label(comp.dimension, actions)
            special = _special_points(comp, actions)
        else:
            label = "point"
            special = ()
        components.append(
            SingularComponent(
                representative=comp.point,
                direction=comp.dirs,
                orbit_size=len(orbit),
                generic_stabilizer=tuple(stab),
                quotient_label=label,
                special_points=special,
            )
        )
        comp_translate.append(comp)

    order = sorted(
        range(len(components)),
        key=lambda k: (
            components[k].quotient_label,
            -components[k].dimension,
            components[k].representative,
        ),
    )
    components = [components[k] for k in order]
    comp_translate = [comp_translate[k] for k in order]

    points = _intersection_points(maximal, mats, comp_translate)
    return SingularSetReport(
        components=tuple(components), intersection_points=points
    )


def _quotient_label(dim, actions):
    q = len(actions)
    if q == 1:
        return f"T{dim}"
    orders = sorted(_affine_order(a) for a in actions)
    if max(orders) == q:
        return f"T{dim}/Z{q}"
    if q == 4 and orders == [1, 2, 2, 2]:
        return f"T{dim}/Z2xZ2"
    return "unclassified"


def _affine_order(action, cap: int = 64):
    n = len(action[1])
    ident = (
        tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
        tuple(Fraction(0) for _ in range(n)),
    )
    cur = action
    for k in range(1, cap + 1):
        if cur == ident:
            return k
        cur = _compose_affine(action, cur)
    raise PreconditionError("affine action order exceeds cap")


def _special_points(comp: _Translate, actions):
    d = comp.dimension
    ident_a = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    points = set()
    dmat = comp.direction_matrix()
    for (a, b) in actions:
        if a == ident_a and all(x == 0 for x in b):
            continue
        am = Matrix([[a[i][j] - int(i == j) for j in range(d)] for i in range(d)])
        rhs = [-x for x in b]
        solved = _solve_congruence(am, rhs)
        if solved is None:
            continue
        sdim, _, reps, _ = solved
        if sdim > 0:
            continue  # fixed locus of this coset is positive-dimensional
        for t in reps:
            ambient = [
                comp.point[i] + sum(dmat[i, j] * t[j] for j in range(d))
                for i in range(len(comp.point))
            ]
            points.add(reduce_point(ambient))
    return tuple(sorted(points))


def _intersection_points(maximal, mats, comp_translate):
    """Isolated points where two distinct quotient components meet."""
    raw_points = set()
    for i in range(len(maximal)):
        for j in range(i + 1, len(maximal)):
            t1, t2 = maximal[i], maximal[j]
            if t1.span_key == t2.span_key and t1.dirs:
                continue  # distinct parallel translates are disjoint
            cols = [list(d) for d in t1.dirs] + [[-x for x in d] for d in t2.dirs]
            rhs = [Fraction(a) - Fraction(b) for a, b in zip(t2.point, t1.point)]
            if not cols:
                if all(x.denominator == 1 for x in rhs):
                    raw_points.add(t1.point)
                continue
            a = Matrix.from_columns(cols)
            solved = _solve_congruence(a, rhs)
            if solved is None:
                continue
            sdim, _, reps, _ = solved
            if sdim > 0:
                raise PreconditionError(
                    "positive-dimensional component intersection not supported"
                )
            d1 = t1.direction_matrix()
            for t in reps:
                ambient = list(t1.point)
                if d1 is not None:
                    for r in range(len(ambient)):
                        ambient[r] += sum(
                            d1[r, k] * t[k] for k in range(len(t1.dirs))
                        )
                raw_points.add(reduce_point(ambient))

    out = []
    seen = set()
    for p in raw_points:
        images = sorted({reduce_point(m.apply(p)) for m in mats})
        canonical = images[0]
        if canonical in seen:
            continue
        seen.add(canonical)
        incident = tuple(
            k
            for k, comp in enumerate(comp_translate)
            if any(comp.contains(img) for img in images)
        )
        if len(incident) >= 2:
            out.append((canonical, incident))
    out.sort()
    return tuple(out)
