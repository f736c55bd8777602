"""Flat tori R^{2n}/L with finite linear actions: fixed-point sets via
lattice congruences and Smith normal form, and the full singular-set
decomposition of the quotient.

Everything runs in lattice coordinates, on Python ints.  Each motion
becomes an integer matrix once per lattice, by integer products with the
basis and its inverse scaled to ints.  A torus point is a vector
of integer numerators over one common denominator N, reduced mod N, so
fixed-point and incidence checks are congruences mod N.  A subtorus
translate is hashed by its direction span and the values that the
integer functionals vanishing on that span take at its point, so equal
translates meet in a dict instead of being compared pairwise.  Fractions
are formed only for the reported points and, once per distinct span,
for its echelon form.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from typing import NamedTuple

from .errors import CapExceededError, PreconditionError, VerificationError
from .exact import Matrix, common_denominator, int_apply, int_product, snf
from .group import FiniteMatrixGroup, Motion

REPRESENTATIVE_CAP = 65_536


class TorusLattice(NamedTuple("TorusLattice", [("basis", Matrix)])):
    """A full-rank lattice in R^{2n}, columns of `basis` generating it."""

    def __new__(cls, basis: Matrix):
        if basis.rows != basis.cols:
            raise PreconditionError("lattice basis must be square")
        if basis.det() == 0:
            raise PreconditionError("lattice basis must be independent")
        return super().__new__(cls, basis)

    @classmethod
    def standard(cls, dim_real: int) -> "TorusLattice":
        return cls(basis=Matrix.identity(dim_real))

    @property
    def rank(self) -> int:
        return self.basis.rows

    @cached_property
    def _integer_change(self):
        """(P, Q, d): int rows with B^-1 M B = P M Q / d for every M, from
        the basis B and its inverse each scaled to ints once."""
        inverse, d_inv = common_denominator(self.basis.inverse().data)
        basis, d_basis = common_denominator(self.basis.data)
        return inverse, basis, d_inv * d_basis


@lru_cache(maxsize=4096)
def lattice_matrix(motion: Motion, lattice: TorusLattice) -> tuple[tuple[int, ...], ...]:
    """The motion's integer matrix in lattice coordinates, as int rows;
    errors if the motion does not preserve the lattice."""
    left, right, d = lattice._integer_change
    d *= motion.den
    m = int_product(int_product(left, motion.rows), right)
    for j, col in enumerate(zip(*m)):
        if any(x % d for x in col):
            raise PreconditionError(
                f"motion does not preserve the lattice: basis vector {j} "
                f"maps to non-integral coordinates {tuple(Fraction(x, d) for x in col)}"
            )
    return tuple(tuple(x // d for x in row) for row in m)


def lattice_matrices(group: FiniteMatrixGroup, lattice: TorusLattice):
    """Integer row tuples of every element in lattice coordinates, in
    element order; errors if some element does not preserve the lattice."""
    return tuple(lattice_matrix(m, lattice) for m in group.elements)


class SubtorusFamily(NamedTuple):
    """Solution set of a lattice congruence: finitely many parallel
    translates of one subtorus."""

    dimension: int
    component_count: int
    representatives: tuple[tuple[Fraction, ...], ...]
    direction: tuple[tuple[int, ...], ...]

    def euler_characteristic(self) -> int:
        return self.component_count if self.dimension == 0 else 0


@lru_cache(maxsize=4096)
def _snf_cached(rows):
    return snf(rows)


def _along(dirs, coeffs, n):
    """The integer vector sum of coeffs[k] * dirs[k] in Z^n."""
    out = [0] * n
    for c, d in zip(coeffs, dirs):
        out = [x + c * y for x, y in zip(out, d)]
    return out


def _canon(nums, den):
    """The torus point nums/den in lowest terms, numerators in [0, den)."""
    nums = tuple(x % den for x in nums)
    g = gcd(den, *nums)
    return tuple(x // g for x in nums), den // g


def _fractions(nums, den):
    return tuple(Fraction(x, den) for x in nums)


def _solve_congruence(a, rhs=None):
    """Solve A x = rhs (mod Z^m) for x in the torus R^n/Z^n, m >= n.

    A is a tuple of int rows; rhs is None (zero) or (numerators, q).
    Returns (dimension, count, N, representatives, directions), each
    representative an int vector x with x/N a solution, reduced mod N,
    in increasing order; or None when the congruence is infeasible (only
    possible with nonzero rhs).  Every representative is re-checked
    against A x = rhs on integers.
    """
    m, n = len(a), len(a[0])
    if m < n:
        raise PreconditionError("congruence solver expects m >= n")
    dec = _snf_cached(a)
    factors = dec.invariant_factors
    rank = dec.rank
    if rhs is None:
        rhs_nums, q = (0,) * m, 1
    else:
        rhs_nums, q = rhs
    w = int_apply(dec.U, rhs_nums)
    if any(x % q for x in w[rank:]):
        return None
    count = prod(factors[:rank])
    if count > REPRESENTATIVE_CAP:
        raise CapExceededError(
            f"congruence has {count} components, over cap {REPRESENTATIVE_CAP}"
        )
    # y_i = (w_i / q + s) / d_i for s in 0..d_i-1, as numerators over N.
    big_n = q * lcm(*factors[:rank])
    choices = [
        [(w[i] + s * q) * (big_n // (q * d)) for s in range(d)]
        for i, d in enumerate(factors[:rank])
    ]
    v_cols = list(zip(*dec.V))[:rank]
    reps = sorted(
        tuple(x % big_n for x in _along(v_cols, combo, n))
        for combo in itertools.product(*choices)
    )
    scale = big_n // q
    for x in reps:
        lhs = int_apply(a, x)
        if any((y - r * scale) % big_n for y, r in zip(lhs, rhs_nums)):
            raise VerificationError("congruence representative fails A x = rhs")
    directions = tuple(tuple(row[j] for row in dec.V) for j in range(rank, n))
    return n - rank, count, big_n, tuple(reps), directions


def _family(solved) -> SubtorusFamily:
    dim, count, big_n, reps, dirs = solved
    # N divides the component count, so this table is the smaller loop.
    table = [Fraction(k, big_n) for k in range(big_n)]
    return SubtorusFamily(
        dimension=dim,
        component_count=count,
        representatives=tuple(tuple(table[k] for k in x) for x in reps),
        direction=dirs,
    )


def _minus_identity(rows):
    return tuple(
        tuple(x - (i == j) for j, x in enumerate(row)) for i, row in enumerate(rows)
    )


def fixed_set(motion: Motion, lattice: TorusLattice) -> SubtorusFamily:
    """Solutions of (g - 1) x = 0 (mod lattice), as translates of a subtorus."""
    return _family(_solve_congruence(_minus_identity(lattice_matrix(motion, lattice))))


def common_fixed_set(motions, lattice: TorusLattice) -> SubtorusFamily:
    """Simultaneous fixed set of several motions (stacked congruence)."""
    if not motions:
        raise PreconditionError("need at least one motion")
    stacked = tuple(
        row
        for m in motions
        for row in _minus_identity(lattice_matrix(m, lattice))
    )
    return _family(_solve_congruence(stacked))


# ---------------------------------------------------------------------------
# Singular set machinery


@lru_cache(maxsize=4096)
def _span_key(dirs):
    """The rational span of integer vectors in a canonical form: its
    reduced row echelon basis, each row cleared of denominators."""
    if not dirs:
        return ()
    reduced, _ = Matrix(dirs).rref()
    out = []
    for row in reduced.data:
        k = lcm(*(x.denominator for x in row))
        out.append(tuple(int(x * k) for x in row))
    return tuple(out)


@lru_cache(maxsize=4096)
def _annihilator(span, n):
    """A basis of the integer functionals vanishing on the span: the
    trailing rows of U in the Smith form of the span's columns."""
    if not span:
        return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    dec = _snf_cached(tuple(zip(*span)))
    return dec.U[len(span):]


class _Translate:
    """One subtorus translate in lattice coordinates: the point nums/den
    plus integer directions.  `key` is equal for two translates exactly
    when they are the same subset of the torus."""

    __slots__ = ("nums", "den", "dirs", "span", "key")

    def __init__(self, nums, den, dirs):
        self.nums, self.den = _canon(nums, den)
        self.dirs = tuple(dirs)
        self.span = _span_key(self.dirs)
        self.key = (self.span, self.values(self.nums, self.den))

    @property
    def dimension(self):
        return len(self.dirs)

    @property
    def annihilator(self):
        return _annihilator(self.span, len(self.nums))

    def values(self, nums, den):
        """Where the point nums/den sits across this translate's parallels."""
        return _canon(int_apply(self.annihilator, nums), den)

    def contains(self, nums, den) -> bool:
        """Whether the point nums/den lies on this translate."""
        return self.values(nums, den) == self.key[1]

    def contained_in(self, bigger: "_Translate") -> bool:
        if self.dimension > bigger.dimension:
            return False
        ann = bigger.annihilator
        if any(any(int_apply(ann, d)) for d in self.dirs):
            return False
        return bigger.contains(self.nums, self.den)

    def image(self, m) -> "_Translate":
        dirs = [int_apply(m, d) for d in self.dirs]
        return _Translate(int_apply(m, self.nums), self.den, dirs)


class SingularComponent(NamedTuple):
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


class SingularSetReport(NamedTuple):
    components: tuple[SingularComponent, ...]
    intersection_points: tuple[tuple[tuple[Fraction, ...], tuple[int, ...]], ...]

    def count_by_label(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for c in self.components:
            out[c.quotient_label] = out.get(c.quotient_label, 0) + 1
        return out


def _affine_action(m, comp: _Translate):
    """The map induced on the component torus: t -> A t + b (mod Z^d),
    as (A, numerators of b, their denominator).  The denominator is the
    same for every motion acting on one component."""
    dec = _snf_cached(tuple(zip(*comp.dirs)))  # directions as columns
    rank = comp.dimension
    factors = dec.invariant_factors
    cols = []
    for d in comp.dirs:
        w = int_apply(dec.U, int_apply(m, d))
        if any(w[rank:]):
            raise PreconditionError("vector not in component span")
        if any(x % f for x, f in zip(w, factors)):
            raise VerificationError("direction action not integral")
        cols.append(int_apply(dec.V, [x // f for x, f in zip(w, factors)]))
    a = tuple(zip(*cols))
    shift = [x - y for x, y in zip(int_apply(m, comp.nums), comp.nums)]
    w = int_apply(dec.U, shift)
    if any(x % comp.den for x in w[rank:]):
        raise VerificationError("shift leaves the component")
    ell = lcm(*factors)
    den = comp.den * ell
    b = int_apply(dec.V, [x * (ell // f) for x, f in zip(w, factors)])
    return a, tuple(x % den for x in b), den


def _compose_affine(f, g):
    a1, b1, den = f
    a2, b2, _ = g
    a = tuple(tuple(int_apply(a1, col)) for col in zip(*a2))
    b = tuple((x + y) % den for x, y in zip(int_apply(a1, b2), b1))
    return tuple(zip(*a)), b, den


def singular_set(group: FiniteMatrixGroup, lattice: TorusLattice) -> SingularSetReport:
    """Decompose the singular set of T/G into labeled components with
    stabilizers, special points, and intersection points."""
    mats = lattice_matrices(group, lattice)

    translates: dict = {}  # key -> translate, in first-found order
    for i, motion in enumerate(group.elements):
        if i == group.identity_index:
            continue
        fam = fixed_set(motion, lattice)
        for rep in fam.representatives:
            den = lcm(*(x.denominator for x in rep))
            nums = [x.numerator * (den // x.denominator) for x in rep]
            cand = _Translate(nums, den, fam.direction)
            translates.setdefault(cand.key, cand)

    # Keep only maximal translates; lower strata reappear as special points.
    found = list(translates.values())
    maximal = [
        t
        for t in found
        if not any(
            t is not other and t.contained_in(other) and not other.contained_in(t)
            for other in found
        )
    ]
    index = {t.key: k for k, t in enumerate(maximal)}

    # Group the maximal translates into G-orbits.
    orbit_of = {}
    orbits: list[list[int]] = []
    for idx in range(len(maximal)):
        if idx in orbit_of:
            continue
        orbit = {idx}
        frontier = [idx]
        while frontier:
            cur = frontier.pop()
            for m in mats:
                jdx = index.get(maximal[cur].image(m).key)
                if jdx is not None and jdx not in orbit:
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
        for i, m in enumerate(mats):
            if comp.image(m).key != comp.key:
                continue
            normalizer.append(i)
            if all(int_apply(m, d) == d for d in comp.dirs) and all(
                (x - y) % comp.den == 0
                for x, y in zip(int_apply(m, comp.nums), comp.nums)
            ):
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
                representative=_fractions(comp.nums, comp.den),
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
    a, b, den = action
    n = len(b)
    ident = (
        tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
        (0,) * n,
        den,
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
    for (a, b, den) in actions:
        if a == ident_a and not any(b):
            continue
        solved = _solve_congruence(_minus_identity(a), (tuple(-x for x in b), den))
        if solved is None:
            continue
        sdim, _, t_den, reps, _ = solved
        if sdim > 0:
            continue  # fixed locus of this coset is positive-dimensional
        for t in reps:
            offset = _along(comp.dirs, t, len(comp.nums))
            ambient = [x * t_den + comp.den * y for x, y in zip(comp.nums, offset)]
            points.add(_fractions(*_canon(ambient, comp.den * t_den)))
    return tuple(sorted(points))


def _intersection_points(maximal, mats, comp_translate):
    """Isolated points where two distinct quotient components meet."""
    raw_points = set()
    for i in range(len(maximal)):
        for j in range(i + 1, len(maximal)):
            t1, t2 = maximal[i], maximal[j]
            if t1.span == t2.span:
                continue  # distinct parallel translates (or points) are disjoint
            cols = t1.dirs + tuple(tuple(-x for x in d) for d in t2.dirs)
            q = lcm(t1.den, t2.den)
            rhs = tuple(
                y * (q // t2.den) - x * (q // t1.den)
                for x, y in zip(t1.nums, t2.nums)
            )
            solved = _solve_congruence(tuple(zip(*cols)), (rhs, q))
            if solved is None:
                continue
            sdim, _, s_den, reps, _ = solved
            if sdim > 0:
                raise PreconditionError(
                    "positive-dimensional component intersection not supported"
                )
            for s in reps:
                offset = _along(t1.dirs, s, len(t1.nums))
                ambient = [x * s_den + t1.den * y for x, y in zip(t1.nums, offset)]
                raw_points.add(_canon(ambient, t1.den * s_den))

    # Components by key, looked up once per distinct span.
    by_key = {t.key: k for k, t in enumerate(comp_translate)}
    spans = {t.span: t for t in comp_translate}
    out = []
    seen = set()
    for nums, den in raw_points:
        # Motions are unimodular, so every image keeps the denominator.
        images = sorted({tuple(x % den for x in int_apply(m, nums)) for m in mats})
        canonical = images[0]
        if canonical in seen:
            continue
        seen.add(canonical)
        incident = set()
        for span, t in spans.items():
            for img in images:
                k = by_key.get((span, t.values(img, den)))
                if k is not None:
                    incident.add(k)
        if len(incident) >= 2:
            out.append((_fractions(canonical, den), tuple(sorted(incident))))
    out.sort()
    return tuple(out)
