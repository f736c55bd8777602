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
translates meet in a dict instead of being compared pairwise.  A fixed
set is one int record, `SubtorusFamily`: its points as numerators over
one N, and its directions.  Fractions are formed only for the reported
points and, once per distinct span, for its echelon form.

The singular set is read off the fixed sets of subgroups, each solved
once (T^g & T^h = T^<g,h>).  A maximal translate inside Fix(g) is a
component of Fix(g), so a component's pointwise stabilizer S is the
identity plus the elements whose fixed sets have it as a component.  Its
label comes from the orders of the cosets of S in its normalizer, found
in the Cayley table; its special points are those of each finite
Fix(<S, g>) on it, gS != S; and the points of each finite Fix(<S1, S2>),
S1 != S2, are the candidates where two components meet.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from typing import NamedTuple

from .errors import CapExceededError, PreconditionError, VerificationError
from .exact import Matrix, common_denominator, int_apply, int_product, snf
from .group import FiniteMatrixGroup, Motion, generated, order_modulo

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

    def ambient(self, vector) -> tuple[int, ...]:
        """B v times a positive int, for v in lattice coordinates."""
        return int_apply(self._integer_change[1], vector)


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
    translates of one subtorus, in int form.  The translates pass through
    the points x / den, x in `points`, and run along `direction`."""

    dimension: int
    component_count: int
    den: int
    points: tuple[tuple[int, ...], ...]
    direction: tuple[tuple[int, ...], ...]

    @property
    def representatives(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(_fractions(x, self.den) for x in self.points)

    def euler_characteristic(self) -> int:
        return self.component_count if self.dimension == 0 else 0


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
    Returns the solutions as a SubtorusFamily over N, each point an int
    vector x with x/N a solution, reduced mod N, in increasing order; or
    None when the congruence is infeasible (only possible with nonzero
    rhs).  Every point is re-checked against A x = rhs on integers.
    """
    m, n = len(a), len(a[0])
    if m < n:
        raise PreconditionError("congruence solver expects m >= n")
    dec = snf(a)
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
    v_left = [row[:rank] for row in dec.V]
    reps = sorted(
        tuple(x % big_n for x in int_apply(v_left, combo))
        for combo in itertools.product(*choices)
    )
    scale = big_n // q
    for x in reps:
        lhs = int_apply(a, x)
        if any((y - r * scale) % big_n for y, r in zip(lhs, rhs_nums)):
            raise VerificationError("congruence representative fails A x = rhs")
    directions = tuple(tuple(row[j] for row in dec.V) for j in range(rank, n))
    return SubtorusFamily(n - rank, count, big_n, tuple(reps), directions)


def _shifts(mats):
    """The rows of m - 1 for every int matrix m, stacked: the congruence
    whose solutions are the common fixed points."""
    return tuple(
        tuple(x - (i == j) for j, x in enumerate(row))
        for m in mats
        for i, row in enumerate(m)
    )


def fixed_set(motion: Motion, lattice: TorusLattice) -> SubtorusFamily:
    """Solutions of (g - 1) x = 0 (mod lattice), as translates of a subtorus."""
    return _solve_congruence(_shifts([lattice_matrix(motion, lattice)]))


def common_fixed_set(motions, lattice: TorusLattice) -> SubtorusFamily:
    """Simultaneous fixed set of several motions (stacked congruence)."""
    if not motions:
        raise PreconditionError("need at least one motion")
    mats = [lattice_matrix(m, lattice) for m in motions]
    return _solve_congruence(_shifts(mats))


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
    dec = snf(tuple(zip(*span)))
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
        self.key = self.parallel_key(self.nums, self.den)

    @property
    def dimension(self):
        return len(self.dirs)

    @property
    def annihilator(self):
        return _annihilator(self.span, len(self.nums))

    def parallel_key(self, nums, den):
        """The key of the translate parallel to this one through the point
        nums/den: the span and where the point sits across its parallels."""
        return self.span, _canon(int_apply(self.annihilator, nums), den)

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
    lattice: TorusLattice

    def count_by_label(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for c in self.components:
            out[c.quotient_label] = out.get(c.quotient_label, 0) + 1
        return out


def singular_set(group: FiniteMatrixGroup, lattice: TorusLattice) -> SingularSetReport:
    """Decompose the singular set of T/G into labeled components with
    stabilizers, special points, and intersection points."""
    mats = lattice_matrices(group, lattice)
    solved: dict = {}  # subgroup -> its fixed set

    def fix(gens):
        """(H, Fix(H)) for H = <gens>, solved once per subgroup from the
        stacked (h - 1) rows of the generators."""
        key = generated(group.table, gens)
        if key not in solved:
            solved[key] = _solve_congruence(_shifts(mats[i] for i in gens))
        return key, solved[key]

    translates: dict = {}  # key -> translate, in first-found order
    fixing: dict = {}  # key -> identity and elements with it as a fixed component
    for i in range(group.order):
        if i != group.identity_index:
            _, fam = fix((i,))
            for nums in fam.points:
                cand = _Translate(nums, fam.den, fam.direction)
                translates.setdefault(cand.key, cand)
                fixing.setdefault(cand.key, {group.identity_index}).add(i)

    # Keep only maximal translates; lower strata reappear as special points.
    # t lies in a wider translate of span S exactly when S holds t's
    # directions and the parallel of S through t's point was found.
    spans = {t.span: t for t in translates.values()}.values()
    maximal = [
        t
        for t in translates.values()
        if not any(
            s.dimension > t.dimension
            and not any(any(int_apply(s.annihilator, d)) for d in t.dirs)
            and s.parallel_key(t.nums, t.den) in translates
            for s in spans
        )
    ]
    index = {t.key: k for k, t in enumerate(maximal)}

    on: dict = {}  # (subgroup, span) -> {translate key: points of Fix(subgroup)}

    def points_on(t, fixed):
        """The points of a finite Fix(H) on the translate t."""
        key, fam = fixed
        if fam.dimension:
            return ()
        if (key, t.span) not in on:
            by_key = on[key, t.span] = {}
            for x in fam.points:
                p = _canon(x, fam.den)
                by_key.setdefault(t.parallel_key(*p), []).append(p)
        return on[key, t.span].get(t.key, ())

    # G permutes the maximal translates, so the images of the first
    # unplaced one under every element are its whole orbit, and the
    # elements that fix its key are its normalizer.
    placed = set()
    components = []
    orbits = []
    for idx, comp in enumerate(maximal):
        if idx in placed:
            continue
        orbit, normalizer, stab = set(), [], []
        for i, m in enumerate(mats):
            image = comp.image(m)
            jdx = index.get(image.key)
            if jdx is None:
                raise VerificationError(
                    f"element {i} maps a maximal translate off the list"
                )
            orbit.add(jdx)
            if jdx == idx:
                normalizer.append(i)
                # Fixed pointwise: the point mod Z^n (m is unimodular, so
                # the denominator stays) and every direction.
                if image.nums == comp.nums and image.dirs == comp.dirs:
                    stab.append(i)
        placed |= orbit
        # A maximal translate inside Fix(g) is a component of Fix(g), as a
        # wider one would contain it, so the elements that found it are
        # its pointwise stabilizer.
        kernel = frozenset(stab)
        if kernel != fixing[comp.key]:
            raise VerificationError("pointwise stabilizer disagrees with fixed sets")
        if comp.dirs:
            # The pointwise stabilizer S is the kernel of the action on
            # the component, so N/S acts faithfully: one element per coset
            # gives every action, and its order is the coset's order.
            cosets = []
            covered = set()
            for i in normalizer:
                if i not in covered:
                    covered.update(group.table[i][j] for j in stab)
                    cosets.append(i)
            label = _quotient_label(
                comp.dimension,
                [order_modulo(group.table, i, kernel) for i in cosets],
            )
            # Near the component Fix(S) is the component, so g's fixed
            # locus on it is the part of Fix(<S, g>) on it.
            special = tuple(sorted({
                _fractions(*p)
                for g in cosets
                if g not in kernel
                for p in points_on(comp, fix((*kernel, g)))
            }))
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
        orbits.append(orbit)

    order = sorted(
        range(len(components)),
        key=lambda k: (
            components[k].quotient_label,
            -components[k].dimension,
            components[k].representative,
        ),
    )
    components = [components[k] for k in order]
    comp_of = {jdx: rank for rank, k in enumerate(order) for jdx in orbits[k]}

    points = _intersection_points(maximal, fixing, fix, mats, comp_of)
    return SingularSetReport(
        components=tuple(components), intersection_points=points, lattice=lattice
    )


def _quotient_label(dim, orders):
    """The label of T^dim / K from the orders of K's elements."""
    q = len(orders)
    if q == 1:
        return f"T{dim}"
    orders = sorted(orders)
    if max(orders) == q:
        return f"T{dim}/Z{q}"
    if q == 4 and orders == [1, 2, 2, 2]:
        return f"T{dim}/Z2xZ2"
    return "unclassified"


def _intersection_points(maximal, fixing, fix, mats, comp_of):
    """Isolated points where two distinct quotient components meet.

    Translates t1 != t2 that meet have pointwise stabilizers S1 != S2, as
    the components of one Fix(S) are disjoint, and near a point of t1 & t2
    the set Fix(<S1, S2>) is t1 & t2.  So the points of each finite
    Fix(<S1, S2>) are the candidates, and a positive-dimensional one with
    a component on both a t1 and a t2 is an intersection along a subtorus."""
    stabilizer = {t.key: frozenset(fixing[t.key]) for t in maximal}
    comp_by_key = {t.key: comp_of[k] for k, t in enumerate(maximal)}
    spans = {t.span: t for t in maximal}.values()

    def through(nums, den):
        """The keys of the maximal translates through nums/den: a point
        lies on at most one translate of each span."""
        return {t.parallel_key(nums, den) for t in spans} & comp_by_key.keys()

    raw_points = set()
    for s1, s2 in itertools.combinations(set(stabilizer.values()), 2):
        _, fam = fix(tuple(sorted(s1 | s2)))
        points = {_canon(x, fam.den) for x in fam.points}
        if not fam.dimension:
            raw_points |= points
        elif any({s1, s2} <= {stabilizer[k] for k in through(*p)} for p in points):
            raise PreconditionError(
                "positive-dimensional component intersection not supported"
            )

    out = []
    seen = set()
    for nums, den in raw_points:
        if (nums, den) in seen:
            continue
        # Motions are unimodular, so every image keeps the denominator.
        images = {tuple(x % den for x in int_apply(m, nums)) for m in mats}
        seen.update((img, den) for img in images)
        incident = {comp_by_key[k] for k in through(nums, den)}
        if len(incident) >= 2:
            out.append((_fractions(min(images), den), tuple(sorted(incident))))
    out.sort()
    return tuple(out)
