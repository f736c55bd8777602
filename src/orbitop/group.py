"""Finite groups of exact linear motions of R^{2n} = C^n.

Motions are stored as real 2n x 2n rational matrices so that
conjugate-linear maps are first-class citizens; complex linearity is a
derived property.  Groups are closed element lists with an index-based
multiplication table, immutable after construction.  Closure makes
n * |gens| exact products; the table comes from the generator word of
each element by integer lookups, not from n^2 matrix products.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cayley_form import CAYLEY_FORM_TERMS
from .errors import CapExceededError, PreconditionError, VerificationError
from .exact import Cyclotomic, Matrix

CLOSURE_CAP = 10_000


def complex_structure(dim_real: int) -> Matrix:
    """Block-diagonal rotation by 90 degrees: multiplication by i."""
    if dim_real % 2:
        raise PreconditionError("complex structure needs even dimension")
    m = [[Fraction(0)] * dim_real for _ in range(dim_real)]
    for k in range(dim_real // 2):
        m[2 * k][2 * k + 1] = Fraction(-1)
        m[2 * k + 1][2 * k] = Fraction(1)
    return Matrix(m)


def conjugation_matrix(dim_real: int) -> Matrix:
    """Complex conjugation z_k -> conj(z_k) as a real matrix."""
    m = [[Fraction(0)] * dim_real for _ in range(dim_real)]
    for k in range(dim_real // 2):
        m[2 * k][2 * k] = Fraction(1)
        m[2 * k + 1][2 * k + 1] = Fraction(-1)
    return Matrix(m)


def realify(complex_rows) -> Matrix:
    """Real 2n x 2n matrix of a complex n x n matrix given as (re, im) pairs."""
    n = len(complex_rows)
    m = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for r in range(n):
        for c in range(n):
            a, b = complex_rows[r][c]
            a, b = Fraction(a), Fraction(b)
            m[2 * r][2 * c] = a
            m[2 * r][2 * c + 1] = -b
            m[2 * r + 1][2 * c] = b
            m[2 * r + 1][2 * c + 1] = a
    return Matrix(m)


@dataclass(frozen=True)
class Motion:
    """An invertible exact linear motion of R^{2n}."""

    matrix: Matrix

    def __post_init__(self):
        if self.matrix.rows != self.matrix.cols or self.matrix.rows % 2:
            raise PreconditionError("motion matrix must be square of even size")
        if self.matrix.det() == 0:
            raise PreconditionError("motion matrix must be invertible")

    @classmethod
    def from_complex(cls, complex_rows, conjugate: bool = False) -> "Motion":
        m = realify(complex_rows)
        if conjugate:
            m = m @ conjugation_matrix(m.rows)
        return cls(matrix=m)

    @property
    def dim_real(self) -> int:
        return self.matrix.rows

    @cached_property
    def is_isometry(self) -> bool:
        return self.matrix.T @ self.matrix == Matrix.identity(self.dim_real)

    @cached_property
    def is_complex_linear(self) -> bool:
        j = complex_structure(self.dim_real)
        return self.matrix @ j == j @ self.matrix

    @cached_property
    def is_anti_linear(self) -> bool:
        j = complex_structure(self.dim_real)
        return self.matrix @ j == -(j @ self.matrix)

    def compose(self, other: "Motion") -> "Motion":
        return Motion(matrix=self.matrix @ other.matrix)

    def inverse(self) -> "Motion":
        return Motion(matrix=self.matrix.inverse())

    def complex_matrix(self) -> Matrix:
        """The n x n matrix over Q(i) of a complex-linear motion."""
        if not self.is_complex_linear:
            raise PreconditionError("motion is not complex-linear")
        n = self.dim_real // 2
        rows = []
        for r in range(n):
            rows.append(
                [
                    Cyclotomic.gaussian(
                        self.matrix[2 * r, 2 * c], self.matrix[2 * r + 1, 2 * c]
                    )
                    for c in range(n)
                ]
            )
        return Matrix(rows)


@dataclass(frozen=True)
class FiniteMatrixGroup:
    """A closed finite set of motions with its multiplication table."""

    elements: tuple[Motion, ...]
    table: tuple[tuple[int, ...], ...]
    identity_index: int
    inverse: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def dim_real(self) -> int:
        return self.elements[0].dim_real

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def conjugate(self, g: int, h: int) -> int:
        """Index of g h g^{-1}."""
        return self.mul(self.mul(g, h), self.inverse[g])

    def is_abelian(self) -> bool:
        n = self.order
        return all(
            self.table[i][j] == self.table[j][i]
            for i in range(n)
            for j in range(i + 1, n)
        )

    def element_order(self, i: int) -> int:
        k, cur = 1, i
        while cur != self.identity_index:
            cur = self.mul(cur, i)
            k += 1
        return k


def close(generators, cap: int = CLOSURE_CAP) -> FiniteMatrixGroup:
    """Smallest closed group of motions containing the generators.

    Breadth-first closure makes n * |gens| exact products: each element
    is multiplied on the right by every generator once.  Every element
    after the identity is recorded as a word, its BFS parent times one
    generator, so the multiplication table follows from integer lookups:
    a * b = (a * parent(b)) * gen(b).  A sample of min(n^2, 200) table
    entries is then re-verified by exact products, plus an associativity
    spot check."""
    if not generators:
        raise PreconditionError("need at least one generator")
    dim = generators[0].dim_real
    if any(g.dim_real != dim for g in generators):
        raise PreconditionError("generators must share a dimension")
    if cap < 1:
        raise PreconditionError("cap must be at least 1")
    ident = Motion(matrix=Matrix.identity(dim))
    index = {ident.matrix: 0}
    elements = [ident]
    word = [None]  # word[k] = (parent index, generator index); None for 1
    right = []  # right[k][s] = index of elements[k] * gens[s]
    gens = [g.matrix for g in generators]
    for k, m in enumerate(elements):  # grows while iterating: BFS order
        row = []
        for s, g in enumerate(gens):
            p = m.matrix @ g
            j = index.get(p)
            if j is None:
                if len(elements) >= cap:
                    raise CapExceededError(f"group closure exceeded cap {cap}")
                j = index[p] = len(elements)
                elements.append(Motion(matrix=p))
                word.append((k, s))
            row.append(j)
        right.append(row)
    n = len(elements)
    columns = [list(range(n))]  # columns[b][a] = index of a * b
    for parent, s in word[1:]:
        columns.append([right[a][s] for a in columns[parent]])
    table = tuple(zip(*columns))
    inverse = tuple(row.index(0) for row in table)
    group = FiniteMatrixGroup(
        elements=tuple(elements),
        table=table,
        identity_index=0,
        inverse=inverse,
    )
    _verify_table_sample(group)
    _spot_check_associativity(group)
    return group


def _verify_table_sample(group: FiniteMatrixGroup, samples: int = 200) -> None:
    """Compare min(n^2, samples) table entries with exact products."""
    n = group.order
    pairs = (
        itertools.product(range(n), repeat=2)
        if n * n <= samples
        else ((a, b) for a, b, _ in _sample_triples(n, samples))
    )
    elements = group.elements
    for a, b in pairs:
        product = elements[a].matrix @ elements[b].matrix
        if product != elements[group.mul(a, b)].matrix:
            raise VerificationError(
                f"multiplication table entry ({a}, {b}) disagrees with the product"
            )


def _spot_check_associativity(group: FiniteMatrixGroup, samples: int = 200) -> None:
    n = group.order
    triples = (
        itertools.product(range(n), repeat=3)
        if n**3 <= samples * 8
        else _sample_triples(n, samples)
    )
    for a, b, c in triples:
        if group.mul(group.mul(a, b), c) != group.mul(a, group.mul(b, c)):
            raise VerificationError(
                f"multiplication table is not associative at ({a}, {b}, {c})"
            )


def _sample_triples(n, samples):
    state = 0x9E3779B9
    for _ in range(samples):
        out = []
        for _ in range(3):
            state = (state * 1103515245 + 12345) % (1 << 31)
            out.append(state % n)
        yield tuple(out)


def conjugacy_classes(group: FiniteMatrixGroup) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes as sorted index tuples, identity class first."""
    n = group.order
    seen = set()
    classes = []
    for i in range(n):
        if i in seen:
            continue
        cls = {group.conjugate(g, i) for g in range(n)}
        seen |= cls
        classes.append(tuple(sorted(cls)))
    classes.sort(key=lambda c: (c != (group.identity_index,), len(c), c))
    return tuple(classes)


@dataclass(frozen=True)
class QuotientGroup:
    """G/H for a verified normal subgroup H."""

    parent: FiniteMatrixGroup
    cosets: tuple[tuple[int, ...], ...]
    table: tuple[tuple[int, ...], ...]
    projection: tuple[int, ...]
    identity_coset: int

    @property
    def order(self) -> int:
        return len(self.cosets)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def coset_rep(self, i: int) -> int:
        return self.cosets[i][0]


class NotASubgroupError(PreconditionError):
    pass


class NotNormalError(PreconditionError):
    pass


def normal_and_quotient(group: FiniteMatrixGroup, h_indices) -> QuotientGroup:
    """Verify H is a normal subgroup and build G/H with its projection."""
    h = frozenset(h_indices)
    if group.identity_index not in h:
        raise NotASubgroupError("subgroup must contain the identity")
    for a in h:
        if group.inverse[a] not in h:
            raise NotASubgroupError("subgroup not closed under inverse")
        for b in h:
            if group.mul(a, b) not in h:
                raise NotASubgroupError("subgroup not closed under product")
    for g in range(group.order):
        for a in h:
            if group.conjugate(g, a) not in h:
                raise NotNormalError("subgroup is not normal")
    assigned = {}
    cosets = []
    for g in range(group.order):
        if g in assigned:
            continue
        coset = tuple(sorted(group.mul(g, a) for a in h))
        idx = len(cosets)
        cosets.append(coset)
        for x in coset:
            assigned[x] = idx
    projection = tuple(assigned[g] for g in range(group.order))
    table = tuple(
        tuple(projection[group.mul(c1[0], c2[0])] for c2 in cosets) for c1 in cosets
    )
    quotient = QuotientGroup(
        parent=group,
        cosets=tuple(cosets),
        table=table,
        projection=projection,
        identity_coset=projection[group.identity_index],
    )
    # The projection must be a homomorphism on every pair.
    for a in range(group.order):
        for b in range(group.order):
            if projection[group.mul(a, b)] != quotient.mul(
                projection[a], projection[b]
            ):
                raise VerificationError(
                    f"projection to G/H is not a homomorphism at ({a}, {b})"
                )
    return quotient


def stabilizer(group: FiniteMatrixGroup, point=None, subspace=None) -> tuple[int, ...]:
    """Indices fixing a rational point, or fixing a subspace pointwise
    (the stabilizer of a generic point of that subspace)."""
    if (point is None) == (subspace is None):
        raise PreconditionError("pass exactly one of point or subspace")
    out = []
    for i, motion in enumerate(group.elements):
        if point is not None:
            ok = motion.matrix.apply(point) == tuple(Fraction(x) for x in point)
        else:
            ok = all(
                motion.matrix.apply(v) == tuple(Fraction(x) for x in v)
                for v in subspace
            )
        if ok:
            out.append(i)
    return tuple(out)


@dataclass(frozen=True)
class SuClassification:
    kind: str  # "su" | "u_not_su" | "anti_linear" | "other"
    determinant: Cyclotomic | None

    def in_su(self) -> bool:
        return self.kind == "su"


def su_classify(motion: Motion) -> SuClassification:
    """Exhaustive, mutually exclusive classification of a motion."""
    if motion.is_complex_linear and motion.is_isometry:
        det = motion.complex_matrix().det()
        if det == 1:
            return SuClassification(kind="su", determinant=det)
        return SuClassification(kind="u_not_su", determinant=det)
    if motion.is_anti_linear:
        return SuClassification(kind="anti_linear", determinant=None)
    return SuClassification(kind="other", determinant=None)


def spin7_check(motion: Motion) -> bool:
    """True iff the pullback of the calibration 4-form equals the form,
    compared exactly on all 70 components."""
    if motion.dim_real != 8:
        raise PreconditionError("Spin(7) test requires dimension 8")
    g = motion.matrix
    coeff = {idx: Fraction(c) for idx, c in CAYLEY_FORM_TERMS}
    for target in itertools.combinations(range(1, 9), 4):
        total = Fraction(0)
        for source, c in CAYLEY_FORM_TERMS:
            sub = g.submatrix(
                [s - 1 for s in source], [t - 1 for t in target]
            )
            d = sub.det()
            if d:
                total += c * d
        if total != coeff.get(target, Fraction(0)):
            return False
    return True


def splitting_multiplier(motion: Motion, axis: int = 0) -> Cyclotomic:
    """Scalar by which a complex-linear motion acts on the distinguished
    complex coordinate line (0-based complex index)."""
    if not motion.is_complex_linear:
        raise PreconditionError("splitting multiplier needs a complex-linear motion")
    n = motion.dim_real // 2
    if not 0 <= axis < n:
        raise PreconditionError("axis out of range")
    plane = (2 * axis, 2 * axis + 1)
    for j in range(motion.dim_real):
        col = motion.matrix.column(j)
        inside = [col[i] != 0 for i in plane]
        outside = [
            col[i] != 0 for i in range(motion.dim_real) if i not in plane
        ]
        if j in plane and any(outside):
            raise PreconditionError("motion does not preserve the splitting")
        if j not in plane and any(inside):
            raise PreconditionError("motion does not preserve the splitting")
    # The plane is spanned by e, Je; complex linearity makes the block
    # act as one complex scalar a + bi.
    a = motion.matrix[plane[0], plane[0]]
    b = motion.matrix[plane[1], plane[0]]
    return Cyclotomic.gaussian(a, b)
