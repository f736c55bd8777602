"""Finite groups of exact linear motions of R^{2n} = C^n.

A motion is a real 2n x 2n rational matrix, stored as int rows over one
positive denominator in lowest terms, so conjugate-linear maps are
first-class citizens and complex linearity is a derived property,
tested on ints against the int rows of multiplication by i.  Groups are
closed element lists with an index-based multiplication table, immutable
after construction.  Closure makes n * |gens| integer products; the
table comes from the generator word of each element by integer lookups,
not from n^2 matrix products.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from typing import NamedTuple

from .cayley_form import CAYLEY_FORM_TERMS
from .errors import CapExceededError, PreconditionError, VerificationError
from .exact import (
    MAX_DIM,
    Cyclotomic,
    common_denominator,
    int_apply,
    int_det,
    int_product,
)

CLOSURE_CAP = 10_000


def _lowest_terms(rows, den):
    """rows / den as int rows over a positive denominator with no factor
    shared by every entry."""
    g = gcd(den, *itertools.chain.from_iterable(rows))
    if den < 0:
        g = -g
    if g != 1:
        rows = tuple(tuple(x // g for x in row) for row in rows)
        den //= g
    return rows, den


@lru_cache(maxsize=None)
def _times_i(dim_real: int):
    """Int rows of multiplication by i: the rotation by 90 degrees of
    each coordinate plane (x_{2k}, x_{2k+1})."""
    rows = [[0] * dim_real for _ in range(dim_real)]
    for k in range(0, dim_real, 2):
        rows[k][k + 1] = -1
        rows[k + 1][k] = 1
    return tuple(map(tuple, rows))


class Motion(
    NamedTuple("Motion", [("rows", tuple[tuple[int, ...], ...]), ("den", int)])
):
    """An invertible exact linear motion of R^{2n}: the rational matrix
    rows / den.  Construction brings the fraction to lowest terms with
    den > 0, so equality and hashing are those of the rational matrix."""

    def __new__(cls, rows, den: int = 1):
        rows = tuple(map(tuple, rows))
        size = len(rows)
        if size > MAX_DIM:
            raise CapExceededError(f"motion size {size}x{size} exceeds cap {MAX_DIM}")
        if not size or size % 2 or any(len(row) != size for row in rows):
            raise PreconditionError("motion matrix must be square of even size")
        if type(den) is not int or den == 0 or not all(
            type(x) is int for row in rows for x in row
        ):
            raise PreconditionError("motion needs int rows over a nonzero int denominator")
        rows, den = _lowest_terms(rows, den)
        if int_det(rows) == 0:
            raise PreconditionError("motion matrix must be invertible")
        return super().__new__(cls, rows, den)

    @classmethod
    def identity(cls, dim_real: int) -> "Motion":
        return cls(
            tuple(tuple(int(i == j) for j in range(dim_real)) for i in range(dim_real))
        )

    @classmethod
    def from_rational(cls, rows) -> "Motion":
        """The motion whose entries are these rationals (Fractions or ints)."""
        return cls(*common_denominator(rows))

    @classmethod
    def from_complex(cls, complex_rows, conjugate: bool = False) -> "Motion":
        """The real form of z -> A z, or of z -> A conj(z) when conjugate,
        for a complex n x n matrix A given as rows of (re, im) pairs."""
        n = len(complex_rows)
        real = [[0] * (2 * n) for _ in range(2 * n)]
        for r in range(n):
            for c in range(n):
                a, b = complex_rows[r][c]
                real[2 * r][2 * c : 2 * c + 2] = a, -b
                real[2 * r + 1][2 * c : 2 * c + 2] = b, a
        if conjugate:  # conj negates every second real coordinate
            for row in real:
                row[1::2] = [-x for x in row[1::2]]
        return cls.from_rational(real)

    @property
    def dim_real(self) -> int:
        return len(self.rows)

    @cached_property
    def is_isometry(self) -> bool:
        gram = int_product(tuple(zip(*self.rows)), self.rows)
        square = self.den * self.den
        return all(
            x == (square if i == j else 0)
            for i, row in enumerate(gram)
            for j, x in enumerate(row)
        )

    @cached_property
    def is_complex_linear(self) -> bool:
        j = _times_i(self.dim_real)
        return int_product(self.rows, j) == int_product(j, self.rows)

    @cached_property
    def is_anti_linear(self) -> bool:
        j = _times_i(self.dim_real)
        left, right = int_product(self.rows, j), int_product(j, self.rows)
        return all(x == -y for a, b in zip(left, right) for x, y in zip(a, b))


def _product(a: Motion, b: Motion):
    """(rows, den) of the product a b in lowest terms."""
    return _lowest_terms(int_product(a.rows, b.rows), a.den * b.den)


class FiniteMatrixGroup(NamedTuple):
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
        return order_modulo(self.table, i, (self.identity_index,))


def order_modulo(table, i: int, subgroup) -> int:
    """The least k >= 1 with i^k in the subgroup, by right products in
    the Cayley table: the order of the coset of i in N/S when S is normal
    in a group N holding i.  As i^|G| = 1, some k <= |G| reaches any
    subgroup; the search stops there and errors on a set without the
    identity or a corrupted table."""
    cur = i
    for k in range(1, len(table) + 1):
        if cur in subgroup:
            return k
        cur = table[cur][i]
    raise VerificationError(
        f"no power of element {i} up to |G| = {len(table)} lies in the subgroup"
    )


def generated(table, gens) -> frozenset[int]:
    """<gens>: the generators closed under right products by them, in
    the Cayley table (G is finite, so this reaches the identity)."""
    out, new = set(), set(gens)
    while new:
        out |= new
        new = {table[x][y] for x in new for y in gens} - out
    return frozenset(out)


def close(generators, cap: int = CLOSURE_CAP) -> FiniteMatrixGroup:
    """Smallest closed group of motions containing the generators.

    Breadth-first closure makes n * |gens| integer products: each element
    is multiplied on the right by every generator once.  Every element
    after the identity is recorded as a word, its BFS parent times one
    generator, so the multiplication table follows from integer lookups:
    a * b = (a * parent(b)) * gen(b).  A sample of min(n^2, 200) table
    entries is then re-verified by one packed integer product each, plus
    an associativity spot check."""
    if not generators:
        raise PreconditionError("need at least one generator")
    dim = generators[0].dim_real
    if any(g.dim_real != dim for g in generators):
        raise PreconditionError("generators must share a dimension")
    if cap < 1:
        raise PreconditionError("cap must be at least 1")
    ident = Motion.identity(dim)
    index = {(ident.rows, ident.den): 0}
    elements = [ident]
    word = [None]  # word[k] = (parent index, generator index); None for 1
    right = []  # right[k][s] = index of elements[k] * generators[s]
    for k, m in enumerate(elements):  # grows while iterating: BFS order
        row = []
        for s, g in enumerate(generators):
            p = _product(m, g)
            j = index.get(p)
            if j is None:
                if len(elements) >= cap:
                    raise CapExceededError(f"group closure exceeded cap {cap}")
                j = index[p] = len(elements)
                elements.append(Motion(*p))
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
    """Compare min(n^2, samples) table entries a b = c with exact
    products, one packed product per entry.  Each element M is packed
    once into M v, v = (1, t, ..., t^(d-1)); then a b = c exactly when
    c.den A (B v) = a.den b.den C v, since t is above twice every entry
    of c.den A B and of a.den b.den C, and a sum of powers of t with
    such digits is zero only when every digit is."""
    n = group.order
    pairs = (
        itertools.product(range(n), repeat=2)
        if n * n <= samples
        else ((a, b) for a, b, _ in _sample_triples(n, samples))
    )
    elements = group.elements
    d = group.dim_real
    entry = max(abs(x) for m in elements for row in m.rows for x in row)
    den = max(m.den for m in elements)
    t = 2 * d * (den * entry) ** 2 + 1
    v = [t**j for j in range(d)]
    packed = [int_apply(m.rows, v) for m in elements]
    for a, b in pairs:
        c = group.mul(a, b)
        left, right = elements[a], elements[b]
        scale = left.den * right.den
        den_c = elements[c].den
        if any(
            den_c * x != scale * y
            for x, y in zip(int_apply(left.rows, packed[b]), packed[c])
        ):
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


class QuotientGroup(NamedTuple):
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
    # Each vector scaled to ints: rows / den fixes v when rows v == den v.
    vectors = [
        common_denominator((v,))[0][0]
        for v in ((point,) if point is not None else subspace)
    ]
    if any(len(v) != group.dim_real for v in vectors):
        raise PreconditionError("vector length mismatch")
    return tuple(
        i
        for i, m in enumerate(group.elements)
        if all(int_apply(m.rows, v) == tuple(m.den * x for x in v) for v in vectors)
    )


class SuClassification(NamedTuple):
    kind: str  # "su" | "u_not_su" | "anti_linear" | "other"
    determinant: Cyclotomic | None

    def in_su(self) -> bool:
        return self.kind == "su"


def _gaussian_det(rows) -> tuple[int, int]:
    """Determinant over Z[i] of (re, im) int pair entries by Bareiss
    elimination, as in `int_det`: each division by the previous pivot q
    is exact, so it is the product with conj(q) floor-divided by |q|^2."""
    a = [list(row) for row in rows]
    k = len(a)
    sign, (qr, qi) = 1, (1, 0)
    for i in range(k - 1):
        if a[i][i] == (0, 0):
            swap = next((r for r in range(i + 1, k) if a[r][i] != (0, 0)), None)
            if swap is None:
                return 0, 0
            a[i], a[swap] = a[swap], a[i]
            sign = -sign
        (pr, pi), norm = a[i][i], qr * qr + qi * qi
        for ar in a[i + 1 :]:
            fr, fi = ar[i]
            for c in range(i + 1, k):
                (xr, xi), (yr, yi) = ar[c], a[i][c]
                nr = xr * pr - xi * pi - fr * yr + fi * yi  # x p - f y
                ni = xr * pi + xi * pr - fr * yi - fi * yr
                ar[c] = ((nr * qr + ni * qi) // norm, (ni * qr - nr * qi) // norm)
        qr, qi = pr, pi
    re, im = a[-1][-1]
    return sign * re, sign * im


def su_classify(motion: Motion) -> SuClassification:
    """Exhaustive, mutually exclusive classification of a motion; the
    complex determinant is taken on Gaussian integer rows over den^n."""
    if motion.is_complex_linear and motion.is_isometry:
        rows, n = motion.rows, motion.dim_real // 2
        re, im = _gaussian_det(
            [[(rows[2 * r][c], rows[2 * r + 1][c]) for c in range(0, 2 * n, 2)]
             for r in range(n)]
        )
        scale = motion.den**n
        det = Cyclotomic.gaussian(Fraction(re, scale), Fraction(im, scale))
        kind = "su" if (re, im) == (scale, 0) else "u_not_su"
        return SuClassification(kind=kind, determinant=det)
    if motion.is_anti_linear:
        return SuClassification(kind="anti_linear", determinant=None)
    return SuClassification(kind="other", determinant=None)


def spin7_check(motion: Motion) -> bool:
    """True iff the pullback of the calibration 4-form equals the form,
    compared exactly on all 70 components: the 4 x 4 minors of rows / den
    are those of rows over den^4."""
    if motion.dim_real != 8:
        raise PreconditionError("Spin(7) test requires dimension 8")
    rows = motion.rows
    scale = motion.den**4
    coeff = dict(CAYLEY_FORM_TERMS)
    for target in itertools.combinations(range(8), 4):
        total = sum(
            c * int_det([[rows[s - 1][t] for t in target] for s in source])
            for source, c in CAYLEY_FORM_TERMS
        )
        if total != coeff.get(tuple(t + 1 for t in target), 0) * scale:
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
    rows = motion.rows
    for j in range(motion.dim_real):
        inside = [rows[i][j] != 0 for i in plane]
        outside = [
            rows[i][j] != 0 for i in range(motion.dim_real) if i not in plane
        ]
        if j in plane and any(outside):
            raise PreconditionError("motion does not preserve the splitting")
        if j not in plane and any(inside):
            raise PreconditionError("motion does not preserve the splitting")
    # The plane is spanned by e, Je; complex linearity makes the block
    # act as one complex scalar a + bi.
    a = Fraction(rows[plane[0]][plane[0]], motion.den)
    b = Fraction(rows[plane[1]][plane[0]], motion.den)
    return Cyclotomic.gaussian(a, b)
