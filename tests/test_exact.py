"""Exact arithmetic: cyclotomics, matrices, Smith normal form."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, ZZ, Poly, Rational, Symbol, cyclotomic_poly, invert
from sympy import Matrix as SympyMatrix
from sympy.matrices.normalforms import smith_normal_form

from orbitop.errors import CapExceededError, FieldDivisionError, PreconditionError
from orbitop.exact import (
    Cyclotomic,
    Matrix,
    int_echelon,
    int_kernel,
    int_product,
    integer_coefficients,
    snf,
    totient,
)


# --- Smith normal form -----------------------------------------------------


def test_snf_already_diagonal():
    d = snf(((2, 0), (0, 2)))
    assert d.invariant_factors == (2, 2)


def test_snf_gaussian_rotation_block():
    m = ((-1, -1), (1, -1))
    d = snf(m)
    assert d.invariant_factors == (1, 2)
    # Oracle: re-verify the transform and the determinant by direct
    # multiplication, independent of the algorithm's bookkeeping.
    assert int_product(int_product(d.U, m), d.V) == d.D
    assert abs(Matrix(m).det()) == 2
    assert abs(d.D[0][0] * d.D[1][1]) == 2


def test_snf_zero_matrix():
    assert snf(((0, 0), (0, 0))).invariant_factors == (0, 0)


def _random_int_rows(rng, rows, cols, bound=5):
    return tuple(
        tuple(rng.randint(-bound, bound) for _ in range(cols)) for _ in range(rows)
    )


def _random_int_matrix(rng, rows, cols, bound=5):
    return Matrix(_random_int_rows(rng, rows, cols, bound))


def test_snf_randomized_invariants():
    rng = random.Random(20240)
    for _ in range(60):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = _random_int_rows(rng, rows, cols)
        d = snf(m)
        assert abs(Matrix(d.U).det()) == 1
        assert abs(Matrix(d.V).det()) == 1
        assert int_product(int_product(d.U, m), d.V) == d.D
        factors = d.invariant_factors
        assert all(f >= 0 for f in factors)
        nonzero = [f for f in factors if f != 0]
        # zeros trail, and each nonzero factor divides the next
        assert list(factors[: len(nonzero)]) == nonzero
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0


@st.composite
def _int_matrices(draw):
    """Integer matrices with negative entries and some rows zeroed; half
    are the stacked 2n x n shape of a common-fixed-set congruence.

    Entries stay in [-2, 2], the range of g - 1 on the bundled tori.
    From [-3, 3] on, the transform entries of this SNF can grow to 10^5
    bits and one call take seconds: a known growth defect of the pivot
    rule, tracked on its own, which leaves the invariant factors right."""
    n = draw(st.integers(1, 6))
    m = 2 * n if draw(st.booleans()) else draw(st.integers(1, 8))
    rows = draw(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    zeroed = draw(st.sets(st.integers(0, m - 1)))
    return tuple(
        (0,) * n if i in zeroed else tuple(row) for i, row in enumerate(rows)
    )


@settings(max_examples=150, deadline=None)
@given(_int_matrices())
def test_snf_invariant_factors_match_sympy(rows):
    oracle = smith_normal_form(SympyMatrix(rows), domain=ZZ)
    expected = tuple(abs(int(oracle[i, i])) for i in range(min(oracle.shape)))
    dec = snf(rows)
    assert dec.invariant_factors == expected


@settings(max_examples=150, deadline=None)
@given(_int_matrices())
def test_int_echelon_matches_sympy_rref(rows):
    """int_echelon's rows are sympy's nonzero reduced echelon rows, each
    scaled by the lcm of its denominators, with the same pivots."""
    reduced, pivots = SympyMatrix(rows).rref()
    expected = []
    for i in range(len(pivots)):
        row = [Fraction(int(x.p), int(x.q)) for x in reduced.row(i)]
        k = lcm(*(x.denominator for x in row))
        expected.append(tuple(int(x * k) for x in row))
    assert int_echelon(rows) == (tuple(expected), pivots)


def test_snf_deterministic():
    rng = random.Random(7)
    m = _random_int_rows(rng, 5, 4)
    first = snf(m)
    second = snf(m)
    assert first.D == second.D
    assert first.U == second.U
    assert first.V == second.V


def test_snf_rejects_non_integer():
    # Non-int entries, empty input and ragged rows (which zip would
    # silently truncate) are all refused before any elimination.
    for rows, message in [
        (((Fraction(1, 2),),), "integer entries"),
        (((1, 0), (0, Fraction(2))), "integer entries"),
        (((1.0,),), "integer entries"),
        ((), "nonempty"),
        (((),), "nonempty"),
        (((1, 2), (3,)), "equal length"),
        (((1,), (2, 3)), "equal length"),
    ]:
        with pytest.raises(PreconditionError, match=message):
            snf(rows)


# --- Kernels and rank ------------------------------------------------------


def test_kernel_identity_empty():
    assert Matrix.identity(3).kernel_basis() == []


def test_kernel_zero_matrix_full():
    basis = Matrix([[0, 0], [0, 0]]).kernel_basis()
    assert len(basis) == 2


def test_kernel_rank_one():
    basis = Matrix([[1, 1], [1, 1]]).kernel_basis()
    assert len(basis) == 1
    (v,) = basis
    assert v[0] == -v[1] != 0


def test_rank_nullity_randomized():
    rng = random.Random(99)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        ints = _random_int_rows(rng, rows, cols, bound=3)
        m = Matrix(ints)
        # Independent ranks: the pivots of the matrix and of its transpose
        # over Q, and sympy's rank of the int rows.
        rank = len(m.rref()[1])
        assert rank == len(m.T.rref()[1]) == SympyMatrix(ints).rank()
        assert rank == cols - len(m.kernel_basis())


def test_kernel_vectors_annihilated():
    rng = random.Random(4)
    for _ in range(20):
        m = _random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        for v in m.kernel_basis():
            assert all(x == 0 for x in m.apply(v))


def _reference_kernel(m):
    """`Matrix.kernel_basis` as it was written on `_echelon`: boxed
    Fraction or Cyclotomic elimination, then a 1 at each free column."""
    rows, pivots = m._echelon()
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    zero = m.data[0][0] - m.data[0][0]
    one = zero + 1
    basis = []
    for f in free:
        vec = [zero] * m.cols
        vec[f] = one
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][f]
        basis.append(tuple(vec))
    return basis


def _spelled(basis):
    return [[repr(x) for x in vec] for vec in basis]


@st.composite
def _field_matrices(draw):
    """A matrix over Q or Q(zeta_order), every entry of that one order:
    square, wide or tall, some rows forced to zero and some the sum of
    two others, so that kernels of every dimension turn up."""
    order = draw(st.sampled_from([1, 3, 4, 5, 6, 8, 12]))
    shape = draw(st.sampled_from(["square", "wide", "tall"]))
    small, large = st.integers(1, 4), st.integers(5, 8)
    rows = draw(small if shape == "wide" else large if shape == "tall" else small)
    cols = draw(large if shape == "wide" else small if shape == "tall" else small)
    coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))

    def entry():
        if draw(st.integers(0, 3)) == 0:
            coeffs = [Fraction(0)]
        else:
            coeffs = draw(st.lists(coeff, min_size=1, max_size=totient(order)))
        return coeffs[0] if order == 1 else Cyclotomic(order, coeffs)

    data = [[entry() for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows)):
        if draw(st.booleans()) or rows < 3:
            data[i] = [data[i][0] * 0] * cols
        else:
            a, b = (data[(i + k) % rows] for k in (1, 2))
            data[i] = [x + y for x, y in zip(a, b)]
    return order, Matrix(data)


@settings(max_examples=200, deadline=None)
@given(_field_matrices())
def test_kernels_match_echelon_reference(case):
    """int_kernel and Matrix.kernel_basis give the basis the boxed
    elimination gives, entry for entry and repr for repr, and int_kernel
    gives it in the integer_coefficients form, least denominator too."""
    order, m = case
    expected = _reference_kernel(m)
    assert _spelled(m.kernel_basis()) == _spelled(expected)
    d, basis = int_kernel(integer_coefficients(m.data)[2], order)
    assert (d, basis) == (integer_coefficients(expected)[1:] if expected else (1, ()))


def test_matrix_size_cap():
    with pytest.raises(CapExceededError):
        Matrix([[0] * 65 for _ in range(65)])


# --- Cyclotomic arithmetic -------------------------------------------------


def test_zeta4_squares_to_minus_one():
    z = Cyclotomic.zeta(4)
    assert z * z == -1


def test_zeta3_plus_square_is_minus_one():
    z = Cyclotomic.zeta(3)
    assert z + z * z == -1


def test_zeta4_inverse():
    z = Cyclotomic.zeta(4)
    assert z.inverse() == -z


# Orders with phi(m) from 1 to 4, m = 2 mod 4 included.
INVERSE_ORDERS = (1, 2, 3, 4, 5, 6, 8, 10, 12)


def test_division_by_zero_distinct_error():
    for order in INVERSE_ORDERS:
        zero = Cyclotomic.from_rational(0).embed(order)
        with pytest.raises(FieldDivisionError):
            zero.inverse()


@st.composite
def _embedded_cyclotomics(draw):
    """A nonzero element of Q(zeta_d), d | m, embedded into Q(zeta_m)."""
    m = draw(st.sampled_from(INVERSE_ORDERS))
    d = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
            min_size=totient(d),
            max_size=totient(d),
        ).filter(any)
    )
    return Cyclotomic(d, coeffs).embed(m)


@settings(max_examples=300, deadline=None)
@given(_embedded_cyclotomics())
def test_cyclotomic_inverse_matches_sympy(x):
    z = Symbol("z")
    p = sum(Rational(c.numerator, c.denominator) * z**i for i, c in enumerate(x.coeffs))
    q = Poly(invert(p, cyclotomic_poly(x.order, z), z, domain=QQ), z, domain=QQ)
    expected = q.all_coeffs()[::-1]
    expected += [0] * (totient(x.order) - len(expected))
    inv = x.inverse()
    assert inv.order == x.order
    assert [Rational(c.numerator, c.denominator) for c in inv.coeffs] == expected
    assert x * inv == 1


def _random_cyclotomic(rng, order):
    return Cyclotomic(
        order,
        [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(totient(order))],
    )


def test_field_axioms_randomized():
    rng = random.Random(12)
    for _ in range(30):
        order = rng.choice([3, 4, 5, 6, 8, 12])
        a = _random_cyclotomic(rng, order)
        b = _random_cyclotomic(rng, order)
        c = _random_cyclotomic(rng, order)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == 1


def test_embedding_commutes_with_arithmetic():
    rng = random.Random(31)
    for _ in range(20):
        a = _random_cyclotomic(rng, 3)
        b = _random_cyclotomic(rng, 3)
        assert (a * b).embed(12) == a.embed(12) * b.embed(12)
        assert (a + b).embed(12) == a.embed(12) + b.embed(12)


def test_mixed_order_arithmetic_embeds():
    z3 = Cyclotomic.zeta(3)
    z4 = Cyclotomic.zeta(4)
    prod = z3 * z4
    assert prod.order == 12
    assert prod == Cyclotomic.zeta(12) ** 7  # zeta12^4 = zeta3, zeta12^3 = zeta4


def test_equal_values_of_different_orders_hash_equal():
    a, b = Cyclotomic.zeta(4), Cyclotomic.zeta(8) ** 2
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert hash(Cyclotomic(1, [2])) == hash(2)
    assert hash(Cyclotomic(6, [Fraction(1, 3)])) == hash(Fraction(1, 3))


@settings(max_examples=200, deadline=None)
@given(_embedded_cyclotomics(), st.integers(min_value=1, max_value=4))
def test_hash_is_unchanged_by_embedding(x, k):
    y = x.embed(k * x.order)
    assert y == x and hash(y) == hash(x)


def test_canonical_reduction_equality():
    # zeta8^2 and the order-4 generator embed to the same vector.
    z8 = Cyclotomic.zeta(8)
    assert (z8 * z8).coeffs == Cyclotomic.zeta(4).embed(8).coeffs


def test_root_of_unity_order():
    assert Cyclotomic.zeta(4).root_of_unity_order() == 4
    assert Cyclotomic.from_rational(-1).root_of_unity_order() == 2
    assert Cyclotomic.gaussian(1, 1).root_of_unity_order(16) is None


def test_matrix_kernel_over_cyclotomic_field():
    i = Cyclotomic.zeta(4)
    one = Cyclotomic.from_rational(1)
    m = Matrix([[one, i], [-i, one]])  # rank 1 over Q(i)
    basis = m.kernel_basis()
    assert len(basis) == 1
    assert all(x == 0 for x in m.apply(basis[0]))


# --- products: integer kernel over Q, generic path over Q(zeta) ------------

_q_entries = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def _q_matrix_pairs(draw, copies=1):
    """`copies` pairs (A, B) over Q of one shape with A @ B defined, every
    side 1..8, mixed denominators, negatives and some rows forced to zero."""
    m, k, n = (draw(st.integers(1, 8)) for _ in range(3))

    def matrix(rows, cols):
        data = [[draw(_q_entries) for _ in range(cols)] for _ in range(rows)]
        for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows)):
            data[i] = [Fraction(0)] * cols
        return Matrix(data)

    return [(matrix(m, k), matrix(k, n)) for _ in range(copies)]


_Z = Symbol("z")


def _as_poly(x):
    """A Fraction or a Cyclotomic as a sympy polynomial in z over Q."""
    coeffs = x.coeffs if isinstance(x, Cyclotomic) else (x,)
    return Poly([Rational(c.numerator, c.denominator) for c in reversed(coeffs)], _Z, domain=QQ)


def _reference_product(a, b, order):
    """(order, coefficients) of each entry of a @ b over Q(zeta_order):
    the sum of products of sympy polynomials in z, reduced mod
    Phi_order(z) by sympy, so no Cyclotomic or `_dot` arithmetic is used."""
    phi = Poly(cyclotomic_poly(order, _Z), _Z, domain=QQ)
    out = []
    for row in a.data:
        entries = []
        for col in zip(*b.data):
            total = Poly(0, _Z, domain=QQ)
            for x, y in zip(row, col):
                total += _as_poly(x) * _as_poly(y)
            coeffs = total.rem(phi).all_coeffs()[::-1]
            coeffs += [Rational(0)] * (phi.degree() - len(coeffs))
            entries.append((order, tuple(Fraction(int(c.p), int(c.q)) for c in coeffs)))
        out.append(tuple(entries))
    return tuple(out)


def _cyclotomic_entries(m):
    return tuple(tuple((x.order, x.coeffs) for x in row) for row in m.data)


def _to_sympy(m):
    return SympyMatrix(
        [[Rational(x.numerator, x.denominator) for x in row] for row in m.data]
    )


def _from_sympy(vector):
    return tuple(Fraction(int(x.p), int(x.q)) for x in vector)


@settings(max_examples=300, deadline=None)
@given(_q_matrix_pairs())
def test_rational_product_matches_sympy(pairs):
    [(a, b)] = pairs
    product = a @ b
    assert (product.rows, product.cols) == (a.rows, b.cols)
    expected = _to_sympy(a) * _to_sympy(b)
    assert product.data == tuple(
        _from_sympy(expected.row(i)) for i in range(expected.rows)
    )
    assert all(type(x) is Fraction for row in product.data for x in row)


@settings(max_examples=300, deadline=None)
@given(_q_matrix_pairs())
def test_rational_kernel_matches_sympy_nullspace(pairs):
    """sympy's nullspace puts a 1 at each free column of the reduced row
    echelon form and 0 at the others, as kernel_basis does: the two
    bases agree vector for vector.  The zero rows the strategy forces in
    exercise the zero skips of the elimination, and A @ B, of rank at
    most the inner side, has a kernel more often than not."""
    a, b = pairs[0]
    for m in (a, b, a @ b):
        expected = [_from_sympy(v) for v in _to_sympy(m).nullspace()]
        assert m.kernel_basis() == expected
        d, basis = int_kernel(integer_coefficients(m.data)[2])
        assert [tuple(Fraction(x, d) for x in row) for (row,) in basis] == expected


@settings(max_examples=100, deadline=None)
@given(_q_matrix_pairs(copies=2))
def test_gaussian_product_agrees_with_rational_kernel(pairs):
    """(A + iB)(C + iD) = (AC - BD) + i(AD + BC): the product over Q(i)
    agrees with its real and imaginary parts taken over Q."""
    [(a, c), (b, d)] = pairs

    def gaussian(re, im):
        return Matrix(
            [
                [Cyclotomic.gaussian(x, y) for x, y in zip(r1, r2)]
                for r1, r2 in zip(re.data, im.data)
            ]
        )

    def combine(x, y, sign):
        return Matrix(
            [[p + sign * q for p, q in zip(r1, r2)] for r1, r2 in zip(x.data, y.data)]
        )

    product = gaussian(a, b) @ gaussian(c, d)
    assert _cyclotomic_entries(product) == _reference_product(
        gaussian(a, b), gaussian(c, d), 4
    )
    assert product == gaussian(combine(a @ c, b @ d, -1), combine(a @ d, b @ c, 1))


def test_cyclotomic_and_mixed_products_match_reference():
    rng = random.Random(5)
    for order in (3, 4, 8, 12):
        for _ in range(5):
            rows, inner, cols = (rng.randint(1, 5) for _ in range(3))
            a = Matrix(
                [[_random_cyclotomic(rng, order) for _ in range(inner)]
                 for _ in range(rows)]
            )
            b = Matrix(
                [[_random_cyclotomic(rng, order) for _ in range(cols)]
                 for _ in range(inner)]
            )
            q = Matrix(
                [[Fraction(x, 3) for x in row] for row in _random_int_rows(rng, cols, 2)]
            )
            assert _cyclotomic_entries(a @ b) == _reference_product(a, b, order)
            assert _cyclotomic_entries(b @ q) == _reference_product(b, q, order)
            assert (a @ b) @ q == a @ (b @ q)


_small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 4, 8, 12]),
    st.lists(_small_fractions, min_size=1, max_size=12),
    st.one_of(_small_fractions, st.integers(-9, 9)),
)
def test_rational_scaling_matches_field_product(order, coeffs, q):
    """x * q scales the reduced coefficients; it must equal the product
    with q embedded as a field element, order and coefficients alike."""
    x = Cyclotomic(order, coeffs)
    embedded = Cyclotomic.from_rational(q).embed(order)
    for product in (x * q, q * x):
        assert product.order == order
        assert product.coeffs == _reference_field_product(x, embedded).coeffs


def _reference_field_product(a, b):
    prod = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            prod[i + j] += x * y
    return Cyclotomic(a.order, prod)


def test_rational_product_of_inverse_is_identity():
    m = Matrix([[Fraction(1, 2), Fraction(-1, 3)], [Fraction(5, 7), 2]])
    assert m @ m.inverse() == Matrix.identity(2)
    assert m.inverse() @ m == Matrix.identity(2)
