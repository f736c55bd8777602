"""Dense exact matrices over the rationals or a single cyclotomic field.

Entries are Fractions or Cyclotomic elements (one kind per matrix).  All
values are immutable; every operation returns a new matrix.  Dimensions
are capped (default 64) so bad input fails loudly instead of crawling.

An integer matrix (a motion over its denominator, a lattice action, a
Weyl group element, a Smith transform) is not a `Matrix`: it is a tuple
of int rows.  `int_product` and `int_apply` multiply those, `int_det`
takes a determinant by fraction-free (Bareiss) elimination, and
`int_echelon` is the one reduced echelon form, fraction-free too: every
division is exact and every entry stays an int.

`int_kernel` is the one kernel, over Q(zeta_m) for every m (m = 1 is
Q): it takes and returns the integer coefficient rows of
`integer_coefficients`, realifies them (each entry its block of
multiplication by it on the zeta-basis) and reads the basis off one
`int_echelon`.  `Matrix.kernel_basis` converts onto it, a dimension is
the number of its vectors, and a span's canonical form is its
`int_echelon` rows: there is no separate rank elimination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from ..errors import CapExceededError, PreconditionError, VerificationError
from .cyclotomic import (
    Cyclotomic,
    _mod_phi,
    _zeta_multiples,
    cyclotomic_polynomial,
    from_integer_coefficients,
    integer_coefficients,
)

MAX_DIM = 64


def _as_entry(x):
    if isinstance(x, (Fraction, Cyclotomic)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise PreconditionError(f"unsupported matrix entry {x!r}")


class Matrix:
    """Immutable rectangular matrix with exact entries."""

    __slots__ = ("rows", "cols", "data", "_hash")

    def __init__(self, rows_data):
        data = tuple(tuple(_as_entry(x) for x in row) for row in rows_data)
        if not data or not data[0]:
            raise PreconditionError("matrix must be nonempty")
        if any(len(row) != len(data[0]) for row in data):
            raise PreconditionError("matrix rows must have equal length")
        if len(data) > MAX_DIM or len(data[0]) > MAX_DIM:
            raise CapExceededError(
                f"matrix size {len(data)}x{len(data[0])} exceeds cap {MAX_DIM}"
            )
        self.data = data
        self.rows = len(data)
        self.cols = len(data[0])
        self._hash = None

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns) -> "Matrix":
        cols = [list(c) for c in columns]
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise PreconditionError("matrix dimension mismatch in product")
        cols = list(zip(*other.data))
        return Matrix([[_dot(row, col) for col in cols] for row in self.data])

    def apply(self, vector):
        """Matrix times column vector (any sequence), as a tuple."""
        if len(vector) != self.cols:
            raise PreconditionError("vector length mismatch")
        return tuple(_dot(row, vector) for row in self.data)

    @property
    def T(self) -> "Matrix":
        return Matrix(list(zip(*self.data)))

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        return Matrix([[self.data[i][j] for j in col_idx] for i in row_idx])

    def _echelon(self):
        """Row echelon form by exact elimination; returns (rows, pivot cols)."""
        work = [list(row) for row in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            pivot_row = None
            for i in range(r, self.rows):
                if work[i][c] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            work[r], work[pivot_row] = work[pivot_row], work[r]
            inv = 1 / work[r][c]
            work[r] = [x * inv if x else x for x in work[r]]
            for i in range(self.rows):
                if i != r and work[i][c] != 0:
                    f = work[i][c]
                    work[i] = [x - f * y if y else x for x, y in zip(work[i], work[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return work, pivots

    def rref(self):
        rows, pivots = self._echelon()
        return Matrix(rows), tuple(pivots)

    def kernel_basis(self):
        """Basis of {x : Mx = 0}, ordered by free column index: `int_kernel`
        of the integer coefficient rows.  Entries are Cyclotomics of the
        lcm order of the entries when any entry is one, else Fractions."""
        m, _, parts = integer_coefficients(self.data)
        d, basis = int_kernel(parts, m)
        if any(isinstance(x, Cyclotomic) for row in self.data for x in row):
            return [from_integer_coefficients(m, d, v) for v in basis]
        return [tuple(Fraction(x, d) for x in row) for (row,) in basis]

    def det(self):
        if self.rows != self.cols:
            raise PreconditionError("determinant of a non-square matrix")
        work = [list(row) for row in self.data]
        n = self.rows
        det = None
        sign = 1
        for c in range(n):
            pivot_row = None
            for i in range(c, n):
                if work[i][c] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                return work[0][0] - work[0][0]  # zero of the right kind
            if pivot_row != c:
                work[c], work[pivot_row] = work[pivot_row], work[c]
                sign = -sign
            p = work[c][c]
            det = p if det is None else det * p
            for i in range(c + 1, n):
                if work[i][c] != 0:
                    f = work[i][c] / p
                    work[i] = [x - f * y for x, y in zip(work[i], work[c])]
        return det if sign == 1 else -det

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise PreconditionError("inverse of a non-square matrix")
        n = self.rows
        work = [list(row) + [Fraction(int(i == j)) for j in range(n)]
                for i, row in enumerate(self.data)]
        aug = Matrix(work) if 2 * n <= MAX_DIM else None
        if aug is None:
            raise CapExceededError("matrix too large to invert under cap")
        rows, pivots = aug._echelon()
        if list(pivots) != list(range(n)):
            raise PreconditionError("matrix is singular")
        return Matrix([row[n:] for row in rows])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.data == other.data

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.data)
        return self._hash

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix[{body}]"


def common_denominator(rows):
    """Rational rows (Fractions or ints) as (int rows, d), d the lcm of
    the entry denominators, so that the rows equal int rows / d."""
    rows = [[Fraction(x) for x in row] for row in rows]
    d = lcm(*(x.denominator for row in rows for x in row))
    return tuple(
        tuple(x.numerator * (d // x.denominator) for x in row) for row in rows
    ), d


def int_apply(rows, vector) -> tuple[int, ...]:
    """Matrix given as rows of ints times an int vector, as a tuple."""
    return tuple(sum(map(mul, row, vector)) for row in rows)


def zero_pairings(forms, rows) -> list[bool]:
    """Per int form, whether its dot product with every int row is zero.

    The rows are packed into one, sum_i t^i rows[i], with t above twice
    every |form . row|: a sum of powers of t with such digits is zero
    only when every digit is, so one dot product decides each form."""
    forms = list(forms)
    if not rows or not forms:
        return [True] * len(forms)
    t = 2 * len(rows[0]) * max(map(abs, chain.from_iterable(rows)))
    t = t * max(map(abs, chain.from_iterable(forms))) + 1
    packed = rows[-1]
    for row in reversed(rows[:-1]):
        packed = [p * t + x for p, x in zip(packed, row)]
    return [not sum(map(mul, f, packed)) for f in forms]


def int_product(left, right) -> tuple[tuple[int, ...], ...]:
    """Product of two matrices given as rows of ints, as int rows."""
    cols = list(zip(*right))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in left)


def int_det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact, so all entries stay ints."""
    a = [list(row) for row in rows]
    k = len(a)
    if k == 0:
        return 1
    sign, prev = 1, 1
    for i in range(k - 1):
        if a[i][i] == 0:
            swap = next((r for r in range(i + 1, k) if a[r][i]), None)
            if swap is None:
                return 0
            a[i], a[swap] = a[swap], a[i]
            sign = -sign
        p = a[i][i]
        for r in range(i + 1, k):
            ar, f = a[r], a[r][i]
            for c in range(i + 1, k):
                ar[c] = (ar[c] * p - f * a[i][c]) // prev
        prev = p
    return sign * a[-1][-1]


def int_echelon(rows):
    """The reduced row echelon form of an int matrix, fraction-free:
    (rows, pivots), one int row per pivot column, primitive, with a
    positive entry at its pivot and 0 at the other pivots.  These are the
    rational reduced echelon rows, each scaled by the lcm of its
    denominators, so they depend on the row space alone.

    Each step clears column c of a row against the pivot row there
    (`_eliminate`) and divides the result by the gcd of its ints, so
    every entry stays an int and every division is exact (fraction-free
    elimination: Bareiss, Math. Comp. 22, 1968; Cohen, *A Course in
    Computational Algebraic Number Theory*, 1993, ch. 2)."""
    pending = [row for row in rows if any(row)]
    echelon, pivots = [], []
    for c in range(len(pending[0]) if pending else 0):
        for at, pivot in enumerate(pending):
            if pivot[c]:
                break
        else:
            continue
        del pending[at]
        g = gcd(*pivot) if pivot[c] > 0 else -gcd(*pivot)
        pivot = [x // g for x in pivot]
        echelon = [_eliminate(row, pivot, c) for row in echelon]
        pending = [
            row for row in (_eliminate(row, pivot, c) for row in pending) if row
        ]
        echelon.append(pivot)
        pivots.append(c)
    return tuple(map(tuple, echelon)), tuple(pivots)


def _eliminate(row, pivot, c):
    """(p row - f pivot) / g, p > 0 the entry of the pivot row and f that
    of row at column c, and g the gcd of the result: row itself when f
    is zero, None when the result is zero."""
    f, p = row[c], pivot[c]
    if not f:
        return row
    out = [p * x - f * y for x, y in zip(row, pivot)]
    g = gcd(*out)
    if g < 2:
        return out if g else None
    return [x // g for x in out]


def int_kernel(rows, order: int = 1):
    """Kernel of a matrix over Q(zeta_order) with entries in
    Z[zeta_order], in the integer_coefficients form: rows[i][t][j] is
    the zeta^t coefficient of entry (i, j), an int (order 1 is Q).

    Returns (d, parts) for the reduced echelon basis of the kernel, the
    basis `Matrix.kernel_basis` has always returned: one vector per free
    column, in column order, with a 1 there and 0 at the other free
    columns; parts[k][t][j] is d times the zeta^t coefficient of entry j
    of vector k, and d is the least common denominator.

    The matrix is realified (`_realified`): a vector over Q(zeta) is its
    deg Phi coefficients per entry, and A v = 0 is a rational system.
    Its free columns are (f, t) for every t and each free column f over
    Q(zeta), so one `int_echelon` gives the basis: the vector at (f, 0),
    read off the reduced rows, is the one at f.  A v = 0 is re-checked
    on the given rows, mod Phi."""
    phi = cyclotomic_polynomial(order)
    rows = [tuple(map(tuple, row)) for row in rows]
    if not rows or not rows[0] or not rows[0][0]:
        raise PreconditionError("kernel of an empty matrix")
    deg, width = len(phi) - 1, len(rows[0][0])
    if any(len(row) != deg or any(len(p) != width for p in row) for row in rows):
        raise PreconditionError(
            f"coefficient rows must be {deg} planes of width {width}"
        )
    echelon, pivots = int_echelon(_realified(rows, phi))
    free = [f for f in range(width) if f * deg not in pivots]
    if len(pivots) + deg * len(free) != deg * width:
        raise VerificationError("kernel over Q is not one over Q(zeta)")
    den = lcm(*(row[c] for row, c in zip(echelon, pivots)))
    basis = []
    for f in free:
        vec = [0] * (deg * width)
        vec[f * deg] = den
        for row, c in zip(echelon, pivots):
            vec[c] = -row[f * deg] * (den // row[c])
        basis.append(vec)
    g = gcd(den, *chain.from_iterable(basis))
    parts = tuple(
        tuple(tuple(x // g for x in vec[t::deg]) for t in range(deg)) for vec in basis
    )
    if any(any(_dot_mod_phi(row, vec, phi)) for row in rows for vec in parts):
        raise VerificationError("kernel vector is not annihilated")
    return den // g, parts


def _realified(rows, phi):
    """The int rows of a matrix over Z[zeta] as a rational matrix: entry
    x of row i and column j becomes the deg x deg block of
    multiplication by x, whose (s, t) entry is the zeta^s coefficient of
    x zeta^t, at row (i, s) and column (j, t), j-major."""
    deg = len(phi) - 1
    zero = [(0,) * deg] * deg
    out = []
    for row in rows:
        blocks = [_zeta_multiples(x, phi) if any(x) else zero for x in zip(*row)]
        out.extend([xt[s] for block in blocks for xt in block] for s in range(deg))
    return out


def _dot_mod_phi(row, vec, phi):
    """sum_j row[j] vec[j] mod Phi, for a row and a vector given by
    their coefficient planes: the zeta^(t + u) coefficient gathers the
    dot products of plane t of the row with plane u of the vector."""
    total = [0] * (len(row) + len(vec) - 1)
    for t, a in enumerate(row):
        for u, b in enumerate(vec):
            total[t + u] += sum(map(mul, a, b))
    return _mod_phi(total, phi)


def _dot(xs, ys):
    total = None
    for x, y in zip(xs, ys):
        term = x * y
        total = term if total is None else total + term
    return total
