"""Dense exact matrices over the rationals or a single cyclotomic field.

Entries are Fractions or Cyclotomic elements (one kind per matrix).  All
values are immutable; every operation returns a new matrix.  Dimensions
are capped (default 64) so bad input fails loudly instead of crawling.

An integer matrix (a motion over its denominator, a lattice action, a
Weyl group element, a Smith transform) is not a `Matrix`: it is a tuple
of int rows.  `int_product` and `int_apply` multiply those, `int_det`
takes a determinant by fraction-free (Bareiss) elimination and
`int_rank` a rank by fraction-free row reduction, so every division is
exact and every entry stays an int.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from ..errors import CapExceededError, PreconditionError
from .cyclotomic import Cyclotomic

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
        """Basis of {x : Mx = 0}, ordered by free column index."""
        rows, pivots = self._echelon()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        zero = self.data[0][0] - self.data[0][0]
        one = zero + 1
        basis = []
        for f in free:
            vec = [zero] * self.cols
            vec[f] = one
            for r, c in enumerate(pivots):
                vec[c] = -rows[r][f]
            basis.append(tuple(vec))
        return basis

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


def int_rank(rows, width: int) -> int:
    """Rank of integer rows of the given width by fraction-free
    elimination against one primitive pivot row per leading column;
    stops at full rank."""
    pivots: dict[int, list[int]] = {}
    for row in rows:
        while any(row):
            lead = next(c for c, x in enumerate(row) if x)
            pivot = pivots.get(lead)
            if pivot is None:
                g = gcd(*row)
                pivots[lead] = [x // g for x in row]
                if len(pivots) == width:
                    return width
                break
            p, f = pivot[lead], row[lead]
            row = [x * p - f * y for x, y in zip(row, pivot)]
            g = gcd(*row)
            if g > 1:
                row = [x // g for x in row]
    return len(pivots)


def _dot(xs, ys):
    total = None
    for x, y in zip(xs, ys):
        term = x * y
        total = term if total is None else total + term
    return total
