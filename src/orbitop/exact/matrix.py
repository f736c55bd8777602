"""Dense exact matrices over the rationals or a single cyclotomic field.

Entries are Fractions or Cyclotomic elements (one kind per matrix).  All
values are immutable; every operation returns a new matrix.  Dimensions
are capped (default 64) so bad input fails loudly instead of crawling.

Products of two matrices over Q run on integers: each operand is scaled
once to integer rows over the lcm of its denominators (kept on the
matrix), the integer dot products are taken, and one Fraction is built
per entry of the result.  Products with a cyclotomic operand take the
entrywise generic path.

An integer matrix (a lattice action, a Weyl group element, a Smith
transform) is not a `Matrix`: it is a tuple of int rows, and
`int_product` and `int_apply` multiply those.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from ..errors import CapExceededError, PreconditionError
from .cyclotomic import Cyclotomic

MAX_DIM = 64

_UNSET = object()


def _as_entry(x):
    if isinstance(x, (Fraction, Cyclotomic)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise PreconditionError(f"unsupported matrix entry {x!r}")


class Matrix:
    """Immutable rectangular matrix with exact entries."""

    __slots__ = ("rows", "cols", "data", "_scaled", "_hash")

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
        self._scaled = _UNSET
        self._hash = None

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns) -> "Matrix":
        cols = [list(c) for c in columns]
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))])

    def __getitem__(self, rc):
        i, j = rc
        return self.data[i][j]

    def column(self, j):
        return tuple(self.data[i][j] for i in range(self.rows))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise PreconditionError("matrix dimension mismatch in product")
        left, right = self._integer_form(), other._integer_form()
        if left is None or right is None:
            cols = list(zip(*other.data))
            return Matrix(
                [[_dot(row, col) for col in cols] for row in self.data]
            )
        (da, int_left), (db, int_right) = left, right
        den = da * db
        cols = list(zip(*int_right))
        return Matrix(
            [
                [Fraction(sum(map(mul, row, col)), den) for col in cols]
                for row in int_left
            ]
        )

    def _integer_form(self):
        """(d, rows) with integer rows, self == rows / d and d the lcm of
        the entry denominators; None unless every entry is a Fraction.
        Computed on first use and kept, since the matrix is immutable."""
        if self._scaled is _UNSET:
            entries = [x for row in self.data for x in row]
            if all(isinstance(x, Fraction) for x in entries):
                d = lcm(*(x.denominator for x in entries))
                self._scaled = d, tuple(
                    tuple(x.numerator * (d // x.denominator) for x in row)
                    for row in self.data
                )
            else:
                self._scaled = None
        return self._scaled

    def apply(self, vector):
        """Matrix times column vector (any sequence), as a tuple."""
        if len(vector) != self.cols:
            raise PreconditionError("vector length mismatch")
        return tuple(_dot(row, vector) for row in self.data)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise PreconditionError("matrix dimension mismatch in sum")
        return Matrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix([[-x for x in row] for row in self.data])

    def scale(self, s) -> "Matrix":
        return Matrix([[s * x for x in row] for row in self.data])

    @property
    def T(self) -> "Matrix":
        return Matrix(list(zip(*self.data)))

    def stack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise PreconditionError("column mismatch in stack")
        return Matrix(list(self.data) + list(other.data))

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        return Matrix([[self.data[i][j] for j in col_idx] for i in row_idx])

    def int_rows(self) -> tuple[tuple[int, ...], ...]:
        """The entries as int rows (the kept integer form)."""
        scaled = self._integer_form()
        if scaled is None or scaled[0] != 1:
            raise PreconditionError("matrix is not integral")
        return scaled[1]

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
            work[r] = [x * inv for x in work[r]]
            for i in range(self.rows):
                if i != r and work[i][c] != 0:
                    f = work[i][c]
                    work[i] = [x - f * y for x, y in zip(work[i], work[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return work, pivots

    def rref(self):
        rows, pivots = self._echelon()
        return Matrix(rows), tuple(pivots)

    def rank(self) -> int:
        return len(self._echelon()[1])

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


def int_apply(rows, vector) -> tuple[int, ...]:
    """Matrix given as rows of ints times an int vector, as a tuple."""
    return tuple(sum(map(mul, row, vector)) for row in rows)


def int_product(left, right) -> tuple[tuple[int, ...], ...]:
    """Product of two matrices given as rows of ints, as int rows."""
    cols = list(zip(*right))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in left)


def _dot(xs, ys):
    total = None
    for x, y in zip(xs, ys):
        term = x * y
        total = term if total is None else total + term
    return total
