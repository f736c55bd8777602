"""Exact arithmetic in cyclotomic fields Q(zeta_m).

An element is a coefficient vector of length phi(m) over the rationals,
reduced modulo the m-th cyclotomic polynomial.  Reduction is canonical:
two equal field elements always have identical coefficient vectors, so
equality is coefficient-wise.  Operands of different orders are embedded
into the field of lcm order first, and the hash is the normalized trace
Tr(x) / phi(m), which embedding keeps.  The embeddings and the Galois
automorphisms zeta_m -> zeta_m^k both reindex the coefficients, and an
inverse is the product of the other conjugates over the norm.

The same arithmetic runs on ints for elements of Z[zeta_m] written as
phi(m) ints: `_zeta_multiples` gives x, x zeta, .., the columns of the
matrix of multiplication by x, which `int_kernel` realifies with and
`scale_coefficients` applies to a vector in the `integer_coefficients`
form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from ..errors import FieldDivisionError, PreconditionError, VerificationError


def totient(m: int) -> int:
    count = 0
    for k in range(1, m + 1):
        if gcd(k, m) == 1:
            count += 1
    return count


def _poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_divmod_int(num, den):
    # den must be monic; exact integer division.
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        if c:
            for j, y in enumerate(den):
                num[i + j] -= c * y
    return q, num[: len(den) - 1]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, ascending degree, monic."""
    if m < 1:
        raise PreconditionError("cyclotomic order must be positive")
    if m == 1:
        return (-1, 1)
    num = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul_int(den, list(cyclotomic_polynomial(d)))
    q, r = _poly_divmod_int(num, den)
    if any(r):
        raise VerificationError(f"x^{m} - 1 is not divisible by the lower Phi_d")
    return tuple(q)


def _mod_phi(work, phi, zero=0):
    """A polynomial in zeta_m, given by its coefficient list (changed in
    place), reduced modulo the monic Phi_m: its deg Phi_m coefficients,
    padded with zero."""
    deg = len(phi) - 1
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j in range(deg):
                work[i - deg + j] -= c * phi[j]
    return tuple(work[:deg]) + (zero,) * (deg - len(work))


def _reduce(coeffs, m):
    """Reduce a rational polynomial in zeta_m modulo Phi_m."""
    work = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
    return _mod_phi(work, cyclotomic_polynomial(m), Fraction(0))


@lru_cache(maxsize=None)
def _trace_weights(m: int) -> tuple[Fraction, ...]:
    """Tr(zeta_m^i) / phi(m) for i < phi(m).  zeta_m^i is a primitive d-th
    root of unity, d = m / gcd(i, m); the primitive d-th roots sum to
    mu(d), which is minus the next-to-leading coefficient of Phi_d, and
    the trace counts that sum phi(m) / phi(d) times."""
    return tuple(
        Fraction(-cyclotomic_polynomial(d)[-2], totient(d))
        for d in (m // gcd(i, m) for i in range(totient(m)))
    )


def _reindexed(coeffs, n: int, k: int) -> list:
    """zeta^i replaced by zeta_n^(ik) in a coefficient list, unreduced:
    the exponents i k mod n are distinct when k is a unit mod n or n is
    a multiple k m of the order m, and none exceeds (len - 1) k."""
    out = [0] * min(n, (len(coeffs) - 1) * k + 1)
    for i, c in enumerate(coeffs):
        out[i * k % n] = c
    return out


class Cyclotomic:
    """An element of Q(zeta_m), canonically reduced."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        self.order = order
        self.coeffs = _reduce(coeffs, order)

    @classmethod
    def zeta(cls, m: int) -> "Cyclotomic":
        return cls(m, [0, 1] if m > 1 else [1])

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "Cyclotomic":
        return cls(order, [Fraction(value)])

    @classmethod
    def gaussian(cls, re, im) -> "Cyclotomic":
        """a + b*i as an element of Q(zeta_4)."""
        return cls(4, [Fraction(re), Fraction(im)])

    def embed(self, order: int) -> "Cyclotomic":
        """Image under Q(zeta_m) -> Q(zeta_order); order must be a multiple of m."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise PreconditionError(
                f"cannot embed order {self.order} into order {order}"
            )
        return self._spread(order, order // self.order)

    def _spread(self, n: int, k: int) -> "Cyclotomic":
        """The element of Q(zeta_n) with zeta_m^i replaced by zeta_n^(ik):
        the embedding for n = k m, the Galois automorphism sigma_k for
        n = m and k a unit mod m."""
        return Cyclotomic(n, _reindexed(self.coeffs, n, k))

    def _pair(self, other):
        if isinstance(other, Cyclotomic):
            m = self.order * other.order // gcd(self.order, other.order)
            return self.embed(m), other.embed(m)
        if isinstance(other, (int, Fraction)):
            return self, Cyclotomic.from_rational(other).embed(self.order)
        return self, NotImplemented

    def __add__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        return Cyclotomic(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        return Cyclotomic(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # A reduced vector times a rational is still reduced.
            return Cyclotomic(self.order, [c * other for c in self.coeffs])
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        prod = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    prod[i + j] += x * y
        return Cyclotomic(a.order, prod)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise FieldDivisionError("division by zero in cyclotomic field")
        if self.is_rational():
            return Cyclotomic(self.order, [1 / self.coeffs[0]])
        # x^-1 = c / N(x), c the product of the conjugates sigma_k(x),
        # k != 1 a unit mod m, and N(x) = x c the norm, a rational.
        m = self.order
        conjugates = [self._spread(m, k) for k in range(2, m) if gcd(k, m) == 1]
        c = prod(conjugates[1:], start=conjugates[0])
        norm = self * c
        if not norm.is_rational():
            raise VerificationError(f"norm {norm!r} of {self!r} is not rational")
        return c * (1 / norm.coeffs[0])

    def __truediv__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exp: int):
        if exp < 0:
            return self.inverse() ** (-exp)
        result = Cyclotomic.from_rational(1).embed(self.order)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.rational_value() == other
        if isinstance(other, Cyclotomic):
            a, b = self._pair(other)
            return a.coeffs == b.coeffs
        return NotImplemented

    def __hash__(self):
        # The normalized trace Tr(x) / phi(m) does not change under embed,
        # and it is x itself when x is rational.
        return hash(sum(c * w for c, w in zip(self.coeffs, _trace_weights(self.order))))

    def __bool__(self):
        return not self.is_zero()

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise PreconditionError("element is not rational")
        return self.coeffs[0]

    def root_of_unity_order(self, cap: int = 256) -> int | None:
        """Multiplicative order if this is a root of unity found within cap."""
        power = self
        for k in range(1, cap + 1):
            if power == 1:
                return k
            power = power * self
        return None

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                terms.append(f"{c}*z{self.order}^{i}" if i > 1 else f"{c}*z{self.order}")
        return "Cyc(" + (" + ".join(terms) if terms else "0") + ")"


def integer_coefficients(vectors):
    """Vectors over Q and cyclotomic fields as integer coefficient rows.

    Returns (m, d, parts).  Every entry is embedded into Q(zeta_m), m the
    lcm of the entries' orders (Fractions and ints count as order 1), and
    parts[k][t][i] is d times the zeta_m^t coefficient of vectors[k][i],
    an int, for one common denominator d, the least.  Reduction mod Phi_m
    is canonical and linear, so sum_i vectors[k][i] * f[i] is zero for a
    rational form f exactly when every parts[k][t] has integer dot
    product zero with f scaled to ints.

    This (d, parts) form is the one `int_kernel` takes and returns, and
    `scale_coefficients` multiplies; `from_integer_coefficients` turns a
    vector back into Cyclotomic entries.
    """
    vectors = [tuple(v) for v in vectors]
    m = lcm(*(x.order for v in vectors for x in v if isinstance(x, Cyclotomic)))
    deg = len(cyclotomic_polynomial(m)) - 1
    pad = (Fraction(0),) * (deg - 1)

    def coeffs(x):
        if isinstance(x, Cyclotomic):
            return x.embed(m).coeffs
        return (Fraction(x),) + pad

    table = [[coeffs(x) for x in v] for v in vectors]
    d = lcm(*(c.denominator for v in table for cs in v for c in cs))
    parts = tuple(
        tuple(
            tuple(cs[t].numerator * (d // cs[t].denominator) for cs in v)
            for t in range(deg)
        )
        for v in table
    )
    return m, d, parts


def from_integer_coefficients(order: int, d: int, rows) -> tuple[Cyclotomic, ...]:
    """The vector over Q(zeta_order) whose entry i has zeta^t coefficient
    rows[t][i] / d: one vector of the integer_coefficients form."""
    return tuple(
        Cyclotomic(order, [Fraction(x, d) for x in entry]) for entry in zip(*rows)
    )


def _zeta_multiples(x, phi):
    """The coefficients of x, x zeta, .., x zeta^(deg - 1) mod the monic
    Phi, for x given by its deg coefficients: zeta^deg = -sum_j phi[j]
    zeta^j, so each is the last shifted up by one and reduced."""
    out = [tuple(x)]
    for _ in range(len(x) - 1):
        *low, top = out[-1]
        out.append(
            (-top * phi[0],) + tuple(a - top * b for a, b in zip(low, phi[1:]))
        )
    return out


def scale_coefficients(x, rows, order: int) -> tuple[tuple[int, ...], ...]:
    """The coefficient rows of x v, for v given by its coefficient rows
    (rows[t][i] the zeta^t coefficient of entry i, one vector of the
    integer_coefficients form) and x in Z[zeta_order] by its phi(order)
    ints.  Coefficient s of x zeta^t is the (s, t) entry of the matrix
    of multiplication by x, so plane s of x v is sum_t of that entry
    times plane t."""
    multiples = _zeta_multiples(x, cyclotomic_polynomial(order))
    width = len(rows[0])
    out = []
    for s in range(len(rows)):
        acc = [0] * width
        for xt, plane in zip(multiples, rows):
            c = xt[s]
            if c:
                acc = [a + c * b for a, b in zip(acc, plane)]
        out.append(tuple(acc))
    return tuple(out)
