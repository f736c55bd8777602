"""Exact arithmetic in cyclotomic fields Q(zeta_m).

An element is a coefficient vector of length phi(m) over the rationals,
reduced modulo the m-th cyclotomic polynomial.  Reduction is canonical:
two equal field elements always have identical coefficient vectors, so
equality is coefficient-wise.  Operands of different orders are embedded
into the field of lcm order first.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

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


def _reduce(coeffs, m):
    """Reduce a rational polynomial in zeta_m modulo Phi_m."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    work = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j in range(deg + 1):
                work[i - deg + j] -= c * phi[j]
    work = work[:deg]
    work += [Fraction(0)] * (deg - len(work))
    return tuple(work)


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
        k = order // self.order
        out = [Fraction(0)] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return Cyclotomic(order, out)

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
        # Extended Euclid in Q[x] against Phi_m (irreducible, so gcd = 1).
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                inv = [c / r1[0] for c in s1]
                return Cyclotomic(self.order, inv)
            q = [Fraction(0)] * (len(r0) - len(r1) + 1)
            rem = list(r0)
            for i in range(len(q) - 1, -1, -1):
                c = rem[i + len(r1) - 1] / r1[-1]
                q[i] = c
                if c:
                    for j, y in enumerate(r1):
                        rem[i + j] -= c * y
            rem = rem[: len(r1) - 1] or [Fraction(0)]
            qs1 = [Fraction(0)] * (len(q) + len(s1) - 1)
            for i, x in enumerate(q):
                if x:
                    for j, y in enumerate(s1):
                        qs1[i + j] += x * y
            new_s = [Fraction(0)] * max(len(s0), len(qs1))
            for i, c in enumerate(s0):
                new_s[i] += c
            for i, c in enumerate(qs1):
                new_s[i] -= c
            r0, r1 = r1, rem
            s0, s1 = s1, new_s

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
        if self.is_rational():
            return hash(self.rational_value())
        return hash((self.order, self.coeffs))

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
    an int, for one common denominator d.  Reduction mod Phi_m is
    canonical and linear, so sum_i vectors[k][i] * f[i] is zero for a
    rational form f exactly when every parts[k][t] has integer dot
    product zero with f scaled to ints.
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
