"""Exact coefficient arithmetic in cyclotomic-rational fields Q(zeta_N).

A Coefficient stores the order N of the field it lives in and its residue
vector: the coordinates of the element in the power basis 1, z, ..., z^(phi(N)-1)
of Q[z]/Phi_N(z).  Every constructor contracts the element to the smallest
order that contains it, so equality and hashing are canonical across fields.
Mixed-order arithmetic lifts both operands to the lcm of their orders.

Rational elements (order 1) never go through `lift`, `_pair` or `_contract`:
arithmetic on two of them works on the Fractions and skips `__init__`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm


def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _int_poly_divide(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (coefficient lists, low to high)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1]:
            raise AssertionError("integer polynomial division is not exact")
        q[i] = c // den[-1]
        for j, dj in enumerate(den):
            num[i + j] -= q[i] * dj
    if any(num):
        raise AssertionError("integer polynomial division left a remainder")
    return q


@lru_cache(maxsize=None)
def cyclotomic_int_coeffs(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low to high degree."""
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in divisors(n):
        if d < n:
            num = _int_poly_divide(num, list(cyclotomic_int_coeffs(d)))
    return tuple(num)


@lru_cache(maxsize=None)
def _power_residues(n: int, upto: int) -> tuple[tuple[Fraction, ...], ...]:
    """Residues of z^k mod Phi_n for 0 <= k < upto, as phi(n)-vectors."""
    phi = euler_phi(n)
    mod = cyclotomic_int_coeffs(n)
    rows = []
    cur = [Fraction(0)] * phi
    cur[0] = Fraction(1)
    for _ in range(upto):
        rows.append(tuple(cur))
        nxt = [Fraction(0)] * (phi + 1)
        for i, c in enumerate(cur):
            nxt[i + 1] = c
        lead = nxt[phi]
        if lead:
            for j in range(phi):
                nxt[j] -= lead * mod[j]
        cur = nxt[:phi]
    return tuple(rows)


def _reduce_mod_cyclotomic(coeffs: list[Fraction], n: int) -> list[Fraction]:
    phi = euler_phi(n)
    mod = cyclotomic_int_coeffs(n)
    res = list(coeffs)
    for i in range(len(res) - 1, phi - 1, -1):
        c = res[i]
        if c:
            res[i] = Fraction(0)
            for j in range(phi):
                res[i - phi + j] -= c * mod[j]
    res = res[:phi]
    res.extend([Fraction(0)] * (phi - len(res)))
    return res


def _solve_linear(matrix, rhs):
    """Solve matrix @ x = rhs over Q or Q(zeta_n); matrix given as list of
    row tuples of Fraction or Coefficient entries.

    Returns the solution list, or None when the system is inconsistent or
    lacks full column rank (a zero right-hand side tests the rank alone).
    """
    rows = [list(r) + [v] for r, v in zip(matrix, rhs)]
    ncols = len(matrix[0]) if matrix else 0
    for c in range(ncols):
        # column c gets its pivot in row c, or the rank is short
        pivot = next((i for i in range(c, len(rows)) if rows[i][c] != 0),
                     None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(len(rows)):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    if any(row[-1] != 0 for row in rows[ncols:]):
        return None
    return [row[-1] for row in rows[:ncols]]


class Coefficient:
    """An exact element of Q(zeta_N), contracted to its minimal order."""

    __slots__ = ("order", "res")

    def __init__(self, order: int, res):
        res = [Fraction(x) for x in res]
        phi = euler_phi(order)
        if len(res) != phi:
            raise ValueError(f"Q(zeta_{order}) needs {phi} residues, got {len(res)}")
        order, res = self._contract(order, res)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "res", tuple(res))

    def __setattr__(self, *_):
        raise AttributeError("Coefficient is immutable")

    @staticmethod
    def _contract(order: int, res: list[Fraction]):
        if order == 1:
            return order, res
        for m in divisors(order):
            if m == order:
                break
            phi_m = euler_phi(m)
            step = order // m
            basis = _power_residues(order, phi_m * step or 1)
            cols = [basis[j * step] for j in range(phi_m)]
            matrix = [tuple(col[i] for col in cols) for i in range(len(res))]
            sol = _solve_linear(matrix, res)
            if sol is not None:
                return Coefficient._contract(m, sol)
        return order, res

    # -- constructors -------------------------------------------------
    @staticmethod
    def _rational(q: Fraction) -> "Coefficient":
        c = object.__new__(Coefficient)
        object.__setattr__(c, "order", 1)
        object.__setattr__(c, "res", (q,))
        return c

    @staticmethod
    def rational(value) -> "Coefficient":
        return Coefficient._rational(Fraction(value))

    @staticmethod
    def zero() -> "Coefficient":
        return _ZERO

    @staticmethod
    def one() -> "Coefficient":
        return _ONE

    @staticmethod
    def root_of_unity(order: int, power: int = 1) -> "Coefficient":
        power %= order
        phi = euler_phi(order)
        coeffs = [Fraction(0)] * (power + 1)
        coeffs[power] = Fraction(1)
        if power >= phi:
            coeffs = _reduce_mod_cyclotomic(coeffs, order)
        else:
            coeffs.extend([Fraction(0)] * (phi - len(coeffs)))
        return Coefficient(order, coeffs[:phi])

    @staticmethod
    def coerce(value) -> "Coefficient":
        if isinstance(value, Coefficient):
            return value
        return Coefficient._rational(Fraction(value))

    # -- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return not any(self.res)

    def __bool__(self) -> bool:
        return any(self.res)

    def is_one(self) -> bool:
        return self.order == 1 and self.res[0] == 1

    def is_rational(self) -> bool:
        return self.order == 1

    @property
    def rational_value(self) -> Fraction:
        if self.order != 1:
            raise ValueError("not a rational coefficient")
        return self.res[0]

    # -- lifting ------------------------------------------------------
    def lift(self, order: int) -> "tuple[int, tuple[Fraction, ...]]":
        """Residue vector of this element inside Q(zeta_order)."""
        if order % self.order:
            raise ValueError(f"Q(zeta_{self.order}) does not embed in Q(zeta_{order})")
        if order == self.order:
            return order, self.res
        step = order // self.order
        phi = euler_phi(order)
        out = [Fraction(0)] * (len(self.res) * step + 1)
        for j, c in enumerate(self.res):
            out[j * step] += c
        red = _reduce_mod_cyclotomic(out, order)
        return order, tuple(red[:phi])

    def _pair(self, other: "Coefficient"):
        n = lcm(self.order, other.order)
        _, a = self.lift(n)
        _, b = other.lift(n)
        return n, a, b

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        other = Coefficient.coerce(other)
        if self.order == 1 == other.order:
            return Coefficient._rational(self.res[0] + other.res[0])
        n, a, b = self._pair(other)
        return Coefficient(n, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        if self.order == 1:
            return Coefficient._rational(-self.res[0])
        return Coefficient(self.order, [-x for x in self.res])

    def __sub__(self, other):
        other = Coefficient.coerce(other)
        if self.order == 1 == other.order:
            return Coefficient._rational(self.res[0] - other.res[0])
        n, a, b = self._pair(other)
        return Coefficient(n, [x - y for x, y in zip(a, b)])

    def __rsub__(self, other):
        return Coefficient.coerce(other) - self

    def __mul__(self, other):
        other = Coefficient.coerce(other)
        if self.order == 1 == other.order:
            return Coefficient._rational(self.res[0] * other.res[0])
        n, a, b = self._pair(other)
        prod = [Fraction(0)] * (len(a) + len(b) - 1 if a and b else 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return Coefficient(n, _reduce_mod_cyclotomic(prod, n))

    __rmul__ = __mul__

    def inverse(self) -> "Coefficient":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.order == 1:
            return Coefficient._rational(1 / self.res[0])
        # extended Euclid of the residue polynomial and Phi_N over Q[x]
        mod = [Fraction(c) for c in cyclotomic_int_coeffs(self.order)]
        r0, r1 = mod, list(self.res)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        t0, t1 = [Fraction(1)], [Fraction(0)]

        def _deg(p):
            for i in range(len(p) - 1, -1, -1):
                if p[i]:
                    return i
            return -1

        def _sub_scaled(a, b, c, shift):
            out = list(a) + [Fraction(0)] * max(0, _deg(b) + shift + 1 - len(a))
            for i in range(_deg(b) + 1):
                out[i + shift] -= c * b[i]
            return out

        while _deg(r1) > 0:
            while _deg(r0) >= _deg(r1):
                d = _deg(r0) - _deg(r1)
                c = r0[_deg(r0)] / r1[_deg(r1)]
                r0 = _sub_scaled(r0, r1, c, d)
                s0 = _sub_scaled(s0, s1, c, d)
            r0, r1 = r1, r0
            s0, s1 = s1, s0
        if _deg(r1):
            raise AssertionError("a nonzero element shares a factor with the modulus")
        inv_c = 1 / r1[0]
        coeffs = [c * inv_c for c in s1]
        return Coefficient(self.order, _reduce_mod_cyclotomic(coeffs, self.order))

    def __truediv__(self, other):
        return self * Coefficient.coerce(other).inverse()

    def __rtruediv__(self, other):
        return Coefficient.coerce(other) * self.inverse()

    def __pow__(self, exp: int):
        if exp < 0:
            return self.inverse() ** (-exp)
        result = Coefficient.one()
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    # -- comparison / hashing -----------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Coefficient):
            if isinstance(other, (int, Fraction)):
                return self.order == 1 and self.res[0] == other
            return NotImplemented
        return self.order == other.order and self.res == other.res

    def __hash__(self):
        return hash((self.order, self.res))

    def sort_key(self):
        return (self.order, self.res)

    # -- printing -----------------------------------------------------
    def __repr__(self):
        return f"Coefficient({self.order}, {list(self.res)})"

    def __str__(self):
        if self.order == 1:
            return str(self.res[0])
        parts = []
        for j, c in enumerate(self.res):
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                mon = "w" if j == 1 else f"w^{j}"
                if c == 1:
                    parts.append(mon)
                elif c == -1:
                    parts.append(f"-{mon}")
                else:
                    parts.append(f"{c}*{mon}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


_ZERO = Coefficient._rational(Fraction(0))
_ONE = Coefficient._rational(Fraction(1))


def roots_of_unity(order: int) -> list[Coefficient]:
    """All roots of unity contained in Q(zeta_order), deterministically ordered."""
    seen = {}
    minus_one = Coefficient.rational(-1)
    for k in range(order):
        z = Coefficient.root_of_unity(order, k)
        seen[z] = True
        seen[minus_one * z] = True
    return sorted(seen, key=Coefficient.sort_key)


def _rational_kth_root(q: Fraction, k: int):
    """The rational r >= 0 with r^k == q, or None."""
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)

    def iroot(n: int):
        # exact integer root: isqrt, or Newton's iteration from above
        if k == 2:
            r = isqrt(n)
        else:
            r = 1 << -(-n.bit_length() // k)
            while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
                r = s
        return r if r**k == n else None

    a, b = iroot(q.numerator), iroot(q.denominator)
    if a is None or b is None:
        return None
    return Fraction(a, b)


def kth_roots(q: Coefficient, k: int, order: int = 1) -> list[Coefficient]:
    """All x in Q(zeta_order) of the shape (rational) x (root of unity) with x^k == q."""
    q = Coefficient.coerce(q)
    if q.is_zero():
        return [Coefficient.zero()]
    order = lcm(order, q.order)
    torsion = roots_of_unity(order)
    rational_part = None
    for u in torsion:
        s = q * u
        if s.is_rational():
            rational_part = abs(s.rational_value)
            break
    if rational_part is None:
        return []
    r = _rational_kth_root(rational_part, k)
    if r is None:
        return []
    sols = []
    base = Coefficient.rational(r)
    for v in torsion:
        x = base * v
        if x**k == q and x not in sols:
            sols.append(x)
    return sorted(sols, key=Coefficient.sort_key)
