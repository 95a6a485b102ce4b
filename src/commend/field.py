"""Exact coefficient arithmetic in cyclotomic-rational fields Q(zeta_N), and
the dense univariate list kernel it runs on (`mpoly` and `rat1` use it too).

A Coefficient stores the order N of the field it lives in and its residue
vector: the coordinates of the element in the power basis 1, z, ..., z^(phi(N)-1)
of Q[z]/Phi_N(z).  Residue arithmetic is list arithmetic modulo Phi_N on the
kernel: a product is `dense_mul` then the remainder by Phi_N, an inverse is
`dense_inverse_mod`.  Every constructor contracts the element to the smallest
order that contains it, so equality and hashing are canonical across fields.
Mixed-order arithmetic lifts both operands to the lcm of their orders.

Rational elements (order 1) never go through `lift`, `_pair` or `_contract`:
arithmetic on two of them works on the Fractions and skips `__init__`.
Negation, `inverse`, and `+`, `-`, `*` with exactly one rational operand
keep the operand's order and build the result from residues, also skipping
`__init__` and `_contract`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .errors import NotDivisible


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


# ---------------------------------------------------------------------------
# Dense univariate kernel: coefficient lists [c0, ..., cd] over the field
# ---------------------------------------------------------------------------
# Results are trimmed (last entry nonzero); the zero polynomial is [].  Lists
# hold Fractions (or ints) over Q, Coefficients over Q(zeta_n) and, for
# K[z2][z1] in `mpoly`, MPolys in z2; the list arithmetic uses only + - * /,
# truthiness and == 1 on the entries.  A divisor whose leading entry is not a
# field element (an int other than 1, or an MPoly) divides exactly or raises
# NotDivisible, so no int / int can leave a float behind.
#
# The gcd, Yun (in `mpoly`) and the extended Euclid (here) run on the
# remainders of `_pseudo_divmod`, which divides no entry, each brought to a
# normal form: over Q, after denominators are cleared once, divided by its
# integer content with a positive leading entry (the primitive PRS: Collins,
# J. ACM 14, 1967; Brown-Traub, J. ACM 18, 1971); over Q(zeta_n) made monic
# (`_domain` picks one of these two); over K[z2] divided by its content
# (`mpoly._primitive_poly`).


def _trim(a: list) -> list:
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _dense_sub(a: list, b: list) -> list:
    n = min(len(a), len(b))
    return _trim([x - y for x, y in zip(a, b)] + a[n:] + [-y for y in b[n:]])


def _scale(a: list, c) -> list:
    return a if c == 1 else [x * c for x in a]


def dense_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    # seed every slot with one product (row b[0] and column a[-1]), so the
    # entries keep the inputs' type, then add the other nonzero products
    out = [x * b[0] for x in a] + [a[-1] * y for y in b[1:]]
    rest = [(j, y) for j, y in enumerate(b) if j and y]
    for i, x in enumerate(a[:-1]):
        if x:
            for j, y in rest:
                out[i + j] = out[i + j] + x * y
    return _trim(out)


def dense_shift(a: list, t) -> list:
    """The list of a(x + t).  Pass i divides a[i:] by x - t by Horner's rule:
    entry i of a(x + t) is the remainder, left in a[i]."""
    a = list(a)
    for i in range(len(a) - 1):
        for k in range(len(a) - 2, i - 1, -1):
            a[k] = a[k] + t * a[k + 1]
    return a


def _exact_quotient(a, b):
    """a / b in Z or K[z2]; NotDivisible when b does not divide a."""
    if type(b) is not int:
        return a.exact_divide(b)
    q, m = divmod(a, b)
    if m:
        raise NotDivisible("not an exact quotient in Z[x]")
    return q


def dense_divmod(a: list, b: list):
    """(quotient, remainder) of a by the nonzero b, both trimmed; a monic
    b takes each quotient entry as it stands, with no division.  A b whose
    leading entry is not a field element (an int other than 1, or an MPoly)
    divides in R[x]: each quotient entry is an `_exact_quotient` and the
    remainder is [], or NotDivisible."""
    a, b = _trim(a), _trim(b)
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    db, lb = len(b) - 1, b[-1]
    exact = type(lb) not in (Fraction, Coefficient) and lb != 1
    quot = [None] * max(len(a) - db, 0)
    inv = None if lb == 1 or exact or not quot else 1 / lb
    for i in range(len(quot) - 1, -1, -1):
        c = a[i + db]
        if exact:
            c = _exact_quotient(c, lb)
        elif inv is not None:
            c = c * inv
        quot[i] = c
        if c:
            a[i:i + db] = [x - c * y for x, y in zip(a[i:i + db], b)]
    rem = _trim(a[:db])
    if exact and rem:
        raise NotDivisible("not an exact quotient in R[x]")
    return quot, rem


def _pseudo_divmod(a: list, b: list):
    """(k, q, r) with lc(b)^k * a == q * b + r and deg r < deg b, for a
    nonzero trimmed b, dividing no entry.  Only the steps with a nonzero top
    entry scale by lc(b), so k counts them; k is 0 for a monic b."""
    r, db, lb = list(a), len(b) - 1, b[-1]
    k, q = 0, []  # q from its top entry down
    while len(r) > db:
        top = r.pop()
        i = len(r) - db
        if top and lb != 1:
            k, q = k + 1, [x * lb for x in q]
            r = [x * lb for x in r[:i]] + [x * lb - top * y
                                           for x, y in zip(r[i:], b)]
        elif top:
            r[i:] = [x - top * y for x, y in zip(r[i:], b)]
        q.append(top)
    return k, q[::-1], _trim(r)


def _primitive(a: list):
    """(g, a / g) for an int list, g its content with the sign of its
    leading entry; (1, []) for []."""
    if not a:
        return 1, a
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return g, a if g == 1 else [x // g for x in a]


def _monic(a: list):
    """(lc, a / lc) for a list over a field; (1, []) for []."""
    if not a or a[-1] == 1:
        return 1, a
    inv = 1 / a[-1]
    return a[-1], [x * inv for x in a]


def _clear(a: list):
    """(c, p) with a == c * p for a list over Q, c a Fraction and p a
    primitive int list with a positive leading entry."""
    den = lcm(*(x.denominator for x in a))
    g, p = _primitive([x.numerator * (den // x.denominator) for x in a])
    return Fraction(g, den), p


def _monic_fractions(p: list) -> list:
    return [Fraction(x, p[-1]) for x in p]


def _domain(*lists):
    """(enter, normal, leave) for trimmed lists: enter and normal write a
    list a as (c, p) with a == c * p, p in normal form (enter on the inputs,
    normal on the remainders), and leave turns a normal p into the monic
    result.  Lists with a Coefficient entry are over Q(zeta_n), others over
    Q."""
    if any(isinstance(a[-1], Coefficient) for a in lists if a):
        return _monic, _monic, list
    return _clear, _primitive, _monic_fractions


def dense_inverse_mod(a: list, f: list) -> list:
    """The s of degree below deg f with s * a = 1 mod f, by the extended
    Euclid on pseudo-remainders; raises NotDivisible when a and f share a
    factor.  The cofactor of each remainder r is a list u with one common
    scale e, u * a == e * r (mod f), and u + [e] is normalised like a
    remainder."""
    a, f = _trim(a), _trim(f)
    if not f:
        raise ZeroDivisionError("division by the zero polynomial")
    enter, normal, _ = _domain(a, f)
    ca, a = enter(a)
    f = enter(f)[1]
    # the first step reduces a modulo f
    r0, r1, u0, e0, u1, e1 = a, f, [1], 1, [], 1
    while True:
        k, q, r = _pseudo_divmod(r0, r1)
        # lc(r1)^k * r0 - q * r1 == r == c * r2
        c, r2 = normal(r)
        u2 = _dense_sub(_scale(u0, r1[-1] ** k * e1),
                        dense_mul(q, _scale(u1, e0)))
        v = normal(u2 + [c * e0 * e1])[1]
        r0, r1, u0, e0, u1, e1 = r1, r2, u1, e1, v[:-1], v[-1]
        if len(r1) <= 1:
            break
    if not r1:
        raise NotDivisible("not invertible: the polynomials share a factor")
    inv = 1 / (ca * e1 * r1[0])
    return [x * inv for x in u1]


# ---------------------------------------------------------------------------
# Q(zeta_n) = Q[z]/Phi_n on the kernel
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[Fraction, ...]:
    """The n-th cyclotomic polynomial, low to high degree, as Fractions:
    z^n - 1 divided exactly by Phi_d for each proper divisor d of n."""
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in divisors(n)[:-1]:
        num = dense_divmod(num, cyclotomic_coeffs(d))[0]
    return tuple(num)


def _reduce_mod_cyclotomic(coeffs: list, n: int) -> list[Fraction]:
    """The phi(n) residues of the polynomial `coeffs` modulo Phi_n."""
    res = dense_divmod(coeffs, cyclotomic_coeffs(n))[1]
    return res + [Fraction(0)] * (euler_phi(n) - len(res))


@lru_cache(maxsize=None)
def _power_residues(n: int, upto: int) -> tuple[tuple[Fraction, ...], ...]:
    """Residues of z^k mod Phi_n for 0 <= k < upto, as phi(n)-vectors."""
    return tuple(tuple(_reduce_mod_cyclotomic([Fraction(0)] * k + [Fraction(1)], n))
                 for k in range(upto))


def _gauss_jordan(rows, ncols: int) -> bool:
    """Reduce the augmented rows in place until their first ncols columns
    read as the identity above zero rows; False when the rank is short."""
    for c in range(ncols):
        # column c gets its pivot in row c, or the rank is short
        pivot = next((i for i in range(c, len(rows)) if rows[i][c] != 0),
                     None)
        if pivot is None:
            return False
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(len(rows)):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return True


def _solve_linear(matrix, rhs):
    """Solve matrix @ x = rhs over Q or Q(zeta_n); matrix given as list of
    row tuples of Fraction or Coefficient entries.

    Returns the solution list, or None when the system is inconsistent or
    lacks full column rank (a zero right-hand side tests the rank alone).
    """
    rows = [list(r) + [v] for r, v in zip(matrix, rhs)]
    ncols = len(matrix[0]) if matrix else 0
    if not _gauss_jordan(rows, ncols) or \
            any(row[-1] != 0 for row in rows[ncols:]):
        return None
    return [row[-1] for row in rows[:ncols]]


def _left_inverse(matrix):
    """(inverse, check) for a matrix of m rows and n columns, given as in
    `_solve_linear`: inverse @ matrix is the n x n identity, and the m - n
    check rows span the rows y with y @ matrix == 0.  So matrix @ x = b is
    solvable exactly when check @ b == 0, and then x = inverse @ b.  None
    when the matrix lacks full column rank."""
    m = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    rows = [list(r) + [int(i == k) for k in range(m)]
            for i, r in enumerate(matrix)]
    if not _gauss_jordan(rows, ncols):
        return None
    return ([row[ncols:] for row in rows[:ncols]],
            [row[ncols:] for row in rows[ncols:]])


def first_relation(rows, below):
    """The first of `rows` whose vector part cancels in an incremental
    echelon form, reduced.  A row maps vector keys (at or above `below`) and
    combination keys (below it: the inputs it came from) to nonzero entries.
    Callers bound the rows by a proof that a relation exists."""
    pivots = {}
    for row in rows:
        while (pos := max(row)) in pivots:
            c = row[pos]
            for e, x in pivots[pos].items():
                row[e] = row.get(e, 0) - c * x
            row = {e: x for e, x in row.items() if x}
        if pos < below:
            return row
        inv = 1 / row[pos]
        pivots[pos] = {e: x * inv for e, x in row.items()}
    raise AssertionError("first_relation: the rows ran out")


def _dot(row, vec) -> Fraction:
    return sum((c * x for c, x in zip(row, vec) if c), Fraction(0))


@lru_cache(maxsize=None)
def _subfield_solver(order: int, m: int):
    """`_left_inverse` of the matrix whose columns are the residues, in
    Q(zeta_order), of the power basis of the subfield Q(zeta_m)."""
    phi_m = euler_phi(m)
    step = order // m
    basis = _power_residues(order, phi_m * step or 1)
    cols = [basis[j * step] for j in range(phi_m)]
    return _left_inverse([tuple(col[i] for col in cols)
                          for i in range(euler_phi(order))])


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
        for m in divisors(order)[:-1]:
            # res lies in Q(zeta_m) when the check rows annihilate it
            inverse, check = _subfield_solver(order, m)
            if not any(_dot(row, res) for row in check):
                return Coefficient._contract(
                    m, [_dot(row, res) for row in inverse])
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
    def _canonical(order: int, res: tuple) -> "Coefficient":
        """The element with these residues at an order already minimal."""
        c = object.__new__(Coefficient)
        object.__setattr__(c, "order", order)
        object.__setattr__(c, "res", res)
        return c

    @staticmethod
    def root_of_unity(order: int, power: int = 1) -> "Coefficient":
        z_k = [Fraction(0)] * (power % order) + [Fraction(1)]
        return Coefficient(order, _reduce_mod_cyclotomic(z_k, order))

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
        out = [Fraction(0)] * (len(self.res) * step)
        out[::step] = self.res
        return order, tuple(_reduce_mod_cyclotomic(out, order))

    def _pair(self, other: "Coefficient"):
        n = lcm(self.order, other.order)
        _, a = self.lift(n)
        _, b = other.lift(n)
        return n, a, b

    # -- arithmetic ---------------------------------------------------
    # A rational shift, or a nonzero rational multiple, of x lies in exactly
    # the same subfields as x: with one rational operand the result keeps
    # the other's order and is built from its residues without `_contract`.
    def __add__(self, other):
        other = Coefficient.coerce(other)
        if self.order == 1 == other.order:
            return Coefficient._rational(self.res[0] + other.res[0])
        if self.order == 1 or other.order == 1:
            x, q = (self, other.res[0]) if other.order == 1 else (other, self.res[0])
            return Coefficient._canonical(x.order, (x.res[0] + q,) + x.res[1:])
        n, a, b = self._pair(other)
        return Coefficient(n, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        if self.order == 1:
            return Coefficient._rational(-self.res[0])
        return Coefficient._canonical(self.order, tuple(-x for x in self.res))

    def __sub__(self, other):
        other = Coefficient.coerce(other)
        if self.order == 1 == other.order:
            return Coefficient._rational(self.res[0] - other.res[0])
        if other.order == 1:
            r = self.res
            return Coefficient._canonical(self.order, (r[0] - other.res[0],) + r[1:])
        if self.order == 1:
            return -other + self
        n, a, b = self._pair(other)
        return Coefficient(n, [x - y for x, y in zip(a, b)])

    def __rsub__(self, other):
        return Coefficient.coerce(other) - self

    def __mul__(self, other):
        other = Coefficient.coerce(other)
        if self.order == 1 == other.order:
            return Coefficient._rational(self.res[0] * other.res[0])
        if other.order == 1 or self.order == 1:
            x, q = (self, other.res[0]) if other.order == 1 else (other, self.res[0])
            if not q:
                return _ZERO
            return Coefficient._canonical(x.order, tuple(q * c for c in x.res))
        n, a, b = self._pair(other)
        return Coefficient(n, _reduce_mod_cyclotomic(dense_mul(a, b), n))

    __rmul__ = __mul__

    def inverse(self) -> "Coefficient":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.order == 1:
            return Coefficient._rational(1 / self.res[0])
        # x and 1/x lie in the same subfields, so the order stays minimal
        inv = dense_inverse_mod(self.res, cyclotomic_coeffs(self.order))
        return Coefficient._canonical(
            self.order, tuple(_reduce_mod_cyclotomic(inv, self.order)))

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
        from .mpoly import MPoly
        from .render import render_poly
        return render_poly(MPoly.constant(self), self.order)


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
