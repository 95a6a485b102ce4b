"""Sparse exact multivariate polynomials over cyclotomic-rational coefficients.

Terms are stored as a dict from exponent tuples to nonzero Coefficient values,
over a canonical ordered variable tuple.  The term order used for leading
terms, printing and division is graded lexicographic: compare total degree
first, then the exponent tuple lexicographically in variable order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .errors import BothZero, NotASquare, NotDivisible
from .field import Coefficient, kth_roots

# Canonical precedence used to order variable tuples.
VAR_ORDER = (
    "z1", "z2", "x", "y", "s", "t", "e1", "e2",
    "y1", "y2", "u", "v", "c", "w1", "w2",
)


def _var_rank(name: str):
    try:
        return (0, VAR_ORDER.index(name))
    except ValueError:
        return (1, name)


class MPoly:
    """Immutable sparse polynomial; do not mutate `terms` after construction."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms):
        object.__setattr__(self, "vars", tuple(variables))
        object.__setattr__(self, "terms", dict(terms))

    def __setattr__(self, *_):
        raise AttributeError("MPoly is immutable")

    # -- construction -------------------------------------------------
    @staticmethod
    def make(variables, terms) -> "MPoly":
        """Canonicalize: sort variables, drop zero coefficients and unused variables."""
        variables = sorted(set(variables), key=_var_rank)
        clean = {}
        for exps, coef in terms.items():
            coef = Coefficient.coerce(coef)
            if not coef.is_zero():
                clean[exps] = coef
        used = [i for i in range(len(variables)) if any(e[i] for e in clean)]
        if len(used) == len(variables):
            return MPoly(variables, clean)
        variables2 = [variables[i] for i in used]
        clean2 = {tuple(e[i] for i in used): c for e, c in clean.items()}
        return MPoly(variables2, clean2)

    @staticmethod
    def constant(value) -> "MPoly":
        coef = Coefficient.coerce(value)
        return MPoly((), {} if coef.is_zero() else {(): coef})

    @staticmethod
    def var(name: str, exp: int = 1) -> "MPoly":
        if exp == 0:
            return MPoly.constant(1)
        return MPoly((name,), {(exp,): Coefficient.one()})

    @staticmethod
    def zero() -> "MPoly":
        return MPoly((), {})

    @staticmethod
    def one() -> "MPoly":
        return MPoly.constant(1)

    # -- basic queries -------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.vars or all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Coefficient:
        if self.is_zero():
            return Coefficient.zero()
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if self.is_zero():
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        if self.is_zero():
            return -1
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def depends_on(self, name: str) -> bool:
        return self.degree_in(name) > 0

    @staticmethod
    def _grlex_key(exps):
        return (sum(exps), exps)

    def leading(self):
        """(exponent tuple, coefficient) of the graded-lex leading term."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=MPoly._grlex_key)
        return e, self.terms[e]

    def leading_coefficient(self) -> Coefficient:
        return self.leading()[1]

    def coefficient_of(self, monomial: dict) -> Coefficient:
        """Coefficient of the monomial given as {var: exp} (absent vars exp 0)."""
        for name in monomial:
            if monomial[name] and name not in self.vars:
                return Coefficient.zero()
        key = tuple(monomial.get(v, 0) for v in self.vars)
        extra = {v: e for v, e in monomial.items() if e and v not in self.vars}
        if extra:
            return Coefficient.zero()
        return self.terms.get(key, Coefficient.zero())

    def field_order(self) -> int:
        n = 1
        for c in self.terms.values():
            n = lcm(n, c.order)
        return n

    # -- alignment helper ----------------------------------------------
    def _aligned(self, other: "MPoly"):
        """(variables, self's terms, other's terms) over both vars; read-only."""
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        variables = sorted(set(self.vars) | set(other.vars), key=_var_rank)
        return variables, self._embed(variables), other._embed(variables)

    def _embed(self, variables) -> dict:
        """The terms keyed over `variables`, a superset of self.vars; read-only."""
        if self.vars == tuple(variables):
            return self.terms
        idx = [self.vars.index(v) if v in self.vars else None for v in variables]
        return {tuple(e[i] if i is not None else 0 for i in idx): c
                for e, c in self.terms.items()}

    @staticmethod
    def _sum(polys) -> "MPoly":
        """The sum of `polys`, collected in one dict and canonicalised once."""
        polys = list(polys)
        variables = sorted({v for p in polys for v in p.vars}, key=_var_rank)
        out = {}
        for p in polys:
            for e, c in p._embed(variables).items():
                prev = out.get(e)
                out[e] = c if prev is None else prev + c
        return MPoly.make(variables, out)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        return MPoly._sum((self, MPoly.coerce(other)))

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-MPoly.coerce(other))

    def __rsub__(self, other):
        return MPoly.coerce(other) - self

    def __mul__(self, other):
        other = MPoly.coerce(other)
        variables, a, b = self._aligned(other)
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                prev = out.get(e)
                out[e] = c1 * c2 if prev is None else prev + c1 * c2
        return MPoly.make(variables, out)

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("negative exponent")
        result = MPoly.one()
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base if exp > 1 else base
            exp >>= 1
        return result

    def scale(self, coef) -> "MPoly":
        coef = Coefficient.coerce(coef)
        if coef.is_zero():
            return MPoly.zero()
        return MPoly(self.vars, {e: c * coef for e, c in self.terms.items()})

    @staticmethod
    def coerce(value) -> "MPoly":
        if isinstance(value, MPoly):
            return value
        return MPoly.constant(value)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Coefficient)):
            other = MPoly.coerce(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- calculus ------------------------------------------------------
    def derivative(self, name: str) -> "MPoly":
        if name not in self.vars:
            return MPoly.zero()
        i = self.vars.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return MPoly.make(self.vars, out)

    # -- substitution --------------------------------------------------
    def substitute(self, bindings: dict) -> "MPoly":
        """Replace variables by polynomials (or coefficients); others stay fixed."""
        bound = {k: MPoly.coerce(v) for k, v in bindings.items()}
        cache = {}

        def power(name, exp):
            key = (name, exp)
            if key not in cache:
                if exp == 0:
                    cache[key] = MPoly.one()
                elif exp == 1:
                    cache[key] = bound.get(name, MPoly.var(name))
                else:
                    half = power(name, exp // 2)
                    cache[key] = half * half * power(name, exp % 2) \
                        if exp % 2 else half * half
            return cache[key]

        def term(e, c):
            t = MPoly.constant(c)
            for name, exp in zip(self.vars, e):
                if exp:
                    t = t * power(name, exp)
            return t

        return MPoly._sum(term(e, c) for e, c in self.terms.items())

    def evaluate(self, values: dict) -> Coefficient:
        """Evaluate at a full point given as {var: Coefficient-like}."""
        total = Coefficient.zero()
        for e, c in self.terms.items():
            prod = c
            for name, exp in zip(self.vars, e):
                if exp:
                    prod = prod * Coefficient.coerce(values[name]) ** exp
            total = total + prod
        return total

    # -- division ------------------------------------------------------
    def exact_divide(self, other: "MPoly") -> "MPoly":
        """The quotient self/other, or raise NotDivisible.

        Greedy graded-lex leading-term division: with coefficients in a field
        and a single divisor, the reduction succeeds iff the division is exact.
        Polynomials in one variable go through `dense_divmod`.
        """
        other = MPoly.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return MPoly.zero()
        variables, rem, div = self._aligned(other)
        if len(variables) == 1:
            quot, r = dense_divmod(self.dense_in(variables[0]),
                                   other.dense_in(variables[0]))
            if r:
                raise NotDivisible(
                    f"monomial {(len(r) - 1,)} not reducible by divisor")
            return from_dense(quot, variables[0])
        rem = dict(rem)
        lead_e = max(div, key=MPoly._grlex_key)
        lead_c = div[lead_e]
        quot = {}
        while rem:
            e = max(rem, key=MPoly._grlex_key)
            diff = tuple(a - b for a, b in zip(e, lead_e))
            if any(d < 0 for d in diff):
                raise NotDivisible(f"monomial {e} not reducible by divisor")
            c = rem[e] / lead_c
            quot[diff] = c
            for e2, c2 in div.items():
                tgt = tuple(a + b for a, b in zip(diff, e2))
                val = rem.get(tgt, Coefficient.zero()) - c * c2
                if val.is_zero():
                    rem.pop(tgt, None)
                else:
                    rem[tgt] = val
        return MPoly.make(variables, quot)

    def divides(self, other: "MPoly") -> bool:
        try:
            other.exact_divide(self)
            return True
        except NotDivisible:
            return False

    # -- univariate view ----------------------------------------------
    def univariate_in(self, name: str) -> list["MPoly"]:
        """Coefficient list (low to high in `name`) with MPoly entries."""
        d = self.degree_in(name)
        if d < 0:
            return []
        i = self.vars.index(name) if name in self.vars else None
        rest_vars = tuple(v for v in self.vars if v != name)
        buckets = [dict() for _ in range(d + 1)]
        for e, c in self.terms.items():
            k = e[i] if i is not None else 0
            rest_e = tuple(x for v, x in zip(self.vars, e) if v != name)
            buckets[k][rest_e] = c
        return [MPoly.make(rest_vars, b) for b in buckets]

    def dense_in(self, name: str) -> list[Coefficient]:
        """Coefficient list [c0, ..., cd] of a polynomial in `name` alone."""
        out = [Coefficient.zero()] * (max(self.degree_in(name), 0) + 1)
        i = self.vars.index(name) if name in self.vars else None
        for e, c in self.terms.items():
            out[e[i] if i is not None else 0] = c
        return out

    @staticmethod
    def from_univariate(coeffs: list["MPoly"], name: str) -> "MPoly":
        return MPoly._sum(c * MPoly.var(name, k) for k, c in enumerate(coeffs))

    # -- normalization -------------------------------------------------
    def monic(self) -> "MPoly":
        """Scale so the graded-lex leading coefficient is one."""
        if self.is_zero():
            return self
        return self.scale(self.leading_coefficient().inverse())

    # -- printing ------------------------------------------------------
    def __repr__(self):
        return f"MPoly({self})"

    def __str__(self):
        from .render import render_poly
        return render_poly(self)


def session_order(*polys: MPoly) -> int:
    """The least n with every coefficient of every poly in Q(zeta_n)."""
    n = 1
    for p in polys:
        n = lcm(n, p.field_order())
    return n


# ---------------------------------------------------------------------------
# Dense univariate kernel: coefficient lists [c0, ..., cd] over the field
# ---------------------------------------------------------------------------
# Lists are trimmed (last entry nonzero); the zero polynomial is [].


def _trim(a: list[Coefficient]) -> list[Coefficient]:
    a = list(a)
    while a and a[-1].is_zero():
        a.pop()
    return a


def _dense_monic(a: list[Coefficient]) -> list[Coefficient]:
    if not a or a[-1].is_one():
        return a
    inv = a[-1].inverse()
    return [c * inv for c in a]


def from_dense(a: list[Coefficient], name: str) -> MPoly:
    """The polynomial sum a[k] * name^k."""
    return MPoly.make((name,), {(k,): c for k, c in enumerate(a)})


def dense_mul(a: list[Coefficient], b: list[Coefficient]) -> list[Coefficient]:
    if not a or not b:
        return []
    out = [Coefficient.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x.is_zero():
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    return _trim(out)


def dense_divmod(a: list[Coefficient], b: list[Coefficient]):
    """(quotient, remainder) of a by the nonzero b, both trimmed."""
    a, b = _trim(a), _trim(b)
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    db = len(b) - 1
    if len(a) <= db:
        return [], a
    inv = b[-1].inverse()
    quot = [Coefficient.zero()] * (len(a) - db)
    for i in range(len(quot) - 1, -1, -1):
        c = a[i + db] * inv
        quot[i] = c
        if not c.is_zero():
            for j in range(db):
                a[i + j] = a[i + j] - c * b[j]
    return quot, _trim(a[:db])


def dense_gcd(a: list[Coefficient], b: list[Coefficient]) -> list[Coefficient]:
    """The monic gcd by Euclid's algorithm, each remainder made monic."""
    a, b = _dense_monic(_trim(a)), _trim(b)
    while b:
        b = _dense_monic(b)
        a, b = b, dense_divmod(a, b)[1]
    return a


def dense_inverse_mod(a: list[Coefficient], f: list[Coefficient]):
    """The s of degree below deg f with s * a = 1 mod f, by the extended
    Euclid; raises NotDivisible when a and f share a factor."""
    r0, r1 = _trim(f), dense_divmod(a, f)[1]
    s0, s1 = [], [Coefficient.one()]
    # invariant: s0 * a = r0 and s1 * a = r1 (mod f)
    while len(r1) > 1:
        q, r = dense_divmod(r0, r1)
        qs1 = zip_longest(s0, dense_mul(q, s1), fillvalue=Coefficient.zero())
        r0, r1, s0, s1 = r1, r, s1, _trim([x - y for x, y in qs1])
    if not r1:
        raise NotDivisible("not invertible: the polynomials share a factor")
    inv = r1[0].inverse()
    return dense_divmod([c * inv for c in s1], f)[1]


# ---------------------------------------------------------------------------
# Ring-level algorithms
# ---------------------------------------------------------------------------

def _pseudo_remainder(a: list[MPoly], b: list[MPoly]):
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b (coefficient lists)."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    e = (len(r) - 1) - db + 1
    while r and len(r) - 1 >= db:
        top = r[-1]
        r = [c * lb for c in r]
        base = len(r) - 1 - db
        for j in range(db + 1):
            r[base + j] = r[base + j] - top * b[j]
        r.pop()
        while r and r[-1].is_zero():
            r.pop()
        e -= 1
    for _ in range(max(e, 0)):
        r = [c * lb for c in r]
    return r


def _content(coeffs: list[MPoly]) -> MPoly:
    g = MPoly.zero()
    for c in coeffs:
        g = gcd_poly(g, c)
        if g.is_constant() and not g.is_zero():
            return MPoly.one()
    return g if not g.is_zero() else MPoly.zero()


def gcd_poly(a: MPoly, b: MPoly) -> MPoly:
    """The gcd, graded-lex-monic normalized.

    Polynomials in one shared variable go through the dense Euclid
    (`dense_gcd`); otherwise the subresultant PRS in the first variable,
    whose contents recurse down to that univariate base case.
    """
    if a.is_zero() and b.is_zero():
        return MPoly.zero()
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.is_constant() or b.is_constant():
        return MPoly.one()
    variables = sorted(set(a.vars) | set(b.vars), key=_var_rank)
    name = variables[0]
    if len(variables) == 1:
        return from_dense(dense_gcd(a.dense_in(name), b.dense_in(name)), name)
    if not a.depends_on(name) or not b.depends_on(name):
        # main variable missing from one side: gcd divides that side's content
        if a.depends_on(name):
            return gcd_poly(_content(a.univariate_in(name)), b).monic()
        if b.depends_on(name):
            return gcd_poly(a, _content(b.univariate_in(name))).monic()
        return gcd_poly(a, b)  # unreachable: some variable is shared
    ua, ub = a.univariate_in(name), b.univariate_in(name)
    ca, cb = _content(ua), _content(ub)
    pa = [c.exact_divide(ca) for c in ua]
    pb = [c.exact_divide(cb) for c in ub]
    cont = gcd_poly(ca, cb)
    if len(pa) < len(pb):
        pa, pb = pb, pa
    # subresultant PRS
    g, h = MPoly.one(), MPoly.one()
    while True:
        delta = len(pa) - len(pb)
        rem = _pseudo_remainder(pa, pb)
        if not rem:
            break
        if len(rem) == 1:
            pb = [MPoly.one()]
            break
        divisor = g * h**delta
        pa, pb = pb, [c.exact_divide(divisor) for c in rem]
        g = pa[-1]
        h = h if delta == 0 else (g**delta).exact_divide(h**(delta - 1)) \
            if delta > 1 else g
    if len(pb) == 1:
        return cont.monic()
    cpb = _content(pb)
    prim = [c.exact_divide(cpb) for c in pb]
    result = MPoly.from_univariate([cont * c for c in prim], name)
    return result.monic()


def squarefree_decompose(p: MPoly):
    """(unit, [(factor, multiplicity)]) with monic squarefree coprime factors."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.is_constant():
        return p.constant_value(), []
    name = p.vars[0]
    ua = p.univariate_in(name)
    cont = _content(ua)
    prim = MPoly.from_univariate([c.exact_divide(cont) for c in ua], name)
    unit_c, factors_c = squarefree_decompose(cont) if not cont.is_constant() \
        else (cont.constant_value(), [])
    # Yun's algorithm on the primitive part with respect to `name`
    factors = []
    w = prim
    dw = prim.derivative(name)
    g = gcd_poly(w, dw)
    if g.is_constant():
        factors.append((w.monic(), 1))
    else:
        c1 = w.exact_divide(g)
        d1 = dw.exact_divide(g) - c1.derivative(name)
        k = 1
        while not c1.is_constant():
            a = gcd_poly(c1, d1)
            if not a.is_constant():
                factors.append((a.monic(), k))
            c1 = c1.exact_divide(a)
            d1 = d1.exact_divide(a) - c1.derivative(name)
            k += 1
    merged = factors_c + factors
    rebuilt = MPoly.one()
    for f, m in merged:
        rebuilt = rebuilt * f**m
    unit = p.exact_divide(rebuilt)
    if not unit.is_constant():
        raise AssertionError("squarefree factors do not rebuild p")
    return unit.constant_value(), merged


def squarefree_part(p: MPoly) -> MPoly:
    _, factors = squarefree_decompose(p)
    out = MPoly.one()
    for f, _m in factors:
        out = out * f
    return out.monic()


def resultant(a: MPoly, b: MPoly, name: str) -> MPoly:
    """Sylvester resultant in `name`, exact via fraction-free elimination."""
    if a.is_zero() and b.is_zero():
        raise BothZero("resultant of two zero polynomials")
    if a.is_zero() or b.is_zero():
        return MPoly.zero()
    m, n = a.degree_in(name), b.degree_in(name)
    if m == 0 and n == 0:
        return MPoly.one()
    if m == 0:
        return a**n
    if n == 0:
        return b**m
    ua = a.univariate_in(name)
    ub = b.univariate_in(name)
    size = m + n
    rows = []
    for i in range(n):
        row = [MPoly.zero()] * size
        for j, c in enumerate(ua):
            row[i + (m - j)] = c
        rows.append(row)
    for i in range(m):
        row = [MPoly.zero()] * size
        for j, c in enumerate(ub):
            row[i + (n - j)] = c
        rows.append(row)
    # Bareiss fraction-free determinant
    sign = 1
    prev = MPoly.one()
    for k in range(size - 1):
        if rows[k][k].is_zero():
            pivot = next((i for i in range(k + 1, size)
                          if not rows[i][k].is_zero()), None)
            if pivot is None:
                return MPoly.zero()
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]
                rows[i][j] = num.exact_divide(prev)
            rows[i][k] = MPoly.zero()
        prev = rows[k][k]
    det = rows[size - 1][size - 1]
    return det if sign == 1 else -det


def binary_form_resultant(f: MPoly, g: MPoly, uname: str, vname: str,
                          m: int | None = None, n: int | None = None) -> Coefficient:
    """Resultant of two binary forms in (uname, vname) at declared degrees.

    Unlike the affine resultant, the Sylvester matrix is built at the form
    degrees, so a form like v^2 counts as a degree-2 form with vanishing
    leading u-coefficients.  Nonzero iff the forms share no projective zero.

    The library tests that with `forms_share_zero`; this 2d x 2d
    elimination stays as the tests' oracle for it, and under this name
    because the benchmark's layer attribution wraps it.
    """
    if f.is_zero() and g.is_zero():
        raise BothZero("resultant of two zero forms")
    if f.is_zero() or g.is_zero():
        return Coefficient.zero()
    m = f.total_degree() if m is None else m
    n = g.total_degree() if n is None else n

    def coeffs(p, deg):
        return [p.coefficient_of({uname: k, vname: deg - k})
                for k in range(deg + 1)]

    fa, ga = coeffs(f, m), coeffs(g, n)
    size = m + n
    if size == 0:
        return Coefficient.one()
    rows = []
    for i in range(n):
        row = [Coefficient.zero()] * size
        for j, c in enumerate(fa):
            row[i + (m - j)] = c
        rows.append(row)
    for i in range(m):
        row = [Coefficient.zero()] * size
        for j, c in enumerate(ga):
            row[i + (n - j)] = c
        rows.append(row)
    det = Coefficient.one()
    for k in range(size):
        pivot = next((i for i in range(k, size) if not rows[i][k].is_zero()), None)
        if pivot is None:
            return Coefficient.zero()
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det = det * rows[k][k]
        inv = rows[k][k].inverse()
        for i in range(k + 1, size):
            if not rows[i][k].is_zero():
                factor = rows[i][k] * inv
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return det


def forms_share_zero(f: MPoly, g: MPoly, uname: str, vname: str,
                     m: int, n: int) -> bool:
    """True iff binary forms in (uname, vname), of declared degrees m and n,
    share a zero in P^1; a zero form shares every zero.

    Dehomogenised at uname = 1, the forms share the zero [0:1] iff both drop
    degree, and an affine zero iff their gcd is nonconstant.
    """
    if f.is_zero() and g.is_zero():
        raise BothZero("two zero forms")
    if f.is_zero() or g.is_zero():
        return True
    fa = _trim([f.coefficient_of({uname: m - k, vname: k}) for k in range(m + 1)])
    ga = _trim([g.coefficient_of({uname: n - k, vname: k}) for k in range(n + 1)])
    if len(fa) <= m and len(ga) <= n:
        return True
    return len(dense_gcd(fa, ga)) > 1


def rational_roots(p: MPoly) -> list[Fraction]:
    """Field-rational roots of a univariate polynomial with rational coefficients.

    Returns [] when coefficients leave Q (honest under-approximation, see notes).
    """
    if p.is_zero() or p.is_constant():
        return []
    if len(p.vars) != 1:
        raise ValueError("rational_roots needs a univariate polynomial")
    coeffs = p.univariate_in(p.vars[0])
    vals = []
    for c in coeffs:
        cv = c.constant_value()
        if not cv.is_rational():
            return []
        vals.append(cv.rational_value)
    den = 1
    for v in vals:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = [int(v * den) for v in vals]
    roots = []
    low = next(i for i, c in enumerate(ints) if c)
    if low > 0:
        roots.append(Fraction(0))
    ints = ints[low:]
    a0, an = abs(ints[0]), abs(ints[-1])

    def divs(n):
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                out.append(n // d)
            d += 1
        return out

    seen = set(roots)
    for p_ in divs(a0):
        for q_ in divs(an):
            for cand in (Fraction(p_, q_), Fraction(-p_, q_)):
                if cand in seen:
                    continue
                if sum(c * cand**k for k, c in enumerate(ints)) == 0:
                    seen.add(cand)
                    roots.append(cand)
    return sorted(roots)


def _coefficient_sqrt(u: Coefficient, order: int = 1) -> Coefficient:
    sols = kth_roots(u, 2, order)
    if not sols:
        raise NotASquare(f"coefficient {u} has no square root in the field")
    return sols[0]


def _sign_normalize(w: MPoly) -> MPoly:
    if w.is_zero():
        return w
    lead = w.leading_coefficient()
    first = next((c for c in lead.res if c != 0), Fraction(0))
    return -w if first < 0 else w


def poly_sqrt(p: MPoly) -> MPoly:
    """w with w^2 == p, sign-normalized; raises NotASquare otherwise."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    unit, factors = squarefree_decompose(p)
    if any(m % 2 for _f, m in factors):
        raise NotASquare("odd multiplicity in squarefree decomposition")
    root = MPoly.constant(_coefficient_sqrt(unit, p.field_order()))
    for f, m in factors:
        root = root * f ** (m // 2)
    if root * root != p:
        raise AssertionError("poly_sqrt: the root does not square to p")
    return _sign_normalize(root)
