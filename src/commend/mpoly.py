"""Sparse exact multivariate polynomials over cyclotomic-rational coefficients.

Terms are stored as a dict from exponent tuples to nonzero Coefficient values,
over a canonical ordered variable tuple.  The term order used for leading
terms, printing and division is graded lexicographic: compare total degree
first, then the exponent tuple lexicographically in variable order.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import BothZero, NotASquare, NotDivisible
from .field import (Coefficient, _dense_sub, _domain, _pseudo_divmod, _scale,
                    _trim, dense_divmod, dense_mul, divisors, kth_roots)

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

    def __bool__(self) -> bool:
        return bool(self.terms)

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
        powers = {name: {1: bound.get(name, MPoly.var(name))}
                  for name in self.vars}

        def term(e, c):
            t = MPoly.constant(c)
            for name, exp in zip(self.vars, e):
                if exp:
                    t = t * _power(powers[name], exp)
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
            quot, r = dense_divmod(*kernel_lists(self.dense_in(variables[0]),
                                                 other.dense_in(variables[0])))
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


def _power(cache: dict, exp: int) -> MPoly:
    """cache[exp] = cache[1]^exp by squaring, memoised in cache.  A module
    function, not a self-recursive closure: such a closure is a reference
    cycle that keeps every cached power alive until the cyclic collector runs."""
    if exp not in cache:
        half = _power(cache, exp // 2)
        cache[exp] = half * half * cache[1] if exp % 2 else half * half
    return cache[exp]


def session_order(*polys: MPoly) -> int:
    """The least n with every coefficient of every poly in Q(zeta_n)."""
    n = 1
    for p in polys:
        n = lcm(n, p.field_order())
    return n


# ---------------------------------------------------------------------------
# Dense univariate kernel: coefficient lists [c0, ..., cd] over the field
# ---------------------------------------------------------------------------
# The list primitives (`_trim`, `_dense_sub`, `dense_mul`, `dense_divmod`,
# `_pseudo_divmod`, `dense_inverse_mod`) and the domain steps (`_domain`)
# live in `field`, whose Q(zeta_n) arithmetic runs on them.  The one gcd
# loop (`_prs_gcd`) and the one Yun (`_yun`) here take the normal form as an
# argument: `_domain`'s over Q and Q(zeta_n), `_primitive_poly` over K[z2].
# `kernel_lists` turns Coefficient lists into Fractions when every entry is
# rational; `from_dense` and `MPoly.make` coerce the entries back.


def kernel_lists(*lists: list[Coefficient]) -> list[list]:
    """The lists with Fraction entries when every entry of every list is
    rational (order 1), else unchanged."""
    if all(c.order == 1 for a in lists for c in a):
        return [[c.res[0] for c in a] for a in lists]
    return list(lists)


def _dense_derivative(a: list) -> list:
    return _trim([c * k for k, c in enumerate(a)][1:])


def from_dense(a: list, name: str) -> MPoly:
    """The polynomial sum a[k] * name^k."""
    return MPoly.make((name,), {(k,): c for k, c in enumerate(a)})


def dense_eval(a: list, x):
    """a(x) of a nonzero list, by Horner's rule."""
    acc = a[-1]
    for c in reversed(a[:-1]):
        acc = acc * x + c
    return acc


def _prs_gcd(a: list, b: list, normal) -> list:
    """The gcd of a list a in `normal` form and a list b, by
    pseudo-remainders each brought to that form."""
    b = normal(b)[1]
    while b:
        a, b = b, normal(_pseudo_divmod(a, b)[2])[1]
    return a


def dense_gcd(a: list, b: list) -> list:
    """The monic gcd, by the pseudo-remainder sequence of `_domain`'s
    normal forms: primitive int lists over Q, monic lists over Q(zeta_n)."""
    a, b = _trim(a), _trim(b)
    enter, normal, leave = _domain(a, b)
    return leave(_prs_gcd(enter(a)[1], enter(b)[1], normal))


def _yun(w: list, normal) -> list:
    """[(factor, multiplicity)] of a list w in `normal` form by Yun's
    algorithm (Yun, SYMSAC 1976): factors in normal form, squarefree and
    coprime, by ascending multiplicity.  Each quotient by a gcd in normal
    form is exact (Gauss's lemma), and the factors must rebuild w exactly:
    a product of normal forms is one."""
    # the pass at k = 0 divides out gcd(w, w') and records no factor
    c, d, factors, k = w, _dense_derivative(w), [], 0
    while len(c) > 1:
        g = _prs_gcd(c, d, normal)
        if k and len(g) > 1:
            factors.append((g, k))
        c = dense_divmod(c, g)[0]
        d = _dense_sub(dense_divmod(d, g)[0], _dense_derivative(c))
        k += 1
    rebuilt = [1]
    for f, m in factors:
        for _ in range(m):
            rebuilt = dense_mul(rebuilt, f)
    if rebuilt != w:
        raise AssertionError("squarefree factors do not rebuild p")
    return factors


def dense_squarefree(a: list):
    """(unit, [(factor, multiplicity)]) of a nonzero list by `_yun` on its
    normal form: monic squarefree coprime factors, ascending multiplicity."""
    a = _trim(a)
    enter, normal, leave = _domain(a)
    return a[-1], [(leave(f), m) for f, m in _yun(enter(a)[1], normal)]


# ---------------------------------------------------------------------------
# Ring-level algorithms
# ---------------------------------------------------------------------------


def _primitive_poly(a: list[MPoly]):
    """(c, a / c) for a list over K[z2], c its content (the monic gcd of
    its entries) scaled so that the top entry of a / c has graded-lex
    leading coefficient 1; (1, []) for [].  Scaled so, a product of normal
    forms is again one."""
    if not a:
        return 1, a
    c = MPoly.zero()
    for x in a:
        c = gcd_poly(c, x)
        if c == 1:
            break
    c = c.scale(a[-1].leading_coefficient())
    return c, [x.exact_divide(c) for x in a]


def _subresultant_prs(a: list[MPoly], b: list[MPoly]):
    """The subresultant PRS (Collins 1967; Brown-Traub 1971) of coefficient
    lists with deg a >= deg b >= 1: each pseudo-remainder divided exactly
    by g h^delta, g the last member's leading coefficient, h its scale.

    Returns (last, nxt, h, sign): the last member of positive degree; the
    next one, [] when a and b share a factor and a constant list otherwise;
    h after the last step; (-1)^(steps where both degrees are odd).
    """
    g, h, sign = MPoly.one(), MPoly.one(), 1
    while True:
        delta = len(a) - len(b)
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            sign = -sign
        # the pseudo-remainder lc(b)^(delta + 1) * a mod b
        k, _, rem = _pseudo_divmod(a, b)
        rem = _scale(rem, b[-1] ** (delta + 1 - k))
        divisor = g * h**delta
        a, b = b, [c.exact_divide(divisor) for c in rem]
        g = a[-1]
        h = h if delta == 0 else (g**delta).exact_divide(h**(delta - 1)) \
            if delta > 1 else g
        if len(b) <= 1:
            return a, b, h, sign


def gcd_poly(a: MPoly, b: MPoly) -> MPoly:
    """The gcd, graded-lex-monic normalized.

    Polynomials in one shared variable go through `dense_gcd`; otherwise
    the gcd is the gcd of the contents in the first variable times
    `_prs_gcd` of the primitive parts, the contents recursing down to that
    univariate case.  A side free of the first variable is its own content.
    """
    if a.is_zero() or b.is_zero():
        return (b if a.is_zero() else a).monic()
    if a.is_constant() or b.is_constant():
        return MPoly.one()
    variables = sorted(set(a.vars) | set(b.vars), key=_var_rank)
    name = variables[0]
    if len(variables) == 1:
        return from_dense(dense_gcd(*kernel_lists(a.dense_in(name),
                                                  b.dense_in(name))), name)
    ca, pa = _primitive_poly(a.univariate_in(name))
    cb, pb = _primitive_poly(b.univariate_in(name))
    g = MPoly.from_univariate(_prs_gcd(pa, pb, _primitive_poly), name)
    return (gcd_poly(ca, cb) * g).monic()


def squarefree_decompose(p: MPoly):
    """(unit, [(factor, multiplicity)]) with monic squarefree coprime factors.

    A polynomial in one variable goes through `dense_squarefree`, in
    Fractions over Q; otherwise `_yun` runs on the primitive part in the
    first variable, the content recursing down to that case.  `_yun` checks
    that its factors rebuild the primitive part.  The unit is lc(p): every
    factor is graded-lex monic and lt(fg) = lt(f) lt(g).
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.is_constant():
        return p.constant_value(), []
    name = p.vars[0]
    if len(p.vars) == 1:
        unit, factors = dense_squarefree(*kernel_lists(p.dense_in(name)))
        return (Coefficient.coerce(unit),
                [(from_dense(f, name), m) for f, m in factors])
    cont, prim = _primitive_poly(p.univariate_in(name))
    return p.leading_coefficient(), squarefree_decompose(cont)[1] + [
        (MPoly.from_univariate(f, name).monic(), m)
        for f, m in _yun(prim, _primitive_poly)]


def squarefree_part(p: MPoly) -> MPoly:
    if p.total_degree() == 1:
        return p.monic()
    _, factors = squarefree_decompose(p)
    out = MPoly.one()
    for f, _m in factors:
        out = out * f
    return out.monic()


def resultant(a: MPoly, b: MPoly, name: str) -> MPoly:
    """Sylvester resultant in `name`, from the subresultant PRS (Cohen, A
    Course in Computational Algebraic Number Theory, Alg. 3.3.7): with
    deg a >= deg b >= 1 (else swapped, at the sign (-1)^(mn)) it ends on a
    member of degree d and a next member [r0], or [] for a resultant 0;
    the resultant is sign * r0^d / h^(d-1)."""
    if a.is_zero() and b.is_zero():
        raise BothZero("resultant of two zero polynomials")
    if a.is_zero() or b.is_zero():
        return MPoly.zero()
    m, n = a.degree_in(name), b.degree_in(name)
    if m == 0 or n == 0:
        return a**n * b**m
    ua, ub = a.univariate_in(name), b.univariate_in(name)
    swap = -1 if m < n and m * n % 2 else 1
    last, nxt, h, sign = _subresultant_prs(*((ua, ub) if m >= n else (ub, ua)))
    if not nxt:
        return MPoly.zero()
    d = len(last) - 1
    res = (nxt[0]**d).exact_divide(h**(d - 1))
    return res if sign * swap == 1 else -res


def binary_form_resultant(f: MPoly, g: MPoly, uname: str, vname: str,
                          m: int | None = None, n: int | None = None) -> Coefficient:
    """Resultant of two binary forms in (uname, vname) at declared degrees.

    Unlike the affine resultant, the Sylvester matrix is built at the form
    degrees, so a form like v^2 counts as a degree-2 form with vanishing
    leading u-coefficients.  Nonzero iff the forms share no projective zero.

    The library tests that with `forms_share_zero` on the forms' lists at
    uname = 1; this 2d x 2d elimination stays as the tests' oracle for it,
    and under this name because the benchmark's layer attribution wraps it.
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


def forms_share_zero(a: list, b: list, m: int, n: int) -> bool:
    """True iff the binary forms in (u, v) of declared degrees m and n whose
    lists at u = 1 are a and b (the entry of index k that of u^(m-k) v^k)
    share a zero in P^1; a zero form shares every zero.

    The forms share the zero [0:1] iff both lists fall short of their
    degree, and an affine zero iff the lists' gcd is nonconstant.
    """
    a, b = _trim(a), _trim(b)
    if not a or not b or (len(a) <= m and len(b) <= n):
        return True
    return len(dense_gcd(a, b)) > 1


def rational_roots(p: MPoly) -> list[Fraction]:
    """Field-rational roots of a univariate polynomial with rational
    coefficients, by `dense_rational_roots` on its coefficient list.

    Returns [] when coefficients leave Q (honest under-approximation, see notes).
    """
    if p.is_constant():
        return []
    if len(p.vars) != 1:
        raise ValueError("rational_roots needs a univariate polynomial")
    return dense_rational_roots(p.dense_in(p.vars[0]))


def dense_rational_roots(a: list) -> list[Fraction]:
    """The rational roots, ascending, of a list of Fractions or Coefficients;
    [] when a coefficient leaves Q.

    The candidates are +-p/q with p dividing the lowest nonzero and q the
    leading coefficient of the integer multiple; each reduced a/b is tested
    by one integer Horner pass, sum c_k a^k b^(n-k) == 0.
    """
    a = _trim(a)
    if len(a) < 2:
        return []
    if isinstance(a[-1], Coefficient):
        if any(c.order != 1 for c in a):
            return []
        a = [c.res[0] for c in a]
    den = lcm(*(v.denominator for v in a))
    ints = [int(v * den) for v in a]
    roots = []
    low = next(i for i, c in enumerate(ints) if c)
    if low > 0:
        roots.append(Fraction(0))
    ints = ints[low:]
    a0, an = abs(ints[0]), abs(ints[-1])

    def is_root(num, den):
        acc, scale = ints[-1], 1
        for c in reversed(ints[:-1]):
            scale *= den
            acc = acc * num + c * scale
        return acc == 0

    seen = set(roots)
    for p_ in divisors(a0):
        for q_ in divisors(an):
            for cand in (Fraction(p_, q_), Fraction(-p_, q_)):
                if cand in seen:
                    continue
                if is_root(cand.numerator, cand.denominator):
                    seen.add(cand)
                    roots.append(cand)
    return sorted(roots)


def poly_sqrt(p: MPoly, order: int) -> MPoly:
    """w over Q(zeta_order) with w^2 == p, sign-normalized; else NotASquare.

    The terms of w come out in descending graded-lex order, the first a
    root of p's leading term.  With t0 > ... > tk known, p - (t0 + ... +
    tk)^2 = 2 (t0 + ... + tk) r + r^2 for the rest r of w, so the next
    term is the remainder's leading term over 2 t0.  When that is not a
    monomial below tk, or w^2 != p at the end, p is not a square.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    lead, c0 = p.leading()
    roots = kth_roots(c0, 2, order)
    if not roots:
        raise NotASquare(f"coefficient {c0} has no square root in the field")
    e = top = tuple(x // 2 for x in lead)
    c, root, rem = roots[0], {}, dict(p.terms)
    while True:
        # rem -= (2 (terms so far) + c x^e) c x^e
        for e2, c2 in [*((e2, 2 * c2) for e2, c2 in root.items()), (e, c)]:
            k = tuple(a + b for a, b in zip(e, e2))
            rem[k] = rem.get(k, 0) - c * c2
            if not rem[k]:
                del rem[k]
        root[e] = c
        if not rem:
            break
        lead = max(rem, key=MPoly._grlex_key)
        last, e = e, tuple(a - b for a, b in zip(lead, top))
        if min(e) < 0 or MPoly._grlex_key(e) >= MPoly._grlex_key(last):
            raise NotASquare("the polynomial is not a square")
        c = rem[lead] / (2 * root[top])
    w = MPoly.make(p.vars, root)
    if w * w != p:
        raise NotASquare("the polynomial is not a square")
    # the sign that makes the first nonzero residue of the lead positive
    return -w if next(x for x in w.leading_coefficient().res if x) < 0 else w
