"""Recognition of commuting pairs against the standard families, plus a
grid search over small coefficient supports that finds each f's one
possible partner g from the conditions of f o g == g o f linear in g.

The search solves those conditions once per degree pair, with f's
parameters u as symbols (`_partner_system`): g's parameters come out as
integer polynomials in u over one common denominator, and the conditions
in u alone, with the consistency conditions of the rows beyond the rank,
as integer polynomials that must vanish.  Each parameter of f first keeps
the grid values its own conditions and partner coordinates allow; each f
of their product then costs a few evaluations on its own numbers and one
lookup of its partner in the grid.  The other conditions of f o g == g o f,
solved once with the rest, are evaluated at each such pair's numbers, which
decides commutation exactly; only commuting pairs are built as maps, and
`recognize` composes each pair it names once more.  At equal degrees the
partner is f itself: no pair.

`recognize` derives a conjugation sigma(z) = L z + t and a normal form of
one family, and answers only when affine_conjugate(f_i, sigma) equals the
normal form exactly for both maps.  Ex1, Ex2 and Ex3 have normal forms
without a degree-(d-1) part, so t comes from one linear solve
(`_translation`) and L from the coefficients of the centred pair; for Ex4, L
comes from the top forms (the map at infinity) and t from the same solve.
A pair whose centred maps are both homogeneous is Ex3 (see `recognize`);
otherwise the matchers Ex1, Ex2, Ex4 run in turn (Ex4 alone when no shift
centres f1), and the first exact match answers.  That is the verdict of
Ex1, Ex2, Ex3, Ex4 in a row: Ex1 and Ex2 compare linear conjugates of the
centred maps, homogeneous when those are, with normal forms that are not,
and Ex3 takes only homogeneous pairs.  Only the centring shift, and the
last shift of Ex4, go through substitution (`affine_conjugate`): the L tried
are diagonal or antidiagonal, and conjugating by one rescales the
coefficients, swapping the exponents for an antidiagonal L
(`_monomial_conjugate`), since conj(f, a o b) = conj(conj(f, a), b).

Guaranteed: a pair conjugate to an Ex1-Ex4 normal-form pair by a sigma with
L diagonal or antidiagonal, its entries rationals times roots of unity of
the session field, and t any translation over that field, is recognised.
A pair conjugate to one only through other affine maps (a shear such as
(z1 + z2, z2), say) may come back Unknown.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .endo2 import (DEFAULT_DEGREE_CAP, PlaneEndo, _top_lists, commutes,
                    compose, extends_to_p2, iterate)
from .errors import BudgetExceeded, PreconditionViolated
from .families import (FamilyTag, _ex1_pair, chebyshev,
                       chebyshev_conjugacies, ex2, ex4_descend)
from .field import (Coefficient, _left_inverse, _solve_linear, kth_roots,
                    roots_of_unity)
from .mpoly import MPoly, from_dense, session_order

Z1, Z2 = MPoly.var("z1"), MPoly.var("z2")


# ---------------------------------------------------------------------------
# Affine conjugation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineConj:
    linear: tuple      # ((a, b), (c, d)) of Coefficient
    translation: tuple  # (t1, t2) of Coefficient

    def __post_init__(self):
        (a, b), (c, d) = self.linear
        row1 = (Coefficient.coerce(a), Coefficient.coerce(b))
        row2 = (Coefficient.coerce(c), Coefficient.coerce(d))
        object.__setattr__(self, "linear", (row1, row2))
        t1, t2 = self.translation
        object.__setattr__(self, "translation",
                           (Coefficient.coerce(t1), Coefficient.coerce(t2)))
        if self.determinant().is_zero():
            raise PreconditionViolated("linear part must be invertible")

    def determinant(self) -> Coefficient:
        (a, b), (c, d) = self.linear
        return a * d - b * c

    @staticmethod
    def identity() -> "AffineConj":
        return AffineConj(((1, 0), (0, 1)), (0, 0))

    @staticmethod
    def diagonal(p, q, translation=(0, 0)) -> "AffineConj":
        return AffineConj(((p, 0), (0, q)), translation)

    @staticmethod
    def antidiagonal(p, q, translation=(0, 0)) -> "AffineConj":
        return AffineConj(((0, p), (q, 0)), translation)

    @staticmethod
    def shift(t1, t2) -> "AffineConj":
        return AffineConj(((1, 0), (0, 1)), (t1, t2))

    def as_polys(self):
        (a, b), (c, d) = self.linear
        t1, t2 = self.translation
        return (Z1.scale(a) + Z2.scale(b) + MPoly.constant(t1),
                Z1.scale(c) + Z2.scale(d) + MPoly.constant(t2))

    def compose(self, other: "AffineConj") -> "AffineConj":
        """self after other: (self.compose(other))(z) = self(other(z))."""
        (a, b), (c, d) = self.linear
        (e, f), (g, h) = other.linear
        lin = ((a * e + b * g, a * f + b * h),
               (c * e + d * g, c * f + d * h))
        u1, u2 = other.translation
        t1, t2 = self.translation
        tr = (a * u1 + b * u2 + t1, c * u1 + d * u2 + t2)
        return AffineConj(lin, tr)

    def inverse(self) -> "AffineConj":
        (a, b), (c, d) = self.linear
        det = self.determinant().inverse()
        inv = ((d * det, -b * det), (-c * det, a * det))
        t1, t2 = self.translation
        (ia, ib), (ic, id_) = inv
        return AffineConj(inv, (-(ia * t1 + ib * t2), -(ic * t1 + id_ * t2)))


IDENTITY = AffineConj.identity()
SWAP = AffineConj.antidiagonal(1, 1)


def affine_conjugate(f: PlaneEndo, s: AffineConj) -> PlaneEndo:
    """The conjugate map s^{-1} o f o s; f itself when s is the identity."""
    if s == IDENTITY:
        return f
    s1, s2 = s.as_polys()
    moved1 = f.comp1.substitute({"z1": s1, "z2": s2})
    moved2 = f.comp2.substitute({"z1": s1, "z2": s2})
    inv = s.inverse()
    (a, b), (c, d) = inv.linear
    t1, t2 = inv.translation
    return PlaneEndo(moved1.scale(a) + moved2.scale(b) + MPoly.constant(t1),
                     moved1.scale(c) + moved2.scale(d) + MPoly.constant(t2))


def _monomial_conjugate(f: PlaneEndo, s: AffineConj) -> PlaneEndo:
    """affine_conjugate(f, s) for s(z) = (p z1, q z2) or (p z2, q z1), read
    off f's coefficients: the z1^i z2^j term of f's component k gets the
    factor p^i q^j / (p, q)[k]; for the second s that term moves to z1^j z2^i
    in the other component."""
    if s == IDENTITY:
        return f
    (a, b), (c, d) = s.linear
    swap = a.is_zero()
    p, q = (b, c) if swap else (a, d)
    pp, qq = ([x**k for k in range(f.degree + 1)] for x in (p, q))
    first, second = (f.comp1, p.inverse()), (f.comp2, q.inverse())
    return PlaneEndo(*(MPoly.make(("z1", "z2"), {
        (j, i) if swap else (i, j): coef * pp[i] * qq[j] * inv
        for (i, j), coef in comp._embed(("z1", "z2")).items()})
        for comp, inv in ((second, first) if swap else (first, second))))


# ---------------------------------------------------------------------------
# Disjoint iterates certificate
# ---------------------------------------------------------------------------


def disjoint_iterates(f1: PlaneEndo, f2: PlaneEndo,
                      degree_cap: int = DEFAULT_DEGREE_CAP) -> bool:
    """True when no iterates f1^n == f2^m with d1^n == d2^m <= degree_cap.

    Those (n, m) are the multiples of the least such pair (n0, m0), so
    f1^n0 and f2^m0 are composed onto the iterates one step at a time.
    """
    d1, d2 = f1.degree, f2.degree
    if d1 == d2 == 1:
        raise PreconditionViolated("one of the maps must have degree at least 2")
    exps = range(1, degree_cap.bit_length() + 1)
    pair = next(((n, m) for n in exps for m in exps
                 if d1**n == d2**m <= degree_cap), None)
    if pair is None:
        return True
    n0, m0 = pair
    step1, step2 = iterate(f1, n0, degree_cap), iterate(f2, m0, degree_cap)
    g1, g2, dn = step1, step2, d1**n0
    while g1 != g2:
        dn *= d1**n0
        if dn > degree_cap:
            return True
        g1, g2 = compose(step1, g1), compose(step2, g2)
    return False


# ---------------------------------------------------------------------------
# Conjugation helpers
# ---------------------------------------------------------------------------


def _monomial_coefficient(p: MPoly, var: str, d: int):
    """c when p == c * var^d exactly, else None."""
    if set(p.vars) <= {var} and len(p.terms) == 1 and p.degree_in(var) == d:
        return p.leading_coefficient()
    return None


def _split(f: PlaneEndo):
    """("straight"|"swap", u, v) when the coordinates decouple, else None."""
    c1, c2 = f.comp1, f.comp2
    as_y = {"z1": "y", "z2": "y"}  # each component is in one variable
    if not c1.depends_on("z2") and not c2.depends_on("z1"):
        return "straight", c1.rename(as_y), c2.rename(as_y)
    if not c1.depends_on("z1") and not c2.depends_on("z2"):
        return "swap", c1.rename(as_y), c2.rename(as_y)
    return None


def _translation(f: PlaneEndo, target: PlaneEndo | None = None):
    """The shift s(z) = z + u after which s^-1 o f o s has the degree-(d-1)
    part of target (zero when target is None), or None.  That part moves by
    DK_d . u, K_d the top forms of f; when f extends to P^2 they have no
    common zero, so the columns of DK_d are independent and u is unique.
    Row a holds the z1^a z2^(d-1-a) coefficients of the partials of K_d,
    read off its list (`_top_lists`)."""
    d, S, T = _top_lists(f)
    wants = (MPoly.zero(),) * 2 if target is None else \
        (target.comp1, target.comp2)
    rows, rhs = [], []
    for comp, top, want in zip((f.comp1, f.comp2), (S, T), wants):
        for a in range(d):
            mono = {"z1": a, "z2": d - 1 - a}
            rows.append(((a + 1) * top[d - 1 - a], (d - a) * top[d - a]))
            rhs.append(want.coefficient_of(mono) - comp.coefficient_of(mono))
    u = _solve_linear(rows, rhs)
    return None if u is None else AffineConj.shift(*u)


# ---------------------------------------------------------------------------
# Verdicts and matchers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    tag: str
    params: FamilyTag | None = None
    conjugation: AffineConj | None = None
    degree_cap: int | None = None

    def __str__(self):
        return self.tag if self.params is None else f"{self.tag}: {self.params}"


def _match_ex1(f1, f2, order, centred):
    # f_i conjugated by sigma = centre o base o diag(p, q) is c_i conjugated
    # by the monomial map base o diag(p, q).  The normal forms are built
    # unchecked (`_ex1_pair`): the input pair commutes (see `recognize`), so
    # normal forms equal to its conjugates commute, and others never match.
    centre, c1, c2 = centred
    for base in (IDENTITY, SWAP):
        h1 = _monomial_conjugate(c1, base)
        h2 = _monomial_conjugate(c2, base)
        for g1, g2, flipped in ((h1, h2, False), (h2, h1, True)):
            d1, d2 = g1.degree, g2.degree
            s1 = _split(g1)
            s2 = _split(g2)
            if not s1 or not s2 or s1[0] != "straight" or s2[0] != "straight":
                continue
            k1 = _monomial_coefficient(g1.comp1, "z1", d1)
            k2 = _monomial_coefficient(g2.comp1, "z1", d2)
            if k1 is None or k2 is None:
                continue
            cheb1 = chebyshev_conjugacies(s1[2], order)  # g1's z2 part
            for p in kth_roots(k1.inverse(), d1 - 1, order):
                lam = k2 * p**(d2 - 1)
                for q, _theta, sgn1 in cheb1:
                    scale = AffineConj.diagonal(p, q)
                    moved = (_monomial_conjugate(h1, scale),
                             _monomial_conjugate(h2, scale))
                    for sgn2 in (1, -1):
                        t1, t2 = _ex1_pair(d1, d2, lam, (sgn1, sgn2))
                        if moved == ((t2, t1) if flipped else (t1, t2)):
                            tag = FamilyTag("Ex1", (d1, d2, lam, (sgn1, sgn2)))
                            sigma = centre.compose(base).compose(scale)
                            return Verdict("Ex1", tag, sigma)
    return None


def _ex2_params(g: PlaneEndo):
    """(d, variant, signs) when g == ex2(d, variant, signs) exactly."""
    split = _split(g)
    if not split:
        return None
    lead = Coefficient.rational(2**(g.degree - 1))  # leading coeff of T_d
    signs = tuple(1 if w.leading_coefficient() == lead else -1
                  for w in split[1:])
    params = (g.degree, split[0], signs)
    return params if g == ex2(*params) else None


def _ex2_swap_scales(u: MPoly, order: int):
    """(p, q) with u(y) = sgn*p*T_d(y/q) for a sign sgn (u the centred first
    component of a map that swaps the coordinates), from the y^d and y^(d-2)
    coefficients."""
    d = u.degree_in("y")
    if d < 2:
        return []
    w = u.dense_in("y")
    tau = chebyshev(d, "classical").dense_in("x")
    if w[d - 2].is_zero():
        return []
    ratio = (tau[d] * w[d - 2]) / (tau[d - 2] * w[d])
    return [(w[d] * q**d / (tau[d] * Coefficient.rational(sgn)), q)
            for q in kth_roots(ratio, 2, order) for sgn in (1, -1)]


def _match_ex2(f1, f2, order, centred):
    centre, c1, c2 = centred
    s1 = _split(c1)
    s2 = _split(c2)
    if not s1 or not s2:
        return None
    p_cands, q_cands = [], []
    for variant, u, v in (s1, s2):
        if variant == "straight":
            p_cands.extend(b for b, _t, _s in chebyshev_conjugacies(u, order))
            q_cands.extend(b for b, _t, _s in chebyshev_conjugacies(v, order))
    if p_cands or q_cands:
        one = [Coefficient.one()]
        scales = itertools.product(p_cands or one, q_cands or one)
    else:
        scales = _ex2_swap_scales(s1[1], order)
    for p, q in scales:
        # f_i conjugated by centre o diag(p, q) is c_i conjugated by diag(p, q)
        scale = AffineConj.diagonal(p, q)
        m1 = _ex2_params(_monomial_conjugate(c1, scale))
        m2 = m1 and _ex2_params(_monomial_conjugate(c2, scale))
        if m2:
            return Verdict("Ex2", FamilyTag("Ex2", (m1, m2)),
                           centre.compose(scale))
    return None


def _homogeneous(h: PlaneEndo) -> bool:
    return all(sum(e) == h.degree
               for comp in (h.comp1, h.comp2) for e in comp.terms)


def _z1_power(S: list):
    """a when the top list S is that of a*z1^d with a != 0, else None."""
    return None if not S[0] or any(S[1:]) else Coefficient.coerce(S[0])


def _descent_poly(g: PlaneEndo):
    """h read off the top forms of g, which for ex4_descend(h) are
    (a*z1^d, a*z1^d*h(z2/z1)) with a the leading coefficient of h; or None."""
    _d, S, T = _top_lists(g)
    a = _z1_power(S)
    if a is None:
        return None
    h = from_dense(T, "x").scale(a.inverse())
    return None if h.is_constant() else h


def _match_ex4(f1, f2, order, _centred):
    # Descents are stable under diag(b, b^2) (h -> h(b*x)/b), so with
    # base o diag(1, q) every base o diag(b, q*b^2) works.  q is read off the
    # first component of diag(1, q) o descent o diag(1, 1/q): coefficients a
    # of z1^d and -d*a/q of z1^(d-2)*z2, which no shift moves.  Each family
    # is tried through its first member in the order identity, then
    # (anti)diagonal(p, q) over roots of unity p, q in sort order: the order
    # of the earlier root-of-unity search, whose verdicts keep their bytes.
    rank = {u: i for i, u in enumerate(roots_of_unity(order))}
    tries = []
    for swapped, base in enumerate((IDENTITY, SWAP)):
        g = _monomial_conjugate(f1, base)
        d, S, _T = _top_lists(g)
        a = _z1_power(S)
        c = g.comp1.coefficient_of({"z1": d - 2, "z2": 1})
        if a is None or c.is_zero():
            continue
        q = -a * d / c
        key, beta = (2, swapped), Coefficient.one()
        for b in rank:
            s = q * b * b
            if s in rank:
                p_, q_ = (s, b) if swapped else (b, s)
                k = (0,) if not swapped and p_ == 1 and q_ == 1 else \
                    (1, rank[p_], rank[q_], swapped)
                if k < key:
                    key, beta = k, b
        tries.append((key, base.compose(
            AffineConj.diagonal(beta, q * beta * beta))))
    for _key, linear in sorted(tries, key=lambda t: t[0]):
        g1, g2 = _monomial_conjugate(f1, linear), _monomial_conjugate(f2, linear)
        h1, h2 = _descent_poly(g1), _descent_poly(g2)
        if h1 is None or h2 is None:
            continue
        want1, want2 = ex4_descend(h1), ex4_descend(h2)
        shift = _translation(g1, want1)
        if shift is None:
            continue
        # f_i conjugated by linear o shift is g_i conjugated by shift
        if affine_conjugate(g1, shift) == want1 and \
                affine_conjugate(g2, shift) == want2:
            return Verdict("Ex4", FamilyTag("Ex4", (h1, h2)),
                           linear.compose(shift))
    return None


def recognize(f1: PlaneEndo, f2: PlaneEndo,
              degree_cap: int = DEFAULT_DEGREE_CAP) -> Verdict:
    """The family of the pair and the conjugation to its normal form.

    When a shift centres f1 and both centred maps h_i are homogeneous, the
    pair is Ex3 with (lam1, lam2) the leading coefficients of the h_i's
    first components.  Their top forms share no zero, so the line maps
    r_i = h_i / lam_i are maps of P^1 (`RatMap1`), and h1 o h2 = h2 o h1
    gives r1 o r2 = c (r2 o r1) with c = lam1^(d2-1) / lam2^(d1-1): the
    scalar condition of `families.ex3_lift`, whose lift is (h1, h2).
    """
    if f1.degree < 2 or f2.degree < 2:
        raise PreconditionViolated("both degrees must be at least 2")
    if not commutes(f1, f2):
        raise PreconditionViolated("maps do not commute")
    if not (extends_to_p2(f1) and extends_to_p2(f2)):
        raise PreconditionViolated("both maps must extend to the plane closure")
    if not disjoint_iterates(f1, f2, degree_cap):
        raise PreconditionViolated("iterates collide within the degree cap")
    order = session_order(f1.comp1, f1.comp2, f2.comp1, f2.comp2)
    centre = _translation(f1)
    if centre is None:
        # no shift clears the degree-(d-1) part: only Ex4 can match
        matchers, centred = [_match_ex4], None
    else:
        h1, h2 = affine_conjugate(f1, centre), affine_conjugate(f2, centre)
        if _homogeneous(h1) and _homogeneous(h2):
            lams = (h1.comp1.leading_coefficient(),
                    h2.comp1.leading_coefficient())
            return Verdict("Ex3", FamilyTag("Ex3", lams), centre, degree_cap)
        # Ex1 and Ex2 compare linear conjugates of the centred maps with
        # normal forms that are not homogeneous
        centred = (centre, h1, h2)
        matchers = [_match_ex1, _match_ex2, _match_ex4]
    for matcher in matchers:
        verdict = matcher(f1, f2, order, centred)
        if verdict:
            return Verdict(verdict.tag, verdict.params, verdict.conjugation,
                           degree_cap)
    return Verdict("Unknown", None, None, degree_cap)


# ---------------------------------------------------------------------------
# Desk-scale grid search
# ---------------------------------------------------------------------------


@dataclass
class SearchSummary:
    degrees: tuple
    coefficients: tuple
    total_pairs: int = 0
    probe_pass: int = 0
    commuting: int = 0
    extending: int = 0
    disjoint: int = 0
    recognized: dict = field(default_factory=dict)
    unknown: list = field(default_factory=list)
    pairs: list = field(default_factory=list)

    def as_dict(self):
        return {
            "degrees": list(self.degrees),
            "coefficients": [str(c) for c in self.coefficients],
            "total_pairs": self.total_pairs,
            "probe_pass": self.probe_pass,
            "commuting": self.commuting,
            "extending": self.extending,
            "disjoint": self.disjoint,
            "recognized": dict(sorted(self.recognized.items())),
            "unknown": list(self.unknown),
            "pairs": list(self.pairs),
        }


# the z1^i z2^j of each component's terms in the degree-d grid maps: the
# first with coefficient 1, the others with the parameters in turn; the grid
# of a coefficient set holds every tuple of parameters, in lexicographic order
_GRID_TERMS = {2: (((2, 0), (0, 1), (0, 0)), ((0, 2), (1, 0), (0, 0))),
               3: (((3, 0), (1, 1), (1, 0)), ((0, 3), (0, 1)))}
_GRID_PARAMS = {2: 4, 3: 3}


def _grid_endo(d: int, params):
    """Components of the degree-d grid map; numbers go straight into its
    terms, MPoly parameters multiply their monomials."""
    it = iter(params)
    comps = [[(lead, 1)] + [(e, next(it)) for e in rest]
             for lead, *rest in _GRID_TERMS[d]]
    if any(isinstance(x, MPoly) for x in params):
        return tuple(MPoly._sum(MPoly.make(("z1", "z2"), {e: 1}) * c
                                for e, c in terms) for terms in comps)
    return tuple(MPoly.make(("z1", "z2"), dict(terms)) for terms in comps)


def _integer_terms(p: MPoly, names, den: int):
    """den * p, for p over Q in the variables names, as terms (c, ((k, e),
    ...)): an int c times the product of names[k]^e."""
    at = [names.index(v) for v in p.vars]
    return tuple((int(c.rational_value * den),
                  tuple((k, e) for k, e in zip(at, exps) if e))
                 for exps, c in p.terms.items())


def _denominator(polys) -> int:
    return math.lcm(*(c.rational_value.denominator
                      for p in polys for c in p.terms.values()))


def _evaluate(terms, point):
    """Integer terms from `_integer_terms` at the parameter tuple point."""
    total = 0
    for c, factors in terms:
        for k, e in factors:
            c *= point[k] ** e
        total += c
    return total


def _separable_system(d1: int, d2: int):
    """The separable part of f o g == g o f for grid maps f of degree d1
    (parameters u0, u1, ...) and g of degree d2 (v0, v1, ...).

    Returns (f_only, lhs, rhs, rest): every polynomial of f_only, in the u
    alone, vanishes, and lhs . v == -rhs(u), with lhs a constant rational
    matrix.  rest holds the other conditions, each with a term of degree two
    or more in the v or mixing u and v, as polynomials in the u and v.
    """
    vs = [f"v{k}" for k in range(_GRID_PARAMS[d2])]
    f = _grid_endo(d1, [MPoly.var(f"u{k}") for k in range(_GRID_PARAMS[d1])])
    g = _grid_endo(d2, [MPoly.var(v) for v in vs])
    f_only, lhs, rhs, rest = [], [], [], []
    for fc, gc in zip(f, g):
        diff = fc.substitute({"z1": g[0], "z2": g[1]}) \
            - gc.substitute({"z1": f[0], "z2": f[1]})
        for by_z1 in diff.univariate_in("z1"):
            for cond in by_z1.univariate_in("z2"):
                free = cond.substitute(dict.fromkeys(vs, 0))
                linear = cond - free
                if any(sum(e) != 1 for e in linear.terms):
                    rest.append(cond)
                elif linear.terms:
                    lhs.append(tuple(
                        linear.coefficient_of({v: 1}).rational_value
                        for v in vs))
                    rhs.append(free)
                elif free.terms:
                    f_only.append(free)
    return f_only, lhs, rhs, rest


class _PartnerSystem(NamedTuple):
    conditions: tuple  # integer terms that vanish at f's parameters u
    partner: tuple     # integer terms: g's parameters times den
    den: int
    is_f: bool         # partner(u) / den == u: g is f itself
    own: tuple         # per parameter k: (conditions, partner) in u_k alone
    rest: tuple        # integer terms in u + v: at a partner, all vanish
                       # iff f o g == g o f


@functools.cache
def _partner_system(d1: int, d2: int) -> _PartnerSystem:
    """`_separable_system` solved for the v once, as integer terms (see
    `_evaluate`).

    f has a partner only when every condition vanishes at f's parameters
    u, and then the partner's parameters are partner(u) / den.  lhs has
    full column rank, so each f has at most one partner; the conditions
    are f_only and the consistency conditions check . rhs(u) == 0 of the
    rows beyond the rank.

    Such a pair (u, v) commutes exactly when every polynomial of rest
    vanishes at u + v.  Each coefficient of f_u o g_v - g_v o f_u in z1, z2
    is a polynomial in (u, v), and putting numbers in for (u, v) is a ring
    homomorphism that commutes with substitution, so that coefficient at
    the numbers is the symbolic condition evaluated there.  The separable
    conditions vanish at every partner by construction (f_only and the
    consistency conditions are checked, and v solves lhs . v == -rhs(u)),
    which leaves the conditions of rest.
    """
    us = [f"u{k}" for k in range(_GRID_PARAMS[d1])]
    names = us + [f"v{k}" for k in range(_GRID_PARAMS[d2])]
    f_only, lhs, rhs, rest = _separable_system(d1, d2)
    solved = _left_inverse(lhs) if lhs else None
    if solved is None:
        raise AssertionError(f"grid partner system for degrees {(d1, d2)} "
                             "lacks full column rank")
    inverse, check = solved

    def combine(row):
        return MPoly._sum(p.scale(c) for c, p in zip(row, rhs) if c)

    consistency = [q for q in map(combine, check) if q.terms]
    conditions = tuple(_integer_terms(q, us, _denominator([q]))
                       for q in f_only + consistency)
    solution = [-combine(row) for row in inverse]
    den = _denominator(solution)
    partner = tuple(_integer_terms(q, us, den) for q in solution)

    def alone(k, polys):
        return tuple(p for p in polys
                     if all(i == k for _c, fs in p for i, _e in fs))

    return _PartnerSystem(
        conditions, partner, den,
        d1 == d2 and solution == [MPoly.var(u) for u in us],
        tuple((alone(k, conditions), alone(k, partner))
              for k in range(len(us))),
        tuple(_integer_terms(q, names, _denominator([q])) for q in rest))


def _candidate_pairs(d1: int, d2: int, coeffs):
    """The (f, g) parameter tuples over the sorted coeffs that satisfy the
    separable conditions, f in grid order; when d1 == d2, only g after f.

    Each parameter of f first keeps the values at which its own conditions
    vanish and its own partner coordinates land in the grid; each f of the
    product of those values is then checked on every condition and every
    partner coordinate.
    """
    system = _partner_system(d1, d2)
    if system.is_f:
        return []  # the search pairs distinct maps
    den = system.den
    grid = {c: c for c in coeffs}

    def lookup(x):
        """The grid's number x / den, or None."""
        return grid.get(Fraction(x, den))

    axes = [[x for x in coeffs
             if not any(_evaluate(p, {k: x}) for p in conditions)
             and all(lookup(_evaluate(p, {k: x})) is not None
                     for p in partner)]
            for k, (conditions, partner) in enumerate(system.own)]
    pairs = []
    for u in itertools.product(*axes):
        if any(_evaluate(p, u) for p in system.conditions):
            continue
        v = tuple(lookup(_evaluate(p, u)) for p in system.partner)
        if None not in v and (d1 != d2 or v > u):
            pairs.append((u, v))
    return pairs


def search(degree_pair, coefficient_set, report_sink=None,
           degree_cap: int = DEFAULT_DEGREE_CAP,
           pair_budget: int | None = None) -> SearchSummary:
    d1, d2 = degree_pair
    coeffs = tuple(sorted(set(coefficient_set)))
    summary = SearchSummary((d1, d2), coeffs)
    if not coeffs:
        return summary
    if not {d1, d2} <= _GRID_PARAMS.keys():
        raise ValueError("grid supports degrees 2 and 3 only")
    n1, n2 = (len(coeffs) ** _GRID_PARAMS[d] for d in (d1, d2))
    total = n1 * (n1 - 1) // 2 if d1 == d2 else n1 * n2
    if pair_budget is not None and total > pair_budget:
        summary.total_pairs = pair_budget
        raise BudgetExceeded("pair budget exhausted", partial=summary)
    summary.total_pairs = total
    candidates = _candidate_pairs(d1, d2, coeffs)
    summary.probe_pass = len(candidates)
    rest = _partner_system(d1, d2).rest

    for m1, m2 in candidates:
        if any(_evaluate(p, m1 + m2) for p in rest):
            continue  # f o g != g o f, see `_partner_system`
        summary.commuting += 1
        f1, f2 = PlaneEndo(*_grid_endo(d1, m1)), PlaneEndo(*_grid_endo(d2, m2))
        if not (extends_to_p2(f1) and extends_to_p2(f2)):
            continue
        summary.extending += 1
        if not disjoint_iterates(f1, f2, degree_cap):
            continue
        summary.disjoint += 1
        verdict = recognize(f1, f2, degree_cap)
        record = {
            "f1": f"({f1.comp1}, {f1.comp2})",
            "f2": f"({f2.comp1}, {f2.comp2})",
            "tag": verdict.tag,
            "params": str(verdict.params) if verdict.params else None,
        }
        summary.pairs.append(record)
        if verdict.tag == "Unknown":
            summary.unknown.append(record)
        else:
            summary.recognized[verdict.tag] = \
                summary.recognized.get(verdict.tag, 0) + 1
        if report_sink is not None:
            report_sink(record)
    summary.pairs.sort(key=lambda r: (r["f1"], r["f2"]))
    summary.unknown.sort(key=lambda r: (r["f1"], r["f2"]))
    return summary
