"""Recognition of commuting pairs against the standard families, plus a
grid search over small integer coefficient supports that solves the
conditions of f o g == g o f linear in g for each f's one possible partner.

The conjugation search group is (diagonal or antidiagonal linear part) times
translation; pairs conjugate only through maps outside this group come back
Unknown.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .endo2 import (DEFAULT_DEGREE_CAP, PlaneEndo, _solve_two_var_system,
                    commutes, extends_to_p2, iterate, restrict_infinity)
from .errors import (BudgetExceeded, CommendError, NotCommuting,
                     PreconditionViolated, ScalarNotSolvable)
from .families import (FamilyTag, chebyshev, chebyshev_conjugacies,
                       depression_shift, ex1, ex2, ex3_lift, ex4_descend)
from .field import Coefficient, _solve_linear, kth_roots, roots_of_unity
from .mpoly import MPoly, session_order
from .rat1 import RatMap1, classify_infinity

Z1, Z2 = MPoly.var("z1"), MPoly.var("z2")
Y = MPoly.var("y")


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


SWAP = AffineConj.antidiagonal(1, 1)


def affine_conjugate(f: PlaneEndo, s: AffineConj) -> PlaneEndo:
    """The conjugate map s^{-1} o f o s."""
    s1, s2 = s.as_polys()
    moved1 = f.comp1.substitute({"z1": s1, "z2": s2})
    moved2 = f.comp2.substitute({"z1": s1, "z2": s2})
    inv = s.inverse()
    (a, b), (c, d) = inv.linear
    t1, t2 = inv.translation
    return PlaneEndo(moved1.scale(a) + moved2.scale(b) + MPoly.constant(t1),
                     moved1.scale(c) + moved2.scale(d) + MPoly.constant(t2))


# ---------------------------------------------------------------------------
# Disjoint iterates certificate
# ---------------------------------------------------------------------------


def disjoint_iterates(f1: PlaneEndo, f2: PlaneEndo,
                      degree_cap: int = DEFAULT_DEGREE_CAP) -> bool:
    d1, d2 = f1.degree, f2.degree
    for n in range(1, 64):
        dn = d1**n
        if dn > degree_cap:
            break
        for m in range(1, 64):
            dm = d2**m
            if dm > degree_cap:
                break
            if dn == dm:
                if iterate(f1, n, degree_cap) == iterate(f2, m, degree_cap):
                    return False
    return True


# ---------------------------------------------------------------------------
# One-variable conjugacy solvers
# ---------------------------------------------------------------------------


def _as_y(p: MPoly) -> MPoly:
    sub = {v: Y for v in p.vars}
    return p.substitute(sub) if sub else p


def _monomial_coefficient(p: MPoly, var: str, d: int):
    """c when p == c * var^d exactly, else None."""
    if set(p.vars) - {var}:
        return None
    if p.is_zero() or p.is_constant():
        return None
    if p.degree_in(var) != d or len(p.terms) != 1:
        return None
    return p.leading_coefficient()


def _split(f: PlaneEndo):
    """("straight"|"swap", u, v) when the coordinates decouple, else None."""
    c1, c2 = f.comp1, f.comp2
    if not c1.depends_on("z2") and not c2.depends_on("z1"):
        return "straight", _as_y(c1), _as_y(c2)
    if not c1.depends_on("z1") and not c2.depends_on("z2"):
        return "swap", _as_y(c1), _as_y(c2)
    return None


def _common_fixed_points(f1: PlaneEndo, f2: PlaneEndo):
    sols = _solve_two_var_system([f1.comp1 - Z1, f1.comp2 - Z2], "z1", "z2")
    points = []
    for u, v in sols:
        u, v = Coefficient.coerce(u), Coefficient.coerce(v)
        vals = {"z1": u, "z2": v}
        if (f2.comp1.evaluate(vals) - u).is_zero() and \
                (f2.comp2.evaluate(vals) - v).is_zero():
            points.append((u, v))
    return points


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


def _match_ex1(f1: PlaneEndo, f2: PlaneEndo, order: int):
    for base in (AffineConj.identity(), SWAP):
        h1 = affine_conjugate(f1, base)
        h2 = affine_conjugate(f2, base)
        for g1, g2, flipped in ((h1, h2, False), (h2, h1, True)):
            d1, d2 = g1.degree, g2.degree
            s1 = _split(g1)
            s2 = _split(g2)
            if not s1 or not s2 or s1[0] != "straight" or s2[0] != "straight":
                continue
            c1 = _monomial_coefficient(g1.comp1, "z1", d1)
            c2 = _monomial_coefficient(g2.comp1, "z1", d2)
            if c1 is None or c2 is None:
                continue
            p_candidates = kth_roots(c1.inverse(), d1 - 1, order)
            cheb1 = chebyshev_conjugacies(s1[2], order)  # g1's z2 part
            for p in p_candidates:
                if p.is_zero():
                    continue
                lam = c2 * p**(d2 - 1)
                for q, theta, sgn1 in cheb1:
                    sigma = base.compose(
                        AffineConj.diagonal(p, q, (0, theta)))
                    for sgn2 in (1, -1):
                        try:
                            t1, t2 = ex1(d1, d2, lam, (sgn1, sgn2))
                        except (NotCommuting, PreconditionViolated):
                            continue
                        want1, want2 = (t2, t1) if flipped else (t1, t2)
                        if affine_conjugate(f1, sigma) == want1 and \
                                affine_conjugate(f2, sigma) == want2:
                            tag = FamilyTag("Ex1", (d1, d2, lam, (sgn1, sgn2)))
                            return Verdict("Ex1", tag, sigma)
    return None


def _ex2_match_map(g: PlaneEndo):
    """(d, variant, signs) when g is exactly a coordinatewise Chebyshev map."""
    split = _split(g)
    if not split:
        return None
    variant, u, v = split
    du = u.degree_in("y")
    if v.degree_in("y") != du or du < 2:
        return None
    target = chebyshev(du, "classical").substitute({"x": Y})
    signs = []
    for w in (u, v):
        if w == target:
            signs.append(1)
        elif w == -target:
            signs.append(-1)
        else:
            return None
    return du, "straight" if variant == "straight" else "swap", tuple(signs)


def _match_ex2(f1: PlaneEndo, f2: PlaneEndo, order: int):
    s1 = _split(f1)
    s2 = _split(f2)
    if not s1 or not s2:
        return None
    p_cands, q_cands = [], []
    for variant, u, v in (s1, s2):
        if variant == "straight":
            p_cands.extend(chebyshev_conjugacies(u, order))
            q_cands.extend(chebyshev_conjugacies(v, order))
    if not p_cands and not q_cands:
        # both maps swap their coordinates: solve the coupled scale equations
        u = s1[1]
        d = u.degree_in("y")
        if d < 2:
            return None
        theta2 = depression_shift(u)
        w = u.substitute({"y": Y + MPoly.constant(theta2)}).dense_in("y")
        tau = chebyshev(d, "classical").substitute({"x": Y}).dense_in("y")
        if len(w) < d + 1 or w[d - 2].is_zero():
            return None
        ratio = (tau[d] * w[d - 2]) / (tau[d - 2] * w[d])
        for q in kth_roots(ratio, 2, order):
            if q.is_zero():
                continue
            for sgn in (1, -1):
                p = w[d] * q**d / (tau[d] * Coefficient.rational(sgn))
                theta1 = u.evaluate({"y": theta2}) - p * tau[0] \
                    * Coefficient.rational(sgn)
                verdict = _verify_ex2(f1, f2, p, q, theta1, theta2)
                if verdict:
                    return verdict
        return None
    for p, theta1, _sg in p_cands or [(Coefficient.one(), Coefficient.zero(), 1)]:
        for q, theta2, _sg2 in q_cands or [(Coefficient.one(), Coefficient.zero(), 1)]:
            verdict = _verify_ex2(f1, f2, p, q, theta1, theta2)
            if verdict:
                return verdict
    return None


def _verify_ex2(f1, f2, p, q, theta1, theta2):
    if p.is_zero() or q.is_zero():
        return None
    sigma = AffineConj.diagonal(p, q, (theta1, theta2))
    h1 = affine_conjugate(f1, sigma)
    h2 = affine_conjugate(f2, sigma)
    m1 = _ex2_match_map(h1)
    m2 = _ex2_match_map(h2)
    if m1 and m2:
        assert h1 == ex2(m1[0], m1[1], m1[2])
        assert h2 == ex2(m2[0], m2[1], m2[2])
        return Verdict("Ex2", FamilyTag("Ex2", (m1, m2)), sigma)
    return None


def _is_homogeneous(p: MPoly, d: int) -> bool:
    return not p.is_zero() and all(sum(e) == d for e in p.terms)


def _match_ex3(f1: PlaneEndo, f2: PlaneEndo, order: int):
    shifts = [(Coefficient.zero(), Coefficient.zero())]
    shifts.extend(_common_fixed_points(f1, f2))
    seen = set()
    for t1, t2 in shifts:
        key = (t1.sort_key(), t2.sort_key())
        if key in seen:
            continue
        seen.add(key)
        sigma = AffineConj.shift(t1, t2)
        h1 = affine_conjugate(f1, sigma)
        h2 = affine_conjugate(f2, sigma)
        d1, d2 = h1.degree, h2.degree
        if not (_is_homogeneous(h1.comp1, d1) and _is_homogeneous(h1.comp2, d1)
                and _is_homogeneous(h2.comp1, d2)
                and _is_homogeneous(h2.comp2, d2)):
            continue
        lam1 = h1.comp1.leading_coefficient()
        lam2 = h2.comp1.leading_coefficient()
        bind = {"z1": MPoly.var("s"), "z2": MPoly.var("t")}
        try:
            r1 = RatMap1(h1.comp1.scale(lam1.inverse()).substitute(bind),
                         h1.comp2.scale(lam1.inverse()).substitute(bind))
            r2 = RatMap1(h2.comp1.scale(lam2.inverse()).substitute(bind),
                         h2.comp2.scale(lam2.inverse()).substitute(bind))
            g1, g2 = ex3_lift(r1, r2, lam1, lam2)
        except (ValueError, NotCommuting, ScalarNotSolvable):
            continue
        if g1 == h1 and g2 == h2:
            return Verdict("Ex3", FamilyTag("Ex3", (lam1, lam2)), sigma)
    return None


def _undescend(g: PlaneEndo):
    axis = g.comp1.substitute({"z2": MPoly.zero()})
    half = g.comp1.evaluate(
        {"z1": Coefficient.zero(), "z2": Coefficient.zero()}) \
        / Coefficient.rational(2)
    h = axis.substitute({"z1": MPoly.var("x")}) - MPoly.constant(half)
    if h.is_constant():
        return None
    return h if ex4_descend(h) == g else None


def _match_ex4(f1: PlaneEndo, f2: PlaneEndo, order: int):
    units = roots_of_unity(order)
    sigmas = [AffineConj.identity()]
    for p in units:
        for q in units:
            sigmas.append(AffineConj.diagonal(p, q))
            sigmas.append(AffineConj.antidiagonal(p, q))
    tried = set()
    for sigma in sigmas:
        key = (tuple(c.sort_key() for row in sigma.linear for c in row))
        if key in tried:
            continue
        tried.add(key)
        h1 = _undescend(affine_conjugate(f1, sigma))
        if h1 is None:
            continue
        h2 = _undescend(affine_conjugate(f2, sigma))
        if h2 is None:
            continue
        return Verdict("Ex4", FamilyTag("Ex4", (h1, h2)), sigma)
    return None


def recognize(f1: PlaneEndo, f2: PlaneEndo,
              degree_cap: int = DEFAULT_DEGREE_CAP) -> Verdict:
    if f1.degree < 2 or f2.degree < 2:
        raise PreconditionViolated("both degrees must be at least 2")
    if not commutes(f1, f2):
        raise PreconditionViolated("maps do not commute")
    if not (extends_to_p2(f1) and extends_to_p2(f2)):
        raise PreconditionViolated("both maps must extend to the plane closure")
    if not disjoint_iterates(f1, f2, degree_cap):
        raise PreconditionViolated("iterates collide within the degree cap")
    order = session_order(f1.comp1, f1.comp2, f2.comp1, f2.comp2)
    tags = []
    for f in (f1, f2):
        try:
            tags.append(classify_infinity(restrict_infinity(f)).tag)
        except (ValueError, CommendError):
            # no class at infinity: the matchers keep their default order
            tags.append("Unknown")
    matchers = [_match_ex1, _match_ex2, _match_ex3, _match_ex4]
    if tags[0] == "PowerLike" and tags[1] == "PowerLike":
        matchers = [_match_ex1, _match_ex3, _match_ex4, _match_ex2]
    elif "ChebyshevLike" in tags:
        matchers = [_match_ex2, _match_ex4, _match_ex1, _match_ex3]
    elif "LattesLike" in tags:
        matchers = [_match_ex3, _match_ex1, _match_ex2, _match_ex4]
    for matcher in matchers:
        verdict = matcher(f1, f2, order)
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


_GRID_PARAMS = {2: 4, 3: 3}


def _grid_maps(d: int, coeffs):
    """Parameter tuples of the monic-top support grid of degree d."""
    if d not in _GRID_PARAMS:
        raise ValueError("grid supports degrees 2 and 3 only")
    return list(itertools.product(sorted(coeffs), repeat=_GRID_PARAMS[d]))


def _grid_endo(d: int, params):
    """Components of the degree-d grid map; params are ints or MPoly vars."""
    if d == 2:
        a, b, c, e = map(MPoly.coerce, params)
        return Z1**2 + Z2 * a + b, Z2**2 + Z1 * c + e
    a, b, dd = map(MPoly.coerce, params)
    return Z1**3 + Z1 * Z2 * a + Z1 * b, Z2**3 + Z2 * dd


@functools.cache
def _partner_system(d1: int, d2: int):
    """The separable part of f o g == g o f for grid maps f of degree d1
    (parameters u0, u1, ...) and g of degree d2 (v0, v1, ...).

    Returns (f_only, lhs, rhs): every polynomial of f_only, in the u alone,
    vanishes, and lhs . v == -rhs(u), with lhs a constant rational matrix of
    full column rank, so each f has at most one partner.  A condition with a
    term of degree two or more in the v, or mixing u and v, is left to the
    exact commutes check.
    """
    vs = [f"v{k}" for k in range(_GRID_PARAMS[d2])]
    f = _grid_endo(d1, [MPoly.var(f"u{k}") for k in range(_GRID_PARAMS[d1])])
    g = _grid_endo(d2, [MPoly.var(v) for v in vs])
    f_only, lhs, rhs = [], [], []
    for fc, gc in zip(f, g):
        diff = fc.substitute({"z1": g[0], "z2": g[1]}) \
            - gc.substitute({"z1": f[0], "z2": f[1]})
        for by_z1 in diff.univariate_in("z1"):
            for cond in by_z1.univariate_in("z2"):
                free = cond.substitute(dict.fromkeys(vs, 0))
                linear = cond - free
                if any(sum(e) != 1 for e in linear.terms):
                    continue
                if linear.terms:
                    lhs.append(tuple(
                        linear.coefficient_of({v: 1}).rational_value
                        for v in vs))
                    rhs.append(free)
                elif free.terms:
                    f_only.append(free)
    if not lhs or _solve_linear(lhs, [0] * len(lhs)) is None:
        raise AssertionError(f"grid partner system for degrees {(d1, d2)} "
                             "lacks full column rank")
    return tuple(f_only), tuple(lhs), tuple(rhs)


def _candidate_pairs(d1: int, d2: int, maps1, maps2):
    """The (f, g) whose parameters satisfy the separable conditions; when
    d1 == d2, only g after f in the grid."""
    f_only, lhs, rhs = _partner_system(d1, d2)
    index2 = {m: j for j, m in enumerate(maps2)}
    pairs = []
    for i, m1 in enumerate(maps1):
        point = {f"u{k}": x for k, x in enumerate(m1)}
        if any(not p.evaluate(point).is_zero() for p in f_only):
            continue
        v = _solve_linear(lhs,
                          [-p.evaluate(point).rational_value for p in rhs])
        j = None if v is None else index2.get(tuple(v))
        if j is not None and (d1 != d2 or j > i):
            pairs.append((m1, maps2[j]))
    return pairs


def search(degree_pair, coefficient_set, report_sink=None,
           degree_cap: int = DEFAULT_DEGREE_CAP,
           pair_budget: int | None = None) -> SearchSummary:
    d1, d2 = degree_pair
    coeffs = tuple(sorted(set(coefficient_set)))
    summary = SearchSummary((d1, d2), coeffs)
    if not coeffs:
        return summary
    maps1 = _grid_maps(d1, coeffs)
    maps2 = maps1 if d1 == d2 else _grid_maps(d2, coeffs)
    n1, n2 = len(maps1), len(maps2)
    total = n1 * (n1 - 1) // 2 if d1 == d2 else n1 * n2
    if pair_budget is not None and total > pair_budget:
        summary.total_pairs = pair_budget
        raise BudgetExceeded("pair budget exhausted", partial=summary)
    summary.total_pairs = total
    candidates = _candidate_pairs(d1, d2, maps1, maps2)
    summary.probe_pass = len(candidates)

    for m1, m2 in candidates:
        f1, f2 = PlaneEndo(*_grid_endo(d1, m1)), PlaneEndo(*_grid_endo(d2, m2))
        if not commutes(f1, f2):
            continue
        summary.commuting += 1
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
