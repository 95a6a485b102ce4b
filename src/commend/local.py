"""Local multiplicity computations at a point and Newton-exponent analysis.

All inputs are polynomials translated so the studied point is the origin.
Intersection numbers are computed by resultant elimination after the first
shear of 0, 1, -1, 2, -2, ... under which it is exact at the origin; a
Bezout bound on the shears that fail ends the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .endo2 import PlaneEndo
from .errors import (CommutationFails, NoCaseMatch, NotIsolated,
                     PreconditionViolated, ShapeMismatch)
from .families import chebyshev_conjugacies, depression_shift
from .field import Coefficient, dense_shift
from .mpoly import (MPoly, gcd_poly, resultant, session_order,
                    squarefree_decompose)

Z1, Z2 = MPoly.var("z1"), MPoly.var("z2")


def _to_plane(g: MPoly) -> MPoly:
    """Accept polynomials written in x, y as synonyms for z1, z2."""
    vars_ = set(g.vars)
    if vars_ <= {"z1", "z2"}:
        return g
    if vars_ <= {"x", "y"}:
        return g.rename({"x": "z1", "y": "z2"})
    raise ValueError(f"expected a polynomial in z1, z2 (got {sorted(vars_)})")


def _order_at_zero(p: MPoly) -> int:
    """Order of vanishing at 0 of a polynomial in at most one variable."""
    if p.is_zero():
        raise ValueError("zero polynomial has no vanishing order")
    return min(sum(e) for e in p.terms)


def intersection_mult(g1: MPoly, g2: MPoly) -> int:
    g1, g2 = _to_plane(g1), _to_plane(g2)
    origin = {"z1": Coefficient.zero(), "z2": Coefficient.zero()}
    if g1.is_zero() or g2.is_zero():
        raise NotIsolated("a zero polynomial vanishes on the whole plane")
    if not (g1.evaluate(origin).is_zero() and g2.evaluate(origin).is_zero()):
        raise PreconditionViolated("origin must be a common zero")
    common = gcd_poly(g1, g2)
    if not common.is_constant():
        if common.evaluate(origin).is_zero():
            raise NotIsolated("curves share a component through the origin")
        # a unit in the local ring at the origin
        g1, g2 = g1.exact_divide(common), g2.exact_divide(common)
    # A shear fails only when a top form vanishes at (tau, 1), for at most
    # n1 + n2 values of tau, or when another common zero lies on the line
    # z1 = tau*z2, for at most n1*n2 values (Bezout); so one of the first
    # n1*n2 + n1 + n2 + 1 shears succeeds.
    n1, n2 = g1.total_degree(), g2.total_degree()
    for k in range(n1 * n2 + n1 + n2 + 1):
        tau = (k + 1) // 2 * (-1) ** (k + 1)
        shear = {"z1": Z1 + Z2.scale(tau)}
        s1, s2 = g1.substitute(shear), g2.substitute(shear)
        # no second common zero on the line z1 = 0
        p1 = s1.substitute({"z1": MPoly.zero()})
        p2 = s2.substitute({"z1": MPoly.zero()})
        restricted = [p for p in (p1, p2) if not p.is_zero()]
        line_gcd = restricted[0]
        for p in restricted[1:]:
            line_gcd = gcd_poly(line_gcd, p)
        if not line_gcd.is_constant() and len(line_gcd.terms) != 1:
            continue  # a common zero away from the origin sits on the line
        # leading coefficients in z2 must survive at z1 = 0
        ok = True
        for s in (s1, s2):
            if s.depends_on("z2"):
                d2 = s.degree_in("z2")
                buckets = s.univariate_in("z2")
                lead = buckets[d2]
                if lead.evaluate(origin).is_zero():
                    ok = False
                    break
        if not ok:
            continue
        res = resultant(s1, s2, "z2")
        if res.is_zero() or res.depends_on("z2"):
            continue
        if res.is_constant():
            continue
        return _order_at_zero(res)
    raise AssertionError("every shear failed, past the Bezout bound")


@dataclass(frozen=True)
class LocalFrame:
    """A plane map translated so the studied point sits at the origin."""

    map: PlaneEndo
    point: tuple

    def __post_init__(self):
        origin = {"z1": Coefficient.zero(), "z2": Coefficient.zero()}
        for comp in (self.map.comp1, self.map.comp2):
            if not comp.evaluate(origin).is_zero():
                raise PreconditionViolated("frame map must send the origin to itself")

    @staticmethod
    def at(f: PlaneEndo, point) -> "LocalFrame":
        a, b = (Coefficient.coerce(point[0]), Coefficient.coerce(point[1]))
        shift = {"z1": Z1 + MPoly.constant(a), "z2": Z2 + MPoly.constant(b)}
        comps = []
        for comp in (f.comp1, f.comp2):
            moved = comp.substitute(shift)
            value = comp.evaluate({"z1": a, "z2": b})
            comps.append(moved - MPoly.constant(value))
        return LocalFrame(PlaneEndo(comps[0], comps[1]), (a, b))


def local_degree(frame: LocalFrame) -> int:
    return intersection_mult(frame.map.comp1, frame.map.comp2)


def _first_component_order(comp1: MPoly) -> int:
    """The exponent d when comp1 = c*z1^d plus terms of z1-degree >= d."""
    if comp1.is_zero():
        raise ShapeMismatch("first component vanishes")
    idx = comp1.vars.index("z1") if "z1" in comp1.vars else None
    if idx is None:
        raise ShapeMismatch("first component must involve z1")
    d = min(e[idx] for e in comp1.terms)
    for e in comp1.terms:
        if e[idx] == d and any(v != "z1" and e[j] for j, v in enumerate(comp1.vars)):
            raise ShapeMismatch("lowest z1-order part must be a pure power of z1")
    if d < 1:
        raise ShapeMismatch("first component must vanish on z1 = 0")
    return d


def verify_lemma3(f: PlaneEndo) -> bool:
    d = _first_component_order(f.comp1)
    if d < 2:
        raise ShapeMismatch("first component must have z1-order at least 2")
    h = f.comp2.substitute({"z1": MPoly.zero()})
    if h.is_zero():
        raise ShapeMismatch("second component vanishes identically on z1 = 0")
    if not h.evaluate({"z2": Coefficient.zero()}).is_zero():
        raise ShapeMismatch("origin is not fixed on z1 = 0")
    right = _order_at_zero(h) - 1
    jac = f.jacobian_det()
    if jac.is_zero():
        raise ShapeMismatch("jacobian vanishes identically")
    left = 0
    _unit, factors = squarefree_decompose(jac)
    for comp, mult in factors:
        if Z1.divides(comp):
            comp = comp.exact_divide(Z1)
        if comp.is_constant():
            continue
        rest = comp.substitute({"z1": MPoly.zero()})
        if rest.is_zero():
            raise ShapeMismatch("critical component with z1^2 factor")
        if rest.evaluate({"z2": Coefficient.zero()}).is_zero():
            left += mult * _order_at_zero(rest)
    return left == right


def verify_lemma4(f: PlaneEndo, curve: MPoly) -> bool:
    curve = _to_plane(curve)
    # d is read off the restriction to the z1-axis
    restricted1 = f.comp1.substitute({"z2": MPoly.zero()})
    if restricted1.is_zero():
        raise ShapeMismatch("first component vanishes on the z1-axis")
    d = _order_at_zero(restricted1)
    if d < 2:
        raise ShapeMismatch("first component must have z1-order at least 2")
    origin = {"z1": Coefficient.zero(), "z2": Coefficient.zero()}
    if not curve.evaluate(origin).is_zero():
        raise ShapeMismatch("curve must pass through the origin")
    dz2 = curve.derivative("z2").evaluate(origin)
    if dz2.is_zero():
        raise ShapeMismatch("curve must be transverse to z1 = 0 at the origin")
    frame = LocalFrame.at(f, (0, 0))
    left = local_degree(frame)
    pullback = curve.substitute({"z1": f.comp1, "z2": f.comp2})
    restricted = pullback.substitute({"z1": MPoly.zero()})
    if restricted.is_zero():
        raise ShapeMismatch("preimage of the curve contains z1 = 0")
    right = d * _order_at_zero(restricted)
    return left == right


# ---------------------------------------------------------------------------
# Newton exponents and the one-variable reduction
# ---------------------------------------------------------------------------


def _to_xy(h: MPoly) -> MPoly:
    vars_ = set(h.vars)
    if vars_ <= {"x", "y"}:
        return h
    if vars_ <= {"z1", "z2"}:
        return h.rename({"z1": "x", "z2": "y"})
    raise ValueError(f"expected a polynomial in x, y (got {sorted(vars_)})")


def _support_xy(h: MPoly):
    """[(k, l, coeff)] with k the x-exponent and l the y-exponent."""
    h = _to_xy(h)
    kx = h.vars.index("x") if "x" in h.vars else None
    ky = h.vars.index("y") if "y" in h.vars else None
    out = []
    for e, c in h.terms.items():
        k = e[kx] if kx is not None else 0
        l = e[ky] if ky is not None else 0
        out.append((k, l, c))
    return out


def d_alpha(h: MPoly, alpha) -> Fraction:
    if h.is_zero():
        raise PreconditionViolated("zero polynomial")
    alpha = Fraction(alpha)
    return min(alpha * k + l for k, l, _c in _support_xy(h))


def quasi_part(h: MPoly, alpha) -> MPoly:
    if h.is_zero():
        raise PreconditionViolated("zero polynomial")
    alpha = Fraction(alpha)
    level = d_alpha(h, alpha)
    x, y = MPoly.var("x"), MPoly.var("y")
    out = MPoly.zero()
    for k, l, c in _support_xy(h):
        if alpha * k + l == level:
            out = out + (x**k * y**l).scale(c)
    return out


def alpha_exponent(h: MPoly) -> Fraction:
    support = _support_xy(h)
    pure_y = [(l, c) for k, l, c in support if k == 0]
    if len(pure_y) != 1:
        raise ShapeMismatch("need exactly one term free of x")
    d = pure_y[0][0]
    if d < 1:
        raise ShapeMismatch("the x-free term must involve y")
    best = Fraction(1)
    for k, l, _c in support:
        if k >= 1:
            best = max(best, Fraction(d - l, k))
    return best


def _compose_1d(p: MPoly, q: MPoly) -> MPoly:
    return p.substitute({"y": q})


def _is_shifted_monomial(p: MPoly, d: int):
    """If p(y + t) - p(t) == a*y^d for the canonical depression shift t,
    return (a, t); otherwise None."""
    if p.degree_in("y") != d or p.vars != ("y",):
        return None
    t = depression_shift(p)
    shifted = dense_shift(p.dense_in("y"), t)  # shifted[0] == p(t)
    if any(shifted[1:d]) or shifted[0] != t:
        return None
    return shifted[d], t


def prop2_reduce(f1: LocalFrame, f2: LocalFrame):
    maps = (f1.map, f2.map)
    degrees = []
    hs = []
    for m in maps:
        d = _first_component_order(m.comp1)
        if d < 2:
            raise ShapeMismatch("first components need z1-order at least 2")
        h = _to_xy(m.comp2)
        support = _support_xy(h)
        pure_y = [(l, c) for k, l, c in support if k == 0]
        if len(pure_y) != 1 or pure_y[0][0] != d or not pure_y[0][1].is_one():
            raise ShapeMismatch("second component must be y^d plus x-divisible terms")
        degrees.append(d)
        hs.append(h)
    d1, d2 = degrees
    # d1, d2 are powers of one integer exactly when dividing the larger by
    # the smaller, as long as it divides, ends at two equal degrees
    a, b = sorted(degrees)
    while a != b and b % a == 0:
        a, b = sorted((a, b // a))
    if a == b:
        raise PreconditionViolated("degrees share a common power")
    alpha = max(alpha_exponent(hs[0]), alpha_exponent(hs[1]))
    ps = [quasi_part(h, alpha).substitute({"x": MPoly.one()}) for h in hs]
    p1, p2 = ps
    if _compose_1d(p1, p2) != _compose_1d(p2, p1):
        raise CommutationFails("one-variable reductions do not commute")

    order = session_order(p1, p2)

    if alpha == 1:
        m1 = _is_shifted_monomial(p1, d1)
        m2 = _is_shifted_monomial(p2, d2)
        if m1 and m2 and (m1[1] - m2[1]).is_zero():
            a1, _t = m1
            a2, _t = m2
            # gamma^(d1-1) = a2^(d1-1) * a1^(1-d2) must equal 1
            if (a2**(d1 - 1)) * (a1.inverse()**(d2 - 1)) == Coefficient.one():
                return alpha, p1, p2, 1
        # p_i(beta*y + theta) = beta*(+-T_di)(y) + theta for both i
        if _shared_conjugacies(p1, p2, d1, d2, order):
            return alpha, p1, p2, 2
        raise NoCaseMatch("no normal form matched at alpha = 1")

    if alpha == 2:
        # the same with theta = 0 and (beta/2)^(di-1) = 1 for both i
        half = Coefficient.rational(Fraction(1, 2))
        for beta, theta in _shared_conjugacies(p1, p2, d1, d2, order):
            unit = beta * half
            if theta.is_zero() and (unit**(d1 - 1)).is_one() \
                    and (unit**(d2 - 1)).is_one():
                return alpha, p1, p2, 3
        raise NoCaseMatch("no normal form matched at alpha = 2")

    raise NoCaseMatch(f"alpha = {alpha} outside the tabulated conclusions")


def _shared_conjugacies(p1, p2, d1, d2, order) -> set:
    """The (beta, theta) of chebyshev_conjugacies common to p1 and p2."""
    if p1.degree_in("y") != d1 or p2.degree_in("y") != d2:
        return set()
    first = {(b, t) for b, t, _s in chebyshev_conjugacies(p1, order)}
    return first & {(b, t) for b, t, _s in chebyshev_conjugacies(p2, order)}
