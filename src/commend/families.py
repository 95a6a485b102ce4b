"""Constructors for the standard commuting families of plane maps.

Covers coordinate-split Chebyshev/power pairs, scalar lifts of commuting
line maps, the symmetric two-sheeted descent, and elliptic multiplication
maps, built from the x-only division polynomials on the dense list kernel
with no gcd (see `elliptic_lattes`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .endo2 import PlaneEndo, commutes
from .errors import (NotCommuting, NotSplit, NotSymmetric, PreconditionViolated,
                     ScalarNotSolvable)
from .field import Coefficient, _dense_sub, dense_mul, kth_roots
from .mpoly import MPoly, kernel_lists, rational_roots
from .rat1 import POINT_INF, Orbifold1, RatMap1, affine_point

X, Y = MPoly.var("x"), MPoly.var("y")
Z1, Z2 = MPoly.var("z1"), MPoly.var("z2")


def chebyshev(d: int, kind: str = "monic") -> MPoly:
    """Degree-d Chebyshev polynomial in x; monic variant has leading coeff 1."""
    if d < 1:
        raise PreconditionViolated("degree must be at least 1")
    if kind == "classical":
        prev, cur = MPoly.one(), X
        for _ in range(d - 1):
            prev, cur = cur, X.scale(2) * cur - prev
        return cur
    if kind == "monic":
        prev, cur = MPoly.constant(2), X
        for _ in range(d - 1):
            prev, cur = cur, X * cur - prev
        return cur
    raise ValueError(f"unknown kind {kind!r}")


def depression_shift(p: MPoly) -> Coefficient:
    """t = -c_(d-1) / (d*c_d), so that p(y + t) has no y^(d-1) term (d >= 1)."""
    cs = p.dense_in("y")
    d = len(cs) - 1
    return -cs[d - 1] / (cs[d] * d)


def chebyshev_conjugacies(p: MPoly, order: int) -> list:
    """Every (beta, theta, sign) with p(beta*y + theta) = beta*sign*T_d(y) + theta.

    p is a polynomial in y of degree d >= 2 (else there are none), T_d the
    classical Chebyshev polynomial and beta ranges over Q(zeta_order).  As
    the monic polynomial is 2*T_d(y/2), p is conjugate to sign times it
    through y -> (beta/2)*y + theta.
    """
    d = p.degree_in("y")
    if d < 2:
        return []
    theta = depression_shift(p)
    target = chebyshev(d, "classical").substitute({"x": Y})
    out = []
    for sign in (1, -1):
        scale = target.leading_coefficient() * Coefficient.rational(sign)
        for beta in kth_roots(scale / p.leading_coefficient(), d - 1, order):
            if beta.is_zero():
                continue
            lhs = p.substitute({"y": Y.scale(beta) + MPoly.constant(theta)})
            rhs = target.scale(beta * Coefficient.rational(sign)) \
                + MPoly.constant(theta)
            if lhs == rhs:
                out.append((beta, theta, sign))
    return out


def _on_z2(p: MPoly) -> MPoly:
    return p.substitute({"x": Z2})


def ex1(d1: int, d2: int, lam, signs=(1, 1)):
    """((z1^d1, +-T_d1 z2), (lam z1^d2, +-T_d2 z2)); raises unless commuting."""
    lam = Coefficient.coerce(lam)
    if lam.is_zero():
        raise PreconditionViolated("scalar must be nonzero")
    s1, s2 = signs
    f1 = PlaneEndo(Z1**d1, _on_z2(chebyshev(d1, "classical")).scale(s1))
    f2 = PlaneEndo((Z1**d2).scale(lam), _on_z2(chebyshev(d2, "classical")).scale(s2))
    if not commutes(f1, f2):
        raise NotCommuting("parameters violate the commutation constraints")
    return f1, f2


def ex2(d: int, variant: str = "straight", signs=(1, 1)) -> PlaneEndo:
    """Coordinatewise Chebyshev map, optionally swapping the coordinates."""
    s1, s2 = signs
    t_z1 = chebyshev(d, "classical").substitute({"x": Z1}).scale(s1)
    t_z2 = _on_z2(chebyshev(d, "classical")).scale(s2)
    if variant == "straight":
        return PlaneEndo(t_z1, t_z2)
    if variant == "swap":
        return PlaneEndo(chebyshev(d, "classical").substitute({"x": Z2}).scale(s1),
                         chebyshev(d, "classical").substitute({"x": Z1}).scale(s2))
    raise ValueError(f"unknown variant {variant!r}")


def _plane_forms(r: RatMap1):
    bind = {"s": Z1, "t": Z2}
    return r.formS.substitute(bind), r.formT.substitute(bind)


def ex3_lift(r1: RatMap1, r2: RatMap1, lam1=None, lam2=None):
    """Scalar lifts of a commuting pair of homogeneous line maps."""
    from .rat1 import commutes1
    if not commutes1(r1, r2):
        raise NotCommuting("line maps do not commute")
    d1, d2 = r1.degree, r2.degree
    bind21 = {"s": r2.formS, "t": r2.formT}
    bind12 = {"s": r1.formS, "t": r1.formT}
    a_s = r1.formS.substitute(bind21)
    a_t = r1.formT.substitute(bind21)
    b_s = r2.formS.substitute(bind12)
    b_t = r2.formT.substitute(bind12)
    base = b_s if not b_s.is_zero() else b_t
    top = a_s if not b_s.is_zero() else a_t
    c = top.leading_coefficient() / base.leading_coefficient()
    if a_s != b_s.scale(c) or a_t != b_t.scale(c):
        raise NotCommuting("compositions are not proportional")
    order = max(c.order, 1)
    if lam1 is not None or lam2 is not None:
        lam1 = Coefficient.coerce(1 if lam1 is None else lam1)
        lam2 = Coefficient.coerce(1 if lam2 is None else lam2)
        if lam1**(d2 - 1) != (lam2**(d1 - 1)) * c:
            raise ScalarNotSolvable("supplied scalars violate the constraint")
    else:
        lam2 = Coefficient.one()
        if d2 == 1:
            if not c.is_one():
                raise ScalarNotSolvable("no scalar works for a degree-1 second map")
            lam1 = Coefficient.one()
        else:
            roots = kth_roots(c, d2 - 1, order)
            if not roots:
                raise ScalarNotSolvable("constraint has no root in the session field")
            lam1 = sorted(roots, key=Coefficient.sort_key)[0]
    p1, q1 = _plane_forms(r1)
    p2, q2 = _plane_forms(r2)
    f1 = PlaneEndo(p1.scale(lam1), q1.scale(lam1))
    f2 = PlaneEndo(p2.scale(lam2), q2.scale(lam2))
    if not commutes(f1, f2):
        raise NotCommuting("lifted maps do not commute")
    return f1, f2


def symmetrization() -> PlaneEndo:
    """The two-sheeted quotient map (x, y) -> (x + y, x*y)."""
    return PlaneEndo(Z1 + Z2, Z1 * Z2)


def sym_reduce(s: MPoly) -> MPoly:
    """Rewrite a symmetric polynomial in x, y in the elementary basis e1, e2."""
    if set(s.vars) - {"x", "y"}:
        raise ValueError("input must be a polynomial in x, y")
    if s.substitute({"x": Y, "y": X}) != s:
        raise NotSymmetric("polynomial is not swap-invariant")
    e1, e2 = MPoly.var("e1"), MPoly.var("e2")
    e1_xy = X + Y
    e2_xy = X * Y
    out = MPoly.zero()
    rem = s
    while not rem.is_zero():
        # pick the term maximal in lex order with x > y; symmetry gives a >= b
        ix = rem.vars.index("x") if "x" in rem.vars else None
        iy = rem.vars.index("y") if "y" in rem.vars else None
        best = max(rem.terms,
                   key=lambda e: (e[ix] if ix is not None else 0,
                                  e[iy] if iy is not None else 0))
        a = best[ix] if ix is not None else 0
        b = best[iy] if iy is not None else 0
        c = rem.terms[best]
        if a < b:
            raise AssertionError("symmetric remainder: lex-leading term has a < b")
        basis = (e1**(a - b) * e2**b).scale(c)
        out = out + basis
        rem = rem - (e1_xy**(a - b) * e2_xy**b).scale(c)
    return out


def ex4_descend(h: MPoly) -> PlaneEndo:
    """The plane map induced by (h(x), h(y)) through the symmetric quotient."""
    if set(h.vars) - {"x"}:
        raise ValueError("h must be univariate in x")
    if h.is_constant():
        raise PreconditionViolated("h must be nonconstant")
    hx = h
    hy = h.substitute({"x": Y})
    comp1 = sym_reduce(hx + hy).substitute({"e1": Z1, "e2": Z2})
    comp2 = sym_reduce(hx * hy).substitute({"e1": Z1, "e2": Z2})
    f = PlaneEndo(comp1, comp2)
    # exact conjugation check through the quotient map
    pi1, pi2 = X + Y, X * Y
    bind = {"z1": pi1, "z2": pi2}
    if f.comp1.substitute(bind) != hx + hy \
            or f.comp2.substitute(bind) != hx * hy:
        raise AssertionError("ex4_descend: the map does not descend (h, h)")
    return f


# ---------------------------------------------------------------------------
# Elliptic multiplication maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EllipticCurveData:
    """Short curve y^2 = x^3 + a*x + b with nonzero discriminant."""

    a: Coefficient
    b: Coefficient

    def __post_init__(self):
        a = Coefficient.coerce(self.a)
        b = Coefficient.coerce(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        disc = (a**3) * Coefficient.rational(4) + (b**2) * Coefficient.rational(27)
        if disc.is_zero():
            raise PreconditionViolated("curve is singular (zero discriminant)")

    def cubic(self) -> MPoly:
        return X**3 + X.scale(self.a) + MPoly.constant(self.b)


def _division_lists(curve: EllipticCurveData, n: int):
    """(f, F) with F = 4(x^3 + a*x + b) and f = {k: f_k} for the k that
    f_(n-1), f_n and f_(n+1) need, as coefficient lists in x: f_k = psi_k
    for odd k and psi_k / (2y) for even k.  The recurrences are those of
    psi_k with (2y)^2 replaced by F."""
    (a, b), = kernel_lists([curve.a, curve.b])
    F = [4 * b, 4 * a, 0, 4]
    f = {0: [], 1: [1], 2: [1], 3: [-a * a, 12 * b, 6 * a, 0, 3],
         4: [-2 * (8 * b * b + a**3), -8 * a * b, -10 * a * a, 40 * b, 10 * a,
             0, 2]}

    def get(k: int) -> list:
        if k not in f:
            m = k // 2
            lo2, lo, mid, hi, hi2 = (get(i) for i in range(m - 2, m + 3))
            if k % 2 == 0:  # f_2m = f_m (f_(m+2) f_(m-1)^2 - f_(m-2) f_(m+1)^2)
                f[k] = dense_mul(mid, _dense_sub(_mul(hi2, lo, lo),
                                                 _mul(lo2, hi, hi)))
            else:  # f_2m+1 = f_(m+2) f_m^3 - f_(m-1) f_(m+1)^3, with F^2
                # = (2y)^4 on the product whose indices are even
                up, down = _mul(hi2, mid, mid, mid), _mul(lo, hi, hi, hi)
                if m % 2:
                    down = _mul(F, F, down)
                else:
                    up = _mul(F, F, up)
                f[k] = _dense_sub(up, down)
        return f[k]

    for k in (n - 1, n, n + 1):
        get(k)
    return f, F


def _mul(p: list, *others: list) -> list:
    for q in others:
        p = dense_mul(p, q)
    return p


def elliptic_lattes(curve: EllipticCurveData, n: int) -> RatMap1:
    """x-coordinate action of multiplication by n; degree n^2.

    x([n]P) = (x psi_n^2 - psi_(n-1) psi_(n+1)) / psi_n^2 (Washington,
    Elliptic Curves, 2nd ed., section 3.2).  In the lists of
    `_division_lists`: for odd n, den = f_n^2 and num = x den - F f_(n-1)
    f_(n+1); for even n, den = F f_n^2 and num = x den - f_(n-1) f_(n+1).

    No gcd is taken, as num and den are coprime on a nonsingular curve:
    x o [n] = (num / den) o x, where x has degree 2 and [n] degree n^2
    (Silverman, The Arithmetic of Elliptic Curves, III.6.2(d)), so num /
    den has degree n^2, which is the degree of num (den has degree
    n^2 - 1).  `RatMap1` checks that the forms share no zero.
    """
    if n < 1:
        raise PreconditionViolated("n must be at least 1")
    if n == 1:
        return RatMap1.identity()
    f, F = _division_lists(curve, n)
    cross = _mul(f[n - 1], f[n + 1])
    den = _mul(f[n], f[n]) if n % 2 else _mul(F, f[n], f[n])
    num = _dense_sub([0] + den, _mul(F, cross) if n % 2 else cross)
    deg, got = n * n, max(len(num), len(den)) - 1
    if got != deg:
        raise AssertionError(f"multiplication by {n} has degree {got}, not {deg}")
    return RatMap1.from_lists(deg, den, num)


def two_torsion_orbifold(curve: EllipticCurveData) -> Orbifold1:
    cubic = curve.cubic()
    roots = rational_roots(cubic)
    if len(roots) != 3:
        raise NotSplit("two-torsion abscissas do not all lie in the session field")
    marked = [(affine_point(r), 2) for r in roots] + [(POINT_INF, 2)]
    return Orbifold1(tuple(marked))


@dataclass(frozen=True)
class FamilyTag:
    """Label attached to a recognized family, with its parameters."""

    which: str
    params: tuple = ()

    def render(self, fmt=str) -> str:
        """The label with each parameter written by `fmt`."""
        if not self.params:
            return self.which
        inner = ", ".join(fmt(p) for p in self.params)
        return f"{self.which}({inner})"

    def __str__(self):
        return self.render()
