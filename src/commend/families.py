"""Constructors for the standard commuting families of plane maps.

Covers coordinate-split Chebyshev/power pairs, scalar lifts of commuting
line maps, the symmetric two-sheeted descent, and elliptic multiplication
maps, built from the x-only division polynomials on the dense list kernel
with no gcd (see `elliptic_lattes`).  The scalar lifts read the line maps'
lists S and T (unit times the canonical pair) and the ratio of two equal
maps' units; only `compose1` reads their s, t views.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .endo2 import PlaneEndo, commutes
from .errors import (NotCommuting, NotSplit, NotSymmetric, PreconditionViolated,
                     ScalarNotSolvable)
from .field import (Coefficient, _dense_sub, dense_mul, dense_shift,
                    kth_roots)
from .mpoly import MPoly, kernel_lists, rational_roots
from .rat1 import (POINT_INF, Orbifold1, RatMap1, _form_from_dense,
                   affine_point, compose1)

X, Y = MPoly.var("x"), MPoly.var("y")
Z1, Z2 = MPoly.var("z1"), MPoly.var("z2")


@functools.cache
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
    through y -> (beta/2)*y + theta.  The test runs on coefficient lists: p
    is shifted by theta once (`dense_shift`), and entry k of p(beta*y +
    theta) is entry k of that shift times beta^k.
    """
    d = p.degree_in("y")
    if d < 2 or p.vars != ("y",):
        return []
    theta = depression_shift(p)
    shifted = dense_shift(p.dense_in("y"), theta)
    tau = chebyshev(d, "classical").dense_in("x")
    out = []
    for sign in (1, -1):
        # tau[d] * sign / shifted[d] is not zero, nor then is any beta
        for beta in kth_roots(tau[d] * sign / shifted[d], d - 1, order):
            lhs = [c * beta**k for k, c in enumerate(shifted)]
            rhs = [t * beta * sign for t in tau]
            rhs[0] = rhs[0] + theta
            if lhs == rhs:
                out.append((beta, theta, sign))
    return out


def _ex1_pair(d1: int, d2: int, lam: Coefficient, signs):
    """The maps of `ex1`, not checked to commute."""
    t1, t2 = (chebyshev(d, "classical").rename({"x": "z2"}).scale(sign)
              for d, sign in zip((d1, d2), signs))
    return (PlaneEndo(MPoly.var("z1", d1), t1),
            PlaneEndo(MPoly.var("z1", d2).scale(lam), t2))


def ex1(d1: int, d2: int, lam, signs=(1, 1)):
    """((z1^d1, +-T_d1 z2), (lam z1^d2, +-T_d2 z2)); raises unless commuting."""
    lam = Coefficient.coerce(lam)
    if lam.is_zero():
        raise PreconditionViolated("scalar must be nonzero")
    f1, f2 = _ex1_pair(d1, d2, lam, signs)
    if not commutes(f1, f2):
        raise NotCommuting("parameters violate the commutation constraints")
    return f1, f2


def ex2(d: int, variant: str = "straight", signs=(1, 1)) -> PlaneEndo:
    """Coordinatewise Chebyshev map, optionally swapping the coordinates."""
    names = {"straight": ("z1", "z2"), "swap": ("z2", "z1")}.get(variant)
    if names is None:
        raise ValueError(f"unknown variant {variant!r}")
    cheb = chebyshev(d, "classical")
    return PlaneEndo(*(cheb.rename({"x": name}).scale(sign)
                       for name, sign in zip(names, signs)))


def _lift(r: RatMap1, lam) -> PlaneEndo:
    """The plane map lam * (S, T) of r's forms in z1, z2."""
    return PlaneEndo(*(_form_from_dense(a, r.degree, ("z1", "z2")).scale(lam)
                       for a in (r.S, r.T)))


def ex3_lift(r1: RatMap1, r2: RatMap1, lam1=None, lam2=None):
    """Scalar lifts of a commuting pair of homogeneous line maps.

    The composites a = r1 o r2 and b = r2 o r1 are equal maps, so they have
    one canonical pair (`RatMap1`), and a's lists are c times b's for the
    ratio c of their units.
    """
    a, b = compose1(r1, r2), compose1(r2, r1)
    if a != b:
        raise NotCommuting("line maps do not commute")
    d1, d2 = r1.degree, r2.degree
    c = Coefficient.coerce(a.unit) / b.unit
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
            roots = kth_roots(c, d2 - 1, c.order)
            if not roots:
                raise ScalarNotSolvable("constraint has no root in the session field")
            lam1 = sorted(roots, key=Coefficient.sort_key)[0]
    f1, f2 = _lift(r1, lam1), _lift(r2, lam2)
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
    if s.rename({"x": "y", "y": "x"}) != s:
        raise NotSymmetric("polynomial is not swap-invariant")
    e1, e2 = MPoly.var("e1"), MPoly.var("e2")
    e1_xy = X + Y
    e2_xy = X * Y
    out = MPoly.zero()
    rem = s
    while not rem.is_zero():
        # pick the term maximal in lex order with x > y; symmetry gives a >= b
        terms = rem._embed(("x", "y"))
        a, b = max(terms)
        c = terms[a, b]
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
    hy = h.rename({"x": "y"})
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
