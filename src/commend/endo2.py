"""Polynomial endomorphisms of the affine plane.

Covers composition, iteration, commutation, extension to the projective
plane, critical divisors, invariant and totally invariant curves, the
ramified square invariance identity, curve images under the map, orbit
finiteness of the critical components, and invariant affine lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (BudgetExceeded, DegreeLimitExceeded, NotDivisible,
                     NotExtendable, PreconditionViolated, ZeroJacobian)
from .field import Coefficient, _dense_sub, dense_mul, first_relation
from .mpoly import (MPoly, _dense_derivative, dense_eval, dense_gcd,
                    dense_rational_roots, forms_share_zero, from_dense,
                    gcd_poly, kernel_lists, rational_roots, resultant,
                    squarefree_decompose, squarefree_part)

DEFAULT_DEGREE_CAP = 512
AFFINE_POWER_BITS = 1 << 16


class PlaneEndo:
    """A polynomial self-map of the affine plane, components in z1, z2."""

    __slots__ = ("comp1", "comp2")

    def __init__(self, comp1, comp2):
        comp1, comp2 = MPoly.coerce(comp1), MPoly.coerce(comp2)
        if comp1.is_zero() or comp2.is_zero():
            raise ValueError("components must be nonzero")
        bad = (set(comp1.vars) | set(comp2.vars)) - {"z1", "z2"}
        if bad:
            raise ValueError(f"components must live in z1, z2 (got {bad})")
        object.__setattr__(self, "comp1", comp1)
        object.__setattr__(self, "comp2", comp2)

    def __setattr__(self, *_):
        raise AttributeError("PlaneEndo is immutable")

    @property
    def degree(self) -> int:
        return max(self.comp1.total_degree(), self.comp2.total_degree(), 1)

    @staticmethod
    def identity() -> "PlaneEndo":
        return PlaneEndo(MPoly.var("z1"), MPoly.var("z2"))

    def __eq__(self, other):
        if not isinstance(other, PlaneEndo):
            return NotImplemented
        return self.comp1 == other.comp1 and self.comp2 == other.comp2

    def __hash__(self):
        return hash((self.comp1, self.comp2))

    def __repr__(self):
        return f"PlaneEndo(({self.comp1}, {self.comp2}))"

    def jacobian_det(self) -> MPoly:
        return (self.comp1.derivative("z1") * self.comp2.derivative("z2")
                - self.comp1.derivative("z2") * self.comp2.derivative("z1"))


@dataclass(frozen=True)
class CurveDivisor:
    """Formal divisor: coprime squarefree parts with multiplicities."""

    parts: tuple  # of (MPoly, int)

    def total_degree(self) -> int:
        return sum(m * p.total_degree() for p, m in self.parts)


@dataclass(frozen=True)
class ExceptionalReport:
    affine_lines: tuple  # of (MPoly line, bool totally_invariant)
    includes_infinity: bool


def compose(f: PlaneEndo, g: PlaneEndo) -> PlaneEndo:
    bind = {"z1": g.comp1, "z2": g.comp2}
    return PlaneEndo(f.comp1.substitute(bind), f.comp2.substitute(bind))


def commutes(f: PlaneEndo, g: PlaneEndo) -> bool:
    return compose(f, g) == compose(g, f)


def iterate(f: PlaneEndo, n: int, degree_cap: int = DEFAULT_DEGREE_CAP) -> PlaneEndo:
    """f^n by repeated squaring.  A map of degree one is affine, with 3x3
    augmented matrices for powers: no degree cap applies, but a square with
    a coefficient (numerator and denominator) past AFFINE_POWER_BITS bits
    raises BudgetExceeded."""
    if n < 0:
        raise PreconditionViolated("iterate count must be nonnegative")
    # for d >= 2, d^n >= 2^n > cap once n reaches cap's bit length
    d = f.degree
    if d > 1 and (n >= degree_cap.bit_length() or d**n > degree_cap):
        raise DegreeLimitExceeded(f"degree {d}^{n} exceeds cap {degree_cap}")
    result = PlaneEndo.identity()
    while True:
        if n & 1:
            result = compose(result, f)
        n >>= 1
        if not n:
            return result
        f = compose(f, f)
        if d == 1 and any(
                r.numerator.bit_length() + r.denominator.bit_length()
                > AFFINE_POWER_BITS for comp in (f.comp1, f.comp2)
                for c in comp.terms.values() for r in c.res):
            raise BudgetExceeded("a power of the affine map has a "
                                 f"coefficient past {AFFINE_POWER_BITS} bits")


def _top_lists(f: PlaneEndo):
    """(d, S, T): the degree-d top forms of f's components at z1 = 1, the
    entry of index k that of z1^(d-k) z2^k, with `kernel_lists` entries."""
    d = f.degree
    S, T = kernel_lists(*([comp.coefficient_of({"z1": d - k, "z2": k})
                           for k in range(d + 1)] for comp in (f.comp1, f.comp2)))
    return d, S, T


def extends_to_p2(f: PlaneEndo) -> bool:
    d, S, T = _top_lists(f)
    return not forms_share_zero(S, T, d, d)


def restrict_infinity(f: PlaneEndo):
    """The induced self-map of the line at infinity, as a RatMap1 in
    s = z1, t = z2."""
    from .rat1 import RatMap1
    if not extends_to_p2(f):
        raise NotExtendable("no holomorphic extension to the projective plane")
    return RatMap1.from_lists(*_top_lists(f))


def critical_divisor(f: PlaneEndo) -> CurveDivisor:
    if not extends_to_p2(f):
        raise NotExtendable("critical divisor requires extension to P2")
    if f.degree < 2:
        raise PreconditionViolated("degree must be at least 2")
    det = f.jacobian_det()
    if det.is_zero():
        raise ZeroJacobian("Jacobian determinant vanishes identically")
    _unit, factors = squarefree_decompose(det)
    parts = tuple(sorted(((p.monic(), m) for p, m in factors),
                         key=lambda pm: (pm[0].total_degree(), str(pm[0]))))
    return CurveDivisor(parts)


def mult_on_curve(f: PlaneEndo, g: MPoly) -> int:
    """1 + multiplicity of g in the Jacobian determinant of f."""
    g = MPoly.coerce(g)
    if g.is_constant():
        raise PreconditionViolated("curve polynomial must be nonconstant")
    det = f.jacobian_det()
    if det.is_zero():
        raise ZeroJacobian("Jacobian determinant vanishes identically")
    k = 0
    while g.divides(det):
        det = det.exact_divide(g)
        k += 1
    return 1 + k


def check_critical_chain(f1: PlaneEndo, f2: PlaneEndo) -> bool:
    """f2^-1(C_f1) u C_f2 = f1^-1(C_f2) u C_f1, as d2 * (d1 o f2) ==
    d1 * (d2 o f1) on the Jacobian determinants d1, d2.  By the chain rule
    both products are J(f1 o f2) = J(f2 o f1) once `commutes` has passed:
    equal with multiplicities, so with equal squarefree parts, and true on
    every pair that meets the precondition."""
    if not commutes(f1, f2):
        raise PreconditionViolated("maps must commute")
    if f1.degree < 2 or f2.degree < 2:
        raise PreconditionViolated("both degrees must be at least 2")
    d1, d2 = f1.jacobian_det(), f2.jacobian_det()
    b2 = {"z1": f2.comp1, "z2": f2.comp2}
    b1 = {"z1": f1.comp1, "z2": f1.comp2}
    return d2 * d1.substitute(b2) == d1 * d2.substitute(b1)


def is_invariant_curve(f: PlaneEndo, g: MPoly) -> bool:
    g = MPoly.coerce(g)
    if g.is_constant():
        raise PreconditionViolated("curve polynomial must be nonconstant")
    pulled = g.substitute({"z1": f.comp1, "z2": f.comp2})
    return g.divides(pulled)


def is_totally_invariant(f: PlaneEndo, g: MPoly) -> bool:
    g = MPoly.coerce(g)
    if g.is_constant():
        raise PreconditionViolated("curve polynomial must be nonconstant")
    pulled = g.substitute({"z1": f.comp1, "z2": f.comp2})
    target = g ** f.degree
    try:
        q = pulled.exact_divide(target)
    except NotDivisible:
        return False
    return q.is_constant() and not q.is_zero()


def ramified_square_invariance(f: PlaneEndo, phi: MPoly, order: int) -> MPoly:
    """W with phi∘f == phi * W^2 over Q(zeta_order) (NotDivisible /
    NotASquare otherwise)."""
    from .mpoly import poly_sqrt
    phi = MPoly.coerce(phi)
    if phi.is_constant():
        raise PreconditionViolated("phi must be nonconstant")
    pulled = phi.substitute({"z1": f.comp1, "z2": f.comp2})
    quotient = pulled.exact_divide(phi)
    w = poly_sqrt(quotient, order)
    if phi * w * w != pulled:
        raise AssertionError("ramified_square_invariance: phi W^2 != phi o f")
    return w


def _shear(poly: MPoly, tau) -> MPoly:
    if tau == 0:
        return poly
    return poly.substitute({"z1": MPoly.var("z1") + MPoly.constant(tau) * MPoly.var("z2")})


def image_curve(f: PlaneEndo, g: MPoly) -> MPoly:
    """Squarefree polynomial H cutting out the closure of f({g = 0}).

    f extends to P^2, so f*O(1) = O(d) and deg H * deg(f|C) = d * deg C:
    deg H <= d * deg g.  For g squarefree, g | P(f1, f2) exactly when H | P,
    so the remainders of the f1^i f2^j modulo g, taken by total degree
    i + j = 0, 1, ..., are first linearly dependent at i + j = deg H, where
    the relations among the monomials of degree <= deg H are the multiples
    c * H: the first relation found is H.  Remainders come from division in
    one variable, in which g needs a constant leading coefficient: in z2 or
    in z1 as g stands, else in z2 after a shear z1 -> z1 + tau * z2.  The top
    form of g vanishes at (tau, 1) for at most deg g values of tau, so one of
    tau = 0, ..., deg g serves.
    """
    g = MPoly.coerce(g)
    if g.is_constant():
        raise PreconditionViolated("curve polynomial must be nonconstant")
    if set(g.vars) - {"z1", "z2"}:
        raise PreconditionViolated(f"curve must live in z1, z2 (got {g.vars})")
    if not extends_to_p2(f):
        raise NotExtendable("image_curve requires extension to P2")
    g_red = squarefree_part(g)
    n = g_red.total_degree()
    # remainders by division in plane[1], where g has a constant leading
    # coefficient
    shears = [(("z1", "z2"), 0), (("z2", "z1"), 0)] + [
        (("z1", "z2"), tau) for tau in range(1, n + 1)]
    plane, tau = next((p, t) for p, t in shears
                      if _shear(g_red, t).degree_in(p[1]) == n)
    polys = (_shear(g_red, tau), _shear(f.comp1, tau), _shear(f.comp2, tau))
    [one], *values = kernel_lists([Coefficient.one()],
                                  *(list(p.terms.values()) for p in polys))
    gd, c1, c2 = (dict(zip(p._embed(plane), v)) for p, v in zip(polys, values))
    lead = gd.pop((0, n))
    top = {e: -c / lead for e, c in gd.items()}  # plane[1]^n modulo g

    def times(r: dict, c: dict) -> dict:
        """r * c modulo g, keyed by exponents in `plane`, the second below n."""
        out = {}
        for (a1, b1), x in r.items():
            for (a2, b2), y in c.items():
                out[a1 + a2, b1 + b2] = out.get((a1 + a2, b1 + b2), 0) + x * y
        for b in range(max(e[1] for e in out), n - 1, -1):
            for (a1, b1), x in [(e, x) for e, x in out.items() if e[1] == b]:
                del out[a1, b1]
                for (a2, b2), y in top.items():
                    e = (a1 + a2, b1 - n + b2)
                    out[e] = out.get(e, 0) + x * y
        return {e: x for e, x in out.items() if x}

    def rows():  # each remainder beside its y1^i y2^j, keyed (-1, i, j)
        rems = {(0, 0): {(0, 0): one}}
        for total in range(f.degree * n + 1):
            for i in range(total, -1, -1):
                j = total - i
                if total:
                    rems[i, j] = (times(rems[i - 1, j], c1) if i
                                  else times(rems[0, j - 1], c2))
                yield {**rems[i, j], (-1, i, j): one}

    row = first_relation(rows(), (0,))
    return MPoly.make(("z1", "z2"), {e[1:]: x for e, x in row.items()}).monic()


def _graph_candidates(g: MPoly, xvar: str, yvar: str) -> list:
    """The yvar - q(xvar) that may divide g (`split_graph_components`), by
    (q(0), q(1), q(-1), q(2)), read off the lift y as q(v) = y(v - a)."""
    n, m = g.degree_in(yvar), g.degree_in(xvar)
    if n < 1:
        return []
    x = MPoly.var(xvar)
    for a in range(2 * n * m + 1):
        cols = kernel_lists(*(c.dense_in(xvar) for c in g.substitute(
            {xvar: x + a}).univariate_in(yvar)))  # g(a + t, y)
        fibre = [c[0] for c in cols]
        if fibre[-1] and len(dense_gcd(fibre, _dense_derivative(fibre))) == 1:
            break
    else:
        raise AssertionError("split_graph_components: no squarefree fibre")
    slope, cands = _dense_derivative(fibre), []
    for r in dense_rational_roots(fibre):
        # g(a + t, y) = O(t^k) before step k, and adding c t^k to y adds
        # c g_y(a, r) t^k to it; acc is -g(a + t, y) mod t^(k+1)
        y = [r]
        for k in range(1, m + 1):
            acc = []
            for c in reversed(cols):
                acc = _dense_sub(dense_mul(acc, y)[:k + 1], c[:k + 1])
            y.append(acc[k] / dense_eval(slope, r) if len(acc) > k else 0)
        q = from_dense(y, xvar).substitute({xvar: x - a})
        cands.append(([Coefficient.coerce(dense_eval(y, v - a)).sort_key()
                       for v in (0, 1, -1, 2)], MPoly.var(yvar) - q))
    return [c for _key, c in sorted(cands, key=lambda kc: kc[0])]


def split_graph_components(g: MPoly):
    """Factors of a squarefree curve g of the form z2 - q(z1) or z1 - q(z2),
    plus the unsplit residual; each factor is verified by exact division.

    For (x, y) = (z1, z2), then (z2, z1), with n = deg_y g >= 1 and
    m = deg_x g: a factor y - q(x) has deg q <= m (degrees in x add) and
    q(a) is a root of g(a, y).  Take the first a in 0, ..., 2nm with
    lc_y(g)(a) != 0 and g(a, y) squarefree, that is disc_y(g)(a) != 0.
    It exists: lc_y(g) disc_y(g) = +-Res_y(g, g_y) is nonzero, as g is
    squarefree (a factor free of y only scales it), of degree <= (2n - 1)m,
    so not all 2nm + 1 integers are its roots.
    A simple root r lifts to one power series y(x) in x - a with
    g(x, y(x)) = 0, each coefficient solved linearly through g_y(a, r) != 0
    (Kung-Traub, J. ACM 25, 1978; von zur Gathen-Gerhard, Modern Computer
    Algebra, ch. 9); a factor's q is that series, ending at (x - a)^m.  The
    first cut lift that divides and is not the whole remainder is split
    off, and the search restarts from (z1, z2).

    Over Q every graph factor is found.  Over Q(zeta_n) a fibre with a
    coefficient outside Q gives no roots, so its graphs stay in the residual.
    """
    comps, rem = [], MPoly.coerce(g)
    while rem.total_degree() > 1:
        cand = next((c for xv, yv in (("z1", "z2"), ("z2", "z1"))
                     for c in _graph_candidates(rem, xv, yv)
                     if c.total_degree() < rem.total_degree()
                     and c.divides(rem)), None)
        if cand is None:
            break
        rem = rem.exact_divide(cand)
        comps.append(cand.monic())
    if not rem.is_constant():
        comps.append(rem.monic())
    return comps


@dataclass(frozen=True)
class OrbitReport:
    per_component: dict = field(hash=False)

    @property
    def resolved(self) -> bool:
        return all(entry["witness"] is not None
                   for entry in self.per_component.values())


def critical_orbit_finite(f1: PlaneEndo, f2: PlaneEndo, bound: int = 6) -> OrbitReport:
    """Forward semigroup orbit of each critical component of the pair.

    For each squarefree component A of the union of both critical sets,
    computes images f1^n f2^m A for increasing n+m until the curve repeats
    (witness ((n,m),(n',m'))) or more than `bound` distinct curves appear.
    """
    if not commutes(f1, f2):
        raise PreconditionViolated("maps must commute")
    comp_set = []
    for f in (f1, f2):
        for p, _m in critical_divisor(f).parts:
            # the report has one entry per piece: peel graph-shaped
            # components off each reducible squarefree part
            for piece in split_graph_components(p):
                if piece not in comp_set:
                    comp_set.append(piece)
    report = {}
    for a in comp_set:
        curves, seen, witness = {(0, 0): a}, {a: (0, 0)}, None
        queue = [(0, 0)]  # breadth first: the loop reaches what it appends
        for n, m in queue:
            for key, f in (((n + 1, m), f1), ((n, m + 1), f2)):
                if key in curves:
                    continue
                curves[key] = img = image_curve(f, curves[n, m])
                if img in seen:
                    witness = (seen[img], key)
                    break
                seen[img] = key
                if len(seen) > bound:
                    break
                queue.append(key)
            if witness is not None or len(seen) > bound:
                break
        report[a] = {
            "images": sorted(set(curves) - {(0, 0)}),
            "distinct_curves": len(seen),
            "witness": witness,
        }
    return OrbitReport(report)


def _common_rational_roots(polys):
    """Common rational roots of univariate polynomials sharing one variable."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return None  # identically satisfied
    if any(p.is_constant() for p in polys):
        return []
    g = MPoly.zero()
    for p in polys:
        g = gcd_poly(g, p)
    if g.is_constant():
        return []
    return rational_roots(g)


def invariant_lines(f: PlaneEndo) -> ExceptionalReport:
    """All field-rational invariant affine lines, with total-invariance flags."""
    if f.degree < 2:
        raise PreconditionViolated("degree must be at least 2")
    z1, z2 = MPoly.var("z1"), MPoly.var("z2")
    u, v, c = MPoly.var("u"), MPoly.var("v"), MPoly.var("c")
    lines = []
    # slanted/horizontal lines z2 = u z1 + v
    pulled = f.comp2 - u * f.comp1 - v
    restricted = pulled.substitute({"z2": u * z1 + v})
    coeffs = restricted.univariate_in("z1")
    sols = _solve_two_var_system(coeffs, "u", "v")
    for (u0, v0) in sols:
        lines.append(z2 - MPoly.constant(u0) * z1 - MPoly.constant(v0))
    # vertical lines z1 = c
    pulled = f.comp1 - c
    restricted = pulled.substitute({"z1": c})
    coeffs = restricted.univariate_in("z2")
    croots = _common_rational_roots([p for p in coeffs])
    for c0 in croots or []:
        lines.append(z1 - MPoly.constant(c0))
    out = []
    for line in lines:
        if not is_invariant_curve(f, line):
            raise AssertionError(f"invariant_lines: {line} is not invariant")
        out.append((line, is_totally_invariant(f, line)))
    return ExceptionalReport(tuple(out), includes_infinity=extends_to_p2(f))


def _solve_two_var_system(polys, uname, vname):
    """Field-rational common zeros of polynomials in two variables."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return []
    if any(p.is_constant() for p in polys):
        return []
    u_candidates = set()
    dep_v = [p for p in polys if p.depends_on(vname)]
    only_u = [p for p in polys if not p.depends_on(vname)]
    if not dep_v:
        # every constraint is v-free: no finite system pins down v
        return []
    if only_u:
        u_candidates.update(_common_rational_roots(only_u))
    else:
        # no v-free condition: the top coefficient in z1 vanishes, so the
        # top forms are h*(z1, z2) and the map does not extend to P^2
        resultants = [r for p in dep_v[1:]
                      if not (r := resultant(dep_v[0], p, vname)).is_zero()]
        if not resultants:
            raise PreconditionViolated(
                "top forms are h*(z1, z2): the map does not extend to P^2")
        for r in resultants:
            if not r.is_constant():
                u_candidates.update(rational_roots(r))
    sols = []
    for u0 in sorted(u_candidates):
        subbed = [p.substitute({uname: MPoly.constant(u0)}) for p in polys]
        vroots = _common_rational_roots([p for p in subbed])
        if vroots is None:
            continue
        for v0 in vroots:
            check = [p.substitute({vname: MPoly.constant(v0)}) for p in subbed]
            if all(p.is_zero() for p in check):
                sols.append((u0, v0))
    return sorted(set(sols))
