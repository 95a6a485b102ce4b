"""Polynomial endomorphisms of the affine plane.

Covers composition, iteration, commutation, extension to the projective
plane, critical divisors, invariant and totally invariant curves, the
ramified square invariance identity, curve images under the map, orbit
finiteness of the critical components, and invariant affine lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (DegreeLimitExceeded, EliminationDegenerate, NotDivisible,
                     NotExtendable, PreconditionViolated, ZeroJacobian)
from .field import Coefficient
from .mpoly import (MPoly, forms_share_zero, gcd_poly, rational_roots,
                    resultant, squarefree_decompose, squarefree_part)

DEFAULT_DEGREE_CAP = 512

SHEAR_CANDIDATES = (0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8)


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

    def apply(self, point):
        """Image of an exact point (pair of Coefficient-like values)."""
        vals = {"z1": Coefficient.coerce(point[0]),
                "z2": Coefficient.coerce(point[1])}
        return (self.comp1.evaluate(vals), self.comp2.evaluate(vals))

    def top_forms(self):
        """Degree-d homogeneous parts of both components (d = self.degree)."""
        d = self.degree
        out = []
        for comp in (self.comp1, self.comp2):
            terms = {}
            for e, c in comp.terms.items():
                if sum(e) == d:
                    terms[e] = c
            out.append(MPoly.make(comp.vars, terms))
        return tuple(out)

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
    if n < 0:
        raise PreconditionViolated("iterate count must be nonnegative")
    if f.degree**n > degree_cap:
        raise DegreeLimitExceeded(f"degree {f.degree}^{n} exceeds cap {degree_cap}")
    result = PlaneEndo.identity()
    for _ in range(n):
        result = compose(f, result)
    return result


def extends_to_p2(f: PlaneEndo) -> bool:
    t1, t2 = f.top_forms()
    if t1.is_zero() or t2.is_zero():
        return False
    d = f.degree
    return not forms_share_zero(t1, t2, "z1", "z2", d, d)


def restrict_infinity(f: PlaneEndo):
    """The induced self-map of the line at infinity, as a RatMap1."""
    from .rat1 import RatMap1
    if not extends_to_p2(f):
        raise NotExtendable("no holomorphic extension to the projective plane")
    t1, t2 = f.top_forms()
    bind = {"z1": MPoly.var("s"), "z2": MPoly.var("t")}
    return RatMap1(t1.substitute(bind), t2.substitute(bind))


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
    """Set-level identity between the two critical pullback chains."""
    if not commutes(f1, f2):
        raise PreconditionViolated("maps must commute")
    if f1.degree < 2 or f2.degree < 2:
        raise PreconditionViolated("both degrees must be at least 2")
    d1, d2 = f1.jacobian_det(), f2.jacobian_det()
    b2 = {"z1": f2.comp1, "z2": f2.comp2}
    b1 = {"z1": f1.comp1, "z2": f1.comp2}
    left = squarefree_part(d2 * d1.substitute(b2))
    right = squarefree_part(d1 * d2.substitute(b1))
    return left == right


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


def ramified_square_invariance(f: PlaneEndo, phi: MPoly) -> MPoly:
    """W with phi∘f == phi * W^2 (NotDivisible / NotASquare otherwise)."""
    from .mpoly import poly_sqrt
    phi = MPoly.coerce(phi)
    if phi.is_constant():
        raise PreconditionViolated("phi must be nonconstant")
    pulled = phi.substitute({"z1": f.comp1, "z2": f.comp2})
    quotient = pulled.exact_divide(phi)
    w = poly_sqrt(quotient)
    if phi * w * w != pulled:
        raise AssertionError("ramified_square_invariance: phi W^2 != phi o f")
    return w


def _shear(poly: MPoly, tau) -> MPoly:
    if tau == 0:
        return poly
    return poly.substitute({"z1": MPoly.var("z1") + MPoly.constant(tau) * MPoly.var("z2")})


def image_curve(f: PlaneEndo, g: MPoly) -> MPoly:
    """Squarefree polynomial cutting out the closure of f({g = 0})."""
    g = MPoly.coerce(g)
    if g.is_constant():
        raise PreconditionViolated("curve polynomial must be nonconstant")
    if not extends_to_p2(f):
        raise NotExtendable("image_curve requires extension to P2")
    g_red = squarefree_part(g)
    y1, y2 = MPoly.var("y1"), MPoly.var("y2")
    for tau in SHEAR_CANDIDATES:
        gs = _shear(g_red, tau)
        c1, c2 = _shear(f.comp1, tau), _shear(f.comp2, tau)
        first, second = ("z1", "z2") if gs.depends_on("z1") else ("z2", "z1")
        r1 = resultant(gs, y1 - c1, first)
        r2 = resultant(gs, y2 - c2, first)
        if r1.is_zero() or r2.is_zero():
            continue
        if r1.depends_on(second) or r2.depends_on(second):
            rr = resultant(r1, r2, second)
        else:
            rr = r1 * r2
        if rr.is_zero() or rr.is_constant():
            continue
        candidate = squarefree_part(rr)
        back = {"y1": MPoly.var("z1"), "y2": MPoly.var("z2")}
        _unit, factors = squarefree_decompose(candidate)
        kept = MPoly.one()
        for h, _m in factors:
            h_z = h.substitute(back)
            pulled = h_z.substitute({"z1": f.comp1, "z2": f.comp2})
            if g_red.divides(pulled):
                kept = kept * h_z
        if kept.is_constant():
            continue
        return squarefree_part(kept).monic()
    raise EliminationDegenerate("no shear candidate made the elimination regular")


def _graph_candidates(g: MPoly, xvar: str, yvar: str, max_deg: int):
    """Candidate factors yvar - q(xvar) with deg q <= max_deg, found by
    sampling fibers and interpolating; callers must verify divisibility."""
    from fractions import Fraction
    from itertools import product as iproduct
    samples = [0, 1, -1, 2, -2, 3][: max_deg + 1]
    root_sets = []
    for a in samples:
        u = g.substitute({xvar: MPoly.constant(a)})
        if not u.depends_on(yvar):
            return
        roots = rational_roots(u)
        if not roots:
            return
        root_sets.append(roots)
    total = 1
    for rs in root_sets:
        total *= len(rs)
    if total > 4096:
        return
    x = MPoly.var(xvar)
    for combo in iproduct(*root_sets):
        # Lagrange interpolation through (samples[i], combo[i])
        q = MPoly.zero()
        for i, (a, v) in enumerate(zip(samples, combo)):
            basis = MPoly.constant(Fraction(v))
            for j, b in enumerate(samples):
                if j != i:
                    basis = basis * (x - MPoly.constant(b)).scale(
                        Fraction(1, a - b))
            q = q + basis
        yield MPoly.var(yvar) - q


def split_graph_components(g: MPoly, max_deg: int = 3):
    """Factors of a squarefree curve of the form z2 - q(z1) or z1 - q(z2),
    plus the unsplit residual.  Bounded heuristic; every returned factor is
    verified by exact division, so the product identity is exact."""
    comps = []
    rem = MPoly.coerce(g)
    progress = True
    while progress and not rem.is_constant():
        progress = False
        for xv, yv in (("z1", "z2"), ("z2", "z1")):
            for cand in _graph_candidates(rem, xv, yv, max_deg):
                if rem.total_degree() <= cand.total_degree():
                    continue
                if cand.divides(rem):
                    rem = rem.exact_divide(cand)
                    comps.append(cand.monic())
                    progress = True
                    break
            if progress:
                break
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
            # reducible squarefree parts make the elimination needlessly
            # expensive: peel off graph-shaped components first
            for piece in split_graph_components(p):
                if piece not in comp_set:
                    comp_set.append(piece)
    report = {}
    for a in comp_set:
        curves = {(0, 0): a}
        seen = {a: (0, 0)}
        witness = None
        frontier = [(0, 0)]
        while witness is None and frontier:
            new_frontier = []
            for (n, m) in frontier:
                cur = curves[(n, m)]
                for (dn, dm, f) in ((1, 0, f1), (0, 1, f2)):
                    key = (n + dn, m + dm)
                    if key in curves:
                        continue
                    img = image_curve(f, cur)
                    curves[key] = img
                    if img in seen:
                        witness = (seen[img], key)
                        break
                    seen[img] = key
                    if len(seen) > bound:
                        break
                    new_frontier.append(key)
                if witness is not None or len(seen) > bound:
                    break
            if len(seen) > bound:
                break
            frontier = new_frontier
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
        base = _common_rational_roots(only_u)
        u_candidates.update(base or [])
        have_base = True
    else:
        have_base = False
        p0 = dep_v[0]
        for p in dep_v[1:]:
            r = resultant(p0, p, vname)
            if not r.is_zero() and not r.is_constant():
                u_candidates.update(rational_roots(r))
        if len(dep_v) == 1:
            # single curve in (u, v): pick u candidates from its coefficients
            for coef in p0.univariate_in(vname):
                if not coef.is_zero() and not coef.is_constant():
                    u_candidates.update(rational_roots(coef))
            u_candidates.add(0)
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
