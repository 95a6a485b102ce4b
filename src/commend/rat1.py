"""Self-maps of the projective line as pairs of binary forms.

Convention: a point is [s:t]; the affine coordinate x corresponds to [1:x]
and infinity to [0:1], so polynomial maps fix [0:1].  Projective equality is
always tested by cross-multiplication, never by chart normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import inf

from .errors import (BadPointCount, InfinityWeightViolation, NoCaseMatch,
                     PreconditionViolated)
from .field import Coefficient, _solve_linear
from .mpoly import (MPoly, dense_divmod, dense_gcd, dense_inverse_mod,
                    dense_mul, forms_share_zero, from_dense, rational_roots,
                    squarefree_decompose)

# ---------------------------------------------------------------------------
# Projective points
# ---------------------------------------------------------------------------


def normalize_point(a, b):
    a, b = Coefficient.coerce(a), Coefficient.coerce(b)
    if a.is_zero():
        if b.is_zero():
            raise ValueError("[0:0] is not a point")
        return (Coefficient.zero(), Coefficient.one())
    return (Coefficient.one(), b / a)


def affine_point(x):
    return normalize_point(1, x)


POINT_INF = (Coefficient.zero(), Coefficient.one())


def points_equal(p, q) -> bool:
    return (p[0] * q[1] - p[1] * q[0]).is_zero()


def homogenise(p: MPoly, d: int) -> MPoly:
    """The degree-d binary form s^d p(t/s) of a polynomial p in x alone."""
    if set(p.vars) - {"x"} or not 0 <= p.total_degree() <= d:
        raise ValueError(f"need a nonzero polynomial in x of degree at most {d}")
    return MPoly.make(("s", "t"), {(d - sum(e), sum(e)): c
                                   for e, c in p.terms.items()})


def dehomogenise(form: MPoly) -> MPoly:
    """form(1, x) as a polynomial in x, for a binary form in s, t."""
    # homogeneous, so each power of t carries exactly one term
    return from_dense(form.dense_in("t"), "x")


# ---------------------------------------------------------------------------
# Rational maps
# ---------------------------------------------------------------------------


class RatMap1:
    """The self-map [s:t] -> [formS : formT] of P^1.

    The forms are homogeneous of one degree d and share no zero in P^1
    (`forms_share_zero`), so d is the degree of the map.
    """

    __slots__ = ("formS", "formT")

    def __init__(self, formS, formT):
        formS, formT = MPoly.coerce(formS), MPoly.coerce(formT)
        bad = (set(formS.vars) | set(formT.vars)) - {"s", "t"}
        if bad:
            raise ValueError(f"forms must live in s, t (got {bad})")
        d = max(formS.total_degree(), formT.total_degree())
        for f in (formS, formT):
            if not f.is_zero():
                if any(sum(e) != d for e in f.terms):
                    raise ValueError("components must be homogeneous of equal degree")
        if formS.is_zero() or formT.is_zero():
            if formS.is_zero() and formT.is_zero():
                raise ValueError("zero map")
        if forms_share_zero(formS, formT, "s", "t", d, d):
            raise ValueError("degenerate map: forms share a projective zero")
        object.__setattr__(self, "formS", formS)
        object.__setattr__(self, "formT", formT)

    def __setattr__(self, *_):
        raise AttributeError("RatMap1 is immutable")

    @property
    def degree(self) -> int:
        return max(self.formS.total_degree(), self.formT.total_degree())

    @staticmethod
    def identity() -> "RatMap1":
        return RatMap1(MPoly.var("s"), MPoly.var("t"))

    @staticmethod
    def from_polynomial(p: MPoly) -> "RatMap1":
        """The self-map [s^d : homogenization of p] of a polynomial in x."""
        d = p.total_degree()
        return RatMap1(MPoly.var("s", d), homogenise(p, d))

    def apply(self, point):
        vals = {"s": point[0], "t": point[1]}
        return normalize_point(self.formS.evaluate(vals), self.formT.evaluate(vals))

    def __eq__(self, other):
        if not isinstance(other, RatMap1):
            return NotImplemented
        return (self.formS * other.formT - self.formT * other.formS).is_zero()

    def __hash__(self):
        # hash by projectively normalized forms
        lead = None
        for form in (self.formS, self.formT):
            if not form.is_zero():
                lead = form.leading_coefficient()
                break
        inv = lead.inverse()
        return hash((self.formS.scale(inv), self.formT.scale(inv)))

    def __repr__(self):
        return f"RatMap1([{self.formS} : {self.formT}])"


def compose1(r1: RatMap1, r2: RatMap1) -> RatMap1:
    bind = {"s": r2.formS, "t": r2.formT}
    # both maps are nondegenerate, so the composite's forms share no zero
    return RatMap1(r1.formS.substitute(bind), r1.formT.substitute(bind))


def commutes1(r1: RatMap1, r2: RatMap1) -> bool:
    return compose1(r1, r2) == compose1(r2, r1)


@dataclass(frozen=True)
class PullbackDivisor:
    """Fiber of a point: split rational points plus unsplit residual factors.

    The rational points are the zeros found per squarefree factor of the
    dehomogenised fiber form, with infinity from the power of s; see
    `_form_split`.
    """

    marked_points: tuple  # of ((a, b), multiplicity)
    residual: tuple       # of (squarefree form, multiplicity)

    def total_multiplicity(self) -> int:
        return (sum(m for _p, m in self.marked_points)
                + sum(f.total_degree() * m for f, m in self.residual))

    def distinct_count(self) -> int:
        return (len(self.marked_points)
                + sum(f.total_degree() for f, _m in self.residual))


def _form_split(form: MPoly):
    """The zeros of a nonzero binary form, split by multiplicity.

    Returns ([(point, mult)], [(residual form, mult)]): infinity first, then
    the rational points in ascending order, and per multiplicity one
    squarefree form carrying the zeros left unsplit.  Infinity's multiplicity
    is the power of s, the drop in degree of form(1, x).  The rational zeros
    are those `rational_roots` finds on each factor of Yun's squarefree
    decomposition of form(1, x).
    """
    aff = dehomogenise(form)
    k = form.total_degree() - aff.total_degree()
    points = [(POINT_INF, k)] if k else []
    affine, residual = [], []
    for f, m in squarefree_decompose(aff)[1]:
        roots = rational_roots(f)
        for x0 in roots:
            f = f.exact_divide(MPoly.var("x") - x0)
        affine += [(x0, m) for x0 in roots]
        if not f.is_constant():
            residual.append((homogenise(f, f.total_degree()), m))
    return points + [(affine_point(x0), m) for x0, m in sorted(affine)], residual


def pullback_divisor(r: RatMap1, point) -> PullbackDivisor:
    """The fiber of `point`: the zeros of b*formS - a*formT, by `_form_split`."""
    a, b = normalize_point(*point)
    points, residual = _form_split(r.formS.scale(b) - r.formT.scale(a))
    return PullbackDivisor(tuple(points), tuple(residual))


# ---------------------------------------------------------------------------
# Orbifolds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Orbifold1:
    marked: tuple  # of ((a, b), weight) with weight int >= 2 or math.inf

    def __post_init__(self):
        pts = [p for p, _w in self.marked]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if points_equal(pts[i], pts[j]):
                    raise ValueError("marked points must be pairwise distinct")
        for _p, w in self.marked:
            if w != inf and (not isinstance(w, int) or w < 2):
                raise ValueError("weights must be integers >= 2 or infinity")

    def weight_of(self, point):
        for p, w in self.marked:
            if points_equal(p, point):
                return w
        return 1

    def index_of(self, point):
        for i, (p, _w) in enumerate(self.marked):
            if points_equal(p, point):
                return i
        return None


def parabolic_check(o: Orbifold1) -> bool:
    if any(w == inf for _p, w in o.marked):
        raise PreconditionViolated("parabolic check needs finite weights")
    return sum(1 - Fraction(1, w) for _p, w in o.marked) == 2


_SIGNATURES = {
    "333": (3, 3, 3),
    "236": (6, 3, 2),
    "244": (4, 4, 2),
    "2222": (2, 2, 2, 2),
}


def standard_orbifolds(signature: str, points) -> Orbifold1:
    if signature not in _SIGNATURES:
        raise ValueError(f"unknown signature {signature!r}")
    weights = _SIGNATURES[signature]
    if len(points) != len(weights):
        raise BadPointCount(
            f"signature {signature} needs {len(weights)} points, got {len(points)}")
    pts = [normalize_point(*p) for p in points]
    return Orbifold1(tuple(zip(pts, weights)))


def is_orbifold_selfcover(r: RatMap1, o: Orbifold1) -> bool:
    """Covering condition: n(f(x)) = mult(f, x) * n(x) at every point."""
    return _covers(r, o, (pullback_divisor(r, alpha) for alpha, _w in o.marked))


def _covers(r: RatMap1, o: Orbifold1, fibers) -> bool:
    """is_orbifold_selfcover given the marked points' fibers in order; an
    iterator of them is only advanced once the marked points' images pass."""
    d = r.degree
    inf_points = [p for p, w in o.marked if w == inf]
    # every marked point must land on a marked point of the forced weight
    for p, w in o.marked:
        image = r.apply(p)
        iw = o.weight_of(image)
        if w == inf:
            if iw != inf:
                return False
        elif iw == 1:
            return False
    ramification = 0
    for (_alpha, w), fiber in zip(o.marked, fibers):
        if w == inf:
            # all preimages must be inside the weight-infinity set
            for p, _m in fiber.marked_points:
                if all(not points_equal(p, q) for q in inf_points):
                    raise InfinityWeightViolation(
                        "a weight-infinity point has a finite-weight preimage")
            if fiber.residual:
                raise InfinityWeightViolation(
                    "a weight-infinity point has an irrational preimage")
        else:
            for p, m in fiber.marked_points:
                wx = o.weight_of(p)
                if wx == inf:
                    return False
                if wx == 1:
                    # unmarked rational preimage: multiplicity must be n(alpha)
                    if m != w:
                        return False
                else:
                    if w % wx or m != w // wx:
                        return False
            for _f, m in fiber.residual:
                if m != w:
                    return False
        ramification += d - fiber.distinct_count()
    return ramification == 2 * d - 2


# ---------------------------------------------------------------------------
# Ramification portraits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Portrait:
    case: str
    fibers: tuple  # per marked j: (tuple of (marked index, mult), tuple of (deg, mult))
    images: tuple  # image marked index per marked point


def _fiber_data(r: RatMap1, o: Orbifold1, divisors):
    fibers = []
    for fiber in divisors:
        marked_part = []
        unmarked_pts = []
        for p, m in fiber.marked_points:
            idx = o.index_of(p)
            if idx is None:
                unmarked_pts.append((1, m))
            else:
                marked_part.append((idx, m))
        for f, m in fiber.residual:
            unmarked_pts.append((f.total_degree(), m))
        fibers.append((tuple(sorted(marked_part)), tuple(sorted(unmarked_pts))))
    images = tuple(o.index_of(r.apply(p)) for p, _w in o.marked)
    return fibers, images


def _unmarked_is(unmarked, mult, count):
    """True iff the unmarked part is exactly `count` points of multiplicity `mult`."""
    if count == 0:
        return not unmarked
    return all(m == mult for _deg, m in unmarked) and \
        sum(deg for deg, _m in unmarked) == count


def portrait(r: RatMap1, o: Orbifold1) -> Portrait:
    divisors = [pullback_divisor(r, alpha) for alpha, _w in o.marked]
    if not _covers(r, o, divisors):
        raise PreconditionViolated("map is not a self-cover of the orbifold")
    d = r.degree
    fibers, images = _fiber_data(r, o, divisors)
    weights = tuple(w for _p, w in o.marked)
    s = len(weights)

    def marked_fiber(j):
        return dict(fibers[j][0])

    def unmarked(j):
        return fibers[j][1]

    sig = "".join(str(w) for w in sorted(weights))

    if sig == "2222":
        if d % 2 == 1:
            ok = all(images[j] == j for j in range(4)) and all(
                marked_fiber(j) == {j: 1}
                and _unmarked_is(unmarked(j), 2, (d - 1) // 2)
                for j in range(4))
            if ok:
                return Portrait("O4-odd", tuple(fibers), images)
        else:
            targets = set(images)
            if len(targets) == 1:
                a = images[0]
                ok = marked_fiber(a) == {j: 1 for j in range(4)} and \
                    _unmarked_is(unmarked(a), 2, d // 2 - 2) and all(
                        marked_fiber(j) == {} and _unmarked_is(unmarked(j), 2, d // 2)
                        for j in range(4) if j != a)
                if ok:
                    return Portrait("O4-even-all-to-one", tuple(fibers), images)
            if len(targets) == 2:
                t1, t2 = sorted(targets)
                pre1 = [j for j in range(4) if images[j] == t1]
                pre2 = [j for j in range(4) if images[j] == t2]
                if t1 in pre1 and t2 in pre2 and len(pre1) == 2 and len(pre2) == 2:
                    ok = all(
                        marked_fiber(t) == {a: 1, b: 1}
                        and _unmarked_is(unmarked(t), 2, d // 2 - 1)
                        for t, (a, b) in ((t1, sorted(pre1)), (t2, sorted(pre2)))
                    ) and all(
                        marked_fiber(j) == {} and _unmarked_is(unmarked(j), 2, d // 2)
                        for j in range(4) if j not in (t1, t2))
                    if ok:
                        return Portrait("O4-even-two-cycles", tuple(fibers), images)
        raise NoCaseMatch("2222 portrait outside the tabulated cases")

    if sig == "333":
        if d % 3 == 1:
            ok = all(images[j] == j and marked_fiber(j) == {j: 1}
                     and _unmarked_is(unmarked(j), 3, (d - 1) // 3)
                     for j in range(3))
            if ok:
                return Portrait("O1-fixed", tuple(fibers), images)
        if d % 3 == 0 and len(set(images)) == 1:
            a = images[0]
            ok = marked_fiber(a) == {j: 1 for j in range(3)} and \
                _unmarked_is(unmarked(a), 3, d // 3 - 1) and all(
                    marked_fiber(j) == {} and _unmarked_is(unmarked(j), 3, d // 3)
                    for j in range(3) if j != a)
            if ok:
                return Portrait("O1-all-to-one", tuple(fibers), images)
        raise NoCaseMatch("333 portrait outside the tabulated cases")

    if sig == "236":
        j6 = weights.index(6)
        j3 = weights.index(3)
        j2 = weights.index(2)
        if d % 6 == 1:
            ok = all(images[j] == j and marked_fiber(j) == {j: 1} for j in (j6, j3, j2)) \
                and _unmarked_is(unmarked(j6), 6, (d - 1) // 6) \
                and _unmarked_is(unmarked(j3), 3, (d - 1) // 3) \
                and _unmarked_is(unmarked(j2), 2, (d - 1) // 2)
            if ok:
                return Portrait("O2-fixed", tuple(fibers), images)
        if d % 6 == 4:
            ok = images[j6] == j6 and images[j3] == j3 and images[j2] == j6 \
                and marked_fiber(j2) == {} and _unmarked_is(unmarked(j2), 2, d // 2) \
                and marked_fiber(j3) == {j3: 1} \
                and _unmarked_is(unmarked(j3), 3, (d - 1) // 3) \
                and marked_fiber(j6) == {j6: 1, j2: 3} \
                and _unmarked_is(unmarked(j6), 6, (d - 4) // 6)
            if ok:
                return Portrait("O2-even-not-3", tuple(fibers), images)
        if d % 6 == 3:
            ok = images[j6] == j6 and images[j2] == j2 and images[j3] == j6 \
                and marked_fiber(j3) == {} and _unmarked_is(unmarked(j3), 3, d // 3) \
                and marked_fiber(j2) == {j2: 1} \
                and _unmarked_is(unmarked(j2), 2, (d - 1) // 2) \
                and marked_fiber(j6) == {j6: 1, j3: 2} \
                and _unmarked_is(unmarked(j6), 6, (d - 3) // 6)
            if ok:
                return Portrait("O2-div3-not-2", tuple(fibers), images)
        if d % 6 == 0:
            ok = images[j3] == j6 and images[j2] == j6 and images[j6] == j6 \
                and marked_fiber(j2) == {} and _unmarked_is(unmarked(j2), 2, d // 2) \
                and marked_fiber(j3) == {} and _unmarked_is(unmarked(j3), 3, d // 3) \
                and marked_fiber(j6) == {j6: 1, j2: 3, j3: 2} \
                and _unmarked_is(unmarked(j6), 6, d // 6 - 1)
            if ok:
                return Portrait("O2-div6", tuple(fibers), images)
        raise NoCaseMatch("236 portrait outside the tabulated cases")

    if sig == "244":
        j2 = weights.index(2)
        j4a, j4b = [j for j in range(3) if weights[j] == 4]
        if d % 4 == 1:
            ok = all(images[j] == j and marked_fiber(j) == {j: 1} for j in range(3)) \
                and _unmarked_is(unmarked(j2), 2, (d - 1) // 2) \
                and _unmarked_is(unmarked(j4a), 4, (d - 1) // 4) \
                and _unmarked_is(unmarked(j4b), 4, (d - 1) // 4)
            if ok:
                return Portrait("O3-fixed", tuple(fibers), images)
        if d % 4 == 0:
            for a, b in ((j4a, j4b), (j4b, j4a)):
                ok = images[a] == a and images[b] == a and images[j2] == a \
                    and marked_fiber(j2) == {} and _unmarked_is(unmarked(j2), 2, d // 2) \
                    and marked_fiber(b) == {} and _unmarked_is(unmarked(b), 4, d // 4) \
                    and marked_fiber(a) == {a: 1, b: 1, j2: 2} \
                    and _unmarked_is(unmarked(a), 4, d // 4 - 1)
                if ok:
                    return Portrait("O3-all-to-one", tuple(fibers), images)
        raise NoCaseMatch("244 portrait outside the tabulated cases")

    raise NoCaseMatch(f"no tabulated portraits for signature {sig}")


# ---------------------------------------------------------------------------
# Coarse classification of a P1 map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InfinityClass:
    tag: str                      # PowerLike | ChebyshevLike | LattesLike | Unknown
    signature: str | None = None  # for LattesLike
    data: tuple = ()

    def __str__(self):
        if self.tag == "LattesLike":
            return f"LattesLike({self.signature})"
        return self.tag


def _critical_points_rational(r: RatMap1):
    """[(point, multiplicity in the Wronskian)] for rational critical points,
    plus the residual (non-rational) critical factors [(form, mult)].

    The rational points are found per squarefree factor of the dehomogenised
    Wronskian, with infinity from the power of s; see `_form_split`."""
    return _form_split(r.formS.derivative("s") * r.formT.derivative("t")
                       - r.formS.derivative("t") * r.formT.derivative("s"))


def _critical_values(r: RatMap1, rational, residual):
    """The set of critical values, or None when any leaves the session field,
    from the output of _critical_points_rational(r).

    The roots of a residual factor f shared with den are poles and map to
    infinity.  The other roots, those of f' = f / gcd(f, den), map to the
    roots of the minimal polynomial of v = num/den in K[x]/(f'), K the
    session field, each value once; they all lie in K iff `rational_roots`
    finds as many roots as its degree.
    """
    values = []

    def add(p):
        if all(not points_equal(p, q) for q in values):
            values.append(p)

    for p, _m in rational:
        add(r.apply(p))
    num, den = r.formT.dense_in("t"), r.formS.dense_in("t")
    for f, _m in residual:
        aff = f.dense_in("t")
        poles = dense_gcd(aff, den)
        if len(poles) > 1:
            add(POINT_INF)
            aff = dense_divmod(aff, poles)[0]
        if len(aff) > 1:
            v = dense_divmod(dense_mul(num, dense_inverse_mod(den, aff)),
                             aff)[1]
            mu = _minimal_polynomial(v, aff)
            roots = rational_roots(from_dense(mu, "x"))
            if len(roots) != len(mu) - 1:
                return None  # some critical value leaves the session field
            for y0 in roots:
                add(affine_point(y0))
    return values


def _minimal_polynomial(v, f):
    """The monic minimal polynomial of v in K[x]/(f), dense lists: the first
    linear dependency among the reductions of 1, v, v^2, ... mod f."""
    k = len(f) - 1

    def vector(a):
        return a + [Coefficient.zero()] * (k - len(a))

    powers = [vector([Coefficient.one()])]
    power = [Coefficient.one()]
    while True:
        power = dense_divmod(dense_mul(power, v), f)[1]
        target = vector(power)
        matrix = [tuple(col[i] for col in powers) for i in range(k)]
        sol = _solve_linear(matrix, target)
        if sol is not None:
            return [-c for c in sol] + [Coefficient.one()]
        powers.append(target)


def _closure_under(r: RatMap1, points, cap: int = 16):
    """Forward orbit closure of a point set, or None past the cap."""
    post = list(points)
    for _ in range(cap):
        new = []
        for p in post:
            q = r.apply(p)
            if all(not points_equal(q, x) for x in post + new):
                new.append(q)
        if not new:
            return post
        post.extend(new)
        if len(post) > cap:
            return None
    return None


def classify_infinity(r: RatMap1) -> InfinityClass:
    if r.degree < 2:
        raise PreconditionViolated("degree must be at least 2")
    d = r.degree
    rational, residual = _critical_points_rational(r)
    totally_ramified = [p for p, m in rational if m == d - 1]
    if len(totally_ramified) == 2:
        p1, p2 = totally_ramified
        i1, i2 = r.apply(p1), r.apply(p2)
        pair_ok = ((points_equal(i1, p1) and points_equal(i2, p2))
                   or (points_equal(i1, p2) and points_equal(i2, p1)))
        if pair_ok:
            return InfinityClass("PowerLike")
    values = _critical_values(r, rational, residual)
    if values is None:
        return InfinityClass("Unknown")
    for p in totally_ramified:
        if points_equal(r.apply(p), p):
            post = _closure_under(r, values, cap=8)
            if post is not None:
                finite = [v for v in post if not points_equal(v, p)]
                if len(finite) <= 2:
                    marked = [(p, inf)] + [(v, 2) for v in finite]
                    try:
                        if is_orbifold_selfcover(r, Orbifold1(tuple(marked))):
                            return InfinityClass("ChebyshevLike")
                    except InfinityWeightViolation:
                        pass
    # Lattes candidates from the postcritical set
    post = _closure_under(r, values, cap=4)
    if post is None:
        return InfinityClass("Unknown")
    if len(post) == 4:
        try:
            o = standard_orbifolds("2222", post)
            if is_orbifold_selfcover(r, o):
                return InfinityClass("LattesLike", "2222", tuple(post))
        except (ValueError, InfinityWeightViolation):
            pass
    if len(post) == 3:
        for sig in ("333", "244", "236"):
            for perm in permutations(post):
                try:
                    o = standard_orbifolds(sig, perm)
                    if is_orbifold_selfcover(r, o):
                        return InfinityClass("LattesLike", sig, tuple(perm))
                except (ValueError, InfinityWeightViolation):
                    continue
    return InfinityClass("Unknown")
