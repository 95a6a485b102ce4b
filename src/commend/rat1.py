"""Self-maps of the projective line on the dense list kernel.

Convention: a point is [s:t]; the affine coordinate x corresponds to [1:x]
and infinity to [0:1], so polynomial maps fix [0:1].  A point is kept in its
normal form, [0:1] or [1:x] (`normalize_point`), so points compare by ==
and go into sets.

A map of degree d is [formS : formT], and it stores d and the coefficient
lists S = formS(1, t) and T = formT(1, t), the entry of index k that of
s^(d-k) t^k.  The two lists hold Fractions when every entry is rational,
else Coefficients (`_uniform`), and each list of a fiber holds one of the
two types, so the kernel never meets a bare int (1 / int is a float).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import inf

from .errors import (BadPointCount, InfinityWeightViolation, NoCaseMatch,
                     PreconditionViolated)
from .field import (Coefficient, _dense_sub, _scale, _trim, dense_divmod,
                    dense_inverse_mod, dense_mul, first_relation)
from .mpoly import (MPoly, _dense_derivative, dense_eval, dense_gcd,
                    dense_rational_roots, dense_squarefree, forms_share_zero,
                    kernel_lists)

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


def _form_from_dense(a: list, d: int) -> MPoly:
    """The degree-d binary form sum a[k] s^(d-k) t^k."""
    return MPoly.make(("s", "t"), {(d - k, k): c for k, c in enumerate(a)})


def _uniform(*lists):
    """The lists with one entry type, as `kernel_lists` gives it."""
    return kernel_lists(*([Coefficient.coerce(c) for c in a] for a in lists))


# ---------------------------------------------------------------------------
# Rational maps
# ---------------------------------------------------------------------------


class RatMap1:
    """The self-map [s:t] -> [formS : formT] of P^1, stored as its degree d
    and the lists S and T of the forms at s = 1.

    The forms share no zero in P^1 (`forms_share_zero` on S and T), so d is
    the degree of the map and at least one list has degree d.  `formS` and
    `formT` are views built from the lists.
    """

    __slots__ = ("degree", "S", "T")

    def __init__(self, formS, formT):
        formS, formT = MPoly.coerce(formS), MPoly.coerce(formT)
        bad = (set(formS.vars) | set(formT.vars)) - {"s", "t"}
        if bad:
            raise ValueError(f"forms must live in s, t (got {bad})")
        d = max(formS.total_degree(), formT.total_degree())
        if any(sum(e) != d for f in (formS, formT) for e in f.terms):
            raise ValueError("components must be homogeneous of equal degree")
        if formS.is_zero() and formT.is_zero():
            raise ValueError("zero map")
        self._store(d, formS.dense_in("t"), formT.dense_in("t"))

    @staticmethod
    def from_lists(d: int, S: list, T: list) -> "RatMap1":
        """The map of degree d whose forms at s = 1 are the lists S and T,
        with entries of any field type."""
        r = object.__new__(RatMap1)
        r._store(d, S, T)
        return r

    def _store(self, d, S, T):
        S, T = map(_trim, _uniform(S, T))
        if forms_share_zero(S, T, d, d):
            raise ValueError("degenerate map: forms share a projective zero")
        for name, value in (("degree", d), ("S", S), ("T", T)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("RatMap1 is immutable")

    @property
    def formS(self) -> MPoly:
        return _form_from_dense(self.S, self.degree)

    @property
    def formT(self) -> MPoly:
        return _form_from_dense(self.T, self.degree)

    @staticmethod
    def identity() -> "RatMap1":
        return RatMap1(MPoly.var("s"), MPoly.var("t"))

    @staticmethod
    def from_polynomial(p: MPoly) -> "RatMap1":
        """The self-map [s^d : s^d p(t/s)] of a polynomial p in x, d = deg p."""
        d = p.total_degree()
        if set(p.vars) - {"x"} or d < 0:
            raise ValueError(f"need a nonzero polynomial in x of degree at most {d}")
        return RatMap1.from_lists(d, [1], p.dense_in("x"))

    def apply(self, point):
        """The image of `point`, normalised: S and T evaluated at x by
        Horner's rule at [1:x], in Fractions when x is rational and the
        lists are; their entries of index d at [0:1]."""
        s, x = normalize_point(*point)
        if not s:
            d = self.degree
            return normalize_point(*(a[d] if len(a) > d else 0
                                     for a in (self.S, self.T)))
        if x.order == 1:
            x = x.res[0]
        return normalize_point(dense_eval(self.S, x), dense_eval(self.T, x))

    def __eq__(self, other):
        # two maps in lowest terms agree iff S1/T1 == S2/T2
        if not isinstance(other, RatMap1):
            return NotImplemented
        return dense_mul(self.S, other.T) == dense_mul(self.T, other.S)

    def __hash__(self):
        # the lists scaled to a top entry 1, as Coefficients so that a list
        # of Fractions hashes like one of rational Coefficients
        top = (self.S if len(self.S) > self.degree else self.T)[-1]
        return hash(tuple(tuple(Coefficient.coerce(c / top) for c in a)
                          for a in (self.S, self.T)))

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
    """Fiber of a point: split points plus unsplit residual factors.

    The split points are the rational zeros found per squarefree factor of
    the fiber's list, with infinity from the drop in its degree (see
    `_form_split`), and in `_marked_fibers` the marked points.  A residual
    factor is a monic squarefree list in t, its zeros the points [1:t].
    """

    marked_points: tuple  # of ((a, b), multiplicity)
    residual: tuple       # of (monic squarefree list, multiplicity)

    def total_multiplicity(self) -> int:
        return (sum(m for _p, m in self.marked_points)
                + sum((len(f) - 1) * m for f, m in self.residual))

    def distinct_count(self) -> int:
        return (len(self.marked_points)
                + sum(len(f) - 1 for f, _m in self.residual))


def _form_split(a: list, d: int):
    """The zeros of the degree-d binary form whose list at s = 1 is the
    nonzero a, split by multiplicity.

    Returns ([(point, mult)], [(residual list, mult)]): infinity first, of
    multiplicity d - deg a, then the rational points in ascending order,
    and per multiplicity one monic squarefree list carrying the zeros left
    unsplit.  `dense_squarefree` splits a by multiplicity,
    `dense_rational_roots` finds each factor's rational zeros and synthetic
    division strips them; over Q all of it runs in Fractions.
    """
    k = d - (len(a) - 1)
    points = [(POINT_INF, k)] if k else []
    affine, residual = [], []
    for f, m in dense_squarefree(a)[1]:
        roots = dense_rational_roots(f)
        for x0 in roots:
            f = dense_divmod(f, [-x0, Fraction(1)])[0]
        affine += [(x0, m) for x0 in roots]
        if len(f) > 1:
            residual.append((f, m))
    return points + [(affine_point(x0), m) for x0, m in sorted(affine)], residual


def pullback_divisor(r: RatMap1, point) -> PullbackDivisor:
    """The fiber of `point` [a:b]: the zeros of b*S - a*T, by `_form_split`."""
    (a, b), S, T = _uniform(normalize_point(*point), r.S, r.T)
    points, residual = _form_split(_dense_sub(_scale(S, b), _scale(T, a)),
                                   r.degree)
    return PullbackDivisor(tuple(points), tuple(residual))


# ---------------------------------------------------------------------------
# Orbifolds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Orbifold1:
    """Marked points of P^1 with weights; the points are stored normalised,
    and `weight_of` and `index_of` take normalised points."""

    marked: tuple  # of ((a, b), weight) with weight int >= 2 or math.inf

    def __post_init__(self):
        marked = tuple((normalize_point(*p), w) for p, w in self.marked)
        object.__setattr__(self, "marked", marked)
        if len({p for p, _w in marked}) != len(marked):
            raise ValueError("marked points must be pairwise distinct")
        for _p, w in marked:
            if w != inf and (not isinstance(w, int) or w < 2):
                raise ValueError("weights must be integers >= 2 or infinity")

    def weight_of(self, point):
        return dict(self.marked).get(point, 1)

    def index_of(self, point):
        return next((i for i, (p, _w) in enumerate(self.marked)
                     if p == point), None)


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
    return Orbifold1(tuple(zip(points, weights)))


def _marked_fibers(r: RatMap1, o: Orbifold1):
    """The marked points' fibers, each affine marked point that is a zero of
    a residual factor divided out of it by exact evaluation and split; a
    factor over Q has no rational zero left (`_form_split`)."""
    affine = sorted((p for p, _w in o.marked if p[0]),
                    key=lambda p: p[1].sort_key())
    for alpha, _w in o.marked:
        fiber = pullback_divisor(r, alpha)
        points, residual = list(fiber.marked_points), []
        for f, m in fiber.residual:
            over_q = type(f[-1]) is Fraction
            for p in affine:
                x0 = p[1]
                if not (over_q and x0.order == 1) and not dense_eval(f, x0):
                    f = _uniform(dense_divmod(f, [-x0, 1])[0])[0]
                    points.append((p, m))
            if len(f) > 1:
                residual.append((f, m))
        yield PullbackDivisor(tuple(points), tuple(residual))


def is_orbifold_selfcover(r: RatMap1, o: Orbifold1) -> bool:
    """Covering condition: n(f(x)) = mult(f, x) * n(x) at every point."""
    return _covers(r, o, _marked_fibers(r, o))


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
                if p not in inf_points:
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
            unmarked_pts.append((len(f) - 1, m))
        fibers.append((tuple(sorted(marked_part)), tuple(sorted(unmarked_pts))))
    images = tuple(o.index_of(r.apply(p)) for p, _w in o.marked)
    return fibers, images


# Per signature, each tabulated case with the images of the marked points
# taken by ascending weight, as indices in that order
_PORTRAITS = {
    "2222": [("O4-odd", (0, 1, 2, 3)), ("O4-even-all-to-one", (0, 0, 0, 0)),
             ("O4-even-two-cycles", (0, 0, 2, 2))],
    "333": [("O1-fixed", (0, 1, 2)), ("O1-all-to-one", (0, 0, 0))],
    "236": [("O2-fixed", (0, 1, 2)), ("O2-even-not-3", (2, 1, 2)),
            ("O2-div3-not-2", (0, 2, 2)), ("O2-div6", (2, 2, 2))],
    "244": [("O3-fixed", (0, 1, 2)), ("O3-all-to-one", (1, 1, 1))],
}


def portrait(r: RatMap1, o: Orbifold1) -> Portrait:
    """The tabulated case of a self-cover, read from the images of the
    marked points alone.

    Once `_covers` holds, the images force every fiber: over a marked point
    of weight w, a marked preimage of weight v has multiplicity w/v, every
    other preimage has multiplicity w, and the fiber's multiplicities add up
    to the degree d, which fixes the unmarked count and d modulo w.  So a
    case is an image pattern, matched up to relabelings of the marked points
    that keep the weights.
    """
    divisors = list(_marked_fibers(r, o))
    if not _covers(r, o, divisors):
        raise PreconditionViolated("map is not a self-cover of the orbifold")
    fibers, images = _fiber_data(r, o, divisors)
    weights = [w for _p, w in o.marked]
    ascending = sorted(weights)
    sig = "".join(str(w) for w in ascending)
    if sig not in _PORTRAITS:
        raise NoCaseMatch(f"no tabulated portraits for signature {sig}")
    for order in permutations(range(len(weights))):
        if [weights[j] for j in order] != ascending:
            continue
        rank = {j: k for k, j in enumerate(order)}
        seen = tuple(rank[images[j]] for j in order)
        for case, pattern in _PORTRAITS[sig]:
            if seen == pattern:
                return Portrait(case, tuple(fibers), images)
    raise NoCaseMatch(f"{sig} portrait outside the tabulated cases")


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
    plus the residual (non-rational) critical factors [(list, mult)], by
    `_form_split` of the Wronskian at its degree 2d - 2.

    The Wronskian is formS_s formT_t - formS_t formT_s.  By Euler's identity
    s F_s + t F_t = d F, its chart at s = 1 is d (S T' - S' T), whose zeros
    are those of S T' - S' T."""
    S, T = r.S, r.T
    return _form_split(_dense_sub(dense_mul(S, _dense_derivative(T)),
                                  dense_mul(_dense_derivative(S), T)),
                       2 * r.degree - 2)


def _critical_values(r: RatMap1, rational, residual):
    """The set of critical values, or None when any leaves the session field,
    from the output of _critical_points_rational(r).

    The roots of a residual factor f shared with den are poles and map to
    infinity.  The other roots, those of f' = f / gcd(f, den), map to the
    roots of the minimal polynomial of v = num/den in K[x]/(f'), K the
    session field, each value once; they all lie in K iff `rational_roots`
    finds as many roots as its degree.
    """
    values = dict.fromkeys(r.apply(p) for p, _m in rational)  # ordered set
    for aff, _m in residual:
        poles = dense_gcd(aff, r.S)
        if len(poles) > 1:
            values[POINT_INF] = None
            aff = dense_divmod(aff, poles)[0]
        if len(aff) > 1:
            v = dense_divmod(dense_mul(r.T, dense_inverse_mod(r.S, aff)),
                             aff)[1]
            mu = _minimal_polynomial(v, aff)
            roots = dense_rational_roots(mu)
            if len(roots) != len(mu) - 1:
                return None  # some critical value leaves the session field
            values.update(dict.fromkeys(map(affine_point, roots)))
    return list(values)


def _minimal_polynomial(v, f):
    """The monic minimal polynomial of v in K[x]/(f), dense lists: the first
    relation (`first_relation`) among the reductions of 1, v, v^2, ... mod f,
    each under keys 0, ..., deg f - 1 beside its power v^j under -1 - j.
    The relation has 1 at the newest power, its lowest key."""
    one = f[-1] / f[-1]

    def rows():
        power = [one]
        for n in range(len(f)):
            if n:
                power = dense_divmod(dense_mul(power, v), f)[1]
            yield {i: x for i, x in enumerate(power) if x} | {-1 - n: one}

    row = first_relation(rows(), 0)
    return [row.get(-1 - j, one - one) for j in range(-min(row))]


def _closure_under(r: RatMap1, points, cap: int = 16):
    """Forward orbit closure of a point set, or None past the cap."""
    post = list(points)
    for _ in range(cap):
        new = list(dict.fromkeys(q for q in map(r.apply, post)
                                 if q not in post))
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
        if (i1, i2) in ((p1, p2), (p2, p1)):
            return InfinityClass("PowerLike")
    values = _critical_values(r, rational, residual)
    if values is None:
        return InfinityClass("Unknown")
    for p in totally_ramified:
        if r.apply(p) == p:
            post = _closure_under(r, values, cap=8)
            if post is not None:
                finite = [v for v in post if v != p]
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
