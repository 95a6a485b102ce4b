"""Seeded query generators for the four benchmark workloads.

Each workload is an endless round-robin over a fixed cycle of query kinds;
every kind draws its parameters without replacement, stratified by cost (see
`Grid`), so the share of each kind and the spread of input sizes among
completed queries are the same for every seed.  No argv repeats within a
run.  A kind whose parameter space runs out leaves the cycle.

The program under test receives only the argv strings.  Building those
strings uses the library's constructors (families, affine conjugation,
rendering), so input generation is part of the measured set-up.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from commend.classify import AffineConj, affine_conjugate
from commend.endo2 import commutes
from commend.errors import NotCommuting, PreconditionViolated
from commend.families import chebyshev, ex1, ex2, ex3_lift, ex4_descend
from commend.field import Coefficient
from commend.mpoly import MPoly
from commend.rat1 import RatMap1
from commend.render import render_poly

Z1, Z2 = MPoly.var("z1"), MPoly.var("z2")
X = MPoly.var("x")
S, T = MPoly.var("s"), MPoly.var("t")


@dataclass
class Query:
    """One CLI invocation and what its answer must satisfy."""

    qid: int
    kind: str
    argv: list
    expect: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{self.qid}:{self.kind}"


def render(p: MPoly, order: int = 1) -> str:
    """p in the CLI grammar, every coefficient written in the powers of the
    session root w = zeta_order (the library's renderer writes a coefficient
    in the root of its own, possibly smaller, field)."""
    if order == 1:
        return render_poly(p)
    pieces = []
    for exps, coef in sorted(p.terms.items(), key=lambda kv: (sum(kv[0]),
                                                              kv[0]),
                             reverse=True):
        _, residues = coef.lift(order)
        for j, q in enumerate(residues):
            if q == 0:
                continue
            factors = ["w" if j == 1 else f"w^{j}"] if j else []
            factors += [v if e == 1 else f"{v}^{e}"
                        for v, e in zip(p.vars, exps) if e]
            if abs(q) != 1 or not factors:
                factors.insert(0, str(abs(q)))
            pieces.append(("-" if q < 0 else "+", "*".join(factors)))
    if not pieces:
        return "0"
    text = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in pieces[1:])


def _fmt_pair(pair, order: int = 1) -> str:
    """A map literal "(p, q)" for a pair of polynomials."""
    return f"({render(pair[0], order)}, {render(pair[1], order)})"


@dataclass(frozen=True)
class Grid:
    """The index space range(n1) x range(n2), sampled without listing it.

    Draws are stratified so that every seed sees the same mix of costs: the
    first index (a degree, a family, a stratum) is taken round-robin, and
    the second is drawn at random from one of `strata` equal slices of
    range(n2), the slices also taken in turn.  Builders order the second
    index by a cost proxy, so each slice holds inputs of similar cost.

    The k-th draw takes slice (k // n1) % strata, so each first index meets
    every slice once in n1 * strata draws.  With `interleave` it takes slice
    k % strata instead: when n1 and strata are coprime, every slice then
    comes round every `strata` draws, however large n1 is.
    """

    n1: int
    n2: int
    strata: int = 1
    interleave: bool = False


def _kind_stream(rng: random.Random, space):
    """Draw from `space` without replacement, in seeded order."""
    if isinstance(space, Grid):
        seen = set()
        bounds = [space.n2 * s // space.strata
                  for s in range(space.strata + 1)]
        for k in itertools.count():
            if len(seen) == space.n1 * space.n2:
                return
            s = (k if space.interleave else k // space.n1) % space.strata
            params = (k % space.n1, rng.randrange(bounds[s], bounds[s + 1]))
            if params not in seen:
                seen.add(params)
                yield params
    items = list(space)
    rng.shuffle(items)
    yield from items


def _cycle(rng: random.Random, kinds):
    """Round-robin over (kind, builder, space); yields (kind, query fields).

    Entries with the same kind name share one stream of parameters."""
    shared, seen = {}, set()
    streams = [(kind, build, shared.setdefault(kind,
                                               _kind_stream(rng, space)))
               for kind, build, space in kinds]
    while streams:
        alive = []
        for kind, build, stream in streams:
            for params in stream:
                built = build(rng, params)
                # symmetric maps make some distinct parameters give one argv
                if built is not None and tuple(built[0]) not in seen:
                    seen.add(tuple(built[0]))
                    yield kind, built
                    alive.append((kind, build, stream))
                    break
        streams = alive


def generate(workload: str, seed: int):
    """Endless (until exhausted) iterator of Query objects for a workload."""
    rng = random.Random(f"{workload}:{seed}")
    kinds = _KINDS[workload]()
    for qid, (kind, (argv, expect)) in enumerate(_cycle(rng, kinds)):
        yield Query(qid, kind, argv, expect)


# ---------------------------------------------------------------------------
# grid-search
# ---------------------------------------------------------------------------


def _grid_kinds():
    # Sets holding 0 let a few pairs survive the probes (and be recognized),
    # and larger coefficients make larger probe values: both cost time.  The
    # two kinds of set are drawn in turn, each ordered by coefficient size.
    all_sets = list(itertools.combinations(range(-6, 7), 5))
    strata = [sorted((cs for cs in all_sets if (0 in cs) == has_zero),
                     key=lambda cs: (sum(map(abs, cs)), cs))
              for has_zero in (True, False)]
    size = min(map(len, strata))
    strata = [[s[j * len(s) // size] for j in range(size)] for s in strata]
    space = Grid(2, size, strata=5)

    def search(degrees):
        d1, d2 = degrees
        sizes = {2: 4, 3: 3}

        def build(_rng, params):
            cs = strata[params[0]][params[1]]
            n1, n2 = len(cs) ** sizes[d1], len(cs) ** sizes[d2]
            total = n1 * (n1 - 1) // 2 if d1 == d2 else n1 * n2
            argv = ["search", "--degrees", f"{d1},{d2}",
                    "--coeffs=" + ",".join(str(c) for c in cs)]
            return argv, {"total_pairs": total}
        return build

    # two (2,3) searches per (2,2) search keep the median inside one
    # cluster of latencies instead of on the edge between two
    return [("search-2,3", search((2, 3)), space),
            ("search-2,2", search((2, 2)), space),
            ("search-2,3", search((2, 3)), space)]


# ---------------------------------------------------------------------------
# p1-classify
# ---------------------------------------------------------------------------


def _curves(strata: int = 5):
    """y^2 = (x-e1)(x-e2)(x-e3), distinct integer roots summing to 0, split
    into `strata` groups of similar root size (and so similar cost).

    Roots run over -16..16: 128 curves.  lattes2-portrait, four times in a
    cycle of 15, runs out of them after 480 queries, three times as many as
    a 35 s run makes in BASELINE.md."""
    out = []
    for roots in itertools.combinations(range(-16, 17), 3):
        if sum(roots) == 0:
            e1, e2, e3 = roots
            out.append((roots, e1 * e2 + e1 * e3 + e2 * e3, -e1 * e2 * e3))
    out.sort(key=lambda c: (max(map(abs, c[0])), c[0]))
    size = -(-len(out) // strata)
    return [out[i:i + size] for i in range(0, len(out), size)]


def _mobius_matrices():
    """Unimodular integer matrices with small entries and c > 0 (M and -M
    are one Moebius map); their conjugates have coefficients of similar
    size, which keeps the cost of one query, and so the run-to-run spread,
    small."""
    out = []
    for a, b, c, d in itertools.product(range(-2, 3), repeat=4):
        if abs(a * d - b * c) == 1 and c > 0:
            out.append((a, b, c, d))
    return sorted(out, key=lambda m: (sum(map(abs, m)), m))


def _conjugate_line_map(poly: MPoly, m):
    """Forms of M^-1 o P o M for M(x) = (a x + b)/(c x + d), as "(S, T)"."""
    a, b, c, d = m
    deg = poly.total_degree()
    top = MPoly.zero()
    for e, coef in poly.terms.items():
        k = e[0] if poly.vars else 0
        top = top + (T**k * S**(deg - k)).scale(coef)
    bind = {"s": T.scale(c) + S.scale(d), "t": T.scale(a) + S.scale(b)}
    ps, pt = (S**deg).substitute(bind), top.substitute(bind)
    form_s = ps.scale(a) - pt.scale(c)
    form_t = pt.scale(d) - ps.scale(b)
    return f"({render_poly(form_s)}, {render_poly(form_t)})"


def _preimage(m, point):
    """M^-1(point) for M(x) = (a x + b)/(c x + d), as an orbifold literal."""
    a, b, c, d = m
    if point == "inf":
        return str(Fraction(d, -c))  # c != 0 for every matrix used here
    num, den = d * point - b, -c * point + a
    return "inf" if den == 0 else str(Fraction(num, den))


def _orbifold(points):
    return ",".join(f"{p}:{w}" for p, w in points)


def _p1_kinds():
    curves = _curves()
    mats = _mobius_matrices()

    def lattes(cmd, n, expect):
        def build(_rng, params):
            stratum = curves[params[0]]
            if params[1] >= len(stratum):
                return None
            roots, a, b = stratum[params[1]]
            argv = [cmd, f"--map=lattes:{a},{b},{n}"]
            if cmd != "classify-p1":
                marked = [("inf", 2)] + [(r, 2) for r in roots]
                argv.append("--orbifold=" + _orbifold(marked))
            return argv, expect
        return build

    def conjugated(cmd, family, degrees):
        def build(_rng, params):
            deg, m = degrees[params[0]], mats[params[1]]
            poly = chebyshev(deg, "monic") if family == "cheb" else X**deg
            argv = [cmd, "--map=" + _conjugate_line_map(poly, m)]
            if cmd == "classify-p1":
                tag = "ChebyshevLike" if family == "cheb" else "PowerLike"
                return argv, {"class": tag}
            if family == "cheb":
                marked = [("inf", "inf"), (2, 2), (-2, 2)]
            else:
                marked = [("inf", "inf"), (0, "inf")]
            orb = [(_preimage(m, p), w) for p, w in marked]
            return argv + ["--orbifold=" + _orbifold(orb)], {"selfcover": True}
        return build, Grid(len(degrees), len(mats), strata=4)

    # Chebyshev maps of degree 7-8 cost 0.3-1.1 s in classify-p1, degree-9
    # Lattès maps 3-15 s; both would leave too few queries for a p90
    cheb_classify_degrees, degrees = (3, 4, 5, 6), (3, 4, 5, 6, 7, 8)
    curve_grid = Grid(len(curves), max(map(len, curves)))
    lattes2_portrait = ("lattes2-portrait",
                        lattes("portrait", 2, {"case": "O4-even-all-to-one"}),
                        curve_grid)
    lattes3_portrait = ("lattes3-portrait",
                        lattes("portrait", 3, {"case": "O4-odd"}), curve_grid)
    pow_cover = ("pow-cover", *conjugated("orbifold-cover", "pow", degrees))
    # The cycle has 15 slots.  About 5.5 cost less than lattes2-portrait,
    # which takes 4, and lattes3-portrait, the dearest, takes the top 3
    # (cheb-classify counts half: its costs straddle lattes2-portrait's).
    # So the median (slot 7.5) lies mid-way through the lattes2-portrait
    # cluster of latencies and the p90 (slot 13.5) mid-way through the
    # lattes3-portrait one, not on the sparse edge between two clusters,
    # where a few queries more or less in a run move them a lot.
    return [
        ("lattes2-classify", lattes("classify-p1", 2,
                                    {"class": "LattesLike(2222)"}), curve_grid),
        lattes2_portrait,
        ("lattes2-cover", lattes("orbifold-cover", 2,
                                 {"selfcover": True}), curve_grid),
        ("cheb-classify", *conjugated("classify-p1", "cheb",
                                      cheb_classify_degrees)),
        lattes3_portrait,
        ("pow-classify", *conjugated("classify-p1", "pow", degrees)),
        lattes2_portrait,
        ("lattes3-cover", lattes("orbifold-cover", 3, {"selfcover": True}),
         curve_grid),
        ("cheb-cover", *conjugated("orbifold-cover", "cheb", degrees)),
        lattes3_portrait,
        pow_cover,
        lattes2_portrait,
        pow_cover,
        lattes3_portrait,
        lattes2_portrait,
    ]


# ---------------------------------------------------------------------------
# plane and plane-cyclo
# ---------------------------------------------------------------------------


def _power_line(d):
    return RatMap1(S**d, T**d)


def _cheb_line(d):
    return RatMap1.from_polynomial(chebyshev(d, "monic"))


class _Field:
    """Scalars of one session field: Q (order 1) or Q(zeta_n)."""

    def __init__(self, order: int):
        self.order = order
        self.w = Coefficient.root_of_unity(order) if order > 1 else None

    def argv(self):
        return ["--cyclotomic", str(self.order)] if self.order > 1 else []

    def unit(self, k):
        return Coefficient.root_of_unity(self.order, k) if self.order > 1 \
            else Coefficient.rational(1)


_RATIONAL_SCALES = tuple(Fraction(x) for x in
                         ("1", "-1", "2", "-2", "3", "1/2", "-1/2", "1/3",
                          "2/3", "-3/2"))
_RATIONAL_SHIFTS = tuple(Fraction(x) for x in
                         ("0", "1", "-1", "2", "1/2", "-1/3"))


def _sigmas(fld: _Field):
    """Conjugations in the documented group: (anti)diagonal times translation."""
    scales = [Coefficient.rational(q) for q in _RATIONAL_SCALES]
    shifts = [Coefficient.rational(q) for q in _RATIONAL_SHIFTS]
    if fld.order > 1:
        # cyclotomic conjugations make most of these queries cost seconds
        scales, shifts = scales[:1], shifts[:3]
    out = []
    for kind in ("diagonal", "antidiagonal"):
        for p, q in itertools.product(scales, repeat=2):
            for t in itertools.product(shifts, repeat=2):
                out.append((kind, p, q, t))
    return sorted(out, key=lambda s: (_height(s[1:3] + s[3]),
                                      s[0] != "diagonal", str(s)))


def _height(values) -> int:
    """Sum of numerator and denominator sizes: a proxy for the cost of
    conjugating by a map with these coefficients."""
    total = 0
    for v in values:
        for q in Coefficient.coerce(v).res:
            total += abs(q.numerator) + q.denominator
    return total


def _make_sigma(spec):
    kind, p, q, t = spec
    build = AffineConj.diagonal if kind == "diagonal" else \
        AffineConj.antidiagonal
    return build(p, q, t)


# The sign and scalar choices of degrees (2, 3) that commute; listing them
# keeps the cost of building the first query the same for every seed.
_EX1_COMMUTING = [(2, 3, 1, (1, 1)), (2, 3, 1, (-1, 1)), (3, 2, 1, (1, 1)),
                  (3, 2, 1, (1, -1)), (3, 2, -1, (1, 1)), (3, 2, -1, (1, -1))]
_EX2_COMMUTING = [
    ((2, "straight", s2), (3, v3, (1, 1)))
    for s2, v3 in (((1, 1), "straight"), ((1, -1), "straight"),
                   ((-1, 1), "straight"), ((1, 1), "swap"))] + [
    ((2, "swap", s2), (3, v3, (1, 1)))
    for s2, v3 in (((1, 1), "straight"), ((1, -1), "straight"),
                   ((-1, 1), "straight"), ((1, 1), "swap"))]


def _family_pairs(fld: _Field):
    """(tag, builder) for commuting pairs; builders raise when invalid."""
    out = []
    if fld.order == 1:
        for params in _EX1_COMMUTING:
            out.append(("Ex1", lambda params=params: ex1(*params)))
        for a, b in _EX2_COMMUTING:
            out.append(("Ex2", lambda a=a, b=b: (ex2(*a), ex2(*b))))
        for a, b in ((2, 3), (3, 2)):
            for line in (_power_line, _cheb_line):
                out.append(("Ex3", lambda a=a, b=b, line=line:
                            ex3_lift(line(a), line(b))))
        for a, b in ((2, 3), (3, 2)):
            for h in (lambda d: X**d, lambda d: chebyshev(d, "monic")):
                out.append(("Ex4", lambda a=a, b=b, h=h:
                            (ex4_descend(h(a)), ex4_descend(h(b)))))
        return out
    one = Coefficient.rational(1)
    for k in range(1, fld.order):
        # ex1(4, 3, lam) commutes when lam^3 == 1
        lam = fld.unit(k)
        if lam.is_rational() or lam**3 != one:
            continue
        for signs in ((1, 1), (-1, 1)):
            out.append(("Ex1", lambda lam=lam, s=signs: ex1(4, 3, lam, s)))
    for k in range(1, fld.order):
        # power-map lifts of degrees (2, 3) commute when lam2 == lam1^2
        lam1 = fld.unit(k)
        if not lam1.is_rational():
            out.append(("Ex3", lambda l1=lam1: ex3_lift(
                _power_line(2), _power_line(3), l1, l1 * l1)))
    for k in range(fld.order):
        beta = fld.unit(k)
        for c in (Coefficient.zero(), fld.w, one):
            for a, b in ((2, 3), (3, 2)):
                for h in (lambda d: X**d, lambda d: chebyshev(d, "monic")):
                    if beta.is_rational() and c.is_rational():
                        continue
                    out.append(("Ex4", lambda a=a, b=b, h=h, beta=beta, c=c:
                                (ex4_descend(_conj_univariate(h(a), beta, c)),
                                 ex4_descend(_conj_univariate(h(b), beta,
                                                              c)))))
    return out


def _conj_univariate(h: MPoly, beta, c) -> MPoly:
    """(h(beta x + c) - c) / beta."""
    moved = h.substitute({"x": X.scale(beta) + MPoly.constant(c)})
    return (moved - MPoly.constant(c)).scale(beta.inverse())


def _seeded_h(rng: random.Random, fld: _Field, degree: int) -> MPoly:
    h = X**degree
    for k in range(degree):
        c = Coefficient.rational(rng.randint(-3, 3))
        if fld.order > 1 and rng.random() < 0.5:
            c = c + fld.unit(rng.randrange(1, fld.order))
        h = h + (X**k).scale(c)
    return h


def _plane_queries(fld: _Field):
    """The plane query kinds over one session field."""
    tags = {}
    for tag, make in _family_pairs(fld):
        tags.setdefault(tag, []).append(make)
    groups = list(tags.items())
    width = max(len(makers) for _tag, makers in groups)
    # every member of every family, the families interleaved, so that a
    # kind taking them in turn sees each family at the same rate
    members = [(t, m) for m in range(width)
               for t, (_tag, makers) in enumerate(groups) if m < len(makers)]
    sigmas = _sigmas(fld)
    extra = fld.argv()

    def fm(f):
        return _fmt_pair((f.comp1, f.comp2), fld.order)

    built = {}

    def family(i):
        """(tag, f1, f2) of members[i], or None if invalid."""
        if i not in built:
            t, m = members[i]
            tag, makers = groups[t]
            try:
                f1, f2 = makers[m]()
            except (NotCommuting, PreconditionViolated):
                f1 = f2 = None
            built[i] = (tag, f1, f2) if f1 and commutes(f1, f2) else None
        return built[i]

    def on_pair(fn):
        """Builder for a kind that takes one sigma-conjugated family pair;
        the first index picks the member, the second sigma."""
        def build(rng, params):
            i, j = params
            member = family(i)
            if member is None:
                return None
            tag, f1, f2 = member
            s = _make_sigma(sigmas[j])
            g1, g2 = affine_conjugate(f1, s), affine_conjugate(f2, s)
            return fn(rng, tag, g1 if j % 2 else g2, g1, g2)
        return build

    def classify(_rng, tag, _g, g1, g2):
        return (extra + ["classify", "--f=" + fm(g1),
                         "--g=" + fm(g2)], {"tag": tag})

    def critical(_rng, _tag, g, _g1, _g2):
        return extra + ["critical", "--f=" + fm(g)], {"map": fm(g)}

    def lines(_rng, _tag, g, _g1, _g2):
        return (extra + ["invariant-lines", "--f=" + fm(g)],
                {"map": fm(g)})

    def image(rng, _tag, g, _g1, _g2):
        a, b, c = (rng.randint(-3, 3) for _ in range(3))
        curve = Z1.scale(a or 1) + Z2.scale(b) + MPoly.constant(c)
        if fld.order > 1:
            curve = curve + Z2.scale(fld.w)
        return (extra + ["image-curve", "--f=" + fm(g),
                         "--curve=" + render(curve, fld.order)],
                {"map": fm(g), "curve": render(curve, fld.order)})

    # chain-check, a squarefree part of a composite, is the query most
    # sensitive to coefficient size: its members are moved only by the
    # conjugations of least height, the signed coordinate permutations
    # over Q, which leave the coefficients as small as they were
    least = min(_height(s[1:3] + s[3]) for s in sigmas)
    flips = [s for s in sigmas if _height(s[1:3] + s[3]) == least]

    def chain(_rng, params):
        i, j = params
        member = family(i)
        if member is None:
            return None
        _tag, f1, f2 = member
        if j % 2:
            f1, f2 = f2, f1
        s = _make_sigma(flips[j // 2])
        g1, g2 = affine_conjugate(f1, s), affine_conjugate(f2, s)
        return (extra + ["chain-check", "--f=" + fm(g1),
                         "--g=" + fm(g2)], {"chain": True})

    def ramified(rng, params):
        f = ex4_descend(_seeded_h(rng, fld, 2 + params[0]))
        return (extra + ["ramified-invariance", "--f=" + fm(f),
                         "--phi=z1^2 - 4*z2"],
                {"map": fm(f), "phi": "z1^2 - 4*z2"})

    orbit_pairs = []

    def orbit(_rng, params):
        if not orbit_pairs:
            orbit_pairs.extend(_orbit_pairs())
        i, j = params
        f1, f2 = orbit_pairs[i]
        s = _make_sigma(sigmas[j])
        g1, g2 = affine_conjugate(f1, s), affine_conjugate(f2, s)
        return (extra + ["critical-orbit", "--f=" + fm(g1),
                         "--g=" + fm(g2)], {"resolved": True})

    scalars = _local_scalars(fld)

    def lemma3(_rng, params):
        d, k, j, c = lemma3_space[params[1]]
        f = (Z1**d, Z2**k + (Z1 * Z2**j).scale(c))
        return (extra + ["lemma3", "--f=" + _fmt_pair(f, fld.order)],
                {"verified": True})

    def lemma4(_rng, params):
        d, e, curve, c = params
        f = (Z1**d, Z2**e + (Z1 * Z2).scale(c))
        return (extra + ["lemma4", "--f=" + _fmt_pair(f, fld.order),
                         "--curve=" + curve],
                {"verified": True})

    def prop2(_rng, params):
        (d1, d2), case = prop2_space[params[1]]
        f, g = (_prop2_map(d, case) for d in (d1, d2))
        return (extra + ["prop2-reduce", "--f=" + _fmt_pair(f, fld.order),
                         "--g=" + _fmt_pair(g, fld.order)], {"case": case})

    lemma3_space = [(d, k, j, c) for d in (2, 3, 4, 5) for k in (2, 3)
                    for j in range(1, k) for c in scalars]
    lemma4_space = [(d, e, curve, c) for d in (2, 3) for e in (2, 3)
                    for curve in ("z2", "z2 - z1^2", "z2 + 2*z1^2")
                    for c in scalars]
    # members in turn, sigma from nine slices of height in turn: the costs
    # of a run's pairs then differ from seed to seed only within a slice
    grid = Grid(len(members), len(sigmas), strata=9, interleave=True)
    degree_pairs = [(a, b) for a in range(2, 8) for b in range(2, 8)
                    if a != b and not _share_power(a, b)]
    # lemma3 costs grow with d, prop2-reduce costs with d1 + d2 (13-39 ms
    # at the commit that added the benchmark, around the median of a run):
    # both are drawn from slices of similar cost in turn
    prop2_space = sorted(((dd, case) for dd in degree_pairs
                          for case in (1, 2, 3)),
                         key=lambda p: (sum(p[0]), p))
    return [
        ("classify", on_pair(classify),
         grid if fld.order == 1 else Grid(len(members), 1)),
        ("critical", on_pair(critical), grid),
        ("chain-check", chain, Grid(len(members), 2 * len(flips))),
        ("invariant-lines", on_pair(lines), grid),
        ("image-curve", on_pair(image), grid),
        ("ramified-invariance", ramified, Grid(3, 1000)),
        ("critical-orbit", orbit,
         Grid(4, len(sigmas), strata=9, interleave=True)),
        ("lemma3", lemma3, Grid(1, len(lemma3_space), strata=4)),
        ("lemma4", lemma4, lemma4_space),
        ("prop2-reduce", prop2, Grid(1, len(prop2_space), strata=7)),
    ]


def _local_scalars(fld: _Field):
    if fld.order == 1:
        return [Coefficient.rational(Fraction(q)) for q in
                ("1", "-1", "2", "-3", "1/2", "5/3", "-7/4")]
    w = fld.w
    return [w, -w, w * 2, w * w, w + 1, w * Fraction(-1, 2)]


def _share_power(a: int, b: int) -> bool:
    """True when a^m == b^n for some m, n >= 1."""
    return any(a**m == b**n for m in range(1, 6) for n in range(1, 6))


def _prop2_map(d: int, case: int):
    """A prepared map (z1^d, z2^d + ...) in one of the three normal-form
    cases of the one-variable reduction."""
    comp2 = Z2**d
    if case > 1:
        cheb = chebyshev(d, "monic")
        comp2 = MPoly.zero()
        for e, coef in cheb.terms.items():
            k = e[0] if cheb.vars else 0
            j = (d - k) // 2
            xpow = 2 * j if case == 2 else j
            comp2 = comp2 + (Z2**k * Z1**xpow).scale(coef)
    return Z1**d, comp2


def _orbit_pairs():
    return [ex3_lift(_power_line(2), _power_line(3)),
            (ex4_descend(X**2), ex4_descend(X**3)),
            (ex4_descend(chebyshev(2, "monic")),
             ex4_descend(chebyshev(3, "monic"))),
            (ex4_descend(X**2), ex4_descend(X**4))]


def _plane_kinds():
    return _plane_queries(_Field(1))


# Kinds whose report prints polynomials run only where the session field has
# no proper cyclotomic subfield: for n = 6 and 12 the library prints a
# coefficient of a subfield in the powers of that subfield's own root, which
# the same session reads back as powers of zeta_n, so those reports are wrong
# at this commit.  chain-check and critical-orbit cost 5-10 s per query over
# Q(zeta_n) at this commit and are left to the rational plane workload.
_CYCLO_KINDS = {
    3: ("classify", "critical", "invariant-lines", "image-curve",
        "ramified-invariance", "lemma3", "lemma4", "prop2-reduce"),
    4: ("classify", "critical", "invariant-lines", "image-curve",
        "ramified-invariance", "lemma3", "lemma4", "prop2-reduce"),
    6: ("classify", "lemma3", "lemma4", "prop2-reduce"),
    12: ("classify", "lemma3", "lemma4", "prop2-reduce"),
}


def _cyclo_kinds():
    kinds = []
    for order, names in _CYCLO_KINDS.items():
        for kind, build, space in _plane_queries(_Field(order)):
            if kind in names:
                kinds.append((f"{kind}-{order}", build, space))
    return kinds


_KINDS = {"grid-search": _grid_kinds, "p1-classify": _p1_kinds,
          "plane": _plane_kinds, "plane-cyclo": _cyclo_kinds}
