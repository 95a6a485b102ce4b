"""Projective line maps, orbifold self-covers, portraits, classification."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commend import rat1
from commend.errors import NoCaseMatch, PreconditionViolated
from commend.families import chebyshev, elliptic_lattes, EllipticCurveData
from commend.field import Coefficient
from commend.mpoly import (MPoly, from_dense, gcd_poly, kernel_lists,
                           rational_roots, resultant, squarefree_decompose,
                           squarefree_part)
from commend.parse import parse_map_pair, parse_poly
from commend.rat1 import (POINT_INF, Orbifold1, RatMap1, affine_point,
                          classify_infinity, commutes1, compose1,
                          is_orbifold_selfcover, parabolic_check,
                          portrait, pullback_divisor, standard_orbifolds)
from test_reports import portrait_maps


def poly_map(text):
    p = parse_poly(text)
    return RatMap1.from_polynomial(p.substitute(
        {v: MPoly.var("x") for v in p.vars}))


SQUARE = poly_map("x^2")
TCHEB2 = poly_map("x^2 - 2")
TCHEB3 = poly_map("x^3 - 3*x")
LATTES2 = elliptic_lattes(EllipticCurveData(-1, 0), 2)

CHEB_ORB = Orbifold1(((POINT_INF, math.inf),
                      (affine_point(2), 2), (affine_point(-2), 2)))
TORSION_ORB = Orbifold1(((POINT_INF, 2), (affine_point(0), 2),
                         (affine_point(1), 2), (affine_point(-1), 2)))


class TestRatMap1:
    def test_degree_and_values(self):
        assert SQUARE.degree == 2
        assert SQUARE.apply(affine_point(2)) == affine_point(4)
        assert SQUARE.apply(POINT_INF) == POINT_INF

    def test_compose_chebyshev_semigroup(self):
        assert compose1(TCHEB2, TCHEB3) == compose1(TCHEB3, TCHEB2)
        assert compose1(TCHEB2, TCHEB3) == poly_map("x^6 - 6*x^4 + 9*x^2 - 2")
        assert commutes1(TCHEB2, TCHEB3)
        assert not commutes1(TCHEB2, poly_map("x^3"))

    def test_composite_forms_coprime(self):
        # nondegenerate maps compose to forms with no common zero
        maps = (SQUARE, TCHEB2, TCHEB3, LATTES2)
        for r1 in maps:
            for r2 in maps:
                c = compose1(r1, r2)
                assert gcd_poly(c.formS, c.formT).is_constant()

    def test_projective_equality(self):
        r1 = RatMap1(parse_poly("2*s^2"), parse_poly("2*t^2"))
        assert r1 == RatMap1(parse_poly("s^2"), parse_poly("t^2"))

    @given(st.sampled_from([1, 3]), st.integers(1, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_apply_matches_evaluation(self, order, d, data):
        # Horner over the coefficient lists against MPoly.evaluate
        w = Coefficient.root_of_unity(3)
        values = st.integers(-3, 3).map(Coefficient.rational)
        if order == 3:
            values = st.builds(lambda a, b: a + w * b, values, values)
        s, t = MPoly.var("s"), MPoly.var("t")

        def form():
            return MPoly._sum((s**(d - k) * t**k).scale(data.draw(values))
                              for k in range(d + 1))

        try:
            r = RatMap1(form(), form())
        except ValueError:
            assume(False)
        points = [(0, 1), (1, 0), (2, 6), (Coefficient.rational(-3), 1),
                  (1, w), (w, w * w + 1), (data.draw(values), data.draw(values))]
        for point in points:
            if not point[0] and not point[1]:
                continue
            vals = {"s": point[0], "t": point[1]}
            want = rat1.normalize_point(r.formS.evaluate(vals),
                                        r.formT.evaluate(vals))
            assert r.apply(point) == want

    def test_pullback_divisor(self):
        fiber = pullback_divisor(SQUARE, affine_point(4))
        pts = {(str(p[0]), str(p[1])): m for p, m in fiber.marked_points}
        assert fiber.total_multiplicity() == 2
        assert fiber.distinct_count() == 2
        fiber0 = pullback_divisor(SQUARE, affine_point(0))
        assert fiber0.total_multiplicity() == 2
        assert fiber0.distinct_count() == 1


# The form-based paths that the stored lists replaced, kept as oracles

def oracle_points_equal(p, q):
    """Projective equality by cross-multiplication."""
    return (p[0] * q[1] - p[1] * q[0]).is_zero()


def oracle_apply(r, point):
    vals = {"s": point[0], "t": point[1]}
    return rat1.normalize_point(r.formS.evaluate(vals), r.formT.evaluate(vals))


def oracle_eq(r1, r2):
    return (r1.formS * r2.formT - r1.formT * r2.formS).is_zero()


def oracle_critical_points(r):
    """`_form_split` of the Wronskian of the forms, built on MPolys."""
    w = (r.formS.derivative("s") * r.formT.derivative("t")
         - r.formS.derivative("t") * r.formT.derivative("s"))
    return rat1._form_split(*kernel_lists(w.dense_in("t")), 2 * r.degree - 2)


W3 = Coefficient.root_of_unity(3)


def field_values(order):
    """Elements of Q (order 1) or Q(zeta_3) (order 3)."""
    q = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    if order == 1:
        return q.map(Coefficient.rational)
    return st.builds(lambda a, b: Coefficient.rational(a) + W3 * b, q, q)


@st.composite
def line_map_lists(draw, order, max_degree=4):
    """(d, S, T) of a nondegenerate map of degree d, each entry an int, a
    Fraction or a Coefficient."""
    d = draw(st.integers(1, max_degree))
    entry = st.one_of(st.integers(-3, 3),
                      st.fractions(min_value=-3, max_value=3,
                                   max_denominator=3),
                      field_values(order))
    S, T = (draw(st.lists(entry, min_size=d + 1, max_size=d + 1))
            for _ in range(2))
    try:
        RatMap1.from_lists(d, S, T)
    except ValueError:
        assume(False)
    return d, S, T


def _form(a, d):
    return MPoly.make(("s", "t"), {(d - k, k): c for k, c in enumerate(a)})


def one_entry_type(*lists):
    """All entries Fractions or all Coefficients."""
    return {type(c) for a in lists for c in a} in ({Fraction}, {Coefficient})


def stored_like_kernel_lists(r):
    """A map's lists hold Fractions iff every entry is rational."""
    rational = all(Coefficient.coerce(c).order == 1 for c in r.S + r.T)
    return one_entry_type(r.S, r.T) and rational == (type(r.S[-1]) is Fraction)


class TestListsAgainstForms:
    """The stored lists and normalised points against the form-based
    paths and cross-multiplication, over Q and Q(zeta_3)."""

    @given(st.sampled_from([1, 3]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_list_and_form_constructors_agree(self, order, data):
        d, S, T = data.draw(line_map_lists(order))
        r = RatMap1.from_lists(d, S, T)
        forms = RatMap1(_form(S, d), _form(T, d))
        assert r == forms and hash(r) == hash(forms) and oracle_eq(r, forms)
        assert (r.formS, r.formT) == (_form(S, d), _form(T, d))
        assert r.degree == d and stored_like_kernel_lists(r)
        # a multiple by a scalar, inside or outside Q, is the same map
        c = data.draw(st.sampled_from([Fraction(-2, 3), W3, W3 + 1]))
        scaled = RatMap1.from_lists(d, [x * c for x in S], [x * c for x in T])
        assert scaled == r and hash(scaled) == hash(r)
        assert oracle_eq(scaled, r) and stored_like_kernel_lists(scaled)

    @given(st.sampled_from([1, 3]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_apply_critical_points_and_compose_match_the_oracles(self, order,
                                                                 data):
        r1 = RatMap1.from_lists(*data.draw(line_map_lists(order)))
        r2 = RatMap1.from_lists(*data.draw(line_map_lists(order, 2)))
        points = [POINT_INF, affine_point(0), affine_point(-1), (1, W3),
                  affine_point(data.draw(field_values(order)))]
        for p in points:
            assert r1.apply(p) == oracle_apply(r1, p)
            for f, _m in pullback_divisor(r1, p).residual:
                assert one_entry_type(f)
        got = rat1._critical_points_rational(r1)
        assert got == oracle_critical_points(r1)
        assert all(one_entry_type(f) for f, _m in got[1])
        c = compose1(r1, r2)
        bind = {"s": r2.formS, "t": r2.formT}
        assert oracle_eq(c, RatMap1(r1.formS.substitute(bind),
                                    r1.formT.substitute(bind)))
        for p in points:
            assert c.apply(p) == r1.apply(r2.apply(p))

    @given(st.sampled_from([1, 3]), st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_normalised_points_compare_like_cross_multiplication(
            self, order, proportional, data):
        values = field_values(order)
        p = (data.draw(values), data.draw(values))
        assume(p[0] or p[1])
        if proportional:
            k = data.draw(values.filter(bool))
            q = (p[0] * k, p[1] * k)
        else:
            q = (data.draw(values), data.draw(values))
            assume(q[0] or q[1])
        a, b = rat1.normalize_point(*p), rat1.normalize_point(*q)
        assert (a == b) == oracle_points_equal(p, q)
        assert a != b or hash(a) == hash(b)

    def test_orbifold_points_are_normalised(self):
        o = Orbifold1((((2, 4), 2), ((0, 3), math.inf)))
        assert o.marked == ((affine_point(2), 2), (POINT_INF, math.inf))
        assert o.weight_of(affine_point(2)) == 2 and o.index_of(POINT_INF) == 1
        with pytest.raises(ValueError, match="pairwise distinct"):
            Orbifold1((((1, 2), 2), ((3, 6), 3)))


S, T = MPoly.var("s"), MPoly.var("t")
# homogenised irreducible quadratics and cubics over Q
IRREDUCIBLE = (T**2 + S**2, T**2 - S**2 * 2, T**2 + S * T + S**2 * 3,
               T**3 - S**3 * 2, T**3 + S**2 * T + S**3)


def dehomogenise(form):
    """form(1, x), by substitution."""
    return form.substitute({"s": MPoly.one(), "t": MPoly.var("x")})


def expected_fiber(form):
    """(points, [(residual degree, mult)]) from the bivariate squarefree
    decomposition of the whole form and the rational roots of form(1, x)."""
    aff = dehomogenise(form)
    zeros = [POINT_INF] if aff.total_degree() < form.total_degree() else []
    zeros += [affine_point(x0) for x0 in rational_roots(aff)]
    factors = squarefree_decompose(form)[1]

    def on(f, p):
        return f.evaluate({"s": p[0], "t": p[1]}).is_zero()

    points = [(p, m) for p in zeros for f, m in factors if on(f, p)]
    residual = [(f.total_degree() - sum(on(f, p) for p in zeros), m)
                for f, m in factors]
    return points, sorted((deg, m) for deg, m in residual if deg)


class TestFormSplit:
    @given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=3),
                    max_size=3, unique=True),
           st.lists(st.integers(1, 4), min_size=4, max_size=4),
           st.integers(0, 4), st.sampled_from(IRREDUCIBLE), st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_pullback_matches_whole_form_split(self, roots, mults, at_inf,
                                               irreducible, power):
        form = S**at_inf * irreducible**power
        for x0, m in zip(roots, mults):
            form = form * (T - S.scale(x0))**m
        assume(form.total_degree() >= 1)
        # x = c is no zero of the form, so t - c*s shares none with it
        c = 1 + math.ceil(max((abs(x0) for x0 in roots), default=0))
        other = (T - S.scale(c))**form.total_degree()
        fiber = pullback_divisor(RatMap1(form, other), POINT_INF)
        points, residual = expected_fiber(form)
        assert list(fiber.marked_points) == points
        assert sorted((len(f) - 1, m) for f, m in fiber.residual) == residual

    def test_rational_zero_beside_a_cyclotomic_factor(self):
        # (x - 1)^2 (x - w) over Q(zeta_3): form(1, x) has a coefficient
        # outside Q, but its squarefree factor x - 1 does not
        w = Coefficient(3, [0, 1])
        form = (T - S)**2 * (T - S.scale(w))
        fiber = pullback_divisor(RatMap1(form, S**3), POINT_INF)
        assert fiber.marked_points == ((affine_point(1), 2),)
        assert [(len(f) - 1, m) for f, m in fiber.residual] == [(1, 1)]

    def test_portrait_splits_each_fiber_once(self, monkeypatch):
        calls = []

        def counting(r, point):
            calls.append(point)
            return pullback_divisor(r, point)

        monkeypatch.setattr(rat1, "pullback_divisor", counting)
        assert portrait(LATTES2, TORSION_ORB).case == "O4-even-all-to-one"
        assert len(calls) == len(TORSION_ORB.marked)


def _line_map(text):
    if text.startswith("lattes:"):
        a, b, n = map(int, text[7:].split(","))
        return elliptic_lattes(EllipticCurveData(a, b), n)
    return RatMap1(*parse_map_pair(text))


def _orbifold(text):
    marked = []
    for piece in text.split(","):
        where, _, w = piece.rpartition(":")
        point = POINT_INF if where == "inf" else affine_point(Fraction(where))
        marked.append((point, math.inf if w == "inf" else int(w)))
    return Orbifold1(tuple(marked))


# (map, orbifold, case or None for no tabulated case), ten of the eleven cases
PORTRAITS = [(_line_map(m), _orbifold(o), case)
             for m, o, case in portrait_maps()]


class TestOrbifolds:
    def test_parabolic_signatures(self):
        assert parabolic_check(TORSION_ORB)
        ok = standard_orbifolds("236", (POINT_INF, affine_point(0),
                                        affine_point(1)))
        assert parabolic_check(ok)
        bad = Orbifold1(((POINT_INF, 2), (affine_point(0), 3)))
        assert not parabolic_check(bad)

    def test_chebyshev_selfcover(self):
        assert is_orbifold_selfcover(TCHEB2, CHEB_ORB)
        assert is_orbifold_selfcover(TCHEB3, CHEB_ORB)
        assert not is_orbifold_selfcover(poly_map("x^2"), CHEB_ORB)

    def test_lattes_selfcover(self):
        assert is_orbifold_selfcover(LATTES2, TORSION_ORB)

    def test_portrait_lattes(self):
        pt = portrait(LATTES2, TORSION_ORB)
        assert pt.case == "O4-even-all-to-one"
        assert pt.images == (0, 0, 0, 0)
        # marked fiber of the fixed point contains all four marked points
        assert len(pt.fibers[0][0]) == 4
        # the other three fibers are single unmarked double points
        for j in (1, 2, 3):
            assert pt.fibers[j][0] == ()
            assert pt.fibers[j][1] == ((2, 2),)

    def test_portrait_needs_selfcover(self):
        with pytest.raises(PreconditionViolated):
            portrait(poly_map("x^2"), TORSION_ORB)

    def test_portrait_unlisted_signature(self):
        with pytest.raises(NoCaseMatch):
            portrait(TCHEB2, CHEB_ORB)

    @given(st.sampled_from(range(len(PORTRAITS))), st.data())
    @settings(max_examples=40, deadline=None)
    def test_portrait_forced_by_images(self, which, data):
        # the case does not depend on the order of the marked points, and
        # over a marked point of weight w each marked preimage of weight v
        # has multiplicity w/v and every other preimage multiplicity w
        r, o, case = PORTRAITS[which]
        perm = data.draw(st.permutations(range(len(o.marked))))
        moved = Orbifold1(tuple(o.marked[i] for i in perm))
        if case is None:
            with pytest.raises(NoCaseMatch, match="outside the tabulated"):
                portrait(r, moved)
            return
        pt, base = portrait(r, moved), portrait(r, o)
        assert pt.case == case
        new_index = {i: k for k, i in enumerate(perm)}
        assert pt.images == tuple(new_index[base.images[i]] for i in perm)
        weights = [w for _p, w in moved.marked]
        for j, (marked, unmarked) in enumerate(pt.fibers):
            pre = [i for i, image in enumerate(pt.images) if image == j]
            assert all(weights[j] % weights[i] == 0 for i in pre)
            assert marked == tuple((i, weights[j] // weights[i]) for i in pre)
            assert all(m == weights[j] for _deg, m in unmarked)
            assert sum(m for _i, m in marked) + \
                sum(deg * m for deg, m in unmarked) == r.degree


def _critical_values_by_elimination(r, rational, residual):
    """The critical values as `_critical_values` defines them, from the
    resultant res_x(f(1, x), num - y * den) of each residual factor f."""
    values = []

    def add(p):
        if all(not oracle_points_equal(p, q) for q in values):
            values.append(p)

    for p, _m in rational:
        add(r.apply(p))
    num, den = dehomogenise(r.formT), dehomogenise(r.formS)
    for f, _m in residual:
        aff = from_dense(f, "x")
        if resultant(aff, den, "x").is_zero():
            add(POINT_INF)  # a root of f is a pole
        elim = resultant(aff, num - MPoly.var("y") * den, "x")
        if elim.depends_on("y"):
            sq = squarefree_part(elim)
            roots = rational_roots(sq)
            if len(roots) != sq.total_degree():
                return None
            for y0 in roots:
                add(affine_point(y0))
    return values


def _random_form(data, d):
    ints = st.integers(-2, 2)
    s, t = MPoly.var("s"), MPoly.var("t")
    return MPoly._sum((s**(d - k) * t**k).scale(data.draw(ints))
                      for k in range(d + 1))


def _mobius(data, affine=False):
    a, b, c, d = (data.draw(st.integers(-2, 2)) for _ in range(4))
    c = 0 if affine else c
    assume(a * d - b * c != 0)
    s, t = MPoly.var("s"), MPoly.var("t")
    return RatMap1(t.scale(c) + s.scale(d), t.scale(a) + s.scale(b))


class TestCriticalValues:
    @given(st.sampled_from(["random", "pole", "chebyshev"]), st.data())
    @settings(max_examples=20, deadline=None)
    def test_matches_elimination(self, case, data):
        s, t = MPoly.var("s"), MPoly.var("t")
        if case == "random":
            d = data.draw(st.integers(2, 5))
            try:
                r = RatMap1(_random_form(data, d), _random_form(data, d))
            except ValueError:
                assume(False)
        elif case == "chebyshev":
            # N o T_d o M: critical values N(2), N(-2) and N(inf), all in Q
            cheb = RatMap1.from_polynomial(
                chebyshev(data.draw(st.integers(2, 5)), "monic"))
            r = compose1(_mobius(data), compose1(cheb, _mobius(data)))
        else:
            # A o P o M for P(x) = 1/(x^2 - k)^2 and A affine: the double
            # poles of P, outside Q, are critical points mapping to infinity
            k = data.draw(st.sampled_from([2, 3, -1]))
            bump = RatMap1((t**2 - (s**2).scale(k))**2, s**4)
            r = compose1(_mobius(data, affine=True),
                         compose1(bump, _mobius(data)))
        rational, residual = rat1._critical_points_rational(r)
        got = rat1._critical_values(r, rational, residual)
        assert got == _critical_values_by_elimination(r, rational, residual)
        if case != "random":
            assert got is not None
        if case == "pole":
            assert POINT_INF in got

    def test_values_outside_q(self):
        # the critical points of x^3 - 2x are irrational and so are their
        # values; over Q(zeta_3) the shifted Chebyshev map has values -2 - w
        # and 2 - w, which rational_roots cannot split
        for text, order in (("x^3 - 2*x", 1),
                            ("x^3 + 3*w*x^2 + 3*w^2*x - 3*x - 4*w + 1", 3)):
            r = RatMap1.from_polynomial(parse_poly(text, order))
            rational, residual = rat1._critical_points_rational(r)
            assert residual
            assert rat1._critical_values(r, rational, residual) is None
            assert _critical_values_by_elimination(r, rational,
                                                   residual) is None

    def test_lattes_values_are_the_two_torsion(self):
        # multiplication by 3 on y^2 = x^3 - x: critical values are the
        # 2-torsion abscissas 0, 1, -1 and infinity
        r = elliptic_lattes(EllipticCurveData(-1, 0), 3)
        rational, residual = rat1._critical_points_rational(r)
        got = rat1._critical_values(r, rational, residual)
        assert sorted(got, key=lambda p: (p[0].sort_key(), p[1].sort_key())) \
            == sorted([POINT_INF] + [affine_point(v) for v in (0, 1, -1)],
                      key=lambda p: (p[0].sort_key(), p[1].sort_key()))


class TestClassifyInfinity:
    def test_power_like(self):
        assert classify_infinity(SQUARE).tag == "PowerLike"
        assert classify_infinity(poly_map("x^5")).tag == "PowerLike"

    def test_chebyshev_like(self):
        assert classify_infinity(TCHEB2).tag == "ChebyshevLike"
        assert classify_infinity(TCHEB3).tag == "ChebyshevLike"
        monic6 = RatMap1.from_polynomial(chebyshev(6, "monic"))
        assert classify_infinity(monic6).tag == "ChebyshevLike"

    def test_lattes_like(self):
        tag = classify_infinity(LATTES2)
        assert tag.tag == "LattesLike"
        assert tag.signature == "2222"

    def test_unknown(self):
        assert classify_infinity(poly_map("x^2 + 1")).tag == "Unknown"
        assert classify_infinity(poly_map("x^3 + x")).tag == "Unknown"

    def test_lattes_branch_error_propagates(self, monkeypatch):
        # a ValueError from a bug in the cover check must not read as Unknown
        def broken(*_args):
            raise ValueError("injected")

        monkeypatch.setattr(rat1, "is_orbifold_selfcover", broken)
        with pytest.raises(ValueError, match="injected"):
            classify_infinity(LATTES2)

    @given(st.integers(min_value=2, max_value=6))
    @settings(max_examples=5, deadline=None)
    def test_chebyshev_family_classified(self, d):
        r = RatMap1.from_polynomial(chebyshev(d, "monic"))
        assert classify_infinity(r).tag == "ChebyshevLike"
