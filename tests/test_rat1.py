"""Projective line maps, orbifold self-covers, portraits, classification."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commend import rat1
from commend.errors import NoCaseMatch, PreconditionViolated
from commend.families import chebyshev, elliptic_lattes, EllipticCurveData
from commend.field import Coefficient
from commend.mpoly import (MPoly, gcd_poly, rational_roots,
                           squarefree_decompose)
from commend.parse import parse_poly
from commend.rat1 import (POINT_INF, Orbifold1, RatMap1, affine_point,
                          classify_infinity, commutes1, compose1,
                          is_orbifold_selfcover, parabolic_check,
                          points_equal, portrait, pullback_divisor,
                          standard_orbifolds)


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
        four = SQUARE.apply(affine_point(2))
        assert points_equal(four, affine_point(4))
        assert points_equal(SQUARE.apply(POINT_INF), POINT_INF)

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

    def test_pullback_divisor(self):
        fiber = pullback_divisor(SQUARE, affine_point(4))
        pts = {(str(p[0]), str(p[1])): m for p, m in fiber.marked_points}
        assert fiber.total_multiplicity() == 2
        assert fiber.distinct_count() == 2
        fiber0 = pullback_divisor(SQUARE, affine_point(0))
        assert fiber0.total_multiplicity() == 2
        assert fiber0.distinct_count() == 1


S, T = MPoly.var("s"), MPoly.var("t")
# homogenised irreducible quadratics and cubics over Q
IRREDUCIBLE = (T**2 + S**2, T**2 - S**2 * 2, T**2 + S * T + S**2 * 3,
               T**3 - S**3 * 2, T**3 + S**2 * T + S**3)


def expected_fiber(form):
    """(points, [(residual degree, mult)]) from the bivariate squarefree
    decomposition of the whole form and the rational roots of form(1, x)."""
    aff = form.substitute({"s": MPoly.one(), "t": MPoly.var("x")})
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
        assert sorted((f.total_degree(), m) for f, m in fiber.residual) == residual

    def test_rational_zero_beside_a_cyclotomic_factor(self):
        # (x - 1)^2 (x - w) over Q(zeta_3): form(1, x) has a coefficient
        # outside Q, but its squarefree factor x - 1 does not
        w = Coefficient(3, [0, 1])
        form = (T - S)**2 * (T - S.scale(w))
        fiber = pullback_divisor(RatMap1(form, S**3), POINT_INF)
        assert fiber.marked_points == ((affine_point(1), 2),)
        assert [(f.total_degree(), m) for f, m in fiber.residual] == [(1, 1)]

    def test_portrait_splits_each_fiber_once(self, monkeypatch):
        calls = []

        def counting(r, point):
            calls.append(point)
            return pullback_divisor(r, point)

        monkeypatch.setattr(rat1, "pullback_divisor", counting)
        assert portrait(LATTES2, TORSION_ORB).case == "O4-even-all-to-one"
        assert len(calls) == len(TORSION_ORB.marked)


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

    @given(st.integers(min_value=2, max_value=6))
    @settings(max_examples=5, deadline=None)
    def test_chebyshev_family_classified(self, d):
        r = RatMap1.from_polynomial(chebyshev(d, "monic"))
        assert classify_infinity(r).tag == "ChebyshevLike"
