"""Field elements, sparse polynomials, parsing and rendering."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commend.errors import (NotASquare, NotDivisible, ParseError,
                            UnknownVariable)
from commend.field import (Coefficient, _solve_linear, euler_phi, kth_roots,
                           roots_of_unity)
from commend.mpoly import (MPoly, binary_form_resultant, dense_divmod,
                           dense_inverse_mod, dense_mul, forms_share_zero,
                           gcd_poly, poly_sqrt, rational_roots, resultant,
                           squarefree_decompose, squarefree_part)
from commend.parse import parse_map_pair, parse_poly
from commend.render import render_poly

X = MPoly.var("x")
Y = MPoly.var("y")

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)
small = st.fractions(min_value=-5, max_value=5, max_denominator=3)
W = Coefficient.root_of_unity(3)


@st.composite
def field_elements(draw, order):
    """An element of Q (order 1) or Q(zeta_3) (order 3)."""
    c = Coefficient.rational(draw(small))
    return c + W * draw(small) if order == 3 else c


@st.composite
def univariate(draw, order, name="x", min_degree=0, max_degree=3):
    """A polynomial in `name` of exact degree in the given range."""
    d = draw(st.integers(min_degree, max_degree))
    lead = draw(field_elements(order).filter(lambda c: not c.is_zero()))
    coeffs = [draw(field_elements(order)) for _ in range(d)] + [lead]
    return MPoly._sum(MPoly.var(name, k).scale(c) for k, c in enumerate(coeffs))


@st.composite
def binary_form(draw, order, degree):
    """A binary form in s, t of the given degree (possibly the zero form)."""
    return MPoly._sum(
        (MPoly.var("s", degree - k) * MPoly.var("t", k)).scale(
            draw(field_elements(order))) for k in range(degree + 1))


class TestCoefficient:
    def test_rational_arithmetic(self):
        a = Coefficient.rational(Fraction(3, 4))
        b = Coefficient.rational(Fraction(-1, 2))
        assert (a + b).rational_value == Fraction(1, 4)
        assert (a * b).rational_value == Fraction(-3, 8)
        assert (a / b).rational_value == Fraction(-3, 2)
        assert (a - a).is_zero()

    def test_root_of_unity_contracts(self):
        i = Coefficient.root_of_unity(4)
        assert (i * i).rational_value == -1
        assert (i**4).is_one()
        # zeta_6^2 lives in Q(zeta_3): order contracts automatically
        z6 = Coefficient.root_of_unity(6)
        assert (z6**6).is_one()
        assert not z6.is_rational()

    def test_inverse_round_trip(self):
        z5 = Coefficient.root_of_unity(5)
        v = z5 + Coefficient.rational(2)
        assert (v * v.inverse()).is_one()

    def test_roots_of_unity_dedup(self):
        rs = roots_of_unity(4)
        assert len(rs) == len(set(rs)) == 4
        assert Coefficient.one() in rs and Coefficient.rational(-1) in rs

    def test_kth_roots_rational(self):
        roots = kth_roots(Coefficient.rational(8), 3)
        assert [r.rational_value for r in roots] == [2]
        roots = kth_roots(Coefficient.rational(4), 2)
        assert sorted(r.rational_value for r in roots) == [-2, 2]
        assert kth_roots(Coefficient.rational(2), 2) == []

    def test_kth_roots_with_unity(self):
        # x^2 = -4 solvable once i is available
        roots = kth_roots(Coefficient.rational(-4), 2, order=4)
        assert len(roots) == 2
        for r in roots:
            assert r * r == Coefficient.rational(-4)

    @given(rationals, rationals)
    @settings(max_examples=40, deadline=None)
    def test_field_axioms_sample(self, p, q):
        a = Coefficient.rational(p) + Coefficient.root_of_unity(3)
        b = Coefficient.rational(q) - Coefficient.root_of_unity(3)
        assert a * b == b * a
        assert a + b == b + a
        if not b.is_zero():
            assert (a / b) * b == a

    @given(rationals, rationals, st.sampled_from([3, 4, 12]),
           st.integers(0, 11), st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_rational_fast_path_matches_general_path(self, p, q, n, k, e):
        pad = [0] * (euler_phi(n) - 1)
        a, b = Coefficient.rational(p), Coefficient.rational(q)
        # built by __init__, which contracts Q(zeta_n) down to order 1
        ga, gb = Coefficient(n, [p] + pad), Coefficient(n, [q] + pad)
        assert (ga, gb) == (a, b) and (hash(ga), hash(gb)) == (hash(a), hash(b))
        assert a == p and a != p + 1
        for x, y in ((a, b), (ga, gb), (a, q), (p, b)):
            assert (x + y) == p + q and (x - y) == p - q and (x * y) == p * q
            if q:
                assert (x / y) == p / q
        assert -a == -p and (a**abs(e)).rational_value == p ** abs(e)
        if q:
            assert b.inverse() == 1 / q and (b**e).rational_value == q**e
        # mixed order: the general path, against a product built by __init__
        z = Coefficient.root_of_unity(n, k)
        expected = Coefficient(n, [p * c for c in z.lift(n)[1]])
        assert a * z == expected and z * a == expected

    def test_shared_zero_and_one_are_immutable(self):
        for c in (Coefficient.zero(), Coefficient.one()):
            with pytest.raises(AttributeError):
                c.res = (Fraction(5),)
            with pytest.raises(AttributeError):
                c.order = 3
        assert Coefficient.zero() == 0 and Coefficient.one() == 1

    def test_kth_roots_of_large_rationals_are_exact(self):
        # float k-th roots miss this perfect cube and overflow past 1e308
        r = 3**40 + 2
        assert kth_roots(Coefficient.rational(r**3), 3) == [Coefficient.rational(r)]
        roots = kth_roots(Coefficient.rational(10**400), 2)
        assert sorted(x.rational_value for x in roots) == [-10**200, 10**200]

    def test_solve_linear_over_cyclotomic_field(self):
        # a zero Coefficient is truthy, so pivots are tested against 0
        w = Coefficient.root_of_unity(3)
        zero, one = Coefficient.zero(), Coefficient.one()
        x = [one + w, Coefficient.rational(Fraction(1, 2))]
        matrix = [(zero, one), (w, Coefficient.rational(2))]
        rhs = [sum((a * b for a, b in zip(row, x)), zero) for row in matrix]
        assert _solve_linear(matrix, rhs) == x
        # a second row proportional to the first: rank 1
        assert _solve_linear([(one, w), (w, w * w)], [zero, zero]) is None
        assert _solve_linear([(zero, one), (zero, w)], [one, w]) is None


class TestMPoly:
    def test_graded_ring_ops(self):
        p = (X + Y) ** 2
        assert p == X**2 + (X * Y).scale(2) + Y**2
        assert p.total_degree() == 2
        assert p.leading_coefficient().is_one()

    def test_exact_divide_and_failure(self):
        p = (X**2 - Y**2)
        assert p.exact_divide(X - Y) == X + Y
        with pytest.raises(NotDivisible):
            p.exact_divide(X + MPoly.one())

    def test_gcd(self):
        a = (X - Y) * (X + Y) ** 2
        b = (X + Y) * (X**2 + MPoly.one())
        g = gcd_poly(a, b).monic()
        assert g == X + Y

    def test_squarefree_decompose(self):
        p = (X**2).scale(1) * (X - MPoly.one()) ** 3
        _unit, factors = squarefree_decompose(p)
        mults = sorted(m for _f, m in factors)
        assert mults == [2, 3]
        assert squarefree_part(p).total_degree() == 2

    def test_resultant_univariate(self):
        # res_x(x^2 - 2, x^2 - 3) = 1
        a = X**2 - MPoly.constant(2)
        b = X**2 - MPoly.constant(3)
        assert resultant(a, b, "x").constant_value().rational_value == 1
        # shared root gives zero
        c = (X - MPoly.one()) * (X + MPoly.one())
        d = X - MPoly.one()
        assert resultant(c, d, "x").is_zero()

    def test_resultant_eliminates(self):
        # project the curve y = x^2 against y = 2x: meet at x in {0, 2}
        r = resultant(Y - X**2, Y - X.scale(2), "y")
        assert sorted(rational_roots(r)) == [0, 2]

    def test_binary_form_resultant(self):
        s, t = MPoly.var("s"), MPoly.var("t")
        f = s * t
        g = s**2 - t**2
        r = binary_form_resultant(f, g, "s", "t", 2, 2)
        assert not r.is_zero()

    @given(st.sampled_from([1, 3]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_univariate_gcd_recovers_common_factor(self, order, data):
        g = data.draw(univariate(order, min_degree=1))
        a = data.draw(univariate(order))
        b = data.draw(univariate(order))
        assume(not resultant(a, b, "x").is_zero())  # a, b coprime
        assert gcd_poly(a * g, b * g) == g.monic()

    @given(st.sampled_from([1, 3]), st.data())
    @settings(max_examples=15, deadline=None)
    def test_bivariate_gcd_through_univariate_contents(self, order, data):
        # the contents in x are polynomials in y alone: the dense base case
        g = data.draw(univariate(order, "y", min_degree=1, max_degree=2))
        a = data.draw(univariate(order, "y", max_degree=2))
        b = data.draw(univariate(order, "y", max_degree=2))
        assume(not resultant(a, b, "y").is_zero())
        h = X * Y + MPoly.one()
        got = gcd_poly((X + Y) * a * g * h, (X - Y) * b * g * h)
        assert got == (g * h).monic()

    @given(st.sampled_from([1, 3]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_dense_inverse_mod(self, order, data):
        f = data.draw(univariate(order, min_degree=1, max_degree=4))
        a = data.draw(univariate(order, max_degree=4))
        fd, ad = f.dense_in("x"), a.dense_in("x")
        if resultant(a, f, "x").is_zero():
            with pytest.raises(NotDivisible):
                dense_inverse_mod(ad, fd)
        else:
            inv = dense_inverse_mod(ad, fd)
            assert len(inv) < len(fd)
            assert dense_divmod(dense_mul(inv, ad), fd)[1] == [Coefficient.one()]

    @given(st.sampled_from([1, 3]),
           st.sampled_from(["random", "infinity", "rational", "quadratic",
                            "zero"]),
           st.integers(1, 5), st.integers(1, 5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_forms_share_zero_matches_resultant(self, order, case, m, n, data):
        s, t = MPoly.var("s"), MPoly.var("t")
        common = {"random": MPoly.one(), "zero": MPoly.one(), "infinity": s,
                  "rational": t - s.scale(data.draw(small)),
                  "quadratic": t**2 + s * t + s**2}[case]
        k = common.total_degree()
        m, n = max(m, k), max(n, k)
        f = common * data.draw(binary_form(order, m - k))
        g = common * data.draw(binary_form(order, n - k))
        if case == "zero":
            f = MPoly.zero()
        assume(not (f.is_zero() and g.is_zero()))
        want = binary_form_resultant(f, g, "s", "t", m, n).is_zero()
        assert forms_share_zero(f, g, "s", "t", m, n) == want
        if case != "random" and not f.is_zero() and not g.is_zero():
            assert want

    def test_rational_roots(self):
        p = (X.scale(2) - MPoly.one()) * (X + MPoly.constant(3))
        assert sorted(rational_roots(p)) == [-3, Fraction(1, 2)]
        assert rational_roots(X**2 + MPoly.one()) == []
        with pytest.raises(ValueError):
            rational_roots(X * Y - MPoly.one())

    def test_negative_power_raises_under_optimisation(self):
        # argument checks must not be asserts, which python -O strips
        code = ("from commend.mpoly import MPoly\n"
                "try:\n    MPoly.var('x') ** -1\n"
                "except ValueError:\n    print('raised')\n")
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, timeout=30,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout == "raised\n"

    def test_poly_sqrt(self):
        p = (X + Y.scale(2)) ** 2
        assert poly_sqrt(p) in ((X + Y.scale(2)), -(X + Y.scale(2)))
        with pytest.raises(NotASquare):
            poly_sqrt(X**2 + Y**2)

    @given(st.lists(rationals, min_size=1, max_size=4),
           st.lists(rationals, min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_mul_degree_additive(self, cs, ds):
        p = sum((X**k).scale(c) for k, c in enumerate(cs))
        q = sum((X**k).scale(c) for k, c in enumerate(ds))
        if p.is_zero() or q.is_zero():
            return
        assert (p * q).total_degree() == p.total_degree() + q.total_degree()

    @given(st.lists(rationals, min_size=2, max_size=4),
           st.lists(rationals, min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_exact_divide_inverts_mul(self, cs, ds):
        p = sum((X**k).scale(c) for k, c in enumerate(cs))
        q = sum((X**k).scale(c) for k, c in enumerate(ds))
        if p.is_zero() or q.is_zero():
            return
        assert (p * q).exact_divide(q) == p


class TestParseRender:
    def test_round_trip(self):
        for text in ("z1^2 - 2*z2", "x^3 - 3*x", "1/2*s^2 + t^2",
                     "-z1*z2 + 4"):
            p = parse_poly(text)
            assert parse_poly(render_poly(p)) == p

    def test_map_pair(self):
        p, q = parse_map_pair("(z1^2 - 2*z2, z2^2)")
        assert p == MPoly.var("z1") ** 2 - MPoly.var("z2").scale(2)
        assert q == MPoly.var("z2") ** 2

    def test_cyclotomic_literal(self):
        p = parse_poly("w*x", cyclotomic_order=4)
        assert p.leading_coefficient() == Coefficient.root_of_unity(4)
        with pytest.raises(Exception):
            parse_poly("w*x")  # no session order

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_poly("x +* y")
        with pytest.raises(UnknownVariable):
            parse_poly("q^2")

    @given(st.lists(rationals, min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_render_parse_identity(self, cs):
        p = sum((X**k * Y ** (k % 2)).scale(c) for k, c in enumerate(cs))
        assert parse_poly(render_poly(p)) == p

    @given(st.sampled_from([3, 4, 6, 12]),
           st.lists(st.tuples(rationals, rationals, st.integers(0, 11)),
                    min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_render_parse_identity_cyclotomic(self, n, terms):
        p = sum((X**k * Y ** (k % 2)).scale(
                    c0 + Coefficient.rational(c1) * Coefficient.root_of_unity(n, j))
                for k, (c0, c1, j) in enumerate(terms))
        assert parse_poly(render_poly(p, n), n) == p
