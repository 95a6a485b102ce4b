"""Constructors for the standard commuting families."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commend.endo2 import PlaneEndo, commutes, compose
from commend.errors import (NotCommuting, NotSplit, NotSymmetric,
                            PreconditionViolated, ScalarNotSolvable)
from commend.families import (EllipticCurveData, chebyshev,
                              chebyshev_conjugacies, depression_shift,
                              elliptic_lattes, ex1, ex2, ex3_lift, ex4_descend,
                              sym_reduce, symmetrization, two_torsion_orbifold)
from commend.field import Coefficient, kth_roots, roots_of_unity
from commend.mpoly import MPoly, gcd_poly
from commend.parse import parse_poly
from commend.rat1 import RatMap1, classify_infinity, commutes1, compose1
from test_algebra import field_elements

X, Y = MPoly.var("x"), MPoly.var("y")


class TestChebyshev:
    def test_classical_values(self):
        assert chebyshev(2, "classical") == parse_poly("2*x^2 - 1")
        assert chebyshev(3, "classical") == parse_poly("4*x^3 - 3*x")
        # classical normalization fixes 1
        for d in range(1, 7):
            assert chebyshev(d, "classical").evaluate({"x": 1}).is_one()

    def test_monic_values(self):
        assert chebyshev(2, "monic") == parse_poly("x^2 - 2")
        assert chebyshev(3, "monic") == parse_poly("x^3 - 3*x")
        assert chebyshev(4, "monic") == parse_poly("x^4 - 4*x^2 + 2")

    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=15, deadline=None)
    def test_semigroup_property(self, m, n):
        tm = RatMap1.from_polynomial(chebyshev(m, "monic"))
        tn = RatMap1.from_polynomial(chebyshev(n, "monic"))
        tmn = RatMap1.from_polynomial(chebyshev(m * n, "monic"))
        assert compose1(tm, tn) == tmn


class TestEx1:
    def test_power_chebyshev_split(self):
        f1, f2 = ex1(2, 3, 1)
        assert f1.comp1 == parse_poly("z1^2")
        assert commutes(f1, f2)

    def test_scalar_constraint(self):
        # lam^(d2-1) = lam^(d1-1) forces lam = 1 when d1=2, d2=3... not
        # always: lam = -1 works for (3, 5)
        f1, f2 = ex1(3, 5, -1)
        assert commutes(f1, f2)

    def test_rejects_bad_scalar(self):
        with pytest.raises(NotCommuting):
            ex1(2, 3, 2)

    def test_rejects_zero(self):
        with pytest.raises(PreconditionViolated):
            ex1(2, 3, 0)


def oracle_chebyshev_conjugacies(p, order):
    """`chebyshev_conjugacies` before it ran on coefficient lists: each
    p(beta*y + theta) by substitution, compared as polynomials."""
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


class TestChebyshevConjugacies:
    @given(st.sampled_from([1, 3, 4]), st.integers(2, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_lists_match_substitution(self, order, d, data):
        # p = beta*sign*T_d((y - theta)/beta) + theta, conjugate to +-T_d,
        # or the same with one coefficient moved, which mostly is not; the
        # scales found are rationals times roots of unity (`kth_roots`)
        nonzero = field_elements(order).filter(lambda c: not c.is_zero())
        found = data.draw(st.booleans())
        rational = field_elements(1).filter(lambda c: not c.is_zero())
        beta = data.draw(rational if found else nonzero) * data.draw(
            st.sampled_from(roots_of_unity(order)))
        theta = data.draw(field_elements(order))
        sign = data.draw(st.sampled_from([1, -1]))
        inner = (Y - MPoly.constant(theta)).scale(beta.inverse())
        p = chebyshev(d, "classical").substitute({"x": inner}).scale(
            beta * Coefficient.rational(sign)) + MPoly.constant(theta)
        moved = data.draw(st.booleans())
        if moved:
            k = data.draw(st.integers(0, d - 1))
            p = p + MPoly.var("y", k).scale(data.draw(nonzero))
        got = chebyshev_conjugacies(p, order)
        assert got == oracle_chebyshev_conjugacies(p, order)
        if found and not moved:
            assert (beta, theta, sign) in got

    def test_not_in_y_alone(self):
        assert chebyshev_conjugacies(parse_poly("2*y^2 - 1 + x"), 1) == []
        assert chebyshev_conjugacies(parse_poly("y + 1"), 1) == []


class TestEx2:
    def test_variants_commute(self):
        straight = ex2(2, "straight")
        swap = ex2(3, "swap")
        assert commutes(straight, swap)

    def test_signs(self):
        f = ex2(2, "straight", (-1, 1))
        assert f.comp1 == parse_poly("-2*z1^2 + 1")


class TestEx3:
    def test_power_lift(self):
        r1 = RatMap1(parse_poly("s^2"), parse_poly("t^2"))
        r2 = RatMap1(parse_poly("s^3"), parse_poly("t^3"))
        f1, f2 = ex3_lift(r1, r2)
        assert commutes(f1, f2)
        assert f1.degree == 2 and f2.degree == 3

    def test_explicit_scalars(self):
        r1 = RatMap1(parse_poly("s^2"), parse_poly("t^2"))
        r2 = RatMap1(parse_poly("s^3"), parse_poly("t^3"))
        f1, f2 = ex3_lift(r1, r2, 1, 1)
        assert f1.comp1 == parse_poly("z1^2")
        with pytest.raises(ScalarNotSolvable):
            ex3_lift(r1, r2, 2, 1)

    def test_rejects_noncommuting(self):
        r1 = RatMap1(parse_poly("s^2"), parse_poly("t^2"))
        r3 = RatMap1(parse_poly("s^2"), parse_poly("t^2 - 2*s^2"))
        if not commutes1(r1, r3):
            with pytest.raises(NotCommuting):
                ex3_lift(r1, r3)


def oracle_ratio(r1, r2):
    """c with r1 o r2 = c (r2 o r1) on the forms, by four substitutions of
    the s, t views, as `ex3_lift` once computed it; None when the composites
    are not proportional."""
    bind21 = {"s": r2.formS, "t": r2.formT}
    bind12 = {"s": r1.formS, "t": r1.formT}
    a_s, a_t = r1.formS.substitute(bind21), r1.formT.substitute(bind21)
    b_s, b_t = r2.formS.substitute(bind12), r2.formT.substitute(bind12)
    base = b_s if not b_s.is_zero() else b_t
    top = a_s if not b_s.is_zero() else a_t
    c = top.leading_coefficient() / base.leading_coefficient()
    if a_s != b_s.scale(c) or a_t != b_t.scale(c):
        return None
    return c


def oracle_ex3_lift(r1, r2, lam1=None, lam2=None):
    """`ex3_lift` on the s, t views: `commutes1`, then `oracle_ratio`."""
    if not commutes1(r1, r2):
        raise NotCommuting("line maps do not commute")
    d1, d2 = r1.degree, r2.degree
    c = oracle_ratio(r1, r2)
    if c is None:
        raise NotCommuting("compositions are not proportional")
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
            roots = kth_roots(c, d2 - 1, max(c.order, 1))
            if not roots:
                raise ScalarNotSolvable("constraint has no root in the session field")
            lam1 = sorted(roots, key=Coefficient.sort_key)[0]
    bind = {"s": MPoly.var("z1"), "t": MPoly.var("z2")}
    f1, f2 = (PlaneEndo(r.formS.substitute(bind).scale(lam),
                        r.formT.substitute(bind).scale(lam))
              for r, lam in ((r1, lam1), (r2, lam2)))
    if not commutes(f1, f2):
        raise NotCommuting("lifted maps do not commute")
    return f1, f2


def _outcome(lift, *args):
    try:
        return lift(*args)
    except (NotCommuting, ScalarNotSolvable) as e:
        return type(e), str(e)


@st.composite
def commuting_line_maps(draw, order):
    """Power or monic Chebyshev line maps of degrees 1..3, both conjugated
    by one drawn Moebius map M (as M^-1 o r o M, through its adjugate), each
    with its forms scaled by a drawn constant."""
    kind = draw(st.sampled_from(["power", "chebyshev"]))
    degrees = draw(st.sampled_from([(2, 3), (3, 2), (2, 2), (1, 2), (2, 1)]))
    elements = field_elements(order)
    m11, m12, m21, m22 = (draw(elements) for _ in range(4))
    assume(m11 * m22 != m12 * m21)
    s, t = MPoly.var("s"), MPoly.var("t")
    move = {"s": s.scale(m11) + t.scale(m12), "t": s.scale(m21) + t.scale(m22)}
    out = []
    for d in degrees:
        if kind == "power":
            base = RatMap1(s**d, t**d)
        else:
            base = RatMap1.from_polynomial(chebyshev(d, "monic"))
        S, T = (form.substitute(move) for form in (base.formS, base.formT))
        k = draw(st.one_of(st.just(1), elements.filter(bool)))
        out.append(RatMap1((S.scale(m22) - T.scale(m12)).scale(k),
                           (T.scale(m11) - S.scale(m21)).scale(k)))
    return tuple(out)


class TestEx3AgainstSubstitutions:
    """`ex3_lift` composes once per order and reads c off the lists; the
    oracle composes the s, t views four times after `commutes1`."""

    @given(st.sampled_from([1, 3]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_oracle(self, order, data):
        r1, r2 = data.draw(commuting_line_maps(order))
        c = oracle_ratio(r1, r2)
        assert c is not None  # commuting composites are proportional
        d1, d2 = r1.degree, r2.degree
        choice = data.draw(st.sampled_from(["none", "solved", "drawn"]))
        v = data.draw(field_elements(order).filter(bool))
        if choice == "none":
            args = ()
        elif choice == "drawn":
            args = (v, data.draw(field_elements(order).filter(bool)))
        else:
            # lam1 = c^x v^(d1-1) and lam2 = c^y v^(d2-1) meet
            # lam1^(d2-1) = lam2^(d1-1) c when x (d2-1) = y (d1-1) + 1
            x, y = next((x, y) for x in range(-3, 4) for y in range(-3, 4)
                        if x * (d2 - 1) == y * (d1 - 1) + 1)
            args = (c**x * v**(d1 - 1), c**y * v**(d2 - 1))
        got = _outcome(ex3_lift, r1, r2, *args)
        assert got == _outcome(oracle_ex3_lift, r1, r2, *args)
        if choice == "solved":
            assert isinstance(got[0], PlaneEndo)

    @given(st.sampled_from([1, 3]), st.data())
    @settings(max_examples=20, deadline=None)
    def test_rejects_what_the_oracle_rejects(self, order, data):
        r1, r2 = data.draw(commuting_line_maps(order))
        # x -> r2(x) + 1 commutes with r1 only by accident
        moved = RatMap1(r2.formS, r2.formT + r2.formS)
        want = _outcome(oracle_ex3_lift, r1, moved)
        assert _outcome(ex3_lift, r1, moved) == want
        if not commutes1(r1, moved):
            assert want == (NotCommuting, "line maps do not commute")


class TestEx4:
    def test_symmetrization(self):
        pi = symmetrization()
        assert pi.comp1 == parse_poly("z1 + z2")
        assert pi.comp2 == parse_poly("z1*z2")

    def test_sym_reduce(self):
        assert sym_reduce(X**2 + Y**2) == parse_poly("e1^2 - 2*e2")
        assert sym_reduce(X * Y) == parse_poly("e2")
        assert sym_reduce((X + Y) ** 3) == parse_poly("e1^3")

    def test_sym_reduce_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            sym_reduce(X**2 + Y)

    def test_descend_squares(self):
        f = ex4_descend(X**2)
        assert f == PlaneEndo(parse_poly("z1^2 - 2*z2"), parse_poly("z2^2"))

    def test_descend_cubes(self):
        f = ex4_descend(X**3)
        assert f == PlaneEndo(parse_poly("z1^3 - 3*z1*z2"),
                              parse_poly("z2^3"))

    def test_descent_pair_commutes(self):
        f2 = ex4_descend(X**2)
        f3 = ex4_descend(X**3)
        assert commutes(f2, f3)
        assert compose(f2, f3) == ex4_descend(X**6)

    def test_descent_guard_survives_optimize(self):
        # the exact check in ex4_descend must raise under python -O too
        code = textwrap.dedent("""
            from commend import families
            from commend.mpoly import MPoly
            real = families.sym_reduce
            families.sym_reduce = lambda s: real(s) + MPoly.one()
            try:
                families.ex4_descend(MPoly.var("x") ** 2)
            except AssertionError:
                raise SystemExit(0)
            raise SystemExit(1)
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env)
        assert proc.returncode == 0

    def test_descend_chebyshev(self):
        h = chebyshev(2, "monic")
        f = ex4_descend(h)
        assert f == PlaneEndo(parse_poly("z1^2 - 2*z2 - 4"),
                              parse_poly("-2*z1^2 + z2^2 + 4*z2 + 4"))
        # f plays through the quotient: f(x+y, xy) = (h(x)+h(y), h(x)h(y))
        pi = symmetrization()
        hx = h
        hy = h.substitute({"x": Y})
        lifted = compose(f, pi)
        assert lifted.comp1.substitute({"z1": X, "z2": Y}) == hx + hy
        assert lifted.comp2.substitute({"z1": X, "z2": Y}) == hx * hy
        assert commutes(f, ex4_descend(chebyshev(3, "monic")))

    @given(st.integers(min_value=2, max_value=4),
           st.integers(min_value=2, max_value=4))
    @settings(max_examples=9, deadline=None)
    def test_descent_functorial(self, a, b):
        assert compose(ex4_descend(X**a), ex4_descend(X**b)) == \
            ex4_descend(X ** (a * b))


def _division_polys(curve: EllipticCurveData, upto: int):
    """psi_0..psi_upto in x and y, reduced modulo y^2 = x^3 + a*x + b
    (y-degree <= 1): the bivariate builder, kept as the oracle."""
    B = curve.cubic()
    y = Y

    def reduce(p: MPoly) -> MPoly:
        while p.depends_on("y") and p.degree_in("y") >= 2:
            buckets = p.univariate_in("y")
            out = MPoly.zero()
            for k, coeff in enumerate(buckets):
                q, r = divmod(k, 2)
                out = out + coeff * (B**q) * (y**r)
            p = out
        return p

    a, b = curve.a, curve.b
    psi = {
        0: MPoly.zero(),
        1: MPoly.one(),
        2: y.scale(2),
        3: (X**4).scale(3) + (X**2).scale(a * 6) + X.scale(b * 12)
           - MPoly.constant(a**2),
    }
    psi[4] = y.scale(4) * (
        X**6 + (X**4).scale(a * 5) + (X**3).scale(b * 20)
        - (X**2).scale(a**2 * 5) - X.scale(a * b * 4)
        - MPoly.constant(b**2 * 8 + a**3))
    psi[-1] = -psi[1]
    psi[-2] = -psi[2]

    def get(n: int) -> MPoly:
        if n in psi:
            return psi[n]
        if n % 2 == 1:
            m = (n - 1) // 2
            val = reduce(get(m + 2) * get(m)**3 - get(m - 1) * get(m + 1)**3)
        else:
            m = n // 2
            num = reduce(get(m) * (get(m + 2) * get(m - 1)**2
                                   - get(m - 2) * get(m + 1)**2))
            # true value is 2*y*psi_n with psi_n = y*g; reduction turns the
            # product into 2*B*g, so divide out 2*B and restore the y factor
            val = y * num.exact_divide(B.scale(2))
        psi[n] = val
        return val

    for k in range(upto + 1):
        get(k)
    return psi, reduce


def oracle_lattes(curve: EllipticCurveData, n: int) -> RatMap1:
    """x([n]P) from the bivariate division polynomials, with the common
    factor of numerator and denominator divided out by a gcd."""
    if n == 1:
        return RatMap1.identity()
    psi, reduce = _division_polys(curve, n + 1)
    num = reduce(X * psi[n]**2 - psi[n - 1] * psi[n + 1])
    den = reduce(psi[n]**2)
    assert not num.depends_on("y") and not den.depends_on("y")
    g = gcd_poly(num, den)
    if not g.is_constant():
        num = num.exact_divide(g)
        den = den.exact_divide(g)
    return RatMap1.from_lists(n * n, den.dense_in("x"), num.dense_in("x"))


W3 = Coefficient.root_of_unity(3)


class TestLattes:
    CURVE = EllipticCurveData(-1, 0)

    # y^2 = x^3 - x, (x + 3)(x - 1)(x - 2), (x + 4)(x - 1)(x - 3), an
    # irreducible cubic, a curve with j = 0, and two non-integral curves
    ORACLE_CURVES = [(-1, 0), (-7, 6), (-13, 12), (1, 1), (0, 1),
                     (Fraction(1, 2), Fraction(-3, 4)),
                     (Fraction(-19, 36), Fraction(5, 36))]

    @pytest.mark.parametrize("a, b", ORACLE_CURVES)
    def test_forms_equal_the_bivariate_oracle(self, a, b):
        curve = EllipticCurveData(a, b)
        for n in range(1, 9):
            got, want = elliptic_lattes(curve, n), oracle_lattes(curve, n)
            assert (got.formS, got.formT) == (want.formS, want.formT), n

    @pytest.mark.parametrize("b", [1, Fraction(-2, 3), W3 + 2])
    def test_forms_equal_the_oracle_over_q_zeta_3(self, b):
        curve = EllipticCurveData(W3, b)
        for n in range(1, 6):
            got, want = elliptic_lattes(curve, n), oracle_lattes(curve, n)
            assert (got.formS, got.formT) == (want.formS, want.formT), n

    def test_duplication_formula(self):
        r = elliptic_lattes(self.CURVE, 2)
        # x(2P) = (x^2 + 1)^2 / (4 (x^3 - x)) for y^2 = x^3 - x
        expected = RatMap1(parse_poly("-4*s^3*t + 4*s*t^3"),
                           parse_poly("s^4 + 2*s^2*t^2 + t^4"))
        assert r == expected

    def test_degree_squares(self):
        for n in (2, 3):
            assert elliptic_lattes(self.CURVE, n).degree == n * n

    def test_multiplication_semigroup(self):
        r2 = elliptic_lattes(self.CURVE, 2)
        r3 = elliptic_lattes(self.CURVE, 3)
        assert compose1(r2, r3) == elliptic_lattes(self.CURVE, 6)
        assert commutes1(r2, r3)

    def test_classified_as_lattes(self):
        tag = classify_infinity(elliptic_lattes(self.CURVE, 2))
        assert tag.tag == "LattesLike" and tag.signature == "2222"

    def test_two_torsion_orbifold(self):
        o = two_torsion_orbifold(self.CURVE)
        assert len(o.marked) == 4
        assert all(w == 2 for _p, w in o.marked)

    def test_torsion_needs_split_cubic(self):
        with pytest.raises(NotSplit):
            two_torsion_orbifold(EllipticCurveData(1, 1))

    def test_rejects_singular(self):
        with pytest.raises(PreconditionViolated):
            EllipticCurveData(0, 0)
        with pytest.raises(PreconditionViolated):
            EllipticCurveData(-3, 2)  # (x - 1)^2 (x + 2)

    def test_rejects_n_below_one(self):
        for n in (0, -1):
            with pytest.raises(PreconditionViolated):
                elliptic_lattes(self.CURVE, n)
