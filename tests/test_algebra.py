"""Field elements, sparse polynomials, parsing and rendering."""

import os
import subprocess
import sys
import time
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commend.cli import main
from commend.errors import (BothZero, NotASquare, NotDivisible, ParseError,
                            UnknownVariable)
from commend.field import (Coefficient, _dense_sub, _left_inverse,
                           _pseudo_divmod, _solve_linear, _trim,
                           cyclotomic_coeffs, dense_divmod, dense_inverse_mod,
                           dense_mul, dense_shift, divisors, euler_phi, first_relation,
                           kth_roots, roots_of_unity)
from commend.mpoly import (MPoly, _dense_derivative, _var_rank,
                           binary_form_resultant,
                           dense_gcd, dense_rational_roots, dense_squarefree,
                           forms_share_zero, from_dense, gcd_poly,
                           kernel_lists, poly_sqrt, rational_roots, resultant,
                           squarefree_decompose, squarefree_part)
from commend.parse import parse_map_pair, parse_poly
from commend.rat1 import _form_split, affine_point
from commend.render import render_poly

X = MPoly.var("x")
Y = MPoly.var("y")

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)
small = st.fractions(min_value=-5, max_value=5, max_denominator=3)
W = Coefficient.root_of_unity(3)


@st.composite
def field_elements(draw, order):
    """An element of Q (order 1), or a + b*zeta of Q(zeta_order)."""
    c = Coefficient.rational(draw(small))
    return c + Coefficient.root_of_unity(order) * draw(small) \
        if order > 1 else c


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


def _apply(matrix, vec):
    return [sum((x * y for x, y in zip(row, vec)), Coefficient.zero())
            for row in matrix]


def _matmul(a, b):
    return [_apply(a, col) for col in zip(*b)]  # the columns of a @ b


@st.composite
def field_entries(draw, order):
    """A small element of Q (order 1, as a Fraction) or of Q(zeta_3)."""
    if order == 1:
        return draw(small)
    return Coefficient(3, [draw(small), draw(small)])


class TestLeftInverse:
    @given(st.sampled_from([1, 3]), st.integers(1, 3), st.integers(0, 3),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_inverse_and_check_rows(self, order, n, extra, data):
        m = n + extra
        matrix = [tuple(data.draw(field_entries(order)) for _ in range(n))
                  for _ in range(m)]
        solved = _left_inverse(matrix)
        if _solve_linear(matrix, [0] * m) is None:
            assert solved is None  # short rank
            return
        inverse, check = solved
        assert len(inverse) == n and len(check) == m - n
        assert _matmul(inverse, matrix) == \
            [[int(i == j) for i in range(n)] for j in range(n)]
        assert _matmul(check, matrix) == [[0] * len(check)] * n
        # the check rows are independent: they span the whole left kernel
        if check:
            assert _left_inverse(list(zip(*check))) is not None
        # matrix @ x = b is solvable exactly when check @ b == 0, and then
        # x == inverse @ b
        x = [data.draw(field_entries(order)) for _ in range(n)]
        b = _apply(matrix, x)
        assert _apply(inverse, b) == x and not any(_apply(check, b))
        b[data.draw(st.integers(0, m - 1))] += 1
        assert (_solve_linear(matrix, b) is None) == any(_apply(check, b))

    def test_short_rank(self):
        w = Coefficient.root_of_unity(3)
        one, two = Fraction(1), Fraction(2)
        assert _left_inverse([(one, two), (two, 2 * two)]) is None
        assert _left_inverse([(one, 0), (two, 0), (one, 0)]) is None
        assert _left_inverse([(one, w), (w, w * w), (2 * w, 2 * w * w)]) \
            is None
        # a square matrix of full rank has no check rows
        assert _left_inverse([(one, w), (w, one)])[1] == []


CYCLO_ORDERS = [3, 4, 5, 7, 8, 9, 12, 15]


@st.composite
def cyclotomic_elements(draw, n):
    """An element of Q(zeta_n) from random residues (it may contract)."""
    return Coefficient(n, [draw(small) for _ in range(euler_phi(n))])


def oracle_str(c: Coefficient) -> str:
    """`Coefficient.__str__` before it became `render_poly` of a constant."""
    if c.order == 1:
        return str(c.res[0])
    parts = []
    for j, x in enumerate(c.res):
        if x == 0:
            continue
        if j == 0:
            parts.append(str(x))
        else:
            mon = "w" if j == 1 else f"w^{j}"
            if x == 1:
                parts.append(mon)
            elif x == -1:
                parts.append(f"-{mon}")
            else:
                parts.append(f"{x}*{mon}")
    if not parts:
        return "0"
    out = parts[0]
    for part in parts[1:]:
        out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return out


class TestCyclotomicArithmetic:
    @given(st.integers(1, 15), st.data())
    @settings(max_examples=150, deadline=None)
    def test_str_matches_the_oracle(self, n, data):
        # units and zeros often, to reach the w, -w and skipped terms
        residue = st.one_of(st.sampled_from([0, 1, -1]), small)
        c = Coefficient(n, [data.draw(residue) for _ in range(euler_phi(n))])
        assert str(c) == oracle_str(c)

    @given(st.sampled_from(CYCLO_ORDERS), st.data())
    @settings(max_examples=50, deadline=None)
    def test_field_laws_and_rational_operands(self, n, data):
        a, b, c = (data.draw(cyclotomic_elements(n)) for _ in range(3))
        assert a * b == b * a and a + b == b + a
        assert (a * b) * c == a * (b * c) and (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == 1
        if b:
            assert (a / b) * b == a
        # negation and inverse keep the minimal order that __init__ finds
        for v in [-a] + ([a.inverse()] if a else []):
            assert Coefficient(n, v.lift(n)[1]) == v
        # a rational operand, as Fraction, int or Coefficient, on either side
        q = data.draw(st.one_of(st.just(Fraction(0)), small))
        res = a.lift(n)[1]
        expected = {
            "add": Coefficient(n, [res[0] + q, *res[1:]]),
            "sub": Coefficient(n, [res[0] - q, *res[1:]]),
            "rsub": Coefficient(n, [q - res[0], *(-x for x in res[1:])]),
            "mul": Coefficient(n, [q * x for x in res]),
        }
        operands = [q, Coefficient.rational(q)]
        if q.denominator == 1:
            operands.append(int(q))
        for r in operands:
            got = {"add": (a + r, r + a), "sub": (a - r,), "rsub": (r - a,),
                   "mul": (a * r, r * a)}
            for op, values in got.items():
                for v in values:
                    assert v == expected[op] and hash(v) == hash(expected[op])
                    assert all(type(x) is Fraction for x in v.res)

    @given(st.sampled_from(CYCLO_ORDERS), st.data())
    @settings(max_examples=50, deadline=None)
    def test_subfield_elements_contract_back(self, n, data):
        m = data.draw(st.sampled_from([d for d in divisors(n) if d < n]))
        c = data.draw(cyclotomic_elements(m))
        lifted = Coefficient(n, c.lift(n)[1])
        assert lifted == c and hash(lifted) == hash(c)

    def test_cyclotomic_polynomials_multiply_to_z_n_minus_one(self):
        for n in range(1, 37):
            prod = [Fraction(1)]
            for d in divisors(n):
                phi_d = list(cyclotomic_coeffs(d))
                assert len(phi_d) == euler_phi(d) + 1
                assert all(type(x) is Fraction for x in phi_d)
                prod = dense_mul(prod, phi_d)
            assert prod == [-1] + [0] * (n - 1) + [1]

    def test_root_of_unity_has_exact_order(self):
        for n in range(1, 37):
            z = Coefficient.root_of_unity(n)
            assert z**n == 1
            assert all(z**d != 1 for d in divisors(n) if d < n)

    @given(st.sampled_from([1, 3, 4]), st.integers(-3, 8), st.data())
    @settings(max_examples=80, deadline=None)
    def test_coefficient_power_matches_repeated_products(self, n, e, data):
        # squaring through `field._power`, against e products of x or 1/x
        x = data.draw(cyclotomic_elements(n))
        assume(e >= 0 or x)
        base = x if e >= 0 else x.inverse()
        want = Coefficient.one()
        for _ in range(abs(e)):
            want = want * base
        assert x**e == want and hash(x**e) == hash(want)
        if not x:
            assert x**0 == 1


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
        fa, ga = kernel_lists(*([p.coefficient_of({"s": k - j, "t": j})
                                 for j in range(k + 1)]
                                for p, k in ((f, m), (g, n))))
        assert forms_share_zero(fa, ga, m, n) == want
        if case != "random" and not f.is_zero() and not g.is_zero():
            assert want

    def test_rational_roots(self):
        p = (X.scale(2) - MPoly.one()) * (X + MPoly.constant(3))
        assert sorted(rational_roots(p)) == [-3, Fraction(1, 2)]
        assert rational_roots(X**2 + MPoly.one()) == []
        with pytest.raises(ValueError):
            rational_roots(X * Y - MPoly.one())

    @given(st.sampled_from([1, 3]), st.integers(0, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_power_matches_repeated_products(self, order, e, data):
        p = data.draw(poly_in(order, "x", ["y"], 0, 2))
        want = MPoly.one()
        for _ in range(e):
            want = want * p
        assert p**e == want
        with pytest.raises(ValueError):
            p**-1

    def test_powers_of_zero(self):
        assert MPoly.zero()**0 == MPoly.one()
        assert MPoly.zero()**3 == MPoly.zero()

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
        assert poly_sqrt(p, 1) in ((X + Y.scale(2)), -(X + Y.scale(2)))
        with pytest.raises(NotASquare):
            poly_sqrt(X**2 + Y**2, 1)

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


def _coefficient_sqrt(u: Coefficient, order: int = 1) -> Coefficient:
    sols = kth_roots(u, 2, order)
    if not sols:
        raise NotASquare(f"coefficient {u} has no square root in the field")
    return sols[0]


def _sign_normalize(w: MPoly) -> MPoly:
    if w.is_zero():
        return w
    lead = w.leading_coefficient()
    first = next((c for c in lead.res if c != 0), Fraction(0))
    return -w if first < 0 else w


def oracle_sqrt(p: MPoly) -> MPoly:
    """The square root through the squarefree decomposition, as `poly_sqrt`
    computed it before it read the root off term by term."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    unit, factors = squarefree_decompose(p)
    if any(m % 2 for _f, m in factors):
        raise NotASquare("odd multiplicity in squarefree decomposition")
    root = MPoly.constant(_coefficient_sqrt(unit, p.field_order()))
    for f, m in factors:
        root = root * f ** (m // 2)
    if root * root != p:
        raise AssertionError("poly_sqrt: the root does not square to p")
    return _sign_normalize(root)


@st.composite
def sqrt_cases(draw):
    """A square w^2 (times a scalar that may not be one) or a square with
    one term changed, over Q, Q(zeta_3) or Q(zeta_4), in z1 and z2."""
    order = draw(st.sampled_from([1, 3, 4]))
    w = Coefficient.root_of_unity(order) if order > 1 else Coefficient.zero()

    def element():
        return Coefficient.rational(draw(small)) + w * draw(small)

    monomials = [(i, k - i) for k in range(4) for i in range(k + 1)]
    root = MPoly.make(("z1", "z2"), {e: element() for e in
                                     draw(st.lists(st.sampled_from(monomials),
                                                   min_size=1, max_size=5))})
    assume(not root.is_zero())
    p = root * root
    if draw(st.booleans()):
        p = p.scale(draw(st.sampled_from([1, -1, 2, -3, 4])))
    if draw(st.booleans()):
        e = draw(st.sampled_from([(i, k - i) for k in range(7)
                                  for i in range(k + 1)]))
        p = p + MPoly.make(("z1", "z2"), {e: element()})
    assume(not p.is_zero())
    return p


class TestPolySqrt:
    @given(sqrt_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_squarefree_oracle(self, p):
        # squares give the oracle's root, non-squares NotASquare, never an
        # AssertionError
        try:
            want = oracle_sqrt(p)
        except NotASquare:
            with pytest.raises(NotASquare):
                poly_sqrt(p, p.field_order())
            return
        assert poly_sqrt(p, p.field_order()) == want

    @pytest.mark.parametrize("text, order", [
        ("z1^2 + z2^2", 1), ("z1", 1), ("-4*z1^2", 1), ("z1^2 + 2*z1 + 2", 1),
        ("z1^2*z2 + 1", 1), ("2*w*z1^2", 3), ("-3*z1^2 + z2", 3)])
    def test_non_squares(self, text, order):
        with pytest.raises(NotASquare):
            poly_sqrt(parse_poly(text, order), order)

    def test_cyclotomic_squares(self):
        for text, order in (("-z1^2 + 2*w*z1*z2 + z2^2", 4),
                            ("w^2*z1^2 + 2*w*z1 + 1", 3), ("4*w*z1^4", 3)):
            p = parse_poly(text, order)
            assert poly_sqrt(p, order) == oracle_sqrt(p)
            assert poly_sqrt(p, order) ** 2 == p


    def test_root_takes_the_session_field(self):
        # -z1^2 has rational coefficients; its root i*z1 needs Q(zeta_4)
        p = parse_poly("-z1^2")
        assert poly_sqrt(p, 4) == parse_poly("w*z1", 4)
        assert poly_sqrt(p, 12) == parse_poly("w*z1", 4)
        for order in (1, 3):
            with pytest.raises(NotASquare):
                poly_sqrt(p, order)


class TestFirstRelation:
    @given(st.sampled_from([1, 3]), st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_finds_the_planted_dependency(self, order, n, data):
        # rows v_0, ..., v_(n-1) are independent (triangular with a nonzero
        # diagonal) and v_n = sum a_j v_j: the relation is found at v_n,
        # with coefficient 1 there and -a_j at the others
        entry = field_entries(order)
        vectors = []
        for i in range(n):
            v = [data.draw(entry) for _ in range(i)]
            v.append(data.draw(entry.filter(bool)))
            vectors.append(v + [0] * (n - i - 1))
        a = [data.draw(entry) for _ in range(n)]
        vectors.append([sum((aj * v[k] for aj, v in zip(a, vectors)), 0)
                        for k in range(n)])
        one = Coefficient.one() if order > 1 else Fraction(1)
        rows = ({**{k: x for k, x in enumerate(v) if x}, -1 - j: one}
                for j, v in enumerate(vectors))
        row = first_relation(rows, 0)
        assert row == {-1 - j: c for j, c in
                       enumerate([-aj for aj in a] + [one]) if c}

    def test_independent_rows_run_out(self):
        rows = [{0: Fraction(1), -1: Fraction(1)},
                {1: Fraction(2), 0: Fraction(3), -2: Fraction(1)}]
        with pytest.raises(AssertionError):
            first_relation(iter(rows), 0)


def _entries(result):
    """Every field entry of a kernel result: lists, pairs, (list, mult)."""
    if isinstance(result, (list, tuple)):
        return [c for r in result for c in _entries(r)]
    return [] if result is None or isinstance(result, int) else [result]


def _kernel_results(a, b):
    """Each dense function's result on a and b (None for NotDivisible)."""
    out = {"mul": dense_mul(a, b), "gcd": dense_gcd(a, b)}
    if b:
        out["divmod"] = dense_divmod(a, b)
    if len(b) > 1:
        try:
            out["inverse_mod"] = dense_inverse_mod(a, b)
        except NotDivisible:
            out["inverse_mod"] = None
    if len(a) > 1:
        out["squarefree"] = dense_squarefree(a)
    return out


@st.composite
def repeated_factors(draw, order):
    """A univariate polynomial with repeated factors, as a Coefficient list."""
    p = MPoly.constant(draw(field_elements(order).filter(bool)))
    for _ in range(draw(st.integers(1, 3))):
        g = draw(univariate(order, min_degree=1, max_degree=2))
        p = p * g ** draw(st.integers(1, 3))
    return p.dense_in("x")


def sylvester_resultant(a, b, name):
    """Oracle: the determinant of the Sylvester matrix of a and b in `name`,
    by fraction-free (Bareiss) elimination over MPoly entries."""
    m, n = a.degree_in(name), b.degree_in(name)
    if m == 0 or n == 0:
        return a**n * b**m
    ua, ub = a.univariate_in(name), b.univariate_in(name)
    size = m + n
    rows = []
    for shifts, coeffs, deg in ((n, ua, m), (m, ub, n)):
        for i in range(shifts):
            row = [MPoly.zero()] * size
            for j, c in enumerate(coeffs):
                row[i + (deg - j)] = c
            rows.append(row)
    sign, prev = 1, MPoly.one()
    for k in range(size - 1):
        if rows[k][k].is_zero():
            pivot = next((i for i in range(k + 1, size)
                          if not rows[i][k].is_zero()), None)
            if pivot is None:
                return MPoly.zero()
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]
                rows[i][j] = num.exact_divide(prev)
            rows[i][k] = MPoly.zero()
        prev = rows[k][k]
    det = rows[size - 1][size - 1]
    return det if sign == 1 else -det


@st.composite
def poly_in(draw, order, name, others, min_degree=0, max_degree=5):
    """A polynomial of degree min_degree..max_degree in `name` whose
    coefficients are sparse, of degree at most one in each of `others`."""
    d = draw(st.integers(min_degree, max_degree))
    out = MPoly.zero()
    for k in range(d + 1):
        coeff = MPoly.constant(draw(field_elements(order)))
        for v in others:
            if draw(st.booleans()):
                coeff = coeff + MPoly.var(v).scale(draw(field_elements(order)))
        if k == d and coeff.is_zero():
            coeff = MPoly.one()
        out = out + coeff * MPoly.var(name, k)
    return out


class TestResultant:
    @given(st.sampled_from([1, 3]), st.integers(1, 3), st.booleans(),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_resultant_matches_sylvester_determinant(self, order, nvars,
                                                     common, data):
        variables = ["x", "y", "t"][:nvars]
        name = data.draw(st.sampled_from(variables))
        others = [v for v in variables if v != name]
        # degrees 0..5 in `name` (0..3 in three variables, where the
        # oracle's determinants grow fastest), a common factor included
        top = (5 if nvars < 3 else 3) - common
        a = data.draw(poly_in(order, name, others, 0, top))
        b = data.draw(poly_in(order, name, others, 0, top))
        if common:
            c = data.draw(poly_in(order, name, others[:1], 1, 1))
            a, b = a * c, b * c
        m, n = a.degree_in(name), b.degree_in(name)
        want = sylvester_resultant(a, b, name)
        assert resultant(a, b, name) == want
        assert resultant(b, a, name) == (want if m * n % 2 == 0 else -want)
        if common:
            assert want.is_zero()

    def test_degree_zero_and_zero_inputs(self):
        a, b = X**2 + Y, Y.scale(3) + MPoly.one()
        assert resultant(a, b, "x") == b**2
        assert resultant(b, a, "x") == b**2
        assert resultant(b, b, "x") == MPoly.one()
        assert resultant(a, MPoly.zero(), "x").is_zero()
        with pytest.raises(BothZero):
            resultant(MPoly.zero(), MPoly.zero(), "x")

    @given(st.sampled_from([1, 3]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_bivariate_gcd_recovers_common_factor(self, order, data):
        g = data.draw(poly_in(order, "x", ["y"], 1, 2))
        a = data.draw(poly_in(order, "x", ["y"], 0, 3))
        b = data.draw(poly_in(order, "x", ["y"], 0, 3))
        assume(not a.is_zero() and not b.is_zero())
        # a and b share no factor of positive degree in x or in y
        assume(not sylvester_resultant(a, b, "x").is_zero())
        assume(not sylvester_resultant(a, b, "y").is_zero())
        assert gcd_poly(a * g, b * g) == g.monic()


def oracle_rational_roots(a):
    """`dense_rational_roots` by its former candidate loop: every +-p/q as
    a Fraction, skipped when already seen, tested on its reduced form."""
    a = _trim(a)
    if len(a) < 2:
        return []
    if isinstance(a[-1], Coefficient):
        if any(c.order != 1 for c in a):
            return []
        a = [c.res[0] for c in a]
    den = lcm(*(v.denominator for v in a))
    ints = [int(v * den) for v in a]
    roots = []
    low = next(i for i, c in enumerate(ints) if c)
    if low > 0:
        roots.append(Fraction(0))
    ints = ints[low:]

    def is_root(num, den):
        acc, scale = ints[-1], 1
        for c in reversed(ints[:-1]):
            scale *= den
            acc = acc * num + c * scale
        return acc == 0

    seen = set(roots)
    for p_ in divisors(abs(ints[0])):
        for q_ in divisors(abs(ints[-1])):
            for cand in (Fraction(p_, q_), Fraction(-p_, q_)):
                if cand not in seen and is_root(cand.numerator,
                                                cand.denominator):
                    seen.add(cand)
                    roots.append(cand)
    return sorted(roots)


class TestDenseKernel:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_fractions_and_coefficients_agree_over_q(self, data):
        # one kernel: the same rational lists as Fractions and as
        # Coefficients give equal results, each in its input's type
        a = data.draw(univariate(1, max_degree=4)).dense_in("x")
        b = data.draw(univariate(1, max_degree=3)).dense_in("x")
        if data.draw(st.booleans()):
            a = data.draw(repeated_factors(1))
        fa, fb = kernel_lists(a, b)
        assert all(type(c) is Fraction for c in fa + fb)
        want = _kernel_results(a, b)
        got = _kernel_results(fa, fb)
        assert got == want
        assert all(type(c) is Coefficient for c in _entries(list(want.values())))
        assert all(type(c) is Fraction for c in _entries(list(got.values())))

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_monic_divisor_keeps_the_entry_type(self, data):
        # a monic divisor skips the division by its leading coefficient:
        # Fractions stay Fractions and Coefficients stay Coefficients
        a = data.draw(univariate(1, max_degree=5)).dense_in("x")
        b = data.draw(univariate(1, min_degree=1, max_degree=3)).monic()
        b = b.dense_in("x")
        fa, fb = kernel_lists(a, b)
        quot, rem = dense_divmod(fa, fb)
        assert all(type(c) is Fraction for c in quot + rem)
        assert (quot, rem) == tuple(kernel_lists(*dense_divmod(a, b)))
        assert all(type(c) is Coefficient for c in _entries(dense_divmod(a, b)))
        assert (from_dense(quot, "x") * from_dense(fb, "x")
                + from_dense(rem, "x")) == from_dense(fa, "x")

    @given(st.sampled_from([1, 3]), st.data())
    @settings(max_examples=25, deadline=None)
    def test_squarefree_factors_rebuild_the_input(self, order, data):
        a = data.draw(repeated_factors(order))
        (a,) = kernel_lists(a)
        unit, factors = dense_squarefree(a)
        rebuilt = MPoly.constant(unit)
        for f, m in factors:
            assert f[-1] == 1
            rebuilt = rebuilt * from_dense(f, "x") ** m
        assert rebuilt == from_dense(a, "x")
        assert [m for _f, m in factors] == sorted({m for _f, m in factors})
        for i, (f, _m) in enumerate(factors):
            fx = from_dense(f, "x")
            if len(f) > 2:
                assert not resultant(fx, fx.derivative("x"), "x").is_zero()
            for g, _n in factors[i + 1:]:
                assert not resultant(fx, from_dense(g, "x"), "x").is_zero()
        assert not any(isinstance(c, float) for c in _entries([unit, factors]))
        # the MPoly entry point is the same decomposition
        got = squarefree_decompose(from_dense(a, "x"))
        assert got == (unit, [(from_dense(f, "x"), m) for f, m in factors])

    @given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4),
                    min_size=1, max_size=4),
           st.sampled_from(["x^2 + 1", "x^2 - 2", "3*x^3 - 5*x + 1", "1"]))
    @settings(max_examples=40, deadline=None)
    def test_rational_roots_as_list_and_mpoly(self, roots, cofactor):
        p = parse_poly(cofactor)
        for x0 in roots:
            p = p * (X - MPoly.constant(x0))
        assert rational_roots(p) == sorted(set(roots))
        (a,) = kernel_lists(p.dense_in("x"))
        assert dense_rational_roots(a) == sorted(set(roots))
        assert dense_rational_roots(p.dense_in("x")) == sorted(set(roots))

    @given(st.lists(st.tuples(st.integers(-7, 7), st.integers(1, 6),
                              st.integers(1, 3)), max_size=4),
           st.integers(0, 3),
           st.sampled_from(["x^2 + 1", "x^2 - 2", "3*x^3 - 5*x + 1",
                            "6*x^2 - 5", "1"]),
           st.fractions(min_value=-7, max_value=7, max_denominator=5)
           .filter(bool),
           st.sampled_from(["int", "Fraction", "Coefficient"]))
    @settings(max_examples=80, deadline=None)
    def test_coprime_pairs_match_the_candidate_loop(self, planted, zeros,
                                                    cofactor, scale, kind):
        # planted roots n/q (q up to 6, 0 of multiplicity `zeros`) times an
        # irreducible cofactor, scaled by a rational of either sign
        a = [Fraction(c) for c in kernel_lists(
            parse_poly(cofactor).dense_in("x"))[0]] if cofactor != "1" \
            else [Fraction(1)]
        for n, q, m in planted:
            for _ in range(m):
                a = dense_mul(a, [Fraction(-n, q), Fraction(1)])
        a = [Fraction(0)] * zeros + [v * scale for v in a]
        if kind == "int":
            den = lcm(*(v.denominator for v in a))
            a = [int(v * den) for v in a]
        elif kind == "Coefficient":
            a = [Coefficient.rational(v) for v in a]
        want = sorted({Fraction(n, q) for n, q, _m in planted}
                      | ({Fraction(0)} if zeros else set()))
        if len(a) < 2:
            want = []
        assert dense_rational_roots(a) == oracle_rational_roots(a) == want
        assert all(type(x) is Fraction for x in dense_rational_roots(a))

    def test_residual_keeps_exact_rationals(self):
        # an int divisor [-x0, 1] would divide 1 / 1 = 1.0 and leave float
        # entries (1032074914605739/281474976710656*s^2 for 11/3*s^2)
        s, t = MPoly.var("s"), MPoly.var("t")
        form = (t - s) * (t + s.scale(2)) * parse_poly("11*s^2 - 12*s*t + 3*t^2")
        points, residual = _form_split(*kernel_lists(form.dense_in("t")), 4)
        assert points == [(affine_point(-2), 1), (affine_point(1), 1)]
        assert residual == [([Fraction(11, 3), -4, 1], 1)]
        for f, _m in residual:
            assert all(type(c) is Fraction for c in f)

    def test_chebyshev_map_of_query_108_is_classified(self, capsys):
        # a float residual sends rational_roots into a practically endless
        # candidate loop on this map (p1-classify, seed 1, query 108); a
        # subprocess bounds a hang, then the call is timed in-process
        argv = ["classify-p1", "--map=(7*s^6 - 120*s^5*t + 270*s^4*t^2 "
                "- 248*s^3*t^3 + 111*s^2*t^4 - 24*s*t^5 + 2*t^6, 78*s^6 "
                "- 432*s^5*t + 780*s^4*t^2 - 656*s^3*t^3 + 282*s^2*t^4 "
                "- 60*s*t^5 + 5*t^6)"]
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-m", "commend.cli", *argv],
                             capture_output=True, text=True, timeout=30,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.returncode == 0 and "ChebyshevLike" in out.stdout
        start = time.perf_counter()
        assert main(argv) == 0
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().out == out.stdout


# The per-coefficient Euclid over the field that the kernel ran before it
# moved to pseudo-remainders, kept as the oracle for the kernel's results;
# it shares only the list helpers `_trim`, `_dense_sub`, `_dense_derivative`
# and `dense_mul` with the kernel.


def _oracle_divmod(a, b):
    a, b = _trim(a), _trim(b)
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    db = len(b) - 1
    if len(a) <= db:
        return [], a
    inv = None if b[-1] == 1 else 1 / b[-1]
    quot = [None] * (len(a) - db)
    for i in range(len(quot) - 1, -1, -1):
        c = a[i + db] if inv is None else a[i + db] * inv
        quot[i] = c
        if c:
            for j in range(db):
                a[i + j] = a[i + j] - c * b[j]
    return quot, _trim(a[:db])


def _oracle_monic(a):
    if not a or a[-1] == 1:
        return a
    inv = 1 / a[-1]
    return [c * inv for c in a]


def oracle_gcd(a, b):
    a, b = _oracle_monic(_trim(a)), _trim(b)
    while b:
        b = _oracle_monic(b)
        a, b = b, _oracle_divmod(a, b)[1]
    return a


def oracle_squarefree(a):
    a = _trim(a)
    w = _oracle_monic(a)
    dw = _dense_derivative(w)
    g = oracle_gcd(w, dw)
    c, d = _oracle_divmod(w, g)[0], _oracle_divmod(dw, g)[0]
    d = _dense_sub(d, _dense_derivative(c))
    factors, k = [], 1
    while len(c) > 1:
        g = oracle_gcd(c, d)
        if len(g) > 1:
            factors.append((g, k))
        c = _oracle_divmod(c, g)[0]
        d = _dense_sub(_oracle_divmod(d, g)[0], _dense_derivative(c))
        k += 1
    return a[-1], factors


def oracle_inverse_mod(a, f):
    r0, r1 = _trim(f), _oracle_divmod(a, f)[1]
    s0, s1 = [], [r0[-1] / r0[-1]]
    while len(r1) > 1:
        q, r = _oracle_divmod(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, _dense_sub(s0, dense_mul(q, s1))
    if not r1:
        raise NotDivisible("not invertible: the polynomials share a factor")
    inv = 1 / r1[0]
    return _oracle_divmod([c * inv for c in s1], f)[1]


def _outcome(fn, *args):
    """fn's result, or the type of the exception it raises."""
    try:
        return fn(*args)
    except (NotDivisible, ZeroDivisionError) as exc:
        return type(exc)


big = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**6))


@st.composite
def big_list(draw, order, min_degree=0, max_degree=4):
    """A list of exact degree in the range, entries with numerators up to
    10^40 and denominators up to 10^6: Fractions for order 1, Coefficients
    of Q(zeta_3) for order 3."""
    d = draw(st.integers(min_degree, max_degree))
    entries = draw(st.lists(big, min_size=d + 1, max_size=d + 1))
    if order == 3:
        entries = [c + W * draw(big) for c in entries]
    if not entries[-1]:
        entries[-1] = draw(big.filter(bool)) if order == 1 else W
    return entries


@st.composite
def kernel_pair(draw, order):
    """(a, b): independent draws, or, half of the time, both multiplied by a
    drawn factor and a squared by a second one."""
    a = draw(big_list(order))
    b = draw(big_list(order, min_degree=1))
    if draw(st.booleans()):
        g = draw(big_list(order, min_degree=1, max_degree=2))
        h = draw(big_list(order, min_degree=1, max_degree=2))
        a, b = dense_mul(dense_mul(a, g), dense_mul(h, h)), dense_mul(b, g)
    return a, b


class TestKernelOracle:
    """The kernel against the field Euclid it replaced: the same monic
    lists, or the same exception, over Q and over Q(zeta_3)."""

    @given(st.sampled_from([1, 3]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_gcd_squarefree_and_inverse_match_the_oracle(self, order, data):
        a, b = data.draw(kernel_pair(order))
        entry = Fraction if order == 1 else Coefficient
        got = {"gcd": _outcome(dense_gcd, a, b),
               "inverse_mod": _outcome(dense_inverse_mod, a, b),
               "inverse_mod_swapped": _outcome(dense_inverse_mod, b, a),
               "squarefree": _outcome(dense_squarefree, a)}
        want = {"gcd": _outcome(oracle_gcd, a, b),
                "inverse_mod": _outcome(oracle_inverse_mod, a, b),
                "inverse_mod_swapped": _outcome(oracle_inverse_mod, b, a),
                "squarefree": _outcome(oracle_squarefree, a)}
        assert got == want
        values = [v for v in got.values() if not isinstance(v, type)]
        assert all(type(c) is entry for c in _entries(values))

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_zero_and_constant_lists_match_the_oracle(self, data):
        a = data.draw(st.sampled_from([[], [Fraction(0)], [Fraction(-3, 7)]]))
        b = data.draw(st.one_of(st.just([]), big_list(1, max_degree=3)))
        assert _outcome(dense_gcd, a, b) == _outcome(oracle_gcd, a, b)
        assert _outcome(dense_gcd, b, a) == _outcome(oracle_gcd, b, a)
        assert (_outcome(dense_inverse_mod, a, b)
                == _outcome(oracle_inverse_mod, a, b))
        assert (_outcome(dense_inverse_mod, b, a)
                == _outcome(oracle_inverse_mod, b, a))
        if b:
            assert dense_squarefree(b) == oracle_squarefree(b)

    @given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=4),
           st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=4),
           st.integers(-50, 50).filter(lambda c: c not in (0, 1)))
    @settings(max_examples=60, deadline=None)
    def test_int_divisor_divides_exactly_or_raises(self, q, low, lead):
        # an int divisor whose leading entry is not 1 divides in Z[x]: an
        # exact multiple gives its int quotient, anything else NotDivisible
        b = low + [lead]
        q = _trim(q)
        a = dense_mul(q, b)
        assert dense_divmod(a, b) == (q, [])
        quot = dense_divmod(a, b)[0]
        assert all(type(c) is int for c in quot)
        a_off = list(a) + [0] * (len(b) - len(a))
        a_off[0] += 1  # a multiple plus 1 is no multiple of a nonconstant b
        if len(b) > 1 or lead != -1:
            with pytest.raises(NotDivisible):
                dense_divmod(a_off, b)
        # no float in any kernel result on int lists
        results = [dense_gcd(a_off, b), dense_squarefree(b),
                   _outcome(dense_inverse_mod, a_off, b)]
        assert not any(isinstance(c, float) for c in _entries(results))


# The ring layer's own MPoly-list algorithms before K[z2][z1] ran on the
# list kernel, kept as oracles: the pseudo-remainder, the subresultant PRS
# that every bivariate gcd read its answer from, and Yun's loop on MPolys.
# Their univariate base cases are `dense_gcd` and `dense_squarefree`, which
# `TestKernelOracle` checks against the field Euclid.


def oracle_pseudo_remainder(a, b):
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b of MPoly
    lists."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    e = (len(r) - 1) - db + 1
    while r and len(r) - 1 >= db:
        top = r[-1]
        r = [c * lb for c in r]
        base = len(r) - 1 - db
        for j in range(db + 1):
            r[base + j] = r[base + j] - top * b[j]
        r.pop()
        while r and r[-1].is_zero():
            r.pop()
        e -= 1
    for _ in range(max(e, 0)):
        r = [c * lb for c in r]
    return r


def oracle_subresultant_prs(a, b):
    """(last, nxt, h, sign) of the subresultant PRS of MPoly lists with
    deg a >= deg b >= 1."""
    g, h, sign = MPoly.one(), MPoly.one(), 1
    while True:
        delta = len(a) - len(b)
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            sign = -sign
        rem = oracle_pseudo_remainder(a, b)
        divisor = g * h**delta
        a, b = b, [c.exact_divide(divisor) for c in rem]
        g = a[-1]
        h = h if delta == 0 else (g**delta).exact_divide(h**(delta - 1)) \
            if delta > 1 else g
        if len(b) <= 1:
            return a, b, h, sign


def oracle_content(coeffs):
    g = MPoly.zero()
    for c in coeffs:
        g = oracle_gcd_poly(g, c)
        if g.is_constant() and not g.is_zero():
            return MPoly.one()
    return g


def oracle_gcd_poly(a, b):
    """The monic gcd, read off the subresultant PRS in the first variable,
    with a branch for each side free of that variable."""
    if a.is_zero() and b.is_zero():
        return MPoly.zero()
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.is_constant() or b.is_constant():
        return MPoly.one()
    variables = sorted(set(a.vars) | set(b.vars), key=_var_rank)
    name = variables[0]
    if len(variables) == 1:
        return from_dense(dense_gcd(*kernel_lists(a.dense_in(name),
                                                  b.dense_in(name))), name)
    if not b.depends_on(name):
        return oracle_gcd_poly(oracle_content(a.univariate_in(name)),
                               b).monic()
    if not a.depends_on(name):
        return oracle_gcd_poly(a, oracle_content(
            b.univariate_in(name))).monic()
    ua, ub = a.univariate_in(name), b.univariate_in(name)
    ca, cb = oracle_content(ua), oracle_content(ub)
    pa = [c.exact_divide(ca) for c in ua]
    pb = [c.exact_divide(cb) for c in ub]
    cont = oracle_gcd_poly(ca, cb)
    if len(pa) < len(pb):
        pa, pb = pb, pa
    last, nxt, _h, _sign = oracle_subresultant_prs(pa, pb)
    if nxt:
        return cont.monic()
    clast = oracle_content(last)
    prim = [c.exact_divide(clast) for c in last]
    return MPoly.from_univariate([cont * c for c in prim], name).monic()


def oracle_squarefree_decompose(p):
    """(unit, [(factor, multiplicity)]) by Yun's loop on MPolys in the
    first variable, the content recursing."""
    if p.is_constant():
        return p.constant_value(), []
    name = p.vars[0]
    if len(p.vars) == 1:
        unit, factors = dense_squarefree(*kernel_lists(p.dense_in(name)))
        return (Coefficient.coerce(unit),
                [(from_dense(f, name), m) for f, m in factors])
    ua = p.univariate_in(name)
    cont = oracle_content(ua)
    w = MPoly.from_univariate([c.exact_divide(cont) for c in ua], name)
    factors = oracle_squarefree_decompose(cont)[1]
    dw = w.derivative(name)
    g = oracle_gcd_poly(w, dw)
    if g.is_constant():
        factors.append((w.monic(), 1))
    else:
        c1 = w.exact_divide(g)
        d1 = dw.exact_divide(g) - c1.derivative(name)
        k = 1
        while not c1.is_constant():
            a = oracle_gcd_poly(c1, d1)
            if not a.is_constant():
                factors.append((a.monic(), k))
            c1 = c1.exact_divide(a)
            d1 = d1.exact_divide(a) - c1.derivative(name)
            k += 1
    rebuilt = MPoly.one()
    for f, m in factors:
        rebuilt = rebuilt * f**m
    return p.exact_divide(rebuilt).constant_value(), factors


def oracle_resultant(a, b, name):
    m, n = a.degree_in(name), b.degree_in(name)
    if m == 0 or n == 0:
        return a**n * b**m
    ua, ub = a.univariate_in(name), b.univariate_in(name)
    swap = -1 if m < n and m * n % 2 else 1
    last, nxt, h, sign = oracle_subresultant_prs(
        *((ua, ub) if m >= n else (ub, ua)))
    if not nxt:
        return MPoly.zero()
    d = len(last) - 1
    res = (nxt[0]**d).exact_divide(h**(d - 1))
    return res if sign * swap == 1 else -res


@st.composite
def factored(draw, order, max_factors=2):
    """A nonzero scalar times up to `max_factors` factors, each with
    multiplicity 1 or 2, in z1 and z2, in z1 alone or in z2 alone."""
    p = MPoly.constant(draw(field_elements(order).filter(bool)))
    for _ in range(draw(st.integers(0, max_factors))):
        name, others = draw(st.sampled_from(
            [("z1", ["z2"]), ("z2", ["z1"]), ("z1", []), ("z2", [])]))
        f = draw(poly_in(order, name, others, 1, 2))
        p = p * f ** draw(st.integers(1, 2))
    return p


@st.composite
def kernel_lists_of(draw, ring, min_size):
    """A trimmed list of ints, Q(zeta_3) Coefficients or MPolys in z2."""
    entry = {"int": st.integers(-9, 9), "coefficient": field_elements(3),
             "mpoly": poly_in(3, "z2", [], 0, 2)}[ring]
    a = _trim(draw(st.lists(entry, min_size=min_size, max_size=5)))
    assume(len(a) >= min_size)
    return a


class TestRecursiveRing:
    """K[z2][z1] on the list kernel against the ring layer's own
    algorithms that it replaced, over Q and Q(zeta_3)."""

    @given(st.sampled_from([1, 3]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_gcd_squarefree_and_resultant_match_the_oracles(self, order,
                                                            data):
        common = data.draw(factored(order, 1))
        a = common * data.draw(factored(order))
        b = common * data.draw(factored(order, 1))
        assert gcd_poly(a, b) == oracle_gcd_poly(a, b)
        assert gcd_poly(b, a) == oracle_gcd_poly(b, a)
        for p in (a, b):
            assert squarefree_decompose(p) == oracle_squarefree_decompose(p)
        for name in ("z1", "z2"):
            assert resultant(a, b, name) == oracle_resultant(a, b, name)

    @given(st.sampled_from([1, 3]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_squarefree_factors_rebuild_p(self, order, data):
        # the unit, read off as lc(p), times the factors' powers is p
        p = data.draw(factored(order, 3))
        unit, factors = squarefree_decompose(p)
        rebuilt = MPoly.constant(unit)
        for f, m in factors:
            rebuilt = rebuilt * f**m
        assert rebuilt == p

    def test_sides_free_of_a_variable_and_zero(self):
        z1, z2 = MPoly.var("z1"), MPoly.var("z2")
        cases = [(z2**2 - 1, (z1 + z2) * (z2 - 1)), (z2 + 1, z1**2 + z1),
                 (z1**2 - 4, (z1 - 2) * z2), (MPoly.zero(), (z1 - z2) * 3),
                 ((z1 - z2) ** 2 * (z1 + 1), MPoly.zero())]
        for a, b in cases:
            assert gcd_poly(a, b) == oracle_gcd_poly(a, b)
            assert gcd_poly(b, a) == oracle_gcd_poly(b, a)
        p = (z1 - z2) ** 3 * (z2 + 1) ** 2 * (z1 + 2) * 5
        assert squarefree_decompose(p) == oracle_squarefree_decompose(p)
        # the content's factors first, then the primitive part's
        assert squarefree_decompose(p) == (Coefficient.rational(5), [
            (z2 + 1, 2), (z1 + 2, 1), (z1 - z2, 3)])

    @given(st.sampled_from(["int", "coefficient", "mpoly"]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pseudo_divmod_identity(self, ring, data):
        # lc(b)^k * a == q * b + r with deg r < deg b, k at most the
        # number of steps, 0 for a monic b
        a = data.draw(kernel_lists_of(ring, 0))
        b = data.draw(kernel_lists_of(ring, 1))
        k, q, r = _pseudo_divmod(a, b)
        assert len(r) < len(b)
        assert 0 <= k <= max(len(a) - len(b) + 1, 0)
        if b[-1] == 1:
            assert k == 0
        assert _dense_sub(dense_mul([b[-1] ** k], a), dense_mul(q, b)) == r
        if ring != "coefficient" and b[-1] != 1:
            # a lead that is not a field element divides exactly or raises
            assert dense_divmod(dense_mul(q, b), b) == (_trim(q), [])
            if r:
                with pytest.raises(NotDivisible):
                    dense_divmod(_dense_sub(dense_mul(q, b), r), b)

    def test_mpoly_truth_value(self):
        assert not MPoly.zero()
        assert MPoly.one() and X and -Y
        assert not (X - X)
        assert _trim([X, MPoly.zero(), X - X]) == [X]


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


# renames of the variables of a polynomial in x, y and z1: a merge, a swap,
# three names onto one, a rename onto a name not in use, a rename of an
# absent variable, and none
RENAMES = [{"x": "y"}, {"x": "y", "y": "x"}, {"x": "z1", "y": "z2"},
           {"y": "x", "z1": "x"}, {"x": "t"}, {"q": "x"}, {}]


class TestRelabelling:
    @given(st.sampled_from([1, 3, 4]), st.sampled_from(RENAMES), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rename_matches_substitution(self, order, mapping, data):
        p = data.draw(poly_in(order, "x", ["y", "z1"]))
        bare = {v: MPoly.var(w) for v, w in mapping.items()}
        assert p.rename(mapping) == p.substitute(bare)

    def test_merge_can_cancel(self):
        assert (X - Y).rename({"x": "y"}).is_zero()
        assert (X * Y).rename({"y": "x"}) == X**2

    @given(st.sampled_from([1, 3, 4]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_taylor_shift_matches_substitution(self, order, data):
        a = data.draw(univariate(order, max_degree=6))
        t = data.draw(field_elements(order))
        shifted = a.substitute({"x": X + MPoly.constant(t)})
        got = dense_shift(a.dense_in("x"), t)
        assert _trim(got) == _trim(shifted.dense_in("x"))
