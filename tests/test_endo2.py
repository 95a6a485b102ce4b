"""Plane polynomial maps: composition, extension, critical data, invariance."""

from fractions import Fraction
from functools import cache, reduce
from itertools import product as iproduct
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commend.endo2 import (PlaneEndo, _shear, check_critical_chain, commutes,
                           compose, critical_divisor, critical_orbit_finite,
                           extends_to_p2, image_curve, invariant_lines,
                           is_invariant_curve, is_totally_invariant, iterate,
                           mult_on_curve, ramified_square_invariance,
                           restrict_infinity, split_graph_components)
from commend.errors import (DegreeLimitExceeded, NotExtendable,
                             PreconditionViolated)
from commend.families import chebyshev, ex1, ex2, ex3_lift, ex4_descend
from commend.field import Coefficient
from commend.mpoly import (MPoly, from_dense, rational_roots, resultant,
                           squarefree_decompose, squarefree_part)
from commend.parse import parse_map_pair, parse_poly
from commend.rat1 import RatMap1


def endo(text):
    return PlaneEndo(*parse_map_pair(text))


DESC2 = endo("(z1^2 - 2*z2, z2^2)")
DESC3 = endo("(z1^3 - 3*z1*z2, z2^3)")
POW2 = endo("(z1^2, z2^2)")
PHI = parse_poly("z1^2 - 4*z2")

small = st.integers(min_value=-3, max_value=3)


class TestComposition:
    def test_compose_degrees(self):
        assert compose(DESC2, DESC3).degree == 6
        assert compose(DESC2, DESC3) == compose(DESC3, DESC2)

    def test_commutes_oracle(self):
        assert commutes(DESC2, DESC3)
        assert commutes(POW2, endo("(z1^3, z2^3)"))
        assert not commutes(DESC2, endo("(z1^3, z2^3)"))

    def test_iterate(self):
        f2 = iterate(DESC2, 2)
        assert f2 == compose(DESC2, DESC2)
        assert iterate(DESC2, 1) == DESC2
        assert iterate(DESC2, 0) == PlaneEndo.identity()

    def test_iterate_degree_cap(self):
        with pytest.raises(DegreeLimitExceeded):
            iterate(DESC2, 12, degree_cap=100)

    def test_iterate_cap_boundary(self):
        # the bit-length shortcut raises exactly where d^n > cap does
        for f in (endo("(z1^2, z2)"), endo("(z1^3, z2^3)")):
            for cap in range(-2, 70):
                for n in range(10):
                    if f.degree**n > cap:
                        with pytest.raises(DegreeLimitExceeded,
                                           match=rf"\^{n} exceeds cap {cap}$"):
                            iterate(f, n, degree_cap=cap)
                    else:
                        assert iterate(f, n, degree_cap=cap).degree \
                            == f.degree**n

    @given(small, small, small, small)
    @settings(max_examples=25, deadline=None)
    def test_compose_associative(self, a, b, c, d):
        z1, z2 = MPoly.var("z1"), MPoly.var("z2")
        f = PlaneEndo(z1**2 + z2.scale(a), z2**2 + z1.scale(b))
        g = PlaneEndo(z1 + MPoly.constant(c), z2 + MPoly.constant(d))
        assert compose(compose(f, g), f) == compose(f, compose(g, f))


class TestExtension:
    def test_extends_oracle(self):
        assert extends_to_p2(DESC2)
        assert extends_to_p2(DESC3)
        assert extends_to_p2(endo("(z1^2 - z2^2, z1*z2)"))
        # top forms share the root [0:1]
        assert not extends_to_p2(endo("(z1^2, z1*z2)"))

    def test_restrict_infinity(self):
        r = restrict_infinity(DESC2)
        s, t = MPoly.var("s"), MPoly.var("t")
        assert r.formS == s**2 and r.formT == t**2

    def test_restrict_requires_extension(self):
        with pytest.raises(NotExtendable):
            restrict_infinity(endo("(z1^2, z1*z2)"))


class TestCriticalData:
    def test_critical_divisor(self):
        div = critical_divisor(DESC2)
        z1, z2 = MPoly.var("z1"), MPoly.var("z2")
        assert dict(div.parts) == {z1: 1, z2: 1}
        assert div.total_degree() == DESC2.degree * 2 - 2

    def test_degree_formula_examples(self):
        for f in (DESC2, DESC3, POW2, endo("(z1^2 - z2^2, z1*z2)")):
            assert critical_divisor(f).total_degree() == 2 * f.degree - 2

    def test_mult_on_curve(self):
        assert mult_on_curve(DESC2, PHI) == 1
        assert mult_on_curve(POW2, MPoly.var("z1")) == 2

    def test_chain_identity(self):
        assert check_critical_chain(DESC2, DESC3)
        assert check_critical_chain(POW2, endo("(z1^3, z2^3)"))

    def test_chain_products_are_the_jacobian_of_the_composite(self):
        # the pairs of acceptance criterion 04: both products of the chain
        # check are J(f1 o f2) = J(f2 o f1), by the chain rule
        x = MPoly.var("x")
        pairs = [ex1(2, 3, 1), (ex2(2, "straight"), ex2(3, "straight")),
                 ex3_lift(RatMap1(parse_poly("s^2"), parse_poly("t^2")),
                          RatMap1(parse_poly("s^3"), parse_poly("t^3"))),
                 (ex4_descend(x**2), ex4_descend(x**3)),
                 (ex4_descend(chebyshev(2, "monic")),
                  ex4_descend(chebyshev(3, "monic"))),
                 (ex4_descend(x**3), ex4_descend(x**4))]
        for f1, f2 in pairs:
            d1, d2 = f1.jacobian_det(), f2.jacobian_det()
            jac = compose(f1, f2).jacobian_det()
            assert d2 * d1.substitute({"z1": f2.comp1, "z2": f2.comp2}) == jac
            assert d1 * d2.substitute({"z1": f1.comp1, "z2": f1.comp2}) == jac
            assert check_critical_chain(f1, f2)


class TestInvariance:
    def test_invariant_curve(self):
        assert is_invariant_curve(DESC2, PHI)
        assert is_invariant_curve(DESC3, PHI)
        assert not is_invariant_curve(DESC2, parse_poly("z1 - z2"))

    def test_total_invariance(self):
        z1 = MPoly.var("z1")
        assert is_totally_invariant(POW2, z1)
        assert not is_totally_invariant(DESC2, PHI)

    def test_total_invariance_propagates_bugs(self, monkeypatch):
        # only a failed exact division reads as "not totally invariant"
        def broken(self, other):
            raise TypeError("bug")
        monkeypatch.setattr(MPoly, "exact_divide", broken)
        with pytest.raises(TypeError):
            is_totally_invariant(POW2, MPoly.var("z1"))

    def test_ramified_square_invariance(self):
        w2 = ramified_square_invariance(DESC2, PHI, 1)
        w3 = ramified_square_invariance(DESC3, PHI, 1)
        pulled2 = PHI.substitute({"z1": DESC2.comp1, "z2": DESC2.comp2})
        assert pulled2 == PHI * w2 * w2
        pulled3 = PHI.substitute({"z1": DESC3.comp1, "z2": DESC3.comp2})
        assert pulled3 == PHI * w3 * w3

    def test_image_curve_preserves_invariant(self):
        assert image_curve(DESC2, PHI).monic() == PHI.monic()

    def test_image_curve_generic(self):
        f = endo("(z1^2, z2^2 + z1)")
        assert image_curve(f, MPoly.var("z1")).monic() == MPoly.var("z1")
        # the line z2 = 0 maps onto the parabola z1 = z2^2
        assert image_curve(f, MPoly.var("z2")).monic() == parse_poly(
            "z2^2 - z1")

    def test_image_curve_baseline_has_the_degree_bound(self):
        # deg f(C) <= d * deg C = 4; the double elimination gave degree 8
        f = endo("(z1^2 + z1 - z2 - 2, -z1*z2 + z2^2 - z1 + 2*z2)")
        g = parse_poly("9*z1^2 + 3*z1*z2 + 3*z1 + z2")
        h = image_curve(f, g)
        assert h.total_degree() == 4
        assert g.divides(h.substitute({"z1": f.comp1, "z2": f.comp2}))

    def test_image_curve_of_a_conic_has_degree_four(self):
        f = endo("(2*z1^2 - 3*z1*z2 - z2^2 + 2*z1 + 3, "
                 "3*z1^2 + z1*z2 - 2*z1 + 2*z2 + 2)")
        g = parse_poly("z1^2 - z1*z2 + 2*z2^2 + z2 + 1")
        h = image_curve(f, g)
        assert h.total_degree() == 4
        assert g.divides(h.substitute({"z1": f.comp1, "z2": f.comp2}))

    def test_image_curve_of_two_lines_is_the_product_of_their_images(self):
        # no shear made the double elimination regular on this curve
        f = endo("(z1^2 + z1*z2 - 3*z2^2 + z1 - 3*z2 + 2, "
                 "-z1^2 - 3*z1*z2 + 3*z2^2 - 2*z2 + 1)")
        g = parse_poly("z1*z2 + z2^2 - z1 - 3*z2 + 2")
        a, b = parse_poly("z2 - 1"), parse_poly("z1 + z2 - 2")
        assert a * b == g
        assert image_curve(f, g) == (image_curve(f, a)
                                     * image_curve(f, b)).monic()
        assert image_curve(f, g).total_degree() == 4

    def test_image_curve_rejects_other_variables(self):
        with pytest.raises(PreconditionViolated):
            image_curve(POW2, parse_poly("x + 1"))

    def test_critical_orbit_finite(self):
        report = critical_orbit_finite(DESC2, DESC3)
        assert report.resolved
        for entry in report.per_component.values():
            assert entry["witness"] is not None

    def test_invariant_lines(self):
        rep = invariant_lines(endo("(z1^2 + 1, z2^2 + 1)"))
        lines = [line for line, _tot in rep.affine_lines]
        # only the diagonal survives over the rationals
        assert lines == [MPoly.var("z2") - MPoly.var("z1")]
        assert rep.includes_infinity

    def test_invariant_lines_powers(self):
        rep = invariant_lines(POW2)
        found = {str(line): tot for line, tot in rep.affine_lines}
        assert found.get("z1") is True and found.get("z2") is True

    def test_invariant_lines_needs_extension(self):
        # top forms z1*(z1, z2): every line z2 = u*z1 is invariant
        with pytest.raises(PreconditionViolated):
            invariant_lines(endo("(z1^2, z1*z2)"))
        # no v-free condition, but a nonzero resultant: z2 = 0 alone
        rep = invariant_lines(endo("(z1^2 + 1, z1*z2)"))
        assert [str(line) for line, _tot in rep.affine_lines] == ["z2"]


def _eliminated_image(f, g):
    """The image curve by the double elimination `image_curve` once used: a
    multiple of the image (it can carry spurious factors), or None when no
    shear makes the elimination regular."""
    g_red = squarefree_part(g)
    y1, y2 = MPoly.var("y1"), MPoly.var("y2")
    for tau in (0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8):
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
        back = {"y1": MPoly.var("z1"), "y2": MPoly.var("z2")}
        kept = MPoly.one()
        for h, _m in squarefree_decompose(squarefree_part(rr))[1]:
            h_z = h.substitute(back)
            if g_red.divides(h_z.substitute({"z1": f.comp1, "z2": f.comp2})):
                kept = kept * h_z
        if not kept.is_constant():
            return kept.monic()
    return None


@st.composite
def _field_poly(draw, order, degree):
    """A polynomial in z1, z2 of total degree <= degree over Q(zeta_order),
    coefficients a + b*w with small a, b."""
    w = Coefficient.root_of_unity(order) if order > 1 else Coefficient.zero()
    terms = {}
    for k in range(degree + 1):
        for i in range(k + 1):
            a = draw(st.integers(-2, 2))
            b = draw(st.integers(-1, 1)) if order > 1 else 0
            terms[(i, k - i)] = Coefficient.coerce(a) + w * b
    return MPoly.make(("z1", "z2"), terms)


@st.composite
def _map_and_curve(draw):
    order = draw(st.sampled_from([1, 3]))
    d = draw(st.sampled_from([2, 3]))
    p1, p2 = draw(_field_poly(order, d)), draw(_field_poly(order, d))
    assume(not p1.is_zero() and not p2.is_zero())
    f = PlaneEndo(p1, p2)
    assume(f.degree == d and extends_to_p2(f))
    # a conic under a cubic map over Q(zeta_3) costs seconds in the checks
    # below (H o f has degree 18 there), so that corner draws lines only
    k = draw(st.sampled_from([1] if (order, d) == (3, 3) else [1, 2]))
    g = draw(_field_poly(order, k))
    assume(g.total_degree() == k)
    return f, g


@given(_map_and_curve())
@settings(max_examples=30, deadline=None)
def test_image_curve_is_the_image(case):
    f, g = case
    h = image_curve(f, g)
    d, k = f.degree, g.total_degree()
    assert squarefree_part(g).divides(
        h.substitute({"z1": f.comp1, "z2": f.comp2}))
    # f extends to P^2: deg f(C) * deg(f|C) = d * deg C
    assert 1 <= h.total_degree() <= d * k
    assert squarefree_part(h) == h
    if k == 1:
        # a line is irreducible, so deg(f|C) is an integer
        assert (d * k) % h.total_degree() == 0
        old = _eliminated_image(f, g)
        assume(old is not None)
        assert h.divides(old)


# ---------------------------------------------------------------------------
# Graph components
# ---------------------------------------------------------------------------


def _oracle_candidates(g, xvar, yvar):
    samples = (0, 1, -1, 2)
    root_sets = []
    for a in samples:
        u = g.substitute({xvar: MPoly.constant(a)})
        if not u.depends_on(yvar):
            return
        roots = rational_roots(u)
        if not roots:
            return
        root_sets.append(roots)
    if prod(map(len, root_sets)) > 4096:
        return
    basis = _lagrange_basis(xvar, samples)
    y = MPoly.var(yvar)
    for combo in iproduct(*root_sets):
        yield MPoly._sum([y, *(b.scale(-v) for b, v in zip(basis, combo))])


@cache
def _lagrange_basis(xvar, samples):
    x = MPoly.var(xvar)
    basis = []
    for i, a in enumerate(samples):
        b_i = MPoly.one()
        for j, b in enumerate(samples):
            if j != i:
                b_i = b_i * (x - MPoly.constant(b)).scale(Fraction(1, a - b))
        basis.append(b_i)
    return tuple(basis)


def oracle_split(g):
    """The split that sampled fibres at 0, 1, -1, 2 and interpolated q from
    every combination of their rational roots (at most 4,096), so it found
    only graphs with deg q <= 3, and none in an orientation where a sampled
    fibre vanished or had no rational root."""
    comps = []
    rem = MPoly.coerce(g)
    progress = True
    while progress and not rem.is_constant():
        progress = False
        for xv, yv in (("z1", "z2"), ("z2", "z1")):
            for cand in _oracle_candidates(rem, xv, yv):
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


_graph_coeffs = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _graph(draw):
    """y - q(x), monic, with deg q <= 6 and (x, y) either way round."""
    d = draw(st.integers(0, 6))
    q = [draw(_graph_coeffs) for _ in range(d)]
    q.append(draw(_graph_coeffs.filter(bool)))
    x, y = draw(st.sampled_from([("z1", "z2"), ("z2", "z1")]))
    return (MPoly.var(y) - from_dense(q, x)).monic()


@st.composite
def _not_a_graph(draw):
    """An irreducible curve that is no graph: a conic a x^2 + b y^2 + c with
    a, b, c > 0, a smooth cubic y^2 - x^3 - c, or y^2 + c, free of x (then
    a graph over x may have the whole x-degree of the product)."""
    pos = st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3)])
    x, y = (MPoly.var(v) - MPoly.constant(draw(_graph_coeffs))
            for v in draw(st.permutations(["z1", "z2"])))
    kind = draw(st.sampled_from(["conic", "cubic", "free of x"]))
    if kind == "conic":
        return (x**2).scale(draw(pos)) + (y**2).scale(draw(pos)) + \
            MPoly.constant(draw(pos))
    if kind == "cubic":
        return y**2 - x**3 - MPoly.constant(draw(pos))
    return y**2 + MPoly.constant(draw(pos))


@given(st.lists(_graph(), min_size=1, max_size=3, unique=True),
       _not_a_graph())
@settings(max_examples=60, deadline=None)
def test_split_returns_exactly_the_graphs(graphs, rest):
    g = reduce(lambda a, b: a * b, graphs) * rest
    pieces = split_graph_components(g)
    assert set(pieces[:-1]) == set(graphs)
    assert len(pieces) == len(graphs) + 1 and pieces[-1] == rest.monic()
    for piece in pieces:
        assert piece.divides(g)
    assert g.exact_divide(reduce(lambda a, b: a * b, pieces)).is_constant()
    # the sampler it replaced finds no graph that the lift misses
    assert set(oracle_split(g)) & set(graphs) <= set(pieces)


@pytest.mark.parametrize("factors, pieces, sampled", [
    # q of degree 4: the sampler stopped at degree 3
    (["z2 - z1^4", "z2 + z1^4"], ["z1^4 + z2", "z1^4 - z2"],
     ["z1^8 - z2^2"]),
    (["z2 - z1^5 + 3*z1", "z2^2 - z1^3 - 1", "z1 - 2"],
     ["z1^5 - 3*z1 - z2", "z1 - 2", "z1^3 - z2^2 + 1"],
     ["z1 - 2", "z1^8 - z1^5*z2^2 + z1^5 - 3*z1^4 - z1^3*z2 + 3*z1*z2^2"
      " + z2^3 - 3*z1 - z2"]),
    # deg q = deg_z1 g: the lift must run to the last power
    (["z2 - z1^3 + z1", "z2^2 + 2"], ["z1^3 - z1 - z2", "z2^2 + 2"],
     ["z1^3 - z1 - z2", "z2^2 + 2"]),
    # the sampled fibre over z1 = 1, or z1 = 0, vanishes: the sampler gave
    # up on that orientation, the lift takes the next abscissa
    (["z1 - 1", "z2 - z1^2"], ["z1^2 - z2", "z1 - 1"],
     ["z1 - 1", "z1^2 - z2"]),
    (["z1", "z2"], ["z2", "z1"], ["z1*z2"]),
])
def test_split_examples(factors, pieces, sampled):
    g = reduce(lambda a, b: a * b, map(parse_poly, factors))
    assert [str(p) for p in split_graph_components(g)] == pieces
    assert [str(p) for p in oracle_split(g)] == sampled


def test_split_over_cyclotomic_fields():
    # over Q(zeta_3) a fibre with a coefficient outside Q has no roots from
    # the root finder: (z2 - w*z1^2)(z2 + z1^2) stays whole, its fibres over
    # z1 = 0 and z2 = 0 being squares.  A rational fibre still lifts to a
    # graph over Q(zeta_3): over z1 = 0, (z2 - w*z1)(z2 - z1^2 - 1) has the
    # fibre z2 (z2 - 1), whose root 0 lifts to z2 = w*z1
    g = parse_poly("z2 - w*z1^2", 3) * parse_poly("z2 + z1^2", 3)
    assert split_graph_components(g) == [g.monic()]
    g = parse_poly("z2 - w*z1", 3) * parse_poly("z2 - z1^2 - 1", 3)
    assert split_graph_components(g) == [parse_poly("z1 + z2 + w*z2", 3),
                                         parse_poly("z1^2 - z2 + 1", 3)]
