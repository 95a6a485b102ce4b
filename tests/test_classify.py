"""Affine conjugation, iterate disjointness, pair recognition, grid search."""

import collections
import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commend import classify
from commend.classify import (SWAP, AffineConj, BudgetExceeded,
                              affine_conjugate, disjoint_iterates, recognize,
                              search)
from commend.endo2 import (PlaneEndo, commutes, compose, extends_to_p2,
                           iterate)
from commend.errors import (NotCommuting, PreconditionViolated,
                            ScalarNotSolvable)
from commend.families import (FamilyTag, chebyshev, ex1, ex2, ex3_lift,
                              ex4_descend)
from commend.field import _solve_linear, roots_of_unity
from commend.mpoly import MPoly, session_order
from commend.parse import parse_map_pair
from commend.rat1 import RatMap1
from test_algebra import field_elements, univariate
from test_reports import criterion_10_base, ex3_scaled

X = MPoly.var("x")


def endo(text):
    return PlaneEndo(*parse_map_pair(text))


DESC2 = ex4_descend(X**2)
DESC3 = ex4_descend(X**3)

units = st.sampled_from([1, -1])
shifts = st.integers(min_value=-2, max_value=2)
scales = st.sampled_from([Fraction(x) for x in
                          ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "-2/3")])
translations = st.sampled_from([Fraction(x) for x in
                                ("0", "1", "-1", "1/2", "-1/3")])
CRITERION_10_BASE = criterion_10_base()


def _match_ex3(f1, f2, order, centred):
    """The Ex3 matcher that `recognize` replaced by the homogeneity test:
    it rebuilt the centred pair through `ex3_lift`."""
    centre, h1, h2 = centred  # homogeneous h_i = affine_conjugate(f_i, centre)
    lam1 = h1.comp1.leading_coefficient()
    lam2 = h2.comp1.leading_coefficient()
    bind = {"z1": MPoly.var("s"), "z2": MPoly.var("t")}
    try:
        r1 = RatMap1(h1.comp1.scale(lam1.inverse()).substitute(bind),
                     h1.comp2.scale(lam1.inverse()).substitute(bind))
        r2 = RatMap1(h2.comp1.scale(lam2.inverse()).substitute(bind),
                     h2.comp2.scale(lam2.inverse()).substitute(bind))
        g1, g2 = ex3_lift(r1, r2, lam1, lam2)
    except (ValueError, NotCommuting, ScalarNotSolvable):
        return None
    if g1 == h1 and g2 == h2:
        return classify.Verdict("Ex3", FamilyTag("Ex3", (lam1, lam2)), centre)
    return None


def _centred_homogeneous(f1, f2):
    centre = classify._translation(f1)
    return centre is not None and all(
        sum(e) == h.degree for h in (affine_conjugate(f1, centre),
                                     affine_conjugate(f2, centre))
        for c in (h.comp1, h.comp2) for e in c.terms)


def fixed_order_verdict(f1, f2):
    """(tag, params, conjugation) of the first of Ex1, Ex2, Ex3 and Ex4 that
    matches the centred pair, Ex3 only when both centred maps are
    homogeneous (Ex4 alone when no shift centres f1)."""
    centre = classify._translation(f1)
    if centre is None:
        matchers, centred = [classify._match_ex4], None
    else:
        centred = (centre, affine_conjugate(f1, centre),
                   affine_conjugate(f2, centre))
        homogeneous = all(sum(e) == h.degree for h in centred[1:]
                          for c in (h.comp1, h.comp2) for e in c.terms)

        def ex3(*args):
            return _match_ex3(*args) if homogeneous else None

        matchers = [classify._match_ex1, classify._match_ex2, ex3,
                    classify._match_ex4]
    order = session_order(f1.comp1, f1.comp2, f2.comp1, f2.comp2)
    for matcher in matchers:
        v = matcher(f1, f2, order, centred)
        if v:
            return v.tag, v.params, v.conjugation
    return "Unknown", None, None


def _conjugated(pair, kind, p, q, t1, t2):
    s = kind(p, q, (t1, t2))
    return tuple(affine_conjugate(f, s) for f in pair)


_group = (st.sampled_from([AffineConj.diagonal, AffineConj.antidiagonal]),
          scales, scales, translations, translations)
# the five pairs the search over the (2,3) grid of -4..4 recognises
GRID_PAIRS = [
    ("(z1^2 - 2*z2, z2^2)", "(z1^3 - 3*z1*z2, z2^3)"),
    ("(z1^2 - 2, z2^2 - 2)", "(z1^3 - 3*z1, z2^3 - 3*z2)"),
    ("(z1^2 - 2, z2^2)", "(z1^3 - 3*z1, z2^3)"),
    ("(z1^2, z2^2 - 2)", "(z1^3, z2^3 - 3*z2)"),
    ("(z1^2, z2^2)", "(z1^3, z2^3)"),
]
oracle_pairs = st.one_of(
    st.builds(_conjugated, st.sampled_from(CRITERION_10_BASE).map(
        lambda base: base[1:]), *_group),
    st.builds(_conjugated, st.builds(
        ex3_scaled, st.sampled_from(["power", "chebyshev"]),
        st.sampled_from([(2, 3), (3, 2), (2, 5)]),
        st.sampled_from([Fraction(x) for x in ("-1", "2", "-2", "1/2")])),
        *_group),
    st.sampled_from([tuple(map(endo, pair)) for pair in GRID_PAIRS]))


class TestAffineConj:
    def test_identity_acts_trivially(self):
        assert affine_conjugate(DESC2, AffineConj.identity()) is DESC2
        # the zero shift of a centring solve is the identity too
        assert affine_conjugate(DESC2, AffineConj.shift(0, 0)) is DESC2

    def test_group_law(self):
        s = AffineConj.diagonal(2, -1, (1, 0))
        t = AffineConj.antidiagonal(1, 3, (0, -2))
        f = DESC2
        assert affine_conjugate(affine_conjugate(f, t), s) == \
            affine_conjugate(f, t.compose(s))

    def test_inverse(self):
        s = AffineConj.diagonal(2, -1, (1, 0))
        assert s.compose(s.inverse()) == AffineConj.identity()
        f = affine_conjugate(DESC2, s)
        assert affine_conjugate(f, s.inverse()) == DESC2

    def test_conjugation_preserves_commuting(self):
        s = AffineConj.antidiagonal(1, -1, (2, 1))
        g1 = affine_conjugate(DESC2, s)
        g2 = affine_conjugate(DESC3, s)
        assert commutes(g1, g2)

    @given(units, units, shifts, shifts)
    @settings(max_examples=20, deadline=None)
    def test_conjugation_is_action(self, a, b, t1, t2):
        s = AffineConj.diagonal(a, b, (t1, t2))
        f = affine_conjugate(DESC2, s)
        assert affine_conjugate(f, s.inverse()) == DESC2


class TestDisjointIterates:
    def test_distinct_semigroups(self):
        assert disjoint_iterates(DESC2, endo("(z1^2, z2^2)"), 64)

    def test_shared_iterate_detected(self):
        f = DESC2
        g = iterate(DESC2, 2)
        assert not disjoint_iterates(f, g, 64)
        assert not disjoint_iterates(f, f, 64)

    def test_power_collision_detected(self):
        # g = descent of x^4 satisfies g^1 = f^2 for f the x^2 descent
        assert not disjoint_iterates(ex4_descend(X**4), DESC2, 64)
        # least pair (3, 2): f^3 == g^2 at degree 64
        assert not disjoint_iterates(ex4_descend(X**4), ex4_descend(X**8), 64)


def oracle_top_forms(f):
    """The degree-d homogeneous parts of f's components as MPolys, as the
    deleted `PlaneEndo.top_forms` built them."""
    d = f.degree
    return tuple(MPoly.make(comp.vars, {e: c for e, c in comp.terms.items()
                                        if sum(e) == d})
                 for comp in (f.comp1, f.comp2))


def oracle_translation(f, target=None):
    """`_translation` with its rows read off the partials of the MPoly top
    forms."""
    d = f.degree
    wants = (MPoly.zero(),) * 2 if target is None else \
        (target.comp1, target.comp2)
    rows, rhs = [], []
    for comp, top, want in zip((f.comp1, f.comp2), oracle_top_forms(f), wants):
        dz1, dz2 = top.derivative("z1"), top.derivative("z2")
        for a in range(d):
            mono = {"z1": a, "z2": d - 1 - a}
            rows.append((dz1.coefficient_of(mono), dz2.coefficient_of(mono)))
            rhs.append(want.coefficient_of(mono) - comp.coefficient_of(mono))
    u = _solve_linear(rows, rhs)
    return None if u is None else AffineConj.shift(*u)


def oracle_descent_poly(g):
    """`_descent_poly` read off the MPoly top forms."""
    t1, t2 = oracle_top_forms(g)
    a = classify._monomial_coefficient(t1, "z1", g.degree)
    if a is None:
        return None
    h = t2.substitute({"z1": MPoly.one(), "z2": X}).scale(a.inverse())
    return None if h.is_constant() else h


@st.composite
def sparse_component(draw, order, degree):
    """A nonconstant polynomial in z1, z2 of total degree at most
    max(degree, 1), with a random subset of the monomials."""
    terms = {(i, j): draw(field_elements(order))
             for i in range(degree + 1) for j in range(degree + 1 - i)
             if draw(st.booleans())}
    p = MPoly.make(("z1", "z2"), terms)
    return p + MPoly.var("z2", max(degree, 1)) if p.is_constant() else p


@st.composite
def plane_maps(draw, order):
    """A sparse plane map of degree at most 3, its first component often of
    lower degree than the map; or a moved Ex4 descent, sometimes with a
    lower-degree part added to its first component."""
    if draw(st.booleans()):
        return PlaneEndo(*(draw(sparse_component(order, draw(st.integers(0, 3))))
                           for _ in range(2)))
    h = draw(univariate(order, min_degree=2, max_degree=3))
    f = ex4_descend(h)
    kind, p, q, t1, t2 = (draw(g) for g in _group)
    f = affine_conjugate(f, kind(p, q, (t1, t2)))
    extra = draw(sparse_component(order, f.degree - 1)) \
        if draw(st.booleans()) else MPoly.zero()
    return PlaneEndo(f.comp1 + extra, f.comp2)


class TestTopListsAgainstForms:
    """`_translation` and `_descent_poly` read the top forms as the lists of
    `endo2._top_lists`; the oracles read them as MPolys."""

    @given(st.sampled_from([1, 3]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_translation_and_descent_match_the_oracles(self, order, data):
        f = data.draw(plane_maps(order))
        # a shift of f itself makes the system consistent
        shift = AffineConj.shift(*(data.draw(translations) for _ in "12"))
        target = data.draw(st.one_of(st.none(), plane_maps(order),
                                     st.just(affine_conjugate(f, shift))))
        assert classify._translation(f) == oracle_translation(f)
        assert classify._translation(f, target) == \
            oracle_translation(f, target)
        h = classify._descent_poly(f)
        assert h == oracle_descent_poly(f)
        if f.comp1.total_degree() < f.degree:
            assert h is None

    def test_descent_of_an_ex4_map_and_of_a_lower_first_component(self):
        h = X**3 - X.scale(3) + MPoly.constant(Fraction(1, 2))
        assert classify._descent_poly(ex4_descend(h)) == h
        assert classify._descent_poly(endo("(z1 + z2, z1^2)")) is None
        assert classify._descent_poly(endo("(z1^2 + z2^2, z2^2)")) is None


class TestMonomialConjugate:
    @given(st.sampled_from([1, 3, 4]),
           st.sampled_from([AffineConj.diagonal, AffineConj.antidiagonal]),
           scales, scales, st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_affine_conjugate(self, order, kind, p, q, data):
        # (anti)diagonal L with entries rationals times roots of unity
        units = st.sampled_from(roots_of_unity(order))
        s = kind(p * data.draw(units), q * data.draw(units))
        f = data.draw(plane_maps(order))
        assert classify._monomial_conjugate(f, s) == affine_conjugate(f, s)


class TestRecognize:
    def test_ex1_grid_pair_composes_once(self, monkeypatch):
        # the Ex1 normal forms are built unchecked: the one composition is
        # recognize's precondition, wherever commutes is imported
        calls = []

        def counting(f, g):
            calls.append((f, g))
            return commutes(f, g)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("commend") and \
                    getattr(module, "commutes", None) is commutes:
                monkeypatch.setattr(module, "commutes", counting)
        v = recognize(*map(endo, GRID_PAIRS[2]))
        assert v.tag == "Ex1"
        assert len(calls) == 1

    def test_ex4_flagship(self):
        v = recognize(DESC2, DESC3)
        assert v.tag == "Ex4"

    def test_ex1(self):
        f1, f2 = ex1(2, 3, 1)
        assert recognize(f1, f2).tag == "Ex1"

    def test_ex2(self):
        assert recognize(ex2(2, "straight"), ex2(3, "straight")).tag == "Ex2"
        assert recognize(ex2(2, "straight"), ex2(3, "swap")).tag == "Ex2"

    def test_ex3_powers(self):
        assert recognize(endo("(z1^2, z2^2)"), endo("(z1^3, z2^3)")).tag == "Ex3"

    def test_monic_chebyshev_pair(self):
        f1 = endo("(z1^2 - 2, z2^2 - 2)")
        f2 = endo("(z1^3 - 3*z1, z2^3 - 3*z2)")
        v = recognize(f1, f2)
        assert v.tag == "Ex2"

    def test_rejects_iterate_sharing_pair(self):
        with pytest.raises(PreconditionViolated):
            recognize(DESC2, compose(DESC2, DESC2))

    def test_rejects_noncommuting_pair(self):
        with pytest.raises(PreconditionViolated):
            recognize(DESC2, endo("(z1^3, z2^3)"))

    def test_rejects_nonextending_pair(self):
        # the pair commutes, but the top forms z1^2 and 0 share [0:1]
        with pytest.raises(PreconditionViolated, match="extend"):
            recognize(endo("(z1^2, z2)"), endo("(z1^3, z2)"))

    def test_rejects_degree_one_map(self):
        with pytest.raises(PreconditionViolated, match="at least 2"):
            recognize(endo("(z1, z2)"), DESC2)

    def test_conjugated_inputs(self):
        for s in (AffineConj.diagonal(-1, 1), AffineConj.antidiagonal(1, 1),
                  AffineConj.diagonal(1, -1, (0, 0))):
            g1 = affine_conjugate(DESC2, s)
            g2 = affine_conjugate(DESC3, s)
            assert recognize(g1, g2).tag == "Ex4"

    def test_descent_bug_propagates(self, monkeypatch):
        # a failing ex4_descend must not read as "not a descent"
        def broken(_h):
            raise TypeError("bug")
        monkeypatch.setattr(classify, "ex4_descend", broken)
        with pytest.raises(TypeError):
            recognize(DESC2, DESC3)

    def test_verdict_reports_conjugation(self):
        v = recognize(endo("(z1^2 - 2, z2^2 - 2)"),
                      endo("(z1^3 - 3*z1, z2^3 - 3*z2)"))
        assert v.conjugation is not None

    @given(st.integers(min_value=0, max_value=19),
           st.sampled_from([AffineConj.diagonal, AffineConj.antidiagonal]),
           scales, scales, translations, translations)
    @example(0, AffineConj.diagonal, 2, 3, 1, -1)    # ex1(2, 3, 1)
    @example(14, AffineConj.diagonal, 2, 3, 1, -1)   # descents of x^2, x^3
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_the_documented_group(self, index, kind, p, q,
                                                  t1, t2):
        tag, f1, f2 = CRITERION_10_BASE[index]
        s = kind(p, q, (t1, t2))
        g1, g2 = affine_conjugate(f1, s), affine_conjugate(f2, s)
        v = recognize(g1, g2)
        assert v.tag == tag
        h1 = affine_conjugate(g1, v.conjugation)
        h2 = affine_conjugate(g2, v.conjugation)
        assert (h1, h2) == _normal_forms(v, h1, h2)

    @given(oracle_pairs)
    @example(ex3_scaled("chebyshev", (2, 3), 2))
    @example(tuple(map(endo, GRID_PAIRS[-1])))
    @settings(max_examples=40, deadline=None)
    def test_matcher_choice_matches_the_fixed_order(self, pair):
        # Ex1 and Ex2 when the centred pair is not homogeneous, Ex3 when it
        # is, and Ex4 either way: the verdict of all four in a row
        f1, f2 = pair
        v = recognize(f1, f2)
        assert (v.tag, v.params, v.conjugation) == fixed_order_verdict(f1, f2)


    @given(oracle_pairs.filter(lambda pair: _centred_homogeneous(*pair)))
    @example(tuple(map(endo, GRID_PAIRS[-1])))
    @settings(max_examples=30, deadline=None)
    def test_homogeneous_pairs_are_the_ex3_lift(self, pair):
        # the centred pair is its own Ex3 lift: the old matcher, which
        # rebuilt it through ex3_lift, always answers, with recognize's
        # verdict
        f1, f2 = pair
        centre = classify._translation(f1)
        centred = (centre, affine_conjugate(f1, centre),
                   affine_conjugate(f2, centre))
        order = session_order(f1.comp1, f1.comp2, f2.comp1, f2.comp2)
        v = _match_ex3(f1, f2, order, centred)
        assert v is not None
        w = recognize(f1, f2)
        assert (w.tag, w.params, w.conjugation) == \
            (v.tag, v.params, v.conjugation)


def _normal_forms(v, h1, h2):
    """The pair of normal forms named by a verdict's params (for Ex3, the
    conjugates themselves when they are homogeneous)."""
    if v.tag == "Ex1":
        f1, f2 = ex1(*v.params.params)
        return (f1, f2) if (h1, h2) == (f1, f2) else (f2, f1)
    if v.tag == "Ex2":
        return tuple(ex2(*m) for m in v.params.params)
    if v.tag == "Ex3":
        homogeneous = all(sum(e) == h.degree for h in (h1, h2)
                          for c in (h.comp1, h.comp2) for e in c.terms)
        return (h1, h2) if homogeneous else None
    return tuple(ex4_descend(h) for h in v.params.params)


Z1, Z2 = MPoly.var("z1"), MPoly.var("z2")


def _oracle_maps(d, coeffs):
    if d == 2:
        return [PlaneEndo(Z1**2 + Z2.scale(a) + MPoly.constant(b),
                          Z2**2 + Z1.scale(c) + MPoly.constant(e))
                for a, b, c, e in itertools.product(coeffs, repeat=4)]
    return [PlaneEndo(Z1**3 + (Z1 * Z2).scale(a) + Z1.scale(b),
                      Z2**3 + Z2.scale(e))
            for a, b, e in itertools.product(coeffs, repeat=3)]


def brute_force_search(degrees, coeffs):
    """The search report, less probe_pass, from exact commutes on every
    pair of the grid."""
    d1, d2 = degrees
    maps1 = _oracle_maps(d1, coeffs)
    pairs = list(itertools.combinations(maps1, 2) if d1 == d2 else
                 itertools.product(maps1, _oracle_maps(d2, coeffs)))
    out = {"degrees": [d1, d2], "coefficients": [str(c) for c in coeffs],
           "total_pairs": len(pairs), "commuting": 0, "extending": 0,
           "disjoint": 0, "recognized": {}, "unknown": [], "pairs": []}
    for f1, f2 in pairs:
        if not commutes(f1, f2):
            continue
        out["commuting"] += 1
        if not (extends_to_p2(f1) and extends_to_p2(f2)):
            continue
        out["extending"] += 1
        if not disjoint_iterates(f1, f2):
            continue
        out["disjoint"] += 1
        verdict = recognize(f1, f2)
        record = {"f1": f"({f1.comp1}, {f1.comp2})",
                  "f2": f"({f2.comp1}, {f2.comp2})", "tag": verdict.tag,
                  "params": str(verdict.params) if verdict.params else None}
        out["pairs"].append(record)
        if verdict.tag == "Unknown":
            out["unknown"].append(record)
        else:
            out["recognized"][verdict.tag] = \
                out["recognized"].get(verdict.tag, 0) + 1
    for key in ("pairs", "unknown"):
        out[key].sort(key=lambda r: (r["f1"], r["f2"]))
    out["recognized"] = dict(sorted(out["recognized"].items()))
    return out


def grid_tuples(d, coeffs):
    """The parameter tuples of the degree-d grid, in grid order."""
    return list(itertools.product(sorted(coeffs),
                                  repeat=classify._GRID_PARAMS[d]))


def per_map_candidate_pairs(d1, d2, maps1, maps2):
    """The candidate pairs by evaluating the separable system at each f and
    solving it for g's parameters."""
    f_only, lhs, rhs, _rest = classify._separable_system(d1, d2)
    index2 = {m: j for j, m in enumerate(maps2)}
    pairs = []
    for i, m1 in enumerate(maps1):
        point = {f"u{k}": x for k, x in enumerate(m1)}
        if any(not p.evaluate(point).is_zero() for p in f_only):
            continue
        v = _solve_linear(lhs,
                          [-p.evaluate(point).rational_value for p in rhs])
        j = None if v is None else index2.get(tuple(v))
        if j is not None and (d1 != d2 or j > i):
            pairs.append((m1, maps2[j]))
    return pairs


# a degree pair, a set of integers and at most one fraction for a grid
GRID_DRAWS = (st.sampled_from([(2, 3), (3, 2), (2, 2), (3, 3)]),
              st.sets(st.integers(-12, 12), min_size=1, max_size=5),
              st.sets(st.builds(Fraction, st.integers(-12, 12),
                                st.sampled_from([2, 3])), max_size=1))


def oracle_grid_endo(d, params):
    """`_grid_endo` before it read numbers into its terms: products and
    powers of MPolys."""
    if d == 2:
        a, b, c, e = map(MPoly.coerce, params)
        return Z1**2 + Z2 * a + b, Z2**2 + Z1 * c + e
    a, b, dd = map(MPoly.coerce, params)
    return Z1**3 + Z1 * Z2 * a + Z1 * b, Z2**3 + Z2 * dd


class TestSearch:
    @given(st.sampled_from([2, 3]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_grid_maps_match_products(self, d, data):
        numbers = st.integers(-12, 12) | st.builds(
            Fraction, st.integers(-12, 12), st.sampled_from([2, 3]))
        params = data.draw(st.lists(numbers, min_size=classify._GRID_PARAMS[d],
                                    max_size=classify._GRID_PARAMS[d]))
        assert classify._grid_endo(d, params) == oracle_grid_endo(d, params)
        names = [MPoly.var(f"u{k}") for k in range(len(params))]
        assert classify._grid_endo(d, names) == oracle_grid_endo(d, names)

    @pytest.mark.parametrize("degrees,coeffs", [
        ((2, 3), [0, 2, 3]), ((3, 2), [0, 2, 3]),
        ((2, 2), [-1, 0, 1]), ((3, 3), [-1, 0, 1])],
        ids=["2,3", "3,2", "2,2", "3,3"])
    def test_matches_brute_force(self, degrees, coeffs):
        report = search(degrees, coeffs).as_dict()
        assert report["total_pairs"] >= report.pop("probe_pass") \
            >= report["commuting"]
        assert report == brute_force_search(degrees, coeffs)

    def test_partner_system_anchors(self):
        def partner(d1, d2, params):
            system = classify._partner_system(d1, d2)
            if any(classify._evaluate(p, params) for p in system.conditions):
                return None
            return [Fraction(classify._evaluate(p, params), system.den)
                    for p in system.partner]

        # (2,2) and (3,3) force g == f; (2,3) forces c == 0 and
        # (A, B, D) == 3/2 (a, b, e)
        assert partner(2, 2, (1, -2, 3, 4)) == [1, -2, 3, 4]
        assert partner(3, 3, (1, -2, 3)) == [1, -2, 3]
        assert partner(2, 3, (2, 4, 0, 6)) == [3, 6, 9]
        assert partner(2, 3, (2, 4, 1, 6)) is None
        assert classify._partner_system(2, 3).den == 2
        assert [classify._partner_system(*d).is_f for d in
                ((2, 2), (3, 3), (2, 3), (3, 2))] == [True, True, False, False]
        # probe_pass counts the solved pairs: c == 0 and a, b, e in {0, 2}
        assert search((2, 3), [0, 2, 3]).probe_pass == 8

    @given(*GRID_DRAWS)
    @settings(max_examples=40, deadline=None)
    @example((2, 3), {0, 2, 3}, set())
    @example((2, 3), {0, 1}, {Fraction(3, 2)})
    @example((3, 2), {0, 3}, {Fraction(2, 3)})
    @example((2, 2), {-1, 0, 1}, set())
    @example((3, 3), {-1, 0, 1}, set())
    def test_candidates_match_per_map_solve(self, degrees, ints, fractions):
        # the solved system finds the pairs a solve per map of the grid finds
        coeffs = sorted(ints | fractions)
        maps = {d: grid_tuples(d, coeffs) for d in (2, 3)}
        assert classify._candidate_pairs(*degrees, coeffs) == \
            per_map_candidate_pairs(*degrees, maps[degrees[0]],
                                    maps[degrees[1]])

    def test_tall_system_rows_become_conditions(self, monkeypatch):
        # u0 and v0 also weigh z2 in the first component and z1 in the
        # second: the (2,3) system gets more linear rows than g has
        # parameters, and the rows beyond the rank must force a == 0
        real = classify._grid_endo

        def coupled(d, params):
            first = MPoly.coerce(params[0])
            c1, c2 = real(d, params)
            return c1 + Z2 * first, c2 + Z1 * first

        monkeypatch.setattr(classify, "_grid_endo", coupled)
        classify._partner_system.cache_clear()
        try:
            f_only, lhs, _rhs, _rest = classify._separable_system(2, 3)
            assert len(lhs) > len(lhs[0])
            conditions = classify._partner_system(2, 3).conditions
            assert len(conditions) > len(f_only)
            coeffs = [-1, 0, 1, 3]
            pairs = classify._candidate_pairs(2, 3, coeffs)
            assert pairs == per_map_candidate_pairs(
                2, 3, grid_tuples(2, coeffs), grid_tuples(3, coeffs))
            assert pairs and all(f[0] == 0 for f, _g in pairs)
        finally:
            classify._partner_system.cache_clear()

    def test_rank_deficient_system_raises(self, monkeypatch):
        # a g parameter seen only squared leaves a zero column: the search
        # must fail instead of dropping the pairs it could not solve for
        real = classify._grid_endo

        def squared_first(d, params):
            first, *rest = params
            return real(d, [MPoly.coerce(first) ** 2, *rest])

        monkeypatch.setattr(classify, "_grid_endo", squared_first)
        classify._partner_system.cache_clear()
        try:
            with pytest.raises(AssertionError, match="full column rank"):
                search((2, 3), [0, 1])
        finally:
            classify._partner_system.cache_clear()

    @given(*GRID_DRAWS)
    @settings(max_examples=40, deadline=None)
    @example((3, 2), set(range(-3, 4)), set())
    @example((2, 3), {0, 1}, {Fraction(3, 2)})
    def test_rest_decides_commutation(self, degrees, ints, fractions):
        # the remaining conditions at a candidate's numbers give the verdict
        # of composing its two maps
        coeffs = sorted(ints | fractions)
        d1, d2 = degrees
        rest = classify._partner_system(d1, d2).rest
        for m1, m2 in classify._candidate_pairs(d1, d2, coeffs):
            f1 = PlaneEndo(*classify._grid_endo(d1, m1))
            f2 = PlaneEndo(*classify._grid_endo(d2, m2))
            vanish = not any(classify._evaluate(p, m1 + m2) for p in rest)
            assert vanish == commutes(f1, f2), (m1, m2)

    def test_exact_checks_run_on_every_candidate(self, monkeypatch):
        # every candidate meets the remaining conditions, evaluated at its
        # numbers, in place of composition: search itself never composes,
        # and every disjoint pair meets recognize, whose own precondition
        # checks compose it once
        calls = collections.Counter()
        inside = []
        real_commutes, real_recognize = classify.commutes, classify.recognize

        def counting_commutes(f1, f2):
            calls["recognize commutes" if inside else "search commutes"] += 1
            return real_commutes(f1, f2)

        def counting_recognize(*args):
            calls["recognize"] += 1
            inside.append(True)
            try:
                return real_recognize(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(classify, "commutes", counting_commutes)
        monkeypatch.setattr(classify, "recognize", counting_recognize)
        summary = search((3, 2), range(-3, 4))
        assert summary.probe_pass > summary.commuting > 0
        assert calls == {"recognize": summary.disjoint,
                         "recognize commutes": summary.disjoint}
        assert "search commutes" not in calls

    def test_tiny_grid_vacuous(self):
        summary = search((2, 2), [-1, 0, 1])
        assert summary.total_pairs == 3240
        assert summary.unknown == []
        assert summary.commuting == 0

    def test_budget(self):
        with pytest.raises(BudgetExceeded) as err:
            search((2, 2), [0, 1], pair_budget=10)
        assert err.value.partial is not None
        assert err.value.partial.total_pairs == 10

    def test_small_grid_finds_families(self):
        # degree (2,3) over {-3..3} catches the descent pair
        summary = search((2, 3), range(-3, 4))
        assert summary.unknown == []
        assert summary.recognized.get("Ex4", 0) >= 1
        tags = set(summary.recognized)
        assert tags <= {"Ex1", "Ex2", "Ex3", "Ex4"}
