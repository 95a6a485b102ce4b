"""Acceptance suite: ten exact criteria, one pytest line each.

Every check is an exact polynomial or integer identity; there are no
tolerances anywhere.  Run with -v to get the per-criterion pass/fail lines.
"""

import itertools
import random
from fractions import Fraction

from commend.classify import (AffineConj, affine_conjugate, recognize, search)
from commend.endo2 import (PlaneEndo, check_critical_chain, commutes, compose,
                           critical_divisor, critical_orbit_finite,
                           ramified_square_invariance)
from commend.families import (EllipticCurveData, chebyshev, elliptic_lattes,
                              ex1, ex2, ex3_lift, ex4_descend, symmetrization)
from commend.local import verify_lemma3, verify_lemma4
from commend.mpoly import MPoly, poly_sqrt
from commend.parse import parse_map_pair, parse_poly
from commend.rat1 import (POINT_INF, Orbifold1, RatMap1, affine_point,
                          commutes1, compose1, is_orbifold_selfcover,
                          parabolic_check, portrait)

X, Y = MPoly.var("x"), MPoly.var("y")


def endo(text):
    return PlaneEndo(*parse_map_pair(text))


def power_line_map(d):
    return RatMap1(parse_poly(f"s^{d}"), parse_poly(f"t^{d}"))


def constructed_pairs(max_degree):
    """Commuting pairs from all four families with degrees below the cap."""
    out = []
    if max_degree >= 3:
        out.append(ex1(2, 3, 1))
        out.append((ex2(2, "straight"), ex2(3, "straight")))
        out.append(ex3_lift(power_line_map(2), power_line_map(3)))
        out.append((ex4_descend(X**2), ex4_descend(X**3)))
        out.append((ex4_descend(chebyshev(2, "monic")),
                    ex4_descend(chebyshev(3, "monic"))))
    if max_degree >= 5:
        out.append(ex1(3, 5, -1))
        out.append(ex3_lift(power_line_map(2), power_line_map(5)))
        out.append((ex4_descend(X**2), ex4_descend(X**5)))
    return out


def test_criterion_01_chebyshev_semigroup_and_pell():
    cheb = {d: chebyshev(d, "monic") for d in range(2, 65)}
    for m, n in itertools.product(range(2, 9), repeat=2):
        assert cheb[m].substitute({"x": cheb[n]}) == cheb[m * n]
    four = MPoly.constant(4)
    for d in range(2, 9):
        v = cheb[d].derivative("x").scale(Fraction(1, d))
        assert cheb[d] * cheb[d] - four == (X * X - four) * v * v


def test_criterion_02_descent_suite():
    pi = symmetrization()
    hs = [X**2, X**3, X**4, chebyshev(2, "monic"), chebyshev(3, "monic"),
          chebyshev(4, "monic")]
    descents = []
    for h in hs:
        f = ex4_descend(h)
        descents.append((h, f))
        lifted = compose(f, pi)
        hx, hy = h, h.substitute({"x": Y})
        assert lifted.comp1.substitute({"z1": X, "z2": Y}) == hx + hy
        assert lifted.comp2.substitute({"z1": X, "z2": Y}) == hx * hy
    for (h1, f1), (h2, f2) in itertools.combinations(descents, 2):
        if h1.substitute({"x": h2}) == h2.substitute({"x": h1}):
            assert commutes(f1, f2)


def test_criterion_03_critical_degree_law():
    members = []
    for f1, f2 in constructed_pairs(5):
        members.extend((f1, f2))
    members.append(ex4_descend(X**6))
    members.append(ex4_descend(chebyshev(6, "monic")))
    for f in members:
        if f.degree >= 2 and f.degree <= 6:
            assert critical_divisor(f).total_degree() == 2 * f.degree - 2


def test_criterion_04_chain_identity():
    pairs = [(f1, f2) for f1, f2 in constructed_pairs(5)
             if f1.degree <= 4 and f2.degree <= 4]
    pairs.append((ex4_descend(X**3), ex4_descend(X**4)))
    assert len(pairs) >= 5
    for f1, f2 in pairs:
        assert check_critical_chain(f1, f2)


def test_criterion_05_ramified_invariance():
    phi = parse_poly("z1^2 - 4*z2")
    for d in range(2, 6):
        for h in (X**d, chebyshev(d, "monic")):
            f = ex4_descend(h)
            w = ramified_square_invariance(f, phi, 1)
            pulled = phi.substitute({"z1": f.comp1, "z2": f.comp2})
            assert pulled == phi * w * w
            # the witness is recoverable from the quotient alone
            assert poly_sqrt(pulled.exact_divide(phi), 1) in (w, -w)


def test_criterion_06_critical_orbit_finiteness():
    pairs = [
        ex3_lift(power_line_map(2), power_line_map(3)),
        (ex4_descend(X**2), ex4_descend(X**3)),
        (ex4_descend(chebyshev(2, "monic")),
         ex4_descend(chebyshev(3, "monic"))),
        (ex4_descend(X**2), ex4_descend(X**4)),
    ]
    for f1, f2 in pairs:
        report = critical_orbit_finite(f1, f2, bound=6)
        assert report.resolved
        for entry in report.per_component.values():
            assert entry["witness"] is not None
            assert entry["distinct_curves"] <= 6


LEMMA3_SHAPES = [
    "(z1^2, z2^2)", "(z1^2, z2^2 + z1*z2)", "(z1^2, z2^3 + z1*z2)",
    "(z1^2, z2^2 + z1^2*z2)", "(z1^2, z2^3 + z1*z2^2)",
    "(z1^3, z2^2)", "(z1^3, z2^2 + z1*z2)", "(z1^3, z2^3 + z1*z2)",
    "(z1^4, z2^2 + z1*z2 + z1^2*z2)", "(z1^4, z2^3 + z1*z2^2)",
]

LEMMA4_SHAPES = [
    ("(z1^2 - 2*z2, z2^2)", "z2"), ("(z1^2 - 2*z2, z2^2)", "z2 - z1^2"),
    ("(z1^2, z2^2)", "z2"), ("(z1^2, z2^2)", "z2 - z1^2"),
    ("(z1^3, z2^3)", "z2"), ("(z1^3, z2^3)", "z2 - z1^2"),
    ("(z1^3 - 3*z1*z2, z2^3)", "z2"), ("(z1^2 + z1*z2, z2^2)", "z2"),
    ("(z1^2, z2^3)", "z2"), ("(z1^4, z2^2)", "z2 - z1^2"),
]


def test_criterion_07_local_lemma_suite():
    assert len(LEMMA3_SHAPES) + len(LEMMA4_SHAPES) == 20
    for text in LEMMA3_SHAPES:
        assert verify_lemma3(endo(text))
    for ftext, curve in LEMMA4_SHAPES:
        assert verify_lemma4(endo(ftext), parse_poly(curve))


def test_criterion_08_orbifold_suite():
    accepted = set()
    points = [POINT_INF, affine_point(0), affine_point(1), affine_point(-1)]
    for length in range(1, 5):
        for weights in itertools.combinations_with_replacement(
                range(2, 8), length):
            orb = Orbifold1(tuple(zip(points[:length], weights)))
            if parabolic_check(orb):
                accepted.add(tuple(sorted(weights, reverse=True)))
    assert accepted == {(3, 3, 3), (6, 3, 2), (4, 4, 2), (2, 2, 2, 2)}

    curve = EllipticCurveData(-1, 0)
    orb = Orbifold1(tuple((p, 2) for p in points))
    dup = elliptic_lattes(curve, 2)
    trip = elliptic_lattes(curve, 3)
    assert is_orbifold_selfcover(dup, orb)
    assert is_orbifold_selfcover(trip, orb)
    assert commutes1(dup, trip)
    assert compose1(dup, trip) == elliptic_lattes(curve, 6)
    assert portrait(dup, orb).case == "O4-even-all-to-one"
    assert portrait(trip, orb).case == "O4-odd"


def test_criterion_09_desk_scale_search():
    coeffs = range(-4, 5)
    s23 = search((2, 3), coeffs)
    assert s23.unknown == []
    assert s23.recognized.get("Ex4", 0) >= 1
    assert set(s23.recognized) <= {"Ex1", "Ex2", "Ex3", "Ex4"}
    # reproducible bit-exact summary
    assert search((2, 3), coeffs).as_dict() == s23.as_dict()
    s22 = search((2, 2), coeffs)
    assert s22.unknown == []


def test_criterion_10_round_trip_recognition():
    base = []
    for d1, d2, lam in [(2, 3, 1), (3, 2, 1), (2, 5, 1), (4, 3, 1),
                        (3, 5, -1), (5, 3, -1)]:
        base.append(("Ex1", ex1(d1, d2, lam)))
    for (da, va), (db, vb) in [((2, "straight"), (3, "straight")),
                               ((2, "straight"), (3, "swap")),
                               ((3, "straight"), (5, "straight")),
                               ((2, "swap"), (3, "swap"))]:
        base.append(("Ex2", (ex2(da, va), ex2(db, vb))))
    for a, b in [(2, 3), (2, 5), (3, 4), (3, 5)]:
        base.append(("Ex3", ex3_lift(power_line_map(a), power_line_map(b))))
    for h1, h2 in [(X**2, X**3), (X**2, X**5), (X**3, X**4),
                   (chebyshev(2, "monic"), chebyshev(3, "monic")),
                   (chebyshev(2, "monic"), chebyshev(5, "monic")),
                   (chebyshev(3, "monic"), chebyshev(4, "monic"))]:
        base.append(("Ex4", (ex4_descend(h1), ex4_descend(h2))))
    assert len(base) == 20

    rng = random.Random(7)
    conjs = [AffineConj.diagonal(1, -1), AffineConj.diagonal(-1, 1),
             AffineConj.diagonal(-1, -1), AffineConj.antidiagonal(1, 1),
             AffineConj.antidiagonal(-1, -1), AffineConj.identity()]
    cases = [(tag, f1, f2) for tag, (f1, f2) in base]
    for tag, (f1, f2) in base:
        s = rng.choice(conjs)
        cases.append((tag, affine_conjugate(f1, s), affine_conjugate(f2, s)))
    assert len(cases) == 40
    for tag, f1, f2 in cases:
        assert recognize(f1, f2).tag == tag
