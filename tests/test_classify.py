"""Affine conjugation, iterate disjointness, pair recognition, grid search."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commend import classify
from commend.classify import (SWAP, AffineConj, BudgetExceeded,
                              affine_conjugate, disjoint_iterates, recognize,
                              search)
from commend.endo2 import PlaneEndo, commutes, compose, iterate
from commend.errors import NotExtendable, PreconditionViolated
from commend.families import chebyshev, ex1, ex2, ex4_descend
from commend.mpoly import MPoly
from commend.parse import parse_map_pair

X = MPoly.var("x")


def endo(text):
    return PlaneEndo(*parse_map_pair(text))


DESC2 = ex4_descend(X**2)
DESC3 = ex4_descend(X**3)

units = st.sampled_from([1, -1])
shifts = st.integers(min_value=-2, max_value=2)


class TestAffineConj:
    def test_identity_acts_trivially(self):
        assert affine_conjugate(DESC2, AffineConj.identity()) == DESC2

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


class TestRecognize:
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

    def test_conjugated_inputs(self):
        for s in (AffineConj.diagonal(-1, 1), AffineConj.antidiagonal(1, 1),
                  AffineConj.diagonal(1, -1, (0, 0))):
            g1 = affine_conjugate(DESC2, s)
            g2 = affine_conjugate(DESC3, s)
            assert recognize(g1, g2).tag == "Ex4"

    def test_infinity_class_failure_keeps_default_order(self, monkeypatch):
        def no_class(_r):
            raise NotExtendable("no class")
        monkeypatch.setattr(classify, "classify_infinity", no_class)
        assert recognize(DESC2, DESC3).tag == "Ex4"

    def test_infinity_class_bug_propagates(self, monkeypatch):
        def broken(_r):
            raise TypeError("bug")
        monkeypatch.setattr(classify, "classify_infinity", broken)
        with pytest.raises(TypeError):
            recognize(DESC2, DESC3)

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


class TestSearch:
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
