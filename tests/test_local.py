"""Local multiplicities, degree identities, quasi-homogeneous reductions."""

from fractions import Fraction

import pytest

from commend.endo2 import PlaneEndo
from commend.errors import (CommutationFails, NotIsolated,
                             PreconditionViolated, ShapeMismatch)
from commend.local import (LocalFrame, alpha_exponent, d_alpha,
                           intersection_mult, local_degree, prop2_reduce,
                           quasi_part, verify_lemma3, verify_lemma4)
from commend.mpoly import MPoly
from commend.parse import parse_map_pair, parse_poly


def endo(text):
    return PlaneEndo(*parse_map_pair(text))


DESC2 = endo("(z1^2 - 2*z2, z2^2)")
DESC3 = endo("(z1^3 - 3*z1*z2, z2^3)")


class TestIntersectionMult:
    def test_transverse(self):
        assert intersection_mult(parse_poly("z1"), parse_poly("z2")) == 1

    def test_tangency(self):
        assert intersection_mult(parse_poly("z2 - z1^2"),
                                 parse_poly("z2 - z1^3")) == 2
        assert intersection_mult(parse_poly("z2 - z1^2"),
                                 parse_poly("z2")) == 2

    def test_higher_contact(self):
        assert intersection_mult(parse_poly("z2^2 - z1^3"),
                                 parse_poly("z2")) == 3
        assert intersection_mult(parse_poly("z2^2 - z1^3"),
                                 parse_poly("z1")) == 2

    def test_rejects_common_component(self):
        with pytest.raises(NotIsolated):
            intersection_mult(parse_poly("z1*z2"), parse_poly("z1"))

    def test_divides_out_a_component_away_from_the_origin(self):
        # z2 - 1 and z1 + 1 are units at the origin: what is left is z1 and
        # z2, and z2 - z1^2 and z2
        assert intersection_mult(parse_poly("z1*z2 - z1"),
                                 parse_poly("z2^2 - z2")) == 1
        assert intersection_mult(parse_poly("z1*z2 + z2 - z1^3 - z1^2"),
                                 parse_poly("z1*z2 + z2")) == 2

    def test_symmetric(self):
        a, b = parse_poly("z2 - z1^2"), parse_poly("z2^2 - z1^3")
        assert intersection_mult(a, b) == intersection_mult(b, a)

    def test_more_shears_than_sixteen(self):
        # g1 = z1 - q(z2) and g2 = z2 (z2 - 2) ... (z2 - 17) meet at the
        # origin and at (q(r), r) = (tau*r, r) for r = 2..17, so each of the
        # shears tau = 0, 1, -1, ..., 7, -7, 8 sees a second common zero on
        # its line z1 = tau*z2; the next one, tau = -8, sees none
        z1, z2 = MPoly.var("z1"), MPoly.var("z2")
        taus = [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8]
        nodes = [(0, 0)] + [(r, tau * r) for r, tau in zip(range(2, 18), taus)]
        q = MPoly.zero()
        for x_i, y_i in nodes:
            basis = MPoly.constant(y_i)
            for x_j, _y in nodes:
                if x_j != x_i:
                    basis = (basis * (z2 - MPoly.constant(x_j))).scale(
                        Fraction(1, x_i - x_j))
            q = q + basis
        g2 = z2
        for r in range(2, 18):
            g2 = g2 * (z2 - MPoly.constant(r))
        assert intersection_mult(z1 - q, g2) == 1


class TestLocalDegree:
    def test_fixed_point_degrees(self):
        assert local_degree(LocalFrame.at(DESC2, (0, 0))) == 4
        assert local_degree(LocalFrame.at(DESC3, (0, 0))) == 9
        assert local_degree(LocalFrame.at(endo("(z1^2, z2^3)"), (0, 0))) == 6

    def test_smooth_point(self):
        assert local_degree(LocalFrame.at(endo("(z1^2 + z2, z2^2 + z1)"),
                                          (0, 0))) == 1


class TestLemmas:
    def test_lemma3_shapes(self):
        assert verify_lemma3(endo("(z1^2, z1*z2 + z2^2)"))
        assert verify_lemma3(endo("(z1^3, z2^2 + z1*z2)"))

    def test_lemma3_rejects_wrong_shape(self):
        with pytest.raises(ShapeMismatch):
            verify_lemma3(DESC2)

    def test_lemma4(self):
        assert verify_lemma4(DESC2, parse_poly("z2"))
        assert verify_lemma4(endo("(z1^2, z2^2)"), parse_poly("z2"))

    def test_lemma4_rejects_axis_preimage(self):
        with pytest.raises(ShapeMismatch):
            verify_lemma4(DESC2, parse_poly("z1^2 - 4*z2"))


class TestNewton:
    def test_alpha_exponent(self):
        assert alpha_exponent(parse_poly("z2^3 + z1^2*z2")) == 1
        # steeper support ((2-0)/1 = 2) raises the exponent
        assert alpha_exponent(parse_poly("z2^2 - 2*z1")) == 2
        # shallow support stays clamped at 1
        assert alpha_exponent(parse_poly("z2^2 + z1^3")) == 1

    def test_d_alpha_and_quasi_part(self):
        h = parse_poly("z2^3 + z1^2*z2 + z1^5")
        assert d_alpha(h, 1) == 3
        assert quasi_part(h, 1) == parse_poly("x^2*y + y^3")


class TestProp2Reduce:
    def test_case1_shifted_monomials(self):
        f1 = LocalFrame.at(endo("(z1^2, z2^2)"), (0, 0))
        f2 = LocalFrame.at(endo("(z1^3, z2^3)"), (0, 0))
        alpha, p1, p2, case = prop2_reduce(f1, f2)
        assert alpha == 1 and case == 1
        assert p1 == parse_poly("y^2") and p2 == parse_poly("y^3")

    def test_case2_chebyshev_conjugates(self):
        f1 = LocalFrame.at(endo("(z1^2, z2^2 - 2*z1^2)"), (0, 0))
        f2 = LocalFrame.at(endo("(z1^3, z2^3 - 3*z1^2*z2)"), (0, 0))
        alpha, p1, p2, case = prop2_reduce(f1, f2)
        assert alpha == 1 and case == 2
        assert p1 == parse_poly("y^2 - 2") and p2 == parse_poly("y^3 - 3*y")

    def test_case3_alpha_two(self):
        f1 = LocalFrame.at(endo("(z1^2, z2^2 - 2*z1)"), (0, 0))
        f2 = LocalFrame.at(endo("(z1^3, z2^3 - 3*z1*z2)"), (0, 0))
        alpha, p1, p2, case = prop2_reduce(f1, f2)
        assert alpha == 2 and case == 3
        assert p1 == parse_poly("y^2 - 2") and p2 == parse_poly("y^3 - 3*y")

    @pytest.mark.parametrize("d1,d2", [(2, 16), (2, 32), (4, 8), (3, 3)])
    def test_degrees_sharing_a_power_rejected(self, d1, d2):
        # 2^5 == 32 and 4^3 == 8^2: no bound on the exponents
        f1 = LocalFrame.at(endo(f"(z1^{d1}, z2^{d1})"), (0, 0))
        f2 = LocalFrame.at(endo(f"(z1^{d2}, z2^{d2})"), (0, 0))
        with pytest.raises(PreconditionViolated):
            prop2_reduce(f1, f2)

    def test_incompatible_pair(self):
        f1 = LocalFrame.at(endo("(z1^2, z2^2)"), (0, 0))
        f2 = LocalFrame.at(endo("(z1^3, z2^3 - 3*z1*z2)"), (0, 0))
        with pytest.raises(CommutationFails):
            prop2_reduce(f1, f2)
