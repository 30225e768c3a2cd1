from fractions import Fraction
from functools import partial

import pytest

from paramodular.forms import hecke_image
from paramodular.lift import (SiegelExpansion, closed_form, lift_arith, lift_exp,
                              lift_exp_of)
from paramodular.qseries import ExactDivisionError, InsufficientBoxError, div_operands
from paramodular.siegel import (SIGMA_T9, SIGMA_T36, hecke_product_T2_of, involution_V,
                                ms_p_of, reflected_sides, restrict_z, siegel_div, siegel_pow)

B = 144


def integral(ser):
    return all(isinstance(c, int) for c in ser.coeffs.values())


def test_siegel_mul_and_self_division():
    d1 = closed_form("delta1", B, B)
    sq = siegel_pow(d1, 2)
    assert sq.weight == 2
    assert sq.series.min_key() == (8, -2, 24)
    one = siegel_div(d1, d1)
    assert dict(one.series.terms()) == {(0, 0, 0): 1}
    back = siegel_div(sq, d1)
    assert back.series.first_mismatch(d1.series) is None


def test_siegel_div_remainder_raises():
    d1 = closed_form("delta1", B, B)
    d2 = closed_form("delta2", B, B)
    corrupt = d2.series + d2.series.monomial(3, d2.series.denoms, (30, 3, 36), 1)
    bad = SiegelExpansion(corrupt, 2, 2, d2.char)
    with pytest.raises(ExactDivisionError):
        siegel_div(SiegelExpansion(d1.series, 2, 1, d1.char), bad)


def test_ms2_delta1_equals_exp_of_tminus_image():
    left = ms_p_of(partial(closed_form, "delta1"), 2, B, B)
    assert left.weight == 3 and left.level == 6
    right = lift_exp_of(lambda depth: hecke_image("tminus:2", "phi_0_3", depth), B, B)
    assert left.series.first_mismatch(right.series) is None


def test_ms3_delta1_equals_exp_of_tminus_image():
    left = ms_p_of(partial(closed_form, "delta1"), 3, B, B)
    right = lift_exp_of(lambda depth: hecke_image("tminus:3", "phi_0_3", depth), B, B)
    assert left.series.first_mismatch(right.series) is None
    assert integral(left.series)


def test_ms2_delta2_is_theta_constant_pair():
    left = ms_p_of(partial(closed_form, "delta2"), 2, B, B).series
    d5_4 = closed_form("delta5", B, 60).series.substitute_linear(
        ((Fraction(1), 0, 0), (0, Fraction(2), 0), (0, 0, Fraction(4))))
    dh2 = closed_form("delta_half", B, B).series.pow(2)
    right = d5_4.mul(dh2, cap=(B, B))
    assert left.first_mismatch(right) is None


def test_ms2_delta5_over_delta2_squared_is_delta11():
    ms5, d2sq = div_operands(
        lambda q, s: ms_p_of(partial(closed_form, "delta5"), 2, q, s),
        lambda q, s: siegel_pow(closed_form("delta2", q, s), 2), (B, B))
    quot = siegel_div(ms5, d2sq)
    d11 = lift_arith("eta21_theta2z", 1, B, B)
    assert (quot.weight, quot.level) == (11, 2) == (d11.weight, d11.level)
    assert quot.series.first_mismatch(d11.series) is None


def test_ms_weight_bookkeeping():
    d1 = closed_form("delta1", 48, 48)
    out = ms_p_of(partial(closed_form, "delta1"), 2, 48, 48)
    assert out.weight == d1.weight * 3
    out3 = ms_p_of(partial(closed_form, "delta1"), 3, 24, 24)
    assert out3.weight == d1.weight * 4


def test_hecke_product_T2_route_for_delta35():
    hp, d58 = div_operands(
        lambda q, s: hecke_product_T2_of(partial(closed_form, "delta5"), q, s),
        lambda q, s: siegel_pow(closed_form("delta5", q, s), 8), (B, B))
    assert integral(hp.series)
    quot = siegel_div(hp, d58)
    assert quot.weight == 35
    d35 = lift_exp("phi_0_1_t02m2", B, B)
    assert quot.series.first_mismatch(d35.series) is None
    assert quot.series.get((72, 2, 48)) == 1
    assert quot.series.get((48, 2, 72)) == -1


def test_hecke_product_constant_form():
    from paramodular.qseries import Series
    char = closed_form("delta5", 48, 48).char.scaled(0)
    one = lambda q, s: SiegelExpansion(
        Series(3, (24, 2, 24), {(0, 0, 0): 1}, (q, None, s), (0, 0, 0)), 1, 0, char)
    out = hecke_product_T2_of(one, 48, 48)
    assert dict(out.series.terms()) == {(0, 0, 0): 1}


def test_involution_V_fixes_arith_lifts():
    for name in ("delta1", "delta2", "delta5"):
        F = closed_form(name, B, B)
        assert involution_V(F).series.first_mismatch(F.series) is None


def test_involution_V_negates_antisymmetric_lift():
    from paramodular.lift import lift_exp
    P = lift_exp("psi_0_2", B, B)
    iv = involution_V(P)
    assert iv.series.first_mismatch(P.series.scale(-1)) is None


def test_restrictions_vanish_on_humbert_slices():
    for name, alpha in (("delta1", 0), ("delta2", 0), ("delta5", 0),
                        ("delta_half", 0), ("d_half", Fraction(1, 2))):
        F = closed_form(name, B, B)
        r = restrict_z(F, alpha)
        assert not r.coeffs, name
        assert r.check().trunc == (B, None, B), name


def test_restriction_is_nonzero_elsewhere():
    F = closed_form("delta5", B, B)
    r = restrict_z(F, Fraction(1, 2))
    assert r.coeffs


@pytest.mark.parametrize("name", ["delta2", "delta5"])
def test_half_restriction_is_an_integer_sum(name):
    # the sum over r of c(q, r, s) e(r/2), with e(b/4) = i^b summed as exact
    # Gaussian integers (re, im): past one global phase, 1 or i, integers
    F = closed_form(name, B, B)
    sums = {}
    for (a, b, c), coeff in F.series.terms():
        re, im = sums.get((a, 0, c), (0, 0))
        x, y = ((1, 0), (0, 1), (-1, 0), (0, -1))[b % 4]
        sums[(a, 0, c)] = (re + coeff * x, im + coeff * y)
    part = 0 if all(im == 0 for _, im in sums.values()) else 1
    assert all(z[1 - part] == 0 for z in sums.values())
    r = restrict_z(F, Fraction(1, 2))
    assert integral(r)
    assert r.coeffs == {k: z[part] for k, z in sums.items() if z[part]}
    small = restrict_z(closed_form(name, 72, 48), Fraction(1, 2))
    assert r.restricted((72, 48)).coeffs == small.coeffs


def test_sigma_reflections_negate_singular_forms():
    d2 = closed_form("d2", 24 * 10, 24 * 48)
    left, right = reflected_sides(d2, SIGMA_T9)
    assert left.first_mismatch(right) is None
    dh = closed_form("d_half", 24 * 10, 24 * 180)
    left, right = reflected_sides(dh, SIGMA_T36)
    assert left.first_mismatch(right) is None


def test_a_reflection_with_no_image_inside_the_box_is_refused():
    # at box 6 every term of d2 is mapped past the box by its reflection
    d2 = closed_form("d2", B, B)
    assert d2.series.coeffs
    with pytest.raises(InsufficientBoxError, match="no reflected term lies inside the box"):
        reflected_sides(d2, SIGMA_T9)


def test_sigma_matrices_are_involutions():
    import itertools
    for M in (SIGMA_T9, SIGMA_T36):
        sq = [[sum(M[i][k] * M[k][j] for k in range(3)) for j in range(3)]
              for i in range(3)]
        assert sq == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
