from fractions import Fraction
from functools import partial
from math import gcd, isqrt

import pytest

from paramodular import forms, lift
from paramodular.chars import divisors, v_eta_sigma
from paramodular.forms import catalog, combo, eta_power, ratio, theta_series
from paramodular.hecke import t0, t_minus_char, t_minus_weight0
from paramodular.lift import (InsufficientBoxError, _exp_plan, arith_lift, closed_form,
                              divisor_multiplicity, exp_lift, lemma22_checksum,
                              lift_arith, lift_exp, vt_parity)

B = 144


def test_closed_form_spot_values():
    d1 = closed_form("delta1", B, B)
    assert d1.coeff_at(Fraction(1, 6), Fraction(1, 2), Fraction(1, 2)) == 1
    assert d1.coeff_at(Fraction(1, 6), Fraction(-1, 2), Fraction(1, 2)) == -1
    dh = closed_form("delta_half", B, B)
    assert dh.coeff_at(Fraction(1, 8), Fraction(1, 2), Fraction(1, 2)) == 1


def test_closed_form_unknown_name():
    with pytest.raises(KeyError):
        closed_form("delta9", B, B)


def test_delta1_primitive_coefficients_in_unit_range():
    from math import gcd
    d1 = closed_form("delta1", B, B)
    for (a, b, c), v in d1.series.terms():
        n, l, m = a // 4, b, c // 12
        if gcd(gcd(n, abs(l)), m) == 1:
            assert v in (-1, 0, 1), (n, l, m, v)


def test_arith_lift_first_fourier_jacobi_slice():
    phi = catalog("eta9_theta", 24 * 80)
    F = arith_lift(phi, 1, B, B)
    got = {(a, b): c for (a, b, cc), c in F.series.terms() if cc == 12}
    want = {k: c for k, c in phi.series.terms() if k[0] <= B}
    assert got == want


def test_arith_lift_exponent_swap_symmetry():
    for name in ("eta1_theta", "eta3_theta32"):
        F = lift_arith(name, 1, B, B)
        tQ = F.level
        for (a, b, c), v in F.series.terms():
            alpha, gamma = Fraction(a, 24), Fraction(c, 24)
            a2 = gamma / tQ * 24
            c2 = tQ * alpha * 24
            if a2.denominator == 1 and c2.denominator == 1 and \
                    a2 <= B and c2 <= B:
                assert F.series.get((a2.numerator, b, c2.numerator)) == v


def test_arith_lift_requires_even_divisor_character():
    with pytest.raises(ValueError):
        arith_lift(catalog("theta", 96), 1, B, B)   # half-integral weight
    shallow = eta_power(1, 72) * theta_series(72)
    with pytest.raises(InsufficientBoxError):
        arith_lift(shallow, 1, B, B)


def _lift_by_divisor_sum(phi, mu, qmax, smax):
    # the lift's coefficient formula term by term, over N, M > 0 congruent
    # to mu mod Q and L = eps mod 2, with 4 (N/Q)(M t) >= (L/2)^2
    D = phi.char.D or 24
    Q, k, t, eps = 24 // D, phi.weight.numerator, phi.index, phi.char.eps
    want = {}
    for N in range(mu, qmax // D + 1, Q):
        for M in range(mu, int(Fraction(smax, 24) / t) + 1, Q):
            lb = isqrt(int(16 * N * M * t / Q)) + 1
            for L in range(-lb + (lb - eps) % 2, lb + 1, 2):
                c = sum(a ** (k - 1) * v_eta_sigma(a, D)
                        * phi.series.get((N * M * D // (a * a), L // a))
                        for a in divisors(gcd(gcd(N, M), L)))
                if c:
                    want[(N * D, L, int(24 * M * t))] = c
    return want


@pytest.mark.parametrize("phi, mu", [
    ("E4_1", 1), ("E6_1", 1),             # a q^0 row, which the lift drops
    ("eta5_theta", 1), ("eta5_theta", 2),  # eps = 1 and Q = 3: M may be even
])
def test_arith_lift_keeps_positive_n_and_the_parity_of_l(phi, mu):
    if phi == "eta5_theta":
        phi = eta_power(5, 24 * 32) * theta_series(24 * 32)
        assert (phi.char.D, phi.char.eps) == (8, 1)
        with pytest.raises(ValueError, match="coprime"):
            t_minus_char(phi, 2)
    else:
        phi = catalog(phi, 24 * 16)
        assert any(n == 0 for n, _ in t_minus_char(phi, 1).series.coeffs)
    F = arith_lift(phi, mu, 96, 96)
    F.series.check()
    assert all(q > 0 and (l - phi.char.eps) % 2 == 0 for q, l, _ in F.series.coeffs)
    if phi.char.eps:
        assert any(Fraction(s, 24) / phi.index % 2 == 0 for *_, s in F.series.coeffs)
    assert F.series.coeffs and F.series.coeffs == _lift_by_divisor_sum(phi, mu, 96, 96)


def test_arith_lift_vanishing_mu_is_reported_not_raised():
    # mu classes without support produce the zero expansion
    F = arith_lift(catalog("eta1_theta", 24 * 40), 5, 96, 96)
    assert not F.series.coeffs


def test_sum_equals_product_small_box():
    pairs = [("delta1", "eta1_theta", "phi_0_3"),
             ("delta2", "eta3_theta", "phi_0_2"),
             ("delta5", "eta9_theta", "phi_0_1"),
             ("d2", "eta3_theta32", "phi_0_9"),
             ("d1", "eta1_theta32", "phi_0_18")]
    for closed_name, arith_name, exp_name in pairs:
        cf = closed_form(closed_name, B, B)
        al = lift_arith(arith_name, 1, B, B)
        el = lift_exp(exp_name, B, B)
        assert cf.series.first_mismatch(al.series) is None, closed_name
        assert cf.series.first_mismatch(el.series) is None, closed_name


def test_exp_lift_leading_monomials():
    # graded-lex order puts the negative-r partner first on the lowest slice
    el = lift_exp("phi_0_3", B, B)
    k = el.series.min_key()
    assert (k, el.series.coeffs[k]) == ((4, -1, 12), -1)
    assert el.series.get((4, 1, 12)) == 1
    assert el.weight == 1 and el.level == 3
    el4 = lift_exp("phi_0_4", B, B)
    assert el4.series.get((3, 1, 12)) == 1
    assert el4.weight == Fraction(1, 2)


def test_exp_lift_of_zero_is_one():
    zero = catalog("phi_0_3", 96).scale(0)
    out = exp_lift(zero, 96, 96)
    assert dict(out.series.terms()) == {(0, 0, 0): 1}


def test_exp_lift_rejects_bad_inputs():
    with pytest.raises(ValueError):
        exp_lift(catalog("theta", 96), 96, 96)       # weight 1/2
    with pytest.raises(InsufficientBoxError):
        exp_lift(catalog("phi_0_1", 480).restricted(48), 24 * 10, 24 * 10)


def test_delta35_head():
    d35 = lift_exp("phi_0_1_t02m2", 96, 96)
    assert d35.series.get((72, 2, 48)) == 1       # q^3 r s^2
    assert d35.series.get((48, 2, 72)) == -1      # -q^2 r s^3
    assert d35.weight == Fraction(70, 2)


def test_lemma22_checksum_zero_on_catalog():
    names = ["phi_0_1", "phi_0_2", "phi_0_3", "phi_0_4", "phi_0_5", "phi_0_9",
             "phi_0_10", "phi_0_18", "phi_0_36", "xi_0_6", "xi_0_12",
             "phi_0_2_11", "phi_0_3_6", "phi_0_1_t02m2", "psi_0_2", "psi_0_3",
             "psi_0_4", "phi_0_6_a", "phi_0_6_b", "phi_0_6_c", "phi_0_7"]
    for name in names:
        assert lemma22_checksum(catalog(name, 24 * 8)) == 0, name


def test_lemma22_checksum_hand_values():
    # t*sum f(0,l) - 0 - 6*sum l^2 f(0,l) on the printed q^0 rows
    p3 = catalog("phi_0_3", 96)
    assert 3 * 4 - 6 * 2 == 0
    assert lemma22_checksum(p3) == 0
    p1 = catalog("phi_0_1", 96)
    assert 1 * 12 - 6 * 2 == 0
    assert lemma22_checksum(p1) == 0


def test_diagnostics_refuse_non_integral_exponents():
    # phi_1_4 = eta^2 phi_0_4 has q-exponents in 1/12 + Z: flooring them
    # would read a zero checksum and an even parity off a weight-1 form
    p = catalog("phi_1_4", 96)
    assert p.series.get((2, 0))
    for diagnostic in (lemma22_checksum, vt_parity):
        with pytest.raises(ValueError, match="not integral"):
            diagnostic(p)


def test_divisor_multiplicities():
    assert divisor_multiplicity(catalog("phi_0_3", 24 * 40), 1, 1) == 1
    assert divisor_multiplicity(catalog("phi_0_2", 24 * 40), 1, 1) == 1
    p5 = catalog("phi_0_5", 24 * 40)
    assert divisor_multiplicity(p5, 1, 1) == 7
    assert divisor_multiplicity(p5, 4, 2) == 1
    p10 = catalog("phi_0_10", 24 * 40)
    assert divisor_multiplicity(p10, 1, 1) == 2
    assert divisor_multiplicity(p10, 4, 2) == 1
    with pytest.raises(ValueError):
        divisor_multiplicity(p5, 2, 1)


def test_divisor_multiplicity_box_dependence():
    # the (1, 9) family of the index-10 form: at the default box only the
    # n = 1 term is visible (the printed table value); a deeper box adds the
    # n = 2 term f(8, 18) = f(0, -2) = 1 forced by the elliptic
    # transformation law f(n, l) = f(n + l + t, l + 2t)
    p10 = catalog("phi_0_10", 24 * 40)
    assert p10.series.get((192, 36)) == p10.series.get((0, -4)) == 1
    assert divisor_multiplicity(p10.restricted(144), 1, 9) == 1
    assert divisor_multiplicity(p10, 1, 9) == 2


def test_vt_parity():
    assert vt_parity(catalog("phi_0_3", 96)) == 0
    for name in ("psi_0_2", "psi_0_3", "psi_0_4", "phi_0_1_t02m2"):
        assert vt_parity(catalog(name, 96)) == 1, name


def test_d6_both_routes():
    al = lift_arith("eta11_theta32", 1, B, B)
    el = lift_exp("phi_0_3_6", B, B)
    assert al.series.first_mismatch(el.series) is None
    assert al.series.get((12, 1, 36)) == 1   # q^(1/2) r^(1/2) s^(3/2)


def test_delta11_both_routes():
    al = lift_arith("eta21_theta2z", 1, B, B)
    el = lift_exp("phi_0_2_11", B, B)
    assert al.series.first_mismatch(el.series) is None
    k = al.series.min_key()
    assert (k, al.series.coeffs[k]) == ((24, -2, 48), -1)


def test_exp_lift_depth8_spot_check():
    # identity retest at the deeper spot-check box
    deep = 24 * 8
    cf = closed_form("delta1", deep, deep)
    el = lift_exp("phi_0_3", deep, deep)
    assert cf.series.first_mismatch(el.series) is None
    al = lift_arith("eta1_theta", 1, deep, deep)
    assert cf.series.first_mismatch(al.series) is None
    assert al.mu == 1 and al.level == 3


# every exp- and arith-lift input of the identity registry
REGISTRY_EXP = ("phi_0_1", "phi_0_2", "phi_0_3", "phi_0_4", "phi_0_36", "phi_0_9",
                "phi_0_18", "phi_0_3_6", "phi_0_2_11", "phi_0_5", "phi_0_5_alt",
                "phi_0_6_a", "phi_0_6_b", "phi_0_6_c", "phi_0_7", "phi_0_10",
                "phi_0_1_t02m2")
REGISTRY_ARITH = (("eta9_theta", 1), ("eta3_theta", 1), ("eta1_theta", 1),
                  ("eta3_theta32", 1), ("eta1_theta32", 1), ("eta11_theta32", 1),
                  ("eta21_theta2z", 1), ("eta3_theta6_theta2z", 1),
                  ("eta6_theta_theta2z", 1), ("eta3_theta2_theta2z", 1),
                  ("eta5_theta2z", 1), ("eta5_theta2z", 2), ("theta3_theta2z", 1),
                  ("theta_theta2z", 1))


def _requested_depth(monkeypatch, run):
    """The last catalog depth that ``run`` asks lift.py for."""
    asked = []

    def spy(name, qmax):
        asked.append(qmax)
        return catalog(name, qmax)

    monkeypatch.setattr(lift, "catalog", spy)
    run()
    monkeypatch.undo()
    return asked[-1]


@pytest.mark.parametrize("box", (2, 3))
def test_lift_plans_request_exactly_enough_input(monkeypatch, box):
    b = 24 * box
    for name in REGISTRY_EXP:
        need = _requested_depth(monkeypatch, lambda: lift_exp(name, b, b))
        phi = catalog(name, need)
        exp_lift(phi.restricted(need), b, b)
        with pytest.raises(InsufficientBoxError):
            exp_lift(phi.restricted(need - 1), b, b)
    for name, mu in REGISTRY_ARITH:
        need = _requested_depth(monkeypatch, lambda: lift_arith(name, mu, b, b))
        phi = catalog(name, need)
        arith_lift(phi.restricted(need), mu, b, b)
        if need > 24:   # below the 24-numerator floor one less still suffices
            with pytest.raises(InsufficientBoxError):
                arith_lift(phi.restricted(need - 1), mu, b, b)


# the exp-lift inputs of the identity registry that are Hecke images, as
# identities.py builds them
HECKE_EXP_BUILDS = {
    "tminus:2 phi_0_3": ratio([("T", "tminus:2", "phi_0_3")]),
    "tminus:3 phi_0_3": ratio([("T", "tminus:3", "phi_0_3")]),
    "tminus:2 phi_0_4": ratio([("T", "tminus:2", "phi_0_4")]),
    "tminus:3 phi_0_2": ratio([("T", "tminus:3", "phi_0_2")]),
    "tminus:3 phi_0_1 - 4 phi_0_3": combo((1, [("T", "tminus:3", "phi_0_1")]),
                                          (-4, ["phi_0_3"])),
}


def _exp_builds():
    """name -> builder of every weight-0 catalog form of integral index and
    of the Hecke-image exp-lift inputs."""
    names = [n for n in forms.registry_names()
             if (f := catalog(n, 0)).weight == 0 and f.index.denominator == 1]
    return {**{n: partial(catalog, n) for n in names}, **HECKE_EXP_BUILDS}


@pytest.mark.parametrize("box", range(1, 9))
def test_exp_plan_of_the_depth_0_probe_is_the_plan_of_the_input(box):
    # lift_exp_of plans from build(0), exp_lift again from the input built
    # at the planned depth; past depth 480 (box 5 at index 1) the input is
    # taken at 480, whose rows n <= 0 are those of any deeper build
    b = 24 * box
    for name, build in _exp_builds().items():
        probe = _exp_plan(build(0), b, b)
        full = _exp_plan(build(min(probe.depth, 480)), b, b)
        assert probe._replace(fmap=None) == full._replace(fmap=None), name
        assert probe.fmap == {k: c for k, c in full.fmap.items() if k[0] <= 0}, name


def test_a_cold_exp_lift_builds_each_catalog_form_once(monkeypatch):
    # the depth-0 probe asks no builder for a whole power of q (phi_2_2, a
    # divisor inside phi_0_2, is asked for 4 numerators); the parent
    # probed at 96 and built everything again at 120
    depths = {}
    for name, (builder, *rest) in list(forms._CATALOG.items()):
        def counted(qmax, name=name, builder=builder):
            depths.setdefault(name, []).append(qmax)
            return builder(qmax)
        monkeypatch.setitem(forms._CATALOG, name, (counted, *rest))
    monkeypatch.setattr(forms, "_CACHE", {})
    lift_exp("phi_0_6_a", 120, 120)
    assert {"phi_0_6_a", "phi_0_2", "phi_0_3", "phi_0_4"} <= set(depths)
    for name, asked in depths.items():
        assert len([d for d in asked if d >= 24]) <= 1, (name, asked)
