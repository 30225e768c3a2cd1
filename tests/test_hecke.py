from fractions import Fraction
from math import gcd, isqrt

import pytest

from paramodular import hecke
from paramodular.forms import catalog, eta_power, theta_series
from paramodular.hecke import (HeckeDescriptor, gauss_sum, lambda_op, lambda_star,
                               t0, t0_norm_formula, t_minus_char, t_minus_weight0,
                               t_plus_1_4, t_plus_2)
from paramodular.qseries import InsufficientBoxError

from oracles import gauss_sum_bruteforce

B = 24 * 40


def q0(form):
    return {l2 // 2: c for l2, c in form.q_slice(0).items()}


def test_printed_head_rows():
    rows = {
        ("phi_0_1", 2): {2: 1, 1: 2, 0: 30, -1: 2, -2: 1},
        ("phi_0_1", 3): {3: 1, 1: 3, 0: 40, -1: 3, -3: 1},
        ("phi_0_2", 2): {2: 1, 1: 2, 0: 12, -1: 2, -2: 1},
        ("phi_0_2", 3): {3: 1, 1: 3, 0: 16, -1: 3, -3: 1},
        ("phi_0_3", 2): {2: 1, 1: 2, 0: 6, -1: 2, -2: 1},
        ("phi_0_3", 3): {3: 1, 1: 3, 0: 8, -1: 3, -3: 1},
        ("phi_0_4", 2): {2: 1, 1: 2, 0: 3, -1: 2, -2: 1},
    }
    for (name, m), want in rows.items():
        img = t_minus_weight0(catalog(name, 24 * 8 * m), m)
        assert q0(img) == want, (name, m)


def test_t_minus_identity_and_index():
    p3 = catalog("phi_0_3", 96)
    img = t_minus_weight0(p3, 1)
    assert img.series.first_mismatch(p3.series) is None
    img2 = t_minus_weight0(catalog("phi_0_3", 192), 2)
    assert img2.index == 6


def test_t_minus_constant_term_law():
    from math import prod
    for m in (2, 3, 4, 6):
        img = t_minus_weight0(catalog("phi_0_1", 24 * 6 * m), m)
        sigma1 = sum(d for d in range(1, m + 1) if m % d == 0)
        assert img.f(0, 0) == sigma1 * catalog("phi_0_1", 96).f(0, 0)


def test_t_minus_multiplicativity_on_coprime_pairs():
    p1 = catalog("phi_0_1", 24 * 48)
    for m1, m2 in ((2, 3), (2, 5), (3, 5)):
        a = t_minus_weight0(t_minus_weight0(p1, m1), m2)
        b = t_minus_weight0(p1, m1 * m2)
        assert a.series.first_mismatch(b.series) is None, (m1, m2)
    # and at a prime square: T(p) T(p) = T(p^2) + p lambda_p, the relation
    # V_p V_p = V_(p^2) + p^(k-1) U_p of Eichler-Zagier section 4 at weight 0,
    # as T(m) = m V_m
    p1 = catalog("phi_0_1", 24 * 64)
    for p in (2, 3):
        a = t_minus_weight0(t_minus_weight0(p1, p), p)
        b = t_minus_weight0(p1, p * p).series + lambda_op(p1, p).scale(p).series
        assert a.series.first_mismatch(b) is None, p


def test_t_minus_is_the_divisor_sum_of_its_docstring():
    # f_m(N, L) = m sum_{a | (N, L, m)} a^(-1) f(N m / a^2, L / a)
    phi = catalog("phi_0_1", 24 * 72)
    for m in (4, 8, 9):
        img = t_minus_weight0(phi, m)
        want = {}
        for N in range(img.qmax // 24 + 1):
            lb = isqrt(4 * m * N + m * m) + 1
            for L in range(-lb, lb + 1):
                c = sum(m // a * phi.f(Fraction(N * m, a * a), Fraction(L, a))
                        for a in range(1, m + 1) if gcd(gcd(N, L), m) % a == 0)
                if c:
                    want[(24 * N, 2 * L)] = c
        assert img.series.coeffs == want, m


def test_lambda_on_theta():
    th = theta_series(96)
    img = lambda_op(th, 2)
    assert img.index == 2 and img.char.eps == 0
    assert img.series.first_mismatch(theta_series(96, 2).series) is None
    assert lambda_op(th, 1).series.first_mismatch(th.series) is None


def test_lambda_on_xi_gives_xi_0_6():
    xi = catalog("xi_0_3half", 96)
    img = lambda_op(xi, 2)
    assert img.series.first_mismatch(catalog("xi_0_6", 96).series) is None
    assert img.index == 6


def test_example_1_15_leading_slice_and_sign():
    phi = catalog("eta5_theta2z", 24 * 50)
    img = t_minus_char(phi, 2)
    assert img.index == 4 and img.weight == 3 and img.char.D == 16
    # leading slice q^(2/3) r^(-3) (1 - r^2)(1 - r)^4
    want = {-3: 1, -2: -4, -1: 5, 1: -5, 2: 4, 3: -1}
    got = {l2 // 2: c for l2, c in
           {k[1]: c for k, c in img.series.terms() if k[0] == 16}.items()}
    assert got == want
    # and the image is -(eta theta^4 theta(2z)) on the full shared box
    th = theta_series(24 * 24)
    tgt = eta_power(1, 24 * 24) * th * th * th * th * theta_series(24 * 24, 2)
    assert img.series.first_mismatch(tgt.scale(-1).series) is None


def test_t_minus_char_identity():
    phi = catalog("eta5_theta2z", 96)
    img = t_minus_char(phi, 1)
    assert img.series.first_mismatch(phi.series) is None


def test_t_minus_char_coprimality():
    with pytest.raises(ValueError):
        t_minus_char(catalog("eta5_theta2z", 96), 3)   # Q = 3


def test_gauss_sum_closed_cases():
    assert gauss_sum(3, 0, 1, 3) == 0
    assert gauss_sum(2, 1, 0, 1) == 0          # 2 * (-4/2) = 0
    assert gauss_sum(3, 0, 0, 3) == 3 * 2
    assert gauss_sum(3, 1, 0, 3) == -3


def test_gauss_sum_bruteforce_agreement():
    # acceptance criterion: p in {2,3,5,7}, t in 1..10, n,l in 0..p^2-1
    memo = {}
    for p in (2, 3, 5, 7):
        for t in range(1, 11):
            for n in range(p * p):
                for l in range(p * p):
                    key = (p, n % p, l % p, t % p)
                    if key not in memo:
                        memo[key] = gauss_sum_bruteforce(p, n, l, t)
                    assert memo[key] == gauss_sum(p, n, l, t), (p, n, l, t)


def test_t0_printed_rows():
    assert q0(t0(catalog("phi_0_2", 24 * 40), 2)) == {2: 2, 0: 44, -2: 2}
    assert q0(t0(catalog("phi_0_3", 24 * 60), 3)) == {3: 2, 0: 68, -3: 2}
    p = 3
    assert q0(t0(catalog("phi_0_4", 24 * 60), 3)) == \
        {p: 1, 1: p, 0: p ** 3 + 1, -1: p, -p: 1}


def test_t0_2_on_phi_0_4_is_phi_0_1_doubled():
    img = t0(catalog("phi_0_4", 24 * 100), 2)
    tgt = catalog("phi_0_1", 24 * 25).rescale_z(2)
    assert img.series.first_mismatch(tgt.series) is None


def test_t0_good_reduction_norm_formula():
    for name, p in (("phi_0_1", 2), ("phi_0_1", 3), ("phi_0_3", 2)):
        phi = catalog(name, 24 * 9 * 6)
        a = t0(phi, p)
        b = t0_norm_formula(phi, p)
        box = min(a.qmax, b.qmax)
        assert a.series.first_mismatch(b.series, (box,)) is None, (name, p)


def test_t_plus_2_gives_4_phi_0_1():
    img = t_plus_2(catalog("phi_0_2", 24 * 16))
    tgt = catalog("phi_0_1", 24 * 8).scale(4)
    assert img.series.first_mismatch(tgt.series) is None


def test_t_plus_2_zero_and_preconditions():
    from paramodular.qseries import Series
    zero = catalog("phi_0_2", 96).scale(0)
    out = t_plus_2(zero)
    assert not out.series.coeffs
    with pytest.raises(ValueError):
        t_plus_2(catalog("phi_0_3", 96))


def test_lambda_star_annihilates_phi_0_4():
    out = lambda_star(catalog("phi_0_4", 24 * 60), 2)
    assert not out.series.coeffs
    assert out.index == 1


def test_lambda_star_composition_constant():
    p1 = catalog("phi_0_1", 24 * 40)
    comp = lambda_star(lambda_op(p1, 2), 2)
    assert comp.series.first_mismatch(p1.scale(16).series) is None


def test_t_plus_1_4_gives_8_phi_0_1():
    img = t_plus_1_4(catalog("phi_0_4", 24 * 330))
    tgt = catalog("phi_0_1", 24 * 8).scale(8)
    assert img.qmax >= 24 * 4
    assert img.series.first_mismatch(tgt.series) is None


def test_t_plus_1_4_matches_operator_composition():
    phi = catalog("phi_0_4", 24 * 330)
    via = lambda_star(t0(phi, 2), 2).scale_div(2)
    direct = t_plus_1_4(phi)
    assert via.series.first_mismatch(direct.series) is None


def test_character_bookkeeping():
    th = theta_series(96)
    assert lambda_op(th, 2).char.eps == 0
    assert lambda_op(th, 3).char.eps == 1
    img = t_minus_weight0(catalog("phi_0_3", 96), 2)
    assert img.char == catalog("phi_0_3", 96).char
    # conjugation for m = -1 mod Q
    img2 = t_minus_char(catalog("eta5_theta2z", 24 * 30), 2)   # Q = 3, m = -1
    assert img2.char.D == (-8) % 24


def test_descriptor_parsing_and_apply():
    d = HeckeDescriptor.parse("tminus:3")
    assert d.kind == "tminus" and d.param == 3
    img = d.apply(catalog("phi_0_2", 24 * 9))
    assert img.index == 6
    with pytest.raises(ValueError):
        HeckeDescriptor("bogus").apply(catalog("phi_0_2", 96))
    with pytest.raises(ValueError, match="positive index"):
        HeckeDescriptor.parse("t0:2").image("E4", 48)


def test_operators_preserve_norm_dependence():
    img = t_minus_weight0(catalog("phi_0_1", 24 * 24), 2)
    img.norm_map()   # raises if the image is not norm-dependent
    img2 = t0(catalog("phi_0_1", 24 * 40), 2)
    img2.norm_map()


# one representative catalog form for every operator kind
PLANNED = [("lambda:2", "phi_0_1"), ("tminus:2", "phi_0_1"),
           ("tminuschar:2", "eta5_theta2z"), ("t0:2", "phi_0_3"), ("t0:3", "phi_0_4"),
           ("tplus2", "phi_0_2"), ("tplus14", "phi_0_4"), ("lambdastar:2", "xi_0_12")]


def test_every_operator_has_a_depth_rule():
    assert {HeckeDescriptor.parse(op).kind for op, _ in PLANNED} == hecke._KINDS.keys()


def _requested_depth(monkeypatch, run):
    """The last catalog depth that ``run`` asks hecke.py for."""
    asked = []

    def spy(name, qmax):
        asked.append(qmax)
        return catalog(name, qmax)

    monkeypatch.setattr(hecke, "catalog", spy)
    run()
    monkeypatch.undo()
    return asked[-1]


@pytest.mark.parametrize("q", (48, 144))
def test_hecke_images_request_exactly_enough_input(monkeypatch, q):
    for op, name in PLANNED:
        desc = HeckeDescriptor.parse(op)
        need = _requested_depth(monkeypatch, lambda: desc.image(name, q))
        phi = catalog(name, need + 96)
        assert desc.apply(phi.restricted(need)).qmax >= q, op
        try:
            short = desc.apply(phi.restricted(need - 24)).qmax
        except InsufficientBoxError:
            short = None
        assert short is None or short < q, op
        img = desc.image(name, q)
        assert img.qmax == q, op
        assert img.series.coeffs == desc.apply(phi).series.restricted((q,)).coeffs, op


def test_image_refuses_a_short_certified_box(monkeypatch):
    real = catalog
    monkeypatch.setattr(hecke, "catalog",
                        lambda name, qmax: real(name, qmax).restricted(max(qmax - 24, 24)))
    with pytest.raises(InsufficientBoxError, match="short of the requested 48"):
        HeckeDescriptor.parse("tminus:2").image("phi_0_1", 48)
