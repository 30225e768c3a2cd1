import random
from fractions import Fraction

import pytest

from paramodular.cyclotomic import Cyc
from paramodular.forms import catalog, eta_power, theta_series
from paramodular.qseries import ExactDivisionError, Series

Q = (24, 2)


def poly(coeffs, trunc=None, floor=None):
    s = Series.from_terms(2, Q, coeffs.items(), (trunc, None), floor)
    return s


def test_binomial_square():
    # (r^(1/2) - r^(-1/2))^2 = r - 2 + r^(-1)
    a = poly({(0, 1): 1, (0, -1): -1}, trunc=48)
    sq = a.mul(a)
    assert dict(sq.terms()) == {(0, 2): 1, (0, 0): -2, (0, -2): 1}


def test_identity_multiplication():
    a = catalog("phi_0_2", 96).series
    one = Series.one(2, Q)
    assert one.mul(a).first_mismatch(a) is None


def test_eta_power_product_matches_repeated_multiplication():
    e1 = eta_power(1, 24 * 12).series
    e24 = eta_power(24, 24 * 12).series
    acc = e1
    for _ in range(23):
        acc = acc.mul(e1)
    assert acc.first_mismatch(e24) is None


def test_ring_laws_on_catalog_triples():
    forms = [catalog(n, 96).series for n in ("phi_0_1", "phi_0_2", "phi_0_3")]
    a, b, c = forms
    assert a.mul(b).first_mismatch(b.mul(a)) is None
    assert a.mul(b.mul(c)).first_mismatch(a.mul(b).mul(c)) is None
    assert a.mul(b + c).first_mismatch(a.mul(b) + a.mul(c)) is None


def test_division_round_trip():
    g = catalog("phi_0_4", 24 * 8).series
    h = theta_series(24 * 8).series
    prod = g.mul(h)
    back = prod.div(h)
    assert back.first_mismatch(g) is None


def test_division_remainder_is_detected():
    a = poly({(0, 2): 1, (0, 0): 1}, trunc=24)   # r + 1 in half units
    b = poly({(0, 2): 1, (0, -2): -1}, trunc=24)
    with pytest.raises(ExactDivisionError):
        a.div(b)


def test_self_division_gives_one():
    for name in ("phi_0_1", "phi_0_3", "xi_0_6"):
        a = catalog(name, 96).series
        q = a.div(a)
        assert dict(q.terms()) == {(0, 0): 1}


def test_geometric_series_inverse():
    one_minus_q = poly({(0, 0): 1, (24, 0): -1}, trunc=24 * 8)
    inv = one_minus_q.pow(-1)
    want = {(24 * k, 0): 1 for k in range(9)}
    assert dict(inv.terms()) == want


def test_pow_inverse_cancels():
    # negative powers need an invertible leading slice; eta powers qualify
    e4 = eta_power(4, 24 * 8).series
    val = e4.pow(2).mul(e4.pow(-2))
    assert dict(val.terms()) == {(0, 0): 1}
    # a theta quotient has polynomial slices in one direction only
    with pytest.raises(ExactDivisionError):
        theta_series(96).series.pow(-2)


def test_pow_negative_matches_div():
    xi = catalog("xi_0_3half", 24 * 6)
    sq = xi.series.pow(2)
    p3 = catalog("phi_0_3", 24 * 6)
    assert sq.first_mismatch(p3.series) is None
    # q^0 slice r + 2 + 1/r
    assert {k[1]: c for k, c in sq.terms() if k[0] == 0} == {2: 1, 0: 2, -2: 1}


def test_truncation_soundness_restriction():
    big = catalog("phi_0_9", 24 * 8).series
    small = catalog("phi_0_9", 24 * 4).series
    assert big.restricted((small.trunc[0],)).first_mismatch(small) is None


def test_substitute_doubling():
    th = theta_series(24 * 6)
    doubled = th.rescale_z(2)
    direct = theta_series(24 * 6, 2)
    assert doubled.series.first_mismatch(direct.series) is None
    assert doubled.index == 2


def test_substitute_requires_lattice():
    th = theta_series(96).series
    mat = ((Fraction(1, 5), 0), (0, Fraction(1)))
    with pytest.raises(ValueError):
        th.substitute_linear(mat)


def test_series_over_other_denominators_are_refused():
    th = theta_series(96).series
    finer = th.substitute_linear(((1, 0), (0, 1)), denoms=(48, 2))
    for op in (th.__add__, th.mul, th.div, th.first_mismatch, th.common_box):
        with pytest.raises(ValueError, match="incompatible series"):
            op(finer)


def test_json_round_trip():
    s = catalog("phi_0_36", 96).series
    d = s.to_json_dict()
    back = Series.from_json_dict(d)
    assert back.first_mismatch(s) is None
    assert back.denoms == s.denoms
    assert d["terms"] == sorted(d["terms"])


def test_mul_trunc_is_conservative():
    a = eta_power(2, 96).series          # floor (2, 0), trunc 96
    b = eta_power(3, 48).series          # floor (3, 0), trunc 48
    prod = a.mul(b)
    assert prod.trunc[0] == min(96 + 3, 48 + 2)


def test_cyclotomic_root_sums_vanish():
    for p in (2, 3, 5, 7, 11, 13):
        total = sum((Cyc.root(p, k) for k in range(p)), 0)
        assert total == 0


def test_cyclotomic_norm_product_is_rational():
    random.seed(7)
    p = 5
    val = Cyc(p, [random.randrange(-4, 5) for _ in range(p - 1)])
    prod = 1
    shift = Cyc.root(p, 1)
    # multiply the Galois orbit: substitute zeta -> zeta^k
    for k in range(1, p):
        conj = sum((Cyc.root(p, i * k) * c for i, c in enumerate(val.res)), 0)
        prod = prod * conj
    assert isinstance(prod, int)


def test_cyclotomic_order_12_arithmetic():
    z = Cyc.root(12, 1)
    assert z * Cyc.root(12, 11) == 1
    assert Cyc.root(12, 6) == -1
    assert sum((Cyc.root(12, 4 * k) for k in range(3)), 0) == 0
