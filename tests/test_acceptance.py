"""Acceptance gate: every criterion at its stated box, exact comparisons.

Each criterion prints one PASS/FAIL line.  The default box is q- and
s-exponents up to 6 (numerators 144 over denominator 24); all comparisons
are exact integer equality.
"""

from fractions import Fraction
from math import gcd

import pytest

from paramodular.forms import catalog
from paramodular.hecke import (gauss_sum, lambda_star, t0, t_minus_weight0,
                               t_plus_1_4, t_plus_2)
from paramodular.identities import verify
from paramodular.kmroots import (CASE_FORMS, build_datum, case_ids,
                                 lie_expansion_check)
from paramodular.lift import (closed_form, divisor_multiplicity,
                              lemma22_checksum, lift_arith, lift_exp, vt_parity)

from oracles import gauss_sum_bruteforce

B = 144  # q,s <= 6 in exponent units


def report(criterion, ok, note=""):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {criterion}: {note}")
    return ok


# ----------------------------------------------------------------------

def test_criterion_1_catalog_fidelity():
    q0 = {
        "phi_0_1": {1: 1, 0: 10, -1: 1},
        "phi_0_2": {1: 1, 0: 4, -1: 1},
        "phi_0_3": {1: 1, 0: 2, -1: 1},
        "phi_0_4": {1: 1, 0: 1, -1: 1},
        "xi_0_6": {1: 1, -1: 1},
        "xi_0_12": {1: 1, 0: -1, -1: 1},
        "phi_0_9": {2: 1, 1: -1, 0: 4, -1: -1, -2: 1},
        "phi_0_18": {2: 1, 1: -1, 0: 2, -1: -1, -2: 1},
        "phi_0_36": {2: 1, 1: -1, 0: 1, -1: -1, -2: 1},
        "psi_0_2": {0: 24},
        "psi_0_3": {0: 24},
        "psi_0_4": {0: 24},
    }
    ok = True
    for name, want in q0.items():
        got = {l2 // 2: c for l2, c in catalog(name, B).q_slice(0).items()}
        ok = ok and got == want
    # q^1 rows committed from the quotient-expansion oracle (the arbiter
    # where the printed rows conflict): phi_0_4 has +2 at r^0, phi_0_3 has
    # coefficient -2 on the r^{+-2}, r^{+-3} orbits
    oracle_rows = {
        "phi_0_4": {4: -1, 3: -1, 1: 1, 0: 2, -1: 1, -3: -1, -4: -1},
        "phi_0_3": {3: -2, 2: -2, 1: 2, 0: 4, -1: 2, -2: -2, -3: -2},
    }
    for name, want in oracle_rows.items():
        got = {l2 // 2: c for l2, c in catalog(name, B).q_slice(1).items()}
        ok = ok and got == want
    assert report(1, ok, "catalog q^0 slices and oracle-settled q^1 rows")


def test_criterion_2_hecke_tables():
    rows = {
        ("phi_0_1", 2): {2: 1, 1: 2, 0: 30, -1: 2, -2: 1},
        ("phi_0_1", 3): {3: 1, 1: 3, 0: 40, -1: 3, -3: 1},
        ("phi_0_2", 2): {2: 1, 1: 2, 0: 12, -1: 2, -2: 1},
        ("phi_0_2", 3): {3: 1, 1: 3, 0: 16, -1: 3, -3: 1},
        ("phi_0_3", 2): {2: 1, 1: 2, 0: 6, -1: 2, -2: 1},
        ("phi_0_3", 3): {3: 1, 1: 3, 0: 8, -1: 3, -3: 1},
        ("phi_0_4", 2): {2: 1, 1: 2, 0: 3, -1: 2, -2: 1},
    }
    ok = True
    for (name, m), want in rows.items():
        img = t_minus_weight0(catalog(name, 24 * 8 * m), m)
        got = {l2 // 2: c for l2, c in img.q_slice(0).items()}
        ok = ok and got == want
    img = t0(catalog("phi_0_4", 24 * 100), 2)
    ok = ok and img.series.first_mismatch(
        catalog("phi_0_1", 24 * 25).rescale_z(2).series) is None
    ok = ok and t_plus_2(catalog("phi_0_2", 24 * 16)).series.first_mismatch(
        catalog("phi_0_1", 24 * 8).scale(4).series) is None
    ok = ok and t_plus_1_4(catalog("phi_0_4", 24 * 330)).series.first_mismatch(
        catalog("phi_0_1", 24 * 8).scale(8).series) is None
    ok = ok and not lambda_star(catalog("phi_0_4", 24 * 60), 2).series.coeffs
    assert report(2, ok, "index-raising rows, T0(2), T+(2), T+(1,4), new-form kill")


def test_criterion_3_gauss_sums():
    memo = {}
    ok = True
    for p in (2, 3, 5, 7):
        for t in range(1, 11):
            for n in range(p * p):
                for l in range(p * p):
                    key = (p, n % p, l % p, t % p)
                    if key not in memo:
                        memo[key] = gauss_sum_bruteforce(p, n, l, t)
                    ok = ok and memo[key] == gauss_sum(p, n, l, t)
    assert report(3, ok, "brute-force double sum vs closed formula, "
                         "p in {2,3,5,7}, t in 1..10, n,l in 0..p^2-1")


SUM_PRODUCT_IDS = [
    "eq2.16-delta5-arith", "eq2.16-delta5-exp",
    "eq2.21-delta2-arith", "eq2.21-delta2-exp",
    "eq2.20-delta1-arith", "eq2.20-delta1-exp",
    "eq2.11-deltahalf", "eq2.14-dhalf",
    "thm4.1-d2-arith", "thm4.1-d2-exp",
    "eq4.5-d1-arith", "eq4.5-d1-exp",
    "eq3.32-d6", "eq3.11-delta11",
    "eq4.10", "eq4.11", "eq4.12", "eq4.13", "eq4.14", "eq4.15", "eq4.17",
]


def test_criterion_4_sum_equals_product():
    ok = True
    notes = []
    for ident in SUM_PRODUCT_IDS:
        r = verify(ident, B, B)
        ok = ok and r.ok
        if r.constant not in (None, 1):
            notes.append(f"{ident} constant {r.constant}")
        if not r.ok:
            notes.append(f"{ident}: {r.status} {r.detail}")
    assert report(4, ok, "box (6,6); " + ("; ".join(notes) or "all exact"))


def test_criterion_5_delta35_routes():
    r = verify("eq3.31-delta35", B, B)
    d35 = lift_exp("phi_0_1_t02m2", 96, 96)
    head_ok = (d35.series.get((72, 2, 48)) == 1 and
               d35.series.get((48, 2, 72)) == -1)
    ok = r.ok and r.constant == 1 and head_ok
    assert report(5, ok, f"coset product route, constant {r.constant}, "
                         f"head q^2 r s^2 (q - s)")


def test_criterion_6_symmetrisation():
    ra = verify("eq3.20-sym", B, B)
    rb = verify("eq3.13-sym", B, B)
    ok = ra.ok and rb.ok
    assert report(6, ok, f"Ms2 identities, constants {ra.constant}, {rb.constant}; "
                         f"rational after cyclotomic reduction")


def test_criterion_7_structural_invariants():
    ok = True
    for name in ("phi_0_1", "phi_0_2", "phi_0_3"):
        catalog(name, B).norm_map()
    for name, t in (("phi_0_4", 4), ("phi_0_36", 36), ("phi_0_10", 10)):
        f = catalog(name, B)
        classes = {}
        for (n24, l2), c in f.series.terms():
            key = (4 * t * (n24 // 24) - (l2 // 2) ** 2,
                   min((l2 // 2) % (2 * t), (-(l2 // 2)) % (2 * t)))
            ok = ok and classes.setdefault(key, c) == c
    for name in ("phi_0_1", "phi_0_2", "phi_0_3", "phi_0_4", "xi_0_6",
                 "xi_0_12", "phi_0_36", "psi_0_2", "psi_0_3", "psi_0_4",
                 "phi_0_2_11", "phi_0_3_6", "phi_0_1_t02m2"):
        ok = ok and lemma22_checksum(catalog(name, 24 * 8)) == 0
    p1 = catalog("phi_0_1", 24 * 48)
    for m1, m2 in ((2, 3), (2, 5), (3, 5)):
        a = t_minus_weight0(t_minus_weight0(p1, m1), m2)
        b = t_minus_weight0(p1, m1 * m2)
        ok = ok and a.series.first_mismatch(b.series) is None
    # exponent-swap symmetry of the divisor-sum lifts
    for name in ("eta1_theta", "eta3_theta32"):
        F = lift_arith(name, 1, B, B)
        tQ = F.level
        for (a, b, c), v in F.series.terms():
            a2 = Fraction(c, 24) / tQ * 24
            c2 = tQ * Fraction(a, 24) * 24
            if a2.denominator == 1 and c2.denominator == 1 and \
                    a2 <= B and c2 <= B:
                ok = ok and F.series.get((a2.numerator, b, c2.numerator)) == v
    d1 = closed_form("delta1", B, B)
    for (a, b, c), v in d1.series.terms():
        if gcd(gcd(a // 4, abs(b)), c // 12) == 1:
            ok = ok and v in (-1, 0, 1)
    assert report(7, ok, "norm classes, checksums, multiplicativity, "
                         "swap symmetry, unit primitive coefficients")


def test_criterion_8_divisors_and_parity():
    # multiplicity sums run over the default computed box (q-exponents <= 6),
    # reproducing the printed divisor tables; a deeper box also reveals the
    # n = 2 ladder term of the (1, 9) family, see the deep-box unit test
    ok = True
    p5 = catalog("phi_0_5", B).restricted(B)
    ok = ok and divisor_multiplicity(p5, 1, 1) == 7
    ok = ok and divisor_multiplicity(p5, 4, 2) == 1
    p10 = catalog("phi_0_10", B).restricted(B)
    ok = ok and divisor_multiplicity(p10, 1, 1) == 2
    ok = ok and divisor_multiplicity(p10, 1, 9) == 1
    ok = ok and divisor_multiplicity(p10, 4, 2) == 1
    ok = ok and divisor_multiplicity(catalog("phi_0_2", B).restricted(B), 1, 1) == 1
    ok = ok and divisor_multiplicity(catalog("phi_0_3", B).restricted(B), 1, 1) == 1
    for name in ("psi_0_2", "psi_0_3", "psi_0_4", "phi_0_1_t02m2"):
        ok = ok and vt_parity(catalog(name, 96)) == 1
    assert report(8, ok, "multiplicity table at the default box and parities")


def test_criterion_9_vanishing_and_reflections():
    from paramodular.siegel import (SIGMA_T9, SIGMA_T36, check_sign_under,
                                    restrict_z)
    ok = True
    for name in ("delta1", "delta2", "delta5"):
        ok = ok and not restrict_z(closed_form(name, B, B), 0).coeffs
    ok = ok and not restrict_z(closed_form("d_half", B, B), Fraction(1, 2)).coeffs
    ok = ok and check_sign_under(closed_form("d_half", 24 * 10, 24 * 180), SIGMA_T36)
    ok = ok and check_sign_under(closed_form("d2", 24 * 10, 24 * 48), SIGMA_T9)
    assert report(9, ok, "slice vanishing and reflection anti-invariance")


def test_criterion_10_root_data():
    ok = True
    for cid in case_ids():
        datum = build_datum(cid)
        ok = ok and datum.check()
    for cid in ("t1_II_even", "t2_II_even", "t3_II_even", "D2"):
        fname, phi_name = CASE_FORMS[cid]
        rep = lie_expansion_check(closed_form(fname, B, B),
                                  catalog(phi_name, B), build_datum(cid), B)
        ok = ok and rep["orbit_checked"] > 0 and rep["roots_checked"] > 0
    assert report(10, ok, f"{len(case_ids())} cases: Gram/Cartan tables, Weyl "
                          f"vectors, parity labels; Lie expansion checks")
