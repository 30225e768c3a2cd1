from fractions import Fraction

import pytest

from paramodular.chars import CharacterTag
from paramodular.forms import (JacobiExpansion, catalog, eta_power, ez_bracket, manifest,
                               phi_2_2_sum, quintuple_product_form, ratio,
                               registry_names, theta_product_form, theta_series,
                               theta32_series)

from oracles import ez_bracket_loop

B = 24 * 8


def row(name, n):
    return catalog(name, B).q_slice(n)


def test_eta_coefficients_over_24():
    e = eta_power(1, 24 * 130)
    vals = {k[0]: c for k, c in e.series.terms()}
    assert [vals.get(n) for n in (1, 25, 49, 121)] == [1, -1, -1, 1]
    assert all(c in (-1, 0, 1) for c in vals.values())


def test_eta_cubed_is_jacobi_sum():
    e3 = eta_power(3, 24 * 40)
    from paramodular.chars import kronecker
    for (n24, _), c in e3.series.terms():
        # exponents n^2/8 with coefficient (-4/n) n
        n2 = n24 // 3
        n = round(n2 ** 0.5)
        assert n * n == n2
        assert c == kronecker(-4, n) * n


def test_eta_24_second_coefficient():
    d = eta_power(24, 24 * 6)
    assert d.f(2, 0) == -24
    assert d.f(3, 0) == 252


def test_theta_sum_equals_product():
    assert theta_series(B).series.first_mismatch(theta_product_form(B)) is None


def test_theta_slices():
    th = theta_series(B)
    assert th.q_slice(Fraction(1, 8)) == {1: 1, -1: -1}
    assert th.q_slice(Fraction(9, 8)) == {3: -1, -3: 1}


def test_quintuple_sum_equals_product():
    assert theta32_series(B).series.first_mismatch(quintuple_product_form(B)) is None


def test_quintuple_slices():
    t = theta32_series(B)
    assert t.q_slice(Fraction(1, 24)) == {1: 1, -1: 1}
    assert t.q_slice(Fraction(25, 24)) == {5: -1, -5: -1}


def test_quintuple_equals_eta_theta_quotient():
    lhs = theta32_series(B).series
    rhs = ratio([("eta", 1), ("theta", 2)], [("theta", 1)])(B).series
    assert rhs.trunc[0] >= B and lhs.first_mismatch(rhs) is None


def test_q0_rows_of_the_weight_zero_catalog():
    want = {
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
    for name, slice_want in want.items():
        got = {l2 // 2: c for l2, c in row(name, 0).items()}
        assert got == slice_want, name


def test_q1_rows_settled_by_the_quotient_oracle():
    # the defining quotient expansions are authoritative for the q^1 rows
    assert {l2 // 2: c for l2, c in row("phi_0_4", 1).items()} == \
        {4: -1, 3: -1, 1: 1, 0: 2, -1: 1, -3: -1, -4: -1}
    assert {l2 // 2: c for l2, c in row("phi_0_3", 1).items()} == \
        {3: -2, 2: -2, 1: 2, 0: 4, -1: 2, -2: -2, -3: -2}
    assert {l2 // 2: c for l2, c in row("phi_0_2", 1).items()} == \
        {3: 1, 2: -8, 1: -1, 0: 16, -1: -1, -2: -8, -3: 1}
    assert {l2 // 2: c for l2, c in row("phi_0_1", 1).items()} == \
        {2: 10, 1: -64, 0: 108, -1: -64, -2: 10}


def test_psi_forms_have_only_the_principal_negative_row():
    for name, t in (("psi_0_2", 2), ("psi_0_3", 3), ("psi_0_4", 4)):
        f = catalog(name, B)
        assert f.q_slice(-1) == {0: 1}
        negs = {4 * t * (k[0] // 24) - (k[1] // 2) ** 2
                for k in f.series.coeffs
                if 4 * t * (k[0] // 24) - (k[1] // 2) ** 2 < 0}
        assert negs == {-4 * t}, name


def test_phi_12_1_printed_rows():
    f = catalog("phi_12_1", 24 * 4)
    assert {l2 // 2: c for l2, c in f.q_slice(1).items()} == {1: 1, 0: 10, -1: 1}
    assert {l2 // 2: c for l2, c in f.q_slice(2).items()} == \
        {2: 10, 1: -88, 0: -132, -1: -88, -2: 10}


def test_bracket_route_matches_double_sum():
    lhs = phi_2_2_sum(B).series
    rhs = ez_bracket(theta_series(B), theta32_series(B), scale=2).series
    assert rhs.trunc[0] >= B and lhs.first_mismatch(rhs) is None


@pytest.mark.parametrize("a,b", [
    (theta_series(B), theta32_series(B)),
    (theta_series(B), theta32_series(96)),
    (theta32_series(96), theta_series(B)),
    (theta_series(B), theta_series(B, 2)),
    (theta_series(B), theta_series(B)),
], ids=["th-th32", "th-th32-shallow", "th32-shallow-th", "th-th2z", "th-th"])
def test_bracket_matches_the_double_loop(a, b):
    got = ez_bracket(a, b, scale=2).series.check()
    ref = ez_bracket_loop(a, b, scale=2)
    assert (got.coeffs, got.trunc, got.floor[0]) == (ref.coeffs, ref.trunc, ref.floor[0])
    assert got.coeffs or a.index == b.index


def test_bracket_refuses_a_non_integral_result():
    a, b = theta_series(B), theta32_series(B)
    with pytest.raises(ArithmeticError):
        ez_bracket_loop(a, b)
    with pytest.raises(ArithmeticError):
        ez_bracket(a, b)


def test_bracket_antisymmetry():
    th = theta_series(96)
    z = ez_bracket(th, th, scale=2)
    assert not z.series.coeffs


def test_phi_0_2_is_bracket_over_eta4():
    got = catalog("phi_0_2", 96)
    assert got.weight == 0 and got.index == 2 and got.kind == "weak"
    assert got.char == CharacterTag(0, 0)


def test_metadata_additivity():
    a = catalog("phi_1_4", 96)
    b = catalog("phi_2_2", 96)
    prod = a * b
    assert prod.weight == a.weight + b.weight
    assert prod.index == a.index + b.index
    assert prod.char == a.char + b.char


def test_a_sum_refuses_mixed_characters():
    # as for weight and index, a sum never keeps one operand's tag silently
    f = catalog("phi_0_1", 96)
    twisted = JacobiExpansion(f.series, f.weight, f.index, CharacterTag(12, 0), f.kind)
    for combine in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(ValueError, match="character"):
            combine(f, twisted)


def test_norm_dependence_of_weight_zero_forms():
    for name in ("phi_0_1", "phi_0_2", "phi_0_3"):
        catalog(name, 24 * 6).norm_map()  # raises if not norm-dependent


def test_norm_class_dependence_at_integer_index():
    # coefficients agree on (norm, +-l mod 2t) classes over the whole box
    for name, t in (("phi_0_4", 4), ("phi_0_36", 36), ("phi_0_10", 10)):
        f = catalog(name, 24 * 6)
        classes = {}
        for (n24, l2), c in f.series.terms():
            n, l = n24 // 24, l2 // 2
            key = (4 * t * n - l * l, min(l % (2 * t), (-l) % (2 * t)))
            assert classes.setdefault(key, c) == c, (name, key)


def test_holomorphy_certificates():
    # these products have no negative-norm support at all
    combos = [
        ("phi_1_4", 4, 0),
        ("psi_3half_8", 8, 0),
    ]
    for name, t, _ in combos:
        f = catalog(name, 24 * 6)
        for (n24, l2) in f.series.coeffs:
            assert 4 * t * Fraction(n24, 24) - Fraction(l2, 2) ** 2 >= 0, name
    for name, d, t in (("xi_0_12", 2, 12), ("phi_0_18", 3, 18), ("phi_0_9", 6, 9)):
        f = eta_power(d, 24 * 6) * catalog(name, 24 * 6)
        for (n24, l2) in f.series.coeffs:
            assert 4 * t * Fraction(n24, 24) - Fraction(l2, 2) ** 2 >= 0, name


def test_lemma_2_5_sharpness():
    for name, t in (("phi_0_2", 2), ("phi_0_3", 3)):
        f = catalog(name, 24 * 6)
        for (n24, l2), c in f.series.terms():
            norm = 4 * t * (n24 // 24) - (l2 // 2) ** 2
            if norm < 0:
                assert norm == -1 and c == 1, name


def test_phi_0_36_negative_norm_orbits():
    f = catalog("phi_0_36", 24 * 9)
    neg = sorted((k[0] // 24, k[1] // 2, c) for k, c in f.series.coeffs.items()
                 if 144 * (k[0] // 24) - (k[1] // 2) ** 2 < 0 and k[1] > 0)
    assert neg == [(0, 1, -1), (0, 2, 1), (2, 17, -1), (5, 27, 1),
                   (7, 32, 1), (8, 34, 1)]


def test_xi_0_12_negative_norms():
    f = catalog("xi_0_12", 24 * 7)
    norms = {48 * (k[0] // 24) - (k[1] // 2) ** 2
             for k in f.series.coeffs
             if 48 * (k[0] // 24) - (k[1] // 2) ** 2 < 0}
    assert norms == {-1, -4}
    assert f.f(1, 7) == -1 and f.f(2, 10) == -1 and f.f(0, 1) == 1


def test_xi_0_6_head():
    # the q^1 row is settled by two independent routes (the doubled
    # quintuple quotient and the phi_0_2 phi_0_4 - phi_0_3^2 relation)
    f = catalog("xi_0_6", 96)
    assert f.q_slice(0) == {2: 1, -2: 1}
    assert {l2 // 2: c for l2, c in f.q_slice(1).items()} == \
        {5: -1, 1: 1, -1: 1, -5: -1}


def test_basis_identities():
    q = 24 * 6
    p1, p2, p3, p4 = (catalog(n, q) for n in ("phi_0_1", "phi_0_2", "phi_0_3",
                                              "phi_0_4"))
    lhs = p1.rescale_z(2).series
    assert lhs.first_mismatch((p2 * p2 - p4.scale(8)).series) is None
    assert lhs.first_mismatch((p1 * p3 - p4.scale(12)).series) is None
    assert (p2 * p4 - p3 * p3).series.first_mismatch(
        catalog("xi_0_6", q).series) is None


def test_heat_route_of_phi_0_1_matches_the_theta_quotient_route_deep():
    # phi_0_1 is built from phi_m2_1 by the heat operator; phi_0_2 and
    # phi_0_4 are theta and eta quotients, so this is a second route
    q = 1000
    p1, p2, p4 = (catalog(n, q) for n in ("phi_0_1", "phi_0_2", "phi_0_4"))
    lhs, rhs = p1.rescale_z(2).series, (p2 * p2 - p4.scale(8)).series
    assert lhs.trunc == rhs.trunc == (q, None)
    assert lhs.first_mismatch(rhs) is None


def test_eq_4_6_route_for_phi_0_36():
    q = 24 * 6
    lhs = (catalog("phi_0_4", q).rescale_z(3)
           - catalog("xi_0_6", q).rescale_z(2) * catalog("xi_0_12", q)).series
    assert lhs.first_mismatch(catalog("phi_0_36", q).series) is None


def test_eisenstein_normalizations():
    e2 = catalog("E2", 96)
    e4 = catalog("E4", 96)
    e6 = catalog("E6", 96)
    assert e2.f(0, 0) == 1 and e2.f(1, 0) == -24 and e2.f(2, 0) == -72
    assert e4.f(1, 0) == 240 and e4.f(2, 0) == 2160
    assert e6.f(1, 0) == -504


def test_remark_3_6_gate():
    q = 24 * 6
    e4, e6 = catalog("E4", q), catalog("E6", q)
    val = (e4 * e4) * catalog("E4_1", q) - e6 * catalog("E6_1", q)
    want = (catalog("delta_tau", q) * catalog("phi_0_1", q)).scale(144)
    assert val.series.first_mismatch(want.series) is None


def test_registry_manifest_shape():
    names = registry_names()
    assert "phi_0_1" in names and "xi_0_6" in names and "psi_0_4" in names
    m = manifest()
    assert m["phi_0_3"]["index"] == "3"
    assert m["theta32"]["weight"] == "1/2"
    assert m["phi_0_1"]["kind"] == "weak"


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        catalog("phi_9_9", 96)


def test_catalog_cache_is_thread_safe():
    import threading
    from paramodular.forms import clear_cache
    clear_cache()
    results = []
    def work():
        results.append(catalog("phi_0_2", 24 * 6))
    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    base = results[0].series
    assert all(r.series.first_mismatch(base) is None for r in results)


def test_every_catalog_form_meets_the_requested_depth(monkeypatch):
    from paramodular import forms
    monkeypatch.setattr(forms, "_CACHE", {})
    for depth in (24, 96, 144, 480):
        short = {}
        for name in registry_names():
            got = catalog(name, depth).qmax
            if got is not None and got < depth:
                short[name] = got
        assert not short, (depth, short)


def test_every_catalog_form_at_depth_480_passes_check(monkeypatch):
    # check() tests the floor in every variable, r included
    from paramodular import forms
    monkeypatch.setattr(forms, "_CACHE", {})
    bad = {}
    for name in registry_names():
        try:
            catalog(name, 480).series.check()
        except AssertionError as e:
            bad[name] = str(e)
    assert not bad


def test_catalog_builds_agree_with_the_depth_480_build(monkeypatch):
    # each build starts from an empty cache, so every form and its inputs
    # are built at the requested depth; the depth-480 build restricted to a
    # depth is what catalog() returns from a warm cache.  Only the r-floor may
    # differ: it is a propagated bound, and the deeper build's may lie lower
    from paramodular import forms
    deep = {}
    for depth in (480, 240, 96, 48, 24):
        for name in registry_names():
            monkeypatch.setattr(forms, "_CACHE", {})
            got = catalog(name, depth)
            ref = deep.setdefault(name, got)
            warm = ref.series.restricted((depth,))
            assert got.qmax == depth, name
            assert got.series.coeffs == warm.coeffs, (name, depth)
            assert got.series.trunc == warm.trunc, (name, depth)
            assert got.series.floor[0] == ref.series.floor[0], (name, depth)
            assert ref.series.floor[1] <= got.series.floor[1], (name, depth)
            assert ((got.weight, got.index, got.char, got.kind)
                    == (ref.weight, ref.index, ref.char, ref.kind)), (name, depth)


def test_catalog_refuses_a_short_build(monkeypatch):
    from paramodular import forms
    monkeypatch.setattr(forms, "_CACHE", {})
    monkeypatch.setitem(forms._CATALOG, "theta",
                        (lambda qmax: theta_series(qmax).restricted(qmax - 24), ""))
    with pytest.raises(RuntimeError, match="short of the requested 96"):
        catalog("theta", 96)
