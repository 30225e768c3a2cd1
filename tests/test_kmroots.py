"""Root data of the 33 rank-3 cases and the Lie-type expansion checks.

``kmroots_cases.json`` pins, for every case, its simple roots, odd subset,
Weyl vector, parabolicity, Gram and Cartan matrices; for each bound case,
the line that ``roots lie-check`` prints at the default box and at boxes 4
and 8, and a sha256 of its Weyl enumeration at boxes 4, 6 and 8.  To
re-record it, at a commit whose root data are taken as right:

    PYTHONPATH=src python tests/test_kmroots.py
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from paramodular.cli import main
from paramodular.forms import catalog
from paramodular.kmroots import (CASE_FORMS, HypLattice, build_datum, case_ids,
                                 enumerate_weyl, lie_expansion_check, mat_mul,
                                 mat_vec, reflect, reflection_matrix)
from paramodular.lift import closed_form

PIN = Path(__file__).resolve().parent / "kmroots_cases.json"
# the boxes (in units of 24) of the pinned Weyl enumerations and lie-check lines
WEYL_BOXES = (4, 6, 8)
LIE_BOXES = (4, 8)


def record(datum) -> dict:
    return {"roots": [list(r) for r in datum.roots], "odd": sorted(datum.odd),
            "rho": [str(x) for x in datum.rho], "parabolic": datum.parabolic,
            "gram": [list(row) for row in datum.gram()],
            "cartan": [list(row) for row in datum.cartan()]}


def lie_check_line(cid, box=None) -> str:
    argv = ["roots", "lie-check", cid]
    if box is not None:
        argv += ["--qmax", str(box), "--smax", str(box)]
    with redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    return out.getvalue()


def weyl_digest(cid, box) -> str:
    """sha256 over the matrix entries, word and sign of every element that
    ``enumerate_weyl`` returns at the box, in its order."""
    h = hashlib.sha256()
    for w in enumerate_weyl(build_datum(cid), 24 * box):
        h.update(repr(([str(x) for row in w.matrix for x in row],
                       w.word, w.sign)).encode())
    return h.hexdigest()


def test_all_cases_build_and_match_printed_tables():
    for cid in case_ids():
        datum = build_datum(cid)
        assert datum.check()


def test_cases_match_the_recorded_pin():
    want = json.loads(PIN.read_text())["cases"]
    assert case_ids() == sorted(want)
    bad = [cid for cid in want if record(build_datum(cid)) != want[cid]]
    assert not bad, bad


def test_lie_check_lines_match_the_recorded_pin():
    pin = json.loads(PIN.read_text())
    want, at_box = pin["lie_check"], pin["lie_check_at_box"]
    assert sorted(CASE_FORMS) == sorted(want) == sorted(at_box)
    for cid, line in want.items():
        assert lie_check_line(cid) == line, cid
    bad = [(cid, b) for cid, row in at_box.items() for b, line in row.items()
           if lie_check_line(cid, int(b)) != line]
    assert not bad, bad


def test_weyl_enumerations_match_the_recorded_pin():
    want = json.loads(PIN.read_text())["weyl_sha256"]
    assert sorted(CASE_FORMS) == sorted(want)
    bad = [(cid, b) for cid, row in want.items() for b, digest in row.items()
           if weyl_digest(cid, int(b)) != digest]
    assert not bad, bad


def test_t_1bar_predicate_catches_a_missing_root(monkeypatch):
    from paramodular import kmroots
    real = kmroots._materialize
    monkeypatch.setattr(kmroots, "_materialize",
                        lambda *args: [v for v in real(*args) if v != (-1, 0, 1)])
    with pytest.raises(AssertionError, match=r"predicate root \(-1, 0, 1\) missing"):
        build_datum("t2_1bar")


def _bump(table):
    """The table with its first entry raised by one."""
    return ((table[0][0] + 1,) + table[0][1:],) + table[1:]


@pytest.mark.parametrize("field, mutate, message", [
    ("printed_gram", _bump, "Gram matrix differs from the table"),
    ("printed_cartan", _bump, "Cartan matrix differs from the table"),
    ("rho", lambda rho: tuple(2 * x for x in rho), "Weyl-vector law fails"),
    ("parabolic", lambda p: not p, "expected parabolic"),
])
def test_a_datum_that_breaks_its_tables_or_laws_is_refused(field, mutate, message):
    datum = build_datum("D2")
    assert datum.check()
    bad = replace(datum, **{field: mutate(getattr(datum, field))})
    with pytest.raises(AssertionError, match=message):
        bad.check()


def test_gram_values_from_the_tables():
    d = build_datum("t2_I_odd")
    assert d.gram() == ((2, -4, 0), (-4, 8, -8), (0, -8, 16))
    d9 = build_datum("D2")
    assert d9.gram()[2][2] == 18
    assert d9.cartan()[1] == (-1, 2, 0, -9, -7)


def test_weyl_vector_values():
    d = build_datum("t3_0_odd")
    assert d.rho == (Fraction(5, 3), 1, Fraction(2, 3))
    d2 = build_datum("t3_II_even")
    assert d2.rho == (Fraction(1, 6), Fraction(1, 2), Fraction(1, 6))


def test_parabolic_classification():
    for cid in case_ids():
        d = build_datum(cid)
        rr = d.lattice.norm(d.rho)
        if cid in ("t2_1bar", "t3_1bar", "t4_1bar", "t4_II_even", "Dhalf"):
            assert d.parabolic and rr == 0, cid
        else:
            assert not d.parabolic and rr < 0, cid


def test_reflection_basics():
    lat = HypLattice(Fraction(3))
    delta = (0, -1, 0)
    assert reflect(lat, delta, delta) == (0, 1, 0)
    rho = (Fraction(1, 6), Fraction(1, 2), Fraction(1, 6))
    assert lat.pair(rho, delta) == -1
    assert reflect(lat, delta, rho) == (Fraction(1, 6), Fraction(-1, 2), Fraction(1, 6))
    # perpendicular vectors are fixed
    x = (1, 0, 1)
    assert lat.pair(x, delta) == 0
    assert reflect(lat, delta, x) == (1, 0, 1)
    with pytest.raises(ValueError):
        reflect(lat, (1, 0, 0), x)   # isotropic


def test_reflections_preserve_the_form_and_square_to_identity():
    lat = HypLattice(9)
    for delta in ((0, -1, 0), (1, 2, 0), (2, 9, 1)):
        m = reflection_matrix(lat, delta)
        for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)):
            w = mat_vec(m, v)
            assert lat.norm(w) == lat.norm(v)
            assert mat_vec(m, w) == v


def test_every_simple_reflection_is_integral_and_an_isometry():
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for cid in case_ids():
        d = build_datum(cid)
        assert len(d.reflections) == len(d.roots), cid
        for m in d.reflections:
            assert all(type(x) is int for row in m for x in row), cid
            assert mat_mul(m, m) == ident, cid
            cols = [tuple(row[j] for row in m) for j in range(3)]
            assert d.lattice.gram(cols) == d.lattice.gram(ident), cid


def test_a_non_integral_reflection_is_refused():
    # norm 18, pairing 6 with (0, 1, 0): 2 * 6 / 18 is not an integer
    lat = HypLattice(1)
    assert lat.norm((0, 3, 1)) == 18 and lat.pair((0, 3, 1), (0, 1, 0)) == 6
    with pytest.raises(ValueError, match="does not preserve Z"):
        reflection_matrix(lat, (0, 3, 1))
    with pytest.raises(ValueError, match="isotropic"):
        reflection_matrix(lat, (1, 0, 0))


def test_a_lie_check_builds_each_simple_reflection_once(monkeypatch):
    from paramodular import kmroots
    datum = build_datum("D2")
    F, phi = closed_form("d2", 144, 144), catalog("phi_0_9", 144)
    built = []
    real = kmroots.reflection_matrix
    monkeypatch.setattr(kmroots, "reflection_matrix",
                        lambda lat, delta: built.append(tuple(delta)) or real(lat, delta))
    rep = lie_expansion_check(F, phi, datum, 144)
    assert rep["roots_checked"] > 10
    assert sorted(built) == sorted(map(tuple, datum.roots))


def test_enumerate_weyl_identity_and_signs():
    d = build_datum("t3_II_even")
    els = enumerate_weyl(d, 144)
    ident = [w for w in els if not w.word]
    assert len(ident) == 1 and ident[0].sign == 1
    gens = [w for w in els if len(w.word) == 1]
    assert gens and all(w.sign == -1 for w in gens)   # all roots even here


def test_enumerate_weyl_sign_well_defined_on_short_words():
    d = build_datum("t1_II_even")
    els = enumerate_weyl(d, 24 * 10)
    # matrix-level dedup with consistent signs happened inside; sanity:
    mats = {}
    for w in els:
        assert mats.setdefault(w.matrix, w.sign) == w.sign


def test_lie_checks_for_the_bound_cases():
    for cid in ("t1_II_even", "t2_II_even", "t3_II_even", "D2"):
        fname, phi_name = CASE_FORMS[cid]
        F = closed_form(fname, 144, 144)
        phi = catalog(phi_name, 144)
        rep = lie_expansion_check(F, phi, build_datum(cid), 144)
        assert rep["orbit_checked"] > 4, cid
        assert rep["roots_checked"] > 10, cid


def test_lie_check_specific_orbit_values():
    d = build_datum("t3_II_even")
    F = closed_form("delta1", 144, 144)
    # rho itself
    assert F.series.get((4, 1, 12)) == 1
    # s_{(0,-1,0)}(rho) = (1/6, -1/2, 1/6), an even root: sign -1
    assert F.series.get((4, -1, 12)) == -1


def test_d2_odd_root_gives_plus_one():
    F = closed_form("d2", 144, 144)
    # reflecting rho in the odd root (0,-1,0) keeps coefficient +1
    assert F.series.get((4, 1, 36)) == 1
    assert F.series.get((4, -1, 36)) == 1


def test_unknown_case():
    with pytest.raises(KeyError):
        build_datum("t9_IV_odd")


if __name__ == "__main__":
    def rows(table):  # one entry a line
        return ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, default=int)}"
                          for k, v in table.items())
    cases = {cid: record(build_datum(cid)) for cid in case_ids()}
    lines = {cid: lie_check_line(cid) for cid in sorted(CASE_FORMS)}
    at_box = {cid: {b: lie_check_line(cid, b) for b in LIE_BOXES}
              for cid in sorted(CASE_FORMS)}
    weyl = {cid: {b: weyl_digest(cid, b) for b in WEYL_BOXES}
            for cid in sorted(CASE_FORMS)}
    PIN.write_text(f'{{\n "cases": {{\n{rows(cases)}\n }},\n'
                   f' "lie_check": {{\n{rows(lines)}\n }},\n'
                   f' "lie_check_at_box": {{\n{rows(at_box)}\n }},\n'
                   f' "weyl_sha256": {{\n{rows(weyl)}\n }}\n}}\n')
