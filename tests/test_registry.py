"""The identity registry's rows: their metadata, the reflection rows, the
verdicts of ``verify`` on registered records, and what the rows compare.

``registry_metadata.json`` pins, for every row, its section, description,
expected constant (``null`` for a row compared on the nose) and whether it
chooses its own box.  To re-record it, at a commit whose registry is taken
as right:

    PYTHONPATH=src python tests/test_registry.py
"""

import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from paramodular import identities
from paramodular.identities import verify
from paramodular.qseries import Series

MANIFEST = Path(__file__).resolve().parent / "registry_metadata.json"


def metadata():
    return {ident: [rec.section, rec.description, rec.expected_constant, rec.fixed_box]
            for ident, rec in identities.registry().items()}


def test_registry_metadata_matches_the_recorded_pin():
    want = json.loads(MANIFEST.read_text())
    got = metadata()
    assert sorted(got) == sorted(want)
    bad = [ident for ident in got if got[ident] != want[ident]]
    assert not bad, bad


def test_sigma_rows_keep_their_verdicts_and_boxes():
    for ident, box in (("thm1.11-sigma", (240, 4320)), ("thm4.1-sigma", (240, 1152))):
        r = verify(ident, 48, 48)
        assert (r.status, r.box) == ("pass", box), (ident, r)


def test_a_reflection_that_leaves_the_lattice_fails(monkeypatch):
    # every r-numerator of d2 is odd, so halving r maps every key off the lattice
    half_r = ((1, 0, 0), (0, Fraction(1, 2), 0), (0, 0, 1))
    probe = replace(identities.registry()["thm4.1-sigma"], id="probe",
                    build=identities._build_sigma("d2", half_r, 24 * 3, 24 * 9))
    monkeypatch.setitem(identities.registry(), "probe", probe)
    assert verify("probe", 48, 48).status != "pass"


def _jacobi(coeffs, q=48):
    """A two-variable series certified to the q-numerator ``q``."""
    return Series(2, (24, 2), coeffs, (q, None), (0, -2))


ROW = {(0, 0): 1, (24, -2): 3, (24, 2): 3}
NEG = {k: -c for k, c in ROW.items()}


def _verify(monkeypatch, sides, constant=None):
    """``verify`` at the box 48 of a record whose builder returns ``sides()``."""
    rec = identities.IdentityRecord("probe", "0", "probe", lambda q, s: sides(), constant)
    monkeypatch.setitem(identities.registry(), "probe", rec)
    return verify("probe", 48, 48)


def test_an_exact_row_passes_with_constant_one(monkeypatch):
    r = _verify(monkeypatch, lambda: (_jacobi(ROW), _jacobi(ROW)))
    assert (r.status, r.constant, r.box) == ("pass", 1, (48,))


def test_a_row_equal_to_its_recorded_constant_times_the_right_side_passes(monkeypatch):
    r = _verify(monkeypatch, lambda: (_jacobi(NEG), _jacobi(ROW)), -1)
    assert (r.status, r.constant) == ("pass", -1)


def test_two_empty_sides_pass_with_constant_one_whatever_is_recorded(monkeypatch):
    r = _verify(monkeypatch, lambda: (_jacobi({}), _jacobi({})), -1)
    assert (r.status, r.constant) == ("pass", 1)


def test_a_wrong_recorded_constant_fails(monkeypatch):
    r = _verify(monkeypatch, lambda: (_jacobi(NEG), _jacobi(ROW)), 2)
    assert (r.status, r.mismatch_key, r.detail) == ("fail", (0, 0), "left=-1 right=2")


def test_a_mismatch_reports_its_key_and_both_sides_there(monkeypatch):
    r = _verify(monkeypatch, lambda: (_jacobi({**NEG, (24, 2): -5}), _jacobi(ROW)), -1)
    assert (r.status, r.mismatch_key, r.detail) == ("fail", (24, 2), "left=-5 right=-3")


def test_a_side_certified_short_of_the_request_is_an_error(monkeypatch):
    r = _verify(monkeypatch, lambda: (_jacobi(ROW, 24), _jacobi(ROW)))
    assert (r.status, r.box) == ("error", (24,))
    assert r.detail == "insufficient box (24,) for (48,)"


def test_an_inexact_division_is_an_error(monkeypatch):
    r = _verify(monkeypatch, lambda: (_jacobi(ROW).scale_exact_div(3), _jacobi(ROW)))
    assert r.status == "error"
    assert r.detail.startswith("ExactDivisionError: coefficient 1 at (0, 0)")


# the rows that state a vanishing, a form on a slice or a Hecke image of its
# input: both of their sides are empty at every box
VANISHING = ("lemma1.16-delta1", "lemma1.16-delta2", "lemma1.16-delta5",
             "thm1.11-restrict", "lemma3.5-new")


def test_at_box_6_every_comparison_row_has_terms_on_both_sides():
    # box 6 is the least box at which this holds: at box 5 the sides of
    # eq3.23-sym and thm3.3-p3-t2 are still empty
    empty = []
    for ident, rec in sorted(identities.registry().items()):
        if ident not in VANISHING:
            left, right = rec.build(144, 144)
            if not (left.coeffs and right.coeffs):
                empty.append(ident)
    assert not empty, empty


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(metadata(), sort_keys=True, indent=1) + "\n")
