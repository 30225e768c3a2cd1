"""The identity registry's rows: their metadata, and the reflection rows.

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


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(metadata(), sort_keys=True, indent=1) + "\n")
