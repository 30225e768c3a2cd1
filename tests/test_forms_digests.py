"""Digests of every catalogue form at two q-depths.

Each digest is a sha256 over a form's sorted coefficients, ``trunc``,
``floor``, weight, index, character and kind.  ``forms_digests.json`` pins
all of ``registry_names()`` at q-numerators 48 and 480, so a rewrite of any
builder that changes one coefficient, box or tag fails here.  To re-record
it, at a commit whose outputs are taken as right:

    PYTHONPATH=src python tests/test_forms_digests.py
"""

import hashlib
import json
from pathlib import Path

from paramodular.forms import catalog, clear_cache, registry_names

MANIFEST = Path(__file__).resolve().parent / "forms_digests.json"

DEPTHS = (48, 480)


def digest(f) -> str:
    ser = f.series
    data = {
        "coeffs": [[*k, c] for k, c in sorted(ser.coeffs.items())],
        "trunc": list(ser.trunc),
        "floor": list(ser.floor),
        "weight": str(f.weight),
        "index": str(f.index),
        "char": [f.char.D, f.char.eps],
        "kind": f.kind,
    }
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> dict:
    # from an empty cache: a form restricted from a deeper cached build keeps
    # that build's r-floor, so the floors would depend on what ran before
    clear_cache()
    return {f"{name} {depth}": digest(catalog(name, depth))
            for depth in DEPTHS for name in registry_names()}


def test_catalogue_matches_recorded_digests():
    want = json.loads(MANIFEST.read_text())
    got = digests()
    assert sorted(got) == sorted(want)
    bad = [label for label in got if got[label] != want[label]]
    assert not bad, bad


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(digests(), sort_keys=True, indent=1) + "\n")
