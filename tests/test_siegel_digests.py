"""Digests of the Siegel operators' exports.

Each digest is a sha256 over the JSON that ``paramodular siegel`` prints
for a request, as ``cli._canonical`` pins it: coefficients, trunc and the
floors of the stored terms.  ``siegel_digests.json`` pins ``msym`` at
p = 1, 2 and 3, ``heckeprod`` at boxes 7 and 10, and the restrictions to
z = 1/2.  To re-record it, at a commit whose outputs are taken as right:

    PYTHONPATH=src python tests/test_siegel_digests.py
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from paramodular import cli, lift, siegel

MANIFEST = Path(__file__).resolve().parent / "siegel_digests.json"

# (verb, form, p, box)
EXPORTS = (("msym", "delta1", 1, 3), ("msym", "delta1", 2, 3),
           ("msym", "delta_half", 2, 3), ("msym", "delta5", 2, 5),
           ("msym", "delta5", 3, 6), ("msym", "delta2", 3, 6),
           ("heckeprod", "delta5", None, 7), ("heckeprod", "delta5", None, 10),
           ("restrict", "delta2", None, 6), ("restrict", "d_half", None, 6))


def export(verb, form, p, box):
    q = s = 24 * box
    build = lambda Q, S: lift.siegel_expansion(form, Q, S)
    if verb == "msym":
        ser = siegel.ms_p_of(build, p, q, s).series
    elif verb == "heckeprod":
        ser = siegel.hecke_product_T2_of(build, q, s).series
    else:
        ser = siegel.restrict_z(build(q, s), Fraction(1, 2))
    return cli._series_json(cli._canonical(ser, (q, s)))


def digests():
    return {" ".join(str(x) for x in e if x is not None):
            hashlib.sha256(export(*e).encode()).hexdigest() for e in EXPORTS}


def test_siegel_exports_match_recorded_digests():
    want = json.loads(MANIFEST.read_text())
    got = digests()
    assert sorted(got) == sorted(want)
    bad = [label for label in got if got[label] != want[label]]
    assert not bad, bad


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(digests(), sort_keys=True, indent=1) + "\n")
