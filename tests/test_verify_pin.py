"""The whole registry's verdicts at boxes 2 and 6.

``verify_pin.json`` pins what ``paramodular verify all --json --qmax B
--smax B`` prints for B = 2 and 6, each from an empty catalogue cache: every
row's status, constant, certified box, mismatch key and detail, and the exit
code.  A rewrite of a row's builders that changes how either side is built,
which box it certifies or which constant it logs fails here.  Box 2 is the
box the ``registry`` benchmark workload runs, but some comparison rows have
both sides empty there; at box 6 every comparison row compares terms.  To
re-record it, at a commit whose registry is taken as right:

    PYTHONPATH=src python tests/test_verify_pin.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from paramodular.cli import main
from paramodular.forms import clear_cache

MANIFEST = Path(__file__).resolve().parent / "verify_pin.json"

BOXES = (2, 6)


def record(box: int) -> dict:
    clear_cache()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "all", "--json", "--qmax", str(box), "--smax", str(box)])
    return {"exit": code, "rows": json.loads(out.getvalue())}


@pytest.mark.parametrize("box", BOXES)
def test_verify_all_matches_the_recorded_pin(box):
    want = json.loads(MANIFEST.read_text())[str(box)]
    got = record(box)
    assert got["exit"] == want["exit"]
    assert [r["id"] for r in got["rows"]] == [r["id"] for r in want["rows"]]
    bad = [g["id"] for g, w in zip(got["rows"], want["rows"]) if g != w]
    assert not bad, bad


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps({str(b): record(b) for b in BOXES},
                                   sort_keys=True, indent=1) + "\n")
