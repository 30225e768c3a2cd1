"""Record the outputs the benchmark checks against, into expected.json.

    python3 perfbench/record.py

Run once, at the commit whose outputs are taken as right; every later run
of run.py compares with them.  It records the constant of every registry
identity, a digest of the coefficients of every siegel export, and the
line printed by every roots request: siegel at its workload's box, roots
at its box and at box 1 (the box of selftest.py).

Before writing, it refuses an export with no coefficient in its box, and
it checks that the two sides of each registry pair below have the same
coefficients on their common box.  Equal coefficients give equal digests
over the box both sides are complete on, so a run that matches every
digest also matches every pair.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import run

# Registry pairs whose two sides are both exported by the siegel workload.
SIEGEL_PAIRS = (
    [(f"lift closed {c}", f"lift exp {e}") for c, e in
     [("delta5", "phi_0_1"), ("delta2", "phi_0_2"), ("delta1", "phi_0_3"),
      ("delta_half", "phi_0_4"), ("d_half", "phi_0_36"), ("d2", "phi_0_9"),
      ("d1", "phi_0_18")]]
    + [(f"lift closed {c}", f"lift arith {a}") for c, a in
       [("delta5", "eta9_theta"), ("delta2", "eta3_theta"), ("delta1", "eta1_theta"),
        ("d2", "eta3_theta32"), ("d1", "eta1_theta32")]]
    + [(f"lift arith {a}", f"lift exp {e}") for a, e in
       [("eta11_theta32", "phi_0_3_6"), ("eta21_theta2z", "phi_0_2_11"),
        ("eta3_theta6_theta2z", "phi_0_5"), ("eta6_theta_theta2z", "phi_0_5_alt"),
        ("eta3_theta2_theta2z", "phi_0_6_a"), ("eta5_theta2z", "phi_0_6_b"),
        ("theta3_theta2z", "phi_0_7"), ("theta_theta2z", "phi_0_10")]])
BOXES = {"siegel": (run.WORKLOADS["siegel"].box,),
         "roots": (run.WORKLOADS["roots"].box, 1)}


def complete_box(text: str, box: int) -> tuple:
    """The q- and s-bounds, within the box, up to which an export is
    complete (its ``trunc``; ``None`` means complete everywhere)."""
    d = json.loads(text)
    return tuple(box if t is None else min(Fraction(t, d["denoms"][v]), box)
                 for v, t in ((0, d["trunc"][0]), (2, d["trunc"][2])))


def check_pairs(exports: dict, box: int) -> None:
    for a, b in SIEGEL_PAIRS:
        qmax, smax = map(min, zip(complete_box(exports[a], box),
                                  complete_box(exports[b], box)))
        ta, tb = ({k: c for k, c in run.series_terms(exports[x], box).items()
                   if k[0] <= qmax and k[-1] <= smax} for x in (a, b))
        if not ta or ta != tb:
            raise SystemExit(f"{a} and {b} differ, or are empty, on q <= {qmax}, "
                             f"s <= {smax}")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from paramodular import identities

    out = {}
    ids = sorted(identities.registry())
    (rec,) = run.run_pass("registry", ids, 1, False)
    if "error" in rec or any(r["status"] != "pass" for r in rec["results"]):
        raise SystemExit(f"registry does not pass at box 1: {rec}")
    out["registry"] = {k: r["constant"] for k, r in zip(ids, rec["results"])}
    for name, boxes in BOXES.items():
        out[name] = {}
        requests = run.WORKLOADS[name].requests
        for box in boxes:
            got, exports = {}, {}
            for rec in run.run_pass(name, requests, box, False):
                (key,), (res,) = rec["keys"], rec.get("results", [{}])
                if "error" in rec or res["rc"] != 0:
                    raise SystemExit(f"{key} fails at box {box}: {rec}")
                if name == "roots":
                    got[key] = res["stdout"].strip()
                    continue
                exports[key] = res["stdout"]
                got[key] = run.digest(res["stdout"], run.box_of(key, box))
                if got[key] == run.EMPTY_DIGEST:
                    raise SystemExit(f"{key} exports nothing at box {run.box_of(key, box)}")
            if name == "siegel":
                check_pairs(exports, box)
            out[name][str(box)] = got
    run.EXPECTED.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
