"""Digests of lift.py outputs well past the box-3 goldens.

Each digest is a sha256 over an object's sorted coefficients, ``trunc``,
``floor``, level, weight and character.  ``lift_digests.json`` pins the
seven closed forms at five box shapes (q- and s-exponents, q != s
included), both lifts of every registry pair at box 4, and the exp and
arith lifts at box 6.  To re-record it, at a commit whose outputs are taken as right:

    PYTHONPATH=src python tests/test_lift_digests.py
"""

import hashlib
import json
from functools import cache
from pathlib import Path

import pytest

from paramodular.forms import catalog, hecke_image
from paramodular.lift import closed_form, lift_arith, lift_exp

MANIFEST = Path(__file__).resolve().parent / "lift_digests.json"

CLOSED_BOXES = ((3, 3), (6, 6), (6, 12), (10, 48), (10, 180))
CLOSED_NAMES = ("delta5", "delta2", "delta1", "delta_half", "d_half", "d1", "d2")
# the exp and arith sides of the registry pairs that the benchmark checks
EXP_NAMES = ("phi_0_1", "phi_0_2", "phi_0_3", "phi_0_4", "phi_0_36", "phi_0_9",
             "phi_0_18", "phi_0_3_6", "phi_0_2_11", "phi_0_5", "phi_0_5_alt",
             "phi_0_6_a", "phi_0_6_b", "phi_0_7", "phi_0_10")
# every exp lift that the benchmark exports
EXP6_NAMES = EXP_NAMES + ("phi_0_6_c",)
ARITH_NAMES = ("eta9_theta", "eta3_theta", "eta1_theta", "eta3_theta32",
               "eta1_theta32", "eta11_theta32", "eta21_theta2z",
               "eta3_theta6_theta2z", "eta6_theta_theta2z", "eta3_theta2_theta2z",
               "eta5_theta2z", "theta3_theta2z", "theta_theta2z")
LIFT_BOX = 4


@cache
def exp_at(name: str, box: int):
    return lift_exp(name, 24 * box, 24 * box)


@cache
def arith_at(name: str, box: int):
    return lift_arith(name, 1, 24 * box, 24 * box)


def digest(F) -> str:
    ser = F.series
    data = {
        "coeffs": [[*k, c] for k, c in sorted(ser.coeffs.items())],
        "trunc": list(ser.trunc),
        "floor": list(ser.floor),
        "level": str(F.level),
        "weight": str(F.weight),
        "char": [F.char.D, F.char.eps],
    }
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def objects():
    """(label, thunk) for every pinned object."""
    for name in CLOSED_NAMES:
        for q, s in CLOSED_BOXES:
            yield f"closed {name} {q} {s}", (lambda n=name, q=q, s=s:
                                            closed_form(n, 24 * q, 24 * s))
    for name in EXP_NAMES:
        yield f"exp {name} {LIFT_BOX}", lambda n=name: exp_at(n, LIFT_BOX)
    for name in EXP6_NAMES:
        yield f"exp {name} 6", lambda n=name: exp_at(n, 6)
    for name in ARITH_NAMES:
        for box in (LIFT_BOX, 6):
            yield f"arith {name} {box}", lambda n=name, box=box: arith_at(n, box)


def test_lift_outputs_match_recorded_digests():
    want = json.loads(MANIFEST.read_text())
    got = {label: digest(make()) for label, make in objects()}
    assert sorted(got) == sorted(want)
    bad = [label for label in got if got[label] != want[label]]
    assert not bad, bad


def _assert_monotone(small, big):
    """Both lifts pass ``check()`` and certify their box, and the box-6 one
    agrees with the box-4 one on every (q, s) the box-4 one claims."""
    for F, box in ((small, 24 * LIFT_BOX), (big, 144)):
        F.series.check().certified((box, box))
    assert big.series.restricted(small.series.trunc[::2]).coeffs == small.series.coeffs
    assert ((big.level, big.weight, big.char, big.mu)
            == (small.level, small.weight, small.char, small.mu))


@pytest.mark.parametrize("name", EXP6_NAMES)
def test_exp_lifts_agree_across_boxes(name):
    _assert_monotone(exp_at(name, LIFT_BOX), exp_at(name, 6))


@pytest.mark.parametrize("name", ARITH_NAMES)
def test_arith_lifts_agree_across_boxes(name):
    small, big = arith_at(name, LIFT_BOX), arith_at(name, 6)
    _assert_monotone(small, big)
    # the lift computes exactly its box, so it claims no numerator past it
    assert small.series.trunc[::2] == (24 * LIFT_BOX, 24 * LIFT_BOX)


@pytest.mark.parametrize("name, mu", [(name, 1) for name in ARITH_NAMES]
                         + [("eta5_theta2z", 2)])
def test_arith_lift_is_the_stack_of_its_t_minus_images(name, mu):
    # the s^(M t) slice of the lift is the public T_-(M) image of its input,
    # for every M = mu mod Q; the s-box reaches M = 2, so no lift is empty
    t = catalog(name, 24).index
    smax = max(96, int(48 * t))
    F = lift_arith(name, mu, 96, smax)
    slices = {}
    for (q, r, s), c in F.series.terms():
        slices.setdefault(s, {})[(q, r)] = c
    stack = {}
    for M in range(mu, int(smax / (24 * t)) + 1, 24 // (F.char.D or 24)):
        image = hecke_image(f"tminuschar:{M}", name, 96).series.coeffs
        if image:
            stack[int(24 * M * t)] = image
    assert slices and slices == stack


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps({label: digest(make()) for label, make in objects()},
                                   sort_keys=True, indent=1) + "\n")
