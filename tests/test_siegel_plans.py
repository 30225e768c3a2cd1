"""The box rules and input plans of the two Siegel operators.

``_ms_box`` and ``_t2_box`` state what ``ms_p`` and ``hecke_product_T2``
certify for an input's trunc and floor; ``ms_p_of`` and
``hecke_product_T2_of`` build the least input the rules allow.  The rules
must be the operators' own certification, and the plans enough and tight.
"""

from functools import partial

import pytest

from paramodular.lift import QRS_DENOMS, SiegelExpansion, closed_form
from paramodular.qseries import InsufficientBoxError, Series
from paramodular.siegel import (_ms_box, _planned, _t2_box, hecke_product_T2,
                                hecke_product_T2_of, ms_p, ms_p_of)

MS_CASES = [(name, p) for name in ("delta1", "delta2", "delta5", "delta_half")
            for p in (2, 3)]
BOXES = [(48, 48), (72, 24), (24, 96), (120, 72)]
T2_BOXES = [(48, 48), (144, 72), (72, 144), (168, 168)]


def _operator(p):
    """The box rule and the operator: ``ms_p`` at p, or T2 for p = None."""
    if p is None:
        return _t2_box, hecke_product_T2
    return partial(_ms_box, p), lambda F, q, s: ms_p(F, p, q, s)


def _certifies_exactly(op, F, box):
    """The operator on F certifies ``box`` and not one unit more in either
    variable."""
    q, s = box
    assert op(F, q, s).series.check().trunc == (q, None, s)
    for more in ((q + 1, s), (q, s + 1)):
        with pytest.raises(InsufficientBoxError):
            op(F, *more)


@pytest.mark.parametrize("name,p", MS_CASES + [("delta5", None)])
def test_box_rules_are_the_operators_certification(name, p):
    # input boxes at, above and cut below the floor in either variable
    rule, op = _operator(p)
    full = closed_form(name, 96, 96)
    floor = full.series.floor[::2]
    for tq, ts in ((0, 0), (2, 30), (30, 6), (48, 24), (72, 96)):
        _certifies_exactly(op, full.restricted(tq, ts), rule((tq, ts), floor))


@pytest.mark.parametrize("name,p,boxes", [(n, p, BOXES) for n, p in MS_CASES]
                         + [("delta5", None, T2_BOXES)])
def test_planned_inputs_are_enough_and_tight(name, p, boxes):
    rule, op = _operator(p)
    for q, s in boxes:
        F = _planned(partial(closed_form, name), rule, q, s)
        Q, S = F.series.trunc[::2]
        assert op(F, q, s).series.trunc == (q, None, s), (name, p, q, s)
        for less in ((Q - 1, S), (Q, S - 1)):
            if min(less) >= 0:
                with pytest.raises(InsufficientBoxError):
                    op(F.restricted(*less), q, s)


def test_eq331_numerator_plans_reach_boxes_8_and_10():
    # eq3.31 divides T2(delta5) by delta5^8, so div_operands asks for its
    # numerator at the box plus the divisor's lead; no T2 runs here
    d5 = closed_form("delta5", 24, 24)
    floor = d5.series.floor[::2]
    corner = d5.series.min_key()
    lead = 8 * corner[0], 8 * corner[2]
    stub = lambda q, s: SiegelExpansion(
        Series(3, QRS_DENOMS, {}, (q, None, s), d5.series.floor), 1, 5, d5.char)
    # an input at the numerator box itself falls short above box 6
    assert _t2_box((288, 288), floor) == (270, 282)
    for box, plan in ((192, (324, 300)), (240, (420, 396))):
        num = (box + lead[0], box + lead[1])
        F = _planned(stub, _t2_box, *num)
        assert F.series.trunc[::2] == plan
        assert all(a >= b for a, b in zip(_t2_box(plan, floor), num))


@pytest.mark.parametrize("name,p,small,large", [
    ("delta5", 2, (48, 72), (96, 120)),
    ("delta1", 3, (72, 168), (96, 216)),
    ("delta2", 3, (48, 168), (96, 192)),
    ("delta_half", 2, (24, 96), (72, 144)),
    ("delta5", None, (168, 144), (192, 192)),
])
def test_planned_outputs_agree_across_boxes(name, p, small, large):
    build = partial(closed_form, name)
    plan = ((lambda q, s: hecke_product_T2_of(build, q, s)) if p is None
            else (lambda q, s: ms_p_of(build, p, q, s)))
    a, b = (plan(*box).series.check() for box in (small, large))
    assert a.trunc[::2] == small and b.trunc[::2] == large
    assert a.coeffs and a.coeffs == b.restricted(small).coeffs
