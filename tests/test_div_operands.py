"""The operand boxes that ``qseries.div_operands`` plans for every quotient
of the catalog and of the identity registry: the planned operands certify
the quotient on its box, and one numerator unit less of either operand, where
the rule asks for more than the box, certifies short."""

import pytest

from paramodular import forms, identities, qseries
from paramodular.qseries import bounded_vars

CATALOG_QUOTIENTS = ("xi_0_3half", "phi_0_4", "phi_0_2", "xi_0_12", "phi_0_36",
                     "phi_m2_1", "phi_3_1", "psi_0_2", "psi_0_3", "psi_0_4")
SIEGEL_QUOTIENTS = ("eq3.10-delta11-sym", "eq3.22-siegel", "eq3.31-delta35")


def _series(x):
    return x if isinstance(x, qseries.Series) else x.series


def _planned(monkeypatch, module, run):
    """(box, numerator, divisor, the boxes the divisor was built at) of every
    ``div_operands`` call that ``run`` makes through ``module``."""
    calls = []

    def spy(numerator, divisor, box):
        asked = []
        a, b = qseries.div_operands(numerator, lambda *d: asked.append(d) or divisor(*d), box)
        calls.append((tuple(box), _series(a), _series(b), asked))
        return a, b

    monkeypatch.setattr(module, "div_operands", spy)
    run()
    monkeypatch.undo()
    assert calls
    return calls


def _assert_tight(box, a, b):
    bv = bounded_vars(a.nvars)
    got = a.div(b).trunc
    assert all(got[v] >= x for v, x in zip(bv, box)), (box, got)
    for i, v in enumerate(bv):
        lead = min(k[v] for k in b.coeffs)
        less = lambda need: tuple(need - 1 if j == i else None for j in range(len(bv)))
        short = a.restricted(less(box[i] + lead)).div(b).trunc[v]
        assert short < box[i], ("numerator", v, box, short)
        need = box[i] + 2 * lead - a.floor[v]
        short_b = b.restricted(less(need))
        if need > box[i] and short_b.coeffs:  # a divisor cut below its lead divides nothing
            short = a.div(short_b).trunc[v]
            assert short < box[i], ("divisor", v, box, short)


@pytest.mark.parametrize("name", CATALOG_QUOTIENTS)
def test_catalog_quotients_request_exactly_enough_input(monkeypatch, name):
    monkeypatch.setattr(forms, "_CACHE", {})
    calls = _planned(monkeypatch, forms, lambda: forms.catalog(name, 48))
    for box, a, b, asked in calls:
        _assert_tight(box, a, b)
        # a probe at 24 reads the lead; the divisor is built once past it
        assert asked[0] == (24,) and len(asked) == 2, asked


@pytest.mark.parametrize("ident", SIEGEL_QUOTIENTS)
def test_siegel_quotients_request_exactly_enough_input(monkeypatch, ident):
    calls = _planned(monkeypatch, identities, lambda: identities.verify(ident, 48, 48))
    for box, a, b, _ in calls:
        assert box == (48, 48)
        _assert_tight(box, a, b)


@pytest.mark.parametrize("deep_extra, asked_want", [(24, [24, 72]), (0, [24, 72, 96])])
def test_the_divisor_request_is_lowered_by_what_the_probe_over_delivered(deep_extra, asked_want):
    # (1 - x^2) / (1 - x) at box 96; the probe at 24 comes back certified to 48
    asked = []

    def divisor(q):
        asked.append(q)
        extra = 24 if q <= 24 else deep_extra
        return qseries.Series(1, (24,), {(0,): 1, (24,): -1}, (q + extra,), (0,))

    def numerator(q):
        return qseries.Series(1, (24,), {(0,): 1, (48,): -1}, (q,), (0,))

    a, b = qseries.div_operands(numerator, divisor, (96,))
    # a builder that stops over-delivering is asked again for the planned box
    assert asked == asked_want
    assert b.trunc == (96,)
    assert a.div(b).trunc[0] >= 96


def test_an_empty_probe_is_doubled_up_to_the_box():
    # x^2 (1 + x) / x^2 at box 96: the divisor's lead 48 lies past the first
    # probe at 24, so the probe is asked again at 48
    asked = []

    def divisor(q):
        asked.append(q)
        return qseries.Series(1, (24,), {(48,): 1} if q >= 48 else {}, (q,), (0,))

    def numerator(q):
        return qseries.Series(1, (24,), {(48,): 1, (72,): 1}, (q,), (0,))

    a, b = qseries.div_operands(numerator, divisor, (96,))
    assert asked == [24, 48, 192]
    assert a.trunc == (144,) and b.trunc == (192,)
    assert a.div(b).trunc[0] >= 96
