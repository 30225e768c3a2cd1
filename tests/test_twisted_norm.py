"""``twisted_norm`` against the literal product of twisted copies in Z[zeta_p].

The oracle builds the p copies sum_j zeta_p^(j b) F_j with ``Cyc``
coefficients and multiplies them in a chain under the same cap; the
product must come out rational and equal the integer norm in
coefficients, trunc and floor.
"""

import pytest
from hypothesis import given, settings, strategies as st

from paramodular.cyclotomic import Cyc, as_rational_int
from paramodular.lift import SiegelExpansion, closed_form
from paramodular.qseries import Series, twisted_norm
from paramodular.siegel import hecke_product_T2

DENOMS = (24, 2, 24)


def twisted_chain(parts, cap):
    """prod over b mod p of sum_j zeta_p^(j b) parts[j], multiplied in Z[zeta_p]."""
    p = len(parts)
    acc = None
    for b in range(p):
        copy = Series(3, DENOMS, {k: c * Cyc.root(p, j * b) for j, part in enumerate(parts)
                                  for k, c in part.coeffs.items()},
                      parts[0].trunc, parts[0].floor)
        acc = copy if acc is None else acc.mul(copy, cap=cap)
    coeffs = {k: as_rational_int(c) for k, c in acc.coeffs.items()}
    return Series(3, DENOMS, coeffs, acc.trunc, acc.floor)


@st.composite
def classed(draw):
    """(p, parts, cap): a random 3-variable series split into p classes at
    random, every part with the trunc and floor of the whole."""
    p = draw(st.integers(1, 6))
    keys = st.tuples(st.integers(0, 2), st.integers(-3, 3), st.integers(-1, 2))
    terms = draw(st.dictionaries(keys, st.integers(-3, 3).filter(bool),
                                 min_size=1, max_size=10))
    trunc = (draw(st.integers(0, 12)), None, draw(st.integers(0, 12)))
    floor = tuple(min([k[v] for k in terms], default=0) - draw(st.integers(0, 1))
                  for v in range(3))
    cls = {k: draw(st.integers(0, p - 1)) for k in terms}
    parts = [Series(3, DENOMS, {k: c for k, c in terms.items() if cls[k] == j},
                    trunc, floor) for j in range(p)]
    for part in parts:
        part._drop_overflow()
    cap = draw(st.none() | st.tuples(st.integers(0, 16), st.integers(0, 16)))
    return p, parts, cap


@settings(max_examples=150, deadline=None, derandomize=True)
@given(classed())
def test_twisted_norm_is_the_product_of_twisted_copies(case):
    p, parts, cap = case
    got = twisted_norm(parts, cap)
    want = twisted_chain(parts, cap)
    assert got.check().coeffs == want.coeffs
    assert (got.trunc, got.floor) == (want.trunc, want.floor)


def test_hecke_product_refuses_phases_that_are_not_signs():
    # q-numerators 12 apart: the translates in tau differ by e(1/4), not a sign
    F = closed_form("delta5", 96, 96)
    ser = F.series
    odd = Series(3, DENOMS, {**ser.coeffs, (24, 1, 12): 1}, ser.trunc, ser.floor)
    with pytest.raises(ValueError, match="no integer class"):
        hecke_product_T2(SiegelExpansion(odd, 1, F.weight, F.char), 48, 48)
