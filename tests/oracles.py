"""Brute-force oracles shared by the tests."""

from fractions import Fraction

from paramodular.cyclotomic import Cyc, as_rational_int
from paramodular.forms import QR_DENOMS
from paramodular.qseries import Series


def gauss_sum_bruteforce(p: int, n: int, l: int, t: int) -> int:
    """-p + sum over a, b mod p of e((n a + l a b + t a b^2)/p), evaluated
    exactly in Z[zeta_p]."""
    acc = 0
    for a in range(p):
        for b in range(p):
            acc = acc + Cyc.root(p, (n * a + l * a * b + t * a * b * b) % p)
    return as_rational_int(acc - p)


def ez_bracket_loop(a, b, scale=1):
    """scale * [a, b] by the double loop over pairs of terms, each weighted by
    index_b * l_1/2 - index_a * l_2/2, with the q-trunc of a product: the
    reference for ``forms.ez_bracket``.  Its r-floor is the least stored r."""
    out = {}
    for (n1, l1), c1 in a.series.terms():
        for (n2, l2), c2 in b.series.terms():
            w = b.index * Fraction(l1, 2) - a.index * Fraction(l2, 2)
            if not w:
                continue
            key = (n1 + n2, l1 + l2)
            out[key] = out.get(key, 0) + scale * w * c1 * c2
    coeffs = {}
    for k, v in out.items():
        if v:
            if v.denominator != 1:
                raise ArithmeticError(f"bracket coefficient {v} at {k} is not integral")
            coeffs[k] = v.numerator
    qt = None
    for s in (a.series, b.series):
        if s.trunc[0] is not None:
            fl = (b.series if s is a.series else a.series).floor[0]
            t = s.trunc[0] + fl
            qt = t if qt is None else min(qt, t)
    ser = Series(2, QR_DENOMS, coeffs, (qt, None),
                 (a.series.floor[0] + b.series.floor[0],
                  min((k[1] for k in coeffs), default=0)))
    ser._drop_overflow()
    return ser
