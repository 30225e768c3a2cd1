"""Algebra on three-variable Siegel expansions.

Powers and exact quotients, the multiplicative symmetrisation carrying
level t to tp, the fifteen-coset multiplicative Hecke product at 2 for
level one, the main exponent involution, restrictions to the z = 0 and
z = 1/2 Humbert slices, and the exponent reflections used for the
anti-invariance checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from itertools import count
from math import isqrt

from .lift import QRS_DENOMS, SiegelExpansion
from .qseries import InsufficientBoxError, Series, exponent_map, twisted_norm


def siegel_div(a: SiegelExpansion, b: SiegelExpansion) -> SiegelExpansion:
    if a.level != b.level:
        raise ValueError("can only divide expansions at the same level")
    return SiegelExpansion(a.series.div(b.series), a.level, a.weight - b.weight,
                           a.char - b.char)


def siegel_pow(a: SiegelExpansion, e: int) -> SiegelExpansion:
    return SiegelExpansion(a.series.pow(e), a.level, a.weight * e, a.char.scaled(e))


def _classes(ser: Series, p: int, rel, den: int) -> list:
    """``ser`` split by the class rel(key)/den mod p of its keys, each part
    with the trunc and floor of ``ser``; a key whose class is not an integer
    raises ValueError."""
    parts = [{} for _ in range(p)]
    for k, c in ser.coeffs.items():
        j, off = divmod(rel(k), den)
        if off:
            raise ValueError(f"exponent key {k} has no integer class mod {p}: "
                             f"its phase is no power of zeta_{p}")
        parts[j % p][k] = c
    return [Series(ser.nvars, ser.denoms, d, ser.trunc, ser.floor) for d in parts]


def _planned(build, rule, qmax: int, smax: int) -> SiegelExpansion:
    """``build(Q, S)`` at the least (Q, S) from which ``rule(trunc, floor)``
    certifies (qmax, smax), at the floor of a first build at (qmax, smax):
    S first, as no s-rule reads Q, then Q, as no q-rule grows with S."""
    F = build(qmax, smax)
    floor = F.series.floor[::2]
    S = next(S for S in count() if rule((0, S), floor)[1] >= smax)
    Q = next(Q for Q in count() if rule((Q, S), floor)[0] >= qmax)
    return F.restricted(Q, S) if Q <= qmax and S <= smax else build(Q, S)


def _ms_box(p: int, trunc, floor):
    """What ``ms_p`` certifies from an input's (q, s) trunc and floor: the
    least t_i + the other factors' floors, over p copies and one at p^2 s."""
    (tq, ts), (fq, fs) = trunc, floor
    return tq + p * fq, (p + p * p) * fs + min(ts - fs, p * p * (ts - fs))


def ms_p(F: SiegelExpansion, p: int, qmax: int, smax: int) -> SiegelExpansion:
    """Multiplicative symmetrisation: the product of F at (tau, p z, p^2 w)
    with the p translates of F in w by 1/(tp); the result carries level tp
    and weight (p+1) times the weight.  The translates differ by p-th roots
    of unity on the s-classes of F, and their product is the integer norm
    of those classes (:func:`~paramodular.qseries.twisted_norm`).

    Certified on q <= Tq + p fq, s <= (p + p^2) fs + min(Ts - fs, p^2 (Ts - fs))
    for an input box (Tq, Ts) and floor (fq, fs) (``_ms_box``), and refused
    when short of (qmax, smax); ``ms_p_of`` plans the input.
    """
    if p < 1:
        raise ValueError(f"the symmetrisation needs p >= 1, not {p}")
    t = F.level
    ser = F.series
    # factor (i): exponents (q, p r, p^2 s)
    fac_i = ser.substitute_linear(((1, 0, 0), (0, p, 0), (0, 0, p * p)))

    # factor (ii): prod over b mod p of F(w + b/(tp)); a term s^gamma picks
    # up e(gamma b/(tp)).  The s-exponents of a level-t expansion differ by
    # multiples of t, so relative to the floor gamma_0 the phase is
    # zeta_p^(j b) with the class j = (gamma - gamma_0)/t; the constant
    # e(gamma_0 b/(tp)) per factor is a global root of unity absorbed by the
    # normalization convention.  Over s-numerators n (gamma = n/24) with
    # t = u/v, j = (n - n_0) v / (24 u).
    u, v, s0 = t.numerator, t.denominator, ser.floor[2]
    fac_ii = twisted_norm(_classes(ser, p, lambda k: (k[2] - s0) * v, 24 * u),
                          cap=(qmax, smax))
    out = fac_i.mul(fac_ii, cap=(qmax, smax)).certified((qmax, smax))
    return SiegelExpansion(out, t * p, F.weight * (p + 1), F.char.scaled(p + 1))


def ms_p_of(build, p: int, qmax: int, smax: int) -> SiegelExpansion:
    """``ms_p`` of ``build(Q, S)`` at the least box ``_ms_box`` allows."""
    if p < 1:
        raise ValueError(f"the symmetrisation needs p >= 1, not {p}")
    return ms_p(_planned(build, partial(_ms_box, p), qmax, smax), p, qmax, smax)


def _family5_box(tq: int, ts: int):
    """(q, s) trunc over (48, 4, 48) of the family-5 images of an input
    complete to (tq, ts): as 2x - y + w/2 >= (sqrt(2x) - sqrt(w/2))^2 when
    4 x w >= y^2, they hold q <= (sqrt(2 tq) - sqrt(ts/2))^2, s <= ts/2."""
    aa = isqrt(2 * 24 * tq)
    bb = isqrt(24 * ts // 2) + 1
    return 2 * (max((aa - bb) ** 2 // 24 - 1, 0) if aa > bb else 0), 2 * (ts // 2)


def _t2_box(trunc, floor):
    """What ``hecke_product_T2`` certifies from an input's (q, s) trunc and
    floor: the least t_i + the other factors' floors over (48, 4, 48), where
    ten factors keep the input's box, three scale it by 4, two are family 5."""
    (tq, ts), (fq, fs) = trunc, floor
    t5q, t5s = _family5_box(tq, ts)
    q = 22 * fq + min(tq - fq, 4 * (tq - fq), t5q)
    s = 22 * fs + 4 * (fs // 2) + min(ts - fs, 4 * (ts - fs), t5s - 2 * (fs // 2))
    return q // 2, s // 2


def hecke_product_T2(F: SiegelExpansion, qmax: int, smax: int) -> SiegelExpansion:
    """Multiplicative Hecke product over the fifteen degree-2 cosets for a
    level-1 expansion: the product of the fifteen substituted copies of F
    (automorphy scalars are constants per coset and surface in the logged
    proportionality constant of the identities that use this).  The copies
    of a family differ by signs on classes of F, so each family is an
    integer norm of class components
    (:func:`~paramodular.qseries.twisted_norm`); an input whose relative
    phases are not signs is refused with ValueError.

    Certified on the box ``_t2_box`` gives, and refused when short of
    (qmax, smax); ``hecke_product_T2_of`` plans the input.
    """
    if F.level != 1:
        raise ValueError("the printed coset list is for level one")
    ser = F.series
    Tq, Ts = ser.trunc[0], ser.trunc[2]
    if Tq is None or Ts is None:
        raise InsufficientBoxError("the coset product needs a finitely truncated input")
    half = Fraction(1, 2)
    _, fr, fs = ser.floor
    # halving maps leave the (24, 2, 24) exponent lattice; intermediates
    # live over (48, 4, 48) and the identity map takes the product back
    fine, cap = (48, 4, 48), (2 * qmax, 2 * smax)

    # translating (tau, z, w) by (a, b, c)/2 multiplies q^(k0/24) r^(k1/2)
    # s^(k2/24) by e((a k0 + 12 b k1 + c k2) / 48).  Phases are normalized
    # at a base support key B: on a theta-type integral lattice the relative
    # phases are signs, the class of a key in variable v is its exponent
    # past B's mod 2, and the global root of unity split off per coset is
    # absorbed by the identities' logged constants
    base = ser.min_key() or (0, 0, 0)

    def classes(g, v, b):
        return _classes(g, 2, lambda k: k[v] - b[v], g.denoms[v])

    def norm(mat, v, trunc=None, floor=None):
        """The two copies of a family translated in variable v, as one norm."""
        return twisted_norm([x.substitute_linear(mat, denoms=fine, new_trunc=trunc,
                                                 new_floor=floor)
                             for x in classes(ser, v, base)], cap)

    # family 1: (tau+a)/2, (z+b)/2, (w+c)/2 for a, b, c in {0, 1}, one norm
    # per variable before the halving map, as that map keeps numerators
    # (so the cap reads the same over either denominators); a norm's terms
    # are products of two, so step i classes past 2^i B
    g = ser
    for v in range(3):
        g = twisted_norm(classes(g, v, [x << v for x in base]), cap)
    factors = [g.substitute_linear(((half, 0, 0), (0, half, 0), (0, 0, half)),
                                   denoms=fine)]
    # family 2: (tau+a)/2, z, 2w; family 3: 2 tau, z, (w+a)/2
    factors.append(norm(((half, 0, 0), (0, 1, 0), (0, 0, 2)), 0))
    factors.append(norm(((2, 0, 0), (0, 1, 0), (0, 0, half)), 2))
    # family 4: 2 tau, 2 z, 2 w
    factors.append(ser.substitute_linear(((2, 0, 0), (0, 2, 0), (0, 0, 2)), denoms=fine))
    # family 5: 2 tau, -tau + z, (tau - 2z + w + b)/2, a mixed map that
    # needs the explicit box of ``_family5_box``
    t5q, t5s = _family5_box(Tq, Ts)
    floor5 = (0, 2 * (fr - fs), 2 * (fs // 2))  # q-floor 0 from the support cone
    factors.append(norm(((2, -1, half), (0, 1, -1), (0, 0, half)), 2,
                        trunc=(t5q, None, t5s), floor=floor5))

    out = reduce(lambda x, y: x.mul(y, cap=cap), factors)
    out = out.substitute_linear(((1, 0, 0), (0, 1, 0), (0, 0, 1)), denoms=QRS_DENOMS)
    out = out.certified((qmax, smax))
    return SiegelExpansion(out, 1, F.weight * 15, F.char.scaled(15))


def hecke_product_T2_of(build, qmax: int, smax: int) -> SiegelExpansion:
    """``hecke_product_T2`` of ``build(Q, S)`` at the least box ``_t2_box`` allows."""
    return hecke_product_T2(_planned(build, _t2_box, qmax, smax), qmax, smax)


def involution_V(F: SiegelExpansion) -> SiegelExpansion:
    """Exponent swap (alpha, beta, gamma) -> (gamma/t, beta, t alpha), t the level."""
    t = F.level
    mat = ((0, 0, 1 / t), (0, Fraction(1), 0), (t, 0, 0))
    ser = F.series.substitute_linear(mat)
    return SiegelExpansion(ser, F.level, F.weight, F.char, F.mu)


def restrict_z(F: SiegelExpansion, alpha) -> Series:
    """Restriction r -> e(alpha) for alpha in {0, 1/2}: coefficients summed
    over the r-direction with the corresponding root-of-unity weights.

    Returns a three-variable series over (24, 2, 24) whose terms all sit at
    r = 0, on the input's (q, s) box.
    """
    alpha = Fraction(alpha)
    if alpha not in (Fraction(0), Fraction(1, 2)):
        raise ValueError("alpha must be 0 or 1/2")
    ser = F.series
    if alpha:
        # at z = 1/2 a term r^(b/2) picks up i^b; past the global phase i^b0,
        # b0 the parity of the r-numerators, the weights i^(b - b0) are signs
        b0 = min((k[1] for k in ser.coeffs), default=0) % 2
        plus, minus = _classes(ser, 2, lambda k: k[1] - b0, 2)
        ser = plus - minus
    return ser.substitute_linear(((1, 0, 0), (0, 0, 0), (0, 0, 1)))


# reflections negating the singular-weight forms, as matrices on actual
# (q, r, s)-exponent vectors of the corresponding level lattice
SIGMA_T9 = ((Fraction(9), Fraction(-4), Fraction(16, 9)),
            (Fraction(36), Fraction(-17), Fraction(8)),
            (Fraction(36), Fraction(-18), Fraction(9)))

SIGMA_T36 = ((Fraction(81), Fraction(-30), Fraction(100, 9)),
             (Fraction(432), Fraction(-161), Fraction(60)),
             (Fraction(576), Fraction(-216), Fraction(81)))


def reflected_sides(F: SiegelExpansion, matrix):
    """(-F, F at the images) on the stored keys whose image under
    ``matrix`` lies inside the (q, s) box, as two series that agree exactly
    when F maps to -F there.  F has no term at an image off the exponent
    lattice, so such a key is kept at any box.  Refused with
    InsufficientBoxError when no key is kept."""
    ser = F.series
    image = exponent_map(matrix, ser.denoms, ser.denoms)
    left, right = {}, {}
    for key, c in ser.terms():
        img = image(key)
        if img is None or all(ser.trunc[v] is None or img[v] <= ser.trunc[v]
                              for v in (0, 2)):
            left[key] = -c
            if img is not None and (there := ser.get(img)):
                right[key] = there
    if not left:
        raise InsufficientBoxError("no reflected term lies inside the box")
    return tuple(Series(3, ser.denoms, d, ser.trunc, ser.floor) for d in (left, right))
