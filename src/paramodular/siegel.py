"""Algebra on three-variable Siegel expansions.

Products and exact quotients, the multiplicative symmetrisation carrying
level t to tp, the fifteen-coset multiplicative Hecke product at 2 for
level one, the main exponent involution, restrictions to the z = 0 and
z = 1/2 Humbert slices, and the exponent reflections used for the
anti-invariance checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .cyclotomic import Cyc
from .lift import QRS_DENOMS, SiegelExpansion
from .qseries import InsufficientBoxError, Series, exponent_map


def siegel_mul(a: SiegelExpansion, b: SiegelExpansion) -> SiegelExpansion:
    if a.level != b.level:
        raise ValueError("can only multiply expansions at the same level")
    return SiegelExpansion(a.series.mul(b.series), a.level, a.weight + b.weight,
                           a.char + b.char, "quotient")


def siegel_div(a: SiegelExpansion, b: SiegelExpansion) -> SiegelExpansion:
    if a.level != b.level:
        raise ValueError("can only divide expansions at the same level")
    return SiegelExpansion(a.series.div(b.series), a.level, a.weight - b.weight,
                           a.char - b.char, "quotient")


def siegel_pow(a: SiegelExpansion, e: int) -> SiegelExpansion:
    return SiegelExpansion(a.series.pow(e), a.level, a.weight * e,
                           a.char.scaled(e), "quotient")


def phase_root(omega: Fraction):
    """exp(2 pi i omega) as an exact root of unity (int or Cyc)."""
    omega = Fraction(omega)
    num = omega.numerator % omega.denominator
    den = omega.denominator
    return Cyc.root(den, num)


@lru_cache(maxsize=None)
def _root_of(num: int, den: int):
    return phase_root(Fraction(num, den))


def _phase(num: int, den: int):
    """exp(2 pi i num/den), memoised by the residue of num modulo den."""
    return _root_of(num % den, den)


def ms_p(F: SiegelExpansion, p: int, cap=None) -> SiegelExpansion:
    """Multiplicative symmetrisation: the product of F at (tau, p z, p^2 w)
    with the p translates of F in w by 1/(tp); the result carries level tp
    and weight (p+1) times the weight.  Root-of-unity phases are handled in
    Z[zeta_p] (plain signs for p = 2) and the result must come out rational.
    """
    t = F.level
    ser = F.series
    # factor (i): exponents (q, p r, p^2 s)
    m_scale = ((1, 0, 0), (0, p, 0), (0, 0, p * p))
    fac_i = ser.substitute_linear(m_scale)

    # factor (ii): prod over b mod p of F(w + b/(tp)); a term s^gamma picks
    # up e(gamma b/(tp)).  The s-exponents of a level-t expansion differ by
    # multiples of t, so relative to the lowest exponent gamma_0 the phases
    # are p-th roots of unity; the constant e(gamma_0 b/(tp)) per factor is
    # a global root of unity absorbed by the normalization convention.
    # Over s-numerators n (gamma = n/24) with t = u/v, the phase is
    # e((n - n_0) b v / (24 p u)), an integer over an integer modulus.
    u, v, s0 = t.numerator, t.denominator, ser.floor[2]
    acc = ser
    for b in range(1, p):
        fb = ser.substitute_linear(
            _ID3, phase=lambda k, m=b * v: _phase((k[2] - s0) * m, 24 * p * u))
        acc = acc.mul(fb, cap=cap)
    out = fac_i.mul(acc, cap=cap).rationalized()
    return SiegelExpansion(out, t * p, F.weight * (p + 1), F.char.scaled(p + 1),
                           "symmetrisation")


_ID3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def hecke_product_T2(F: SiegelExpansion, qmax: int, smax: int) -> SiegelExpansion:
    """Multiplicative Hecke product over the fifteen degree-2 cosets for a
    level-1 expansion, as the literal product of the fifteen substituted
    copies of F (automorphy scalars are constants per coset and surface in
    the logged proportionality constant of the identities that use this).

    The input must be complete on the working box: q and s numerators up to
    roughly 2*(qmax + smax - floors).
    """
    if F.level != 1:
        raise ValueError("the printed coset list is for level one")
    ser = F.series
    if not ser.coeffs:
        return SiegelExpansion(ser, 1, F.weight * 15, F.char.scaled(15), "hecke-product")
    half = Fraction(1, 2)
    fq, fr, fs = ser.floor
    factors = []
    # halving maps leave the (24, 2, 24) exponent lattice; intermediates
    # live over (48, 4, 48) and the assembled product is coarsened back
    fine = (48, 4, 48)

    # phases are normalized at a base support key: relative phases on a
    # theta-type integral lattice are signs, and the global root of unity
    # split off per coset is absorbed by the identities' logged constants
    base_key = ser.min_key()

    def phased(mat, shift=(0, 0, 0), trunc=None, floor=None):
        """The substituted copy with phase e(shift . (key - base_key) / 48)
        on source keys over (24, 2, 24): translating (tau, z, w) by
        (a, b, c)/2 multiplies q^(k0/24) r^(k1/2) s^(k2/24) by
        e((a k0 + 12 b k1 + c k2) / 48), i.e. shift = (a, 12 b, c)."""
        if trunc is not None:
            trunc = tuple(None if x is None else 2 * x for x in trunc)
        if floor is not None:
            floor = tuple(2 * x for x in floor)
        phase = None
        if any(shift):
            h0, h1, h2 = shift
            e0 = h0 * base_key[0] + h1 * base_key[1] + h2 * base_key[2]
            phase = lambda k: _phase(h0 * k[0] + h1 * k[1] + h2 * k[2] - e0, 48)
        return ser.substitute_linear(
            mat, phase=phase, denoms=fine, new_trunc=trunc, new_floor=floor)

    # family 1: (tau+a)/2, (z+b)/2, (w+c)/2  for a,b,c in {0,1}
    m1 = ((half, 0, 0), (0, half, 0), (0, 0, half))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                factors.append(phased(m1, (a, 12 * b, c)))
    # family 2: (tau+a)/2, z, 2w
    m2 = ((half, 0, 0), (0, 1, 0), (0, 0, 2))
    for a in range(2):
        factors.append(phased(m2, (a, 0, 0)))
    # family 3: 2 tau, z, (w+a)/2
    m3 = ((2, 0, 0), (0, 1, 0), (0, 0, half))
    for a in range(2):
        factors.append(phased(m3, (0, 0, a)))
    # family 4: 2 tau, 2 z, 2 w
    m4 = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    factors.append(phased(m4))
    # family 5: 2 tau, -tau + z, (tau - 2z + w + b)/2.  The mixed map needs
    # an explicit box: on a cusp expansion with 4 x w >= y^2 the image
    # exponent 2x - y + w/2 is at least (sqrt(2x) - sqrt(w/2))^2, so the
    # image is complete on q <= (sqrt(2 Tq) - sqrt(Ts/2))^2, s <= Ts/2
    m5 = ((2, -1, half), (0, 1, -1), (0, 0, half))
    Tq, Ts = ser.trunc[0], ser.trunc[2]
    if Tq is None or Ts is None:
        raise InsufficientBoxError("the coset product needs a finitely truncated input")
    aa = isqrt(2 * 24 * Tq)
    bb = isqrt(24 * Ts // 2) + 1
    tq5 = max((aa - bb) ** 2 // 24 - 1, 0) if aa > bb else 0
    floor5 = (0, fr - fs, fs // 2)  # q-floor 0 from the support cone
    for b in range(2):
        factors.append(phased(m5, (0, 0, b), trunc=(tq5, None, Ts // 2), floor=floor5))

    out = None
    for f in factors:
        out = f if out is None else out.mul(f, cap=(2 * qmax, 2 * smax))
    out = out.rationalized().coarsened(QRS_DENOMS).restricted((qmax, smax))
    return SiegelExpansion(out, 1, F.weight * 15, F.char.scaled(15), "hecke-product")


def involution_V(F: SiegelExpansion, tQ=None) -> SiegelExpansion:
    """Exponent swap (alpha, beta, gamma) -> (gamma/(Qt), beta, Qt alpha)."""
    if tQ is None:
        tQ = F.level
    tQ = Fraction(tQ)
    mat = ((0, 0, 1 / tQ), (0, Fraction(1), 0), (tQ, 0, 0))
    ser = F.series.substitute_linear(mat)
    return SiegelExpansion(ser, F.level, F.weight, F.char, F.provenance,
                           F.mu, F.v_eigen)


def restrict_z(F: SiegelExpansion, alpha) -> Series:
    """Restriction r -> e(alpha) for alpha in {0, 1/2}: coefficients summed
    over the r-direction with the corresponding root-of-unity weights.

    Returns a terminal two-variable series in (q, s) over denominators
    (24, 24); its trunc mirrors the input box and no further arithmetic
    should be performed on it.
    """
    alpha = Fraction(alpha)
    if alpha not in (Fraction(0), Fraction(1, 2)):
        raise ValueError("alpha must be 0 or 1/2")
    out = {}
    for (a, b, c), coeff in F.series.terms():
        if alpha:
            coeff = coeff * Cyc.root(4, b % 4)
            if not coeff:
                continue
        key = (a, c)
        v = out.get(key, 0) + coeff
        if v:
            out[key] = v
        elif key in out:
            del out[key]
    fq, _fr, fs = F.series.floor
    return Series(2, (24, 24), out, (F.series.trunc[0], F.series.trunc[2]), (fq, fs))


# reflections negating the singular-weight forms, as matrices on actual
# (q, r, s)-exponent vectors of the corresponding level lattice
SIGMA_T9 = ((Fraction(9), Fraction(-4), Fraction(16, 9)),
            (Fraction(36), Fraction(-17), Fraction(8)),
            (Fraction(36), Fraction(-18), Fraction(9)))

SIGMA_T36 = ((Fraction(81), Fraction(-30), Fraction(100, 9)),
             (Fraction(432), Fraction(-161), Fraction(60)),
             (Fraction(576), Fraction(-216), Fraction(81)))


def check_sign_under(F: SiegelExpansion, matrix, sign: int) -> bool:
    """Every stored term whose image key stays inside the box must map to
    sign times the coefficient there; at least one pair must be checked."""
    ser = F.series
    image = exponent_map(matrix, ser.denoms, ser.denoms)
    checked = 0
    for key, c in ser.terms():
        img = image(key)
        if img is None:
            return False
        inside = all(ser.trunc[v] is None or img[v] <= ser.trunc[v] for v in (0, 2))
        if inside:
            checked += 1
            if ser.get(img) != sign * c:
                return False
    return checked > 0
