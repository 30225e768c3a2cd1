"""Liftings from Jacobi expansions to three-variable Siegel expansions.

``arith_lift`` realizes the divisor-sum lifting of a Jacobi cusp form with
eta-power character; ``exp_lift`` the multiplicative (Borcherds-type)
lifting of a weight-0 form; ``closed_form`` evaluates the explicit
multi-sum expansions of the classical small-weight forms directly, as
independent oracles for the identity suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .chars import CharacterTag, kronecker, v_eta_sigma
from .forms import JacobiExpansion, catalog, eta_power
from .qseries import InsufficientBoxError, Series

QRS_DENOMS = (24, 2, 24)


@dataclass(frozen=True)
class LiftSpec:
    """Everything needed to request a divisor-sum lifting of a catalog form."""
    name: str
    mu: int = 1
    qmax: int = 144
    smax: int = 144

    def run(self) -> "SiegelExpansion":
        return lift_arith(self.name, self.mu, self.qmax, self.smax)


class SiegelExpansion:
    """Truncated Fourier expansion of a paramodular form in q, r, s."""

    __slots__ = ("series", "level", "weight", "char", "mu", "v_eigen", "provenance")

    def __init__(self, series: Series, level, weight, char: CharacterTag,
                 provenance: str, mu: int = 1, v_eigen: int | None = None):
        self.series = series
        self.level = Fraction(level)
        self.weight = Fraction(weight)
        self.char = char
        self.mu = mu
        self.v_eigen = v_eigen
        self.provenance = provenance

    @property
    def qmax(self):
        return self.series.trunc[0]

    @property
    def smax(self):
        return self.series.trunc[2]

    def coeff_at(self, q, r, s) -> int:
        return self.series.coeff_at(q, r, s)

    def restricted(self, qmax: int, smax: int) -> "SiegelExpansion":
        return SiegelExpansion(self.series.restricted((qmax, smax)), self.level,
                               self.weight, self.char, self.provenance,
                               self.mu, self.v_eigen)

    def __repr__(self):
        return (f"SiegelExpansion(level={self.level}, weight={self.weight}, "
                f"provenance={self.provenance}, {len(self.series)} terms, "
                f"box=({self.qmax}, {self.smax}))")


# ----------------------------------------------------------------------
# arithmetic lifting

def arith_lift(phi: JacobiExpansion, mu: int = 1, qmax: int = 144,
               smax: int = 144) -> SiegelExpansion:
    """Divisor-sum lifting of a Jacobi cusp form of integral weight and
    even eta-character D | 24.

    The coefficient at q^(N/Q) r^(L/2) s^(M t), for N, M > 0 congruent to
    mu mod Q and L = eps mod 2, is
        sum over a | gcd(N, L, M) of a^(k-1) v_eta_sigma(a, D) f(N M D/a^2, L/a)
    where f is indexed over the q^(n/24) lattice.  qmax/smax are numerator
    bounds over denominator 24.
    """
    if phi.weight.denominator != 1:
        raise ValueError("arithmetic lifting needs integral weight")
    k = phi.weight.numerator
    D = phi.char.D
    if D == 0:
        D = 24  # trivial character: conductor 1
    if D % 2 or 24 % D:
        raise ValueError("need an even character exponent D dividing 24")
    Q = 24 // D
    if gcd(mu, Q) != 1:
        raise ValueError(f"mu={mu} is not invertible modulo Q={Q}")
    mu %= Q
    if mu == 0:
        mu = Q
    t = phi.index
    eps = phi.char.eps

    Nmax = qmax // D
    Mmax = int(Fraction(smax, 24) / t)
    need = D * Nmax * Mmax
    if phi.qmax is not None and phi.qmax < need:
        raise InsufficientBoxError(
            f"input known to q-numerator {phi.qmax}, need {need}")

    coeffs = {}
    for N in range(mu, Nmax + 1, Q):
        for M in range(mu, Mmax + 1, Q):
            lbound_sq = Fraction(2, 3) * t * N * M * D
            lbound = isqrt(int(lbound_sq)) + 1
            skey = 24 * M * t
            for L in range(-lbound, lbound + 1):
                if (L - eps) % 2:
                    continue
                acc = 0
                for a in _pos_divisors(gcd(gcd(N, M), abs(L)) if L else gcd(N, M)):
                    fv = phi.fkey(N * M * D // (a * a), L // a)
                    if fv:
                        acc += a ** (k - 1) * v_eta_sigma(a, D) * fv
                if acc:
                    coeffs[(N * D, L, int(skey))] = acc

    floor = (D * mu, min((kk[1] for kk in coeffs), default=0), int(24 * mu * t))
    ser = Series(3, QRS_DENOMS, coeffs, (qmax, None, smax), floor)
    # the divisor-sum coefficients are symmetric under the exponent swap
    return SiegelExpansion(ser, Q * t, k, CharacterTag(D, eps), "arith-lift",
                           mu=mu, v_eigen=1)


def _pos_divisors(n: int):
    n = abs(n)
    if n == 0:
        return (1,)
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def arith_input_qmax(phi_char_D: int, index, qmax: int, smax: int) -> int:
    """Input q-numerator depth needed by arith_lift for the given output box."""
    D = phi_char_D if phi_char_D else 24
    t = Fraction(index)
    nmax = qmax // D
    mmax = int(Fraction(smax, 24) / t)
    return max(D * nmax * mmax, 24)


def lift_arith(name: str, mu: int = 1, qmax: int = 144, smax: int = 144) -> SiegelExpansion:
    """Arithmetic lifting of a registry form, requesting its own input depth."""
    probe = catalog(name, 24)
    need = arith_input_qmax(probe.char.D, probe.index, qmax, smax)
    return arith_lift(catalog(name, need), mu, qmax, smax)


def lift_exp(name: str, qmax: int = 144, smax: int = 144) -> SiegelExpansion:
    """Exponential lifting of a registry form, requesting its own input depth."""
    probe = catalog(name, 96)
    t = probe.index
    if t.denominator != 1:
        raise ValueError("integer index required")
    need = exp_input_qmax(probe, qmax, smax)
    return exp_lift(catalog(name, need), qmax, smax)


def exp_input_qmax(phi: JacobiExpansion, qmax: int, smax: int) -> int:
    """Input q-numerator depth needed by exp_lift for the given output box;
    the q^0 row and the negative-q rows of ``phi`` must already be visible."""
    t = phi.index.numerator
    f0sum = 0
    prefix_q = prefix_s = 0
    rewritten = []
    for (n24, l2), c in phi.series.terms():
        n, l = n24 // 24, l2 // 2
        if n == 0:
            f0sum += c
            prefix_s += 6 * l * l * c
        if n < 0:
            for m in _pos_divisors(n):
                rewritten.append((n // m, m, c))
    prefix_q += f0sum
    for (n, m, e) in rewritten:
        prefix_q += e * 24 * n
        prefix_s += e * 24 * t * m
    Wq = max(qmax - min(prefix_q, 0), 0)
    degrade = sum((Wq // (24 * (-n))) * 24 * t * m for (n, m, e) in rewritten)
    Ws = max(smax - min(prefix_s, 0) + degrade, 0)
    return 24 * max((Wq // 24) * max(Ws // (24 * t), 1), Wq // 24, 1)


# ----------------------------------------------------------------------
# closed-form oracle expansions

def closed_form(name: str, qmax: int = 144, smax: int = 144) -> SiegelExpansion:
    builder = _CLOSED.get(name)
    if builder is None:
        raise KeyError(f"unknown closed form {name!r}; have {sorted(_CLOSED)}")
    return builder(qmax, smax)


def _tau9_table(xmax8: int) -> dict:
    """x -> coefficient of q^(x/8) in eta^9 (x = 3 mod 8)."""
    e9 = eta_power(9, 3 * xmax8 + 3)
    out = {}
    for (n24, _l), c in e9.series.terms():
        if n24 % 3 == 0:
            out[n24 // 3] = c
    return out


def _cf_delta5(qmax, smax):
    nmax = qmax // 12
    mmax = smax // 12
    tau9 = _tau9_table(4 * max(nmax, 1) * max(mmax, 1) + 8)
    coeffs = {}
    for n in range(1, nmax + 1, 2):
        for m in range(1, mmax + 1, 2):
            for l in range(-isqrt(4 * n * m), isqrt(4 * n * m) + 1):
                if l % 2 == 0:
                    continue
                acc = 0
                for a in _pos_divisors(gcd(gcd(n, m), l)):
                    x = (4 * n * m - l * l) // (a * a)
                    tv = tau9.get(x, 0)
                    if tv:
                        sgn = -1 if ((l + a + 2) // 2) % 2 else 1
                        acc += sgn * a ** 4 * tv
                if acc:
                    coeffs[(12 * n, l, 12 * m)] = acc
    ser = Series(3, QRS_DENOMS, coeffs, (qmax, None, smax),
                 (12, min((k[1] for k in coeffs), default=0), 12))
    return SiegelExpansion(ser, 1, 5, CharacterTag(12, 1), "closed-form")


def _cf_delta2(qmax, smax):
    nmax = qmax // 6
    mmax = smax // 12
    coeffs = {}
    for n in range(1, nmax + 1, 4):
        for m in range(1, mmax + 1, 4):
            for l in range(-isqrt(2 * n * m), isqrt(2 * n * m) + 1):
                NN = 2 * n * m - l * l
                N = isqrt(NN) if NN > 0 else 0
                if N == 0 or N * N != NN:
                    continue
                acc = sum(kronecker(-4, a) for a in _pos_divisors(gcd(gcd(n, m), l)))
                val = N * kronecker(-4, N * l) * acc
                if val:
                    coeffs[(6 * n, l, 12 * m)] = val
    ser = Series(3, QRS_DENOMS, coeffs, (qmax, None, smax),
                 (6, min((k[1] for k in coeffs), default=0), 12))
    return SiegelExpansion(ser, 2, 2, CharacterTag(6, 1), "closed-form")


def _cf_delta1(qmax, smax):
    nmax = qmax // 4
    mmax = smax // 12
    coeffs = {}
    for n in range(1, nmax + 1, 6):
        for m in range(1, mmax + 1, 6):
            for l in range(-isqrt(4 * n * m // 3), isqrt(4 * n * m // 3) + 1):
                MM = 4 * n * m - 3 * l * l
                M = isqrt(MM) if MM > 0 else 0
                if M == 0 or M * M != MM:
                    continue
                # the character on the divisor sum is the conductor-6
                # eta-character value times (12/a)(-4/a), i.e. (-3/a)
                acc = sum(kronecker(-3, a) for a in _pos_divisors(gcd(gcd(n, m), l)))
                val = kronecker(-4, l) * kronecker(12, M) * acc
                if val:
                    coeffs[(4 * n, l, 12 * m)] = val
    ser = Series(3, QRS_DENOMS, coeffs, (qmax, None, smax),
                 (4, min((k[1] for k in coeffs), default=0), 12))
    return SiegelExpansion(ser, 3, 1, CharacterTag(4, 1), "closed-form")


def _cf_d2(qmax, smax):
    nmax = qmax // 4
    mmax = smax // 36
    coeffs = {}
    for n in range(1, nmax + 1, 6):
        for m in range(1, mmax + 1, 6):
            for l in range(-isqrt(4 * n * m), isqrt(4 * n * m) + 1):
                NN = 4 * n * m - l * l
                if NN <= 0 or NN % 3:
                    continue
                N = isqrt(NN // 3)
                if 3 * N * N != NN:
                    continue
                acc = sum(kronecker(-3, a) for a in _pos_divisors(gcd(gcd(n, m), l)))
                val = N * kronecker(-4, N) * kronecker(12, l) * acc
                if val:
                    coeffs[(4 * n, l, 36 * m)] = val
    ser = Series(3, QRS_DENOMS, coeffs, (qmax, None, smax),
                 (4, min((k[1] for k in coeffs), default=0), 36))
    return SiegelExpansion(ser, 9, 2, CharacterTag(4, 1), "closed-form")


def _cf_d1(qmax, smax):
    nmax = qmax // 2
    mmax = smax // 36
    coeffs = {}
    for n in range(1, nmax + 1, 12):
        for m in range(1, mmax + 1, 12):
            for l in range(-isqrt(2 * n * m), isqrt(2 * n * m) + 1):
                MM = 2 * n * m - l * l
                M = isqrt(MM) if MM > 0 else 0
                if M == 0 or M * M != MM:
                    continue
                acc = sum(kronecker(-4, a) for a in _pos_divisors(gcd(gcd(n, m), l)))
                val = kronecker(12, M * l) * acc
                if val:
                    coeffs[(2 * n, l, 36 * m)] = val
    ser = Series(3, QRS_DENOMS, coeffs, (qmax, None, smax),
                 (2, min((k[1] for k in coeffs), default=0), 36))
    return SiegelExpansion(ser, 18, 1, CharacterTag(2, 1), "closed-form")


def _cf_delta_half(qmax, smax):
    coeffs = {}
    m = 1
    while 12 * m * m <= smax:
        n = 1
        while 3 * n * n <= qmax:
            for nn in (n, -n):
                c = kronecker(-4, nn) * kronecker(-4, m)
                if c:
                    coeffs[(3 * n * n, nn * m, 12 * m * m)] = c
            n += 2
        m += 2
    ser = Series(3, QRS_DENOMS, coeffs, (qmax, None, smax),
                 (3, min((k[1] for k in coeffs), default=0), 12))
    return SiegelExpansion(ser, 4, Fraction(1, 2), CharacterTag(3, 1), "closed-form")


def _cf_d_half(qmax, smax):
    coeffs = {}
    m = 1
    while 36 * m * m <= smax:
        if kronecker(12, m):
            n = 1
            while n * n <= qmax:
                for nn in (n, -n):
                    c = kronecker(12, nn) * kronecker(12, m)
                    if c:
                        coeffs[(n * n, nn * m, 36 * m * m)] = c
                n += 1
        m += 1
    ser = Series(3, QRS_DENOMS, coeffs, (qmax, None, smax),
                 (1, min((k[1] for k in coeffs), default=0), 36))
    return SiegelExpansion(ser, 36, Fraction(1, 2), CharacterTag(1, 1), "closed-form")


_CLOSED = {
    "delta5": _cf_delta5,
    "delta2": _cf_delta2,
    "delta1": _cf_delta1,
    "delta_half": _cf_delta_half,
    "d_half": _cf_d_half,
    "d1": _cf_d1,
    "d2": _cf_d2,
}


# ----------------------------------------------------------------------
# exponential (multiplicative) lifting

def exp_lift(phi: JacobiExpansion, qmax: int = 144, smax: int = 144) -> SiegelExpansion:
    """Multiplicative lifting of a weight-0 integral-coefficient form of
    integer index t >= 1:

        q^A r^B s^C * prod over (n, l, m) > 0 of (1 - q^n r^l s^(t m))^f(nm, l)

    with 24A = sum f(0, l), 2B = sum_{l>0} l f(0, l), 24C = 6 sum l^2 f(0, l).
    Factors with negative q-exponent are rewritten as a monomial prefix
    times a factor in the inverse monomial, and the working box is widened
    so the final box is complete.
    """
    if phi.weight != 0:
        raise ValueError("weight-0 input required")
    if phi.index.denominator != 1 or phi.index < 1:
        raise ValueError("integer index >= 1 required")
    t = phi.index.numerator
    f0 = {}
    fmap = {}
    nmin_paper = 0
    for (n24, l2), c in phi.series.terms():
        if n24 % 24 or l2 % 2:
            raise ValueError("integral exponents required")
        n, l = n24 // 24, l2 // 2
        fmap[(n, l)] = c
        nmin_paper = min(nmin_paper, n)
        if n == 0:
            f0[l] = c

    A24 = sum(f0.values())
    B2 = sum(l * c for l, c in f0.items() if l > 0)
    C24 = 6 * sum(l * l * c for l, c in f0.items())

    qmax_paper_in = phi.qmax // 24
    # r^B lives inside the q^0 r-ratio below; the prefix carries q^A s^C
    prefix_key = [A24, 0, C24]
    prefix_sign = 1

    # negative-q factors: nm < 0 admits finitely many splittings nm = n*m;
    # each is rewritten (1-x)^e = (-x)^e (1 - 1/x)^e, pushing the monomial
    # (-x)^e into the prefix
    rewritten = []
    for (nm, l), c in fmap.items():
        if nm >= 0:
            continue
        for m in _pos_divisors(nm):
            rewritten.append((nm // m, l, m, c))
    for (n, l, m, e) in sorted(rewritten):
        prefix_key[0] += e * 24 * n
        prefix_key[1] += e * 2 * l
        prefix_key[2] += e * 24 * t * m
        if e % 2:
            prefix_sign = -prefix_sign

    # working box: the final multiplication by the prefix monomial shifts
    # the product box, and residual factors with downward s-steps degrade
    # the certified s-truncation by their maximal power
    Wq_work = max(qmax - min(prefix_key[0], 0), 0)
    degrade = sum((Wq_work // (24 * (-n))) * 24 * t * m
                  for (n, l, m, e) in rewritten)
    Ws_work = max(smax - min(prefix_key[2], 0) + degrade, 0)

    need_nm = max((Wq_work // 24) * max(Ws_work // (24 * t), 1), Wq_work // 24)
    if qmax_paper_in is not None and qmax_paper_in < need_nm:
        raise InsufficientBoxError(
            f"input complete to nm <= {qmax_paper_in}, need {need_nm}")

    # q^0 r-part: r^B * prod_{l<0} (1 - r^l)^(f(0,l)) as an exact ratio
    num = Series.one(2, (24, 2))
    den = Series.one(2, (24, 2))
    for l, c in sorted(f0.items()):
        if l >= 0:
            continue
        base = Series(2, (24, 2), {(0, 0): 1, (0, 2 * l): -1}, (0, None), (0, 2 * l))
        if c > 0:
            num = num.mul(base.pow(c))
        elif c < 0:
            den = den.mul(base.pow(-c))
    num = num.shift((0, B2))
    if len(den) == 1 and den.get((0, 0)) == 1:
        rpart2 = num
    else:
        rpart2 = num.div(den)
    rpart = Series(3, QRS_DENOMS,
                   {(0, k[1], 0): v for k, v in rpart2.coeffs.items()},
                   (None, None, None),
                   (0, min((k[1] for k in rpart2.coeffs), default=0), 0))

    # enumerate multiplicative factors
    flist = []
    for n in range(1, Wq_work // 24 + 1):
        for l, c in sorted(f0.items()):
            if c:
                flist.append((24 * n, 2 * l, 0, c))
    for m in range(1, Ws_work // (24 * t) + 1):
        for (nm, l), c in sorted(fmap.items()):
            if not c or nm < 0 or nm % m:
                continue
            n = nm // m
            if n > 0:
                if 24 * n <= Wq_work:
                    flist.append((24 * n, 2 * l, 24 * t * m, c))
            else:
                flist.append((0, 2 * l, 24 * t * m, c))
    for (n, l, m, c) in sorted(rewritten):
        flist.append((24 * (-n), -2 * l, -24 * t * m, c))

    flist.sort(key=lambda x: (x[0] + max(x[2], 0), x[0], x[2], x[1]))

    acc = rpart
    for (dq, dl, ds, e) in flist:
        fac = _factor_series(dq, dl, ds, e, Wq_work, Ws_work)
        acc = acc.mul(fac, cap=(Wq_work, Ws_work))

    result = acc.shift(tuple(prefix_key), prefix_sign)
    result = result.restricted((qmax, smax))
    if (result.trunc[0] is not None and result.trunc[0] < qmax) or \
       (result.trunc[2] is not None and result.trunc[2] < smax):
        raise InsufficientBoxError(
            f"certified box {result.trunc} fell short of ({qmax}, {smax})")
    weight = Fraction(f0.get(0, 0), 2)
    char = CharacterTag(A24 % 24, B2 % 2)
    return SiegelExpansion(result, t, weight, char, "exp-lift")


def _factor_series(dq: int, dl: int, ds: int, e: int, Wq: int, Ws: int) -> Series:
    """(1 - x)^e truncated to the working box, x = q^dq r^dl s^ds in
    numerator units with dq > 0 or (dq == 0 and ds > 0)."""
    if dq > 0:
        kmax = Wq // dq
        if ds > 0:
            kmax = min(kmax, Ws // ds)
    elif ds > 0:
        kmax = Ws // ds
    else:
        raise ValueError("factor monomial must increase q or s")
    coeffs = {(0, 0, 0): 1}
    if e >= 0:
        top = min(e, kmax)
        binom = 1
        for k in range(1, top + 1):
            binom = binom * (e - k + 1) // k
            coeffs[(k * dq, k * dl, k * ds)] = (-1) ** (k % 2) * binom
    else:
        M = -e
        binom = 1
        for k in range(1, kmax + 1):
            binom = binom * (M - 1 + k) // k
            coeffs[(k * dq, k * dl, k * ds)] = binom
    floor = (0, min(0, kmax * dl), min(0, kmax * ds))
    return Series(3, QRS_DENOMS, coeffs, (Wq, None, Ws if ds >= 0 else None), floor)


# ----------------------------------------------------------------------
# diagnostics

def lemma22_checksum(phi: JacobiExpansion) -> int:
    """t sum_l f(0,l) - 24 t sum_{n<0,l} sigma_1(|n|) f(n,l) - 6 sum_l l^2 f(0,l);
    zero for every genuine weight-0 input."""
    if phi.index.denominator != 1:
        raise ValueError("integer index required")
    t = phi.index.numerator
    s_const = s_neg = s_l2 = 0
    for (n24, l2), c in phi.series.terms():
        n, l = n24 // 24, l2 // 2
        if n == 0:
            s_const += c
            s_l2 += l * l * c
        elif n < 0:
            s_neg += _sigma1(-n) * c
    return t * s_const - 24 * t * s_neg - 6 * s_l2


def _sigma1(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def divisor_multiplicity(phi: JacobiExpansion, D: int, b: int) -> int:
    """Multiplicity sum m_{D,b} = sum_{n>0} f(n^2 a, n b) with D = b^2 - 4ta."""
    if phi.index.denominator != 1:
        raise ValueError("integer index required")
    t = phi.index.numerator
    if (b * b - D) % (4 * t):
        raise ValueError(f"discriminant {D} not representable with b={b} at index {t}")
    a = (b * b - D) // (4 * t)
    out = 0
    n = 1
    while True:
        if a > 0 and 24 * n * n * a > phi.qmax:
            break
        if a <= 0 and n > max(4 * t, abs(b)) + 4:
            break
        out += phi.fkey(24 * n * n * a, 2 * n * b)
        n += 1
    return out


def vt_parity(phi: JacobiExpansion) -> int:
    """Sign parity of the lifted product under the main involution:
    sum over n < 0 of sigma_1(|n|) f(n, l), mod 2."""
    acc = 0
    for (n24, l2), c in phi.series.terms():
        if n24 < 0:
            acc += _sigma1(-(n24 // 24)) * c
    return acc % 2
