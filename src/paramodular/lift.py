"""Liftings from Jacobi expansions to three-variable Siegel expansions.

``arith_lift`` realizes the divisor-sum lifting of a Jacobi cusp form with
eta-power character; ``exp_lift`` the multiplicative (Borcherds-type)
lifting of a weight-0 form; ``closed_form`` evaluates the explicit
multi-sum expansions of the classical small-weight forms directly, as
independent oracles for the identity suite.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd, isqrt
from typing import NamedTuple

from .chars import CharacterTag, divisors, kronecker, v_eta_sigma
from .forms import JacobiExpansion, catalog
from .qseries import InsufficientBoxError, Series

QRS_DENOMS = (24, 2, 24)


class SiegelExpansion:
    """Truncated Fourier expansion of a paramodular form in q, r, s."""

    __slots__ = ("series", "level", "weight", "char", "mu")

    def __init__(self, series: Series, level, weight, char: CharacterTag, mu: int = 1):
        self.series = series
        self.level = Fraction(level)
        self.weight = Fraction(weight)
        self.char = char
        self.mu = mu

    def coeff_at(self, q, r, s) -> int:
        return self.series.coeff_at(q, r, s)

    def restricted(self, qmax: int, smax: int) -> "SiegelExpansion":
        return SiegelExpansion(self.series.restricted((qmax, smax)), self.level,
                               self.weight, self.char, self.mu)

    def __repr__(self):
        return (f"SiegelExpansion(level={self.level}, weight={self.weight}, "
                f"{len(self.series)} terms, box=({self.series.trunc[0]}, "
                f"{self.series.trunc[2]}))")


# ----------------------------------------------------------------------
# arithmetic lifting

def _arith_box(phi: JacobiExpansion, qmax: int, smax: int):
    """(D, Nmax, Mmax, need) for ``arith_lift``: the eta-character exponent,
    which must be even and divide 24, the largest q- and s-multipliers N, M
    inside the output box, and the input q-numerator depth D*Nmax*Mmax
    their products reach.  The input must have an integral weight >= 1 (the
    divisor sum weighs by a^(k-1)) and a positive index."""
    if phi.weight.denominator != 1 or phi.weight < 1 or phi.index <= 0:
        raise ValueError(f"arithmetic lifting needs an integral weight >= 1 and a "
                         f"positive index, not weight {phi.weight}, index {phi.index}")
    D = phi.char.D or 24  # trivial character: conductor 1
    if D % 2 or 24 % D:
        raise ValueError("need an even character exponent D dividing 24")
    Nmax = qmax // D
    Mmax = int(Fraction(smax, 24) / phi.index)
    return D, Nmax, Mmax, D * Nmax * Mmax


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
    D, Nmax, Mmax, need = _arith_box(phi, qmax, smax)
    k = phi.weight.numerator
    Q = 24 // D
    if gcd(mu, Q) != 1:
        raise ValueError(f"mu={mu} is not invertible modulo Q={Q}")
    mu %= Q
    if mu == 0:
        mu = Q
    t = phi.index
    eps = phi.char.eps

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
                for a in divisors(gcd(gcd(N, M), L)):
                    fv = phi.fkey(N * M * D // (a * a), L // a)
                    if fv:
                        acc += a ** (k - 1) * v_eta_sigma(a, D) * fv
                if acc:
                    coeffs[(N * D, L, int(skey))] = acc

    floor = (D * mu, min((kk[1] for kk in coeffs), default=0), int(24 * mu * t))
    ser = Series(3, QRS_DENOMS, coeffs, (qmax, None, smax), floor)
    return SiegelExpansion(ser, Q * t, k, CharacterTag(D, eps), mu=mu)


def lift_arith(name: str, mu: int = 1, qmax: int = 144, smax: int = 144) -> SiegelExpansion:
    """Arithmetic lifting of a registry form, requesting its own input depth."""
    need = _arith_box(catalog(name, 24), qmax, smax)[-1]
    return arith_lift(catalog(name, max(need, 24)), mu, qmax, smax)


def lift_exp(name: str, qmax: int = 144, smax: int = 144) -> SiegelExpansion:
    """Exponential lifting of a registry form, requesting its own input depth."""
    return lift_exp_of(lambda depth: catalog(name, depth), qmax, smax)


def siegel_expansion(ident: str, qmax: int, smax: int) -> SiegelExpansion:
    """The expansion a lift id names: a closed-form name, ``arith:<form>``,
    ``arith:<form>:<mu>`` or ``exp:<form>``.  Any other id raises KeyError,
    and a mu that is no integer ValueError."""
    kind, *args = ident.split(":")
    if not args and kind in _CLOSED:
        return closed_form(kind, qmax, smax)
    if kind == "arith" and len(args) in (1, 2) and args[0]:
        return lift_arith(args[0], int(args[1]) if len(args) == 2 else 1, qmax, smax)
    if kind == "exp" and len(args) == 1 and args[0]:
        return lift_exp(args[0], qmax, smax)
    raise KeyError(f"unknown Siegel expansion id {ident!r}")


def lift_exp_of(build, qmax: int, smax: int) -> SiegelExpansion:
    """Exponential lifting of ``build(depth)``, a Jacobi expansion complete
    to the q-numerator ``depth``, asking ``build`` for the depth the plan of
    ``exp_lift`` needs.  The plan reads only the q^0 and negative-q rows,
    which a depth-96 probe already shows."""
    depth = _exp_plan(build(96), qmax, smax).depth
    return exp_lift(build(depth), qmax, smax)


# ----------------------------------------------------------------------
# closed-form oracle expansions

def closed_form(name: str, qmax: int = 144, smax: int = 144) -> SiegelExpansion:
    builder = _CLOSED.get(name)
    if builder is None:
        raise KeyError(f"unknown closed form {name!r}; have {sorted(_CLOSED)}")
    return builder(qmax, smax)


def _tau9_table(xmax8: int) -> dict:
    """x -> coefficient of q^(x/8) in eta^9 (x = 3 mod 8, x <= xmax8), as the
    cube of Jacobi's eta^3 = sum (-1)^n (2n+1) q^((2n+1)^2/8)."""
    terms = {}
    n = 0
    while (2 * n + 1) ** 2 <= xmax8:
        terms[((2 * n + 1) ** 2,)] = (-1) ** n * (2 * n + 1)
        n += 1
    e3 = Series(1, (8,), terms, (xmax8,), (1,))
    return {x: c for (x,), c in e3.pow(3).restricted((xmax8,)).terms()}


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
                for a in divisors(gcd(gcd(n, m), l)):
                    x = (4 * n * m - l * l) // (a * a)
                    tv = tau9.get(x, 0)
                    if tv:
                        sgn = -1 if ((l + a + 2) // 2) % 2 else 1
                        acc += sgn * a ** 4 * tv
                if acc:
                    coeffs[(12 * n, l, 12 * m)] = acc
    ser = Series(3, QRS_DENOMS, coeffs, (qmax, None, smax),
                 (12, min((k[1] for k in coeffs), default=0), 12))
    return SiegelExpansion(ser, 1, 5, CharacterTag(12, 1))


def _cf_divisor_sum(D, t, k, form, dN, dl, da, qmax, smax):
    """Weight-k, level-t form with character (D, 1): for n, m = 1 mod 24/D
    the coefficient of q^(D n/24) r^(l/2) s^(t D m/24) is
        N^(k-1) (dN/N) (dl/l) sum over e | (n, m, l) of (da/e)
    where a n m - b l^2 = c N^2 > 0, (a, b, c) = form, and 0 otherwise."""
    a, b, c = form
    step = 24 // D
    coeffs = {}
    for n in range(1, qmax // D + 1, step):
        for m in range(1, smax // (t * D) + 1, step):
            lmax = isqrt(a * n * m // b)
            for l in range(-lmax, lmax + 1):
                cNN = a * n * m - b * l * l
                if cNN <= 0 or cNN % c:
                    continue
                N = isqrt(cNN // c)
                if c * N * N != cNN:
                    continue
                acc = sum(kronecker(da, e) for e in divisors(gcd(gcd(n, m), l)))
                val = N ** (k - 1) * kronecker(dN, N) * kronecker(dl, l) * acc
                if val:
                    coeffs[(D * n, l, t * D * m)] = val
    ser = Series(3, QRS_DENOMS, coeffs, (qmax, None, smax),
                 (D, min((kk[1] for kk in coeffs), default=0), t * D))
    return SiegelExpansion(ser, t, k, CharacterTag(D, 1))


def _cf_theta_product(qu, su, chi, level, qmax, smax):
    """Weight-1/2 form with character (qu, 1): the coefficient of
    q^(qu n^2/24) r^(n m/2) s^(su m^2/24), n != 0, m >= 1, is (chi/n)(chi/m)."""
    coeffs = {}
    m = 1
    while su * m * m <= smax:
        n = 1
        while qu * n * n <= qmax:
            for nn in (n, -n):
                c = kronecker(chi, nn) * kronecker(chi, m)
                if c:
                    coeffs[(qu * n * n, nn * m, su * m * m)] = c
            n += 1
        m += 1
    ser = Series(3, QRS_DENOMS, coeffs, (qmax, None, smax),
                 (qu, min((k[1] for k in coeffs), default=0), su))
    return SiegelExpansion(ser, level, Fraction(1, 2), CharacterTag(qu, 1))


# (D, t, k, (a, b, c), dN, dl, da) of _cf_divisor_sum.  For delta1 the
# character on the divisor sum is the conductor-6 eta-character value
# times (12/e)(-4/e), i.e. (-3/e).
_DIVISOR_SUMS = {
    "delta1": (4, 3, 1, (4, 3, 1), 12, -4, -3),
    "delta2": (6, 2, 2, (2, 1, 1), -4, -4, -4),
    "d2": (4, 9, 2, (4, 1, 3), -4, 12, -3),
    "d1": (2, 18, 1, (2, 1, 1), 12, 12, -4),
}
# (q-unit, s-unit, chi, level) of _cf_theta_product
_THETA_PRODUCTS = {
    "delta_half": (3, 12, -4, 4),
    "d_half": (1, 36, 12, 36),
}
_CLOSED = {
    "delta5": _cf_delta5,
    **{name: partial(_cf_divisor_sum, *row) for name, row in _DIVISOR_SUMS.items()},
    **{name: partial(_cf_theta_product, *row) for name, row in _THETA_PRODUCTS.items()},
}


# ----------------------------------------------------------------------
# exponential (multiplicative) lifting

class _ExpPlan(NamedTuple):
    """What ``exp_lift`` fixes before it multiplies, read off the q^0 and
    negative-q rows of its input; ``lift_exp`` requests ``depth`` from the
    same plan."""
    t: int
    fmap: dict          # (n, l) -> f(n, l) in integer exponents
    f0: dict            # l -> f(0, l)
    B2: int
    char: CharacterTag
    rewritten: list     # sorted (n, l, m, e): the factors with n m < 0
    prefix: tuple       # (q, r, s) numerators of the prefix monomial
    sign: int           # and its sign
    Wq: int             # working box, numerator units
    Ws: int
    need_nm: int        # the input must be complete to q^need_nm

    @property
    def depth(self) -> int:
        return 24 * max(self.need_nm, 1)


def _exp_plan(phi: JacobiExpansion, qmax: int, smax: int) -> _ExpPlan:
    if phi.weight != 0:
        raise ValueError("weight-0 input required")
    if phi.index.denominator != 1 or phi.index < 1:
        raise ValueError("integer index >= 1 required")
    t = phi.index.numerator
    fmap = dict(phi.paper_terms())
    f0 = {l: c for (n, l), c in fmap.items() if n == 0}

    A24 = sum(f0.values())
    B2 = sum(l * c for l, c in f0.items() if l > 0)
    C24 = 6 * sum(l * l * c for l, c in f0.items())
    # r^B lives inside the q^0 r-ratio of exp_lift; the prefix carries q^A s^C
    prefix = [A24, 0, C24]
    sign = 1

    # negative-q factors: nm < 0 admits finitely many splittings nm = n*m;
    # each is rewritten (1-x)^e = (-x)^e (1 - 1/x)^e, pushing the monomial
    # (-x)^e into the prefix
    rewritten = sorted((nm // m, l, m, c) for (nm, l), c in fmap.items() if nm < 0
                       for m in divisors(nm))
    for (n, l, m, e) in rewritten:
        prefix[0] += e * 24 * n
        prefix[1] += e * 2 * l
        prefix[2] += e * 24 * t * m
        if e % 2:
            sign = -sign

    # working box: the final multiplication by the prefix monomial shifts
    # the product box, and residual factors with downward s-steps degrade
    # the certified s-truncation by their maximal power
    Wq = max(qmax - min(prefix[0], 0), 0)
    degrade = sum((Wq // (24 * (-n))) * 24 * t * m for (n, l, m, e) in rewritten)
    Ws = max(smax - min(prefix[2], 0) + degrade, 0)
    need_nm = max((Wq // 24) * max(Ws // (24 * t), 1), Wq // 24)
    return _ExpPlan(t, fmap, f0, B2, CharacterTag(A24 % 24, B2 % 2), rewritten,
                    tuple(prefix), sign, Wq, Ws, need_nm)


def exp_lift(phi: JacobiExpansion, qmax: int = 144, smax: int = 144) -> SiegelExpansion:
    """Multiplicative lifting of a weight-0 integral-coefficient form of
    integer index t >= 1:

        q^A r^B s^C * prod over (n, l, m) > 0 of (1 - q^n r^l s^(t m))^f(nm, l)

    with 24A = sum f(0, l), 2B = sum_{l>0} l f(0, l), 24C = 6 sum l^2 f(0, l).
    Factors with negative q-exponent are rewritten as a monomial prefix
    times a factor in the inverse monomial, and the working box is widened
    so the final box is complete.  The factors are multiplied in on one
    sliced accumulator by :meth:`Series.mul_factors`, and a result
    certified short of the box is refused by :meth:`Series.certified`.
    """
    plan = _exp_plan(phi, qmax, smax)
    t, f0, Wq_work, Ws_work = plan.t, plan.f0, plan.Wq, plan.Ws
    if phi.qmax // 24 < plan.need_nm:
        raise InsufficientBoxError(
            f"input complete to nm <= {phi.qmax // 24}, need {plan.need_nm}")

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
    num = num.shift((0, plan.B2))
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
        for (nm, l), c in sorted(plan.fmap.items()):
            if not c or nm < 0 or nm % m:
                continue
            n = nm // m
            if n > 0:
                if 24 * n <= Wq_work:
                    flist.append((24 * n, 2 * l, 24 * t * m, c))
            else:
                flist.append((0, 2 * l, 24 * t * m, c))
    for (n, l, m, c) in plan.rewritten:
        flist.append((24 * (-n), -2 * l, -24 * t * m, c))

    flist.sort(key=lambda x: (x[0] + max(x[2], 0), x[0], x[2], x[1]))

    acc = rpart.mul_factors((_factor_series(*f, Wq_work, Ws_work) for f in flist),
                            cap=(Wq_work, Ws_work))
    result = acc.shift(plan.prefix, plan.sign).certified((qmax, smax))
    weight = Fraction(f0.get(0, 0), 2)
    return SiegelExpansion(result, t, weight, plan.char)


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
    for (n, l), c in phi.paper_terms():
        if n == 0:
            s_const += c
            s_l2 += l * l * c
        elif n < 0:
            s_neg += sum(divisors(n)) * c
    return t * s_const - 24 * t * s_neg - 6 * s_l2


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
    for (n, _), c in phi.paper_terms():
        if n < 0:
            acc += sum(divisors(n)) * c
    return acc % 2
