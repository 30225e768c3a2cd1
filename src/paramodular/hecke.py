"""Hecke operators on Jacobi expansions, acting on Fourier coefficients.

All operators are normalized at the coefficient level: the scaling
conventions are fixed once by the printed coefficient formulas they must
reproduce (divisor sums for the index-raising operators, the three-term
formula for the index-preserving one), so composite identities hold with
explicit constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .chars import CharacterTag, kronecker, v_eta_sigma
from .cyclotomic import Cyc
from .forms import QR_DENOMS, JacobiExpansion
from .qseries import InsufficientBoxError, Series


def _divisors(n: int):
    n = abs(n)
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def lambda_op(phi: JacobiExpansion, n: int) -> JacobiExpansion:
    """z -> n z: index t -> t n^2, Heisenberg exponent times n."""
    if n < 1:
        raise ValueError("lambda operator wants n >= 1")
    return phi.rescale_z(n)


def _paper_terms(phi: JacobiExpansion):
    """Iterate ((n, l), c) in integer exponent units; requires an
    integral-exponent expansion."""
    for (a, b), c in phi.series.terms():
        if a % 24 or b % 2:
            raise ValueError("operator needs integral q- and r-exponents")
        yield (a // 24, b // 2), c


def t_minus_weight0(phi: JacobiExpansion, m: int) -> JacobiExpansion:
    """Index-raising operator at weight 0, trivial character:
    f_m(N, L) = m * sum_{a | (N, L, m)} a^{-1} f(N m / a^2, L / a)."""
    if phi.weight != 0:
        raise ValueError("this normalization is for weight 0")
    if phi.index.denominator != 1:
        raise ValueError("integer index required")
    if m < 1:
        raise ValueError("m must be positive")
    coeffs = {}
    tout = phi.qmax // m  # numerator units
    for (n, l), c in _paper_terms(phi):
        for a in _divisors(m):
            if (n * a * a) % m:
                continue
            key = (24 * (n * a * a // m), 2 * l * a)
            if key[0] > tout:
                continue
            v = coeffs.get(key, 0) + (m // a) * c
            if v:
                coeffs[key] = v
            elif key in coeffs:
                del coeffs[key]
    fq = min(Fraction(phi.series.floor[0] * a * a, m).__floor__()
             for a in _divisors(m))
    ser = Series(2, QR_DENOMS, coeffs, (tout, None),
                 (fq, min((k[1] for k in coeffs), default=0)))
    ser._drop_overflow()
    return JacobiExpansion(ser, 0, phi.index * m, phi.char, phi.kind)


def t_minus_char(phi: JacobiExpansion, m: int, Q: int | None = None,
                 D: int | None = None) -> JacobiExpansion:
    """Index-raising operator twisted by the eta-character of even D | 24:
    contributions a^(k-1) * v_eta_sigma(a, D) * f(m n / a^2, l / a),
    normalized so that the image's first Fourier-Jacobi data match the
    printed leading slices of the lifted examples."""
    if D is None:
        D = phi.char.D
    if D % 2 or D == 0 or 24 % D:
        raise ValueError("need an even D dividing 24")
    if Q is None:
        Q = 24 // D
    if gcd(m, Q * (2 ** phi.char.eps)) != 1:
        raise ValueError(f"m={m} must be coprime to {Q * 2 ** phi.char.eps}")
    if phi.weight.denominator != 1:
        raise ValueError("integral weight required")
    k = phi.weight.numerator
    coeffs = {}
    tout = phi.qmax // m  # numerator units
    for (n24, l2), c in phi.series.terms():
        if n24 % D:
            raise ValueError("expansion is not supported on the stated character lattice")
        bigN = n24 // D
        for a in _divisors(m):
            d = m // a
            if bigN % d:
                continue
            key = (n24 * a // d, l2 * a)
            if key[0] > tout:
                continue
            w = a ** (k - 1) * v_eta_sigma(a, D) * c
            v = coeffs.get(key, 0) + w
            if v:
                coeffs[key] = v
            elif key in coeffs:
                del coeffs[key]
    Dout = phi.char.D
    if Q > 2 and m % Q == Q - 1:
        Dout = -Dout  # conjugated character for m = -1 mod Q
    fq = min(Fraction(phi.series.floor[0] * a, m // a).__floor__()
             for a in _divisors(m))
    ser = Series(2, QR_DENOMS, coeffs, (tout, None),
                 (fq, min((kk[1] for kk in coeffs), default=0)))
    ser._drop_overflow()
    return JacobiExpansion(ser, phi.weight, phi.index * m,
                           CharacterTag(Dout, phi.char.eps), phi.kind)


def gauss_sum(p: int, n: int, l: int, t: int) -> int:
    """Quadratic exponential sum attached to the index-preserving operator,
    in closed form."""
    if t % p:
        return p * kronecker(-(4 * n * t - l * l), p)
    if l % p:
        return 0
    if n % p == 0:
        return p * (p - 1)
    return -p


def gauss_sum_bruteforce(p: int, n: int, l: int, t: int) -> int:
    """-p + sum over a, b mod p of e((n a + l a b + t a b^2)/p), evaluated
    exactly in Z[zeta_p]."""
    acc = 0
    for a in range(p):
        for b in range(p):
            acc = acc + Cyc.root(p, (n * a + l * a * b + t * a * b * b) % p)
    val = acc - p
    if isinstance(val, Cyc):
        return val.rational()
    return val


def _weak_l_bound(t: int, n: int) -> int:
    # supports norms >= -t^2 (weak bound); generous for holomorphic inputs
    v = 4 * t * n + t * t
    return isqrt(v) + 1 if v >= 0 else 0


def t0(phi: JacobiExpansion, p: int) -> JacobiExpansion:
    """Index-preserving operator at weight 0; Fourier coefficients
    g_p(n,l) = p^3 g(p^2 n, p l) + G_p(n,l,t) g(n,l)
             + sum over shifts s of g((n + s l + s^2 t)/p^2, (l + 2 s t)/p)."""
    if phi.weight != 0:
        raise ValueError("this normalization is for weight 0")
    if phi.index.denominator != 1:
        raise ValueError("integer index required")
    t = phi.index.numerator
    qmax_paper = phi.qmax // 24
    tout = qmax_paper // (p * p)
    # unseen input terms (n > qmax) must not land inside the output box
    # via the shift branch: their landing exponent grows like p^2 n
    n1 = qmax_paper + 1
    lmax = _weak_l_bound(t, n1)
    if not (p * p * n1 - (p - 1) * p * lmax > tout and
            4 * t * n1 > (2 * t * (p - 1)) ** 2 // (p * p)):
        raise InsufficientBoxError("input truncation too small for a sound shift branch")
    coeffs = {}

    def push(n, l, c):
        if n > tout:
            return
        key = (24 * n, 2 * l)
        v = coeffs.get(key, 0) + c
        if v:
            coeffs[key] = v
        elif key in coeffs:
            del coeffs[key]

    for (n, l), c in _paper_terms(phi):
        if n % (p * p) == 0 and l % p == 0:
            push(n // (p * p), l // p, p ** 3 * c)
        g = gauss_sum(p, n, l, t)
        if g:
            push(n, l, g * c)
        for lam in range(p):
            push(p * p * n - lam * p * l + lam * lam * t, p * l - 2 * lam * t, c)

    f0 = phi.series.floor[0]
    fq = 24 * min(f0 // (24 * p * p) if f0 >= 0 else -((-f0) // 24), f0 // 24,
                  Fraction(-p * p * t, 4).__floor__())
    kind = phi.kind
    if any(k[0] < 0 for k in coeffs):
        kind = "nearly-holomorphic"
    ser = Series(2, QR_DENOMS, coeffs, (24 * tout, None),
                 (fq, min((k[1] for k in coeffs), default=0)))
    ser._drop_overflow()
    return JacobiExpansion(ser, 0, phi.index, phi.char, kind)


def t0_norm_formula(phi: JacobiExpansion, p: int) -> JacobiExpansion:
    """Good-reduction specialization on norm-dependent coefficients:
    g_p(N) = p^3 g(p^2 N) + p (-N/p) g(N) + g(N/p^2)."""
    t = phi.index.numerator
    if t % p == 0:
        raise ValueError("good reduction needs p coprime to the index")
    nm = phi.norm_map()
    qmax_paper = phi.qmax // 24
    tout = max(qmax_paper // (p * p) - t, 0)

    def g(N):
        return _norm_lookup(nm, t, N, qmax_paper)

    coeffs = {}
    nmin = -(p * p * t) // 4 - 1
    for n in range(nmin, tout + 1):
        for l in range(-_weak_l_bound(t, max(n, 0)) - 2 * t * p,
                       _weak_l_bound(t, max(n, 0)) + 2 * t * p + 1):
            N = 4 * t * n - l * l
            if N < -t * t * p * p:
                continue
            val = p ** 3 * g(p * p * N) + p * kronecker(-N, p) * g(N)
            if N % (p * p) == 0:
                val += g(N // (p * p))
            if val:
                coeffs[(24 * n, 2 * l)] = val
    ser = Series(2, QR_DENOMS, coeffs, (24 * tout, None),
                 (24 * nmin, min((k[1] for k in coeffs), default=0)))
    return JacobiExpansion(ser, 0, phi.index, phi.char, phi.kind)


def _norm_lookup(nm: dict, t: int, N: int, qmax_paper: int):
    if N in nm:
        return nm[N]
    # a missing norm is zero when representable inside the box, or when the
    # congruence 4 t n - l^2 = N has no solution at all
    solvable = False
    for l in range(0, 2 * t + 1):
        if (N + l * l) % (4 * t) == 0:
            solvable = True
            n = (N + l * l) // (4 * t)
            if 0 <= n <= qmax_paper:
                return 0
    if not solvable or N < -t * t:
        return 0
    raise InsufficientBoxError(f"norm {N} not determined by the computed box")


def t_plus_2(phi: JacobiExpansion) -> JacobiExpansion:
    """Index-lowering operator from index 2 to index 1 on norm classes.

    The underlying coefficient rule is
        g(N) = 2 f(4N) + ((-N/2) + 1)/2 * f(N);
    the operator itself is 4 g, fixing the scale so that the image of the
    standard index-2 generator is 4 times the index-1 generator."""
    if phi.index != 2 or phi.weight != 0:
        raise ValueError("index-2 weight-0 input required")
    nm = phi.norm_map()
    qmax_paper = phi.qmax // 24
    tout = qmax_paper // 2
    coeffs = {}
    for n in range(0, tout + 1):
        lb = isqrt(4 * n + 1) + 1
        for l in range(-lb, lb + 1):
            N = 4 * n - l * l
            val = 8 * Fraction(_norm_lookup(nm, 2, 4 * N, qmax_paper))
            sym = kronecker(-N, 2)
            if sym + 1:
                val += 2 * (sym + 1) * _norm_lookup(nm, 2, N, qmax_paper)
            if val:
                if val.denominator != 1:
                    raise ArithmeticError(f"non-integral image coefficient {val}")
                coeffs[(24 * n, 2 * l)] = val.numerator
    ser = Series(2, QR_DENOMS, coeffs, (24 * tout, None),
                 (0, min((k[1] for k in coeffs), default=0)))
    return JacobiExpansion(ser, 0, Fraction(1), phi.char, phi.kind)


def lambda_star(phi: JacobiExpansion, p: int) -> JacobiExpansion:
    """Index-dividing operator (index t -> t/p^2), normalized so that
    composing with the index-raising z -> pz map is multiplication by p^4."""
    t = phi.index
    tstar = t / (p * p)
    if (4 * tstar).denominator != 1 or (2 * tstar).denominator != 1:
        raise ValueError("index does not admit division by p^2")
    if phi.weight != 0:
        raise ValueError("weight-0 normalization")
    qmax_paper = phi.qmax // 24
    tnum = t.numerator  # t integral in all supported uses
    if t.denominator != 1:
        raise ValueError("integral index required")
    lmax1 = _weak_l_bound(tnum, qmax_paper + 1)
    shift_down = (p - 1) * lmax1 // p + 1
    tout = qmax_paper - shift_down
    if tout < 0:
        raise InsufficientBoxError("input truncation too small")
    coeffs = {}
    for (n, l), c in _paper_terms(phi):
        if l % p:
            continue
        lp = l // p
        for lam in range(p):
            nq = Fraction(n + lam * lp) + Fraction(lam * lam) * tstar
            lq = Fraction(lp) + 2 * lam * tstar
            key24 = nq * 24
            key2 = lq * 2
            if key24.denominator != 1 or key2.denominator != 1:
                continue
            if key24.numerator > 24 * tout:
                continue
            key = (key24.numerator, key2.numerator)
            v = coeffs.get(key, 0) + p ** 3 * c
            if v:
                coeffs[key] = v
            elif key in coeffs:
                del coeffs[key]
    ser = Series(2, QR_DENOMS, coeffs, (24 * tout, None),
                 (min(phi.series.floor[0], 0),
                  min((k[1] for k in coeffs), default=0)))
    ser._drop_overflow()
    return JacobiExpansion(ser, 0, tstar, phi.char, phi.kind)


def t_plus_1_4(phi: JacobiExpansion) -> JacobiExpansion:
    """Index-lowering operator from index 4 to index 1, realized through the
    index-preserving operator at 2 followed by the index division, times 1/2."""
    if phi.index != 4 or phi.weight != 0:
        raise ValueError("index-4 weight-0 input required")
    return lambda_star(t0(phi, 2), 2).scale_div(2)


@dataclass(frozen=True)
class HeckeDescriptor:
    kind: str          # lambda | tminus | tminuschar | t0 | tplus2 | tplus14 | lambdastar
    param: int = 1

    def apply(self, phi: JacobiExpansion) -> JacobiExpansion:
        if self.kind == "lambda":
            return lambda_op(phi, self.param)
        if self.kind == "tminus":
            return t_minus_weight0(phi, self.param)
        if self.kind == "tminuschar":
            return t_minus_char(phi, self.param)
        if self.kind == "t0":
            return t0(phi, self.param)
        if self.kind == "tplus2":
            return t_plus_2(phi)
        if self.kind == "tplus14":
            return t_plus_1_4(phi)
        if self.kind == "lambdastar":
            return lambda_star(phi, self.param)
        raise ValueError(f"unknown operator kind {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "HeckeDescriptor":
        if ":" in text:
            kind, param = text.split(":", 1)
            return cls(kind, int(param))
        return cls(text)
