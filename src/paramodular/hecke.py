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
from itertools import count
from math import gcd, isqrt

from .chars import CharacterTag, divisors, kronecker, v_eta_sigma
from .forms import QR_DENOMS, JacobiExpansion, catalog
from .qseries import InsufficientBoxError, Series


def lambda_op(phi: JacobiExpansion, n: int) -> JacobiExpansion:
    """z -> n z: index t -> t n^2, Heisenberg exponent times n."""
    if n < 1:
        raise ValueError("lambda operator wants n >= 1")
    return phi.rescale_z(n)


def _image_series(coeffs: dict, tout: int, fq: int) -> Series:
    """An operator image complete to the q-numerator ``tout``, from its
    accumulated coefficients; ``fq`` bounds its q-exponents from below."""
    coeffs = {k: c for k, c in coeffs.items() if c}
    return Series(2, QR_DENOMS, coeffs, (tout, None),
                  (fq, min((k[1] for k in coeffs), default=0)))


def _t_minus_reach(t: int, m: int, depth: int) -> int:
    return depth // m


def _t_minus(phi: JacobiExpansion, step: int, weight):
    """The divisor sum behind both index-raising operators and the
    arithmetic lift: for each a | m and d = m / a, the source term
    c q^(n/24) r^(l/2) lands at q^(n a/(24 d)) r^(l a/2) with weight(a) c,
    kept when d divides n / step, its q-numerator over the lattice step (so
    that a divides the target's paper exponents).  Reads ``phi`` once as
    q-rows and returns (m, tout) -> the image complete to q-numerator tout."""
    rows = phi.series._slices()
    if any(n % step for n, _ in rows):
        raise ValueError("expansion is not supported on the stated character lattice")

    def image(m: int, tout: int) -> Series:
        coeffs = {}
        for a in divisors(m):
            w, sa, sd = weight(a), step * a, step * (m // a)
            # the source rows n = sd j land at sa j <= tout
            for j in range(-(-phi.series.floor[0] // sd), tout // sa + 1):
                for l, c in rows.get((sd * j, 0), {}).items():
                    key = (sa * j, l * a)
                    coeffs[key] = coeffs.get(key, 0) + w * c
        fq = min(phi.series.floor[0] * a // (m // a) for a in divisors(m))
        return _image_series(coeffs, tout, fq)
    return image


def _eta_twist(phi: JacobiExpansion):
    """(D, weight) of the eta-character twist of ``t_minus_char`` and
    ``lift.arith_lift``: D (24, conductor 1, at the trivial character) must
    be even and divide 24, and a | m weighs a^(k-1) v_eta_sigma(a, D)."""
    D = phi.char.D or 24
    if D % 2 or 24 % D:
        raise ValueError("need an even character exponent D dividing 24")
    k = phi.weight.numerator
    return D, lambda a: a ** (k - 1) * v_eta_sigma(a, D)


def t_minus_weight0(phi: JacobiExpansion, m: int) -> JacobiExpansion:
    """Index-raising operator at weight 0, trivial character:
    f_m(N, L) = m * sum_{a | (N, L, m)} a^{-1} f(N m / a^2, L / a)."""
    if phi.weight != 0:
        raise ValueError("this normalization is for weight 0")
    if phi.index.denominator != 1:
        raise ValueError("integer index required")
    if m < 1:
        raise ValueError("m must be positive")
    tout = _t_minus_reach(phi.index.numerator, m, phi.qmax)
    ser = _t_minus(phi, 24, lambda a: m // a)(m, tout)
    return JacobiExpansion(ser, 0, phi.index * m, phi.char, phi.kind)


def t_minus_char(phi: JacobiExpansion, m: int) -> JacobiExpansion:
    """Index-raising operator twisted by the eta-character of even D | 24
    (D = 0, the trivial character, read as 24):
    contributions a^(k-1) * v_eta_sigma(a, D) * f(m n / a^2, l / a),
    normalized so that the image's first Fourier-Jacobi data match the
    printed leading slices of the lifted examples."""
    D, weight = _eta_twist(phi)
    Q = 24 // D
    if gcd(m, Q * (2 ** phi.char.eps)) != 1:
        raise ValueError(f"m={m} must be coprime to {Q * 2 ** phi.char.eps}")
    if phi.weight.denominator != 1:
        raise ValueError("integral weight required")
    Dout = -D if Q > 2 and m % Q == Q - 1 else D  # conjugated for m = -1 mod Q
    ser = _t_minus(phi, D, weight)(m, _t_minus_reach(phi.index.numerator, m, phi.qmax))
    return JacobiExpansion(ser, phi.weight, phi.index * m, CharacterTag(Dout, phi.char.eps),
                           phi.kind)


def gauss_sum(p: int, n: int, l: int, t: int) -> int:
    """Quadratic exponential sum attached to the index-preserving operator,
    in closed form for a prime p."""
    if t % p:
        return p * kronecker(-(4 * n * t - l * l), p)
    if l % p:
        return 0
    if n % p == 0:
        return p * (p - 1)
    return -p


def _weak_l_bound(t: int, n: int) -> int:
    # supports norms >= -t^2 (weak bound); generous for holomorphic inputs
    v = 4 * t * n + t * t
    return isqrt(v) + 1 if v >= 0 else 0


def _t0_reach(t: int, p: int, depth: int) -> int:
    """The q-numerator to which ``t0`` at p certifies the image of an
    index-t input complete to ``depth``: the rows n // p^2 of an input
    complete to q^n, or -1 when an unseen term (past n) of the shift branch
    lands inside them.  Their landing exponent grows like p^2 n, so the
    first unseen row decides."""
    if t < 1:
        raise ValueError("the index-preserving operator needs a positive index")
    n = depth // 24
    n1, rows = n + 1, n // (p * p)
    sound = (p * p * n1 - (p - 1) * p * _weak_l_bound(t, n1) > rows and
             4 * t * n1 > (2 * t * (p - 1)) ** 2 // (p * p))
    return 24 * rows if sound else -1


def t0(phi: JacobiExpansion, p: int) -> JacobiExpansion:
    """Index-preserving operator at weight 0; Fourier coefficients
    g_p(n,l) = p^3 g(p^2 n, p l) + G_p(n,l,t) g(n,l)
             + sum over shifts s of g((n + s l + s^2 t)/p^2, (l + 2 s t)/p)."""
    if phi.weight != 0:
        raise ValueError("this normalization is for weight 0")
    if phi.index.denominator != 1:
        raise ValueError("integer index required")
    t = phi.index.numerator
    tout = _t0_reach(t, p, phi.qmax)
    if tout < 0:
        raise InsufficientBoxError("input truncation too small for a sound shift branch")
    coeffs = {}

    def push(n, l, c):
        if 24 * n > tout:
            return
        key = (24 * n, 2 * l)
        coeffs[key] = coeffs.get(key, 0) + c

    for (n, l), c in phi.paper_terms():
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
    ser = _image_series(coeffs, tout, fq)
    kind = "nearly-holomorphic" if any(k[0] < 0 for k in ser.coeffs) else phi.kind
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
    return JacobiExpansion(_image_series(coeffs, 24 * tout, 24 * nmin), 0, phi.index,
                           phi.char, phi.kind)


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


def _t_plus_2_reach(t: int, _, depth: int) -> int:
    return 24 * (depth // 48)


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
    tout = _t_plus_2_reach(2, 1, phi.qmax)
    coeffs = {}
    for n in range(0, tout // 24 + 1):
        lb = isqrt(4 * n + 1) + 1
        for l in range(-lb, lb + 1):
            N = 4 * n - l * l
            val = 8 * _norm_lookup(nm, 2, 4 * N, qmax_paper)
            sym = kronecker(-N, 2)
            if sym + 1:
                val += 2 * (sym + 1) * _norm_lookup(nm, 2, N, qmax_paper)
            if val:
                coeffs[(24 * n, 2 * l)] = val
    return JacobiExpansion(_image_series(coeffs, tout, 0), 0, Fraction(1),
                           phi.char, phi.kind)


def _lambda_star_reach(t: int, p: int, depth: int) -> int:
    """The q-numerator to which ``lambda_star`` at p certifies the image of
    an index-t input complete to ``depth``, or -1 when there is none: the
    image of an input complete to q^n stops being complete (p - 1)/p of the
    first unseen row's l-bound below n."""
    n = depth // 24
    rows = n - (p - 1) * _weak_l_bound(t, n + 1) // p - 1
    return 24 * rows if rows >= 0 else -1


def lambda_star(phi: JacobiExpansion, p: int) -> JacobiExpansion:
    """Index-dividing operator (index t -> t/p^2), normalized so that
    composing with the index-raising z -> pz map is multiplication by p^4."""
    t = phi.index
    tstar = t / (p * p)
    if (4 * tstar).denominator != 1 or (2 * tstar).denominator != 1:
        raise ValueError("index does not admit division by p^2")
    if phi.weight != 0:
        raise ValueError("weight-0 normalization")
    if t.denominator != 1:
        raise ValueError("integral index required")
    tout = _lambda_star_reach(t.numerator, p, phi.qmax)
    if tout < 0:
        raise InsufficientBoxError("input truncation too small")
    coeffs = {}
    for (n, l), c in phi.paper_terms():
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
            if key24.numerator > tout:
                continue
            key = (key24.numerator, key2.numerator)
            coeffs[key] = coeffs.get(key, 0) + p ** 3 * c
    ser = _image_series(coeffs, tout, min(phi.series.floor[0], 0))
    return JacobiExpansion(ser, 0, tstar, phi.char, phi.kind)


def _t_plus_1_4_reach(t: int, _, depth: int) -> int:
    return _lambda_star_reach(t, 2, _t0_reach(t, 2, depth))


def t_plus_1_4(phi: JacobiExpansion) -> JacobiExpansion:
    """Index-lowering operator from index 4 to index 1, realized through the
    index-preserving operator at 2 followed by the index division, times 1/2."""
    if phi.index != 4 or phi.weight != 0:
        raise ValueError("index-4 weight-0 input required")
    return lambda_star(t0(phi, 2), 2).scale_div(2)


# kind -> (operator(phi, param), reach(t, param, depth)): the operator, which
# looks its function up when called so that a rebinding of the module
# attribute takes effect, and the forward rule its operator truncates by:
# the q-numerator to which the image of an index-t input complete to depth
# is certified, -1 when there is none, and never more than depth
_KINDS = {
    "lambda": (lambda phi, n: lambda_op(phi, n), lambda t, n, depth: depth),
    "tminus": (lambda phi, m: t_minus_weight0(phi, m), _t_minus_reach),
    "tminuschar": (lambda phi, m: t_minus_char(phi, m), _t_minus_reach),
    "t0": (lambda phi, p: t0(phi, p), _t0_reach),
    "tplus2": (lambda phi, _: t_plus_2(phi), _t_plus_2_reach),
    "tplus14": (lambda phi, _: t_plus_1_4(phi), _t_plus_1_4_reach),
    "lambdastar": (lambda phi, n: lambda_star(phi, n), _lambda_star_reach),
}


@dataclass(frozen=True)
class HeckeDescriptor:
    kind: str          # lambda | tminus | tminuschar | t0 | tplus2 | tplus14 | lambdastar
    param: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        p = self.param
        if p < 1:
            raise ValueError(f"{self.kind} wants a parameter >= 1, got {p}")
        # the three-term formula and gauss_sum's closed form hold for prime p
        if self.kind == "t0" and (p == 1 or any(p % d == 0 for d in range(2, isqrt(p) + 1))):
            raise ValueError(f"t0 wants a prime p, got {p}")
        if self.kind in ("tplus2", "tplus14") and p != 1:
            raise ValueError(f"{self.kind} wants a bare name: it takes no parameter, got {p}")

    def apply(self, phi: JacobiExpansion) -> JacobiExpansion:
        return _KINDS[self.kind][0](phi, self.param)

    def image(self, name: str, qmax: int) -> JacobiExpansion:
        """The image of the catalog form ``name`` on q-numerators <= qmax,
        from the least input depth whose reach is qmax, found by scanning up
        from qmax, as no reach exceeds its depth.  A depth-24 build supplies
        the index that the reach reads, and :meth:`Series.certified`
        refuses an image short of qmax."""
        reach, t = _KINDS[self.kind][1], catalog(name, 24).index.numerator
        depth = next(d for d in count(qmax) if reach(t, self.param, d) >= qmax)
        out = self.apply(catalog(name, depth))
        return JacobiExpansion(out.series.certified((qmax,)), out.weight, out.index,
                               out.char, out.kind)

    @classmethod
    def parse(cls, text: str) -> "HeckeDescriptor":
        if ":" in text:
            kind, param = text.split(":", 1)
            return cls(kind, int(param))
        return cls(text)
