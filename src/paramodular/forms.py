"""The catalog of named Jacobi forms and their defining constructions.

Every entry is produced as a :class:`JacobiExpansion`: a two-variable
series in q, r over exponent denominators (24, 2) together with weight,
index and multiplier-system metadata.  Construction routes follow the
defining expressions (theta quotients, eta products, differential
brackets, Hecke images); where two independent routes exist both are
implemented and their agreement is part of the test suite.

``catalog(name, qmax)`` returns the named form complete for all
q-numerators <= qmax (numerator units: the exponent of q is n/24).
"""

from __future__ import annotations

import threading
from fractions import Fraction

from .chars import CharacterTag, kronecker
from .qseries import Series

QR_DENOMS = (24, 2)


class JacobiExpansion:
    """A truncated Jacobi-form expansion with metadata."""

    __slots__ = ("series", "weight", "index", "char", "kind")

    def __init__(self, series: Series, weight, index, char: CharacterTag, kind: str):
        self.series = series
        self.weight = Fraction(weight)
        self.index = Fraction(index)
        self.char = char
        self.kind = kind

    # -- coefficient access in integer ("paper") units -----------------

    @property
    def qmax(self):
        return self.series.trunc[0]

    def f(self, n, l) -> int:
        """Coefficient of q^n r^l for rational n, l."""
        return self.series.coeff_at(n, l)

    def fkey(self, n24: int, l2: int) -> int:
        return self.series.get((n24, l2))

    def q_slice(self, n) -> dict:
        """Map l-numerator -> coefficient on the q^n slice (n rational)."""
        n24 = Fraction(n) * 24
        if n24.denominator != 1:
            return {}
        out = {}
        for (a, b), c in self.series.terms():
            if a == n24.numerator:
                out[b] = c
        return out

    def norm_of_key(self, key) -> Fraction:
        n, l = key
        return 4 * self.index * Fraction(n, 24) - Fraction(l, 2) ** 2

    def norm_map(self, strict: bool = True) -> dict:
        """Norm (4tn - l^2, integer units) -> coefficient, for weight-0
        integer-index forms whose coefficients depend on the norm only."""
        t = self.index
        if t.denominator != 1:
            raise ValueError("norm map needs an integral index")
        out = {}
        for (a, b), c in self.series.terms():
            if a % 24 or b % 2:
                raise ValueError("norm map needs integral exponents")
            norm = 4 * t.numerator * (a // 24) - (b // 2) ** 2
            if norm in out:
                if strict and out[norm] != c:
                    raise ValueError(f"coefficients are not norm-dependent at norm {norm}")
            else:
                out[norm] = c
        return out

    # -- arithmetic -----------------------------------------------------

    def __mul__(self, other: "JacobiExpansion") -> "JacobiExpansion":
        return JacobiExpansion(self.series.mul(other.series),
                               self.weight + other.weight,
                               self.index + other.index,
                               self.char + other.char,
                               _combine_kind(self.kind, other.kind))

    def __truediv__(self, other: "JacobiExpansion") -> "JacobiExpansion":
        return JacobiExpansion(self.series.div(other.series),
                               self.weight - other.weight,
                               self.index - other.index,
                               self.char - other.char, "weak")

    def pow(self, e: int) -> "JacobiExpansion":
        return JacobiExpansion(self.series.pow(e), self.weight * e,
                               self.index * e, self.char.scaled(e),
                               self.kind if e > 0 else "weak")

    def __pow__(self, e):
        return self.pow(e)

    def __add__(self, other: "JacobiExpansion") -> "JacobiExpansion":
        if (self.weight, self.index) != (other.weight, other.index):
            raise ValueError("can only add forms of equal weight and index")
        return JacobiExpansion(self.series + other.series, self.weight,
                               self.index, self.char,
                               _combine_kind(self.kind, other.kind))

    def __sub__(self, other: "JacobiExpansion") -> "JacobiExpansion":
        return self + other.scale(-1)

    def scale(self, c: int) -> "JacobiExpansion":
        return JacobiExpansion(self.series.scale(c), self.weight, self.index,
                               self.char, self.kind)

    def scale_div(self, c: int) -> "JacobiExpansion":
        return JacobiExpansion(self.series.scale_exact_div(c), self.weight,
                               self.index, self.char, self.kind)

    def rescale_z(self, n: int) -> "JacobiExpansion":
        """z -> n z: multiplies r-exponents and the index lattice by n."""
        mat = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(n)))
        return JacobiExpansion(self.series.substitute_linear(mat),
                               self.weight, self.index * n * n,
                               CharacterTag(self.char.D, self.char.eps * n),
                               self.kind)

    def unscale_z(self, n: int) -> "JacobiExpansion":
        """Inverse of rescale_z; r-exponents must all be divisible by n."""
        mat = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1, n)))
        return JacobiExpansion(self.series.substitute_linear(mat),
                               self.weight, self.index / (n * n),
                               CharacterTag(self.char.D, self.char.eps),
                               self.kind)

    def with_kind(self, kind: str) -> "JacobiExpansion":
        return JacobiExpansion(self.series, self.weight, self.index, self.char, kind)

    def restricted(self, qmax: int) -> "JacobiExpansion":
        return JacobiExpansion(self.series.restricted((qmax,)), self.weight,
                               self.index, self.char, self.kind)

    def __repr__(self):
        return (f"JacobiExpansion(weight={self.weight}, index={self.index}, "
                f"char=(D={self.char.D}, eps={self.char.eps}), kind={self.kind}, "
                f"{len(self.series)} terms, qmax={self.qmax})")


def _combine_kind(a: str, b: str) -> str:
    order = {"cusp": 0, "holomorphic": 1, "weak": 2, "nearly-holomorphic": 3}
    return max(a, b, key=lambda k: order.get(k, 2))


# ----------------------------------------------------------------------
# primitive builders (qmax in q-numerator units over denominator 24)

def euler_product(qmax: int) -> Series:
    """prod (1-q^n) via the pentagonal-number sum, complete to qmax."""
    terms = {}
    k = 0
    while True:
        done = True
        for kk in (k, -k) if k else (0,):
            g = kk * (3 * kk - 1) // 2
            if 24 * g <= qmax:
                done = False
                terms[(24 * g, 0)] = (-1) ** (kk % 2)
        if k and done:
            break
        k += 1
    return Series(2, QR_DENOMS, terms, (qmax, None), (0, 0))


def eta_power(d: int, qmax: int) -> JacobiExpansion:
    """eta(tau)^d as a Jacobi expansion of weight d/2, index 0."""
    if d < 1:
        raise ValueError("eta_power wants d >= 1; invert via division")
    e = euler_product(qmax).pow(d)
    s = e.shift((d, 0)).restricted((qmax,))
    return JacobiExpansion(s, Fraction(d, 2), 0, CharacterTag(d, 0),
                           "cusp")


def theta_series(qmax: int, a: int = 1) -> JacobiExpansion:
    """Jacobi theta-series at (tau, a z): sum (-4/m) q^(m^2/8) r^(a m/2)."""
    terms = []
    m = 1
    while 3 * m * m <= qmax:
        terms.append(((3 * m * m, a * m), kronecker(-4, m)))
        terms.append(((3 * m * m, -a * m), kronecker(-4, -m)))
        m += 2
    coeffs = {k: c for k, c in terms if c}
    rfloor = min((k[1] for k in coeffs), default=0)
    s = Series(2, QR_DENOMS, coeffs, (qmax, None), (3, rfloor))
    return JacobiExpansion(s, Fraction(1, 2), Fraction(a * a, 2),
                           CharacterTag(3, a), "cusp")


def theta_product_form(qmax: int) -> Series:
    """Triple-product route: -q^(1/8) r^(-1/2) prod (1-q^(n-1) r)(1-q^n r^-1)(1-q^n)."""
    acc = Series(2, QR_DENOMS, {(3, -1): -1}, (qmax, None), (3, -1))
    n = 1
    while 24 * (n - 1) <= qmax:
        f1 = Series(2, QR_DENOMS, {(0, 0): 1, (24 * (n - 1), 2): -1}, (qmax, None), (0, 0))
        acc = acc.mul(f1)
        if 24 * n <= qmax:
            f2 = Series(2, QR_DENOMS, {(0, 0): 1, (24 * n, -2): -1}, (qmax, None), (0, -2))
            f3 = Series(2, QR_DENOMS, {(0, 0): 1, (24 * n, 0): -1}, (qmax, None), (0, 0))
            acc = acc.mul(f2).mul(f3)
        n += 1
    return acc.restricted((qmax,))


def theta32_series(qmax: int, a: int = 1) -> JacobiExpansion:
    """Quintuple-product theta at (tau, a z): sum (12/n) q^(n^2/24) r^(a n/2)."""
    coeffs = {}
    n = 1
    while n * n <= qmax:
        for nn in (n, -n):
            c = kronecker(12, nn)
            if c:
                coeffs[(n * n, a * nn)] = c
        n += 1
    rfloor = min((k[1] for k in coeffs), default=0)
    s = Series(2, QR_DENOMS, coeffs, (qmax, None), (1, rfloor))
    return JacobiExpansion(s, Fraction(1, 2), Fraction(3 * a * a, 2),
                           CharacterTag(1, a), "cusp")


def quintuple_product_form(qmax: int) -> Series:
    """q^(1/24) r^(-1/2) prod (1+q^(n-1)r)(1+q^n r^-1)(1-q^(2n-1)r^2)(1-q^(2n-1)r^-2)(1-q^n)."""
    acc = Series(2, QR_DENOMS, {(1, -1): 1}, (qmax, None), (1, -1))
    n = 1
    while 24 * (n - 1) <= qmax:
        fs = [{(0, 0): 1, (24 * (n - 1), 2): 1}]
        if 24 * n <= qmax:
            fs.append({(0, 0): 1, (24 * n, -2): 1})
            fs.append({(0, 0): 1, (24 * n, 0): -1})
        if 24 * (2 * n - 1) <= qmax:
            fs.append({(0, 0): 1, (24 * (2 * n - 1), 4): -1})
            fs.append({(0, 0): 1, (24 * (2 * n - 1), -4): -1})
        for rows in fs:
            fl = (0, min(b for (_, b) in rows))
            acc = acc.mul(Series(2, QR_DENOMS, rows, (qmax, None), fl))
        n += 1
    return acc.restricted((qmax,))


def eisenstein(k: int, qmax: int) -> JacobiExpansion:
    """Normalized Eisenstein series E2, E4 or E6 (constant term 1)."""
    consts = {2: -24, 4: 240, 6: -504}
    if k not in consts:
        raise ValueError("only E2, E4, E6 are provided")
    terms = [((0, 0), 1)]
    n = 1
    while 24 * n <= qmax:
        sig = sum(d ** (k - 1) for d in range(1, n + 1) if n % d == 0)
        terms.append(((24 * n, 0), consts[k] * sig))
        n += 1
    s = Series.from_terms(2, QR_DENOMS, terms, (qmax, None), (0, 0))
    return JacobiExpansion(s, k, 0, CharacterTag(0, 0), "holomorphic")


def phi_2_2_sum(qmax: int) -> JacobiExpansion:
    """Weight-2 index-2 cusp form as the explicit theta-bracket double sum
    (1/2) sum (3m-n)(-4/m)(12/n) q^((3m^2+n^2)/24) r^((m+n)/2)."""
    terms = {}
    mmax = 1
    while 3 * mmax * mmax <= qmax:
        mmax += 1
    nmax = 1
    while nmax * nmax <= qmax:
        nmax += 1
    for m in range(-mmax, mmax + 1):
        cm = kronecker(-4, m)
        if not cm:
            continue
        for n in range(-nmax, nmax + 1):
            cn = kronecker(12, n)
            if not cn:
                continue
            a = 3 * m * m + n * n
            if a > qmax:
                continue
            key = (a, (m + n) // 1)
            c = (3 * m - n) * cm * cn
            if c:
                terms[key] = terms.get(key, 0) + c
    for k, v in terms.items():
        if v % 2:
            raise ArithmeticError("theta-bracket sum must have even raw coefficients")
    half = {k: v // 2 for k, v in terms.items() if v}
    s = Series(2, QR_DENOMS, half, (qmax, None),
               (4, min((k[1] for k in half), default=0)))
    return JacobiExpansion(s, 2, 2, CharacterTag(4, 0), "cusp")


def ez_bracket(a: JacobiExpansion, b: JacobiExpansion,
               scale: int = 1) -> JacobiExpansion:
    """Differential bracket scale * [a, b]: coefficientwise
    sum over splittings of (index_b * l_1/2 - index_a * l_2/2) f_a f_b.

    Weight adds plus one, index and characters add.  The result (after the
    overall integer scale) must have integer coefficients; half-integral
    indices generally need scale 2.
    """
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
    return JacobiExpansion(ser, a.weight + b.weight + 1, a.index + b.index,
                           a.char + b.char, "cusp")


# ----------------------------------------------------------------------
# catalog

_CACHE: dict = {}
_LOCK = threading.Lock()


def catalog(name: str, qmax: int) -> JacobiExpansion:
    """The named form, complete for q-numerators <= qmax (exponent n/24)."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown catalog form {name!r}")
    with _LOCK:
        got = _CACHE.get(name)
        if got is not None and (got.qmax is None or got.qmax >= qmax):
            return got
    form = _BUILDERS[name](qmax)
    if form.qmax is not None and form.qmax < qmax:
        raise RuntimeError(f"catalog builder for {name!r} delivered q-depth "
                           f"{form.qmax}, short of the requested {qmax}")
    with _LOCK:
        got = _CACHE.get(name)
        if got is None or (got.qmax is not None and got.qmax < qmax):
            _CACHE[name] = form
        else:
            form = got
    return form


def clear_cache():
    with _LOCK:
        _CACHE.clear()


def _b_eta(d):
    return lambda qmax: eta_power(d, qmax)


def _b_theta(qmax):
    return theta_series(qmax)


def _b_theta32(qmax):
    return theta32_series(qmax)


def _b_xi_0_3half(qmax):
    t2 = theta_series(qmax + 3, 2)
    t1 = theta_series(qmax + 3, 1)
    out = t2 / t1
    return out.with_kind("weak")


def _b_phi_0_4(qmax):
    t3 = theta_series(qmax + 3, 3)
    t1 = theta_series(qmax + 3, 1)
    return (t3 / t1).with_kind("weak")


def _b_phi_0_3(qmax):
    xi = catalog("xi_0_3half", qmax)
    return (xi * xi).with_kind("weak")


def _b_phi_0_2(qmax):
    num = phi_2_2_sum(qmax + 4)
    den = eta_power(4, qmax + 4)
    return (num / den).with_kind("weak")


def _b_phi_0_1(qmax):
    # invert phi_0_1(tau, 2z) = phi_0_2^2 - 8 phi_0_4 on the r-lattice
    p2 = catalog("phi_0_2", qmax)
    p4 = catalog("phi_0_4", qmax)
    comb = (p2 * p2) - p4.scale(8)
    out = comb.unscale_z(2)
    out = JacobiExpansion(out.series, Fraction(0), Fraction(1),
                          CharacterTag(0, 0), "weak")
    return out


def _b_phi_2_2(qmax):
    return phi_2_2_sum(qmax)


def _b_xi_0_6(qmax):
    return catalog("xi_0_3half", qmax).rescale_z(2).with_kind("weak")


def _b_xi_0_12(qmax):
    t6 = theta_series(qmax + 6, 6)
    t1 = theta_series(qmax + 6, 1)
    t3 = theta_series(qmax + 6, 3)
    t2 = theta_series(qmax + 6, 2)
    return ((t6 * t1) / (t3 * t2)).with_kind("weak")


def _b_phi_0_36(qmax):
    t10 = theta_series(qmax + 6, 10)
    t1 = theta_series(qmax + 6, 1)
    t5 = theta_series(qmax + 6, 5)
    t2 = theta_series(qmax + 6, 2)
    return ((t10 * t1) / (t5 * t2)).with_kind("weak")


def _b_phi_0_9(qmax):
    p1 = catalog("phi_0_1", qmax).rescale_z(3)
    p3 = catalog("phi_0_3", qmax)
    x6 = catalog("xi_0_6", qmax)
    out = p1 + (p3 * x6).scale(7) - (p3 * p3 * p3)
    return out.with_kind("weak")


def _b_phi_0_18(qmax):
    return (catalog("xi_0_12", qmax) * catalog("xi_0_6", qmax)).with_kind("weak")


def _b_phi_0_10(qmax):
    return (catalog("phi_0_4", qmax) * catalog("xi_0_6", qmax)).with_kind("weak")


def _b_phi_0_5(qmax):
    return (catalog("phi_0_2", qmax) * catalog("phi_0_3", qmax)).with_kind("weak")


def _b_phi_0_5_alt(qmax):
    a = (catalog("phi_0_2", qmax) * catalog("phi_0_3", qmax)).scale(2)
    b = catalog("phi_0_1", qmax) * catalog("phi_0_4", qmax)
    return (a - b).with_kind("weak")


def _b_phi_m2_1(qmax):
    th = catalog("theta", qmax + 6)
    return ((th * th) / eta_power(6, qmax + 6)).with_kind("weak")


def _b_e4_1(qmax):
    e4 = eisenstein(4, qmax)
    e6 = eisenstein(6, qmax)
    val = e4 * catalog("phi_0_1", qmax) - e6 * catalog("phi_m2_1", qmax)
    return val.scale_div(12).with_kind("holomorphic")


def _b_e6_1(qmax):
    e4 = eisenstein(4, qmax)
    e6 = eisenstein(6, qmax)
    val = e6 * catalog("phi_0_1", qmax) - (e4 * e4) * catalog("phi_m2_1", qmax)
    return val.scale_div(12).with_kind("holomorphic")


def _b_phi_12_1(qmax):
    e4 = eisenstein(4, qmax)
    e6 = eisenstein(6, qmax)
    val = (e4 * e4) * catalog("E4_1", qmax) - e6 * catalog("E6_1", qmax)
    return val.scale_div(144).with_kind("cusp")


def _b_phi_3_1(qmax):
    # the quotient's box ends 36 numerators below the operands': 18 for the
    # divisor's lead q^(18/24), 18 more because the numerator's stated
    # floor is q^0 while the divisor's is q^(18/24)
    pad = qmax + 36
    return (catalog("phi_12_1", pad) / eta_power(18, pad)).with_kind("holomorphic")


def _b_phi_1_4(qmax):
    return (eta_power(2, qmax) * catalog("phi_0_4", qmax)).with_kind("holomorphic")


def _b_psi_3half_8(qmax):
    p4 = catalog("phi_0_4", qmax)
    return (eta_power(3, qmax) * p4 * p4).with_kind("holomorphic")


def _b_delta_tau(qmax):
    return eta_power(24, qmax).with_kind("cusp")


def _b_theta8(qmax):
    return catalog("theta", qmax).pow(8).with_kind("cusp")


def _b_phi_0_2_11(qmax):
    from .hecke import t_minus_weight0
    p1 = catalog("phi_0_1", 2 * qmax)
    return (t_minus_weight0(p1, 2) - catalog("phi_0_2", qmax).scale(2)).with_kind("weak")


def _b_phi_0_3_6(qmax):
    from .hecke import t0
    p3 = catalog("phi_0_3", 4 * qmax + 96)
    return (t0(p3, 2) - catalog("phi_0_3", qmax).scale(3)).with_kind("weak")


def _b_phi_0_1_t02m2(qmax):
    from .hecke import t0
    p1 = catalog("phi_0_1", 4 * qmax + 96)
    return (t0(p1, 2) - catalog("phi_0_1", qmax).scale(2)).with_kind("nearly-holomorphic")


def _b_psi_0_2(qmax):
    e61 = catalog("E6_1", qmax + 96)
    delta = catalog("delta_tau", qmax + 96)
    lead = (e61 * e61) / delta
    out = lead - catalog("phi_0_2_11", qmax).scale(2) + catalog("phi_0_2", qmax).scale(176)
    return out.with_kind("nearly-holomorphic")


def _b_psi_0_3(qmax):
    e41 = catalog("E4_1", qmax + 96)
    delta = catalog("delta_tau", qmax + 96)
    lead = (e41 * e41 * e41) / delta
    out = lead - catalog("phi_0_3_6", qmax).scale(3) - catalog("phi_0_3", qmax).scale(171)
    return out.with_kind("nearly-holomorphic")


def _b_psi_0_4(qmax):
    # the weight-8 Eisenstein factor E4^2 is forced by weight bookkeeping
    # (the quotient must have weight 0 to combine with the Hecke images)
    from .hecke import t0
    p1 = catalog("phi_0_1", 4 * qmax + 96)
    part1 = (t0(p1, 2) + catalog("phi_0_1", qmax).scale(26)).rescale_z(2)
    e4 = eisenstein(4, qmax + 96)
    part2 = (e4 * e4 * catalog("theta8", qmax + 96)) / catalog("delta_tau", qmax + 96)
    p4 = catalog("phi_0_4", 9 * qmax + 240)
    part3 = (t0(p4, 3) + catalog("phi_0_4", qmax).scale(4)).scale(8)
    out = part1 - part2 - part3
    return out.with_kind("nearly-holomorphic")


def _prod(*names):
    def build(qmax):
        out = None
        for item in names:
            if isinstance(item, tuple):
                kind, arg = item
                if kind == "eta":
                    f = eta_power(arg, qmax)
                elif kind == "theta":
                    f = theta_series(qmax, arg)
                elif kind == "theta32":
                    f = theta32_series(qmax, arg)
                else:
                    raise KeyError(kind)
            else:
                f = catalog(item, qmax)
            out = f if out is None else out * f
        return out.with_kind("cusp")
    return build


_BUILDERS = {
    "theta": _b_theta,
    "theta32": _b_theta32,
    "xi_0_3half": _b_xi_0_3half,
    "xi_0_6": _b_xi_0_6,
    "xi_0_12": _b_xi_0_12,
    "phi_0_1": _b_phi_0_1,
    "phi_0_2": _b_phi_0_2,
    "phi_0_3": _b_phi_0_3,
    "phi_0_4": _b_phi_0_4,
    "phi_0_5": _b_phi_0_5,
    "phi_0_5_alt": _b_phi_0_5_alt,
    "phi_0_9": _b_phi_0_9,
    "phi_0_10": _b_phi_0_10,
    "phi_0_18": _b_phi_0_18,
    "phi_0_36": _b_phi_0_36,
    "phi_m2_1": _b_phi_m2_1,
    "phi_1_4": _b_phi_1_4,
    "phi_2_2": _b_phi_2_2,
    "phi_3_1": _b_phi_3_1,
    "phi_12_1": _b_phi_12_1,
    "psi_3half_8": _b_psi_3half_8,
    "E2": lambda qmax: eisenstein(2, qmax),
    "E4": lambda qmax: eisenstein(4, qmax),
    "E6": lambda qmax: eisenstein(6, qmax),
    "E4_1": _b_e4_1,
    "E6_1": _b_e6_1,
    "delta_tau": _b_delta_tau,
    "theta8": _b_theta8,
    "phi_0_2_11": _b_phi_0_2_11,
    "phi_0_3_6": _b_phi_0_3_6,
    "phi_0_1_t02m2": _b_phi_0_1_t02m2,
    "psi_0_2": _b_psi_0_2,
    "psi_0_3": _b_psi_0_3,
    "psi_0_4": _b_psi_0_4,
    # arithmetic-lift inputs
    "eta1_theta": _prod(("eta", 1), ("theta", 1)),
    "eta3_theta": _prod(("eta", 3), ("theta", 1)),
    "eta9_theta": _prod(("eta", 9), ("theta", 1)),
    "eta1_theta32": _prod(("eta", 1), ("theta32", 1)),
    "eta3_theta32": _prod(("eta", 3), ("theta32", 1)),
    "eta11_theta32": _prod(("eta", 11), ("theta32", 1)),
    "eta21_theta2z": _prod(("eta", 21), ("theta", 2)),
    "eta5_theta2z": _prod(("eta", 5), ("theta", 2)),
    "eta3_theta6_theta2z": _prod(("eta", 3), ("theta", 1), ("theta", 1), ("theta", 1),
                                 ("theta", 1), ("theta", 1), ("theta", 1), ("theta", 2)),
    "eta6_theta_theta2z": _prod(("eta", 6), ("theta", 1), ("theta", 2)),
    "eta3_theta2_theta2z": _prod(("eta", 3), ("theta", 1), ("theta", 1), ("theta", 2)),
    "theta3_theta2z": _prod(("theta", 1), ("theta", 1), ("theta", 1), ("theta", 2)),
    "theta_theta2z": _prod(("theta", 1), ("theta", 2)),
    # exp-lift inputs for the level 5-7 identities
    "phi_0_6_a": lambda qmax: (catalog("phi_0_3", qmax).pow(2).scale(3)
                               - (catalog("phi_0_2", qmax) * catalog("phi_0_4", qmax)).scale(2)
                               ).with_kind("weak"),
    "phi_0_6_b": lambda qmax: (catalog("phi_0_3", qmax).pow(2).scale(5)
                               - (catalog("phi_0_2", qmax) * catalog("phi_0_4", qmax)).scale(4)
                               ).with_kind("weak"),
    "phi_0_6_c": lambda qmax: catalog("phi_0_3", qmax).pow(2).with_kind("weak"),
    "phi_0_7": lambda qmax: (catalog("phi_0_3", qmax) * catalog("phi_0_4", qmax)
                             ).with_kind("weak"),
}


def registry_names():
    return sorted(_BUILDERS)


def manifest() -> dict:
    """Registry manifest: name -> metadata, built at a small depth."""
    out = {}
    for name in registry_names():
        f = catalog(name, 96)
        out[name] = {
            "weight": str(f.weight),
            "index": str(f.index),
            "D": f.char.D,
            "epsilon": f.char.eps,
            "kind": f.kind,
            "route": _ROUTES.get(name, ""),
        }
    return out


_ROUTES = {
    "theta": "odd binary theta sum over half-integer squares",
    "theta32": "quintuple-product theta sum",
    "xi_0_3half": "theta(tau,2z)/theta(tau,z)",
    "xi_0_6": "xi_0_3half at (tau, 2z)",
    "xi_0_12": "theta(6z) theta(z) / (theta(3z) theta(2z))",
    "phi_0_1": "(phi_0_2^2 - 8 phi_0_4) pulled back along z -> z/2",
    "phi_0_2": "theta-bracket phi_2_2 / eta^4",
    "phi_0_3": "(theta(2z)/theta(z))^2",
    "phi_0_4": "theta(3z)/theta(z)",
    "phi_0_5": "phi_0_2 * phi_0_3",
    "phi_0_5_alt": "2 phi_0_2 phi_0_3 - phi_0_1 phi_0_4",
    "phi_0_9": "phi_0_1(3z) + 7 phi_0_3 xi_0_6 - phi_0_3^3",
    "phi_0_10": "phi_0_4 * xi_0_6",
    "phi_0_18": "xi_0_12 * xi_0_6",
    "phi_0_36": "theta(10z) theta(z) / (theta(5z) theta(2z))",
    "phi_m2_1": "theta^2 / eta^6",
    "phi_1_4": "eta^2 * phi_0_4",
    "phi_2_2": "theta-bracket double sum",
    "phi_3_1": "phi_12_1 / eta^18",
    "phi_12_1": "(E4^2 E4_1 - E6 E6_1)/144",
    "E4_1": "(E4 phi_0_1 - E6 phi_m2_1)/12",
    "E6_1": "(E6 phi_0_1 - E4^2 phi_m2_1)/12",
    "delta_tau": "eta^24",
    "theta8": "theta^8",
    "phi_0_2_11": "phi_0_1 | Tminus(2) - 2 phi_0_2",
    "phi_0_3_6": "phi_0_3 | (T0(2) - 3)",
    "phi_0_1_t02m2": "phi_0_1 | (T0(2) - 2)",
    "psi_0_2": "E6_1^2/Delta - 2 phi_0_2_11 + 176 phi_0_2",
    "psi_0_3": "E4_1^3/Delta - 3 phi_0_3_6 - 171 phi_0_3",
    "psi_0_4": "(phi_0_1|(T0(2)+26))(2z) - E4 theta^8/Delta - 8 phi_0_4|(T0(3)+4)",
    "phi_0_6_a": "3 phi_0_3^2 - 2 phi_0_2 phi_0_4",
    "phi_0_6_b": "5 phi_0_3^2 - 4 phi_0_2 phi_0_4",
    "phi_0_6_c": "phi_0_3^2",
    "phi_0_7": "phi_0_3 * phi_0_4",
}
