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

from fractions import Fraction
from math import lcm

from .chars import CharacterTag, divisors, kronecker
from .qseries import Series, div_operands

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

    def paper_terms(self):
        """Iterate ((n, l), c) in integer exponent units (q^n r^l); a
        non-integral exponent raises ValueError."""
        for (a, b), c in self.series.terms():
            if a % 24 or b % 2:
                raise ValueError(f"exponent key {(a, b)} is not integral in q and r")
            yield (a // 24, b // 2), c

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

    def norm_map(self) -> dict:
        """Norm (4tn - l^2, integer units) -> coefficient, for weight-0
        integer-index forms whose coefficients depend on the norm only."""
        t = self.index
        if t.denominator != 1:
            raise ValueError("norm map needs an integral index")
        out = {}
        for key, c in self.series.terms():
            norm = _norm(t.numerator, key)
            if out.setdefault(norm, c) != c:
                raise ValueError(f"coefficients are not norm-dependent at norm {norm}")
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

    def __add__(self, other: "JacobiExpansion") -> "JacobiExpansion":
        if (self.weight, self.index, self.char) != (other.weight, other.index, other.char):
            raise ValueError("can only add forms of equal weight, index and character")
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

    def with_kind(self, kind: str) -> "JacobiExpansion":
        return JacobiExpansion(self.series, self.weight, self.index, self.char, kind)

    def restricted(self, qmax: int) -> "JacobiExpansion":
        return JacobiExpansion(self.series.restricted((qmax,)), self.weight,
                               self.index, self.char, self.kind)

    def __repr__(self):
        return (f"JacobiExpansion(weight={self.weight}, index={self.index}, "
                f"char=(D={self.char.D}, eps={self.char.eps}), kind={self.kind}, "
                f"{len(self.series)} terms, qmax={self.qmax})")


def _norm(t: int, key) -> int:
    """The norm 4tn - l^2 of a (24, 2) key at integral index t."""
    a, b = key
    if a % 24 or b % 2:
        raise ValueError("norm map needs integral exponents")
    return 4 * t * (a // 24) - (b // 2) ** 2


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
    return _product_form((3, -1), -1, ((1, -1, 2, -1), (1, 0, -2, -1), (1, 0, 0, -1)), qmax)


def _product_form(lead, sign, rows, qmax: int) -> Series:
    """The monomial ``sign`` at the (q, r) key ``lead`` times the product
    over n >= 1 of the factors 1 + c q^(u n + v) r^(b/2), (u, v, b, c) in
    ``rows``, taken in the order of n and then of ``rows``, complete to qmax."""
    acc = Series(2, QR_DENOMS, {lead: sign}, (qmax, None), lead)
    factors = (Series(2, QR_DENOMS, {(0, 0): 1, (24 * (u * n + v), b): c}, (qmax, None),
                      (0, min(b, 0)))
               for n in range(1, qmax // 24 + 2) for u, v, b, c in rows
               if 24 * (u * n + v) <= qmax)
    return acc.mul_factors(factors).restricted((qmax,))


def theta32_series(qmax: int) -> JacobiExpansion:
    """Quintuple-product theta: sum (12/n) q^(n^2/24) r^(n/2)."""
    coeffs = {}
    n = 1
    while n * n <= qmax:
        for nn in (n, -n):
            c = kronecker(12, nn)
            if c:
                coeffs[(n * n, nn)] = c
        n += 1
    rfloor = min((k[1] for k in coeffs), default=0)
    s = Series(2, QR_DENOMS, coeffs, (qmax, None), (1, rfloor))
    return JacobiExpansion(s, Fraction(1, 2), Fraction(3, 2), CharacterTag(1, 1), "cusp")


def quintuple_product_form(qmax: int) -> Series:
    """q^(1/24) r^(-1/2) prod (1+q^(n-1)r)(1+q^n r^-1)(1-q^(2n-1)r^2)(1-q^(2n-1)r^-2)(1-q^n)."""
    return _product_form((1, -1), 1, ((1, -1, 2, 1), (1, 0, -2, 1), (1, 0, 0, -1),
                                      (2, -1, 4, -1), (2, -1, -4, -1)), qmax)


def eisenstein(k: int, qmax: int) -> JacobiExpansion:
    """Normalized Eisenstein series E2, E4 or E6 (constant term 1)."""
    consts = {2: -24, 4: 240, 6: -504}
    if k not in consts:
        raise ValueError("only E2, E4, E6 are provided")
    terms = [((0, 0), 1)]
    n = 1
    while 24 * n <= qmax:
        sig = sum(d ** (k - 1) for d in divisors(n))
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

    With m the common denominator of the indices and D multiplying each
    coefficient by its r-numerator, that is
    scale * ((m t_b) D(a) b - (m t_a) a D(b)) / (2m), two products of
    :meth:`Series.mul` (which fix the box) divided exactly at the end.
    Weight adds plus one, index and characters add.  The result must have
    integer coefficients, or :class:`ExactDivisionError` is raised;
    half-integral indices generally need scale 2.
    """
    m = lcm(a.index.denominator, b.index.denominator)
    D = lambda s: Series(2, s.denoms, {k: k[1] * c for k, c in s.coeffs.items() if k[1]},
                         s.trunc, s.floor)
    sa, sb = a.series, b.series
    bracket = (D(sa).mul(sb).scale(int(m * b.index))
               - sa.mul(D(sb)).scale(int(m * a.index)))
    return JacobiExpansion(bracket.scale(scale).scale_exact_div(2 * m),
                           a.weight + b.weight + 1, a.index + b.index,
                           a.char + b.char, "cusp")


# ----------------------------------------------------------------------
# catalog

_CACHE: dict = {}


def catalog(name: str, qmax: int) -> JacobiExpansion:
    """The named form, complete for q-numerators <= qmax (exponent n/24) and
    restricted to them.  The cache keeps the deepest build, and a form
    restricted from it keeps that build's r-floor, which may lie below a
    fresh build's: the r-floor is the one part of what a caller gets that
    can depend on what ran before it.  No truncation bound reads it."""
    if name not in _CATALOG:
        raise KeyError(f"unknown catalog form {name!r}")
    form = _CACHE.get(name)
    if form is None or (form.qmax is not None and form.qmax < qmax):
        form = _CATALOG[name][0](qmax)
        if form.qmax is not None and form.qmax < qmax:
            raise RuntimeError(f"catalog builder for {name!r} delivered q-depth "
                               f"{form.qmax}, short of the requested {qmax}")
        _CACHE[name] = form
    return form if form.qmax == qmax else form.restricted(qmax)


def clear_cache():
    _CACHE.clear()


def _b_phi_0_1(qmax):
    # the modified heat operator maps J_{-2,1} onto C phi_0_1 (Eichler-Zagier,
    # Thm 9.3); -6 and -5 match the q^0 rows r + 10 + 1/r and r - 2 + 1/r
    pm = catalog("phi_m2_1", qmax).series
    heat = Series(2, QR_DENOMS, {k: -6 * n * c for k, c in pm.terms()
                                 if (n := _norm(1, k))}, pm.trunc, pm.floor)
    out = heat + eisenstein(2, qmax).series.mul(pm).scale(-5)
    return JacobiExpansion(out, 0, 1, CharacterTag(0, 0), "weak")


def _b_phi_12_1(qmax):
    val = combo((1, ["E4", "E4", "E4_1"]), (-1, ["E6", "E6_1"]), den=144)(qmax)
    # the form is Delta phi_0_1 (rem3.6), so its series starts at q^1
    ser = val.series
    ser = Series(2, QR_DENOMS, ser.coeffs, ser.trunc, (24, ser.floor[1]))
    return JacobiExpansion(ser, val.weight, val.index, val.char, "cusp")


def hecke_image(op: str, name: str, qmax: int) -> JacobiExpansion:
    """The Hecke image ``op`` (a descriptor such as ``t0:2``) of the catalog
    form ``name`` on q-numerators <= qmax."""
    from .hecke import HeckeDescriptor
    return HeckeDescriptor.parse(op).image(name, qmax)


# kind -> the primitive item ``(kind, *args)`` on q-numerators <= qmax
_PRIMITIVES = {"eta": lambda qmax, d: eta_power(d, qmax),
               "theta": theta_series, "theta32": theta32_series,
               "T": lambda qmax, op, name: hecke_image(op, name, qmax),
               "z": lambda qmax, n, item: _item(item, qmax).rescale_z(n)}


def _item(item, qmax):
    """One item of the builder grammar on q-numerators <= qmax: a catalog
    name (looked up through ``catalog`` at each call), a primitive
    ``(kind, *args)`` of :data:`_PRIMITIVES`, or a builder ``qmax -> form``."""
    if isinstance(item, str):
        return catalog(item, qmax)
    if isinstance(item, tuple):
        return _PRIMITIVES[item[0]](qmax, *item[1:])
    return item(qmax)


def _product(items, qmax):
    """The product of ``items`` on q-numerators <= qmax, in their order."""
    out = None
    for item in items:
        f = _item(item, qmax)
        out = f if out is None else out * f
    return out


def ratio(num, den=(), kind="weak"):
    """The builder of prod(num) / prod(den) on q-numerators <= qmax, tagged
    ``kind``; the quotient's operands are built at the depths
    :func:`~paramodular.qseries.div_operands` plans."""
    def build(qmax):
        if not den:
            return _product(num, qmax).with_kind(kind)
        a, b = div_operands(lambda d: _product(num, d), lambda d: _product(den, d), (qmax,))
        return (a / b).with_kind(kind)
    return build


def combo(*terms, den=1, kind="weak"):
    """The builder of (sum of c prod(items) over the ``(c, items)`` of
    ``terms``) / den on q-numerators <= qmax, tagged ``kind``; the sum runs
    in the order of ``terms``, and den must divide every coefficient."""
    def build(qmax):
        out = None
        for c, items in terms:
            f = _product(items, qmax).scale(c)
            out = f if out is None else out + f
        return (out if den == 1 else out.scale_div(den)).with_kind(kind)
    return build


_TH1, _TH2 = ("theta", 1), ("theta", 2)

# name -> (the builder of the form on q-numerators <= qmax, the route that
# the manifest prints for it, "" where none is written)
_CATALOG = {
    "theta": (ratio([_TH1], kind="cusp"), "odd binary theta sum over half-integer squares"),
    "theta32": (ratio([("theta32",)], kind="cusp"), "quintuple-product theta sum"),
    "xi_0_3half": (ratio([_TH2], [_TH1]), "theta(tau,2z)/theta(tau,z)"),
    "xi_0_6": (ratio([("z", 2, "xi_0_3half")]), "xi_0_3half at (tau, 2z)"),
    "xi_0_12": (ratio([("theta", 6), _TH1], [("theta", 3), _TH2]),
                "theta(6z) theta(z) / (theta(3z) theta(2z))"),
    "phi_0_1": (_b_phi_0_1, "-6 (4n - l^2) phi_m2_1 - 5 E2 phi_m2_1 (heat operator)"),
    "phi_0_2": (ratio(["phi_2_2"], [("eta", 4)]), "theta-bracket phi_2_2 / eta^4"),
    "phi_0_3": (ratio(["xi_0_3half", "xi_0_3half"]), "(theta(2z)/theta(z))^2"),
    "phi_0_4": (ratio([("theta", 3)], [_TH1]), "theta(3z)/theta(z)"),
    "phi_0_5": (ratio(["phi_0_2", "phi_0_3"]), "phi_0_2 * phi_0_3"),
    "phi_0_5_alt": (combo((2, ["phi_0_2", "phi_0_3"]), (-1, ["phi_0_1", "phi_0_4"])),
                    "2 phi_0_2 phi_0_3 - phi_0_1 phi_0_4"),
    "phi_0_9": (combo((1, [("z", 3, "phi_0_1")]), (7, ["phi_0_3", "xi_0_6"]),
                      (-1, ["phi_0_3"] * 3)),
                "phi_0_1(3z) + 7 phi_0_3 xi_0_6 - phi_0_3^3"),
    "phi_0_10": (ratio(["phi_0_4", "xi_0_6"]), "phi_0_4 * xi_0_6"),
    "phi_0_18": (ratio(["xi_0_12", "xi_0_6"]), "xi_0_12 * xi_0_6"),
    "phi_0_36": (ratio([("theta", 10), _TH1], [("theta", 5), _TH2]),
                 "theta(10z) theta(z) / (theta(5z) theta(2z))"),
    "phi_m2_1": (ratio([_TH1, _TH1], [("eta", 6)]), "theta^2 / eta^6"),
    "phi_1_4": (ratio([("eta", 2), "phi_0_4"], kind="holomorphic"), "eta^2 * phi_0_4"),
    "phi_2_2": (phi_2_2_sum, "theta-bracket double sum"),
    "phi_3_1": (ratio(["phi_12_1"], [("eta", 18)], kind="holomorphic"), "phi_12_1 / eta^18"),
    "phi_12_1": (_b_phi_12_1, "(E4^2 E4_1 - E6 E6_1)/144"),
    "psi_3half_8": (ratio([("eta", 3), "phi_0_4", "phi_0_4"], kind="holomorphic"), ""),
    "E2": (lambda qmax: eisenstein(2, qmax), ""),
    "E4": (lambda qmax: eisenstein(4, qmax), ""),
    "E6": (lambda qmax: eisenstein(6, qmax), ""),
    "E4_1": (combo((1, ["E4", "phi_0_1"]), (-1, ["E6", "phi_m2_1"]), den=12,
                   kind="holomorphic"), "(E4 phi_0_1 - E6 phi_m2_1)/12"),
    "E6_1": (combo((1, ["E6", "phi_0_1"]), (-1, ["E4", "E4", "phi_m2_1"]), den=12,
                   kind="holomorphic"), "(E6 phi_0_1 - E4^2 phi_m2_1)/12"),
    "delta_tau": (ratio([("eta", 24)], kind="cusp"), "eta^24"),
    "theta8": (ratio([_TH1] * 8, kind="cusp"), "theta^8"),
    "phi_0_2_11": (combo((1, [("T", "tminus:2", "phi_0_1")]), (-2, ["phi_0_2"])),
                   "phi_0_1 | Tminus(2) - 2 phi_0_2"),
    "phi_0_3_6": (combo((1, [("T", "t0:2", "phi_0_3")]), (-3, ["phi_0_3"])),
                  "phi_0_3 | (T0(2) - 3)"),
    "phi_0_1_t02m2": (combo((1, [("T", "t0:2", "phi_0_1")]), (-2, ["phi_0_1"]),
                            kind="nearly-holomorphic"), "phi_0_1 | (T0(2) - 2)"),
    "psi_0_2": (combo((1, [ratio(["E6_1", "E6_1"], ["delta_tau"])]), (-2, ["phi_0_2_11"]),
                      (176, ["phi_0_2"]), kind="nearly-holomorphic"),
                "E6_1^2/Delta - 2 phi_0_2_11 + 176 phi_0_2"),
    "psi_0_3": (combo((1, [ratio(["E4_1", "E4_1", "E4_1"], ["delta_tau"])]),
                      (-3, ["phi_0_3_6"]), (-171, ["phi_0_3"]), kind="nearly-holomorphic"),
                "E4_1^3/Delta - 3 phi_0_3_6 - 171 phi_0_3"),
    # the weight-8 Eisenstein factor E4^2 is forced by weight bookkeeping
    # (the quotient must have weight 0 to combine with the Hecke images)
    "psi_0_4": (combo((1, [("z", 2, combo((1, [("T", "t0:2", "phi_0_1")]), (26, ["phi_0_1"])))]),
                      (-1, [ratio(["E4", "E4", "theta8"], ["delta_tau"])]),
                      (-8, [combo((1, [("T", "t0:3", "phi_0_4")]), (4, ["phi_0_4"]))]),
                      kind="nearly-holomorphic"),
                "(phi_0_1|(T0(2)+26))(2z) - E4 theta^8/Delta - 8 phi_0_4|(T0(3)+4)"),
    # arithmetic-lift inputs
    "eta1_theta": (ratio([("eta", 1), _TH1], kind="cusp"), ""),
    "eta3_theta": (ratio([("eta", 3), _TH1], kind="cusp"), ""),
    "eta9_theta": (ratio([("eta", 9), _TH1], kind="cusp"), ""),
    "eta1_theta32": (ratio([("eta", 1), ("theta32",)], kind="cusp"), ""),
    "eta3_theta32": (ratio([("eta", 3), ("theta32",)], kind="cusp"), ""),
    "eta11_theta32": (ratio([("eta", 11), ("theta32",)], kind="cusp"), ""),
    "eta21_theta2z": (ratio([("eta", 21), _TH2], kind="cusp"), ""),
    "eta5_theta2z": (ratio([("eta", 5), _TH2], kind="cusp"), ""),
    "eta3_theta6_theta2z": (ratio([("eta", 3)] + [_TH1] * 6 + [_TH2], kind="cusp"), ""),
    "eta6_theta_theta2z": (ratio([("eta", 6), _TH1, _TH2], kind="cusp"), ""),
    "eta3_theta2_theta2z": (ratio([("eta", 3), _TH1, _TH1, _TH2], kind="cusp"), ""),
    "theta3_theta2z": (ratio([_TH1, _TH1, _TH1, _TH2], kind="cusp"), ""),
    "theta_theta2z": (ratio([_TH1, _TH2], kind="cusp"), ""),
    # exp-lift inputs for the level 5-7 identities
    "phi_0_6_a": (combo((3, ["phi_0_3", "phi_0_3"]), (-2, ["phi_0_2", "phi_0_4"])),
                  "3 phi_0_3^2 - 2 phi_0_2 phi_0_4"),
    "phi_0_6_b": (combo((5, ["phi_0_3", "phi_0_3"]), (-4, ["phi_0_2", "phi_0_4"])),
                  "5 phi_0_3^2 - 4 phi_0_2 phi_0_4"),
    "phi_0_6_c": (ratio(["phi_0_3", "phi_0_3"]), "phi_0_3^2"),
    "phi_0_7": (ratio(["phi_0_3", "phi_0_4"]), "phi_0_3 * phi_0_4"),
}


def registry_names():
    return sorted(_CATALOG)


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
            "route": _CATALOG[name][1],
        }
    return out

