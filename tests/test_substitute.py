"""Differential test of the integer exponent-map kernel behind
``Series.substitute_linear`` against a per-term Fraction reference, and of
``ms_p`` against the product of its twisted copies in Z[zeta_p]."""

import cmath
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paramodular.cyclotomic import Cyc, as_rational_int
from paramodular.lift import closed_form
from paramodular.qseries import Series, bounded_vars
from paramodular.siegel import ms_p

_ID3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def phase_root(omega):
    """exp(2 pi i omega) as an exact root of unity (int or Cyc)."""
    omega = Fraction(omega)
    return Cyc.root(omega.denominator, omega.numerator % omega.denominator)


def reference_substitute(ser, matrix, phase=None, denoms=None,
                         new_trunc=None, new_floor=None):
    """The exponent substitution computed term by term in Fractions."""
    nv = ser.nvars
    M = [[Fraction(x) for x in row] for row in matrix]
    denoms = tuple(denoms) if denoms is not None else ser.denoms
    bv = bounded_vars(nv)
    coeffs = {}
    for k, c in ser.coeffs.items():
        e = [Fraction(k[i], ser.denoms[i]) for i in range(nv)]
        img = []
        for v in range(nv):
            x = sum(M[v][j] * e[j] for j in range(nv)) * denoms[v]
            if x.denominator != 1:
                raise ValueError(f"image exponent {x} of {k} leaves the lattice")
            img.append(x.numerator)
        if phase is not None:
            c = c * phase(k)
            if not c:
                continue
        key = tuple(img)
        v = coeffs.get(key, 0) + c
        if v:
            coeffs[key] = v
        elif key in coeffs:
            del coeffs[key]
    if new_trunc is None or new_floor is None:
        source = {}
        for v in bv:
            nonzero = [j for j in range(nv) if M[v][j] != 0]
            if (len(nonzero) > 1 or (nonzero and nonzero[0] not in bv)
                    or (nonzero and M[v][nonzero[0]] < 0)):
                raise ValueError("substitution mixes exponents")
            source[v] = nonzero[0] if nonzero else None
        trunc = [None] * nv
        floor = [0] * nv
        for v in range(nv):
            j = source.get(v)
            if v in bv:
                if j is not None and ser.trunc[j] is not None:
                    trunc[v] = (M[v][j] * Fraction(ser.trunc[j], ser.denoms[j])
                                * denoms[v]).__floor__()
                if j is not None:
                    fv = M[v][j] * Fraction(ser.floor[j], ser.denoms[j]) * denoms[v]
                    floor[v] = fv.numerator // fv.denominator
            else:
                floor[v] = min((key[v] for key in coeffs), default=0)
        new_trunc = tuple(trunc) if new_trunc is None else new_trunc
        new_floor = tuple(floor) if new_floor is None else new_floor
    out = Series(nv, denoms, coeffs, new_trunc, new_floor)
    out._drop_overflow()
    return out


def outcome(fn):
    """The result of a substitution, or the kind of ValueError it raised."""
    try:
        s = fn()
    except ValueError as exc:
        msg = str(exc)
        for kind in ("leaves the lattice", "mixes exponents"):
            if kind in msg:
                return kind
        raise
    return (s.denoms, s.trunc, s.floor, s.coeffs)


DENOMS = st.sampled_from([1, 2, 3, 4, 6, 24])
RATIONAL = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))


@st.composite
def series(draw, nv):
    denoms = tuple(draw(DENOMS) for _ in range(nv))
    keys = draw(st.lists(st.tuples(*[st.integers(-12, 12)] * nv),
                         max_size=25, unique=True))
    terms = [(k, draw(st.integers(-5, 5).filter(bool))) for k in keys]
    bv = bounded_vars(nv)
    trunc = tuple(draw(st.one_of(st.none(), st.integers(-4, 14))) if v in bv else None
                  for v in range(nv))
    floor = tuple(min([k[v] for k in keys], default=0) - draw(st.integers(0, 2))
                  for v in range(nv))
    return Series.from_terms(nv, denoms, terms, trunc, floor)


@st.composite
def scaling(draw, nv):
    """Maps the automatic box derivation accepts: each bounded output reads
    one bounded input with a nonnegative factor; the rest is free."""
    bv = bounded_vars(nv)
    perm = list(bv)
    if draw(st.booleans()):
        perm.reverse()
    M = [[draw(RATIONAL) for _ in range(nv)] for _ in range(nv)]
    for v, j in zip(bv, perm):
        M[v] = [abs(draw(RATIONAL)) if i == j else 0 for i in range(nv)]
    return M


def matrix(nv):
    return st.lists(st.lists(RATIONAL, min_size=nv, max_size=nv),
                    min_size=nv, max_size=nv)


def target_denoms(ser):
    """The source's, random ones, or ones fine enough that every image of
    a RATIONAL matrix stays on the lattice."""
    fine = (6 * lcm(*ser.denoms),) * ser.nvars
    return st.one_of(st.just(fine), st.just(fine), st.none(),
                     st.tuples(*[DENOMS] * ser.nvars))


SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("nv", [1, 2, 3])
@SETTINGS
@given(data=st.data())
def test_automatic_box_matches_reference(nv, data):
    ser = data.draw(series(nv))
    M = data.draw(st.one_of(scaling(nv), matrix(nv)))
    denoms = data.draw(target_denoms(ser))
    assert (outcome(lambda: ser.substitute_linear(M, denoms=denoms))
            == outcome(lambda: reference_substitute(ser, M, denoms=denoms)))


@pytest.mark.parametrize("nv", [1, 2, 3])
@SETTINGS
@given(data=st.data())
def test_explicit_box_matches_reference(nv, data):
    ser = data.draw(series(nv))
    M = data.draw(matrix(nv))
    denoms = data.draw(target_denoms(ser)) or ser.denoms
    bv = bounded_vars(nv)
    trunc = tuple(data.draw(st.integers(-4, 14)) if v in bv else None for v in range(nv))
    floor = tuple(data.draw(st.integers(-30, 0)) for _ in range(nv))
    kw = dict(denoms=denoms, new_trunc=trunc, new_floor=floor)
    assert (outcome(lambda: ser.substitute_linear(M, **kw))
            == outcome(lambda: reference_substitute(ser, M, **kw)))


def test_off_lattice_and_mixing_raise_value_error():
    ser = Series.from_terms(3, (24, 2, 24), [((1, 1, 2), 1), ((24, 0, 24), 2)],
                            (48, None, 48))
    with pytest.raises(ValueError, match="leaves the lattice"):
        ser.substitute_linear(((Fraction(1, 5), 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError, match="mixes exponents"):
        ser.substitute_linear(((1, 1, 0), (0, 1, 0), (0, 0, 1)))


def float_root(omega):
    """exp(2 pi i omega) as a complex float."""
    return cmath.exp(2j * cmath.pi * Fraction(omega))


def float_int(c):
    """The integer a complex float product of twisted copies rounds to."""
    assert abs(c.imag) < 1e-6 and abs(c.real - round(c.real)) < 1e-6, c
    return round(c.real)


def reference_ms_p(F, p, cap, root=phase_root, to_int=as_rational_int):
    """ms_p with its translation phases computed as Fractions, as exact roots
    of unity or, for orders a ``Cyc`` chain cannot mix, as complex floats."""
    ser, t = F.series, F.level
    gamma0 = Fraction(ser.floor[2], 24)
    acc = ser
    for b in range(1, p):
        phase = lambda k, b=b: root((Fraction(k[2], 24) - gamma0) * b / (t * p))
        acc = acc.mul(reference_substitute(ser, _ID3, phase=phase), cap=cap)
    fac_i = reference_substitute(ser, ((1, 0, 0), (0, p, 0), (0, 0, p * p)))
    out = fac_i.mul(acc, cap=cap)
    coeffs = {k: to_int(c) for k, c in out.coeffs.items()}
    return Series(3, out.denoms, {k: c for k, c in coeffs.items() if c},
                  out.trunc, out.floor)


@pytest.mark.parametrize("name,p", [("delta1", 2), ("delta1", 3), ("delta2", 3),
                                    ("delta_half", 2)])
def test_ms_p_integer_phases_match_fraction_phases(name, p):
    F = closed_form(name, 24 * 5, 24 * 8)
    got = ms_p(F, p, 24 * 3, 24 * 6).series
    want = reference_ms_p(F, p, (24 * 3, 24 * 6))
    assert got.coeffs == want.coeffs and got.trunc == want.trunc
    assert got.coeffs


def test_ms_p_at_p6_matches_float_phases():
    # the phases of 6 s-classes have orders 2, 3 and 6, which a Cyc chain
    # cannot add; the integer norm needs no common order
    F = closed_form("delta1", 48, 468)
    got = ms_p(F, 6, 72, 960).series
    want = reference_ms_p(F, 6, (72, 960), float_root, float_int)
    assert got.coeffs == want.coeffs and got.trunc == want.trunc
    assert got.coeffs
