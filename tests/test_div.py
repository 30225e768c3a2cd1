"""Differential and property tests of the slice-wise long division in
``Series.div``, against the per-key long division it replaced."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paramodular.forms import euler_product, theta_series
from paramodular.lift import closed_form
from paramodular.qseries import ExactDivisionError, Series, bounded_vars


# ----------------------------------------------------------------------
# the per-key reference


def _coeff_div(c, d):
    q, r = divmod(c, d)
    if r:
        raise ExactDivisionError(f"coefficient {c} not divisible by {d}")
    return q


def _grade(ser, key):
    if ser.nvars == 3:
        return key[0] * ser.denoms[2] + key[2] * ser.denoms[0]
    return key[0]


def _reference_poly_slice(rg, b0, nvars):
    if nvars == 1:
        (ka, ca), = rg.items()
        (kb, cb), = b0.items()
        return {(ka[0] - kb[0],): _coeff_div(ca, cb)}
    ra = {k[1]: c for k, c in rg.items()}
    rb = {k[1]: c for k, c in b0.items()}
    qa = next(iter(rg))[0]
    qb = next(iter(b0))[0]
    top_b = max(rb)
    cb = rb[top_b]
    out = {}
    while ra:
        top_a = max(ra)
        l = top_a - top_b
        if min(ra) - min(rb) > l:
            raise ExactDivisionError("nonzero remainder in r-slice division")
        c = _coeff_div(ra[top_a], cb)
        out[(qa - qb, l)] = c
        for lb, vb in rb.items():
            ll = l + lb
            v = ra.get(ll, 0) - c * vb
            if v:
                ra[ll] = v
            elif ll in ra:
                del ra[ll]
    return out


def _reference_rslice_3var(rg, b0, lead, in_box):
    qb, sb = lead[0], lead[2]
    groups = {}
    for k, c in rg.items():
        groups.setdefault((k[0], k[2]), {})[(0, k[1])] = c
    rb = {(0, k[1]): c for k, c in b0.items()}
    for (qg, sg), poly in sorted(groups.items()):
        if not in_box((qg - qb, 0, sg - sb)):
            continue
        for (_z, l), c in _reference_poly_slice(poly, rb, 2).items():
            yield (qg - qb, l, sg - sb), c


def reference_div(num, den):
    """num/den by long division term by term: every pair of a quotient term
    and a divisor term is subtracted at its own key."""
    a, b = num._aligned(den)
    if not b.coeffs:
        raise ExactDivisionError("division by the zero series")
    bv = bounded_vars(a.nvars)
    g0 = min(_grade(b, k) for k in b.coeffs)
    b0 = {k: c for k, c in b.coeffs.items() if _grade(b, k) == g0}
    brest = {k: c for k, c in b.coeffs.items() if _grade(b, k) > g0}
    lead = min(b0, key=b._order)
    b_min = tuple(min(k[v] for k in b.coeffs) for v in range(a.nvars))
    for v in bv:
        if lead[v] != b_min[v]:
            raise ExactDivisionError(
                "divisor's lowest-grade slice is not anchored at its exponent "
                "corner; this quotient shape is unsupported")
    if a.nvars == 3 and any(k[0] != lead[0] or k[2] != lead[2] for k in b0):
        raise ExactDivisionError(
            "three-variable division needs the divisor's leading slice on a "
            "single (q, s) pair")
    floor = tuple(fa - bm for fa, bm in zip(a.floor, b_min))
    trunc = []
    for v in range(a.nvars):
        cands = []
        if v in bv and a.trunc[v] is not None:
            cands.append(a.trunc[v] - lead[v])
        if v in bv and b.trunc[v] is not None:
            cands.append(b.trunc[v] - lead[v] + floor[v])
        trunc.append(min(cands) if cands else None)
    if all(trunc[v] is None for v in bv):
        raise ExactDivisionError("cannot divide: no finite truncation on either operand")

    def _qcap(v):
        if trunc[v] is not None:
            return trunc[v]
        return max(max((k[v] for k in a.coeffs), default=floor[v]), floor[v])

    if a.nvars == 3:
        read_bound = _qcap(0) * a.denoms[2] + _qcap(2) * a.denoms[0] + g0
    else:
        read_bound = _qcap(0) + g0
    rem = {}
    for k, c in a.coeffs.items():
        rem.setdefault(_grade(a, k), {})[k] = c
    out = {}
    in_box = lambda k: all(trunc[v] is None or k[v] <= trunc[v] for v in bv)
    gi = min(rem) if rem else read_bound + 1
    while gi <= read_bound:
        rg = rem.pop(gi, None)
        gi += 1
        if not rg:
            continue
        if a.nvars <= 2:
            emit = _reference_poly_slice(rg, b0, a.nvars).items()
        else:
            emit = _reference_rslice_3var(rg, b0, lead, in_box)
        for k, c in emit:
            if not in_box(k):
                continue
            out[k] = c
            for kb, cb in brest.items():
                kk = tuple(x + y for x, y in zip(k, kb))
                gg = _grade(a, kk)
                if gg > read_bound:
                    continue
                sl = rem.setdefault(gg, {})
                v = sl.get(kk, 0) - c * cb
                if v:
                    sl[kk] = v
                elif kk in sl:
                    del sl[kk]
    q = Series(a.nvars, a.denoms, out, tuple(trunc), floor)
    q._drop_overflow()
    if a.nvars > 1:
        # the stated r-floor is the least stored r
        q.floor = (floor[0], min((k[1] for k in q.coeffs), default=floor[1])) + floor[2:]
    bad = q.mul(b).first_mismatch(a)
    if bad is not None:
        raise ExactDivisionError(f"nonzero remainder: quotient verification "
                                 f"failed at exponent key {bad}")
    return q


def outcome(fn):
    """The quotient's fields, or the message of the ExactDivisionError."""
    try:
        q = fn()
    except ExactDivisionError as exc:
        return ("ExactDivisionError", str(exc))
    return (q.denoms, q.trunc, q.floor, q.coeffs)


def checked_div(a, b):
    return a.div(b).check()


# ----------------------------------------------------------------------
# random operands


def _key(nv, q, r, s):
    return (q, r, s)[:nv]


COEFF = st.integers(-3, 3).filter(bool)


@st.composite
def terms(draw, nv, q0, s0, r0, n=12):
    """Up to n terms with q in [q0, q0 + 4], s in [s0, s0 + 4] (3 variables)
    and r in [r0, 4] (2-3 variables)."""
    out = {}
    for _ in range(draw(st.integers(0, n))):
        q = draw(st.integers(q0, q0 + 4))
        s = draw(st.integers(s0, s0 + 4)) if nv == 3 else 0
        r = draw(st.integers(r0, 4)) if nv > 1 else 0
        out[_key(nv, q, r, s)] = draw(COEFF)
    return out


@st.composite
def box(draw, nv, q0, s0, finite=False):
    bound = lambda lo: st.integers(lo, lo + 8)
    pick = bound if finite else (lambda lo: st.one_of(st.none(), bound(lo)))
    tq = draw(pick(q0))
    if nv == 3:
        return (tq, None, draw(pick(s0)))
    return (tq, None)[:nv]


@st.composite
def divisor(draw, nv, denoms, corner=None):
    """A divisor with a slice at (q0, s0) whose top coefficient is mostly a
    unit.  With ``corner`` the other slices lie at q >= q0, s >= s0 and
    r >= its least r, so it is the lead; otherwise they may lie anywhere,
    and the lead may be another slice or an unsupported shape."""
    if corner is None:
        corner = draw(st.booleans())
    q0 = draw(st.integers(-2, 2))
    s0 = draw(st.integers(-2, 2)) if nv == 3 else 0
    lead_r = sorted(set(draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3)))
                    if nv > 1 else [0])
    coeffs = {_key(nv, q0, r, s0): draw(COEFF) for r in lead_r}
    if draw(st.integers(0, 4)):
        coeffs[_key(nv, q0, lead_r[-1], s0)] = draw(st.sampled_from([1, -1]))
    if corner:
        rest = draw(terms(nv, q0, s0, lead_r[0]))
    else:
        rest = draw(terms(nv, q0 - 2, s0 - 2, -4))
    for k, c in rest.items():
        if (k[0], k[-1] if nv == 3 else 0) != (q0, s0):
            coeffs.setdefault(k, c)
    trunc = draw(box(nv, q0, s0))
    return Series.from_terms(nv, denoms, coeffs.items(), trunc)


@st.composite
def operands(draw, nv, corner=None, exact=False):
    """(numerator, divisor): the product of a random series and the divisor,
    that product with one extra term, or an unrelated series."""
    denoms = tuple(draw(st.sampled_from([1, 2, 3])) for _ in range(nv))
    b = draw(divisor(nv, denoms, corner))
    q0 = draw(st.integers(-2, 2))
    s0 = draw(st.integers(-2, 2)) if nv == 3 else 0
    x = Series.from_terms(nv, denoms, draw(terms(nv, q0, s0, -4)).items(),
                          draw(box(nv, q0, s0, finite=True)))
    mode = "exact" if exact else draw(st.sampled_from(["exact", "perturbed", "random"]))
    if mode == "random":
        return x, b, None
    a = x.mul(b)
    if mode == "perturbed":
        extra = draw(terms(nv, q0 - 1, s0 - 1, -4, n=1))
        a = a + Series.from_terms(nv, denoms, extra.items(), (None,) * nv)
    return a, b, x


SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
# the ids keep the names these tests had while they also drew cyclotomic
# coefficients
NV = pytest.mark.parametrize("nv", [1, 2, 3], ids=lambda nv: f"{nv}-False")


# ----------------------------------------------------------------------
# tests


@NV
@SETTINGS
@given(data=st.data())
def test_div_matches_per_key_reference(nv, data):
    a, b, _x = data.draw(operands(nv))
    assert outcome(lambda: checked_div(a, b)) == outcome(lambda: reference_div(a, b))


@NV
@SETTINGS
@given(data=st.data())
def test_div_undoes_mul_on_the_certified_box(nv, data):
    ab, b, x = data.draw(operands(nv, corner=True, exact=True))
    assert checked_div(ab, b).first_mismatch(x) is None


def test_unsupported_and_inexact_inputs_raise_the_reference_errors():
    den3 = (1, 1, 1)
    cases = {
        "not anchored": (
            Series.from_terms(3, den3, [((2, 0, 2), 1)], (4, None, 4)),
            Series.from_terms(3, den3, [((1, 0, 0), 1), ((0, 0, 3), 1)], (4, None, 4))),
        "zero series": (
            Series.from_terms(2, (1, 1), [((0, 0), 1)], (4, None)),
            Series.from_terms(2, (1, 1), [], (4, None))),
        "no finite truncation": (
            Series.from_terms(1, (1,), [((0,), 1)], (None,)),
            Series.from_terms(1, (1,), [((0,), 1), ((1,), 1)], (None,))),
        "not divisible by 2": (
            Series.from_terms(1, (1,), [((0,), 3)], (4,)),
            Series.from_terms(1, (1,), [((0,), 2)], (4,))),
        "r-slice division": (
            Series.from_terms(2, (1, 1), [((0, 0), 1)], (4, None)),
            Series.from_terms(2, (1, 1), [((0, 0), 1), ((0, 1), 1)], (4, None))),
    }
    for needle, (a, b) in cases.items():
        got = outcome(lambda: checked_div(a, b))
        assert got == outcome(lambda: reference_div(a, b))
        assert got[0] == "ExactDivisionError" and needle in got[1], (needle, got)


@pytest.mark.parametrize("a,depth", [(3, 480), (2, 240)])
def test_theta_quotients_match_reference(a, depth):
    num, den = theta_series(depth, a).series, theta_series(depth, 1).series
    got = outcome(lambda: checked_div(num, den))
    assert got == outcome(lambda: reference_div(num, den))
    assert got[3]


def test_eta_and_siegel_quotients_match_reference():
    one = Series.one(2, (24, 2))
    eta3 = euler_product(480).pow(3)
    assert (outcome(lambda: checked_div(one, eta3))
            == outcome(lambda: reference_div(one, eta3)))
    d1 = closed_form("delta1", 96, 96).series
    sq = d1.mul(d1)
    q = checked_div(sq, d1)
    assert (q.denoms, q.trunc, q.floor, q.coeffs) == outcome(lambda: reference_div(sq, d1))
    assert q.first_mismatch(d1) is None


def test_check_catches_broken_invariants():
    good = Series.from_terms(2, (1, 1), [((0, 0), 1), ((2, -1), 3)], (4, None))
    assert good.check() is good
    broken = [
        Series(2, (1, 1), {(0, 0): 0}, (4, None), (0, 0)),
        Series(2, (1, 1), {(-1, 0): 1}, (4, None), (0, 0)),
        Series(2, (1, 1), {(5, 0): 1}, (4, None), (0, 0)),
        Series(2, (1, 1), {(0, 0): 1}, (4, 3), (0, 0)),
        Series(2, (1, 1), {(0,): 1}, (4, None), (0, 0)),
        Series(2, (1, 1), {(0, -1): 1}, (4, None), (0, 0)),
        Series(2, (1, 1), {(0, 0): 10.0}, (4, None), (0, 0)),
        Series(2, (1, 1), {(0, 0): Fraction(1, 2)}, (4, None), (0, 0)),
    ]
    for ser in broken:
        with pytest.raises(AssertionError):
            ser.check()
