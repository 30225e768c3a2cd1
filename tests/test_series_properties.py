"""Property tests for the Series kernel on 1-, 2- and 3-variable operands.

Each operand is a small Laurent polynomial, the whole underlying object:
its terms past ``trunc`` are dropped from storage but stay in the naive
product the kernel is checked against on the box it certifies.
"""

import pytest
from hypothesis import given, settings, strategies as st

from paramodular.chars import CharacterTag
from paramodular.lift import SiegelExpansion, _step_series
from paramodular.qseries import Series, bounded_vars
from paramodular.siegel import involution_V

DENOMS = {1: (24,), 2: (24, 2), 3: (24, 2, 24)}
RANGES = {0: (-4, 10), 1: (-5, 5), 2: (0, 10)}
PROPS = settings(max_examples=100, deadline=None, derandomize=True)

nvars = st.sampled_from((1, 2, 3))


@st.composite
def operand(draw, nv, step=(1, 1, 1)):
    """(series, full terms): a random polynomial whose key in variable v is
    a multiple of step[v], stored under a random trunc of its bounded
    variables."""
    key = st.tuples(*(st.integers(*RANGES[v]).map(lambda x, m=step[v]: x * m)
                      for v in range(nv)))
    full = draw(st.dictionaries(key, st.integers(-3, 3).filter(bool),
                                min_size=1, max_size=6))
    trunc = [None] * nv
    for v in bounded_vars(nv):
        lo = min(k[v] for k in full)
        t = draw(st.none() | st.integers(lo, RANGES[v][1] * step[v]))
        trunc[v] = None if t is None else t - t % step[v]
    return Series.from_terms(nv, DENOMS[nv], full.items(), trunc), full


def naive_mul(*fulls):
    out = fulls[0]
    for f in fulls[1:]:
        acc = {}
        for k1, c1 in out.items():
            for k2, c2 in f.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                acc[k] = acc.get(k, 0) + c1 * c2
        out = acc
    return out


def assert_certified(got: Series, full: dict):
    """``got`` passes check() and agrees with the exact ``full`` on its box."""
    got.check()
    want = Series(got.nvars, got.denoms, {k: c for k, c in full.items() if c},
                  (None,) * got.nvars, got.floor)
    assert got.first_mismatch(want) is None


def same(a: Series, b: Series):
    assert (a.coeffs, a.trunc, a.floor) == (b.coeffs, b.trunc, b.floor)


@PROPS
@given(st.data(), nvars)
def test_mul_is_commutative_and_associative(data, nv):
    (a, fa), (b, fb), (c, fc) = (data.draw(operand(nv)) for _ in range(3))
    same(a.mul(b), b.mul(a))
    left, right = a.mul(b).mul(c), a.mul(b.mul(c))
    assert left.trunc == right.trunc
    assert left.first_mismatch(right) is None
    assert_certified(left, naive_mul(fa, fb, fc))
    assert_certified(right, naive_mul(fa, fb, fc))


@PROPS
@given(st.data(), nvars, st.integers(1, 4))
def test_pow_is_repeated_mul(data, nv, e):
    a, fa = data.draw(operand(nv))
    acc = a
    for _ in range(e - 1):
        acc = acc.mul(a)
    p = a.pow(e)
    assert (p.coeffs, p.trunc) == (acc.coeffs, acc.trunc)
    assert_certified(p, naive_mul(*[fa] * e))


@PROPS
@given(st.data(), nvars)
def test_finer_then_coarsened_is_the_identity(data, nv):
    # the identity substitution onto finer denominators, then back, each
    # way with the floor passed explicitly
    a, _ = data.draw(operand(nv))
    mult = data.draw(st.tuples(*[st.integers(1, 4)] * nv))
    finer = tuple(d * m for d, m in zip(a.denoms, mult))
    eye = [[int(i == j) for j in range(nv)] for i in range(nv)]
    fine = a.substitute_linear(eye, denoms=finer,
                               new_floor=tuple(f * m for f, m in zip(a.floor, mult)))
    same(fine.substitute_linear(eye, denoms=a.denoms,
                                new_floor=tuple(f // m for f, m in zip(fine.floor, mult))), a)


@PROPS
@given(st.data(), st.integers(1, 3))
def test_involution_V_is_an_involution(data, t):
    # level t: s-exponents and the s-trunc are multiples of t, so that
    # q -> s/t stays on the lattice and the boxes map back exactly
    a, _ = data.draw(operand(3, step=(1, 1, t)))
    F = SiegelExpansion(a, t, 0, CharacterTag(0, 0))
    back = involution_V(involution_V(F)).series
    back.check()
    assert (back.coeffs, back.trunc) == (a.coeffs, a.trunc)
    assert [back.floor[v] for v in (0, 2)] == [a.floor[v] for v in (0, 2)]


def binomial(nv, dq, dl, ds, e, wq, ws):
    """(1 - x)^e, x = q^dq r^dl s^ds, cut at the last power of x inside the
    working box (wq, ws), with the trunc and floor of that cut."""
    kmax = min([w // d for w, d in ((wq, dq), (ws, ds)) if d > 0] or [e])
    terms, c = [], 1
    for k in range(kmax + 1):
        terms.append(((k * dq, k * dl, k * ds)[:nv], c))
        c = c * -(e - k) // (k + 1)
    trunc = (wq, None, ws if ds >= 0 else None)[:nv]
    floor = (0, min(0, kmax * dl), min(0, kmax * ds))[:nv]
    return Series.from_terms(nv, DENOMS[nv], terms, trunc, floor)


exponents = st.integers(-3, 3).filter(bool)


@st.composite
def binomial_factor(draw, nv, wq, ws):
    """A factor of the shapes ``exp_lift`` multiplies in, e in [-3, 3] \\ {0}:
    x = q^dq r^dl s^ds with dq > 0, with dq = 0 < ds, with dq > 0 > ds (the
    rewritten rows), or a pure r-step x = r^dl raised to e > 0 (the theta
    products)."""
    shapes = [st.tuples(st.integers(1, 4), st.just(0))]
    if nv == 3:
        shapes += [st.tuples(st.just(0), st.integers(1, 4)),
                   st.tuples(st.integers(1, 4), st.integers(-4, -1))]
    r_step = draw(st.booleans())
    dq, ds = (0, 0) if r_step else draw(st.one_of(shapes))
    dl = draw(st.integers(-3, 3).filter(bool) if r_step else st.integers(-3, 3))
    e = draw(st.integers(1, 3) if r_step else exponents)
    return binomial(nv, dq, dl, ds, e, wq, ws)


@PROPS
@given(st.data(), st.sampled_from((2, 3)))
def test_mul_factors_is_the_mul_chain(data, nv):
    acc, _ = data.draw(operand(nv))
    # one working box for the chain, as in exp_lift
    wq, ws = data.draw(st.integers(0, 12)), data.draw(st.integers(0, 12))
    factors = data.draw(st.lists(binomial_factor(nv, wq, ws), min_size=1, max_size=5))
    cap = data.draw(st.none() | st.tuples(*[st.integers(0, 12)] * len(bounded_vars(nv))))
    want = acc
    for f in factors:
        want = want.mul(f, cap=cap)
    same(acc.mul_factors(factors, cap=cap).check(), want)


def test_mul_factors_refuses_other_denominators_and_constants():
    one = Series.one(2, DENOMS[2])
    for bad in (Series.one(2, (48, 2)), one.scale(2)):
        with pytest.raises(ValueError):
            one.mul_factors([bad])


# the (q, s) steps of exp_lift: dq > 0 with ds >= 0, dq = 0 < ds, and the
# rewritten rows dq > 0 > ds
steps = st.one_of(st.tuples(st.integers(1, 4), st.integers(0, 4)),
                  st.tuples(st.just(0), st.integers(1, 4)),
                  st.tuples(st.integers(1, 4), st.integers(-4, -1)))


@PROPS
@given(st.data(), steps)
def test_step_series_is_the_mul_chain_of_its_binomials(data, step):
    wq, ws = data.draw(st.integers(0, 12)), data.draw(st.integers(0, 12))
    terms = data.draw(st.lists(st.tuples(st.integers(-3, 3), exponents),
                               min_size=1, max_size=4))
    dq, ds = step
    factors = [binomial(3, dq, dl, ds, e, wq, ws) for dl, e in terms]
    want = factors[0]
    for f in factors[1:]:
        want = want.mul(f)
    same(_step_series(dq, ds, terms, wq, ws).check(), want)
