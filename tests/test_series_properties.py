"""Property tests for the Series kernel on 1-, 2- and 3-variable operands.

Each operand is a small Laurent polynomial, the whole underlying object:
its terms past ``trunc`` are dropped from storage but stay in the naive
product the kernel is checked against on the box it certifies.
"""

from hypothesis import given, settings, strategies as st

from paramodular.chars import CharacterTag
from paramodular.lift import SiegelExpansion
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
def test_rescaled_then_coarsened_is_the_identity(data, nv):
    a, _ = data.draw(operand(nv))
    mult = data.draw(st.tuples(*[st.integers(1, 4)] * nv))
    finer = tuple(d * m for d, m in zip(a.denoms, mult))
    same(a.rescaled(finer).coarsened(a.denoms), a)


@PROPS
@given(st.data(), st.integers(1, 3))
def test_involution_V_is_an_involution(data, t):
    # level t: s-exponents and the s-trunc are multiples of t, so that
    # q -> s/t stays on the lattice and the boxes map back exactly
    a, _ = data.draw(operand(3, step=(1, 1, t)))
    F = SiegelExpansion(a, t, 0, CharacterTag(0, 0), "x")
    back = involution_V(involution_V(F)).series
    back.check()
    assert (back.coeffs, back.trunc) == (a.coeffs, a.trunc)
    assert [back.floor[v] for v in (0, 2)] == [a.floor[v] for v in (0, 2)]
