"""Brute-force oracles shared by the tests."""

from paramodular.cyclotomic import Cyc, as_rational_int


def gauss_sum_bruteforce(p: int, n: int, l: int, t: int) -> int:
    """-p + sum over a, b mod p of e((n a + l a b + t a b^2)/p), evaluated
    exactly in Z[zeta_p]."""
    acc = 0
    for a in range(p):
        for b in range(p):
            acc = acc + Cyc.root(p, (n * a + l * a * b + t * a * b * b) % p)
    return as_rational_int(acc - p)
