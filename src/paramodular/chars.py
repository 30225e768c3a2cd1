"""Kronecker symbols and the eta/Heisenberg multiplier bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


def divisors(n: int) -> list[int]:
    """Positive divisors of |n| in increasing order."""
    n = abs(n)
    return [d for d in range(1, n + 1) if n % d == 0]


def kronecker(a: int, b: int) -> int:
    """Kronecker symbol (a/b), fully extended (b may be zero, negative, even)."""
    if b == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and b % 2 == 0:
        return 0
    v = 0
    while b % 2 == 0:
        b //= 2
        v += 1
    k = 1
    if v % 2 == 1:
        m8 = a % 8
        if m8 in (3, 5):
            k = -1
    if b < 0:
        b = -b
        if a < 0:
            k = -k
    a %= b
    while a:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                k = -k
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            k = -k
        a %= b
    return k if b == 1 else 0


def check_sl2(M) -> tuple[int, int, int, int]:
    a, b, c, d = M
    if a * d - b * c != 1:
        raise ValueError(f"matrix {M} is not in SL2(Z)")
    return a, b, c, d


def v_eta_exponent(M, D: int) -> int:
    """Exponent e mod 24 with eta-multiplier^D(M) = exp(2 pi i e/24), D even.

    Case split on the parity of the matrix entries (one of c, d is odd
    because det = 1 forces gcd(c, d) = 1).
    """
    if D % 2:
        raise ValueError("the eta-multiplier power is a character only for even D")
    a, b, c, d = check_sl2(M)
    if c % 2 == 1:
        x = (a + d) * c - b * d * (c * c - 1) - 3 * c
    else:
        x = (a + d) * c - b * d * (c * c - 1) + 3 * (d - c * d - 1)
    return (D * x) % 24


def conductor(D: int) -> int:
    return 24 // gcd(24, D)


def v_eta_sigma(a: int, D: int) -> int:
    """Value (+-1) of the eta-character power D at sigma_a = diag(a^-1, a) mod Q."""
    Q = conductor(D)
    if gcd(a, Q) != 1:
        raise ValueError(f"a={a} is not invertible modulo the conductor {Q}")
    if Q in (1, 2, 3, 6):
        return 1
    return kronecker(-4, a)


@dataclass(frozen=True)
class CharacterTag:
    """Multiplier-system tag: eta-power D mod 24 and Heisenberg exponent.

    Tags add componentwise when forms are multiplied.
    """
    D: int
    eps: int

    def __post_init__(self):
        object.__setattr__(self, "D", self.D % 24)
        object.__setattr__(self, "eps", self.eps % 2)

    @property
    def Q(self) -> int:
        if self.D % 2:
            raise ValueError("conductor is defined here for even D only")
        return conductor(self.D)

    def __add__(self, other: "CharacterTag") -> "CharacterTag":
        return CharacterTag(self.D + other.D, self.eps + other.eps)

    def __sub__(self, other: "CharacterTag") -> "CharacterTag":
        return CharacterTag(self.D - other.D, self.eps - other.eps)

    def scaled(self, n: int) -> "CharacterTag":
        return CharacterTag(self.D * n, self.eps * n)
