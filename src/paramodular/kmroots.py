"""Hyperbolic rank-3 root data and Lie-type expansion checks.

The lattice is U(4t) + <2> with basis coordinates (n, l, m) and bilinear
form (x, y) = 2 x2 y2 - 4t (x1 y3 + x3 y1).  Each case record carries the
simple roots bounding the fundamental polyhedron, the odd subset and the
Weyl vector; the infinite cases materialize their root set as the orbit of
seed roots under symmetry reflections.  The printed Gram and Cartan tables
are recomputed from the vectors and compared entrywise.

Reflections run over Z: a root's norm divides twice its pairing ideal
(``RootDatum.check`` asserts it), so each 2 (e_j, delta)/(delta, delta) is
an integer and s_delta lies in GL_3(Z).  Only rho has denominators, so the
Weyl group acts on d rho, d the common denominator of rho, and the box
tests and exponent keys scale by d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import gcd, lcm

# the orbit-built root sets keep every coordinate within _BOUND, and
# reduce_to_root gives up after _MAX_STEPS reflections
_BOUND = 40
_MAX_STEPS = 4000
_BASIS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@dataclass(frozen=True)
class HypLattice:
    t: int

    def pair(self, x, y) -> Fraction:
        return 2 * x[1] * y[1] - 4 * self.t * (x[0] * y[2] + x[2] * y[0])

    def norm(self, x) -> Fraction:
        return self.pair(x, x)

    def gram(self, vectors):
        return tuple(tuple(self.pair(a, b) for b in vectors) for a in vectors)


def reflect(lattice: HypLattice, delta, x):
    """x - (2 (x, delta)/(delta, delta)) delta; requires non-isotropic delta."""
    nn = lattice.norm(delta)
    if nn == 0:
        raise ValueError("cannot reflect in an isotropic vector")
    c = 2 * lattice.pair(x, delta) / nn
    return tuple(Fraction(xi) - c * di for xi, di in zip(x, delta))


def reflection_matrix(lattice: HypLattice, delta):
    """The integer matrix of s_delta, whose column j is s_delta(e_j); raises
    ValueError unless every 2 (e_j, delta)/(delta, delta) is an integer."""
    nn = lattice.norm(delta)
    if nn == 0:
        raise ValueError("cannot reflect in an isotropic vector")
    c = [divmod(2 * lattice.pair(e, delta), nn) for e in _BASIS]
    if any(r for _, r in c):
        raise ValueError(f"the reflection in {delta} does not preserve Z^3")
    return tuple(tuple(int(i == j) - c[j][0] * delta[i] for j in range(3))
                 for i in range(3))


def mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
                 for i in range(3))


def mat_vec(a, v):
    return tuple(sum(a[i][k] * v[k] for k in range(3)) for i in range(3))


@dataclass
class RootDatum:
    case_id: str
    lattice: HypLattice
    roots: list
    odd: set                      # indices into roots forming the odd subset
    rho: tuple
    printed_gram: tuple | None = None
    printed_cartan: tuple | None = None
    # optional second table (full reflection group data) for validation
    roots0: list | None = None
    printed_gram0: tuple | None = None
    parabolic: bool = False

    def gram(self):
        return self.lattice.gram(self.roots)

    @cached_property
    def reflections(self):
        """The integer matrices of the simple reflections, in root order."""
        return tuple(reflection_matrix(self.lattice, r) for r in self.roots)

    @cached_property
    def scaled_rho(self):
        """(d, d rho), with d the common denominator of rho."""
        d = lcm(*(x.denominator for x in self.rho))
        return d, tuple(int(d * x) for x in self.rho)

    def cartan(self):
        g = self.gram()
        out = []
        for i, row in enumerate(g):
            nn = g[i][i]
            line = []
            for x in row:
                v, r = divmod(2 * x, nn)
                if r:
                    raise ValueError(f"non-integral Cartan entry {2 * x}/{nn} "
                                     f"in {self.case_id}")
                line.append(v)
            out.append(tuple(line))
        return tuple(out)

    def check(self):
        """Validate the printed tables and the structural root-datum laws."""
        if self.printed_gram is not None and self.gram() != self.printed_gram:
            raise AssertionError(f"{self.case_id}: Gram matrix differs from the table")
        a = self.cartan()
        if self.printed_cartan is not None and a != self.printed_cartan:
            raise AssertionError(f"{self.case_id}: Cartan matrix differs from the table")
        for i, al in enumerate(self.roots):
            nn = self.lattice.norm(al)
            if nn <= 0:
                raise AssertionError(f"{self.case_id}: root {al} has nonpositive norm")
            gg = gcd(*(self.lattice.pair(al, e) for e in _BASIS))
            if (2 * gg) % nn:
                raise AssertionError(f"{self.case_id}: norm of {al} does not divide "
                                     f"twice its pairing ideal")
            if 2 * self.lattice.pair(self.rho, al) != -nn:
                raise AssertionError(f"{self.case_id}: Weyl-vector law fails at {al}")
        rr = self.lattice.norm(self.rho)
        if self.parabolic and rr != 0:
            raise AssertionError(f"{self.case_id}: expected parabolic (rho,rho)=0, got {rr}")
        if not self.parabolic and rr >= 0:
            raise AssertionError(f"{self.case_id}: expected elliptic (rho,rho)<0, got {rr}")
        if self.printed_gram0 is not None and \
                self.lattice.gram(self.roots0) != self.printed_gram0:
            raise AssertionError(f"{self.case_id}: auxiliary Gram table differs")
        for i in range(len(a)):
            for j in range(len(a)):
                if i == j:
                    if a[i][j] != 2:
                        raise AssertionError(f"{self.case_id}: Cartan diagonal not 2")
                elif a[i][j] > 0:
                    raise AssertionError(f"{self.case_id}: positive off-diagonal Cartan entry")
        return True


def _materialize(lattice, seeds, gens):
    """Close the seed roots under the reflections in ``gens`` while
    components stay within _BOUND."""
    mats = [reflection_matrix(lattice, g) for g in gens]
    seen = set()
    frontier = [tuple(s) for s in seeds]
    while frontier:
        nxt = []
        for v in frontier:
            if v in seen:
                continue
            seen.add(v)
            for m in mats:
                w = mat_vec(m, v)
                if w not in seen and all(abs(x) <= _BOUND for x in w):
                    nxt.append(w)
        frontier = nxt
    return sorted(seen)


def build_datum(case_id: str) -> RootDatum:
    if case_id not in _CASES:
        raise KeyError(f"unknown case {case_id!r}; have {sorted(_CASES)}")
    datum = _CASES[case_id]()
    datum.check()
    return datum


# The cases whose simple roots are finitely many fixed vectors.  Case-id
# pattern -> (the values of t it is printed for, t -> (simple roots, odd
# subset, Weyl vector, printed Gram, printed Cartan[, auxiliary roots, their
# printed Gram])); D2 is printed for t = 9 only and names no t.
_FIXED = {
    "t{}_I_odd": ((1, 2, 3, 4), lambda t: (
        [(0, -1, 0), (1, 2, 0), (-1, 0, 1)], {0},
        (Fraction(2 * t + 3, 2 * t), Fraction(1, 2), Fraction(3, 2 * t)),
        ((2, -4, 0), (-4, 8, -4 * t), (0, -4 * t, 8 * t)),
        ((2, -4, 0), (-1, 2, -t), (0, -1, 2)))),
    "t{}_0_odd": ((1, 2, 3, 4), lambda t: (
        [(0, -2, 0), (1, 2, 0), (-1, 0, 1)], set(),
        (Fraction(t + 2, t), Fraction(1), Fraction(2, t)),
        ((8, -8, 0), (-8, 8, -4 * t), (0, -4 * t, 8 * t)),
        ((2, -2, 0), (-2, 2, -t), (0, -1, 2)))),
    "t{}_I_odd_tilde": ((1, 2, 3, 4), lambda t: (
        [(1, 2, 0), (-1, 0, 1), (1, -2, 0)], set(),
        (Fraction(t + 1, t), Fraction(0), Fraction(1, t)),
        ((8, -4 * t, -8), (-4 * t, 8 * t, -4 * t), (-8, -4 * t, 8)),
        ((2, -t, -2), (-1, 2, -1), (-2, -t, 2)))),
    "t{}_II_odd": ((2, 3, 4), lambda t: (
        [(0, -2, 0), (-1, 0, 1), (t - 1, 2 * t, 1), (2, 2, 0)], set(),
        (Fraction(t + 1, t), Fraction(1), Fraction(1, t)),
        ((8, 0, -8 * t, -8),
         (0, 8 * t, -4 * t * t + 8 * t, -8 * t),
         (-8 * t, -4 * t * t + 8 * t, 8 * t, 0),
         (-8, -8 * t, 0, 8)),
        ((2, 0, -2 * t, -2), (0, 2, -t + 2, -2),
         (-2, -t + 2, 2, 0), (-2, -2 * t, 0, 2)))),
    "t{}_0_even": ((2, 3, 4), lambda t: (
        [(0, -2, 0), (1, 2, 0), (0, 2, 1)], set(),
        (Fraction(2, t), Fraction(1), Fraction(2, t)),
        ((8, -8, -8), (-8, 8, -4 * t + 8), (-8, -4 * t + 8, 8)),
        ((2, -2, -2), (-2, 2, -t + 2), (-2, -t + 2, 2)))),
    "t{}_I_even": ((2, 3, 4), lambda t: (
        [(0, -1, 0), (1, 2, 0), (0, 2, 1)], {0},
        (Fraction(3, 2 * t), Fraction(1, 2), Fraction(3, 2 * t)),
        ((2, -4, -4), (-4, 8, -4 * t + 8), (-4, -4 * t + 8, 8)),
        ((2, -4, -4), (-1, 2, -t + 2), (-1, -t + 2, 2)))),
    "t{}_I_even_tilde": ((2, 3, 4), lambda t: (
        [(1, 2, 0), (0, 2, 1), (0, -2, 1), (1, -2, 0)], set(),
        (Fraction(1, t), Fraction(0), Fraction(1, t)),
        ((8, -4 * t + 8, -4 * t - 8, -8),
         (-4 * t + 8, 8, -8, -4 * t - 8),
         (-4 * t - 8, -8, 8, -4 * t + 8),
         (-8, -4 * t - 8, -4 * t + 8, 8)),
        ((2, -t + 2, -t - 2, -2), (-t + 2, 2, -2, -t - 2),
         (-t - 2, -2, 2, -t + 2), (-2, -t - 2, -t + 2, 2)))),
    "D2": ((9,), lambda t: (
        [(0, -1, 0), (1, 2, 0), (2, 9, 1), (1, 9, 2), (0, 2, 1)], {0},
        (Fraction(1, 6), Fraction(1, 2), Fraction(1, 6)),
        ((2, -4, -18, -18, -4),
         (-4, 8, 0, -36, -28),
         (-18, 0, 18, -18, -36),
         (-18, -36, -18, 18, 0),
         (-4, -28, -36, 0, 8)),
        ((2, -4, -18, -18, -4),
         (-1, 2, 0, -9, -7),
         (-2, 0, 2, -2, -4),
         (-2, -4, -2, 2, 0),
         (-1, -7, -9, 0, 2)),
        [(0, -1, 0), (1, 2, 0), (2, 9, 1), (-1, 0, 1)],
        ((2, -4, -18, 0),
         (-4, 8, 0, -36),
         (-18, 0, 18, -36),
         (0, -36, -36, 72)))),
}


def _fixed(pattern, t, row):
    return RootDatum(pattern.format(t), HypLattice(t), *row(t))


def _t_1bar(t):
    lat = HypLattice(t)
    roots = _materialize(lat, [(-1, 0, 1)], [(0, -1, 0), (1, 2, 0)])
    # all roots are even here: the odd subset is empty
    datum = RootDatum(f"t{t}_1bar", lat, roots, set(),
                      (Fraction(1), Fraction(0), Fraction(0)), parabolic=True)
    # defining predicate: primitive, norm 8t, pairings divisible by 4t,
    # (delta, rho) = -4t.  With rho = (1, 0, 0) the pairing is -4t m, so
    # m = 1, and norm 2 l^2 - 8t n = 8t gives n = (l^2 - 4t) / 4t; every
    # such root with max|v| <= _BOUND // 8 must be in the orbit
    w = _BOUND // 8
    have = set(roots)
    for l in range(-w, w + 1):
        n, rem = divmod(l * l - 4 * t, 4 * t)
        v = (n, l, 1)
        if rem or abs(n) > w or gcd(*v) != 1:
            continue
        if gcd(*(lat.pair(v, e) for e in _BASIS)) % (4 * t) == 0 and v not in have:
            raise AssertionError(f"t{t}_1bar: predicate root {v} missing from orbit")
    return datum


_T_II_EVEN_ROOTS = {
    1: [(0, -1, 0), (1, 1, 0), (0, 1, 1)],
    2: [(0, -1, 0), (1, 1, 0), (1, 3, 1), (0, 1, 1)],
    3: [(0, -1, 0), (1, 1, 0), (2, 5, 1), (2, 7, 2), (1, 5, 2), (0, 1, 1)],
}


def _t_II_even(t):
    lat = HypLattice(t)
    rho = (Fraction(1, 2 * t), Fraction(1, 2), Fraction(1, 2 * t))
    if t in _T_II_EVEN_ROOTS:
        roots = list(_T_II_EVEN_ROOTS[t])
    else:
        roots = _materialize(lat, [(0, -1, 0)], [(1, 2, 0), (-1, 0, 1)])
    datum = RootDatum(f"t{t}_II_even", lat, roots, set(), rho, parabolic=(t == 4))
    if t not in _T_II_EVEN_ROOTS:
        have = set(roots)
        d, drho = datum.scaled_rho
        for v in _enumerate_box(_BOUND // 8):
            if lat.norm(v) == 2 and lat.pair(v, drho) == -d and v not in have:
                raise AssertionError(f"t{t}_II_even: predicate root {v} missing")
    if t in _T_II_EVEN_ROOTS and datum.gram() != datum.cartan():
        raise AssertionError("norm-2 case must have Gram = Cartan")
    return datum


def _dhalf():
    lat = HypLattice(36)
    seeds = [(0, -1, 0), (1, 2, 0), (7, 32, 1), (5, 27, 1)]
    sym = [(2, 18, 1), (-1, 0, 1)]
    roots = _materialize(lat, seeds, sym)
    odd_orbit = set(_materialize(lat, [(0, -1, 0)], sym))
    return RootDatum(
        "Dhalf", lat, roots, {i for i, r in enumerate(roots) if r in odd_orbit},
        (Fraction(1, 24), Fraction(1, 2), Fraction(1, 24)), parabolic=True,
        roots0=seeds + sym,
        printed_gram0=((2, -4, -64, -54, -36, 0),
                       (-4, 8, -16, -36, -72, -144),
                       (-64, -16, 32, 0, -144, -864),
                       (-54, -36, 0, 18, -36, -576),
                       (-36, -72, -144, -36, 72, -144),
                       (0, -144, -864, -576, -144, 288)))


def _enumerate_box(b):
    for n in range(-b, b + 1):
        for l in range(-2 * b, 2 * b + 1):
            for m in range(-b, b + 1):
                if (n, l, m) != (0, 0, 0):
                    yield (n, l, m)


# case id -> the function that builds its datum
_CASES = {pattern.format(t): partial(_fixed, pattern, t, row)
          for pattern, (ts, row) in _FIXED.items() for t in ts}
_CASES.update({f"t{t}_1bar": partial(_t_1bar, t) for t in (2, 3, 4)})
_CASES.update({f"t{t}_II_even": partial(_t_II_even, t) for t in (1, 2, 3, 4)})
_CASES["Dhalf"] = _dhalf


def case_ids():
    return sorted(_CASES)


# ----------------------------------------------------------------------
# Weyl group enumeration and the Lie-type expansion shape

@dataclass(frozen=True)
class WeylElement:
    matrix: tuple
    word: tuple
    sign: int


def enumerate_weyl(datum: RootDatum, height_bound: int) -> list:
    """All group elements whose image of rho stays within the exponent box
    (numerators at most height_bound), by breadth-first search over words in
    the simple reflections with matrix-level deduplication.  The sign is the
    parity of even-root letters; duplicate words must agree on it."""
    t = datum.lattice.t
    d, drho = datum.scaled_rho
    gens = datum.reflections
    gsign = [1 if i in datum.odd else -1 for i in range(len(datum.roots))]

    def inside(v, slack=1):
        # v = d w(rho), so the bounds on w(rho) scale by d
        bound = d * height_bound * slack
        return abs(24 * v[0]) <= bound and abs(24 * t * v[2]) <= bound \
            and abs(2 * v[1]) <= 4 * bound

    ident = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    seen = {ident: (1, ())}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            sgn, word = seen[m]
            if not inside(mat_vec(m, drho), slack=2):
                continue
            for i, g in enumerate(gens):
                m2 = mat_mul(g, m)
                s2 = sgn * gsign[i]
                if m2 in seen:
                    if seen[m2][0] != s2:
                        raise AssertionError("sign character ill-defined on equal matrices")
                    continue
                seen[m2] = (s2, (i,) + word)
                nxt.append(m2)
        frontier = nxt
        if len(seen) > 200000:
            raise RuntimeError("Weyl enumeration exceeded the safety cap")
    out = []
    for m, (sgn, word) in seen.items():
        if inside(mat_vec(m, drho), slack=1):
            out.append(WeylElement(m, word, sgn))
    out.sort(key=lambda w: (len(w.word), w.word))
    return out


def reduce_to_root(datum: RootDatum, v, targets):
    """Drive a positive-norm lattice point through simple reflections with
    positive pairing until it hits one of the target vectors (a simple root
    or a doubled odd one); positive real roots reach a simple root in
    finitely many steps, anything else runs out of steps and returns None."""
    lat = datum.lattice
    for _ in range(_MAX_STEPS):
        if v in targets:
            return v
        for al, s in zip(datum.roots, datum.reflections):
            if lat.pair(v, al) > 0:
                v = mat_vec(s, v)
                break
        else:
            return None
    return None


def lie_expansion_check(F, phi, datum: RootDatum, height_bound: int) -> dict:
    """Verify the two visible shapes of a Lie-type expansion.

    (i) the coefficient of F at the exponent w(rho) is sign(w) for every
        enumerated Weyl element with w(rho) inside the box;
    (ii) every positive-norm lattice point with nonzero product multiplicity
        f(nm, l) reduces into the simple-root set with the stated
        multiplicity pattern (+1 on even roots, -1 on odd roots, +1 on
        doubled odd roots).
    """
    lat = datum.lattice
    t = lat.t
    report = {"case": datum.case_id, "orbit_checked": 0, "roots_checked": 0}
    d, drho = datum.scaled_rho
    for w in enumerate_weyl(datum, height_bound):
        v = mat_vec(w.matrix, drho)
        key = (24 * v[0], 2 * v[1], 24 * t * v[2])
        if any(x % d for x in key):
            raise AssertionError("orbit point leaves the exponent lattice")
        key = tuple(x // d for x in key)
        sq, ss = F.series.trunc[0], F.series.trunc[2]
        if key[0] < F.series.floor[0] or (sq is not None and key[0] > sq):
            continue
        if key[2] < F.series.floor[2] or (ss is not None and key[2] > ss):
            continue
        got = F.series.get(key)
        if got != w.sign:
            raise AssertionError(
                f"{datum.case_id}: coefficient {got} at {key} differs from sign {w.sign}")
        report["orbit_checked"] += 1

    roots = set(map(tuple, datum.roots))
    odd = {tuple(datum.roots[i]) for i in datum.odd}
    even = roots - odd
    doubled = {tuple(2 * x for x in r) for r in odd}
    targets = roots | doubled
    bound_m = max(height_bound // 24, 1)

    def check_point(a, c):
        if lat.norm(a) <= 0:
            return
        red = reduce_to_root(datum, a, targets)
        if red in even:
            ok = c == 1
        elif red in odd:
            ok = c == -1
        elif red in doubled:
            ok = c == 1
        else:
            ok = False
        if not ok:
            raise AssertionError(
                f"{datum.case_id}: positive-norm point {a} (reduced {red}) "
                f"has multiplicity {c} outside the real-root pattern")
        report["roots_checked"] += 1

    for (n, l), c in phi.paper_terms():
        # product factors (n/m, l, m), m >= 1, carry multiplicity f(n, l)
        for m in range(1, bound_m + 1):
            if n % m:
                continue
            check_point((n // m, l, m), c)
        # the m = 0 block: factors (k, l, 0) for k >= 1, and (0, l<0, 0)
        if n == 0:
            for k in range(1, bound_m + 1):
                check_point((k, l, 0), c)
            if l < 0:
                check_point((0, l, 0), c)
    return report


# registry binding case ids to the lift that realizes them
CASE_FORMS = {
    "t1_II_even": ("delta5", "phi_0_1"),
    "t2_II_even": ("delta2", "phi_0_2"),
    "t3_II_even": ("delta1", "phi_0_3"),
    "t4_II_even": ("delta_half", "phi_0_4"),
    "D2": ("d2", "phi_0_9"),
    "Dhalf": ("d_half", "phi_0_36"),
}
