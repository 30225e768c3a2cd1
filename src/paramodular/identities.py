"""Registry of the verified sum-equals-product and operator identities.

Each record computes two routes to the same expansion at a requested box
and compares them bit-exactly, either on the nose or after one logged
proportionality constant fixed by the first nonzero coefficient in graded
lexicographic order.  ``verify_all`` is the acceptance gate behind the CLI.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from .forms import catalog, hecke_image, ratio
from .lift import closed_form, lift_arith, lift_exp, lift_exp_of
from .qseries import (ExactDivisionError, InsufficientBoxError, Series,
                      div_operands, exponent_map)
from .siegel import (SIGMA_T9, SIGMA_T36, hecke_product_T2_of, ms_p_of,
                     restrict_z, siegel_div, siegel_pow)

_MEMO: dict = {}
_LOCK = threading.Lock()


def _memo(key, build):
    with _LOCK:
        if key in _MEMO:
            return _MEMO[key]
    val = build()
    with _LOCK:
        _MEMO.setdefault(key, val)
    return val


def _closed(name, q, s):
    return _memo(("closed", name, q, s), lambda: closed_form(name, q, s))


def _arith(name, mu, q, s):
    return _memo(("arith", name, mu, q, s), lambda: lift_arith(name, mu, q, s))


def _exp(name, q, s):
    return _memo(("exp", name, q, s), lambda: lift_exp(name, q, s))


@dataclass
class IdentityRecord:
    id: str
    section: str
    description: str
    policy: str                 # "exact" or "up-to-constant"
    build: callable             # (qmax, smax) -> (Series, Series)
    expected_constant: int | None = None
    fixed_box: bool = False     # record chooses its own verification box


@dataclass
class VerifyResult:
    id: str
    status: str                 # "pass" | "fail" | "error"
    constant: Fraction | None = None
    mismatch_key: tuple | None = None
    box: tuple | None = None
    detail: str = ""

    @property
    def ok(self):
        return self.status == "pass"


def verify(ident: str, qmax: int = 144, smax: int = 144) -> VerifyResult:
    rec = registry().get(ident)
    if rec is None:
        raise KeyError(f"unknown identity {ident!r}")
    if qmax <= 0 or smax <= 0:
        return VerifyResult(ident, "error", detail="insufficient box requested")
    try:
        left, right = rec.build(qmax, smax)
    except (InsufficientBoxError, ExactDivisionError) as exc:
        # box shortfalls are reported; any other exception is a bug and propagates
        return VerifyResult(ident, "error", detail=f"{type(exc).__name__}: {exc}")
    box = left.common_box(right)
    if not rec.fixed_box:
        want = (qmax,) if left.nvars == 2 else (qmax, smax)
        for got, need in zip(box, want):
            if got is not None and got < need:
                return VerifyResult(ident, "error", box=box,
                                    detail=f"insufficient box {box} for {want}")
    if rec.policy == "exact":
        bad = left.first_mismatch(right)
        if bad is None:
            return VerifyResult(ident, "pass", constant=Fraction(1), box=box)
        return VerifyResult(ident, "fail", mismatch_key=bad, box=box,
                            detail=f"left={left.get(bad)} right={right.get(bad)}")
    # up-to-constant: scale by the ratio of graded-lex leading coefficients
    kl, cl = left.leading() or (None, None)
    kr, cr = right.leading() or (None, None)
    if kl is None and kr is None:
        return VerifyResult(ident, "pass", constant=Fraction(1), box=box)
    if kl is None or kr is None or kl != kr:
        return VerifyResult(ident, "fail", mismatch_key=kl or kr, box=box,
                            detail="leading terms do not align")
    const = Fraction(cl, cr)
    if const.denominator != 1:
        return VerifyResult(ident, "fail", mismatch_key=kl, box=box,
                            detail=f"non-integral leading ratio {const}")
    bad = left.first_mismatch(right.scale(const.numerator))
    if bad is None:
        res = VerifyResult(ident, "pass", constant=const, box=box)
        if rec.expected_constant is not None and const != rec.expected_constant:
            res.status = "fail"
            res.detail = (f"constant {const} differs from the recorded "
                          f"{rec.expected_constant}")
        return res
    return VerifyResult(ident, "fail", mismatch_key=bad, constant=const, box=box,
                        detail=f"left={left.get(bad)} right={right.get(bad)*const}")


def verify_all(qmax: int = 144, smax: int = 144, section: str | None = None):
    out = []
    for ident, rec in sorted(registry().items()):
        if section and rec.section != section:
            continue
        out.append(verify(ident, qmax, smax))
    return out


# ----------------------------------------------------------------------
# builders

def _quotient(numerator, divisor, q, s):
    """numerator / divisor on the box (q, s), each operand built by
    ``(Q, S) -> SiegelExpansion`` at the box that ``div_operands`` plans."""
    a, b = div_operands(numerator, divisor, (q, s))
    return siegel_div(a, b).series.restricted((q, s))


_EQ39_ROWS = {
    ("phi_0_1", 2): {2: 1, 1: 2, 0: 30, -1: 2, -2: 1},
    ("phi_0_1", 3): {3: 1, 1: 3, 0: 40, -1: 3, -3: 1},
    ("phi_0_2", 2): {2: 1, 1: 2, 0: 12, -1: 2, -2: 1},
    ("phi_0_2", 3): {3: 1, 1: 3, 0: 16, -1: 3, -3: 1},
    ("phi_0_3", 2): {2: 1, 1: 2, 0: 6, -1: 2, -2: 1},
    ("phi_0_3", 3): {3: 1, 1: 3, 0: 8, -1: 3, -3: 1},
    ("phi_0_4", 2): {2: 1, 1: 2, 0: 3, -1: 2, -2: 1},
}


def _build_eq39(qmax, smax):
    got = {}
    want = {}
    for i, ((name, m), row) in enumerate(sorted(_EQ39_ROWS.items())):
        img = hecke_image(f"tminus:{m}", name, 96)
        for l2, c in img.q_slice(0).items():
            got[(24 * i, l2)] = c
        for l, c in row.items():
            want[(24 * i, 2 * l)] = c
    mk = lambda d: Series(2, (24, 2), d, (24 * 6, None), (0, -8))
    return mk(got), mk(want)


def _build_sigma(name, matrix, q, s):
    def build(qmax, smax):
        F = _closed(name, q, s)
        ser = F.series
        image = exponent_map(matrix, ser.denoms, ser.denoms)
        img = {}
        for key, c in ser.terms():
            out = image(key)
            if out is None:
                continue
            if all(ser.trunc[v] is None or out[v] <= ser.trunc[v] for v in (0, 2)):
                img[out] = c
        left = Series(3, ser.denoms, img, ser.trunc, ser.floor)
        right = Series(3, ser.denoms,
                       {k: -ser.get(k) for k in img}, ser.trunc, ser.floor)
        return left, right
    return build


def _build_restrict(name, alpha):
    def build(qmax, smax):
        F = _closed(name, qmax, smax)
        r = restrict_z(F, alpha)
        zero = Series(3, r.denoms, {}, r.trunc, r.floor)
        return r, zero
    return build


def registry() -> dict:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    return _REGISTRY


_REGISTRY = None


def _build_registry() -> dict:
    R = {}

    def add(ident, section, desc, policy, build, expected=None, fixed_box=False):
        R[ident] = IdentityRecord(ident, section, desc, policy, build, expected,
                                  fixed_box)

    # --- section 1: theta constructions -------------------------------
    from .forms import (eta_power, quintuple_product_form, theta_product_form,
                        theta_series, theta32_series, phi_2_2_sum, ez_bracket)

    add("eq1.9-theta", "1", "theta sum form equals triple product", "exact",
        lambda q, s: (theta_series(q).series, theta_product_form(q)))
    add("quintuple", "1", "quintuple theta sum equals product", "exact",
        lambda q, s: (theta32_series(q).series, quintuple_product_form(q)))
    add("lemma1.6", "1", "quintuple theta equals eta theta(2z)/theta(z)", "exact",
        lambda q, s: (theta32_series(q).series,
                      ratio([("eta", 1), ("theta", 2)], [("theta", 1)])(q).series))
    add("eq1.34-bracket", "1", "theta bracket sum equals differential bracket",
        "exact",
        lambda q, s: (phi_2_2_sum(q).series,
                      ez_bracket(theta_series(q), theta32_series(q), scale=2).series))
    add("ex1.15", "1", "index-raising image of eta^5 theta(2z) at 2",
        "up-to-constant",
        lambda q, s: (hecke_image("tminuschar:2", "eta5_theta2z", q).series,
                      (eta_power(1, q) * theta_series(q).pow(4)
                       * theta_series(q, 2)).series),
        expected=-1)

    # --- section 2: basis identities -----------------------------------
    add("eq2.22a", "2", "index-1 generator at 2z from the index 2 and 4 ones",
        "exact",
        lambda q, s: (catalog("phi_0_1", q).rescale_z(2).series,
                      (catalog("phi_0_2", q).pow(2)
                       - catalog("phi_0_4", q).scale(8)).series))
    add("eq2.22b", "2", "same via the index 1 times index 3 route", "exact",
        lambda q, s: (catalog("phi_0_1", q).rescale_z(2).series,
                      ((catalog("phi_0_1", q) * catalog("phi_0_3", q))
                       - catalog("phi_0_4", q).scale(12)).series))
    add("eq2.24", "2", "xi_0_6 as phi_0_2 phi_0_4 - phi_0_3^2", "exact",
        lambda q, s: ((catalog("phi_0_2", q) * catalog("phi_0_4", q)
                       - catalog("phi_0_3", q).pow(2)).series,
                      catalog("xi_0_6", q).series))
    add("rem3.6", "2", "E-series route reproduces 144 Delta phi_0_1", "exact",
        lambda q, s: (((catalog("E4", q) * catalog("E4", q) * catalog("E4_1", q))
                       - catalog("E6", q) * catalog("E6_1", q)).series,
                      (catalog("delta_tau", q) * catalog("phi_0_1", q))
                      .scale(144).series))
    add("eq4.6", "2", "index-36 quotient from scaled index 4, 6, 12 forms",
        "exact",
        lambda q, s: ((catalog("phi_0_4", q).rescale_z(3)
                       - catalog("xi_0_6", q).rescale_z(2) * catalog("xi_0_12", q))
                      .series.restricted((q,)),
                      catalog("phi_0_36", q).series.restricted((q,))))

    # --- section 3: Hecke rows and relations ---------------------------
    add("eq3.9", "3", "the seven printed index-raising head rows", "exact",
        _build_eq39, fixed_box=True)
    add("eq3.14", "3", "T-(2) image minus 2 phi_0_2 equals phi_0_1^2 - 20 phi_0_2",
        "exact",
        lambda q, s: ((hecke_image("tminus:2", "phi_0_1", q)
                       - catalog("phi_0_2", q).scale(2)).series,
                      (catalog("phi_0_1", q).pow(2)
                       - catalog("phi_0_2", q).scale(20)).series))
    add("eq3.15", "3", "T-(2) image of phi_0_2", "exact",
        lambda q, s: (hecke_image("tminus:2", "phi_0_2", q).series,
                      (catalog("phi_0_1", q).rescale_z(2)
                       + catalog("phi_0_4", q).scale(2)).series))
    add("eq3.16", "3", "index-lowering of phi_0_2 is 4 phi_0_1", "exact",
        lambda q, s: (hecke_image("tplus2", "phi_0_2", q).series,
                      catalog("phi_0_1", q).scale(4).series))
    add("eq3.33", "3", "index-preserving image of phi_0_2 is twice eq3.14",
        "exact",
        lambda q, s: (hecke_image("t0:2", "phi_0_2", q).series,
                      (hecke_image("tminus:2", "phi_0_1", q)
                       - catalog("phi_0_2", q).scale(2)).scale(2).series))
    add("eq3.22-jacobi", "3", "index-preserving at 3 on phi_0_3", "exact",
        lambda q, s: (hecke_image("t0:3", "phi_0_3", q).series,
                      (hecke_image("tminus:3", "phi_0_1", q).scale(2)
                       - catalog("phi_0_3", q).scale(6)).series))
    add("eq3.34", "3", "index-preserving at 2 on phi_0_4 gives phi_0_1(2z)",
        "exact",
        lambda q, s: (hecke_image("t0:2", "phi_0_4", q).series,
                      catalog("phi_0_1", q).rescale_z(2).series))
    add("eq3.35", "3", "index lowering from 4 to 1 gives 8 phi_0_1", "exact",
        lambda q, s: (hecke_image("tplus14", "phi_0_4", q).series,
                      catalog("phi_0_1", q).scale(8).series))
    add("lemma3.5-new", "3", "phi_0_4 is annihilated by the index division",
        "exact",
        lambda q, s: (hecke_image("lambdastar:2", "phi_0_4", q).series,
                      Series(2, (24, 2), {}, (q, None), (0, 0))))

    # --- section 2/4: sum = product identities --------------------------
    add("eq2.16-delta5-arith", "2", "weight-5 form: closed sum vs divisor-sum lift",
        "exact", lambda q, s: (_closed("delta5", q, s).series,
                               _arith("eta9_theta", 1, q, s).series))
    add("eq2.16-delta5-exp", "2", "weight-5 form: closed sum vs product lift",
        "exact", lambda q, s: (_closed("delta5", q, s).series,
                               _exp("phi_0_1", q, s).series))
    add("eq2.21-delta2-arith", "2", "weight-2 level-2 form, both sum routes",
        "exact", lambda q, s: (_closed("delta2", q, s).series,
                               _arith("eta3_theta", 1, q, s).series))
    add("eq2.21-delta2-exp", "2", "weight-2 level-2 form, sum vs product",
        "exact", lambda q, s: (_closed("delta2", q, s).series,
                               _exp("phi_0_2", q, s).series))
    add("eq2.20-delta1-arith", "2", "weight-1 level-3 form, both sum routes",
        "exact", lambda q, s: (_closed("delta1", q, s).series,
                               _arith("eta1_theta", 1, q, s).series))
    add("eq2.20-delta1-exp", "2", "weight-1 level-3 form, sum vs product",
        "exact", lambda q, s: (_closed("delta1", q, s).series,
                               _exp("phi_0_3", q, s).series))
    add("eq2.11-deltahalf", "2", "singular weight level 4, sum vs product",
        "exact", lambda q, s: (_closed("delta_half", q, s).series,
                               _exp("phi_0_4", q, s).series))
    add("eq2.14-dhalf", "2", "singular weight level 36, sum vs product",
        "exact", lambda q, s: (_closed("d_half", q, s).series,
                               _exp("phi_0_36", q, s).series))
    add("thm4.1-d2-arith", "4", "weight-2 level-9 form, both sum routes",
        "exact", lambda q, s: (_closed("d2", q, s).series,
                               _arith("eta3_theta32", 1, q, s).series))
    add("thm4.1-d2-exp", "4", "weight-2 level-9 form, sum vs product",
        "exact", lambda q, s: (_closed("d2", q, s).series,
                               _exp("phi_0_9", q, s).series))
    add("eq4.5-d1-arith", "4", "weight-1 level-18 form, both sum routes",
        "exact", lambda q, s: (_closed("d1", q, s).series,
                               _arith("eta1_theta32", 1, q, s).series))
    add("eq4.5-d1-exp", "4", "weight-1 level-18 form, sum vs product",
        "exact", lambda q, s: (_closed("d1", q, s).series,
                               _exp("phi_0_18", q, s).series))
    add("eq3.32-d6", "3", "weight-6 level-3 form, divisor sum vs product",
        "exact", lambda q, s: (_arith("eta11_theta32", 1, q, s).series,
                               _exp("phi_0_3_6", q, s).series))
    add("eq3.11-delta11", "3", "weight-11 level-2 form, divisor sum vs product",
        "exact", lambda q, s: (_arith("eta21_theta2z", 1, q, s).series,
                               _exp("phi_0_2_11", q, s).series))
    add("eq4.10", "4", "weight-5 level-5 form, divisor sum vs product", "exact",
        lambda q, s: (_arith("eta3_theta6_theta2z", 1, q, s).series,
                      _exp("phi_0_5", q, s).series))
    add("eq4.11", "4", "weight-4 level-5 form, divisor sum vs product", "exact",
        lambda q, s: (_arith("eta6_theta_theta2z", 1, q, s).series,
                      _exp("phi_0_5_alt", q, s).series))
    add("eq4.12", "4", "weight-3 level-6 form, divisor sum vs product", "exact",
        lambda q, s: (_arith("eta3_theta2_theta2z", 1, q, s).series,
                      _exp("phi_0_6_a", q, s).series))
    add("eq4.13", "4", "weight-3 level-6 form with nontrivial class", "exact",
        lambda q, s: (_arith("eta5_theta2z", 1, q, s).series,
                      _exp("phi_0_6_b", q, s).series))
    add("eq4.14", "4", "conjugate-class lift vs product of the squared quotient",
        "up-to-constant",
        lambda q, s: (_arith("eta5_theta2z", 2, q, s).series,
                      _exp("phi_0_6_c", q, s).series),
        expected=-1)
    add("eq4.15", "4", "weight-2 level-7 form, divisor sum vs product", "exact",
        lambda q, s: (_arith("theta3_theta2z", 1, q, s).series,
                      _exp("phi_0_7", q, s).series))
    add("eq4.17", "4", "weight-1 level-10 form, divisor sum vs product", "exact",
        lambda q, s: (_arith("theta_theta2z", 1, q, s).series,
                      _exp("phi_0_10", q, s).series))

    # --- section 3: symmetrisation and Hecke products -------------------
    # each operator asks for the least input box that certifies its output
    def b_ms(name, p, rhs_phi, m):
        def build(q, s):
            left = ms_p_of(partial(_closed, name), p, q, s).series
            right = lift_exp_of(lambda d: hecke_image(f"tminus:{m}", rhs_phi, d), q, s)
            return left, right.series
        return build

    add("eq3.20-sym", "3", "symmetrisation at 2 of the level-3 form",
        "up-to-constant", b_ms("delta1", 2, "phi_0_3", 2), expected=1)
    add("eq3.23-sym", "3", "symmetrisation at 3 of the level-3 form",
        "up-to-constant", b_ms("delta1", 3, "phi_0_3", 3), expected=1)
    add("eq3.21-sym", "3", "symmetrisation at 2 of the singular level-4 form",
        "up-to-constant", b_ms("delta_half", 2, "phi_0_4", 2), expected=1)
    add("thm3.3-p3-t2", "3", "symmetrisation at 3 of the level-2 form",
        "up-to-constant", b_ms("delta2", 3, "phi_0_2", 3), expected=1)

    def b_310(q, s):
        quot = _quotient(lambda Q, S: ms_p_of(partial(_closed, "delta5"), 2, Q, S),
                         lambda Q, S: siegel_pow(_closed("delta2", Q, S), 2), q, s)
        return quot, _arith("eta21_theta2z", 1, q, s).series
    add("eq3.10-delta11-sym", "3", "level-2 quotient of the symmetrised weight-5 form",
        "up-to-constant", b_310, expected=1)

    def b_313(q, s):
        left = ms_p_of(partial(_closed, "delta2"), 2, q, s).series
        d5_4 = _closed("delta5", q, -(-s // 4)).series.substitute_linear(
            ((Fraction(1), 0, 0), (0, Fraction(2), 0), (0, 0, Fraction(4))))
        dh2 = _closed("delta_half", q, s).series.pow(2)
        return left, d5_4.mul(dh2, cap=(q, s))
    add("eq3.13-sym", "3", "symmetrised level-2 form against the theta-constant pair",
        "up-to-constant", b_313, expected=1)

    def b_322(q, s):
        quot = _quotient(lambda Q, S: ms_p_of(partial(_closed, "delta5"), 3, Q, S),
                         lambda Q, S: siegel_pow(_closed("delta1", Q, S), 4), q, s)
        right = lift_exp_of(
            lambda d: (hecke_image("tminus:3", "phi_0_1", d)
                       - catalog("phi_0_3", d).scale(4)), q, s)
        return quot, right.series
    add("eq3.22-siegel", "3", "symmetrisation at 3 of the weight-5 form, reduced",
        "up-to-constant", b_322, expected=1)

    def b_331(q, s):
        quot = _quotient(lambda Q, S: hecke_product_T2_of(partial(_closed, "delta5"), Q, S),
                         lambda Q, S: siegel_pow(_closed("delta5", Q, S), 8), q, s)
        return quot, _exp("phi_0_1_t02m2", q, s).series
    add("eq3.31-delta35", "3", "fifteen-coset product quotient vs product lift",
        "up-to-constant", b_331, expected=1)

    # --- section 1/4: vanishing and anti-invariance ---------------------
    add("thm1.11-sigma", "4", "reflection negates the level-36 singular form",
        "exact", _build_sigma("d_half", SIGMA_T36, 24 * 10, 24 * 180),
        fixed_box=True)
    add("thm4.1-sigma", "4", "reflection negates the level-9 weight-2 form",
        "exact", _build_sigma("d2", SIGMA_T9, 24 * 10, 24 * 48), fixed_box=True)
    add("lemma1.16-delta1", "1", "level-3 form vanishes on the z = 0 slice",
        "exact", _build_restrict("delta1", 0))
    add("lemma1.16-delta2", "1", "level-2 form vanishes on the z = 0 slice",
        "exact", _build_restrict("delta2", 0))
    add("lemma1.16-delta5", "1", "weight-5 form vanishes on the z = 0 slice",
        "exact", _build_restrict("delta5", 0))
    add("thm1.11-restrict", "1", "level-36 singular form vanishes at z = 1/2",
        "exact", _build_restrict("d_half", Fraction(1, 2)))

    return R
