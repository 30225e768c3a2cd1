"""Registry of the verified sum-equals-product and operator identities.

Each record computes two routes to the same expansion at a requested box
and checks one rule on it, bit-exactly: left = c * right, where c is the
record's constant, or 1 when it records none.  Two empty sides pass with
c = 1.  ``verify_all`` is the acceptance gate behind the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from .forms import (combo, ez_bracket, hecke_image, phi_2_2_sum, quintuple_product_form,
                    ratio, theta32_series, theta_product_form, theta_series)
from .lift import lift_exp_of, siegel_expansion
from .qseries import ExactDivisionError, InsufficientBoxError, Series, div_operands
from .siegel import (SIGMA_T9, SIGMA_T36, hecke_product_T2_of, ms_p_of,
                     reflected_sides, restrict_z, siegel_div, siegel_pow)


@dataclass
class IdentityRecord:
    id: str
    section: str
    description: str
    build: callable             # (qmax, smax) -> (Series, Series)
    expected_constant: int | None = None    # c of left = c * right; None: 1
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
    if not left.coeffs and not right.coeffs:
        return VerifyResult(ident, "pass", constant=Fraction(1), box=box)
    c = 1 if rec.expected_constant is None else rec.expected_constant
    scaled = right if c == 1 else right.scale(c)
    bad = left.first_mismatch(scaled)
    if bad is None:
        return VerifyResult(ident, "pass", constant=Fraction(c), box=box)
    return VerifyResult(ident, "fail", mismatch_key=bad, box=box,
                        detail=f"left={left.get(bad)} right={scaled.get(bad)}")


def verify_all(qmax: int = 144, smax: int = 144, section: str | None = None):
    out = []
    for ident, rec in sorted(registry().items()):
        if section and rec.section != section:
            continue
        out.append(verify(ident, qmax, smax))
    return out


# ----------------------------------------------------------------------
# builders

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
    return lambda qmax, smax: reflected_sides(siegel_expansion(name, q, s), matrix)


def _build_restrict(name, alpha):
    def build(qmax, smax):
        r = restrict_z(siegel_expansion(name, qmax, smax), alpha)
        return r, Series(3, r.denoms, {}, r.trunc, r.floor)
    return build


def _build_jacobi(left, right):
    """Both sides, builders of the :mod:`~paramodular.forms` item grammar,
    at the box (q,) and restricted to it."""
    return lambda q, s: (left(q).series.restricted((q,)), right(q).series.restricted((q,)))


# A Siegel side is a lift id of ``lift.siegel_expansion`` or a builder
# ``(q, s) -> SiegelExpansion``; the combinators below make builders.  They
# look the engine functions up when called, never at import, so that a
# tracer rebinding ``ms_p``, ``hecke_product_T2``, ``siegel_div`` or
# ``siegel_pow`` after import sees every call.

def _side(side):
    return partial(siegel_expansion, side) if isinstance(side, str) else side


def _ms(p, side):
    """M_p of ``side``, which is asked for the least input box M_p needs."""
    return lambda q, s: ms_p_of(_side(side), p, q, s)


def _t2(side):
    """The fifteen-coset Hecke product at 2 of ``side``, planned likewise."""
    return lambda q, s: hecke_product_T2_of(_side(side), q, s)


def _pow(side, e):
    return lambda q, s: siegel_pow(_side(side)(q, s), e)


def _quot(num, den):
    """num / den on the box (q, s), each built at the box ``div_operands`` plans."""
    return lambda q, s: siegel_div(*div_operands(_side(num), _side(den), (q, s))).restricted(q, s)


def _exp(build):
    """The exponential lift of ``build``, a builder of the forms item grammar."""
    return lambda q, s: lift_exp_of(build, q, s)


def _build_siegel(left, right):
    """Both sides at the box (q, s)."""
    left, right = _side(left), _side(right)
    return lambda q, s: (left(q, s).series, right(q, s).series)


def _build_eq313(q, s):
    d5_4 = siegel_expansion("delta5", q, -(-s // 4)).series.substitute_linear(
        ((Fraction(1), 0, 0), (0, Fraction(2), 0), (0, 0, Fraction(4))))
    dh2 = siegel_expansion("delta_half", q, s).series.pow(2)
    return _ms(2, "delta2")(q, s).series, d5_4.mul(dh2, cap=(q, s))


_PHI_0_1_2Z = ("z", 2, "phi_0_1")     # phi_0_1(tau, 2z)

# (id, section, description, left builder, right builder, expected constant):
# the two-variable rows of ``_build_jacobi``
_JACOBI_ROWS = (
    ("lemma1.6", "1", "quintuple theta equals eta theta(2z)/theta(z)",
     ratio([("theta32",)]), ratio([("eta", 1), ("theta", 2)], [("theta", 1)]), None),
    ("ex1.15", "1", "index-raising image of eta^5 theta(2z) at 2",
     ratio([("T", "tminuschar:2", "eta5_theta2z")]),
     ratio([("eta", 1)] + [("theta", 1)] * 4 + [("theta", 2)]), -1),
    ("eq2.22a", "2", "index-1 generator at 2z from the index 2 and 4 ones",
     ratio([_PHI_0_1_2Z]), combo((1, ["phi_0_2", "phi_0_2"]), (-8, ["phi_0_4"])), None),
    ("eq2.22b", "2", "same via the index 1 times index 3 route",
     ratio([_PHI_0_1_2Z]), combo((1, ["phi_0_1", "phi_0_3"]), (-12, ["phi_0_4"])), None),
    ("eq2.24", "2", "xi_0_6 as phi_0_2 phi_0_4 - phi_0_3^2",
     combo((1, ["phi_0_2", "phi_0_4"]), (-1, ["phi_0_3", "phi_0_3"])), ratio(["xi_0_6"]),
     None),
    ("rem3.6", "2", "E-series route reproduces 144 Delta phi_0_1",
     combo((1, ["E4", "E4", "E4_1"]), (-1, ["E6", "E6_1"])),
     combo((144, ["delta_tau", "phi_0_1"])), None),
    ("eq4.6", "2", "index-36 quotient from scaled index 4, 6, 12 forms",
     combo((1, [("z", 3, "phi_0_4")]), (-1, [("z", 2, "xi_0_6"), "xi_0_12"])),
     ratio(["phi_0_36"]), None),
    ("eq3.14", "3", "T-(2) image minus 2 phi_0_2 equals phi_0_1^2 - 20 phi_0_2",
     combo((1, [("T", "tminus:2", "phi_0_1")]), (-2, ["phi_0_2"])),
     combo((1, ["phi_0_1", "phi_0_1"]), (-20, ["phi_0_2"])), None),
    ("eq3.15", "3", "T-(2) image of phi_0_2",
     ratio([("T", "tminus:2", "phi_0_2")]), combo((1, [_PHI_0_1_2Z]), (2, ["phi_0_4"])), None),
    ("eq3.16", "3", "index-lowering of phi_0_2 is 4 phi_0_1",
     ratio([("T", "tplus2", "phi_0_2")]), combo((4, ["phi_0_1"])), None),
    ("eq3.33", "3", "index-preserving image of phi_0_2 is twice eq3.14",
     ratio([("T", "t0:2", "phi_0_2")]),
     combo((2, [("T", "tminus:2", "phi_0_1")]), (-4, ["phi_0_2"])), None),
    ("eq3.22-jacobi", "3", "index-preserving at 3 on phi_0_3",
     ratio([("T", "t0:3", "phi_0_3")]),
     combo((2, [("T", "tminus:3", "phi_0_1")]), (-6, ["phi_0_3"])), None),
    ("eq3.34", "3", "index-preserving at 2 on phi_0_4 gives phi_0_1(2z)",
     ratio([("T", "t0:2", "phi_0_4")]), ratio([_PHI_0_1_2Z]), None),
    ("eq3.35", "3", "index lowering from 4 to 1 gives 8 phi_0_1",
     ratio([("T", "tplus14", "phi_0_4")]), combo((8, ["phi_0_1"])), None),
)

# (id, section, description, left side, right side, expected constant): the
# rows of ``_build_siegel``
_SIEGEL_ROWS = (
    ("eq2.16-delta5-arith", "2", "weight-5 form: closed sum vs divisor-sum lift",
     "delta5", "arith:eta9_theta", None),
    ("eq2.16-delta5-exp", "2", "weight-5 form: closed sum vs product lift",
     "delta5", "exp:phi_0_1", None),
    ("eq2.21-delta2-arith", "2", "weight-2 level-2 form, both sum routes",
     "delta2", "arith:eta3_theta", None),
    ("eq2.21-delta2-exp", "2", "weight-2 level-2 form, sum vs product",
     "delta2", "exp:phi_0_2", None),
    ("eq2.20-delta1-arith", "2", "weight-1 level-3 form, both sum routes",
     "delta1", "arith:eta1_theta", None),
    ("eq2.20-delta1-exp", "2", "weight-1 level-3 form, sum vs product",
     "delta1", "exp:phi_0_3", None),
    ("eq2.11-deltahalf", "2", "singular weight level 4, sum vs product",
     "delta_half", "exp:phi_0_4", None),
    ("eq2.14-dhalf", "2", "singular weight level 36, sum vs product",
     "d_half", "exp:phi_0_36", None),
    ("thm4.1-d2-arith", "4", "weight-2 level-9 form, both sum routes",
     "d2", "arith:eta3_theta32", None),
    ("thm4.1-d2-exp", "4", "weight-2 level-9 form, sum vs product",
     "d2", "exp:phi_0_9", None),
    ("eq4.5-d1-arith", "4", "weight-1 level-18 form, both sum routes",
     "d1", "arith:eta1_theta32", None),
    ("eq4.5-d1-exp", "4", "weight-1 level-18 form, sum vs product",
     "d1", "exp:phi_0_18", None),
    ("eq3.32-d6", "3", "weight-6 level-3 form, divisor sum vs product",
     "arith:eta11_theta32", "exp:phi_0_3_6", None),
    ("eq3.11-delta11", "3", "weight-11 level-2 form, divisor sum vs product",
     "arith:eta21_theta2z", "exp:phi_0_2_11", None),
    ("eq4.10", "4", "weight-5 level-5 form, divisor sum vs product",
     "arith:eta3_theta6_theta2z", "exp:phi_0_5", None),
    ("eq4.11", "4", "weight-4 level-5 form, divisor sum vs product",
     "arith:eta6_theta_theta2z", "exp:phi_0_5_alt", None),
    ("eq4.12", "4", "weight-3 level-6 form, divisor sum vs product",
     "arith:eta3_theta2_theta2z", "exp:phi_0_6_a", None),
    ("eq4.13", "4", "weight-3 level-6 form with nontrivial class",
     "arith:eta5_theta2z", "exp:phi_0_6_b", None),
    ("eq4.14", "4", "conjugate-class lift vs product of the squared quotient",
     "arith:eta5_theta2z:2", "exp:phi_0_6_c", -1),
    ("eq4.15", "4", "weight-2 level-7 form, divisor sum vs product",
     "arith:theta3_theta2z", "exp:phi_0_7", None),
    ("eq4.17", "4", "weight-1 level-10 form, divisor sum vs product",
     "arith:theta_theta2z", "exp:phi_0_10", None),
    # section 3: symmetrisation and Hecke products
    ("eq3.20-sym", "3", "symmetrisation at 2 of the level-3 form",
     _ms(2, "delta1"), _exp(ratio([("T", "tminus:2", "phi_0_3")])), 1),
    ("eq3.23-sym", "3", "symmetrisation at 3 of the level-3 form",
     _ms(3, "delta1"), _exp(ratio([("T", "tminus:3", "phi_0_3")])), 1),
    ("eq3.21-sym", "3", "symmetrisation at 2 of the singular level-4 form",
     _ms(2, "delta_half"), _exp(ratio([("T", "tminus:2", "phi_0_4")])), 1),
    ("thm3.3-p3-t2", "3", "symmetrisation at 3 of the level-2 form",
     _ms(3, "delta2"), _exp(ratio([("T", "tminus:3", "phi_0_2")])), 1),
    ("eq3.10-delta11-sym", "3", "level-2 quotient of the symmetrised weight-5 form",
     _quot(_ms(2, "delta5"), _pow("delta2", 2)), "arith:eta21_theta2z", 1),
    ("eq3.22-siegel", "3", "symmetrisation at 3 of the weight-5 form, reduced",
     _quot(_ms(3, "delta5"), _pow("delta1", 4)),
     _exp(combo((1, [("T", "tminus:3", "phi_0_1")]), (-4, ["phi_0_3"]))), 1),
    ("eq3.31-delta35", "3", "fifteen-coset product quotient vs product lift",
     _quot(_t2("delta5"), _pow("delta5", 8)), "exp:phi_0_1_t02m2", 1),
)

_REGISTRY = {rec.id: rec for rec in (
    # --- sections 1-3: theta constructions, basis and Hecke relations -----
    IdentityRecord("eq1.9-theta", "1", "theta sum form equals triple product",
                   lambda q, s: (theta_series(q).series, theta_product_form(q))),
    IdentityRecord("quintuple", "1", "quintuple theta sum equals product",
                   lambda q, s: (theta32_series(q).series, quintuple_product_form(q))),
    IdentityRecord("eq1.34-bracket", "1", "theta bracket sum equals differential bracket",
                   lambda q, s: (phi_2_2_sum(q).series,
                                 ez_bracket(theta_series(q), theta32_series(q),
                                            scale=2).series)),
    *(IdentityRecord(ident, section, desc, _build_jacobi(left, right), expected)
      for ident, section, desc, left, right, expected in _JACOBI_ROWS),
    IdentityRecord("eq3.9", "3", "the seven printed index-raising head rows", _build_eq39,
                   fixed_box=True),
    IdentityRecord("lemma3.5-new", "3", "phi_0_4 is annihilated by the index division",
                   lambda q, s: (hecke_image("lambdastar:2", "phi_0_4", q).series,
                                 Series(2, (24, 2), {}, (q, None), (0, 0)))),

    # --- sections 2-4: sum = product, symmetrisation and Hecke products --
    *(IdentityRecord(ident, section, desc, _build_siegel(left, right), expected)
      for ident, section, desc, left, right, expected in _SIEGEL_ROWS),
    IdentityRecord("eq3.13-sym", "3",
                   "symmetrised level-2 form against the theta-constant pair",
                   _build_eq313, 1),

    # --- sections 1 and 4: vanishing and anti-invariance ----------------
    IdentityRecord("thm1.11-sigma", "4", "reflection negates the level-36 singular form",
                   _build_sigma("d_half", SIGMA_T36, 24 * 10, 24 * 180), fixed_box=True),
    IdentityRecord("thm4.1-sigma", "4", "reflection negates the level-9 weight-2 form",
                   _build_sigma("d2", SIGMA_T9, 24 * 10, 24 * 48), fixed_box=True),
    IdentityRecord("lemma1.16-delta1", "1", "level-3 form vanishes on the z = 0 slice",
                   _build_restrict("delta1", 0)),
    IdentityRecord("lemma1.16-delta2", "1", "level-2 form vanishes on the z = 0 slice",
                   _build_restrict("delta2", 0)),
    IdentityRecord("lemma1.16-delta5", "1", "weight-5 form vanishes on the z = 0 slice",
                   _build_restrict("delta5", 0)),
    IdentityRecord("thm1.11-restrict", "1", "level-36 singular form vanishes at z = 1/2",
                   _build_restrict("d_half", Fraction(1, 2))),
)}


def registry() -> dict:
    return _REGISTRY
