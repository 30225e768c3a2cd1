"""Exact q-expansion engine for Jacobi forms, paramodular liftings and
hyperbolic root-system checks."""

from .chars import CharacterTag, kronecker, v_eta_exponent, v_eta_sigma
from .forms import JacobiExpansion, catalog, ez_bracket
from .lift import (InsufficientBoxError, SiegelExpansion, arith_lift,
                   closed_form, divisor_multiplicity, exp_lift,
                   lemma22_checksum, lift_arith, lift_exp, vt_parity)
from .qseries import ExactDivisionError, Series

__all__ = [
    "CharacterTag", "ExactDivisionError", "InsufficientBoxError",
    "JacobiExpansion", "Series", "SiegelExpansion", "arith_lift", "catalog",
    "closed_form", "divisor_multiplicity", "exp_lift", "ez_bracket",
    "kronecker", "lemma22_checksum", "lift_arith", "lift_exp", "v_eta_exponent",
    "v_eta_sigma", "vt_parity",
]

__version__ = "0.1.0"
