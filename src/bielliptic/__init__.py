"""Exact screening calculus for bielliptic Atkin-Lehner quotient curves.

Evaluates fixed-point counts of the Atkin-Lehner involutions from exact
weight-2 modular symbols and of the normalizer involutions from those,
computes genera of X0(N)/W for arbitrary Atkin-Lehner subgroups W as Hurwitz
counts over them, and classifies which quotients are bielliptic and which
have infinitely many quadratic points.
"""

from .involutions import (
    ExtInvolution,
    fix_al,
    fix_count,
    fix_table,
    group_closure,
    quotient_genus_hurwitz,
)
from .modsym import build_space, invariant_genus
from .ntheory import ALSubgroup, class_number, factor, hall_divisors, psi
from .x0invariants import cusp_count, genus_x0

__all__ = [
    "ALSubgroup",
    "ExtInvolution",
    "build_space",
    "class_number",
    "cusp_count",
    "factor",
    "fix_al",
    "fix_count",
    "fix_table",
    "genus_x0",
    "group_closure",
    "hall_divisors",
    "invariant_genus",
    "psi",
    "quotient_genus_hurwitz",
]

__version__ = "0.1.0"
