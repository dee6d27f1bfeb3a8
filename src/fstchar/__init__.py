"""Exact characters of principal-like subspace modules of affine sl(l+1).

The oracle, its configuration stream and the recurrence system run at any
rank l; the closed fermionic formula, the pattern identities and the
one-variable sums reached through the specializations are rank 2 (sl(3)).

The package computes truncated formal characters three independent ways --
brute-force enumeration of admissible configurations, a closed fermionic
formula, and previously known one-variable sums -- and verifies that they
agree coefficient-exactly, together with the recurrence system and the
polynomial identities behind the closed formula.

The oracle module `admissible` counts configurations with a transfer-matrix
DP and streams them, when a caller needs each one, from a depth-first walk.
`KERNEL` names the counting kernel; it is always "pure" (pure Python).

A weight (k_0, ..., k_l) is a plain tuple; every route checks it with
`weight_parts`, so a bad weight fails the same way everywhere.

No route takes a series product; the product forms the tests compare with
(Gaussian binomials, the bounded census) live in `tests/reference.py`.
"""

from .admissible import (
    KERNEL,
    character_oracle,
    degree_weight,
    energy,
    enumerate_configs,
    weight_parts,
)
from .charseries import CharSeries
from .fermionic import (
    BinaryPattern,
    NSequences,
    a_coefficient,
    character_fermionic,
    identity_battery,
    linear_term,
)
from .qseries import QSeries
from .recurrence import build_system, verify_system
from .specialize import chi_fjmmt, chi_fjmmt2, verify_spec1, verify_spec2

__version__ = "0.1.0"

__all__ = [
    "KERNEL",
    "character_oracle",
    "degree_weight",
    "energy",
    "enumerate_configs",
    "weight_parts",
    "CharSeries",
    "BinaryPattern",
    "NSequences",
    "a_coefficient",
    "character_fermionic",
    "identity_battery",
    "linear_term",
    "QSeries",
    "build_system",
    "verify_system",
    "chi_fjmmt",
    "chi_fjmmt2",
    "verify_spec1",
    "verify_spec2",
    "__version__",
]
