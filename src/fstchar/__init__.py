"""Exact characters of principal-like subspace modules for rank-2 affine type.

The package computes truncated formal characters three independent ways --
brute-force enumeration of admissible configurations, a closed fermionic
formula, and previously known one-variable sums -- and verifies that they
agree coefficient-exactly, together with the recurrence system and the
polynomial identities behind the closed formula.

The oracle counts configurations with a transfer-matrix DP over positions
and streams them, when a caller needs each one, from a depth-first walk.
`KERNEL` names the counting kernel; it is always "pure" (pure Python).
"""

from .admissible import (
    KERNEL,
    HighestWeight,
    character_oracle,
    degree_weight,
    energy,
    enumerate_configs,
    is_admissible,
)
from .charseries import CharSeries, specialize
from .fermionic import (
    BinaryPattern,
    NSequences,
    a_coefficient,
    character_fermionic,
    identity_battery,
    linear_term,
)
from .qseries import (
    QSeries,
    gaussian_binomial,
    inv_pochhammer,
    pochhammer,
    substitute_q_squared,
)
from .recurrence import build_system, verify_system
from .specialize import chi_fjmmt, chi_fjmmt2, verify_spec1, verify_spec2

__version__ = "0.1.0"

__all__ = [
    "KERNEL",
    "HighestWeight",
    "character_oracle",
    "degree_weight",
    "energy",
    "enumerate_configs",
    "is_admissible",
    "CharSeries",
    "specialize",
    "BinaryPattern",
    "NSequences",
    "a_coefficient",
    "character_fermionic",
    "identity_battery",
    "linear_term",
    "QSeries",
    "gaussian_binomial",
    "inv_pochhammer",
    "pochhammer",
    "substitute_q_squared",
    "build_system",
    "verify_system",
    "chi_fjmmt",
    "chi_fjmmt2",
    "verify_spec1",
    "verify_spec2",
    "__version__",
]
