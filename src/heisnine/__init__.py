"""Census of nonic Heisenberg fields by discriminant, the exact
character-sum evaluator behind it, and the numeric pipeline for the
leading constant of its asymptotic."""

from .charspace import (
    SupportFunction,
    conductor,
    delta,
    enumerate_deltas,
)
from .constants import (
    CancellationSum,
    ConstantReport,
    TruncationParams,
    char_cancellation_profile,
    constant_report,
    euler_product_P,
    h_constants,
)
from .counting import (
    CountReport,
    SubsumClass,
    TermRecord,
    WeightMode,
    X_MAX,
    enumerate_terms,
    heis_subsum,
    heis_total,
    indicator,
)
from .eisenstein import (
    CharValue,
    EisensteinInt,
    ROOT,
    StandardPrime,
    ZERO,
    chi_nine,
    chi_p,
    cubic_symbol,
    standard_decompose,
    standard_primes_up_to,
)
from .ksum import alpha_ell, k_direct, psi_ell
from .verify import SUITE_NAMES, SuiteResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "SupportFunction",
    "conductor",
    "delta",
    "enumerate_deltas",
    "CancellationSum",
    "ConstantReport",
    "TruncationParams",
    "char_cancellation_profile",
    "constant_report",
    "euler_product_P",
    "h_constants",
    "CountReport",
    "SubsumClass",
    "TermRecord",
    "WeightMode",
    "X_MAX",
    "enumerate_terms",
    "heis_subsum",
    "heis_total",
    "indicator",
    "CharValue",
    "EisensteinInt",
    "ROOT",
    "StandardPrime",
    "ZERO",
    "chi_nine",
    "chi_p",
    "cubic_symbol",
    "standard_decompose",
    "standard_primes_up_to",
    "alpha_ell",
    "k_direct",
    "psi_ell",
    "SUITE_NAMES",
    "SuiteResult",
    "run_suite",
]
