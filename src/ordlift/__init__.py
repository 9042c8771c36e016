"""ordlift: multiplicative and projective orders mod n, the derived alpha and
beta functions of a**n, exact order lifting to the square-free core of the
modulus, and Steinhaus triangle tools.

The brute-force order scans and the triangle accumulation run through a
compiled extension when it is built; otherwise the pure-Python kernels take
over transparently.  ``ordlift.kernel_backend`` reports which one is active.
The progression search always runs in pure Python, since its orbit search
beats the compiled full scan.

The records (Factorization, OrderRecord, BasePair, LawResult,
VerificationReport, ZnSequence, TriangleSummary) are named tuples: immutable,
built by position or keyword, unpackable, and equal to a plain tuple of the
same fields.  Functions that return one number build no record on the way.
"""

from ordlift._backend import BACKEND as kernel_backend
from ordlift.arith import (
    Factorization,
    divisors,
    euler_phi,
    factorize,
    gcd_conv,
    is_prime,
    mod_pow,
    radical,
    valuation,
)
from ordlift.errors import (
    FactorizationBudgetError,
    InvalidPairError,
    NotCoprimeError,
)
from ordlift.lifting import (
    BasePair,
    LawResult,
    TwoAdicCase,
    VerificationReport,
    admissible_bases,
    alpha_fast,
    alpha_prime_power,
    beta_fast,
    beta_prime_power,
    canonical_base,
    lift_alpha,
    lift_beta,
    lift_order,
    make_base_pair,
    order_fast,
    proj_order_fast,
    verify_claims,
)
from ordlift.orders import (
    OrderRecord,
    alpha,
    alpha_oracle,
    beta,
    beta_oracle,
    mult_order,
    proj_order,
    remainder_gcd,
)
from ordlift.steinhaus import (
    TriangleSummary,
    ZnSequence,
    ap_sequence,
    is_balanced,
    length_admissible,
    search_balanced_ap,
    triangle,
)

__version__ = "0.1.0"

__all__ = [
    "BasePair",
    "Factorization",
    "FactorizationBudgetError",
    "InvalidPairError",
    "LawResult",
    "NotCoprimeError",
    "OrderRecord",
    "TriangleSummary",
    "TwoAdicCase",
    "VerificationReport",
    "ZnSequence",
    "admissible_bases",
    "alpha",
    "alpha_fast",
    "alpha_oracle",
    "alpha_prime_power",
    "ap_sequence",
    "beta",
    "beta_fast",
    "beta_oracle",
    "beta_prime_power",
    "canonical_base",
    "divisors",
    "euler_phi",
    "factorize",
    "gcd_conv",
    "is_balanced",
    "is_prime",
    "kernel_backend",
    "length_admissible",
    "lift_alpha",
    "lift_beta",
    "lift_order",
    "make_base_pair",
    "mod_pow",
    "mult_order",
    "order_fast",
    "proj_order",
    "proj_order_fast",
    "radical",
    "remainder_gcd",
    "search_balanced_ap",
    "triangle",
    "valuation",
    "verify_claims",
]
