"""ordlift: multiplicative and projective orders mod n, the derived alpha and
beta functions of a**n, exact order lifting to the square-free core of the
modulus, the law sweep that checks it, and Steinhaus triangle tools.

The lifting formulas live in ``lifting`` and the law registry and its sweep
in ``laws``.  The brute-force order scans live in ``orders``, and the
triangle accumulation and the progression search in ``steinhaus``, all pure
Python.
``ordlift.kernel_backend`` is the constant ``"pure-python"``, kept for one
release.

The records (Factorization, OrderRecord, BasePair, LawResult,
VerificationReport, ZnSequence, TriangleSummary) are named tuples: immutable,
built by position or keyword, unpackable, and equal to a plain tuple of the
same fields.  BasePair and ZnSequence check their fields on every route to
one.  Functions that return one number build no record on the way.
"""

from ordlift import arith, errors, laws, lifting, orders, steinhaus
from ordlift.arith import *
from ordlift.errors import *
from ordlift.laws import *
from ordlift.lifting import *
from ordlift.orders import *
from ordlift.steinhaus import *

__version__ = "0.1.0"

kernel_backend = "pure-python"

__all__ = ["kernel_backend", *arith.__all__, *errors.__all__, *laws.__all__,
           *lifting.__all__, *orders.__all__, *steinhaus.__all__]
