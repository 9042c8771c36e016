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

from ordlift import arith, errors, lifting, orders, steinhaus
from ordlift._backend import BACKEND as kernel_backend
from ordlift.arith import *
from ordlift.errors import *
from ordlift.lifting import *
from ordlift.orders import *
from ordlift.steinhaus import *

__version__ = "0.1.0"

__all__ = ["kernel_backend", *arith.__all__, *errors.__all__, *lifting.__all__,
           *orders.__all__, *steinhaus.__all__]
