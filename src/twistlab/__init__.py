"""Numerical laboratory for killed non-symmetric Markov chains.

The package builds finite chains in duality (generator, m-adjoint,
potential, mass gap), the twisted complex Gaussian measure attached to a
chain together with its exact determinant/resolvent calculus, a path and
bridge Monte Carlo engine for occupation fields, and harnesses that check
the field/occupation-time identities both exactly and statistically.  A
companion module does the same determinant calculus on truncated
Hilbert-space operators (renormalised determinants, circle drift and Levy
symbol examples, reproducing kernels).
"""

from .chain import (
    ChainError,
    ChainSpec,
    DualPair,
    NumericalError,
    build_dual,
    dual_pair_from_generator,
    mass_gap,
    nchain,
    random_chain,
    trace_chain,
)
from .functionals import BumpField, ExpField, MonomialField, ProductField
from .paths import bridge_values
from .reporting import VerificationReport, count_failures, write_reports_csv
from .twisted import (
    TwistedModel,
    build_twisted,
    complete_monotonicity_check,
    green,
    mgf,
    partition,
    permanent,
    q_moment,
    q_moment_oracle,
    sample_twisted_batch,
)

__version__ = "0.1.0"
