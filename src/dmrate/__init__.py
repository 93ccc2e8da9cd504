"""Certified asymptotic secret-key-rate lower bounds for the QPSK CV-QKD
protocol with trusted (or untrusted) detector noise.

Pipeline: simulate channel statistics -> build detector observables in the
truncated Fock basis -> assemble the convex relative-entropy minimization ->
solve with Frank-Wolfe over a dense interior-point subproblem -> certify a
lower bound and subtract the error-correction cost.
"""

from .fock import (
    coherent_overlap,
    hermite,
    hermitian_sqrt,
    laguerre,
    quadrature_operators,
    taylor_f,
)

__version__ = "0.1.0"

__all__ = [
    "coherent_overlap",
    "hermite",
    "hermitian_sqrt",
    "laguerre",
    "quadrature_operators",
    "taylor_f",
    "__version__",
]
