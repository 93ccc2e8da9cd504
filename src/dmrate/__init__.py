"""Certified asymptotic secret-key-rate lower bounds for the QPSK CV-QKD
protocol with trusted (or untrusted) detector noise.

Pipeline: simulate channel statistics -> build detector observables in the
truncated Fock basis -> assemble the convex relative-entropy minimization ->
solve with Frank-Wolfe over a dense interior-point subproblem, on the state
reduced by the protocol's symmetry to a few real blocks -> certify a lower
bound and subtract the error-correction cost.
"""

from .channel import ChannelModel, ProtocolParams
from .detector import DetectorModel
from .pipeline import evaluate_point
from .solver import InfeasibleError, KeyRateResult

__version__ = "0.1.0"

__all__ = [
    "evaluate_point",
    "ChannelModel",
    "DetectorModel",
    "ProtocolParams",
    "KeyRateResult",
    "InfeasibleError",
    "__version__",
]
