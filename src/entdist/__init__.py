"""Three independent routes to one number.

The success probability of locally distinguishing a maximally entangled
basis with a partially entangled resource equals the resource's fully
entangled fraction. This package computes that probability three ways: an
exact simulation of the teleportation protocol (lower bound), the trace of
an analytic dual certificate (upper bound), and a first-order PPT solver
(squeezed in between), then checks that they coincide.
"""

# The package root binds only ``frobenius``: the benchmark's self-test
# (perfbench/test_perfbench.py) reads it as ``entdist.frobenius``. Everything
# else is imported from its submodule.
from .tensor import frobenius

__version__ = "0.1.0"
