"""Three independent routes to one number.

The success probability of locally distinguishing a maximally entangled
basis with a partially entangled resource equals the resource's fully
entangled fraction. This package computes that probability three ways: an
exact simulation of the teleportation protocol (lower bound), the trace of
an analytic dual certificate (upper bound), and a first-order PPT solver
(squeezed in between), then checks that they coincide.
"""

from .certificate import (
    DualCertificate,
    FeasibilityReport,
    UpsilonReport,
    build_certificate,
    upsilon_spectrum_check,
    verify_dual_feasibility,
)
from .measures import fef, negativity
from .protocol import (
    IncompleteBounds,
    ProtocolRun,
    ResidualEnsemble,
    incomplete_bounds,
    protocol_success,
    sample_protocol_success,
    simulate_protocol,
    teleport_residuals,
)
from .sdp import (
    SandwichReport,
    SDPResult,
    sandwich_report,
    solve_primal_ppt,
)
from .states import (
    Ensemble,
    MaxEntBasis,
    ResourceSpectrum,
    build_ensemble,
    conjugated_basis,
    dump_basis_file,
    four_factor_layout,
    haar_random_unitary,
    load_basis_file,
    pair_layout,
    random_spectrum,
    resource_state,
    schmidt_coefficients,
    validate_basis,
    weyl_basis,
)
from .tensor import SubsystemLayout, frobenius

__version__ = "0.1.0"

__all__ = [
    "DualCertificate",
    "Ensemble",
    "FeasibilityReport",
    "IncompleteBounds",
    "MaxEntBasis",
    "ProtocolRun",
    "ResidualEnsemble",
    "ResourceSpectrum",
    "SandwichReport",
    "SDPResult",
    "SubsystemLayout",
    "UpsilonReport",
    "build_certificate",
    "build_ensemble",
    "conjugated_basis",
    "dump_basis_file",
    "fef",
    "four_factor_layout",
    "frobenius",
    "haar_random_unitary",
    "incomplete_bounds",
    "load_basis_file",
    "negativity",
    "pair_layout",
    "protocol_success",
    "random_spectrum",
    "resource_state",
    "sample_protocol_success",
    "sandwich_report",
    "schmidt_coefficients",
    "simulate_protocol",
    "solve_primal_ppt",
    "teleport_residuals",
    "upsilon_spectrum_check",
    "validate_basis",
    "verify_dual_feasibility",
    "weyl_basis",
]
