"""Interaction-free measurement on a square two-path interferometer.

Single-photon branch propagation with explicit momentum bookkeeping, a
truncated occupation-number oracle for the mode-rotation algebra, an
absorbing obstruction model, soft-photon emission statistics, and a
plain-text layout format with a command-line front end.
"""

from .errors import ConfigurationError, DivergenceError
from .fock import (
    FockSpace,
    build_space,
    commutator,
    commutator_preservation_check,
    ladder,
    number_operator,
    rotation_check,
    v_unitary,
)
from .optics import (
    ElementKind,
    GaussianPacket,
    HouseholderReflection,
    OpticalElement,
    PhotonMode,
    householder,
    locality_check,
    packet_overlap,
    port_matrix,
    reflect_mode,
    two_port_rotation,
)
from .interferometer import (
    Arm,
    DetectionReport,
    InteractionEvent,
    Layout,
    Obstruction,
    ShotCounts,
    fringe_scan,
    propagate_analytic,
    run_shots,
    shot_batches,
    square_layout,
    with_obstruction,
)
from .softphotons import (
    CorrectedReport,
    E_SQUARED_HEAVISIDE_LORENTZ,
    PollutionConfig,
    ProcessLeg,
    SoftWindow,
    corrected_probabilities,
    mean_photons,
    pollution_probability,
    weinberg_factor_fermion,
    weinberg_factor_general,
)
from .dsl import Diagnostic, LayoutDocument, parse_layout, serialize_layout

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DivergenceError",
    "FockSpace",
    "build_space",
    "commutator",
    "commutator_preservation_check",
    "ladder",
    "number_operator",
    "rotation_check",
    "v_unitary",
    "ElementKind",
    "GaussianPacket",
    "HouseholderReflection",
    "OpticalElement",
    "PhotonMode",
    "householder",
    "locality_check",
    "packet_overlap",
    "port_matrix",
    "reflect_mode",
    "two_port_rotation",
    "Arm",
    "DetectionReport",
    "InteractionEvent",
    "Layout",
    "Obstruction",
    "ShotCounts",
    "fringe_scan",
    "propagate_analytic",
    "run_shots",
    "shot_batches",
    "square_layout",
    "with_obstruction",
    "CorrectedReport",
    "E_SQUARED_HEAVISIDE_LORENTZ",
    "PollutionConfig",
    "ProcessLeg",
    "SoftWindow",
    "corrected_probabilities",
    "mean_photons",
    "pollution_probability",
    "weinberg_factor_fermion",
    "weinberg_factor_general",
    "Diagnostic",
    "LayoutDocument",
    "parse_layout",
    "serialize_layout",
    "__version__",
]
