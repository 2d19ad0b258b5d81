"""Poristic tangent-circle chains: construction, moment invariants,
symmetric chains, and radius feasibility."""

from .config import DEFAULT_TOLERANCE, set_tolerance, tolerance
from .document import (
    chain_to_document,
    document_to_chain,
    load_chain,
    render_svg,
    save_chain,
    sweep_csv_text,
    write_sweep_csv,
)
from .feasibility import (
    FeasibilityReport,
    VirtualGaugeResult,
    actual_moments,
    feasibility_check,
    virtual_gauge,
)
from .geometry import (
    Orientation,
    OrientedCircle,
    PlanePoint,
    external_tangency_residual,
    internal_tangency_residual,
    invert_circle,
    invert_point,
    limiting_points,
)
from .moments import (
    GeneralMomentParams,
    InvarianceReport,
    MomentSet,
    bending_moment,
    closed_form_I,
    complex_moment,
    first_two_moments_general,
    invariance_sweep,
    invariant_pairs,
    moment_set,
    third_moment_relation_residual,
)
from .porism import (
    ChainPropagationError,
    ConcentricModel,
    Gauge,
    GaugeValidation,
    InfeasibleGaugeError,
    PoristicRange,
    SteinerChain,
    YiuCoefficients,
    chain_at_phase,
    chain_by_yiu,
    chains_at_phases,
    chain_residuals,
    concentric_model,
    conjugate_chain,
    is_valid_chain,
    neighbor_bend_sum,
    neighbor_bends,
    neighbor_radius_sum,
    parent_circles,
    pedoe_distance,
    poristic_range,
    validate_gauge,
    yiu_coefficients,
)
from .symmetric import (
    AxialBendsN6Report,
    AxialTriplesN3Report,
    SymmetricChainKind,
    axial_bends_n6,
    axial_closed_form_n4,
    axial_triples_n3_printed,
    lateral_chain_n4,
    symmetric_chain,
)

__version__ = "0.1.0"
