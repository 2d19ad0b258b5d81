"""Poristic tangent-circle chains: construction, moment invariants,
symmetric chains, and radius feasibility.

The names below resolve on first use: importing the package loads none of
its modules, and `steinerchains.X` imports the module that defines X."""

import importlib

_EXPORTS = {
    "config": ("DEFAULT_TOLERANCE", "set_tolerance", "tolerance"),
    "document": (
        "chain_to_document", "document_to_chain", "load_chain", "render_svg", "save_chain",
        "sweep_csv_text", "write_sweep_csv",
    ),
    "feasibility": (
        "FeasibilityReport", "VirtualGaugeResult", "actual_moments", "feasibility_check",
        "third_moment_relation_residual", "virtual_gauge",
    ),
    "geometry": ("Orientation", "OrientedCircle", "PlanePoint"),
    "inversion": (
        "ConcentricModel", "concentric_model", "external_tangency_residual",
        "internal_tangency_residual", "invert_circle", "invert_point", "limiting_points",
        "parent_circles",
    ),
    "moments": (
        "GeneralMomentParams", "InvarianceReport", "MomentSet", "bending_moment", "closed_form_I",
        "complex_moment", "first_two_moments_general", "invariance_sweep", "invariant_pairs",
        "moment_set",
    ),
    "porism": (
        "Gauge", "GaugeValidation", "InfeasibleGaugeError", "PoristicRange", "SteinerChain",
        "YiuCoefficients", "chain_at_phase", "chain_by_yiu", "chain_residuals", "conjugate_chain",
        "is_valid_chain", "neighbor_bend_sum", "neighbor_bends", "neighbor_radius_sum",
        "pedoe_distance", "poristic_range", "validate_gauge", "yiu_coefficients",
    ),
    "symmetric": (
        "AxialBendsN6Report", "AxialTriplesN3Report", "SymmetricChainKind", "axial_bends_n6",
        "axial_closed_form_n4", "axial_triples_n3_printed", "lateral_chain_n4", "symmetric_chain",
    ),
}


def _lazy(namespace: dict, table: dict[str, tuple[str, ...]]):
    """PEP 562 module __getattr__ for `namespace`: the first use of a name
    in table[module], or of the module's own name, imports that module of
    this package and binds all its names in `namespace`, then the module
    name itself. A name already bound is kept, so a wrapper installed on it
    stays. Later lookups, global ones included, are dictionary hits."""
    owner = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        module = owner.get(name, name)
        if module not in table:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        loaded = importlib.import_module(f"{__name__}.{module}")
        for each in table[module]:
            namespace.setdefault(each, getattr(loaded, each))
        namespace[module] = loaded
        return namespace[name]

    return __getattr__


__getattr__ = _lazy(globals(), _EXPORTS)
__all__ = [*_EXPORTS, *(name for names in _EXPORTS.values() for name in names)]
__version__ = "0.1.0"


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
