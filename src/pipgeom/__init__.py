"""Exact lattice geometry of rational polygons.

Count lattice points in dilates exactly, reconstruct the degree-2
count quasipolynomial, certify pseudointegrality, and generate the
polygon families realizing extreme interior/boundary profiles.

Each public name is imported from its module on first access (PEP 562),
so importing one module of the package loads only what that module uses.
"""

__version__ = "0.1.0"

# each public name, by the module that defines it
_MODULES = {
    "counting": ("count_boundary", "count_total", "dilate_counter"),
    "ehrhart": (
        "PipCertificate", "QuasiPolynomial", "check_reciprocity", "is_pseudointegral", "reconstruct_quasipolynomial",
    ),
    "exact": ("AffineMap", "IntMat2", "Vec2"),
    "polygon": ("RationalPolygon", "hull", "triangle_invariant"),
    "vieta": (
        "FamilyState", "VietaSolution", "enumerate_reduced", "family", "is_solution", "is_vieta_reduced",
        "jump_forest", "verify_general_bound", "vieta_jump", "vieta_reduce",
    ),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
