"""Concentration, dependence, and transmission diagnostics for holdings matrices.

Each public name lives in one submodule, which ``_HOMES`` names, and is
loaded on first access (PEP 562): ``import holdscan`` imports no submodule,
and ``holdscan.whiten`` imports ``holdscan.spectral``, then keeps the name.
So a process compiles and runs only the layers it uses; the command line's
set-up loads ``cli``, ``core`` and ``errors`` alone. ``from holdscan import
*`` binds every name in ``__all__``, and the submodules resolve as
attributes, as they did when this package imported them all eagerly.
"""

import importlib

__version__ = "0.1.0"

#: Each public name's home module.
_HOMES = {
    name: module
    for module, names in {
        "cli": "Dashboard dashboard",
        "comparative": "HeadlineIndices OperationDelta PredictedIndices dilute headline "
        "merge_investors nonid_family remove_stock",
        "core": "TOL_NORM Marginals OwnershipMatrix is_active marginals normalize restrict_active",
        "dependence": "AggregationSplit DependenceReport Partition aggregate chi2_divergence "
        "dependence_index merger_delta",
        "dynamics": "ActiveVarianceResult FireSaleResult active_variance fire_sale "
        "isotropic_capacity",
        "extensions": "RenyiSummary SignedOwnership renyi_summary signed_dependence "
        "signed_from_raw",
        "indices": "ConcentrationSummary MicroDecomposition concentration_summary herfindahl "
        "micro_concentration micro_decomposition support_bounds",
        "spectral": "SpectralResidual rho whiten",
        "transport": "MAX_ENUMERATION TOL_FEAS TOL_KKT SparsityScore TransportFamily2x2 "
        "TransportSolution family_2x2 is_extreme_point is_feasible max_micro min_micro "
        "sparsity_score transport_matrix_2x2 vertex_count",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOMES)

#: The submodules that resolve as attributes before they are imported.
_SUBMODULES = {*_HOMES.values(), "errors", "_pcg", "_fork"}


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
