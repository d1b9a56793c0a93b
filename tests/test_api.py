import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import holdscan as hs
from holdscan import cli

#: The public names, as the package exported them when it imported every
#: submodule eagerly, plus the dashboard's two.
PUBLIC = [
    "ActiveVarianceResult", "AggregationSplit", "ConcentrationSummary", "Dashboard",
    "DependenceReport", "FireSaleResult", "HeadlineIndices", "MAX_ENUMERATION", "Marginals",
    "MicroDecomposition", "OperationDelta", "OwnershipMatrix", "Partition", "PredictedIndices",
    "RenyiSummary", "SignedOwnership", "SparsityScore", "SpectralResidual", "TOL_FEAS",
    "TOL_KKT", "TOL_NORM", "TransportFamily2x2", "TransportSolution", "active_variance",
    "aggregate", "chi2_divergence", "concentration_summary", "dashboard", "dependence_index",
    "dilute", "family_2x2", "fire_sale", "headline", "herfindahl", "is_active",
    "is_extreme_point", "is_feasible", "isotropic_capacity", "marginals", "max_micro",
    "merge_investors", "merger_delta", "micro_concentration", "micro_decomposition",
    "min_micro", "nonid_family", "normalize", "remove_stock", "renyi_summary",
    "restrict_active", "rho", "signed_dependence", "signed_from_raw", "sparsity_score",
    "support_bounds", "transport_matrix_2x2", "vertex_count", "whiten",
]

#: The public constants, which carry no ``__module__``, and their modules.
CONSTANTS = {"TOL_NORM": "core", "MAX_ENUMERATION": "transport", "TOL_FEAS": "transport",
             "TOL_KKT": "transport"}

SUBMODULES = ["cli", "comparative", "core", "dependence", "dynamics", "errors", "extensions",
              "indices", "spectral", "transport", "_pcg"]


def test_public_names_are_pinned():
    assert hs.__all__ == PUBLIC
    assert len(PUBLIC) == 56 + 2


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_its_defining_modules_object(name):
    value = getattr(hs, name)
    home = f"holdscan.{CONSTANTS[name]}" if name in CONSTANTS else value.__module__
    assert home.startswith("holdscan.")
    assert getattr(importlib.import_module(home), name) is value


def test_star_import_and_dir_list_every_name():
    namespace: dict = {}
    exec("from holdscan import *", namespace)
    assert set(PUBLIC) <= namespace.keys()
    assert {"__all__", "__version__", *PUBLIC} <= set(dir(hs))


def test_submodules_resolve_after_a_bare_import():
    # a fresh process: here every submodule is already imported and bound
    code = (
        "import json, sys, types\n"
        "import holdscan\n"
        "loaded = sorted(name for name in sys.modules if name.startswith('holdscan'))\n"
        "kinds = [isinstance(getattr(holdscan, name), types.ModuleType) for name in sys.argv[1:]]\n"
        "print(json.dumps([loaded, kinds, holdscan.errors.LabelNotFound.__module__]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(hs.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code, *SUBMODULES], capture_output=True,
                          text=True, check=True, env=env, timeout=120)
    loaded, kinds, home = json.loads(done.stdout)
    assert loaded == ["holdscan"]
    assert kinds == [True] * len(SUBMODULES)
    assert home == "holdscan.errors"


def test_modules_import_nothing_inside_a_function():
    # one lazy-loading rule: a module reaches the others as ``hs.<module>.<name>``,
    # which the package loads on first access, never by an import in a function
    found = set()
    for path in sorted(Path(hs.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if "TYPE_CHECKING" in text:
            found.add(f"{path.name}: TYPE_CHECKING")
        for func in ast.walk(ast.parse(text)):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(f"{path.name}:{node.lineno}" for node in ast.walk(func)
                             if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert sorted(found) == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'holdscan' has no attribute 'whitened'$"):
        hs.whitened
    assert not hasattr(hs, "profiles")


def test_library_dashboard_is_the_cli_dashboard(golden):
    assert hs.Dashboard is cli.Dashboard
    assert hs.dashboard(golden) == cli.dashboard(golden)
    assert hs.dashboard(golden, compute_psi=False).psi_reason == "disabled"
