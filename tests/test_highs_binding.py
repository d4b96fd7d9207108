"""Contract test for the HiGHS binding :mod:`repro.core.solver` calls.

SciPy ships HiGHS's Python binding as ``scipy.optimize._highspy._core``, a
private module that may change between SciPy releases.  ``setup.py`` pins
the SciPy range it is checked on; this test checks every name the solver
uses, so an incompatible SciPy fails here with one message naming what is
missing instead of deep inside an analysis.
"""

from __future__ import annotations

import ast
import inspect
from typing import List

import pytest
import scipy

#: Attributes of binding objects the solver reads, sets or calls, by the
#: binding class they belong to (``a_matrix_`` is a ``HighsSparseMatrix``).
INSTANCE_ATTRIBUTES = {
    "HighsOptions": ("presolve", "simplex_strategy", "highs_debug_level",
                     "output_flag", "log_to_console",
                     "dual_feasibility_tolerance"),
    "HighsLp": ("num_col_", "num_row_", "a_matrix_", "col_cost_",
                "col_lower_", "col_upper_", "row_lower_", "row_upper_"),
    "HighsSparseMatrix": ("num_col_", "num_row_", "format_", "start_",
                          "index_", "value_"),
    "_Highs": ("passOptions", "passModel", "run", "getModelStatus",
               "getSolution", "modelStatusToString"),
    "HighsSolution": ("col_value", "col_dual", "dual_valid"),
}


def _module_chains(module) -> List[str]:
    """Every dotted ``highs.a.b`` name in ``module``'s source."""
    chains = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "highs":
            chains.add(".".join(reversed(parts)))
    return sorted(chains)


def missing_names(solver) -> List[str]:
    highs = solver.highs
    missing = []
    for chain in _module_chains(solver):
        owner = highs
        for part in chain.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(chain)
    for class_name, attributes in INSTANCE_ATTRIBUTES.items():
        owner = getattr(highs, class_name, None)
        if owner is None:
            missing.append(class_name)
            continue
        instance = owner()
        missing += [f"{class_name}.{name}" for name in attributes
                    if not hasattr(instance, name)]
    return missing


def test_binding_provides_every_name_the_solver_uses():
    where = (f"scipy {scipy.__version__}: scipy.optimize._highspy._core; "
             "install the SciPy range setup.py pins")
    try:
        from repro.core import solver
    except ImportError as exc:
        pytest.fail(f"{where} cannot be imported ({exc})")
    missing = missing_names(solver)
    assert not missing, f"{where} lacks {', '.join(missing)}"


def test_the_check_sees_the_solvers_names():
    from repro.core import solver

    chains = _module_chains(solver)
    assert "HighsModelStatus.kOptimal" in chains
    assert "simplex_constants.SimplexStrategy.kSimplexStrategyDual" in chains
