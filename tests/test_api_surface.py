"""The package's public surface: the exported names, and no module-level
function or UPPER_CASE constant that nothing in the package or its tests
reads."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import choikit as ck

from test_linalg import TOL_CHECKS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "choikit"

EXPORTS = {
    "Certificate", "PASS", "FAIL",
    "block_positive", "canonical_ccp_conditions", "canonical_coefficients",
    "canonical_cp_conditions", "ccp_check", "cp_check",
    "face_form_inequalities", "face_membership",
    "FaceFrame", "apply_map", "canonicalize", "choi_from_action",
    "choi_from_blocks", "conjugate", "partial_transpose",
    "DecompositionPair", "decompose_extremal", "kraus_operators",
    "verify_decomposition",
    "ChoiKitError", "EpsilonTooLargeError", "HypothesisViolatedError",
    "InvalidParamsError", "NonFiniteEntryError", "NotCanonicalFormError",
    "NotExtremalError", "NotHermitianError", "NotInFaceError",
    "NotUnitVectorError", "NotUnitaryError",
    "ExtremalParams", "build_extremal", "degenerate_case", "derived_t",
    "example_family", "params_from_choi", "random_params", "validate_extremal",
    "complete_to_unitary", "psd_check", "rank_estimate",
    "FeasibilityReport", "SplitCandidate", "canonical_split", "epsilon_family",
    "feasibility", "split_matrices", "uniqueness_search",
}


def test_all_lists_exactly_the_exported_names():
    assert len(EXPORTS) == 51
    assert len(ck.__all__) == len(set(ck.__all__))
    assert set(ck.__all__) == EXPORTS
    for name in ck.__all__:
        assert hasattr(ck, name), name


def test_only_the_checks_take_a_tolerance():
    # a public function takes tol only if it decides a verdict at that tol;
    # everything else uses linalg.TOL
    takers = set()
    for name in ck.__all__:
        obj = getattr(ck, name)
        if inspect.isfunction(obj):
            members = [(name, obj)]
        elif inspect.isclass(obj):
            members = [(f"{name}.{attr}", m)
                       for attr, m in inspect.getmembers(obj, inspect.isfunction)
                       if not (attr.startswith("__") and attr.endswith("__"))]
        else:
            members = []
        takers.update(label for label, fn in members
                      if {"tol", "floor"} & set(inspect.signature(fn).parameters))
    assert takers == set(TOL_CHECKS)


def _module_functions() -> set[tuple[str, str]]:
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                found.add((path.stem, node.name))
    return found


def _module_constants() -> set[tuple[str, str]]:
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            found.update((path.stem, t.id) for t in targets
                         if isinstance(t, ast.Name) and t.id.isupper())
    return found


def _referenced_names() -> set[str]:
    names = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_module_level_function_is_referenced():
    referenced = _referenced_names()
    unused = sorted(f"{module}.{name}" for module, name in _module_functions()
                    if name not in referenced)
    assert unused == []


def test_the_only_tolerance_constants_are_the_default_and_the_scan_tolerance():
    tolerances = {(module, name) for module, name in _module_constants() if name.endswith("TOL")}
    assert tolerances == {("linalg", "TOL"), ("uniqueness", "FEASIBILITY_TOL")}


def test_every_module_level_constant_is_read():
    referenced = _referenced_names()
    unused = sorted(f"{module}.{name}" for module, name in _module_constants()
                    if name not in referenced)
    assert unused == []


LAYERS = ("errors", "certificate", "linalg", "choi", "certify", "extremal", "decompose",
          "uniqueness", "io", "cli")


def _package_imports(path: Path) -> set[str]:
    """Names imported relatively by a module: `from .m import x` gives m,
    `from . import a, b` gives a and b (the package's own names included)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else (a.name for a in node.names))
    return found


def test_each_module_imports_only_earlier_layers():
    # decompose owns the split and uniqueness scans around it, so the paper's
    # order is the import order; __init__ re-exports and is exempt
    modules = {path.stem: path for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    assert set(modules) == set(LAYERS)
    upward = sorted(f"{name} imports {dep}" for name, path in modules.items()
                    for dep in _package_imports(path)
                    if dep in modules and LAYERS.index(dep) >= LAYERS.index(name))
    assert upward == []
