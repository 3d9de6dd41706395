"""The package exports exactly the public names it has always exported,
and it needs nothing beyond the standard library."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import goldenring

ROOT = Path(__file__).resolve().parents[1]

EXPORTED = {
    "basis_family",
    "basis_monomial",
    "BasisMonomial",
    "BasisReport",
    "BiDegree",
    "BoundExceeded",
    "brute_force_sizes",
    "brute_force_sizes_bi",
    "canonical_quad",
    "check_basis_rank",
    "classify",
    "contract_quad",
    "coordinate_polys",
    "DimensionReport",
    "elements_up_to_bidegree",
    "elements_up_to_degree",
    "evaluation_ideal",
    "expand_quad",
    "fib",
    "find_seeds",
    "generate_system",
    "golden_power",
    "GoldenInt",
    "GoldenRational",
    "growth_constant_enclosure",
    "growth_dimension",
    "hilbert_bi",
    "hilbert_bi_closed",
    "hilbert_total",
    "hilbert_total_closed",
    "leading_form",
    "LeadingForm",
    "max_size_for_bidegree",
    "max_size_for_degree",
    "maximal_quad_for_bidegree",
    "maximal_quad_for_degree",
    "monomials_of_degree",
    "MPoly",
    "PartitionClass",
    "Quad",
    "quads_for_value",
    "quads_with_bidegree",
    "quotient_coordinates",
    "ratio_limit_enclosure",
    "RationalInterval",
    "ReducedElement",
    "scaling_report",
    "ScalingReport",
    "ScalingRow",
    "Seed",
    "size_class_count",
    "size_class_count_bi",
    "size_class_profile",
    "size_class_profile_bi",
    "sizes_to_profile",
    "sqrt5_bounds",
    "sqrt_interval",
    "symmetry_defect",
    "symmetry_defect_poly",
    "SymTriple",
    "three_halves_interval",
    "TransitionMatrix",
    "TripleSystem",
    "VARS_BASE",
    "VerificationError",
    "VerificationReport",
    "verify_system",
}


def test_exported_names_are_stable():
    assert set(goldenring.__all__) == EXPORTED
    assert len(goldenring.__all__) == len(EXPORTED)
    assert all(hasattr(goldenring, name) for name in EXPORTED)


def test_import_loads_no_numpy():
    # a fresh interpreter: this test process may have numpy from elsewhere
    code = "import sys, goldenring; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.stdout.strip() == "False"


def test_no_runtime_dependencies():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with (ROOT / "pyproject.toml").open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project.get("dependencies", []) == []


def _unused_imports(source, exported):
    """Names bound by a module-level import that occur nowhere else in the
    module's source and are not among its exported names."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(exported)
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_import_check_flags_only_unused_names():
    source = ("from __future__ import annotations\nimport os, sys as system\n"
              "from a.b import c, d as e\nimport x.y\nsystem.exit(x)\n")
    assert _unused_imports(source, ["c"]) == [(2, "os"), (3, "e")]


def test_no_module_has_an_unused_import():
    # `__all__` is read from the imported module: the package computes its own
    unused = {}
    for path in sorted((ROOT / "src" / "goldenring").glob("*.py")):
        name = "goldenring" if path.stem == "__init__" else f"goldenring.{path.stem}"
        exported = getattr(importlib.import_module(name), "__all__", ())
        if found := _unused_imports(path.read_text(encoding="utf-8"), exported):
            unused[path.name] = found
    assert unused == {}


def test_workflow_leaves_the_cli_checks_to_tier1():
    # Tier-1 is the one home of the CLI checks: the workflow smoke-tests the
    # installed script with at most three calls, and only the benchmark steps
    # run a Python snippet (to read the benchmark's summary)
    workflow = ROOT / ".github" / "workflows" / "tier1.yml"
    if not workflow.exists():
        pytest.skip("no workflow file in this checkout")
    calls, snippets, step = [], [], ""
    for line in workflow.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("#"):
            continue
        if name := re.match(r"\s*- name: (.*)", line):
            step = name[1]
        if re.search(r"\bgoldenring\s", line):
            calls.append(line.strip())
        if "python -c" in line and not step.startswith("Benchmark"):
            snippets.append(line.strip())
    assert len(calls) <= 3, calls
    assert snippets == []
