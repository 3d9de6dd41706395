"""The package exports exactly the public names it has always exported,
and it needs nothing beyond the standard library."""

import ast
import importlib
import json
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


# Modules that importing goldenring.cli and one exactly spelled call never
# load.  tools/pymatrix.py reads this and COLD_IMPORT_CHECK with
# ast.literal_eval, to run the same check where pytest does not import.
COLD_UNLOADED = ("numpy", "dataclasses", "inspect", "argparse", "datetime", "typing")

# `python -S -c COLD_IMPORT_CHECK MODULE...` prints which of the modules are
# loaded after that call, then after `--help`; -S keeps site hooks (a .pth
# file can load typing) from loading any of them first
COLD_IMPORT_CHECK = """
import contextlib, io, json, sys
from goldenring.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["chi", "--d", "3", "--oracle", "--no-timestamp"])
    cold = [m for m in sys.argv[1:] if m in sys.modules]
    main(["--help"])
print(json.dumps({"cold": cold, "help": [m for m in sys.argv[1:] if m in sys.modules]}))
"""


def test_import_loads_no_numpy():
    # fresh interpreters: this test process may have numpy from elsewhere
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, goldenring; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
    # a cold exactly spelled call loads none of COLD_UNLOADED; help loads argparse
    out = subprocess.run([sys.executable, "-S", "-c", COLD_IMPORT_CHECK, *COLD_UNLOADED],
                         capture_output=True, text=True, check=True, env=env)
    loaded = json.loads(out.stdout)
    assert loaded["cold"] == [] and "argparse" in loaded["help"]


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


def _crowded_definitions(source):
    """(line, name) of each top-level def or class not preceded by two blank
    lines (pycodestyle E302).  The definition starts at its first decorator,
    and a comment block directly above it belongs to it."""
    lines = source.splitlines()
    crowded = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        start = min([node.lineno, *(d.lineno for d in node.decorator_list)]) - 1
        while start > 0 and lines[start - 1].lstrip().startswith("#"):
            start -= 1
        if start > 0 and lines[max(start - 2, 0):start] != ["", ""]:
            crowded.append((node.lineno, node.name))
    return crowded


def test_blank_line_check_flags_only_crowded_definitions():
    source = ("import os\n\n\ndef a():\n    pass\n\n@dec\ndef b():\n    pass\n\n\n"
              "# about c\nclass C:\n    pass\n\ndef d():\n    pass\nx = 1\n"
              "# about e\ndef e():\n    pass\n")
    assert _crowded_definitions(source) == [(8, "b"), (16, "d"), (20, "e")]


def test_every_top_level_definition_follows_two_blank_lines():
    crowded = {}
    for path in sorted((ROOT / "src" / "goldenring").glob("*.py")):
        if found := _crowded_definitions(path.read_text(encoding="utf-8")):
            crowded[path.name] = found
    assert crowded == {}


def _matrix_caches(source):
    """(line, name) of each function or method with a `matrix` parameter
    under a `cache` or `lru_cache` decorator, bare, called or dotted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = {a.arg for a in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)}
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name in ("cache", "lru_cache") and "matrix" in params:
                found.append((node.lineno, node.name))
    return sorted(found)


def test_matrix_cache_check_flags_only_cached_matrix_functions():
    source = ("from functools import cache, lru_cache\nimport functools\n"
              "@cache\ndef a(matrix, i):\n    pass\n"
              "@functools.lru_cache(maxsize=4)\ndef b(bound, *, matrix):\n    pass\n"
              "@cache\ndef c(slots, d):\n    pass\n"
              "def d(matrix):\n    pass\n"
              "class R:\n    @functools.cache\n    def e(self, matrix):\n        pass\n")
    assert _matrix_caches(source) == [(4, "a"), (7, "b"), (16, "e")]


def test_state_derived_from_a_matrix_lives_in_its_ring():
    # a cache keyed by a matrix outlives the matrix's use; that state lives
    # in ringalg's `_Ring`, of which one, for the latest matrix, is held.
    # `_block_keys`, which takes no matrix, stays cached
    found = {}
    for path in sorted((ROOT / "src" / "goldenring").glob("*.py")):
        if hits := _matrix_caches(path.read_text(encoding="utf-8")):
            found[path.name] = hits
    assert found == {}


def _version_bound_fractions(source):
    """(line, what) of each call that passes `_normalize` to `Fraction` and
    each use of `Fraction._from_coprime_ints`, bare or dotted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "Fraction" and any(k.arg == "_normalize" for k in node.keywords):
                found.append((node.lineno, "_normalize"))
        elif isinstance(node, ast.Attribute) and node.attr == "_from_coprime_ints":
            found.append((node.lineno, "_from_coprime_ints"))
    return sorted(found)


def test_version_bound_fraction_check_flags_both_spellings():
    source = ("import fractions\nfrom fractions import Fraction\n"
              "a = Fraction(1, 2, _normalize=False)\n"
              "b = fractions.Fraction(3, 4, _normalize=False)\n"
              "c = Fraction._from_coprime_ints(1, 2)\nmake = fractions.Fraction._from_coprime_ints\n"
              "d = Fraction(1, 2)\ne = f(_normalize=False)\n")
    assert _version_bound_fractions(source) == [
        (3, "_normalize"), (4, "_normalize"), (5, "_from_coprime_ints"),
        (6, "_from_coprime_ints")]


def test_no_module_builds_a_fraction_one_python_lacks():
    # Fraction's `_normalize` keyword is gone from 3.12, and
    # `Fraction._from_coprime_ints` is new in 3.12: code using either passes
    # on one side of the supported versions and fails on the other
    found = {}
    for path in sorted((ROOT / "src" / "goldenring").glob("*.py")):
        if hits := _version_bound_fractions(path.read_text(encoding="utf-8")):
            found[path.name] = hits
    assert found == {}


def _cli_refusals(source):
    """(the names ending in `_BOUND` that the source imports or reads, the
    line of each `raise BoundExceeded(...)`)."""
    bounds, raises = set(), []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            bounds |= {alias.name for alias in node.names if alias.name.endswith("_BOUND")}
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name.endswith("_BOUND"):
                bounds.add(name)
        elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            if getattr(node.exc.func, "id", None) == "BoundExceeded":
                raises.append(node.lineno)
    return sorted(bounds), raises


def test_cli_refusal_check_flags_bounds_and_their_raises():
    source = ("from .quads import CHI_DEGREE_BOUND, classify\nfrom . import sequences\n"
              "def f(d):\n    if d > sequences.SEED_BOUND:\n"
              "        raise BoundExceeded(f'{d}')\n    raise ValueError('x')\n")
    assert _cli_refusals(source) == (["CHI_DEGREE_BOUND", "SEED_BOUND"], [5])


def test_cli_leaves_every_library_bound_to_the_library():
    # each resource bound is refused by the library function that does the
    # work; the CLI reads none of them and refuses one bound of its own, the
    # size of a `seq --load` file
    source = (ROOT / "src" / "goldenring" / "cli.py").read_text(encoding="utf-8")
    bounds, raises = _cli_refusals(source)
    assert bounds == []
    assert len(raises) == 1
    assert "_LOAD_BYTES" in source.splitlines()[raises[0] - 1]


def _callers(source):
    """{name: the top-level definitions that read it}, over the names that
    the source's top-level definitions read."""
    callers = {}
    for top in ast.parse(source).body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    callers.setdefault(node.id, set()).add(top.name)
    return callers


def test_caller_check_flags_a_second_caller():
    source = ("def one(d):\n    return walk(d)\n"
              "def twin(d1, d2):\n    step = walk\n    return [step(d1), helper(d2)]\n")
    callers = _callers(source)
    assert callers["walk"] == {"one", "twin"}
    assert callers["helper"] == {"twin"}


def test_quads_keeps_one_enumeration_one_census_and_one_walk():
    # a degree and a bi-degree bound share each of them, so a second grading
    # path would be a second caller
    callers = _callers((ROOT / "src" / "goldenring" / "quads.py").read_text(encoding="utf-8"))
    assert callers["_nonnegative"] == {"_element_pairs"}
    assert callers["_census"] == {"_census_sizes"}
    assert callers["expand_quad"] == {"_maximal_quad", "quads_for_value"}


def test_pymatrix_lists_the_interpreters_and_starts_none(tmp_path):
    # a pyenv root whose interpreters would leave a file if started
    started = tmp_path / "started"
    for name, exe in [("3.9.18", "python3.9"), ("3.10.13", "python3.10"), ("3.11.7", None),
                      ("3.12.1", "python3.12"), ("pypy3.10-7.3.12", None)]:
        bin_dir = tmp_path / "versions" / name / "bin"
        bin_dir.mkdir(parents=True)
        if exe:
            (bin_dir / exe).write_text(f"#!/bin/sh\ntouch {started}\n")
            (bin_dir / exe).chmod(0o755)

    def listed(*extra):
        script = ROOT / "tools" / "pymatrix.py"
        done = subprocess.run([sys.executable, str(script), "--list", *extra],
                              capture_output=True, text=True, check=True)
        lines = done.stdout.splitlines()
        assert all(re.fullmatch(r"\d+\.\d+\.\d+\t\S+\t(check|skip: .+)", line) for line in lines)
        return [line.split("\t") for line in lines]

    listed()  # this machine's pyenv root, if any: the format only
    versions = tmp_path / "versions"
    assert listed("--pyenv-root", str(tmp_path)) == [
        ["3.9.18", str(versions / "3.9.18/bin/python3.9"), "skip: below requires-python >=3.10"],
        ["3.10.13", str(versions / "3.10.13/bin/python3.10"), "check"],
        ["3.11.7", str(versions / "3.11.7/bin/python3.11"), "skip: no interpreter"],
        ["3.12.1", str(versions / "3.12.1/bin/python3.12"), "check"],
    ]
    assert not started.exists()


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
