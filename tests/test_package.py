"""The package exports exactly the public names it has always exported,
and it needs nothing beyond the standard library."""

import os
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
