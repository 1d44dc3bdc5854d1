"""The names gnpmod exports: adding or removing one is a deliberate edit
here.  The package's one version string is the one pyproject.toml declares."""

import pathlib

import pytest

import gnpmod

PUBLIC_API = [
    "AppendixReport", "Bisection", "BoundReport", "CapExceeded", "ConstantAudit",
    "EdgeCounts", "ErrorDecomposition", "EventCheckResult", "Graph",
    "ModularityResult", "Partition", "SpectrumResult", "SupremumResult",
    "ValidationError", "asymptotic_constants", "bisection",
    "bisection_modularity_certificate", "bound_report", "bounds",
    "check_lemma32_events_exhaustive", "check_lemma32_events_sampled",
    "chernoff_lower", "chernoff_upper", "component_roots", "concentration",
    "degree", "edge_counts", "error_decomposition", "errors",
    "exact_min_bisection", "exact_modularity", "f", "g", "generator", "graph",
    "h1", "h2", "h3", "heuristic_modularity", "local_search_bisection",
    "modularity", "normalized_laplacian", "phi", "read_edge_list",
    "read_partition", "rng", "sample_gnp", "score_components",
    "score_definition", "score_edge_form", "spectral", "spectral_gap",
    "supremum_check", "trace", "trial_seed", "verify_appendix",
    "write_edge_list", "write_partition",
]


def test_public_api_is_pinned():
    assert sorted(gnpmod.__all__) == PUBLIC_API


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert gnpmod.__version__ == tomllib.load(fh)["project"]["version"]
