"""Modularity of binomial random graphs G(n,p): scoring and
maximization, spectral gap, concentration-event checks, balanced
bisection, and closed-form bound calculators."""

from .bisection import (Bisection, ErrorDecomposition,
                        bisection_modularity_certificate, error_decomposition,
                        exact_min_bisection, local_search_bisection)
from .bounds import (BoundReport, ConstantAudit, SupremumResult,
                     asymptotic_constants, bound_report, supremum_check)
from .concentration import (AppendixReport, EventCheckResult,
                            check_lemma32_events_exhaustive,
                            check_lemma32_events_sampled, chernoff_lower,
                            chernoff_upper, f, g, h1, h2, h3, phi,
                            verify_appendix)
from .errors import CapExceeded, ValidationError
from .graph import (EdgeCounts, Graph, component_roots, degree, edge_counts,
                    read_edge_list, sample_gnp, write_edge_list)
from .modularity import (ModularityResult, Partition, exact_modularity,
                         heuristic_modularity, read_partition,
                         score_components, score_definition, score_edge_form,
                         write_partition)
from .rng import generator, trial_seed
from .spectral import SpectrumResult, normalized_laplacian, spectral_gap

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.2.0"
