"""Construction, exact-search, and certification workbench for multipartite
Turan problems: extremal constructions with exact edge-count postconditions,
witness-producing forbidden-subgraph detectors, exact Zarankiewicz and
multipartite Turan numbers at desk scale, and the stability-side structure
analysis.
"""

from .graphs import GraphInvariantError, PartitionedGraph, canonical_json
from .detectors import (Budget, BudgetExhausted, ForbiddenPattern, Witness,
                        find_biclique, find_complete_multipartite, find_pattern,
                        verify_witness)
from .constructions import (ConstructionError, ConstructionParams, Piece,
                            TemplateSpec, basic_construction, build_template,
                            chromatic_trivial_value, g_value,
                            improved_construction, regular_c4free_bipartite,
                            sidon_set, turan_count)
from .zarankiewicz import (ExInstance, OracleError, Record, ZarKey, gap_checks,
                           kst_upper, stack_e1_construction, z_exact,
                           z_lower_construction)
from .extremal import compare_with_g, ex_exact, verify_turan_identity
from .stability import (AnalysisParams, AtypicalDecomposition, ClosestTemplateResult,
                        CoreReport, classify_atypical, closest_template,
                        enumerate_templates, high_degree_core, min_degree_audit,
                        stable_partition_check, structure_report)
from .cache import ResultCache

__version__ = "0.1.0"
