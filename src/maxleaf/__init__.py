"""Maximum-leaf spanning trees: linear-time greedy solver with a per-run
quality certificate, plus two exact oracles for desk-scale graphs.

The package attribute ``generate`` is the function, and it shadows the
submodule of the same name: ``import maxleaf.generate as gen`` binds the
function. Reach the module with ``from maxleaf.generate import ...`` or
``importlib.import_module("maxleaf.generate")``.
"""

from .certificate import (Certificate, CertificateError, LemmaReport, RankForest,
                          assign_ranks, audit, build_forest, certify, check_lemmas,
                          compute_certificate)
from .generate import FAMILIES, InfeasibleSpecError, InstanceSpec, generate
from .graph import (Graph, GraphFormatError, is_connected, parse, serialize,
                    to_dot)
from .oracle import (CompareResult, OracleDisagreementError, OracleResult,
                     compare, leaf_budget_bound, max_leaf_cds, max_leaf_exact)
from .solver import (DisconnectedGraphError, ExpansionStep, ExpansionTrace,
                     SpanningTree, StartPolicy, TreeCheck, leaf_count,
                     pick_start, tree, verify_spanning_tree)
from .tightness import TightInstance, TightSearchResult, tight_search

__all__ = [
    "Certificate", "CertificateError", "LemmaReport", "RankForest",
    "assign_ranks", "audit", "build_forest", "certify", "check_lemmas",
    "compute_certificate",
    "FAMILIES", "InfeasibleSpecError", "InstanceSpec", "generate",
    "Graph", "GraphFormatError", "is_connected", "parse", "serialize", "to_dot",
    "CompareResult", "OracleDisagreementError", "OracleResult", "compare",
    "leaf_budget_bound", "max_leaf_cds", "max_leaf_exact",
    "DisconnectedGraphError", "ExpansionStep", "ExpansionTrace",
    "SpanningTree", "StartPolicy", "TreeCheck", "leaf_count", "pick_start",
    "tree", "verify_spanning_tree",
    "TightInstance", "TightSearchResult", "tight_search",
]

__version__ = "0.1.0"
