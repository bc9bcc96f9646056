"""Twin-width engineering toolkit.

Trigraphs and contraction sequences, exact small-scale oracles,
modular decomposition, twin-width 0/1 recognition, Dominating Set
hardness gadgetry with replayable witnesses, vertex cover kernels,
and dynamic programming along bounded-red-component sequences.
"""

from .trigraph import Graph, InternalError, Trigraph, contract, is_module, quotient
from .sequence import (ContractionSequence, WidthReport, final_trigraph,
                       replay, verify)
from .modular import maximal_modular_partition, trace_classes
from .oracle import (CapacitatedGraph, exact_twinwidth, twinwidth_at_most,
                     min_dominating_set, all_min_dominating_sets,
                     dominating_transversal,
                     min_connected_vertex_cover, min_capacitated_vc)
from .recognize import RecognitionResult, recognize_tww0, recognize_tww1
from .kernel import (KernelInstance, cvc_kernel_quadratic,
                     cvc_kernel_improved, capvc_kernel)
from .gadgets import (LayoutClause, LayoutFormula, AnnotatedInstance,
                      snaking_grid, augmented_snaking_grid, hamiltonian_cycle,
                      halfgraph_cycle, grid_subdivision_collapse,
                      reduce_3sat, lift_assignment,
                      variable_wire, validate_instance)
from .compose import ComposedInstance, make_dummy, or_cross_compose
from .dpsolve import check_component_bound, min_ds_dp, min_vc_dp

__all__ = [
    "Graph", "InternalError", "Trigraph", "contract", "is_module", "quotient",
    "ContractionSequence", "WidthReport", "final_trigraph", "replay",
    "verify",
    "maximal_modular_partition", "trace_classes",
    "CapacitatedGraph", "exact_twinwidth", "twinwidth_at_most",
    "min_dominating_set", "all_min_dominating_sets", "dominating_transversal",
    "min_connected_vertex_cover", "min_capacitated_vc",
    "RecognitionResult", "recognize_tww0", "recognize_tww1",
    "KernelInstance", "cvc_kernel_quadratic", "cvc_kernel_improved",
    "capvc_kernel",
    "LayoutClause", "LayoutFormula", "AnnotatedInstance", "snaking_grid",
    "augmented_snaking_grid", "hamiltonian_cycle", "halfgraph_cycle",
    "grid_subdivision_collapse", "reduce_3sat",
    "lift_assignment", "variable_wire", "validate_instance",
    "ComposedInstance", "make_dummy", "or_cross_compose",
    "check_component_bound", "min_ds_dp", "min_vc_dp",
]
