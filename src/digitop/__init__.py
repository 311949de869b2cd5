"""digitop: an exact desk-scale workbench for digital topology.

Build finite digital images, construct their hyperspaces and function
graphs, decide continuity, homotopy and contractibility, classify
multivalued functions, and compute exact graph metrics.
"""

from .errors import BudgetError
from .lattice import (AdjacencyKind, DigitalImage, LatticePath, Point,
                      adjacent_or_equal, concatenate, cu_adjacent, cycle_image,
                      cycle_points, image_from_json, image_to_json, interval,
                      is_connected, neighbors)
from .hyperspace import (SubsetFamily, enumerate_all_subsets,
                         enumerate_connected_subsets, family_from_json, family_of,
                         family_to_json, hausdorff_distance, hyper_adjacent,
                         hyperspace_graph, interval_triangle_iso, triangle_image,
                         union_of_family)
from .functions import (FiniteFunction, compose, constant_map, find_inducing_map,
                        function_from_json, function_to_json, identity_map,
                        induced_map, is_continuous, is_isomorphism, is_retraction)
from .homotopy import (FunctionGraph, HomotopyDecision, HomotopyTable,
                       build_function_graph, enumerate_continuous_maps,
                       homotopic, homotopy_from_json, homotopy_to_json,
                       is_contractible, lift_homotopy_to_hyperspace,
                       phi_adjacent, pointed_homotopic, postcompose_map,
                       psi_adjacent, strongly_homotopic, verify_homotopy)
from .multivalued import (EgsResult, MultiFunction, Subdivision,
                          as_multifunction, generates, has_strong_continuity,
                          has_weak_continuity, induced_multifunction_map,
                          is_connectivity_preserving, is_egs_continuous,
                          multifunction_from_json, multifunction_to_json,
                          subdivide)
from .graphmetrics import (CycleWitness, FiniteGraph, as_finite_graph, center,
                           connected_components, diameter, disconnects,
                           eccentricity, girth, induced_subgraph, is_connected_graph,
                           is_dominating, is_valid_cycle, lift_dominating,
                           longest_cycle, metrics_csv, minimum_dominating_set,
                           radius, to_dot)

__version__ = "0.1.0"

__all__ = [
    "AdjacencyKind", "BudgetError", "CycleWitness", "DigitalImage", "EgsResult",
    "FiniteFunction", "FiniteGraph", "FunctionGraph",
    "HomotopyDecision", "HomotopyTable", "LatticePath",
    "MultiFunction", "Point", "SubsetFamily", "Subdivision",
    "adjacent_or_equal", "as_finite_graph", "as_multifunction",
    "build_function_graph", "center", "compose", "concatenate",
    "connected_components", "constant_map", "cu_adjacent", "cycle_image",
    "cycle_points", "diameter", "disconnects", "eccentricity",
    "enumerate_all_subsets", "enumerate_connected_subsets",
    "enumerate_continuous_maps", "family_from_json", "family_of", "family_to_json",
    "find_inducing_map", "function_from_json", "function_to_json", "generates",
    "girth", "has_strong_continuity", "has_weak_continuity", "hausdorff_distance",
    "homotopic", "homotopy_from_json", "homotopy_to_json", "hyper_adjacent",
    "hyperspace_graph", "identity_map", "image_from_json", "image_to_json",
    "induced_map", "induced_multifunction_map", "induced_subgraph", "interval",
    "interval_triangle_iso", "is_connected", "is_connected_graph",
    "is_connectivity_preserving", "is_continuous", "is_contractible",
    "is_dominating", "is_egs_continuous",
    "is_isomorphism", "is_retraction", "is_valid_cycle", "lift_dominating",
    "lift_homotopy_to_hyperspace", "longest_cycle", "metrics_csv",
    "minimum_dominating_set", "multifunction_from_json", "multifunction_to_json",
    "neighbors", "phi_adjacent", "pointed_homotopic", "postcompose_map",
    "psi_adjacent", "radius",
    "strongly_homotopic", "subdivide", "to_dot", "triangle_image",
    "union_of_family", "verify_homotopy",
]
