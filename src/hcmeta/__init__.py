"""Hard-core dynamics on bipartite graphs: metastability analysis toolkit."""

from .asymptotics import AsymptoticExponent, OrderTie, parse_fraction
from .configspace import (CapExceeded, ConfigurationSpace, ModelParams,
                          config_cost, count_independent_sets, enumerate_space,
                          height, join, leq, meet)
from .dynamics import (HittingSample, TransitionKernel, build_kernel,
                       continuous_mean, coupled_simulate, sample_crossover,
                       simulate_hit)
from .graph import (BipartiteGraph, GeneralGraph, GraphValidationError,
                    automorphism_generators, build_family, double_graph,
                    graphs_isomorphic, neighborhood, parse_graph_spec, validate)
from .isoperimetry import (IsoperimetricProfile, brute_force_profile,
                           closed_form_profile, doubled_torus_delta,
                           harper_numbering, hypercube_delta, set_cost,
                           spiral_numbering, torus_delta)
from .metastability import (CriticalAnalysis, CriticalGate, build_gate,
                            check_hypotheses, critical_analysis,
                            crossover_prediction, dominance_sets,
                            gate_statistics, no_trap_certificate)
from .potential import (ElectricNetwork, build_network, critical_resistance,
                        effective_resistance, escape_probability,
                        expected_hitting_time, green_function,
                        nash_williams_bounds, psi_symbolic, voltage,
                        voltage_bound_check)
from .stats import StatReport, ks_exponential_test

__all__ = [
    "AsymptoticExponent", "OrderTie", "parse_fraction",
    "CapExceeded", "ConfigurationSpace", "ModelParams", "config_cost",
    "count_independent_sets", "enumerate_space", "height", "join", "leq", "meet",
    "HittingSample", "TransitionKernel", "build_kernel", "continuous_mean",
    "coupled_simulate", "sample_crossover", "simulate_hit",
    "BipartiteGraph", "GeneralGraph", "GraphValidationError",
    "automorphism_generators", "build_family", "double_graph",
    "graphs_isomorphic", "neighborhood", "parse_graph_spec", "validate",
    "IsoperimetricProfile", "brute_force_profile", "closed_form_profile",
    "doubled_torus_delta", "harper_numbering", "hypercube_delta", "set_cost",
    "spiral_numbering", "torus_delta",
    "CriticalAnalysis", "CriticalGate", "build_gate", "check_hypotheses",
    "critical_analysis", "crossover_prediction", "dominance_sets",
    "gate_statistics", "no_trap_certificate",
    "ElectricNetwork", "build_network", "critical_resistance",
    "effective_resistance", "escape_probability", "expected_hitting_time",
    "green_function", "nash_williams_bounds", "psi_symbolic", "voltage",
    "voltage_bound_check",
    "StatReport", "ks_exponential_test",
]

__version__ = "0.1.0"
