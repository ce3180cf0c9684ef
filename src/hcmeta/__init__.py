"""Hard-core dynamics on bipartite graphs: metastability analysis toolkit.

The names in ``__all__`` are loaded on first read (PEP 562): ``import
hcmeta`` runs no layer module, and ``hcmeta.parse_graph_spec`` imports
``hcmeta.graph`` alone.  A name read once is stored here, so later reads are
plain lookups.  Submodules resolve the same way (``hcmeta.potential``).
"""
import importlib
import importlib.util

# defining module -> the names it exports here
_EXPORTS = {
    "asymptotics": ("AsymptoticExponent", "OrderTie", "parse_fraction"),
    "configspace": ("CapExceeded", "ConfigurationSpace", "ModelParams", "config_cost",
                    "count_independent_sets", "enumerate_space", "height", "join",
                    "leq", "meet"),
    "dynamics": ("HittingSample", "TransitionKernel", "build_kernel", "continuous_mean",
                 "coupled_simulate", "sample_crossover", "simulate_hit"),
    "graph": ("BipartiteGraph", "GeneralGraph", "GraphValidationError",
              "automorphism_generators", "build_family", "double_graph",
              "graphs_isomorphic", "neighborhood", "parse_graph_spec", "validate"),
    "isoperimetry": ("IsoperimetricProfile", "brute_force_profile",
                     "closed_form_profile", "doubled_torus_delta", "harper_numbering",
                     "hypercube_delta", "set_cost", "spiral_numbering", "torus_delta"),
    "metastability": ("CriticalAnalysis", "CriticalGate", "build_gate",
                      "check_hypotheses", "critical_analysis", "crossover_prediction",
                      "dominance_sets", "gate_statistics", "no_trap_certificate"),
    "potential": ("ElectricNetwork", "build_network", "critical_resistance",
                  "effective_resistance", "escape_probability", "expected_hitting_time",
                  "green_function", "nash_williams_bounds", "psi_symbolic", "voltage",
                  "voltage_bound_check"),
    "stats": ("StatReport", "ks_exponential_test"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
        globals()[name] = value
        return value
    # importing a submodule binds it here, so this runs once per submodule
    if name.isidentifier() and importlib.util.find_spec(f"{__name__}.{name}"):
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
