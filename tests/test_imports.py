"""``import hcmeta`` loads nothing beyond the standard library, numpy and scipy,
and the scipy submodules only at the first call that needs them; every name
a module exports in ``__all__`` resolves."""
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# what hcmeta imports of its dependencies; they may load modules of their own
DEPENDENCIES = ("numpy", "scipy.sparse", "scipy.sparse.linalg", "scipy.linalg",
                "scipy.stats")
# loaded inside the functions that use them, never by an import of hcmeta
LAZY = ("scipy.stats", "scipy.sparse", "scipy.linalg")

SOLVE = ("import os\n"
         "from fractions import Fraction\n"
         "from hcmeta import (ModelParams, build_network, effective_resistance,\n"
         "                    enumerate_space, escape_probability,\n"
         "                    expected_hitting_time, green_function, parse_graph_spec,\n"
         "                    voltage)\n"
         "from hcmeta.cli import main\n"
         "g = parse_graph_spec('ladder:4')\n"
         "spc = enumerate_space(g)\n"
         "par = ModelParams.for_graph(g, 10.0, alpha=Fraction(1, 2))\n"
         "net = build_network(spc, par)\n"
         "u, v = spc.u_state, spc.v_state\n"
         "voltage(net, [u], [v])\n"
         "effective_resistance(net, [u], [v])\n"
         "expected_hitting_time(net, u, [v])\n"
         "green_function(net, u, [v])\n"
         "escape_probability(net, u, [v])\n"
         "assert main(['hitting', '--graph', 'ladder:4', '--lambda', '100',\n"
         "             '--alpha', '1/2', '-o', os.devnull]) == 0")
EXACT = ("from fractions import Fraction\n"
         "from hcmeta import (build_gate, enumerate_space, no_trap_certificate,\n"
         "                    parse_graph_spec, psi_symbolic)\n"
         "spc = enumerate_space(parse_graph_spec('ladder:4'))\n"
         "psi_symbolic(spc, [spc.u_state], [spc.v_state], Fraction(1, 2))\n"
         "no_trap_certificate(spc, Fraction(2, 5))\n"
         "build_gate(parse_graph_spec('torus:6x6'), Fraction(7, 10))")
BUILD = ("from fractions import Fraction\n"
         "from hcmeta import (ModelParams, build_kernel, build_network,\n"
         "                    enumerate_space, parse_graph_spec)\n"
         "g = parse_graph_spec('ladder:4')\n"
         "spc = enumerate_space(g)\n"
         "par = ModelParams.for_graph(g, 10.0, alpha=Fraction(1, 2))\n"
         "net = build_network(spc, par, build_kernel(spc, par))")
CRITICAL = (BUILD + "\nimport os\n"
            "from hcmeta import critical_resistance\n"
            "from hcmeta.cli import main\n"
            "critical_resistance(net, [spc.u_state], [spc.v_state])\n"
            "assert main(['resistance', '--graph', 'ladder:4', '--lambda', '100',\n"
            "             '--alpha', '1/2', '-o', os.devnull]) == 0")
KS = ("from hcmeta import ks_exponential_test\n"
      "ks_exponential_test([0.5 + i / 100 for i in range(100)])")


def _new_modules(statement: str) -> set[str]:
    """Full names of the modules that ``statement`` adds to sys.modules in a
    fresh interpreter."""
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            f"{statement}\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def _loaded_by(statement: str) -> set[str]:
    """Top-level names of the modules that ``statement`` adds to sys.modules
    in a fresh interpreter."""
    return {m.split(".")[0] for m in _new_modules(statement)}


def _lazy_loaded(modules: set[str]) -> set[str]:
    """The packages in LAZY that ``modules`` holds, by full name or by a submodule."""
    return {p for p in LAZY if any(m == p or m.startswith(p + ".") for m in modules)}


def test_import_loads_only_stdlib_numpy_and_scipy():
    allowed = _loaded_by("import " + ", ".join(DEPENDENCIES)) | {"hcmeta"}
    extra = {m for m in _loaded_by("import hcmeta") - allowed
             if m not in sys.stdlib_module_names}
    assert not extra, f"import hcmeta loads modules outside its dependencies: {extra}"


@pytest.mark.parametrize("module", ["hcmeta", "hcmeta.cli"])
def test_import_leaves_scipy_submodules_unloaded(module):
    assert not _lazy_loaded(_new_modules(f"import {module}"))


def test_solve_path_loads_no_scipy():
    # R, W, E[T] by both routes, the Green function and the escape
    # probabilities (all lumped: ladder:4 has 24 symmetries) and CLI hitting
    loaded = _new_modules(SOLVE)
    assert not {m for m in loaded if m == "scipy" or m.startswith("scipy.")}


def test_exact_exponent_layer_loads_no_scipy():
    loaded = _new_modules(EXACT)
    assert not {m for m in loaded if m == "scipy" or m.startswith("scipy.")}


def test_kernel_and_network_load_no_scipy():
    loaded = _new_modules(BUILD)
    assert not {m for m in loaded if m == "scipy" or m.startswith("scipy.")}


def test_critical_resistance_loads_no_scipy():
    # numeric Psi and CLI resistance (R, numeric and symbolic Psi)
    loaded = _new_modules(CRITICAL)
    assert not {m for m in loaded if m == "scipy" or m.startswith("scipy.")}


def test_ks_test_loads_scipy_stats():
    assert "scipy.stats" in _lazy_loaded(_new_modules(KS))


def _modules_with_all() -> list[str]:
    import hcmeta
    names = ["hcmeta"] + [f"hcmeta.{m.name}" for m in pkgutil.iter_modules(hcmeta.__path__)]
    return [n for n in names if hasattr(importlib.import_module(n), "__all__")]


@pytest.mark.parametrize("module", _modules_with_all())
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert not [name for name in mod.__all__ if not hasattr(mod, name)]


def test_star_import_runs_in_a_fresh_interpreter():
    _new_modules("from hcmeta import *")
