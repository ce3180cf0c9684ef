"""``import hcmeta`` loads nothing beyond the standard library and numpy, and
no call of the library loads scipy; a read of an ``hcmeta`` name loads its
defining module alone; every name a module exports in ``__all__`` resolves."""
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# what hcmeta imports of its dependencies; they may load modules of their own
DEPENDENCIES = ("numpy",)

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
SAMPLER = ("import os\n"
           "from fractions import Fraction\n"
           "from hcmeta import (ModelParams, build_gate, build_kernel, build_network,\n"
           "                    enumerate_space, gate_statistics, ks_exponential_test,\n"
           "                    parse_graph_spec, sample_crossover)\n"
           "from hcmeta.cli import main\n"
           "from hcmeta.potential import green_by_visits\n"
           "g = parse_graph_spec('cycle:6')\n"
           "spc = enumerate_space(g)\n"
           "par = ModelParams.for_graph(g, 10.0, alpha=Fraction(7, 10))\n"
           "watch = build_gate(g, Fraction(7, 10)).transition_indices(spc)\n"
           "samples, _ = sample_crossover(build_kernel(spc, par), spc.u_state,\n"
           "                              [spc.v_state], 100, base_seed=1,\n"
           "                              gate_watch=watch, embed_clock=True)\n"
           "ks_exponential_test([s.t_hat for s in samples])\n"
           "gate_statistics(samples, watch)\n"
           "green_by_visits(build_network(spc, par), spc.u_state, [spc.v_state])\n"
           "assert main(['simulate', '--graph', 'cycle:6', '--alpha', '7/10',\n"
           "             '--lambda', '10', '--samples', '100', '--seed', '1',\n"
           "             '--ks-exponential', '--gate-watch', '-o', os.devnull,\n"
           "             '--summary', os.devnull]) in (0, 4)")


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


def _scipy(modules: set[str]) -> set[str]:
    """The scipy modules among ``modules``, by full name."""
    return {m for m in modules if m == "scipy" or m.startswith("scipy.")}


def test_import_loads_only_stdlib_numpy_and_scipy():
    allowed = _loaded_by("import " + ", ".join(DEPENDENCIES)) | {"hcmeta"}
    extra = {m for m in _loaded_by("import hcmeta") - allowed
             if m not in sys.stdlib_module_names}
    assert not extra, f"import hcmeta loads modules outside its dependencies: {extra}"


@pytest.mark.parametrize("module", ["hcmeta", "hcmeta.cli"])
def test_import_leaves_scipy_submodules_unloaded(module):
    assert not _scipy(_new_modules(f"import {module}"))


def test_solve_path_loads_no_scipy():
    # R, W, E[T] by both routes, the Green function and the escape
    # probabilities (all lumped: ladder:4 has 24 symmetries) and CLI hitting
    assert not _scipy(_new_modules(SOLVE))


def test_exact_exponent_layer_loads_no_scipy():
    assert not _scipy(_new_modules(EXACT))


def test_kernel_and_network_load_no_scipy():
    assert not _scipy(_new_modules(BUILD))


def test_critical_resistance_loads_no_scipy():
    # numeric Psi and CLI resistance (R, numeric and symbolic Psi)
    assert not _scipy(_new_modules(CRITICAL))


def test_sampler_statistics_load_no_scipy():
    # the crossover sampler, the KS and chi-square tests, the dense Green
    # route and CLI simulate with both tests on cycle:6
    assert not _scipy(_new_modules(SAMPLER))


def _hcmeta(modules: set[str]) -> set[str]:
    """The hcmeta submodules among ``modules``, by full name."""
    return {m for m in modules if m.startswith("hcmeta.")}


def test_bare_import_loads_no_layer():
    assert not _hcmeta(_new_modules("import hcmeta"))


def test_graph_spec_loads_the_graph_module_alone():
    loaded = _new_modules("import hcmeta\nhcmeta.parse_graph_spec('ladder:4')")
    assert _hcmeta(loaded) == {"hcmeta.graph"}


def test_cli_import_loads_no_command_layer():
    loaded = _new_modules("import hcmeta.cli")
    assert not loaded & {"hcmeta.dynamics", "hcmeta.potential", "hcmeta.metastability",
                         "hcmeta.isoperimetry", "hcmeta.stats", "hcmeta.verify"}


def test_sampler_path_loads_no_solver_layer():
    loaded = _new_modules(
        "from fractions import Fraction\n"
        "from hcmeta import (ModelParams, build_kernel, enumerate_space,\n"
        "                    ks_exponential_test, parse_graph_spec, sample_crossover)\n"
        "g = parse_graph_spec('cycle:6')\n"
        "spc = enumerate_space(g)\n"
        "par = ModelParams.for_graph(g, 10.0, alpha=Fraction(1, 2))\n"
        "samples, _ = sample_crossover(build_kernel(spc, par), spc.u_state,\n"
        "                              [spc.v_state], 100, base_seed=1)\n"
        "ks_exponential_test([s.t_hat for s in samples])")
    assert not loaded & {"hcmeta.potential", "hcmeta.metastability",
                         "hcmeta.isoperimetry"}


def test_exported_names_are_the_defining_objects_and_stored():
    # every name is the defining module's object, and only its first read
    # goes through the package's __getattr__
    _new_modules(
        "import importlib\n"
        "import hcmeta\n"
        "calls = []\n"
        "lazy = hcmeta.__getattr__\n"
        "hcmeta.__getattr__ = lambda name: calls.append(name) or lazy(name)\n"
        "for module, names in hcmeta._EXPORTS.items():\n"
        "    mod = importlib.import_module('hcmeta.' + module)\n"
        "    for name in names:\n"
        "        assert getattr(hcmeta, name) is getattr(mod, name), name\n"
        "        assert getattr(hcmeta, name) is getattr(mod, name), name\n"
        "assert calls == hcmeta.__all__, calls")


def test_unknown_name_raises_attribute_error_naming_it():
    import hcmeta
    with pytest.raises(AttributeError, match="no_such_name"):
        hcmeta.no_such_name  # noqa: B018


def test_submodule_resolves_after_a_bare_import_and_dir_lists_all():
    _new_modules("import hcmeta\n"
                 "assert hcmeta.potential.__name__ == 'hcmeta.potential'\n"
                 "assert set(hcmeta.__all__) <= set(dir(hcmeta))")


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
