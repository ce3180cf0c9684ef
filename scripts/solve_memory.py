"""Time and peak memory of the solve path and of numeric Psi at the size wall.

    python3 scripts/solve_memory.py [--output BENCH_solve_memory.json] [SPEC ...]

With no SPEC, each of ``INSTANCES`` runs three times, each time in a fresh
process started from this checkout's ``src``: enumerate and build the
network at lambda = 100 and alpha = 1/2, then either ``voltage(u, v)`` and
``expected_hitting_time(u, {v})``, one call each, or
``critical_resistance(u, {v})`` alone; or, with no network, the
exact-exponent layer at alpha = 1/2: build the ``BottleneckTree``, then
``psi_symbolic(u, J(u))`` and ``no_trap_certificate``, one call each.  The
JSON output lists, per instance, the states, the orbits of the lumped
voltage solve and of the E[T] solve, per timed call its seconds
(``<call>_s``), minor page faults (``<call>_minflt``, the ``ru_minflt``
delta) and system seconds (``<call>_sys_s``, the ``ru_stime`` delta), each
process's peak RSS right after the build of the network or of the tree
(``build_peak_rss_mb``) and at its end, E_u[T_v] in steps by both routes
(each with its exact ``float.hex``), the gap between the two E[T] routes,
Psi(u, v) (with its ``float.hex``) with its bottleneck edge, the no-trap
status and count of checked states, and the first 16 hex digits of the
SHA-256 of the tree's escape levels and of the ``psi_symbolic`` witness
path, each as int64 bytes: equal digests from two checkouts mean equal
escape levels and an equal witness.  Under ``gates`` it lists
``build_gate`` on each of ``GATE_INSTANCES``, once, in a fresh process: its
seconds, faults and system seconds, the process's peak RSS, and the gate
count.  Under ``profiles`` it lists ``brute_force_profile`` over the whole
V part of each of ``PROFILE_INSTANCES``, once, in a fresh process: its
seconds, the byte estimate it checks against the available memory
(``estimate_bytes``, with ``available_bytes``), the process's peak RSS
before and after the call, and the estimate over the peak's growth
(``estimate_over_growth``).  A refused profile (hypercube:6's 11.2 GB
estimate on a smaller machine) records the refusal instead, and its peak
shows that nothing was allocated.  Under ``profile_calls`` it lists, from
one fresh process, the median and minimum seconds of repeated
``brute_force_profile`` calls on the graph of ``PROFILE_CALLS``, per s_max
and per witness cap (``WITNESS_CAP``, and 0: no witness tuples).  Under
``wells`` it lists the bounce-window tables of the kernel of each of
``WELL_INSTANCES`` at lambda = 100, once, in a fresh process: the kernel's
CSR arrays, running sums and walker lists are built first, then
``TransitionKernel._wells`` alone runs under ``tracemalloc``, which records
its seconds, its peak bytes (``tracemalloc_peak_bytes``) and the bytes it
still holds once it returns (``held_bytes``), beside the kernel's entries
and the wells found.  With SPECs (graph specs such as ``path:19``), only
their solve rows run, one fresh process each, and no gate, profile or
well row.

    python3 scripts/solve_memory.py --imports [--output BENCH_imports.json]

times instead what each entry point of ``IMPORT_PATHS`` loads: a bare
``import hcmeta``, a graph parse, the sampler path, the solve path and
``import hcmeta.cli``, each ``IMPORT_ROUNDS`` times in a fresh process,
rounds interleaved.  Under ``imports`` it lists per entry point the seconds
of each round (from just before the first import to the end of the path)
and the sorted ``hcmeta`` modules it loaded.  ``bytecode_cache`` says
whether ``src/hcmeta/__pycache__`` existed when the run began: without it
(and with ``PYTHONDONTWRITEBYTECODE`` set) every process compiles what it
imports.

    python3 scripts/solve_memory.py --sampler [--output BENCH_sampler.json]

runs instead each of ``SAMPLER_INSTANCES`` once, in a fresh process: one
``sample_crossover`` call from u to v, timed from the call to its return
(the kernel's tables are built inside it).  Under ``sampler`` it lists per
instance the samples, the transitions they made, the seconds, transitions
per second, the timeouts, and the SHA-256 of the samples' JSON lines as
``hcmeta simulate`` writes them.  Equal digests from two checkouts mean equal
samples.  The transitions are counted in a second, untimed pass that watches
every edge of the kernel, so that each transition is a gate event; each
reads two uniforms (``uniforms_read``).  A third, untimed pass repeats the
timed call with ``hcmeta.dynamics._bounce`` and ``_Uniforms.chunk`` wrapped
(the second pass's watch closes every well) and counts the bounce windows
(``windows``) and the uniforms drawn (``uniforms_drawn``).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# path:19 (5,545 orbits, a dense tail of L = 2,914) is the row its dense
# elimination tail dominates
INSTANCES = ("ladder:12", "torus:4x6", "path:19", "torus:4x8")
# the paper's example, and a doubled torus whose gate walk runs at kappa = 3
GATE_INSTANCES = {"torus:6x6": "7/10", "doubled(torus:10x10)": "3/10"}
# whole-V profiles: two lattices past the lattice formula's window, a graph
# whose every set is optimal (the witness tuples dominate), and one refused
PROFILE_INSTANCES = ("torus:6x8", "doubled(torus:5x5)", "complete:3x22", "hypercube:6")
# repeated profiles of the paper's example: up to the benchmark's s = 6 and
# up to s-tilde = 9 at alpha = 1/2, with witness tuples and without
PROFILE_CALLS = {"graph": "torus:6x6", "s_max": (6, 9), "calls": 60}
# kernels whose bounce-window tables are measured, with their alpha
WELL_INSTANCES = {"ladder:12": "7/10", "torus:4x8": "7/10"}
LAMBDA = 100.0
# entry point -> the code a fresh process times
IMPORT_PATHS = {
    "bare": "import hcmeta",
    "graph": "import hcmeta\nhcmeta.parse_graph_spec('ladder:12')",
    "sampler": ("from fractions import Fraction\n"
                "from hcmeta import (ModelParams, build_kernel, enumerate_space,\n"
                "                    ks_exponential_test, parse_graph_spec,\n"
                "                    sample_crossover)\n"
                "g = parse_graph_spec('cycle:6')\n"
                "spc = enumerate_space(g)\n"
                "par = ModelParams.for_graph(g, 10.0, alpha=Fraction(1, 2))\n"
                "samples, _ = sample_crossover(build_kernel(spc, par), spc.u_state,\n"
                "                              [spc.v_state], 100, base_seed=1)\n"
                "ks_exponential_test([s.t_hat for s in samples])"),
    "solve": ("from fractions import Fraction\n"
              "from hcmeta import (ModelParams, build_network, enumerate_space,\n"
              "                    expected_hitting_time, parse_graph_spec)\n"
              "g = parse_graph_spec('ladder:4')\n"
              "spc = enumerate_space(g)\n"
              "net = build_network(spc, ModelParams.for_graph(g, 100.0,\n"
              "                                               alpha=Fraction(1, 2)))\n"
              "expected_hitting_time(net, spc.u_state, {spc.v_state})"),
    "cli": "import hcmeta.cli",
}
IMPORT_ROUNDS = 5
# name -> (graph, lambda, alpha, samples, base seed, embed_clock, gate watch):
# the benchmark's cases, cycle:6 deeper in the metastable regime, and
# verify's criteria 5 and 6
SAMPLER_INSTANCES = {
    "cycle:6@1e3": ("cycle:6", 1e3, "1/2", 1000, 1, True, False),
    "cycle:6@1e4": ("cycle:6", 1e4, "1/2", 300, 1, True, False),
    "ladder:4@10": ("ladder:4", 10.0, "1/2", 400, 1, False, False),
    "path:6@1e3": ("path:6", 1e3, "7/10", 2000, 987, True, False),
    "cycle:6@1e3+gate": ("cycle:6", 1e3, "7/10", 3000, 555, False, True),
}


def _network(spec: str):
    from fractions import Fraction

    from hcmeta import ModelParams, build_network, enumerate_space, parse_graph_spec

    g = parse_graph_spec(spec)
    spc = enumerate_space(g)
    return spc, build_network(spc, ModelParams.for_graph(g, LAMBDA, alpha=Fraction(1, 2)))


def measure(spec: str) -> dict:
    """The solve path on one instance, in this process."""
    from hcmeta import expected_hitting_time, voltage

    u0 = _usage()
    spc, net = _network(spec)
    u1 = _usage()
    build_rss = _peak_rss_mb()
    w = voltage(net, {spc.u_state}, {spc.v_state})
    u2 = _usage()
    ht = expected_hitting_time(net, spc.u_state, {spc.v_state})
    u3 = _usage()
    return {"graph": spec, "lambda": LAMBDA, "alpha": "1/2", "states": len(spc),
            "edges": net.n_edges, "orbits": w.orbits, **_spent("build", u0, u1),
            "build_peak_rss_mb": build_rss,
            **_spent("voltage", u1, u2), **_spent("hitting", u2, u3),
            "peak_rss_mb": _peak_rss_mb(),
            "hitting_orbits": ht.orbits,
            "E_steps": ht.value, "E_steps_hex": ht.value.hex(),
            "first_step": ht.first_step, "first_step_hex": ht.first_step.hex(),
            "route_rel_gap": ht.rel_gap, "harmonic_residual": w.harmonic_residual}


def measure_psi(spec: str) -> dict:
    """Numeric Psi(u, v) on one instance, in this process."""
    from hcmeta import critical_resistance

    u0 = _usage()
    spc, net = _network(spec)
    u1 = _usage()
    build_rss = _peak_rss_mb()
    psi = critical_resistance(net, {spc.u_state}, {spc.v_state})
    u2 = _usage()
    return {**_spent("build", u0, u1), "build_peak_rss_mb": build_rss,
            **_spent("critical_resistance", u1, u2),
            "peak_rss_mb": _peak_rss_mb(), "psi": psi.value, "psi_hex": psi.value.hex(),
            "bottleneck_edge": list(psi.bottleneck_edge),
            "witness_states": len(psi.witness_path)}


def measure_tree(spec: str) -> dict:
    """The exact-exponent layer at alpha = 1/2 on one instance, in this
    process."""
    from fractions import Fraction

    import numpy as np

    from hcmeta import (dominance_sets, enumerate_space, no_trap_certificate,
                        parse_graph_spec, psi_symbolic)
    from hcmeta.potential import BottleneckTree

    alpha = Fraction(1, 2)
    spc = enumerate_space(parse_graph_spec(spec))
    u = spc.u_state
    j_u = dominance_sets(spc, u, alpha)[0]
    u0 = _usage()
    tree = BottleneckTree(spc, alpha)
    u1 = _usage()
    build_rss = _peak_rss_mb()
    sym = psi_symbolic(spc, {u}, j_u, alpha)
    u2 = _usage()
    rep = no_trap_certificate(spc, alpha)
    u3 = _usage()
    escape = np.array(tree.escape_levels(), dtype=np.int64)
    witness = np.array(sym.witness_path, dtype=np.int64)
    return {**_spent("tree", u0, u1), "build_peak_rss_mb": build_rss,
            **_spent("psi_symbolic", u1, u2), **_spent("no_trap", u2, u3),
            "no_trap_status": rep.status, "no_trap_checked": rep.checked,
            "psi_weight": str(sym.bottleneck_weight.value(alpha)),
            "peak_rss_mb": _peak_rss_mb(),
            "escape_sha256": hashlib.sha256(escape.tobytes()).hexdigest()[:16],
            "witness_sha256": hashlib.sha256(witness.tobytes()).hexdigest()[:16]}


def measure_gate(spec: str) -> dict:
    """``build_gate`` on one of ``GATE_INSTANCES``, in this process."""
    from fractions import Fraction

    from hcmeta import build_gate, parse_graph_spec

    g = parse_graph_spec(spec)
    u0 = _usage()
    gate = build_gate(g, Fraction(GATE_INSTANCES[spec]))
    u1 = _usage()
    return {"graph": spec, "alpha": GATE_INSTANCES[spec], "kappa": gate.kappa,
            **_spent("build_gate", u0, u1), "peak_rss_mb": _peak_rss_mb(),
            "gate_count": gate.count}


def measure_profile(spec: str) -> dict:
    """``brute_force_profile`` over the whole V part of one of
    ``PROFILE_INSTANCES``, in this process."""
    from hcmeta import CapExceeded, brute_force_profile, parse_graph_spec
    from hcmeta.configspace import _available_memory
    from hcmeta.isoperimetry import WITNESS_CAP, _profile_bytes

    g = parse_graph_spec(spec)
    nv = len(g.v_sites)
    row = {"graph": spec, "v_sites": nv, "u_sites": len(g.u_sites),
           "estimate_bytes": _profile_bytes(g, nv, WITNESS_CAP),
           "available_bytes": _available_memory(),
           "peak_rss_mb_before": _peak_rss_mb()}
    u0 = _usage()
    try:
        brute_force_profile(g, nv)
    except CapExceeded as exc:
        return {**row, "refused": str(exc), "peak_rss_mb": _peak_rss_mb()}
    u1 = _usage()
    growth = _peak_rss_mb() - row["peak_rss_mb_before"]
    return {**row, **_spent("profile", u0, u1), "peak_rss_mb": _peak_rss_mb(),
            "estimate_over_growth": row["estimate_bytes"] / (growth * 2 ** 20)}


def measure_profile_calls(spec: str) -> list:
    """``PROFILE_CALLS["calls"]`` calls of ``brute_force_profile`` per s_max
    and witness cap, in this process, the four cases taken in turn."""
    from statistics import median

    from hcmeta import brute_force_profile, parse_graph_spec
    from hcmeta.isoperimetry import WITNESS_CAP

    g = parse_graph_spec(spec)
    cases = [(s, cap) for s in PROFILE_CALLS["s_max"] for cap in (WITNESS_CAP, 0)]
    seconds = {case: [] for case in cases}
    for _ in range(PROFILE_CALLS["calls"]):
        for s, cap in cases:
            t0 = time.perf_counter()
            brute_force_profile(g, s, witness_cap=cap)
            seconds[s, cap].append(time.perf_counter() - t0)
    return [{"graph": spec, "s_max": s, "witness_cap": cap, "calls": len(got),
             "median_s": median(got), "min_s": min(got)}
            for (s, cap), got in seconds.items()]


def measure_wells(spec: str) -> dict:
    """``TransitionKernel._wells`` on one of ``WELL_INSTANCES``, in this
    process."""
    import tracemalloc
    from fractions import Fraction

    from hcmeta import ModelParams, build_kernel, enumerate_space, parse_graph_spec

    g = parse_graph_spec(spec)
    spc = enumerate_space(g)
    alpha = WELL_INSTANCES[spec]
    kern = build_kernel(spc, ModelParams.for_graph(g, LAMBDA, alpha=Fraction(alpha)))
    kern._rows              # builds the CSR arrays, their sums and the walker lists
    tracemalloc.start()
    t0 = time.perf_counter()
    wells = kern._wells
    seconds = time.perf_counter() - t0
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"graph": spec, "lambda": LAMBDA, "alpha": alpha, "states": len(spc),
            "entries": len(kern.indices), "wells": len(wells), "wells_s": seconds,
            "tracemalloc_peak_bytes": peak, "held_bytes": held,
            "peak_rss_mb": _peak_rss_mb()}


def measure_imports(path: str) -> dict:
    """One entry point of ``IMPORT_PATHS``, in this process."""
    before = set(sys.modules)
    t0 = time.perf_counter()
    exec(IMPORT_PATHS[path], {})
    seconds = time.perf_counter() - t0
    return {"seconds": seconds,
            "modules": sorted(m for m in set(sys.modules) - before
                              if m == "hcmeta" or m.startswith("hcmeta."))}


def measure_sampler(name: str) -> dict:
    """One of ``SAMPLER_INSTANCES``, in this process."""
    from fractions import Fraction

    from hcmeta import (ModelParams, build_gate, build_kernel, enumerate_space,
                        parse_graph_spec, sample_crossover, simulate_hit)

    spec, lam, alpha, n, seed, embed, gated = SAMPLER_INSTANCES[name]
    g = parse_graph_spec(spec)
    spc = enumerate_space(g)
    kern = build_kernel(spc, ModelParams.for_graph(g, lam, alpha=Fraction(alpha)))
    u, v = spc.u_state, spc.v_state
    watch = build_gate(g, Fraction(alpha)).transition_indices(spc) if gated else None
    t0 = time.perf_counter()
    samples, summary = sample_crossover(kern, u, [v], n, base_seed=seed,
                                        gate_watch=watch, embed_clock=embed)
    seconds = time.perf_counter() - t0
    lines = "".join(json.dumps(s.as_json_obj(i), sort_keys=True) + "\n"
                    for i, s in enumerate(samples))
    rows, cols, _ = kern.offdiag_coo()
    every = list(zip(rows.tolist(), cols.tolist()))
    transitions = sum(len(simulate_hit(kern, u, [v], seed + i, gate_watch=every).gate_events)
                      for i in range(n))
    windows, drawn = _count_windows(lambda: sample_crossover(
        kern, u, [v], n, base_seed=seed, gate_watch=watch, embed_clock=embed))
    return {"instance": name, "graph": spec, "lambda": lam, "alpha": alpha,
            "embed_clock": embed, "gate_watch": gated, "samples": n,
            "transitions": transitions, "seconds": seconds,
            "transitions_per_s": transitions / seconds, "timeouts": summary.timeouts,
            "windows": windows, "uniforms_drawn": drawn,
            "uniforms_read": 2 * transitions,
            "samples_sha256": hashlib.sha256(lines.encode()).hexdigest()}


def _count_windows(run) -> tuple[int, int]:
    """(bounce windows, uniforms drawn) while ``run()`` samples."""
    from hcmeta import dynamics

    counts = [0, 0]
    bounce, chunk = dynamics._bounce, dynamics._Uniforms.chunk

    def counted_bounce(*args, **kwargs):
        counts[0] += 1
        return bounce(*args, **kwargs)

    def counted_chunk(self, *args, **kwargs):
        got = chunk(self, *args, **kwargs)
        counts[1] += len(got)
        return got

    dynamics._bounce, dynamics._Uniforms.chunk = counted_bounce, counted_chunk
    try:
        run()
    finally:
        dynamics._bounce, dynamics._Uniforms.chunk = bounce, chunk
    return counts[0], counts[1]


def _usage() -> tuple[float, int, float]:
    """Wall seconds, minor page faults and system seconds so far."""
    r = resource.getrusage(resource.RUSAGE_SELF)
    return time.perf_counter(), r.ru_minflt, r.ru_stime


def _spent(call: str, before: tuple, after: tuple) -> dict:
    """The seconds, minor faults and system seconds of ``call`` between two
    :func:`_usage` readings."""
    (t0, f0, s0), (t1, f1, s1) = before, after
    return {f"{call}_s": t1 - t0, f"{call}_minflt": f1 - f0, f"{call}_sys_s": s1 - s0}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output", help="default BENCH_solve_memory.json, or "
                    "BENCH_imports.json with --imports, or BENCH_sampler.json "
                    "with --sampler")
    ap.add_argument("specs", nargs="*", help="instances whose solve rows alone run")
    ap.add_argument("--imports", action="store_true",
                    help="time what each entry point of IMPORT_PATHS loads")
    ap.add_argument("--sampler", action="store_true",
                    help="time sample_crossover on each of SAMPLER_INSTANCES")
    ap.add_argument("--import-path", help=argparse.SUPPRESS)   # worker: one entry point
    ap.add_argument("--sampler-one", help=argparse.SUPPRESS)   # worker: one instance
    ap.add_argument("--one", help=argparse.SUPPRESS)    # worker: the solve path
    ap.add_argument("--psi", help=argparse.SUPPRESS)    # worker: numeric Psi
    ap.add_argument("--tree", help=argparse.SUPPRESS)   # worker: exact exponents
    ap.add_argument("--gate", help=argparse.SUPPRESS)   # worker: build_gate
    ap.add_argument("--profile", help=argparse.SUPPRESS)    # worker: whole-V profile
    ap.add_argument("--profile-calls", help=argparse.SUPPRESS)  # worker: repeated profiles
    ap.add_argument("--wells", help=argparse.SUPPRESS)  # worker: bounce-window tables
    args = ap.parse_args(argv)
    if args.one or args.psi or args.tree or args.gate or args.profile \
            or args.profile_calls or args.wells or args.import_path or args.sampler_one:
        print(json.dumps(measure(args.one) if args.one else
                         measure_psi(args.psi) if args.psi else
                         measure_tree(args.tree) if args.tree else
                         measure_gate(args.gate) if args.gate else
                         measure_profile(args.profile) if args.profile else
                         measure_profile_calls(args.profile_calls) if args.profile_calls else
                         measure_wells(args.wells) if args.wells else
                         measure_sampler(args.sampler_one) if args.sampler_one else
                         measure_imports(args.import_path)))
        return 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))

    def worker(flag: str, spec: str) -> dict:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), flag, spec],
                              env=env, capture_output=True, text=True, check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    if args.imports:
        cache = os.path.isdir(os.path.join(ROOT, "src", "hcmeta", "__pycache__"))
        rows = {path: {"seconds": []} for path in IMPORT_PATHS}
        for _ in range(IMPORT_ROUNDS):
            for path, row in rows.items():
                got = worker("--import-path", path)
                row["seconds"].append(got["seconds"])
                row["modules"] = got["modules"]
        for path, row in rows.items():
            print(json.dumps({"path": path, **row}))
        with open(args.output or "BENCH_imports.json", "w") as f:
            json.dump({"bytecode_cache": cache, "imports": rows}, f, indent=2)
            f.write("\n")
        return 0
    if args.sampler:
        rows = []
        for name in SAMPLER_INSTANCES:
            rows.append(worker("--sampler-one", name))
            print(json.dumps(rows[-1]))
        with open(args.output or "BENCH_sampler.json", "w") as f:
            json.dump({"sampler": rows}, f, indent=2)
            f.write("\n")
        return 0
    rows = []
    for spec in args.specs or INSTANCES:
        rows.append(worker("--one", spec) if args.specs else
                    dict(worker("--one", spec), critical_resistance=worker("--psi", spec),
                         bottleneck_tree=worker("--tree", spec)))
        print(json.dumps(rows[-1]))
    gates = []
    for spec in () if args.specs else GATE_INSTANCES:
        gates.append(worker("--gate", spec))
        print(json.dumps(gates[-1]))
    profiles = []
    for spec in () if args.specs else PROFILE_INSTANCES:
        profiles.append(worker("--profile", spec))
        print(json.dumps(profiles[-1]))
    profile_calls = [] if args.specs else worker("--profile-calls", PROFILE_CALLS["graph"])
    for row in profile_calls:
        print(json.dumps(row))
    wells = []
    for spec in () if args.specs else WELL_INSTANCES:
        wells.append(worker("--wells", spec))
        print(json.dumps(wells[-1]))
    with open(args.output or "BENCH_solve_memory.json", "w") as f:
        json.dump({"instances": rows, "gates": gates, "profiles": profiles,
                   "profile_calls": profile_calls, "wells": wells}, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
