"""Time and peak memory of the exact solve path at the size wall.

    python3 scripts/solve_memory.py [--output BENCH_solve_memory.json]

Each instance runs in a fresh process started from this checkout's ``src``:
enumerate, build the network at lambda = 100 and alpha = 1/2, then
``voltage(u, v)`` and ``expected_hitting_time(u, {v})``, one call each.  The
JSON output lists, per instance, the states, the orbits of the lumped
voltage solve, the seconds of each call, the process's peak RSS, E_u[T_v] in
steps (with its exact ``float.hex``) and the gap between the two E[T]
routes.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INSTANCES = ("ladder:12", "torus:4x6", "torus:4x8")
LAMBDA = 100.0


def measure(spec: str) -> dict:
    """One instance, in this process."""
    from fractions import Fraction

    from hcmeta import (ModelParams, build_network, enumerate_space,
                        expected_hitting_time, parse_graph_spec, voltage)

    t0 = time.perf_counter()
    g = parse_graph_spec(spec)
    spc = enumerate_space(g)
    net = build_network(spc, ModelParams.for_graph(g, LAMBDA, alpha=Fraction(1, 2)))
    t1 = time.perf_counter()
    w = voltage(net, {spc.u_state}, {spc.v_state})
    t2 = time.perf_counter()
    ht = expected_hitting_time(net, spc.u_state, {spc.v_state})
    t3 = time.perf_counter()
    return {"graph": spec, "lambda": LAMBDA, "alpha": "1/2", "states": len(spc),
            "edges": net.n_edges, "orbits": w.orbits, "build_s": t1 - t0,
            "voltage_s": t2 - t1, "hitting_s": t3 - t2,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "E_steps": ht.value, "E_steps_hex": ht.value.hex(),
            "route_rel_gap": ht.rel_gap, "harmonic_residual": w.harmonic_residual}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output", default="BENCH_solve_memory.json")
    ap.add_argument("--one", help=argparse.SUPPRESS)    # worker: one instance
    args = ap.parse_args(argv)
    if args.one:
        print(json.dumps(measure(args.one)))
        return 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    rows = []
    for spec in INSTANCES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--one", spec],
                              env=env, capture_output=True, text=True, check=True)
        rows.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(json.dumps(rows[-1]))
    with open(args.output, "w") as f:
        json.dump({"instances": rows}, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
