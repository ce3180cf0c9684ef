"""One workload run in a fresh process, started by ``run.py``.

Usage: ``python3 bench/worker.py WORKLOAD SEED SECONDS TRACE`` runs passes
until SECONDS are used; ``python3 bench/worker.py WORKLOAD SEED --setup-only``
stops once the inputs are ready and the reference loop is timed.  Protocol
lines on standard output:

    @ready                      inputs built (hcmeta imported, graphs parsed)
    @reference SECONDS          fastest reference loop (``--setup-only``)
    @layer NAME                 the benchmark is calling into layer NAME
    @prepare ATTEMPTED FAILED   checks made once per run, outside the passes
    @pass INDEX TRACED SECONDS ATTEMPTED FAILED
    @result JSON                versions, wall_s, per-layer metrics, spans

Without tracing, every pass times the reference loop (``reference.py``)
before its first call and again before a call whenever REFERENCE_EVERY_S
have passed since it last ran; the loop is left out of the pass's time.
``wall_s`` is the median over the passes of the pass's time normalised by
the mean reference time within that pass.  On a shared 2-vCPU Xeon VM, a
pass's time and its reference time moved together (correlation 0.97 over
five minutes of ``sample`` passes), so a run spent wholly in a slow stretch
of the machine reads like one that was not.
"""
from __future__ import annotations

import gc
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy                                    # noqa: E402
import scipy                                    # noqa: E402

import hcmeta                                   # noqa: E402
from reference import REFERENCE_S, time_reference  # noqa: E402
from tracing import Tracer, layer_times         # noqa: E402
from workloads import WORKLOADS, Outcome        # noqa: E402

REFERENCE_EVERY_S = 0.2        # work between two timings of the reference loop
# span names whose self time is reported next to their inclusive time
SELF_TIMED = ("potential.effective_resistance", "potential.voltage",
              "potential.expected_hitting_time",
              "metastability.no_trap_certificate", "metastability.build_gate")


def layer_metrics(spans, traced, untraced, counts) -> dict[str, float]:
    """Per-layer metrics from the fastest of the traced passes ``traced`` (a
    dict pass index -> seconds), so that they add up to one real pass; exact
    counts come from the first pass."""
    best = min(traced, key=traced.get)
    total, own = layer_times(spans, best)
    out: dict[str, float] = {}
    for name in total:
        out[f"{name}_s"] = total[name]
        if name in SELF_TIMED:
            out[f"{name}_self_s"] = own[name]
    out["trace.wall_s"] = traced[best]
    out["trace.overhead_s"] = traced[best] - min(untraced.values())
    out["trace.self_share"] = sum(own.values()) / traced[best]
    out.update(counts)
    expected_jumps = out.pop("dynamics.expected_jumps", 0.0)
    sampling = out.get("dynamics.sample_crossover_s", 0.0)
    if sampling > 0:
        out["dynamics.samples_per_s"] = out["dynamics.samples"] / sampling
        out["dynamics.jumps_per_s"] = expected_jumps / sampling
    return out


def run(workload, seed: int, seconds: float, trace: bool, out=sys.stdout) -> dict:
    """Prepare ``workload`` and repeat its pass for about ``seconds``, writing
    the protocol lines to ``out``; returns the result of the ``@result`` line.

    Under ``trace`` the passes alternate untraced and traced, so the run
    measures its own tracing overhead.
    """
    def emit(line):
        print(line, file=out, flush=True)

    inputs = workload.inputs(seed)
    emit("@ready")
    tracer = Tracer(progress=out)
    prep = Outcome()
    refs = workload.prepare(inputs, tracer.call, prep)
    emit(f"@prepare {prep.attempted} {prep.failed}")
    for note in prep.notes:
        print(f"failed: {note}", file=sys.stderr)

    reference: list[float] = []                 # reference loop times
    last_reference = 0.0

    def calibrated(name, fn, *args, **kwargs):
        nonlocal last_reference
        if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
            reference.append(time_reference())
            last_reference = time.perf_counter()
        return tracer.call(name, fn, *args, **kwargs)

    traced: dict[int, float] = {}
    untraced: dict[int, float] = {}
    normalised: list[float] = []
    counts: dict = {}
    start = time.perf_counter()
    index = 0
    while True:
        on = trace and index % 2 == 1
        tracer.run, tracer.enabled = index, on
        if on:
            tracer.install()
        outcome = Outcome()
        first_ref = len(reference)
        last_reference = -REFERENCE_EVERY_S     # time the loop before the first call
        t0 = time.perf_counter()
        products = workload.run_pass(inputs, refs, tracer.call if trace else calibrated,
                                     index, outcome)
        own_refs = reference[first_ref:]
        dt = time.perf_counter() - t0 - sum(own_refs)
        if own_refs:
            normalised.append(dt * REFERENCE_S / statistics.fmean(own_refs))
        if on:
            tracer.uninstall()
            tracer.enabled = False
        (traced if on else untraced)[index] = dt
        emit(f"@pass {index} {int(on)} {dt!r} {outcome.attempted} {outcome.failed}")
        for note in outcome.notes:
            print(f"failed: pass {index}: {note}", file=sys.stderr)
        if trace and index == 0:
            try:
                counts = workload.counts(products, refs)
            except Exception as exc:        # counts are reported, not checked
                print(f"counts unavailable: {exc!r}", file=sys.stderr)
        del products
        gc.collect()
        index += 1
        if (time.perf_counter() - start + dt > seconds
                and index >= (2 if trace else 1)):
            break

    result = {"versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__, "scipy": scipy.__version__}}
    if normalised:
        result["wall_s"] = statistics.median(normalised)
        result["reference_s"] = statistics.median(reference)
    if trace:
        result["metrics"] = layer_metrics(tracer.spans, traced, untraced, counts)
        result["spans"] = tracer.spans
    emit("@result " + json.dumps(result))
    return result


def main(argv: list[str]) -> int:
    if os.path.dirname(os.path.abspath(hcmeta.__file__)) != os.path.join(
            ROOT, "src", "hcmeta"):
        print(f"hcmeta imported from {hcmeta.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[argv[0]]()
    seed = int(argv[1])
    if argv[2:] == ["--setup-only"]:
        workload.inputs(seed)
        print("@ready", flush=True)
        print(f"@reference {min(time_reference() for _ in range(6))!r}", flush=True)
        os._exit(0)         # skip interpreter teardown, which only slows the run
    run(workload, seed, float(argv[2]), argv[3] == "1")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
