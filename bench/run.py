"""Layered benchmark of hcmeta.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) in a fresh worker process started
from this checkout's ``src``.  The worker repeats a fixed pass of work for
about S seconds; every operation's output is checked.  With ``--trace 0`` the
last line of output holds the end-to-end metrics of BENCHMARK.json:

- ``wall_s``: median time of a pass, each pass normalised by the machine's
  speed while it ran (see ``worker.py`` and ``reference.py``).  On a shared
  2-vCPU Xeon VM, one identical call took 1x to 2x its fastest time from
  second to second, and a slow stretch could fill a whole run;
- ``peak_rss_mb``: memory high-water mark of the worker;
- ``setup_s``: median, over several fresh processes, of the time from process
  start until ``import hcmeta`` and the workload's graph inputs are done,
  each normalised by the reference loop timed in that process right after.

With ``--trace 1`` it holds the per-layer metrics instead, from spans recorded
around every call into a layer (see ``tracing.py``); the full span list is
written to ``.bench_out/``.  The lines before the last give the same figures
for reading, the error rate and the run context.

A worker that overruns the run's time cap is killed and counted as a failed
operation, together with the layer it was in.  Exit status is 0 when a result
was printed, 2 when the checkout holds no hcmeta sources to benchmark.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

from reference import REFERENCE_S

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
WORKLOADS = ("exact-solve", "build-large", "sample", "bottleneck")
SETUP_RUNS = 4
RUN_CAP_S = 170.0           # whole run, set-up processes included


class Worker:
    """A worker process with its protocol lines, killed at a deadline."""

    def __init__(self, args: list[str], deadline: float):
        self.lines: list[str] = []
        self.ready_s: float | None = None       # raw, from process start
        self.timed_out = False
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)

        def kill():
            self.timed_out = True
            proc.kill()
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), kill)
        timer.start()
        try:
            for line in proc.stdout:
                if self.ready_s is None and line.startswith("@ready"):
                    self.ready_s = time.perf_counter() - t0
                self.lines.append(line.rstrip("\n"))
            proc.wait()
        finally:
            timer.cancel()
            proc.kill()
            proc.wait()
        self.elapsed_s = time.perf_counter() - t0
        self.returncode = proc.returncode

    def fields(self, tag: str) -> list[list[str]]:
        return [line.split()[1:] for line in self.lines if line.startswith(tag + " ")]

    def setup_s(self) -> float | None:
        """Time until ``@ready``, normalised by the process's reference loop."""
        ref = self.fields("@reference")
        if self.ready_s is None or not ref:
            return None
        return self.ready_s * REFERENCE_S / float(ref[0][0])


def git_commit() -> str:
    """HEAD of the checkout, when the checkout itself is a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarize(worker, setup: list[float], trace: bool, wanted: list[dict]) -> dict:
    """Operations, failures and the ``wanted`` metrics from a finished worker.

    ``worker`` provides the protocol ``lines``, ``timed_out``, ``elapsed_s``
    and ``returncode``; ``setup`` holds the normalised set-up times of
    separate processes.  Metrics of layers the workload never entered read 0.
    """
    attempted = failed = 0
    for a, b in worker.fields("@prepare"):
        attempted, failed = attempted + int(a), failed + int(b)
    passes = []
    for _, on, secs, a, b in worker.fields("@pass"):
        passes.append((on == "1", float(secs)))
        attempted, failed = attempted + int(a), failed + int(b)
    results = [line[len("@result "):] for line in worker.lines
               if line.startswith("@result ")]
    result = json.loads(results[0]) if results else {}
    problems = []
    if worker.timed_out:
        layers = worker.fields("@layer")
        problems.append(f"timed out after {worker.elapsed_s:.1f} s in layer "
                        f"{layers[-1][0] if layers else '(none)'}")
    elif not results:
        problems.append(f"worker exited with status {worker.returncode} "
                        "without a result")
    if problems:
        attempted, failed = attempted + 1, failed + 1

    if trace:
        values = result.get("metrics", {})
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {
            # a worker killed before reporting gives its time until then
            "wall_s": result.get("wall_s", worker.elapsed_s),
            "peak_rss_mb": rss_kb / 1024.0,
            "setup_s": statistics.median(setup),
        }
    return {
        "correct": failed == 0, "attempted": max(attempted, 1), "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
        "problems": problems, "passes": passes, "setup": setup, "result": result,
    }


def report(summary: dict) -> list[str]:
    """Lines for reading, then the result line the benchmark contract asks for."""
    lines = []
    times = sorted(secs for on, secs in summary["passes"] if not on)
    if times:
        lines.append(
            f"passes: {len(times)} untraced, {len(summary['passes']) - len(times)} "
            f"traced; pass time min {times[0]:.4f} s, median "
            f"{statistics.median(times):.4f} s, max {times[-1]:.4f} s")
    result = summary["result"]
    if "reference_s" in result:
        lines.append(f"reference loop: median {result['reference_s'] * 1e3:.3f} ms "
                     f"(nominal {REFERENCE_S * 1e3:g} ms)")
    if summary["setup"]:
        lines.append(f"set-up: {len(summary['setup'])} processes, median "
                     f"{statistics.median(summary['setup']):.4f} s normalised")
    lines += [f"error: {p}" for p in summary["problems"]]
    failed, attempted = summary["failed"], summary["attempted"]
    lines.append(f"error_rate: {failed}/{attempted} = {failed / attempted:.4g}")
    for name, m in summary["metrics"].items():
        lines.append(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    lines.append(json.dumps({k: summary[k] for k in
                             ("correct", "attempted", "failed", "metrics")}))
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hcmeta", "__init__.py")):
        print(f"error: no hcmeta sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        wanted = json.load(f)["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + RUN_CAP_S

    setup = []
    if not args.trace:
        for _ in range(SETUP_RUNS):
            probe = Worker([args.workload, str(args.seed), "--setup-only"], deadline)
            if probe.returncode != 0 or probe.setup_s() is None:
                print("error: set-up process failed", file=sys.stderr)
                return 1
            setup.append(probe.setup_s())
    worker = Worker([args.workload, str(args.seed), str(args.seconds),
                     str(args.trace)], deadline)
    if worker.ready_s is None:
        print("error: worker failed before its inputs were ready", file=sys.stderr)
        return 1
    summary = summarize(worker, setup, bool(args.trace), wanted)

    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "span_fields": ["name", "start", "end", "parent", "run"],
                       "spans": summary["result"].get("spans", []),
                       "metrics": summary["result"].get("metrics", {})}, f)
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu_model(),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") >> 20,
        "commit": git_commit(), "platform": platform.platform(),
        **summary["result"].get("versions", {}),
    }
    print("context " + json.dumps(context))
    print("\n".join(report(summary)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
