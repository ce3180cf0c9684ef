"""Tests of the benchmark itself, on miniatures of its workloads.

Run with ``python3 -m pytest bench``.
"""
from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run
import worker
import workloads as W

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

MINI = {
    "exact-solve": lambda: W.ExactSolve(cases=(
        W.SolveCase("cycle:6", 100.0, 79095367.2289505, 84561.02614870196, 1e-6),)),
    "build-large": lambda: W.BuildLarge("ladder:4", 35, 72, 442611892707.9594),
    "sample": lambda: W.Sample(cases=(W.SampleCase("cycle:6", 1e2, 50, 2, True, True),)),
    "bottleneck": lambda: W.Bottleneck(
        "cycle:6", W.PsiCase("ladder:4", 5, Fraction(2), ((2, 0),))),
}


class InProcess:
    """A worker run in this process, shaped like ``run.Worker``."""

    def __init__(self, workload, trace: bool, seed: int = 7):
        buf = io.StringIO()
        worker.run(workload, seed, 0.0, trace, out=buf)
        self.lines = buf.getvalue().splitlines()
        self.timed_out, self.elapsed_s, self.returncode = False, 0.0, 0

    fields = run.Worker.fields


def test_registry_matches_cli():
    assert set(W.WORKLOADS) == set(run.WORKLOADS) == set(MINI)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(MINI))
@pytest.mark.parametrize("trace", [False, True])
def test_miniature_prints_every_metric_with_unit(name, trace):
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    summary = run.summarize(InProcess(MINI[name](), trace), [1.0], trace, wanted)
    lines = run.report(summary)
    assert summary["failed"] == 0 and summary["attempted"] >= 1
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    for m in wanted:
        assert final["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
                   for line in lines[:-1])
    values = {k: v["value"] for k, v in final["metrics"].items()}
    if trace:
        assert values["trace.wall_s"] > 0
        assert 0.5 < values["trace.self_share"] <= 1.0
    else:
        assert values["wall_s"] == summary["result"]["wall_s"] > 0


def test_traced_exact_solve_has_nested_self_times():
    summary = run.summarize(InProcess(MINI["exact-solve"](), True), [], True,
                            SPEC["per_layer"])
    v = {k: m["value"] for k, m in summary["metrics"].items()}
    assert 0 < v["potential.voltage_self_s"] <= v["potential.voltage_s"]
    assert (v["potential.expected_hitting_time_self_s"]
            < v["potential.expected_hitting_time_s"])
    assert v["potential.route_gap"] < 1e-6
    assert v["configspace.states"] == 18


@pytest.mark.parametrize("make", [
    lambda: W.ExactSolve(cases=(W.SolveCase(
        "cycle:6", 100.0, 79095367.2289505, 84561.02614870196 * 1.001, 1e-6),)),
    lambda: W.BuildLarge("ladder:4", 36, 72, 442611892707.9594),
    lambda: W.Bottleneck("cycle:6", W.PsiCase("ladder:4", 5, Fraction(3), ((2, 0),))),
    lambda: W.Bottleneck("cycle:6", W.PsiCase("ladder:4", 5, Fraction(2), ((2, 0),)),
                         gate_count=289),
])
def test_wrong_reference_counts_as_failed_operation(make):
    w = InProcess(make(), False)
    summary = run.summarize(w, [1.0], False, SPEC["end_to_end"])
    passes = len(w.fields("@pass"))
    assert summary["failed"] == passes
    assert json.loads(run.report(summary)[-1])["correct"] is False


def test_wrong_sampler_mean_fails_every_sample():
    sample = MINI["sample"]()
    w = InProcess(sample, False)
    assert run.summarize(w, [1.0], False, SPEC["end_to_end"])["failed"] == 0

    class Biased(W.Sample):
        def prepare(self, inputs, call, out):
            refs = super().prepare(inputs, call, out)
            return [(mean * 2, jumps) for mean, jumps in refs]
    w = InProcess(Biased(sample.cases), False)
    summary = run.summarize(w, [1.0], False, SPEC["end_to_end"])
    assert summary["failed"] == 100 * len(w.fields("@pass"))


def test_timeout_is_a_failure_naming_its_layer():
    class Killed:
        lines = ["@ready", "@prepare 0 0", "@layer configspace.enumerate",
                 "@pass 0 0 0.5 2 0", "@layer potential.expected_hitting_time"]
        timed_out, elapsed_s, returncode = True, 170.0, -9
        fields = run.Worker.fields
    summary = run.summarize(Killed(), [1.0], False, SPEC["end_to_end"])
    assert (summary["attempted"], summary["failed"]) == (3, 1)
    assert "potential.expected_hitting_time" in summary["problems"][0]
    assert summary["metrics"]["wall_s"]["value"] == 170.0


def test_relabel_is_seeded_and_isomorphic():
    import hcmeta
    g = hcmeta.parse_graph_spec("ladder:6")
    a, b = W.relabel(g, 3), W.relabel(g, 3)
    assert a.edges == b.edges != W.relabel(g, 4).edges
    assert hcmeta.graphs_isomorphic(g, a)


def test_exact_means_match_package():
    import hcmeta
    g = hcmeta.parse_graph_spec("cycle:6")
    space = hcmeta.enumerate_space(g)
    params = hcmeta.ModelParams.for_graph(g, 100.0, Fraction(1, 2))
    kernel = hcmeta.build_kernel(space, params)
    steps, jumps = W.exact_means(kernel, space.v_state)
    assert steps[space.u_state] == pytest.approx(84561.02614870196, rel=1e-9)
    assert 1 < jumps[space.u_state] < steps[space.u_state]


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sample",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
