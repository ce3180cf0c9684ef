import json

import pytest

from hcmeta import metastability
from hcmeta.cli import main


def _strip_timestamp(text: str) -> dict:
    obj = json.loads(text)
    obj.pop("generated_at", None)
    return obj


def test_isoperimetry_compare_closed_form(tmp_path):
    out = tmp_path / "profile.csv"
    code = main(["isoperimetry", "--graph", "torus:6x6", "--s-max", "6",
                 "--brute-force", "--compare", "closed-form", "-o", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 8                      # header + 7 matching rows
    assert lines[1] == "0,0,brute-force,1"
    assert lines[2].startswith("1,3,")


def test_isoperimetry_s_max_beyond_v(capsys):
    # cycle:6 has |V| = 3: the profile clamps there, and so do the rows
    code = main(["isoperimetry", "--graph", "cycle:6", "--s-max", "5",
                 "--brute-force"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[1:] == ["0,0,brute-force,1", "1,1,brute-force,3",
                         "2,1,brute-force,3", "3,0,brute-force,1"]


@pytest.mark.parametrize("spec,s_max,outside", [("cycle:6", 5, [3]),
                                                 ("torus:6x6", 7, [7])])
def test_isoperimetry_compare_outside_window_keeps_rows(capsys, spec, s_max, outside):
    # sizes outside the closed form's window are not compared, only marked
    code = main(["isoperimetry", "--graph", spec, "--s-max", str(s_max),
                 "--brute-force", "--compare", "closed-form"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "s,delta,provenance,witness_count"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(len(rows)))
    assert [int(r[0]) for r in rows if r[2] == "brute-force:outside-window"] == outside
    assert all(r[2] in ("brute-force", "brute-force:outside-window") for r in rows)


def test_isoperimetry_compare_mismatch_inside_window_exit_4(capsys, monkeypatch):
    import hcmeta.isoperimetry as iso

    closed = iso.closed_form_profile
    monkeypatch.setattr(iso, "closed_form_profile",
                        lambda g, s: closed(g, s) + (s == 2))
    assert main(["isoperimetry", "--graph", "cycle:6", "--s-max", "5",
                 "--brute-force", "--compare", "closed-form"]) == 4
    captured = capsys.readouterr()
    assert len(captured.out.strip().split("\n")) == 5      # header + s = 0..3
    assert "comparison failed on 1 sizes" in captured.err


@pytest.mark.parametrize("brute", [[], ["--brute-force"]])
def test_isoperimetry_negative_s_max_exit_2(capsys, brute):
    assert main(["isoperimetry", "--graph", "torus:6x6", "--s-max", "-1",
                 *brute]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nonnegative" in captured.err


def test_gate_command(tmp_path):
    out = tmp_path / "gate.json"
    code = main(["gate", "--graph", "torus:6x6", "--alpha", "7/10",
                 "-o", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["gate_count"] == 288
    assert obj["hypotheses"]["uniqueness"] == "verified"


GATE_REFUSALS = [
    # Q5: a ball of radius 1 wraps onto itself, costing 6 against the lattice 8
    ("doubled(torus:4x4)", "7/10", None, "doubled torus too small"),
    ("torus:6x8", "7/10", None, "torus family A does not match"),
    # s* = 1 and kappa = 3 on graphs with three V sites: no family C
    ("cycle:6", "3/10", None, "s*+kappa = 4 exceeds |V| = 3"),
    ("path:6", "3/10", None, "s*+kappa = 4 exceeds |V| = 3"),
    ("complete:2x3", "3/10", None, "s*+kappa = 4 exceeds |V| = 3"),
    # the doubled-torus closed form's s* (11) is not the profile's argmax
    ("doubled(torus:5x5)", "1/2", None, "the doubled-torus closed form gives s* = 11"),
    # some placements of family C cost 9 against the lattice 10
    ("doubled(torus:5x5)", "3/5", None, "a placement of family C costs 9"),
    ("doubled(torus:8x8)", "3/10", None, "a placement of family C costs 14"),
    # the seed family C has size 5 = s*+1 only
    ("doubled(torus:5x5)", "7/10", 0, "kappa=0, but the doubled-torus family C has size 5"),
]


@pytest.mark.parametrize("spec,alpha,kappa,why", GATE_REFUSALS,
                         ids=[f"{spec}-{why}" for spec, _, _, why in GATE_REFUSALS])
def test_gate_refusals_exit_2(capsys, tmp_path, spec, alpha, kappa, why):
    out = tmp_path / "gate.json"
    extra = [] if kappa is None else ["--kappa", str(kappa)]
    assert main(["gate", "--graph", spec, "--alpha", alpha, *extra, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:") and why in err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["cycle:6", "path:6", "complete:2x3"])
def test_critical_refuses_kappa_past_v_exit_2(capsys, tmp_path, spec):
    out = tmp_path / "critical.json"
    assert main(["critical", "--graph", spec, "--alpha", "3/10", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:")
    assert "s*+kappa = 4 exceeds |V| = 3" in err
    assert not out.exists()


def test_gate_exhausted_search_exits_3(capsys, tmp_path, monkeypatch):
    # kappa = 2: the walk back from C refuses rather than shrink B
    monkeypatch.setattr(metastability, "_walk", lambda *args, **kwargs: ({}, None, True))
    out = tmp_path / "gate.json"
    assert main(["gate", "--graph", "random:6x6:0.5:1", "--alpha", "2/5",
                 "-o", str(out)]) == 3
    assert f"{metastability.GATE_SEARCH_NODES} nodes" in capsys.readouterr().err
    assert not out.exists()


def test_enumerate_command(tmp_path):
    out = tmp_path / "enum.json"
    assert main(["enumerate", "--graph", "cycle:6", "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["n_states"] == 18


def test_simulate_reproducible_artifacts(tmp_path):
    args = ["simulate", "--graph", "cycle:6", "--alpha", "1/2",
            "--lambda", "200", "--samples", "120", "--seed", "42",
            "--ks-exponential", "--ks-threshold", "0.001"]
    outs = []
    for tag in ("a", "b"):
        samples = tmp_path / f"samples_{tag}.jsonl"
        summary = tmp_path / f"summary_{tag}.json"
        code = main(args + ["-o", str(samples), "--summary", str(summary)])
        assert code == 0
        outs.append((samples.read_text(), summary.read_text()))
    assert outs[0][0] == outs[1][0]             # JSONL byte-identical
    assert _strip_timestamp(outs[0][1]) == _strip_timestamp(outs[1][1])
    first = json.loads(outs[0][0].split("\n")[0])
    assert set(first) >= {"sample", "steps", "t_hat", "gate_events"}


def test_simulate_gate_watch(tmp_path):
    summary = tmp_path / "summary.json"
    code = main(["simulate", "--graph", "cycle:6", "--alpha", "7/10",
                 "--lambda", "1e3", "--samples", "60", "--seed", "5",
                 "--gate-watch", "--summary", str(summary)])
    assert code == 0
    obj = json.loads(summary.read_text())
    assert obj["gate_count"] == 6
    assert obj["gate"]["crossed"] == 60


def test_hitting_command(capsys):
    assert main(["hitting", "--graph", "ladder:4", "--alpha", "7/10",
                 "--lambda", "100"]) == 0
    obj = _strip_timestamp(capsys.readouterr().out)
    assert obj["route_rel_gap"] < 1e-9


def test_hitting_route_gap_exit_4(capsys, monkeypatch):
    # both routes agree to rounding now, so a gap above the tolerance is
    # injected; the artifact is still written
    import hcmeta.cli as cli
    from hcmeta import potential
    from hcmeta.potential import HittingTimeResult

    gap = 10 * cli.ROUTE_GAP_TOL
    monkeypatch.setattr(potential, "expected_hitting_time",
                        lambda net, a, B: HittingTimeResult(1.0, 1.0 - gap, gap))
    assert main(["hitting", "--graph", "cycle:6", "--alpha", "1/2",
                 "--lambda", "1e4"]) == 4
    captured = capsys.readouterr()
    assert _strip_timestamp(captured.out)["route_rel_gap"] == gap
    assert "routes disagree" in captured.err


def test_resistance_command(capsys):
    assert main(["resistance", "--graph", "cycle:6", "--alpha", "1/2",
                 "--lambda", "50"]) == 0
    obj = _strip_timestamp(capsys.readouterr().out)
    assert obj["psi_exponent"] == ["1", "0"]
    assert obj["R"] > 0 and obj["C"] == pytest.approx(1 / obj["R"])


def test_critical_command(capsys):
    assert main(["critical", "--graph", "torus:6x6", "--alpha", "7/10"]) == 0
    obj = _strip_timestamp(capsys.readouterr().out)
    assert obj["analysis"]["s_star"] == 3
    # order lambda^(p + q alpha) with p = Delta(s*) = 5, q = -(s*-1) = -2
    assert obj["exponent"] == ["5", "-2"]


@pytest.mark.parametrize("spec", ["ladder:8", "random:6x6:0.5:1", "doubled(cycle:10)"])
def test_one_profile_per_critical_analysis(capsys, monkeypatch, spec):
    # without a closed form, the profile that decides s* is the one the
    # hypothesis checks and the gate read: one per analysis
    calls = []
    profile = metastability.brute_force_profile
    monkeypatch.setattr(metastability, "brute_force_profile",
                        lambda *args, **kwargs: calls.append(args[1])
                        or profile(*args, **kwargs))
    for command, runs in (("critical", 1), ("gate", 2)):
        calls.clear()
        assert main([command, "--graph", spec, "--alpha", "7/10"]) == 0
        capsys.readouterr()
        assert len(calls) == runs


def test_notrap_exit_codes(capsys):
    assert main(["notrap", "--graph", "cycle:6", "--alpha", "2/5"]) == 0
    capsys.readouterr()
    assert main(["notrap", "--graph", "path:6", "--alpha", "2/5"]) == 4


def test_invalid_config_exit_2(capsys):
    assert main(["resistance", "--graph", "nonsense:3", "--alpha", "1/2",
                 "--lambda", "10"]) == 2
    assert main(["hitting", "--graph", "cycle:6", "--lambda", "10"]) == 2
    assert main(["gate", "--graph", "cycle:6"]) == 2
    assert main(["resistance", "--graph", "cycle:6", "--alpha", "3/2",
                 "--lambda", "10"]) == 2


# the form a malformed graph spec's message names
_SPEC_FORMS = {"cycle": "cycle:L", "complete": "complete:MxN",
               "random:4x4": "random:NUxNV:P:SEED",
               "random:4x4:0.5": "random:NUxNV:P:SEED", "torus:4": "torus:MxN",
               "torus:4x": "torus:MxN", "complete:3": "complete:MxN",
               "doubled(cycle)": "doubled(cycle:L)",
               "doubled(torus:4)": "doubled(torus:MxN)",
               "doubled(vertex:3)": "doubled(vertex)"}


@pytest.mark.parametrize("argv", [
    ["enumerate", "--graph", "cycle"],
    ["enumerate", "--graph", "complete"],
    ["enumerate", "--graph", "random:4x4"],
    ["enumerate", "--graph", "random:4x4:0.5"],
    ["critical", "--graph", "cycle:6", "--alpha", "1/0"],
    ["hitting", "--graph", "cycle:6", "--alpha", "1/2", "--lambda", "nan"],
    ["hitting", "--graph", "cycle:6", "--alpha", "1/2", "--lambda", "inf"],
    ["hitting", "--graph", "cycle:6", "--alpha", "1/2", "--lambda", "1e300"],
    ["enumerate", "--graph", "torus:4"],
    ["enumerate", "--graph", "torus:4x"],
    ["enumerate", "--graph", "complete:3"],
    ["enumerate", "--graph", "doubled(cycle)"],
    ["enumerate", "--graph", "doubled(torus:4)"],
    ["enumerate", "--graph", "doubled(vertex:3)"],
    ["simulate", "--graph", "cycle:6", "--alpha", "1/2", "--lambda", "10",
     "--samples", "3", "--step-cap", "-5"],
    ["simulate", "--graph", "cycle:6", "--alpha", "1/2", "--lambda", "10",
     "--samples", "3", "--step-cap", "0"],
    ["simulate", "--graph", "cycle:6", "--alpha", "1/2", "--lambda", "1e3",
     "--samples", "100", "--ks-exponential", "--ks-threshold", "nan",
     "-o", "ks.jsonl", "--summary", "ks.json"],
    ["simulate", "--graph", "cycle:6", "--alpha", "1/2", "--lambda", "1e3",
     "--samples", "100", "--ks-exponential", "--ks-threshold", "2",
     "-o", "ks.jsonl", "--summary", "ks.json"],
    ["enumerate", "--graph", "cycle:6", "--cap", "-1", "-o", "out.json"],
    ["notrap", "--graph", "cycle:6", "--alpha", "2/5", "--cap", "-1",
     "-o", "out.json"],
])
def test_malformed_input_exit_2_in_one_line(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert not list(tmp_path.iterdir())
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid configuration:")
    assert captured.err.count("\n") == 1
    form = _SPEC_FORMS.get(argv[2])
    if form:
        assert captured.err == (f"invalid configuration: graph spec {argv[2]!r}: "
                                f"expected the form {form}\n")


@pytest.mark.parametrize("argv", [
    ["critical", "--graph", "cycle:8", "--alpha", "1/2", "--cap", "1"],
    ["gate", "--graph", "cycle:6", "--alpha", "1/2", "--cap", "1"],
    ["isoperimetry", "--graph", "cycle:6", "--s-max", "2", "--cap", "1"],
    ["isoperimetry", "--graph", "cycle:6", "--s-max", "2", "--alpha", "1/2"],
    ["enumerate", "--graph", "cycle:6", "--alpha", "1/2"],
])
def test_option_the_handler_does_not_read_exit_2(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert not list(tmp_path.iterdir())
    assert "unrecognized arguments" in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("extra,nulls", [
    (["--samples", "1"], {"var_t_hat"}),
    (["--samples", "3", "--step-cap", "1"], {"mean_steps", "mean_t_hat", "var_t_hat"}),
])
def test_simulate_summary_is_strict_json(capsys, extra, nulls):
    # a statistic with no value is null, never NaN
    assert main(["simulate", "--graph", "cycle:6", "--alpha", "1/2",
                 "--lambda", "10", *extra]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    stats = ("mean_steps", "mean_t_hat", "var_t_hat")
    assert {k for k in stats if out[k] is None} == nulls


def test_simulate_ks_below_100_samples_refused_before_sampling(capsys, tmp_path):
    samples, summary = tmp_path / "ks.jsonl", tmp_path / "ks.json"
    assert main(["simulate", "--graph", "cycle:6", "--alpha", "1/2", "--lambda", "1e3",
                 "--samples", "50", "--ks-exponential", "-o", str(samples),
                 "--summary", str(summary)]) == 2
    err = capsys.readouterr().err
    assert err == ("invalid configuration: --ks-exponential needs --samples of at "
                   "least 100, got 50\n")
    assert not samples.exists() and not summary.exists()


def test_simulate_ks_with_too_few_finished_samples_exit_4(capsys, tmp_path):
    # 77 of 120 samples pass the step cap, which leaves 43 for the test
    samples, summary = tmp_path / "ks.jsonl", tmp_path / "ks.json"
    assert main(["simulate", "--graph", "cycle:6", "--alpha", "1/2", "--lambda", "1e2",
                 "--samples", "120", "--seed", "3", "--step-cap", "40000",
                 "--ks-exponential", "-o", str(samples), "--summary", str(summary)]) == 4
    assert len(samples.read_text().splitlines()) == 120
    out = json.loads(summary.read_text(), parse_constant=_reject_constant)
    assert out["ks"] is None
    assert (out["finished"], out["timeouts"]) == (43, 77)
    assert "43 samples finished" in capsys.readouterr().err


def test_budget_exit_3(capsys):
    assert main(["enumerate", "--graph", "torus:6x6", "--cap", "100"]) == 3


def test_whole_hypercube_6_profile_refused_before_numpy_exit_3(capsys, monkeypatch):
    from hcmeta import isoperimetry

    monkeypatch.setattr(isoperimetry, "_available_memory", lambda: 8 << 30)
    monkeypatch.setattr(isoperimetry, "np", None)     # any numpy call raises
    assert main(["isoperimetry", "--graph", "hypercube:6", "--s-max", "32",
                 "--brute-force"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("refused: the brute-force profile of 32 V sites up to "
                            "s = 32 needs 11,186,646,074 bytes; 8,589,934,592 bytes "
                            "are available\n")


def test_dense_tail_beyond_available_memory_exit_3(capsys, monkeypatch):
    from hcmeta import potential

    monkeypatch.setattr(potential, "_available_memory", lambda: 100)
    for cmd in ("hitting", "resistance"):
        assert main([cmd, "--graph", "cycle:6", "--alpha", "1/2",
                     "--lambda", "100"]) == 3
        assert "refused: the dense elimination tail" in capsys.readouterr().err


def test_threads_env_honored(monkeypatch):
    from hcmeta.cli import build_parser

    monkeypatch.setenv("HCMETA_THREADS", "3")
    args = build_parser().parse_args(["enumerate", "--graph", "cycle:6"])
    assert args.threads == 3


def _no_sampling(*args, **kwargs):
    raise AssertionError("sampling must not start")


def test_threads_env_not_an_integer_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("HCMETA_THREADS", "abc")
    assert main(["enumerate", "--graph", "cycle:6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:") and "HCMETA_THREADS" in err


@pytest.mark.parametrize("threads", ["-3", "0"])
def test_threads_below_one_exit_2(monkeypatch, capsys, threads):
    # rejected before any sample is drawn, so no worker process starts
    monkeypatch.setattr("hcmeta.dynamics.sample_crossover", _no_sampling)
    code = main(["--threads", threads, "simulate", "--graph", "cycle:6",
                 "--alpha", "1/2", "--lambda", "10", "--samples", "5"])
    assert code == 2
    assert capsys.readouterr().err.startswith("invalid configuration:")
    monkeypatch.setenv("HCMETA_THREADS", threads)
    assert main(["simulate", "--graph", "cycle:6", "--alpha", "1/2",
                 "--lambda", "10", "--samples", "5"]) == 2


def test_verify_subset(capsys):
    assert main(["verify", "--criteria", "1,9"]) == 0
    out = capsys.readouterr().out
    assert "criterion  1" in out and "criterion  9" in out
    assert "2/2 criteria passed" in out
