import math
from fractions import Fraction

import numpy as np
import pytest

from hcmeta.configspace import ModelParams, enumerate_space, join, meet
from hcmeta.dynamics import (build_kernel, continuous_mean, coupled_simulate,
                             occupation_counts, sample_crossover, simulate_hit)
from hcmeta.graph import build_family

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def k11():
    g = build_family("complete:1x1")
    spc = enumerate_space(g)
    par = ModelParams.for_graph(g, 10.0, lam_bar=20.0)
    return spc, par, build_kernel(spc, par)


def test_k11_kernel_entries(k11):
    spc, par, kern = k11
    assert par.gamma == 32.0
    empty = spc.empty_index
    assert kern.prob(empty, spc.index[0b01]) == 10.0 / 32.0
    assert kern.prob(empty, spc.index[0b10]) == 20.0 / 32.0
    assert kern.prob(empty, empty) == pytest.approx(2.0 / 32.0, abs=1e-15)


def test_row_sums_and_detailed_balance():
    g = build_family("cycle:6")
    spc = enumerate_space(g)
    par = ModelParams.for_graph(g, 1e3, alpha=HALF)
    kern = build_kernel(spc, par)
    inv = kern.check_invariants()
    assert inv["row_sum_dev"] < 1e-12
    assert inv["detailed_balance_rel"] < 1e-12
    # only removals are possible from u
    assert kern.self_loop(spc.u_state) == pytest.approx(
        1.0 - len(g.u_sites) / par.gamma, rel=1e-15)


def test_simulate_trivial_and_reproducible():
    g = build_family("cycle:6")
    spc = enumerate_space(g)
    par = ModelParams.for_graph(g, 50.0, alpha=HALF)
    kern = build_kernel(spc, par)
    s = simulate_hit(kern, spc.u_state, [spc.u_state], seed=1)
    assert s.steps == 0 and s.terminal == spc.u_state
    a = simulate_hit(kern, spc.u_state, [spc.v_state], seed=42)
    b = simulate_hit(kern, spc.u_state, [spc.v_state], seed=42)
    assert (a.steps, a.t_hat, a.terminal) == (b.steps, b.t_hat, b.terminal)
    c = simulate_hit(kern, spc.u_state, [spc.v_state], seed=43)
    assert c.steps != a.steps


def test_sample_crossover_determinism_and_mean():
    g = build_family("cycle:6")
    spc = enumerate_space(g)
    par = ModelParams.for_graph(g, 1e3, alpha=Fraction(7, 10))
    kern = build_kernel(spc, par)
    samples, summ = sample_crossover(kern, spc.u_state, [spc.v_state], 2000,
                                     base_seed=7)
    single = simulate_hit(kern, spc.u_state, [spc.v_state], seed=7)
    assert samples[0].steps == single.steps
    _, summ2 = sample_crossover(kern, spc.u_state, [spc.v_state], 2000,
                                base_seed=7)
    assert summ.mean_t_hat == summ2.mean_t_hat
    assert summ.var_t_hat == summ2.var_t_hat
    # Monte Carlo mean of steps/gamma vs lambda/(2n) within 10%
    assert summ.mean_t_hat == pytest.approx(1e3 / 6, rel=0.10)
    # and within 3 sigma of the exact linear-solve mean
    from hcmeta.potential import build_network, expected_hitting_time
    net = build_network(spc, par)
    exact = expected_hitting_time(net, spc.u_state, {spc.v_state}).continuous(par)
    se = math.sqrt(summ.var_t_hat / summ.n)
    assert abs(summ.mean_t_hat - exact) <= 3 * se


def test_timeout_is_distinct():
    g = build_family("cycle:6")
    spc = enumerate_space(g)
    par = ModelParams.for_graph(g, 1e3, alpha=HALF)
    kern = build_kernel(spc, par)
    s = simulate_hit(kern, spc.u_state, [spc.v_state], seed=5, step_cap=10)
    assert s.timed_out and s.steps > 10
    _, summ = sample_crossover(kern, spc.u_state, [spc.v_state], 10,
                               base_seed=5, step_cap=10)
    assert summ.timeouts == 10
    # no sample finished: the statistics have no value
    assert summ.mean_steps is summ.mean_t_hat is summ.var_t_hat is None


@pytest.mark.parametrize("threads", [1, 2])
def test_progress_lines_in_index_order(capsys, threads):
    g = build_family("cycle:6")
    spc = enumerate_space(g)
    kern = build_kernel(spc, ModelParams.for_graph(g, 10.0, alpha=HALF))
    sample_crossover(kern, spc.u_state, [spc.v_state], 10, base_seed=1,
                     threads=threads, progress_every=4)
    assert capsys.readouterr().err.splitlines() == [
        "[sample_crossover] 4/10 samples", "[sample_crossover] 8/10 samples"]


def test_embedded_clock_gamma_shape():
    g = build_family("path:6")
    spc = enumerate_space(g)
    par = ModelParams.for_graph(g, 1e3, alpha=Fraction(7, 10))
    kern = build_kernel(spc, par)
    samples, summ = sample_crossover(kern, spc.u_state, [spc.v_state], 2000,
                                     base_seed=11, embed_clock=True)
    # sum of 3 unit-rate exponentials: mean 3, variance 3
    assert summ.mean_t_hat == pytest.approx(3.0, rel=0.15)
    assert summ.var_t_hat == pytest.approx(3.0, rel=0.25)


def test_continuous_mean():
    g = build_family("cycle:6")
    par = ModelParams.for_graph(g, 10.0, alpha=HALF)
    assert continuous_mean(par.gamma, par) == 1.0
    assert continuous_mean(0.0, par) == 0.0


def test_gate_watch_records_transitions():
    from hcmeta.metastability import build_gate

    g = build_family("cycle:6")
    spc = enumerate_space(g)
    par = ModelParams.for_graph(g, 1e3, alpha=Fraction(7, 10))
    kern = build_kernel(spc, par)
    gate = build_gate(g, Fraction(7, 10))
    watch = gate.transition_indices(spc)
    samples, _ = sample_crossover(kern, spc.u_state, [spc.v_state], 300,
                                  base_seed=9, gate_watch=watch)
    assert all(len(s.gate_events) >= 1 for s in samples)
    frac = sum(1 for s in samples if len(s.gate_events) == 1) / 300
    assert frac >= 0.95
    watched = set(watch)
    for s in samples:
        assert all(ev in watched for ev in s.gate_events)


def test_ladder_gate_uniformity():
    # First-crossing choice is uniform over the 12 ladder gate transitions
    # (by symmetry this holds at any lambda; the single-crossing asymptotics
    # need larger lambda and are exercised on the cycle).
    from hcmeta.metastability import build_gate, gate_statistics

    g = build_family("ladder:4")
    spc = enumerate_space(g)
    a = Fraction(7, 10)
    par = ModelParams.for_graph(g, 100.0, alpha=a)
    kern = build_kernel(spc, par)
    gate = build_gate(g, a)
    watch = gate.transition_indices(spc)
    samples, _ = sample_crossover(kern, spc.u_state, [spc.v_state], 400,
                                  base_seed=31, gate_watch=watch)
    st = gate_statistics(samples, watch)
    assert st.crossed == 400
    assert st.p_value > 0.01
    assert len(st.counts) == 12


def test_occupation_matches_stationary():
    g = build_family("cycle:6")
    spc = enumerate_space(g)
    par = ModelParams.for_graph(g, 2.0, lam_bar=3.0)
    kern = build_kernel(spc, par)
    n_steps = 1_000_000
    batches = np.stack([
        occupation_counts(kern, spc.empty_index, n_steps // 50, seed=1000 + b)
        for b in range(50)
    ]) / (n_steps / 50)
    mean = batches.mean(axis=0)
    se = batches.std(axis=0, ddof=1) / math.sqrt(50)
    pi = spc.stationary(par)
    assert np.all(np.abs(mean - pi) <= 3 * se + 1e-4)


def test_coupled_identical_params_and_start():
    g = build_family("complete:2x3")
    spc = enumerate_space(g)
    par = ModelParams.for_graph(g, 10.0, alpha=HALF)
    run = coupled_simulate(spc, par, par, spc.u_mask, spc.u_mask, 500, seed=3)
    assert run.trajectory_low == run.trajectory_high
    assert not run.violations


@pytest.mark.parametrize("spec", ["torus:4x4", "complete:2x3"])
def test_coupled_order_preserved(spec):
    g = build_family(spec)
    spc = enumerate_space(g)
    par = ModelParams.for_graph(g, 10.0, alpha=HALF)
    run = coupled_simulate(spc, par, par, spc.u_mask, spc.v_mask, 10_000,
                           seed=1, record=False)
    assert run.violations == []


def test_coupled_two_parameter_case():
    g = build_family("complete:2x3")
    spc = enumerate_space(g)
    lo = ModelParams.for_graph(g, 20.0, lam_bar=40.0)    # lam1 >= lam2, lbar1 <= lbar2
    hi = ModelParams.for_graph(g, 10.0, lam_bar=80.0)
    rnd = np.random.default_rng(4)
    for run_idx in range(10):
        x = spc.configs[int(rnd.integers(0, len(spc)))]
        y = spc.configs[int(rnd.integers(0, len(spc)))]
        run = coupled_simulate(spc, lo, hi, meet(spc, x, y), join(spc, x, y),
                               2000, seed=run_idx, record=False)
        assert run.violations == []


def test_coupled_precondition_violations():
    g = build_family("complete:2x3")
    spc = enumerate_space(g)
    lo = ModelParams.for_graph(g, 10.0, lam_bar=40.0)
    hi = ModelParams.for_graph(g, 20.0, lam_bar=80.0)
    with pytest.raises(ValueError):
        coupled_simulate(spc, lo, hi, spc.u_mask, spc.v_mask, 10, seed=0)
    par = ModelParams.for_graph(g, 10.0, lam_bar=40.0)
    with pytest.raises(ValueError):
        coupled_simulate(spc, par, par, spc.v_mask, spc.u_mask, 10, seed=0)


def test_parallel_sampling_matches_serial():
    g = build_family("cycle:6")
    spc = enumerate_space(g)
    par = ModelParams.for_graph(g, 200.0, alpha=HALF)
    kern = build_kernel(spc, par)
    s1, sum1 = sample_crossover(kern, spc.u_state, [spc.v_state], 40,
                                base_seed=21, threads=1)
    s2, sum2 = sample_crossover(kern, spc.u_state, [spc.v_state], 40,
                                base_seed=21, threads=2)
    assert [s.steps for s in s1] == [s.steps for s in s2]
    assert sum1.mean_t_hat == sum2.mean_t_hat
