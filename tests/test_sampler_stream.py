"""The sampler's draws against the reference loops kept here, which read
their uniforms one at a time from whole blocks of 1 << 14: every sample,
occupation count and coupled trajectory must be equal, field for field."""
import math
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest

from hcmeta.configspace import ModelParams, enumerate_space, leq
from hcmeta.dynamics import (HittingSample, build_kernel, coupled_simulate,
                             occupation_counts, sample_crossover, simulate_hit)
from hcmeta.graph import build_family
from hcmeta.metastability import build_gate

BLOCK = 1 << 14


class RefUniforms:
    """(0,1] uniforms from one Philox stream, drawn a whole block at a time."""

    def __init__(self, seed: int):
        self.rng = np.random.Generator(np.random.Philox(key=seed & ((1 << 128) - 1)))
        self.buf: list[float] = []
        self.pos = 0
        self.blocks = 0

    def next(self) -> float:
        if self.pos == len(self.buf):
            self.buf = (1.0 - self.rng.random(BLOCK)).tolist()
            self.pos = 0
            self.blocks += 1
        u = self.buf[self.pos]
        self.pos += 1
        return u


def ref_simulate_hit(kernel, start, targets, seed, step_cap=10**10,
                     gate_watch=None, embed_clock=False):
    """(sample, blocks of uniforms drawn)."""
    target_set = set(targets)
    uni = RefUniforms(seed)
    gamma = kernel.params.gamma
    watch = set(gate_watch) if gate_watch else None
    indptr, indices = kernel.indptr.tolist(), kernel.indices.tolist()
    cum, p_move = kernel.cum.tolist(), kernel.p_move.tolist()
    state, steps, events = start, 0, []
    if state in target_set:
        return HittingSample(0, 0.0, state, events), 0
    while True:
        pm = p_move[state]
        u = uni.next()
        holds = int(math.log(u) / math.log1p(-pm)) if pm < 1.0 else 0
        steps += holds + 1
        if steps > step_cap:
            return HittingSample(steps, steps / gamma, state, events,
                                 timed_out=True), uni.blocks
        hi = indptr[state + 1]
        k = bisect_left(cum, uni.next() * pm, indptr[state], hi)
        if k == hi:
            k -= 1
        nxt = indices[k]
        if watch is not None and (state, nxt) in watch:
            events.append((state, nxt))
        state = nxt
        if state in target_set:
            break
    if embed_clock:
        t_hat = float(uni.rng.gamma(shape=steps, scale=1.0 / gamma))
    else:
        t_hat = steps / gamma
    return HittingSample(steps, t_hat, state, events), uni.blocks


def ref_occupation_counts(kernel, start, n_steps, seed):
    uni = RefUniforms(seed)
    indptr, indices = kernel.indptr.tolist(), kernel.indices.tolist()
    cum, p_move = kernel.cum.tolist(), kernel.p_move.tolist()
    counts = [0] * len(kernel)
    state, remaining = start, n_steps
    while remaining > 0:
        pm = p_move[state]
        u = uni.next()
        holds = int(math.log(u) / math.log1p(-pm)) if pm < 1.0 else 0
        stay = min(holds + 1, remaining)
        counts[state] += stay
        remaining -= stay
        if remaining == 0:
            break
        hi = indptr[state + 1]
        k = bisect_left(cum, uni.next() * pm, indptr[state], hi)
        if k == hi:
            k -= 1
        state = indices[k]
    return counts


def ref_coupled(space, lo, hi, a, b, horizon, seed):
    """(low trajectory, high trajectory, violations) of the clock coupling."""
    n, u_mask, nbr = space.graph.n_sites, space.u_mask, space.neighbor_masks
    rates = [lo.lam if (1 << s) & u_mask else hi.lam_bar for s in range(n)]
    cum = np.cumsum(rates + [1.0] * n)
    total, cum = float(cum[-1]), cum.tolist()
    thin_u, thin_v = hi.lam / lo.lam, lo.lam_bar / hi.lam_bar
    uni = RefUniforms(seed)

    def birth(mask, site):
        bit = 1 << site
        return mask if mask & bit or mask & nbr[site] else mask | bit

    traj_a, traj_b, bad = [a], [b], []
    for tick in range(1, horizon + 1):
        ev = min(bisect_left(cum, uni.next() * total), 2 * n - 1)
        if ev < n and (1 << ev) & u_mask:
            a = birth(a, ev)
            if thin_u >= 1.0 or uni.next() < thin_u:
                b = birth(b, ev)
        elif ev < n:
            b = birth(b, ev)
            if thin_v >= 1.0 or uni.next() < thin_v:
                a = birth(a, ev)
        else:
            a &= ~(1 << (ev - n))
            b &= ~(1 << (ev - n))
        traj_a.append(a)
        traj_b.append(b)
        if not leq(space, a, b):
            bad.append(tick)
    return traj_a, traj_b, bad


def setup(spec, lam, alpha=Fraction(1, 2)):
    g = build_family(spec)
    space = enumerate_space(g)
    params = ModelParams.for_graph(g, lam, alpha)
    return g, space, build_kernel(space, params)


# (graph, lambda, samples, embed_clock, gate_watch, step_cap)
CASES = {
    "cycle6-clock": ("cycle:6", 1e3, 30, True, False, 10**10),
    "ladder4": ("ladder:4", 10.0, 40, False, False, 10**10),
    "path6-gate": ("path:6", 1e3, 40, True, True, 10**10),
    "step-cap": ("cycle:6", 1e3, 20, True, False, 5_000_000),
}


@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_samples_match_whole_block_reference(case):
    spec, lam, n, embed, gated, cap = CASES[case]
    g, space, kernel = setup(spec, lam)
    watch = build_gate(g, Fraction(1, 2)).transition_indices(space) if gated else None
    got = [simulate_hit(kernel, space.u_state, [space.v_state], seed=100 + i,
                        step_cap=cap, gate_watch=watch, embed_clock=embed)
           for i in range(n)]
    ref = [ref_simulate_hit(kernel, space.u_state, [space.v_state], 100 + i,
                            cap, watch, embed)[0] for i in range(n)]
    assert got == ref
    if gated:
        assert sum(len(s.gate_events) for s in got) > 0
    if cap < 10**10:
        assert 0 < sum(s.timed_out for s in got) < n


def test_runs_past_a_block_keep_the_clock_draw():
    """Samples that read more than one block of uniforms: the chunks cross
    the block boundary and the Gamma clock starts at the next one."""
    _, space, kernel = setup("cycle:6", 1e4)
    blocks = []
    for i in range(12):
        ref, used = ref_simulate_hit(kernel, space.u_state, [space.v_state],
                                     200 + i, embed_clock=True)
        assert simulate_hit(kernel, space.u_state, [space.v_state], seed=200 + i,
                            embed_clock=True) == ref
        blocks.append(used)
    assert max(blocks) >= 2 and min(blocks) == 1


def test_threaded_batch_matches_reference():
    _, space, kernel = setup("ladder:4", 10.0)
    got, _ = sample_crossover(kernel, space.u_state, [space.v_state], 40,
                              base_seed=300, embed_clock=True, threads=2)
    assert got == [ref_simulate_hit(kernel, space.u_state, [space.v_state],
                                    300 + i, embed_clock=True)[0]
                   for i in range(40)]


def test_occupation_counts_match_reference():
    _, space, kernel = setup("ladder:4", 10.0)
    for seed, n_steps in ((1, 1), (2, 5_000), (3, 300_000)):
        assert occupation_counts(kernel, space.empty_index, n_steps, seed).tolist() \
            == ref_occupation_counts(kernel, space.empty_index, n_steps, seed)


def test_coupled_trajectories_match_reference():
    g = build_family("cycle:6")
    space = enumerate_space(g)
    lo = ModelParams.for_graph(g, 30.0, lam_bar=3.0)
    hi = ModelParams.for_graph(g, 10.0, lam_bar=8.0)
    run = coupled_simulate(space, lo, hi, space.u_mask, space.v_mask, 20_000, seed=9)
    assert (run.trajectory_low, run.trajectory_high, run.violations) == \
        ref_coupled(space, lo, hi, space.u_mask, space.v_mask, 20_000, 9)
