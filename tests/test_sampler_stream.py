"""The sampler's draws against the reference loops kept here, which read
their uniforms one at a time from whole blocks of 1 << 14, each from a new
Philox: every sample, occupation count and coupled trajectory must be equal,
field for field.  The bounce window is checked against the scalar step on
crafted uniforms, and its holds against ``int(math.log(u) / log_stay)`` on
quotients crafted at integers."""
import math
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest

from hcmeta import dynamics
from hcmeta.configspace import ModelParams, enumerate_space, leq
from hcmeta.dynamics import (DEFAULT_STEP_CAP, HittingSample, TransitionKernel,
                             _bounce, _holds, _Uniforms, _walker, _window, _Windows,
                             build_kernel, coupled_simulate, occupation_counts,
                             sample_crossover, simulate_hit)
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


HALF = Fraction(1, 2)
# (graph, lambda, alpha, samples, embed_clock, gate_watch, step_cap)
CASES = {
    "cycle6-clock": ("cycle:6", 1e3, HALF, 30, True, False, 10**10),
    "ladder4": ("ladder:4", 10.0, HALF, 40, False, False, 10**10),
    "path6-gate": ("path:6", 1e3, HALF, 40, True, True, 10**10),
    "step-cap": ("cycle:6", 1e3, HALF, 20, True, False, 5_000_000),
    # the cap falls inside a run of returns to u that a bounce window reads
    "step-cap-in-window": ("cycle:6", 1e4, HALF, 20, True, False, 3 * 10**9),
    # verify's criterion 6: no watched edge touches u, whose windows stay open
    "cycle6-gate-7/10": ("cycle:6", 1e3, Fraction(7, 10), 30, False, True, 10**10),
}


@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_samples_match_whole_block_reference(case):
    spec, lam, alpha, n, embed, gated, cap = CASES[case]
    g, space, kernel = setup(spec, lam, alpha)
    watch = build_gate(g, alpha).transition_indices(space) if gated else None
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


def test_a_run_at_a_well_reads_across_a_chunk_end(monkeypatch):
    """A window that starts in what is left of one chunk reads on into the
    chunk drawn ahead and joined to it; the samples stay the reference's."""
    _, space, kernel = setup("cycle:6", 1e3)
    drawn, spans = [], []
    chunk, bounce = _Uniforms.chunk, dynamics._bounce

    def spy_chunk(self, need=0):
        drawn.append(chunk(self, need))
        return drawn[-1]

    def spy_bounce(win, arr, pos, pairs, *rest):
        n, held = bounce(win, arr, pos, pairs, *rest)
        joined = len(arr) - len(drawn[-1])      # where the newest chunk starts
        if pos < joined < pos + 4 * n:
            spans.append((pos, joined, n))
        return n, held

    monkeypatch.setattr(_Uniforms, "chunk", spy_chunk)
    monkeypatch.setattr(dynamics, "_bounce", spy_bounce)
    for seed in range(40):
        assert simulate_hit(kernel, space.u_state, [space.v_state], seed,
                            embed_clock=True) == \
            ref_simulate_hit(kernel, space.u_state, [space.v_state], seed,
                             embed_clock=True)[0]
    assert spans


def test_clock_starts_after_the_last_value_read(monkeypatch):
    """Walks on cycle:6 at 1e4 whose last value read lies within one window
    (4 W values) before a multiple of 1 << 14, where a window may have drawn
    the next block ahead: the Gamma clock still starts at the block after
    the last value read.  The reference, watching every edge, counts the
    values read, two per transition."""
    _, space, kernel = setup("cycle:6", 1e4)
    u, v = space.u_state, space.v_state
    ahead = 4 * kernel._wells[u][3]
    rows, cols, _ = kernel.offdiag_coo()
    every = list(zip(rows.tolist(), cols.tolist()))
    clocks = []
    block_end = _Uniforms.block_end

    def spy_block_end(self, read):
        clocks.append((self.drawn, read))
        return block_end(self, read)

    monkeypatch.setattr(_Uniforms, "block_end", spy_block_end)
    near = []
    for seed in range(50):
        ref = ref_simulate_hit(kernel, u, [v], seed, gate_watch=every,
                               embed_clock=True)[0]
        read = 2 * len(ref.gate_events)
        if ref.timed_out or not 0 < -read % BLOCK <= ahead:
            continue
        near.append(seed)
        got = simulate_hit(kernel, u, [v], seed, embed_clock=True)
        assert (got.steps, got.t_hat, got.terminal) == (ref.steps, ref.t_hat, ref.terminal)
        assert clocks[-1][1] == read
    assert near
    # and for one of them the walk had drawn past the block it ended in
    assert any(d > -(-r // BLOCK) * BLOCK for d, r in clocks)


def test_windows_stay_within_4096_pairs(monkeypatch):
    asked = []
    bounce = dynamics._bounce

    def spy_bounce(win, arr, pos, pairs, *rest):
        asked.append(pairs)
        return bounce(win, arr, pos, pairs, *rest)

    monkeypatch.setattr(dynamics, "_bounce", spy_bounce)
    # at 1e6 r/(1 - r) is about 5e5, and the window would be 2^14 uncapped
    for lam, n, cap in ((1e4, 40, DEFAULT_STEP_CAP), (1e6, 3, 10**13)):
        _, space, kernel = setup("cycle:6", lam)
        asked.clear()
        sample_crossover(kernel, space.u_state, [space.v_state], n, base_seed=1,
                         step_cap=cap, embed_clock=True)
        assert asked and max(asked) <= 4096
    assert max(asked) == 4096


def test_window_sizes_from_the_return_probability():
    # sqrt(2 * 256 * r / (1 - r)), to the nearest power of two, at most 4096
    assert [_window(r) for r in (1 - 1 / 64, 0.998, 1 - 2e-4, 1 - 2e-6, 1.0)] == \
        [128, 512, 2048, 4096, 4096]
    _, space, kernel = setup("cycle:6", 1e3)
    assert kernel._wells[space.u_state][3] == 512


def test_threaded_batch_matches_reference():
    for spec, lam in (("ladder:4", 10.0), ("cycle:6", 1e3)):
        _, space, kernel = setup(spec, lam)
        got, _ = sample_crossover(kernel, space.u_state, [space.v_state], 40,
                                  base_seed=300, embed_clock=True, threads=2)
        # the walk's tables were built in this process, not once per worker
        assert {"_csr", "_sums", "_rows", "_wells"} <= vars(kernel).keys()
        assert got == [ref_simulate_hit(kernel, space.u_state, [space.v_state],
                                        300 + i, embed_clock=True)[0]
                       for i in range(40)]


E = 2.0 ** -7


def crafted_kernel(move_2=0.5):
    """Three states.  The well 0 moves to 1 or 2 with probability 1/2 each
    and never holds (log1p(-p_move) = -inf).  1 -> 0, 2 has its entry back to
    0 first, and 2 -> 1, 0 has it last; 2 moves with probability ``move_2``.
    Every running sum is dyadic, so a uniform can land exactly on one."""
    kernel = TransitionKernel(range(3), ModelParams(1.0, 1.0, 1.0))
    kernel.__dict__["_csr"] = (
        np.array([0, 2, 4, 6]), np.array([1, 2, 0, 2, 1, 0]),
        np.array([0.5, 0.5, 1 - E, E, E * move_2, (1 - E) * move_2]),
        np.array([2, 5, 0, 4, 3, 1]))
    return kernel


def scalar_pairs(kernel, b, buf, pairs, targets, room):
    """(pairs b -> y -> b, their steps) that the scalar step of
    ``simulate_hit`` takes from ``buf`` before a pair leaves b, reaches a
    target or passes ``room`` steps."""
    rows, indices, cum = kernel._rows
    steps = 0
    for j in range(pairs):
        state, taken = b, steps
        for hold, move in ((buf[4 * j], buf[4 * j + 1]), (buf[4 * j + 2], buf[4 * j + 3])):
            pm, log_stay, lo, last = rows[state]
            taken += int(math.log(hold) / log_stay) + 1
            state = indices[bisect_left(cum, move * pm, lo, last)]
            if taken > room or state in targets:
                return j, steps
        if state != b:
            return j, steps
        steps = taken
    return pairs, steps


# four uniforms per pair: hold and move at the well, hold and move at y
BACK_1 = [0.3, 0.5, 0.7, 1 - E]         # to 1 on the boundary cum = 1/2, back
                                        # on the boundary of 1's first entry
BACK_2 = [0.9, 0.75, 0.25, float(np.nextafter(E, 1))]   # to 2, back by its last
OUT_1 = [0.3, 0.2, 0.6, float(np.nextafter(1 - E, 1))]  # 1 -> 2
OUT_2 = [0.4, 0.6, 0.5, E]              # 2 -> 1 on the boundary cum = E/2


@pytest.mark.parametrize("buf, targets, room, accepted", [
    (BACK_1 * 3 + BACK_2 * 2 + OUT_1 + BACK_1, (), 10**6, 5),
    (BACK_2 + OUT_2 + BACK_2, (), 10**6, 1),
    ((BACK_1 + BACK_2) * 4, (), 10**6, 8),
    (BACK_1 * 2 + BACK_2 + BACK_1, (2,), 10**6, 2),      # y in targets
    ((BACK_2 + BACK_1) * 4, (), 12, 4),                  # 4 + 2 + 4 + 2 steps
    ([0.5, 0.5] + BACK_2 * 3, (), 10**6, 3),             # starts at pos 2
    ((BACK_2 + BACK_1) * 4, (), 24, 8),                  # the whole window's 24
    ((BACK_2 + BACK_1) * 4, (), 23, 7),
])
def test_bounce_window_matches_scalar_step(buf, targets, room, accepted):
    kernel = crafted_kernel()
    assert list(kernel._wells) == [0]
    pos = len(buf) % 4
    pairs = (len(buf) - pos) // 4
    pm, log_stay, _, _ = kernel._rows[0][0]
    assert log_stay == -math.inf
    got = _bounce(_Windows(kernel._wells, set(targets), None)[0], np.array(buf), pos,
                  pairs, pm, log_stay, room)
    assert got == scalar_pairs(kernel, 0, buf[pos:], pairs, targets, room)
    assert got[0] == accepted


def test_window_holds_take_math_log():
    """np.log differs from math.log on a few uniforms in a thousand.  For such
    a uniform, some log1p(-p_move) puts one quotient on an integer and the
    other just below it; the window must count the hold that math.log gives,
    as the scalar step does."""
    win = _Windows(crafted_kernel()._wells, set(), None)[0]
    found = []
    for h in (1.0 - np.random.default_rng(0).random(4000)).tolist():
        exact, other = math.log(h), float(np.log(np.array([h]))[0])
        found += [(h, ls) for k in range(1, 40) for ls in (exact / k, other / k)
                  if int(exact / ls) != int(other / ls)]
    if not found:
        pytest.skip("np.log agrees with math.log on these uniforms")
    for h, log_stay in found[:20]:
        buf = [h] + BACK_1[1:]
        assert _bounce(win, np.array(buf), 0, 1, 1.0, log_stay, 10**6) == \
            (1, int(math.log(h) / log_stay) + 2)


def nudge(f, x, target, up, down):
    """An x near ``x`` with f(x) == target, stepping x by one ulp toward
    ``up`` (where f rises) or ``down``; None if none is met."""
    for _ in range(400):
        got = f(x)
        if got == target:
            return x
        x = float(np.nextafter(x, up if got < target else down))
    return None


def integer_targets():
    """Every integer 1..40 and its neighbours one ulp below and above."""
    return [t for k in range(1, 41)
            for t in (float(np.nextafter(k, 0)), float(k), float(np.nextafter(k, 99)))]


def stream_uniforms(n, seed=7):
    return 1.0 - np.random.Generator(np.random.Philox(key=seed)).random(n)


def test_hold_truncation_with_a_column_at_integers():
    """Uniforms on which np.log and math.log differ, each with a log_stay
    that puts math.log's quotient on an integer or one ulp off it: there the
    two truncate differently unless the entry takes math.log."""
    u = stream_uniforms(20000)
    differ = u[np.log(u) != np.array([math.log(h) for h in u.tolist()])].tolist()
    assert len(differ) >= 20
    hs, cols = [], []
    for i, t in enumerate(integer_targets()):
        for h in differ[i:] + differ[:i]:   # not every quotient is met exactly
            ls = nudge(lambda x, h=h: math.log(h) / x, math.log(h) / t, t,
                       0.0, -math.inf)
            if ls is not None:
                hs.append(h)
                cols.append(ls)
                break
    assert len(hs) == 120
    got = _holds(np.array(hs), np.array(cols))
    assert got.tolist() == [int(math.log(h) / ls) for h, ls in zip(hs, cols)]
    # and in the (pairs, 2) layout of a window
    assert _holds(np.array(hs[:100]).reshape(50, 2), np.array(cols[:100]).reshape(50, 2)) \
        .ravel().tolist() == got[:100].tolist()


def test_hold_truncation_with_a_scalar_at_integers():
    met = set()
    for log_stay in (-1.3, -0.9, -0.77, -2.1, -1.7):
        hs = []
        for t in integer_targets():
            h = nudge(lambda x: math.log(x) / log_stay, math.exp(t * log_stay), t,
                      0.0, 1.0)
            if h is not None:
                hs.append(h)
                met.add(t)
        assert _holds(np.array(hs), log_stay).tolist() == \
            [int(math.log(h) / log_stay) for h in hs]
    assert len(met) == 120


def test_hold_truncation_at_the_extremes():
    ends = np.array([1.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53])
    for log_stay in (-math.inf, -1e-3, math.log1p(-0.5), -37.0 / 2.0 ** 48):
        assert _holds(ends, log_stay).tolist() == \
            [int(math.log(h) / log_stay) for h in ends.tolist()]
    column = np.array([-math.inf, -1e-3, -math.inf, -2.0])
    assert _holds(ends, column).tolist() == \
        [int(math.log(h) / ls) for h, ls in zip(ends.tolist(), column.tolist())]
    assert _holds(ends, -math.inf).tolist() == [0, 0, 0, 0]


def test_np_log_within_4_ulp_of_math_log():
    """The assumption behind the 2^-40 band of ``_holds``: should it fail,
    the band must be derived again, not this bound widened."""
    u = np.concatenate([stream_uniforms(10**6, seed=2024),
                        [1.0, 2.0 ** -53, 2.0 ** -52, 0.5, 1.0 - 2.0 ** -53]])
    exact = np.array([math.log(h) for h in u.tolist()])
    assert np.all(np.abs(np.log(u) - exact) <= 4 * np.spacing(np.abs(exact)))


@pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**64, 2**128 + 5, -1])
def test_rekeyed_stream_is_a_new_philox(seed):
    uni = _Uniforms().rekey(12345)
    uni.chunk()
    uni.rng.gamma(3.0)                  # leave the generator mid-buffer
    uni.rekey(seed)
    got = np.concatenate([uni.chunk() for _ in range(3)])
    clock = uni.block_end(len(got)).gamma(shape=1234.0, scale=0.5)
    ref = np.random.Generator(np.random.Philox(key=seed & ((1 << 128) - 1)))
    assert got.tolist() == (1.0 - ref.random(BLOCK))[:len(got)].tolist()
    assert clock == ref.gamma(shape=1234.0, scale=0.5)


def test_walks_back_to_back_share_one_stream():
    """One walker's stream, re-keyed per sample, after samples that time out
    mid-block or pass a block: the samples of new streams, seed by seed."""
    _, space, kernel = setup("cycle:6", 1e4)
    for cap in (DEFAULT_STEP_CAP, 3 * 10**9):
        walk = _walker(kernel, space.u_state, [space.v_state], cap, None, True)
        seeds = [200, 205, 200, 201, 9, 200]
        assert [walk(s) for s in seeds] == \
            [simulate_hit(kernel, space.u_state, [space.v_state], s, step_cap=cap,
                          embed_clock=True) for s in seeds]


def test_a_walk_leaves_a_live_stream_alone():
    """coupled_simulate draws lazily from its own stream; a walk run while
    that stream is half read does not move it."""
    _, space, kernel = setup("cycle:6", 1e3)
    draws = iter(_Uniforms().rekey(9))
    got = [next(draws) for _ in range(700)]
    simulate_hit(kernel, space.u_state, [space.v_state], 9, embed_clock=True)
    sample_crossover(kernel, space.u_state, [space.v_state], 3, base_seed=9)
    got += [next(draws) for _ in range(BLOCK)]
    ref = RefUniforms(9)
    assert got == [ref.next() for _ in range(len(got))]


def test_crafted_walks_match_reference():
    kernel = crafted_kernel()
    for seed in range(30):
        assert simulate_hit(kernel, 0, [2], seed) == \
            ref_simulate_hit(kernel, 0, [2], seed)[0]
        assert simulate_hit(kernel, 1, [2], seed, step_cap=40) == \
            ref_simulate_hit(kernel, 1, [2], seed, step_cap=40)[0]


def test_wells_where_the_walk_bounces():
    g, space, kernel = setup("cycle:6", 1e3, Fraction(7, 10))
    assert list(kernel._wells) == [space.u_state, space.v_state]
    u = space.u_state
    # criterion 6's gate watch touches no edge of u; watching one closes u
    watch = set(build_gate(g, Fraction(7, 10)).transition_indices(space))
    assert _Windows(kernel._wells, {space.v_state}, watch)[u] is not None
    y = kernel.row(u)[0][0]
    assert _Windows(kernel._wells, {space.v_state}, {(y, u)})[u] is None
    _, space, kernel = setup("cycle:6", 1e3)
    assert space.u_state in kernel._wells
    assert setup("ladder:4", 10.0)[2]._wells == {}
    # p_move(2) = 2e-14: holds at 2 reach 1.8e15 > 2^48 steps
    assert crafted_kernel(2e-14)._wells == {}
    # p_move(u) = 1e-30: a hold would overflow a window's int64 step sums
    _, space, kernel = setup("cycle:6", 1e20)
    assert kernel._wells == {}
    assert simulate_hit(kernel, space.u_state, [space.v_state], 1, step_cap=10**34) \
        == ref_simulate_hit(kernel, space.u_state, [space.v_state], 1, 10**34)[0]


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
