import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from hcmeta.asymptotics import AsymptoticExponent
from hcmeta.configspace import CapExceeded, ModelParams, enumerate_space
from hcmeta.dynamics import build_kernel, simulate_hit
from hcmeta.graph import build_family
from hcmeta.potential import (build_network, critical_resistance,
                              effective_resistance, escape_probability,
                              expected_hitting_time, green_by_visits,
                              green_function, nash_williams_bounds,
                              psi_symbolic, voltage, voltage_bound_check)
from test_elimination import conductance_matrix

HALF = Fraction(1, 2)


def _net(spec: str, lam: float, alpha=HALF, lam_bar=None):
    g = build_family(spec)
    spc = enumerate_space(g)
    par = ModelParams.for_graph(g, lam, alpha=alpha, lam_bar=lam_bar)
    return spc, par, build_network(spc, par)


def test_conductance_formula_and_symmetry():
    spc, par, net = _net("complete:1x1", 10.0, lam_bar=20.0)
    empty, u0 = spc.empty_index, spc.require(0b01)
    c = {(i, j): cv for i, j, cv in net.edges()}
    want = net.pi[u0] / par.gamma                  # max(pi)/gamma since lam > 1
    got = c[tuple(sorted((empty, u0)))]
    assert got == pytest.approx(want, rel=1e-14)


def test_edge_count_equals_flippable_pairs():
    spc, par, net = _net("cycle:6", 5.0)
    pairs = 0
    for m in spc.configs:
        for site in range(spc.graph.n_sites):
            bit = 1 << site
            if not (m & bit) and not (m & spc.neighbor_masks[site]):
                pairs += 1            # each edge counted once from its add side
    assert net.n_edges == pairs


def test_voltage_boundary_and_harmonicity():
    spc, par, net = _net("cycle:6", 50.0)
    u, v = spc.u_state, spc.v_state
    w = voltage(net, {u}, {v})
    assert w.values[u] == 1.0 and w.values[v] == 0.0
    interior = [i for i in range(len(spc)) if i not in (u, v)]
    assert all(0.0 < w.values[i] < 1.0 for i in interior)
    assert w.harmonic_residual < 1e-10


def test_voltage_monte_carlo_cross_check():
    spc, par, net = _net("complete:2x3", 5.0)
    u, v = spc.u_state, spc.v_state
    kern = build_kernel(spc, par)
    x = next(i for i in range(len(spc)) if i not in (u, v))
    w = voltage(net, {u}, {v})
    n = 4000
    hits = 0
    for i in range(n):
        s = simulate_hit(kern, x, [u, v], seed=100_000 + i)
        hits += s.terminal == u
    p_hat = hits / n
    se = math.sqrt(max(p_hat * (1 - p_hat), 1e-9) / n)
    assert abs(p_hat - w.values[x]) <= 3 * se


def test_effective_resistance_series_closed_form():
    for (m, n) in ((2, 3), (3, 4)):
        for lam in (10.0, 100.0):
            lbar = lam ** 1.5
            spc, par, net = _net(f"complete:{m}x{n}", lam, lam_bar=lbar)
            z = (1 + lam) ** m + (1 + lbar) ** n - 1
            want = sum(z * par.gamma / (i * math.comb(m, i) * lam ** i)
                       for i in range(1, m + 1))
            want += sum(z * par.gamma / (j * math.comb(n, j) * lbar ** j)
                        for j in range(1, n + 1))
            r = effective_resistance(net, {spc.u_state}, {spc.v_state})
            assert r == pytest.approx(want, rel=1e-9)


def test_resistance_two_node_network():
    spc, par, net = _net("complete:1x1", 10.0, lam_bar=20.0)
    empty, u0 = spc.empty_index, spc.require(0b01)
    c = {(i, j): cv for i, j, cv in net.edges()}
    r_edge = 1.0 / c[tuple(sorted((empty, u0)))]
    # contracting everything except the two nodes of one resistor
    r = effective_resistance(net, {u0}, {empty, spc.require(0b10)})
    assert r == pytest.approx(r_edge, rel=1e-12)


def test_rayleigh_monotonicity_spot():
    spc, par, net = _net("cycle:6", 7.0)
    u, v = spc.u_state, spc.v_state
    r0 = effective_resistance(net, {u}, {v})
    i, j = int(net.edge_i[0]), int(net.edge_j[0])
    r1 = effective_resistance(net.with_scaled_edge(i, j, 2.0), {u}, {v})
    assert r1 <= r0 * (1 + 1e-12)


def test_star_mesh_agrees_with_lu_route():
    from hcmeta import potential
    from test_elimination import ref_lu_voltage

    spc, par, net = _net("complete:2x3", 8.0)
    a, b = frozenset({spc.u_state}), frozenset({spc.v_state})
    w = ref_lu_voltage(net, a, b)
    # R is 1 / the current into b, where w is 0
    lu = 1.0 / sum(c * (w[i] + w[j]) for i, j, c in net.edges() if (i in b) != (j in b))
    assert 1.0 / potential._star_mesh(net, a, b)[0] == pytest.approx(lu, rel=1e-11)
    assert effective_resistance(net, a, b) == pytest.approx(lu, rel=1e-11)


def test_escape_probability_identities():
    spc, par, net = _net("complete:1x1", 10.0, lam_bar=20.0)
    empty, u0, v0 = spc.empty_index, spc.require(0b01), spc.require(0b10)
    # three-state hand solve: from empty, escape to {u0} before returning:
    # Pr = K(empty,u0) since hitting u0 in one step is the only way that
    # avoids returning to empty first... not quite: compute via the chain.
    f, d = escape_probability(net, empty, {u0})
    kern = build_kernel(spc, par)
    # hand solve: W(x) = Pr_x(T_{u0} < T_{empty}); W(v0) = 0 (must pass empty)
    # escape = K(e,u0)*1 + K(e,v0)*0 + K(e,e)*0
    hand = kern.prob(empty, u0)
    assert f == pytest.approx(hand, rel=1e-12)
    assert d == pytest.approx(hand, rel=1e-12)
    # B = all configuration-graph neighbors of a: the escape equals the total
    # move probability (the lazy kernel's self-loop counts as a return).
    nbrs = set(kern.row(empty)[0])
    f2, d2 = escape_probability(net, empty, nbrs)
    p_move = 1.0 - kern.self_loop(empty)
    assert f2 == pytest.approx(p_move, rel=1e-12)
    assert d2 == pytest.approx(p_move, rel=1e-12)


def test_escape_monte_carlo_cross_check():
    spc, par, net = _net("cycle:6", 4.0)
    u, v = spc.u_state, spc.v_state
    f, d = escape_probability(net, u, {v})
    assert abs(f - d) <= 1e-10 * max(f, d)
    # Monte Carlo: draw one kernel step from u (self-loop counts as a
    # return), then race v against a return to u.
    kern = build_kernel(spc, par)
    rng = np.random.default_rng(77)
    n = 4000
    hits = 0
    cum = np.cumsum([kern.self_loop(u)] + kern.row(u)[1])
    targets = [u] + kern.row(u)[0]
    for i in range(n):
        first = targets[int(np.searchsorted(cum, rng.random()))]
        if first == u:
            continue
        s = simulate_hit(kern, first, [u, v], seed=600_000 + i)
        hits += s.terminal == v
    p_hat = hits / n
    se = math.sqrt(p_hat * (1 - p_hat) / n)
    assert abs(p_hat - f) <= 3 * se


def test_green_function_identities():
    spc, par, net = _net("cycle:6", 6.0)
    u, v = spc.u_state, spc.v_state
    gf = green_function(net, u, {v})
    assert gf[v] == 0.0
    assert np.all(gf >= -1e-15)
    gv = green_by_visits(net, u, {v})
    assert np.max(np.abs(gf - gv)) <= 1e-9 * np.max(gv)
    ht = expected_hitting_time(net, u, {v})
    assert gf.sum() == pytest.approx(ht.value, rel=1e-9)


def test_green_by_visits_matches_a_sparse_lu_reference():
    # criterion 10's 20 random instances and lambdas: the dense solve
    # against scipy's sparse LU of the same transposed first-step matrix
    sp = pytest.importorskip("scipy.sparse")
    spla = pytest.importorskip("scipy.sparse.linalg")
    from hcmeta.verify import _random_instances
    rng = np.random.default_rng(12345)
    for g, spc in _random_instances():
        lam = float(3.0 + 7.0 * rng.random())
        net = build_network(spc, ModelParams.for_graph(g, lam, alpha=HALF))
        u, v = spc.u_state, spc.v_state
        keep = np.array([x for x in range(len(spc)) if x != v])
        pos = np.full(len(spc), -1)
        pos[keep] = np.arange(len(keep))
        rows, cols, probs = net.kernel.offdiag_coo()
        live = (rows != v) & (cols != v)
        m = sp.coo_matrix((np.concatenate([net.kernel.p_move[keep], -probs[live]]),
                           (np.concatenate([pos[keep], pos[cols[live]]]),
                            np.concatenate([pos[keep], pos[rows[live]]]))),
                          shape=(len(keep), len(keep))).tocsc()
        rhs = np.zeros(len(keep))
        rhs[pos[u]] = 1.0
        want = np.zeros(len(spc))
        want[keep] = spla.splu(m).solve(rhs)
        got = green_by_visits(net, u, {v})
        assert np.array_equal(got == 0, want == 0)
        nz = want != 0
        assert np.max(np.abs(got[nz] / want[nz] - 1)) <= 1e-12
        for _ in range(20):                   # criterion 10's reciprocity draws
            rng.integers(0, len(spc)), rng.integers(0, len(spc))


def test_green_reciprocity_100_pairs():
    spc, par, net = _net("complete:2x3", 7.0)
    v = spc.v_state
    rnd = random.Random(3)
    greens = {}
    for _ in range(100):
        x, y = rnd.randrange(len(spc)), rnd.randrange(len(spc))
        if v in (x, y):
            continue
        if x not in greens:
            greens[x] = green_function(net, x, {v})
        if y not in greens:
            greens[y] = green_function(net, y, {v})
        lhs = net.pi[x] * greens[x][y]
        rhs = net.pi[y] * greens[y][x]
        if lhs or rhs:
            assert abs(lhs - rhs) <= 1e-10 * max(lhs, rhs)


def test_hitting_order_reciprocity():
    # R(x,Z) Pr_y(T_x < T_Z) = R(y,Z) Pr_x(T_y < T_Z) on random triples.
    spc, par, net = _net("ladder:4", 5.0)
    rnd = random.Random(4)
    for _ in range(20):
        x, y, z = rnd.sample(range(len(spc)), 3)
        rx = effective_resistance(net, {x}, {z})
        ry = effective_resistance(net, {y}, {z})
        wy = voltage(net, {x}, {z}).values[y]        # Pr_y(T_x < T_z)
        wx = voltage(net, {y}, {z}).values[x]
        lhs, rhs = rx * wy, ry * wx
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1e-300)


def test_expected_hitting_time_examples():
    # cycle at lambda = 1e4: ratio within [0.95, 1.05]
    spc, par, net = _net("cycle:6", 1e4)
    ht = expected_hitting_time(net, spc.u_state, {spc.v_state})
    assert 0.95 <= ht.continuous(par) / (1e4 / 6) <= 1.05
    # a in B -> 0
    assert expected_hitting_time(net, spc.u_state, {spc.u_state}).value == 0.0
    # two routes agree at moderate stiffness
    spc, par, net = _net("cycle:6", 8.0)
    ht = expected_hitting_time(net, spc.u_state, {spc.v_state})
    assert ht.rel_gap <= 1e-9


def test_ladder_sharp_mean():
    spc, par, net = _net("ladder:4", 1e3, alpha=Fraction(7, 10))
    ht = expected_hitting_time(net, spc.u_state, {spc.v_state})
    assert 0.9 <= ht.continuous(par) / (1e3 ** 2 / 12) <= 1.1


def test_critical_resistance_k23_formula():
    spc, par, net = _net("complete:2x3", 10.0)
    u, v = spc.u_state, spc.v_state
    psi = critical_resistance(net, {u}, {v})
    want = par.gamma / (par.lam * net.pi[spc.empty_index])
    assert psi.value == pytest.approx(want, rel=1e-12)
    # witness path realizes the bottleneck
    path = psi.witness_path
    assert path[0] == u and path[-1] == v


def test_zero_conductance_edges_are_absent():
    from hcmeta import potential

    spc, par, net = _net("complete:1x1", 10.0, lam_bar=20.0)
    empty, u0, v0 = spc.empty_index, spc.require(0b01), spc.require(0b10)
    cut = net.with_scaled_edge(empty, u0, 0.0)
    for solve in (effective_resistance, critical_resistance):
        with pytest.raises(ValueError, match="A and B are disconnected"):
            solve(cut, {u0}, {v0})
    spc, par, net = _net("cycle:6", 7.0)
    u, v = spc.u_state, spc.v_state
    cut = net
    for i, j, _ in net.edges():             # every edge at u cut
        if u in (i, j):
            cut = cut.with_scaled_edge(i, j, 0.0)
    for solve in (effective_resistance, critical_resistance):
        with pytest.raises(ValueError, match="A and B are disconnected"):
            solve(cut, {u}, {v})
    # u is cut off: its pivot row sums to 0, and x(u) is its h = 0
    E = potential._eliminate(cut, ({v},)).solve((0.0,), mass=cut.pi)
    assert E[u] == 0.0 and np.isfinite(E).all()
    # a zero edge elsewhere is no bottleneck: Psi(v, empty) keeps its value
    want = critical_resistance(net, {v}, {spc.empty_index})
    got = critical_resistance(cut, {v}, {spc.empty_index})
    assert (got.value, got.witness_path, got.bottleneck_edge) == \
        (want.value, want.witness_path, want.bottleneck_edge)


def test_isolated_interior_state_gets_zero_voltage():
    # at lambda = 1e40, 42 of cycle:12's 1,068 conductances underflow to 0
    # and cut some interior states off; u still reaches v
    spc, par, net = _net("cycle:12", 1e40)
    u, v = spc.u_state, spc.v_state
    isolated = np.flatnonzero(conductance_matrix(net).sum(axis=1) == 0)
    assert len(isolated) and u not in isolated and v not in isolated
    w = voltage(net, {u}, {v})
    assert (w.values[isolated] == 0).all() and w.harmonic_residual < 1e-10
    ht = expected_hitting_time(net, u, {v})
    assert 0 < ht.value < np.inf and ht.rel_gap <= 1e-12
    assert np.isfinite(effective_resistance(net, {u}, {v}))


def test_dense_tail_beyond_available_memory_refused(monkeypatch):
    from hcmeta import potential

    # cycle:12 lumps to 47 orbits: 16 (L + 2) bytes would fit in 1,000, the
    # dense tail, one column block of its trailing product and the panel
    # inverses, 8 ((L + 2) (L + 2 + BLOCK) + L PANEL) bytes, do not
    spc, par, net = _net("cycle:12", 100.0)
    u, v = spc.u_state, spc.v_state
    monkeypatch.setattr(potential, "_available_memory", lambda: 1000)
    refused = r"tail of L = \d+ nodes needs [\d,]+ bytes; 1,000 bytes are available"
    with pytest.raises(CapExceeded, match=refused) as info:
        effective_resistance(net, {u}, {v})
    with pytest.raises(CapExceeded, match=refused):
        expected_hitting_time(net, u, {v})
    # exactly the tail's bytes available: the sparse front's store and pair
    # arrays do not fit beside it
    tail = re.search(r"tail of L = \d+ nodes needs ([\d,]+) bytes", str(info.value))
    monkeypatch.setattr(potential, "_available_memory",
                        lambda: int(tail.group(1).replace(",", "")))
    with pytest.raises(CapExceeded, match=r"front of \d+ pivots needs [\d,]+ bytes"):
        effective_resistance(net, {u}, {v})


def test_voltage_residual_under_stiffness():
    # the elimination keeps the harmonic residual tiny even when the
    # conductance spread is lambda^Delta sized
    spc, par, net = _net("cycle:6", 1e4)
    w = voltage(net, {spc.u_state}, {spc.v_state})
    assert w.harmonic_residual < 1e-10
    spc, par, net = _net("ladder:4", 1e4, alpha=Fraction(7, 10))
    w = voltage(net, {spc.u_state}, {spc.v_state})
    assert w.harmonic_residual < 1e-10


@pytest.mark.parametrize("spec", ["cycle:6", "complete:2x3", "ladder:4"])
def test_psi_ultrametric(spec):
    spc, par, net = _net(spec, 6.0)
    n = len(spc)
    psis = {}
    for x in range(n):
        for y in range(x + 1, n):
            psis[(x, y)] = critical_resistance(net, {x}, {y}).value

    def p(x, y):
        if x == y:
            return 0.0
        return psis[(min(x, y), max(x, y))]

    for x in range(n):
        for y in range(n):
            assert p(x, y) == p(y, x)
            for z in range(n):
                assert p(x, z) <= max(p(x, y), p(y, z)) * (1 + 1e-12)


def test_sandwich_on_random_instances():
    rnd = random.Random(5)
    for seed in range(5):
        g = build_family(f"random:4x4:0.5:{seed}")
        spc = enumerate_space(g)
        par = ModelParams.for_graph(g, 3.0 + seed, alpha=HALF)
        net = build_network(spc, par)
        u, v = spc.u_state, spc.v_state
        r = effective_resistance(net, {u}, {v})
        psi = critical_resistance(net, {u}, {v}).value
        n2 = len(spc) ** 2
        assert psi / n2 <= r * (1 + 1e-12)
        assert r <= psi * n2 * (1 + 1e-12)


def test_psi_symbolic_cycle_and_tie():
    g = build_family("cycle:6")
    spc = enumerate_space(g)
    sym = psi_symbolic(spc, {spc.u_state}, {spc.v_state}, HALF)
    wu = spc.weight_exponent(spc.u_mask)
    assert sym.normalized_exponent(wu) == AsymptoticExponent(1, 0)
    assert not sym.is_tie
    # on the odd path at alpha = 1/2, lambda^3 = lambda_bar^2 ties orders
    g = build_family("path:6")
    spc = enumerate_space(g)
    from hcmeta.metastability import dominance_sets
    ju, _ = dominance_sets(spc, spc.u_state, HALF)
    sym = psi_symbolic(spc, {spc.u_state}, ju, HALF)
    assert sym.is_tie


def test_nash_williams_single_path_series_exact():
    spc, par, net = _net("complete:1x1", 10.0, lam_bar=20.0)
    empty, u0, v0 = spc.empty_index, spc.require(0b01), spc.require(0b10)
    r = effective_resistance(net, {u0}, {v0})
    lo, hi = nash_williams_bounds(net, {u0}, {v0}, {u0, empty},
                                  [[u0, empty, v0]])
    assert lo == pytest.approx(1.0 / r, rel=1e-12)      # series network: exact
    assert 1.0 / r <= hi * (1 + 1e-12)
    # cut = {A}: upper equals the total conductance out of A
    c = {(i, j): cv for i, j, cv in net.edges()}
    lo2, hi2 = nash_williams_bounds(net, {u0}, {v0}, {u0}, [[u0, empty, v0]])
    assert hi2 == pytest.approx(c[tuple(sorted((u0, empty)))], rel=1e-14)


def test_nash_williams_gate_cut_tightness_k23():
    lam = 1e4
    spc, par, net = _net("complete:2x3", lam)
    u, v = spc.u_state, spc.v_state
    # cut: all configurations with at least one particle on U
    cut = {i for i, m in enumerate(spc.configs) if m & spc.u_mask}
    r = effective_resistance(net, {u}, {v})
    lo, hi = nash_williams_bounds(net, {u}, {v}, cut,
                                  [critical_resistance(net, {u}, {v}).witness_path])
    c_exact = 1.0 / r
    assert lo <= c_exact <= hi
    assert hi <= c_exact * (1 + 10 / math.sqrt(lam))


def test_nash_williams_invalid_inputs_rejected():
    spc, par, net = _net("complete:1x1", 10.0, lam_bar=20.0)
    empty, u0, v0 = spc.empty_index, spc.require(0b01), spc.require(0b10)
    with pytest.raises(ValueError, match="does not contain A"):
        nash_williams_bounds(net, {u0}, {v0}, {empty}, [])
    with pytest.raises(ValueError, match="intersects B"):
        nash_williams_bounds(net, {u0}, {v0}, {u0, v0}, [])
    with pytest.raises(ValueError, match="non-edge"):
        nash_williams_bounds(net, {u0}, {v0}, {u0}, [[u0, v0]])


def test_nash_williams_opposite_direction_rejected():
    spc, par, net = _net("complete:2x3", 5.0)
    u, v = spc.u_state, spc.v_state
    empty = spc.empty_index
    ix = spc.require
    u1 = ix(spc.u_mask & -spc.u_mask)                 # one U particle
    v_sites = list(spc.graph.v_sites)
    b1, b2, b3 = (1 << s for s in v_sites)
    # path1 places b1 then b2; path2 walks through {b1,b2} backwards to {b1}.
    p1 = [u, u1, empty, ix(b1), ix(b1 | b2), v]
    p2 = [u, ix(spc.u_mask ^ (spc.u_mask & -spc.u_mask)), empty,
          ix(b2), ix(b1 | b2), ix(b1), ix(b1 | b3), v]
    with pytest.raises(ValueError, match="opposite directions"):
        nash_williams_bounds(net, {u}, {v}, {i for i in range(len(spc))} - {v},
                             [p1, p2])


def test_voltage_bounds_hold():
    for seed in range(3):
        g = build_family(f"random:3x4:0.6:{seed}")
        spc = enumerate_space(g)
        par = ModelParams.for_graph(g, 5.0, alpha=HALF)
        net = build_network(spc, par)
        u, v = spc.u_state, spc.v_state
        for x in range(len(spc)):
            if x in (u, v):
                continue
            rep = voltage_bound_check(net, {u}, {v}, x)
            assert rep.all_ok


def test_voltage_bound_tight_near_ground():
    # x adjacent to B with huge conductance: W near 0 and upper bound tight.
    spc, par, net = _net("cycle:6", 1e3)
    u, v = spc.u_state, spc.v_state
    kern = build_kernel(spc, par)
    x = kern.row(v)[0][0]          # a configuration one flip from v
    rep = voltage_bound_check(net, {u}, {v}, x)
    assert rep.all_ok and rep.w < 1e-2
