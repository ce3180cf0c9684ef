"""The U/V-preserving automorphism search and the orbit lumping built on it."""
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph

from hcmeta.configspace import ModelParams, enumerate_space
from hcmeta import potential
from hcmeta.graph import automorphism_generators, build_family
from hcmeta.potential import (_lump, build_network, effective_resistance,
                              expected_hitting_time, voltage)
from test_elimination import (LUMP_CASES, _case_network, _fixed_sets,
                              conductance_matrix, relabel)

HALF = Fraction(1, 2)


def closure_order(gens, n: int) -> int:
    """The order of the group the generators generate, by enumerating it."""
    seen = {tuple(range(n))}
    stack = list(seen)
    while stack:
        x = stack.pop()
        for p in gens:
            y = tuple(p[i] for i in x)
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen)


ORDERS = {"cycle:12": 12, "path:15": 2, "ladder:4": 24, "complete:2x3": 12,
          "ladder:8": 16, "torus:4x4": 192, "hypercube:4": 192}


@pytest.mark.parametrize("spec", sorted(ORDERS))
@pytest.mark.parametrize("relabelled", [False, True])
def test_generators_are_automorphisms_of_the_stated_group_order(spec, relabelled):
    g = build_family(spec)
    if relabelled:
        g = relabel(g, 5)
    gens = automorphism_generators(g)
    edges = set(g.edges)
    for p in gens:
        assert sorted(p) == list(range(g.n_sites))
        assert {p[a] for a in g.u_sites} == set(g.u_sites)
        assert {p[b] for b in g.v_sites} == set(g.v_sites)
        assert {tuple(sorted((p[a], p[b]))) for a, b in edges} == edges
    assert closure_order(gens, g.n_sites) == ORDERS[spec]


ORBITS = {"cycle:12": 47, "path:15": 826, "ladder:4": 10, "torus:4x4": 39,
          "ladder:8": 111, "torus:4x6": 659}


@pytest.mark.parametrize("spec", sorted(ORBITS))
def test_orbit_counts_of_u_and_v(spec):
    g = build_family(spec)
    spc = enumerate_space(g)
    net = build_network(spc, ModelParams.for_graph(g, 100.0, alpha=HALF))
    lumped, orbit = _lump(net, frozenset({spc.u_state}), frozenset({spc.v_state}))
    assert len(lumped) == orbit.max() + 1 == ORBITS[spec]
    # u and v are fixed by every automorphism that keeps U and V apart
    assert (orbit == orbit[spc.u_state]).sum() == (orbit == orbit[spc.v_state]).sum() == 1
    assert lumped.pi.sum() == pytest.approx(1.0, rel=1e-14)


def _unlumped(net):
    """The same network with no symmetries, so every solve runs unlumped."""
    out = net.with_scaled_edge(int(net.edge_i[0]), int(net.edge_j[0]), 1.0)
    out.__dict__["symmetries"] = []
    return out


def _assert_same_solves(net, A, B, a):
    ref = _unlumped(net)
    w, w_ref = voltage(net, A, B), voltage(ref, A, B)
    assert w.orbits < w_ref.orbits == len(net)
    np.testing.assert_allclose(w.values, w_ref.values, rtol=1e-12, atol=1e-300)
    assert w.harmonic_residual < 1e-12
    assert effective_resistance(net, A, B) == pytest.approx(
        effective_resistance(ref, A, B), rel=1e-12)
    ht, ht_ref = expected_hitting_time(net, a, B), expected_hitting_time(ref, a, B)
    assert ht.value == pytest.approx(ht_ref.value, rel=1e-12)
    assert ht.first_step == pytest.approx(ht_ref.first_step, rel=1e-12)


def test_pair_the_group_does_not_fix():
    # A: one particle on a U site of cycle:8.  Only the generators that fix
    # it lump, and A's voltage is not the u-to-v one.
    g = build_family("cycle:8")
    spc = enumerate_space(g)
    net = build_network(spc, ModelParams.for_graph(g, 1e3, alpha=HALF))
    a = spc.require(1 << g.u_sites[0])
    A, B = frozenset({a}), frozenset({spc.v_state})
    assert any(p[a] != a for p in net.symmetries)
    assert len(_lump(net, A, B)[0]) > len(_lump(net, {spc.u_state}, B)[0])
    _assert_same_solves(net, A, B, a)


def test_complete_6x6_search_and_solves():
    g = build_family("complete:6x6")
    t0 = time.perf_counter()
    gens = automorphism_generators(g)
    assert time.perf_counter() - t0 < 1.0
    assert len(gens) <= 2 * sum(range(6))      # one per (level, image) at most
    spc = enumerate_space(g)
    net = build_network(spc, ModelParams.for_graph(g, 1e4, alpha=HALF))
    u, v = spc.u_state, spc.v_state
    _assert_same_solves(net, frozenset({u}), frozenset({v}), u)


def test_edited_network_keeps_only_its_own_symmetries():
    # a scaled edge breaks the automorphisms that move it; those that fix it
    # still lump, and the answers match the unlumped network
    g = build_family("cycle:8")
    spc = enumerate_space(g)
    net = build_network(spc, ModelParams.for_graph(g, 100.0, alpha=HALF))
    e = int(np.flatnonzero(net.edge_i == spc.empty_index)[0])
    edited = net.with_scaled_edge(int(net.edge_i[e]), int(net.edge_j[e]), 3.0)
    assert 0 < len(edited.symmetries) < len(net.symmetries)
    u, v = spc.u_state, spc.v_state
    _assert_same_solves(edited, frozenset({u}), frozenset({v}), u)


@pytest.mark.parametrize("case", LUMP_CASES)
def test_orbits_are_the_components_of_the_permutation_graph(case):
    # the orbits and their numbering are those of csgraph's connected
    # components of x ~ p(x) over the kept symmetries
    spc, net = _case_network(case, 100.0)
    n = len(net)
    for fixed in _fixed_sets(spc):
        perms = [p for p in net.symmetries
                 if all(set(p[sorted(s)].tolist()) == s for s in fixed)]
        assert perms
        moves = sp.coo_matrix((np.ones(n * len(perms)),
                               (np.tile(np.arange(n), len(perms)), np.concatenate(perms))),
                              shape=(n, n))
        k, want = csgraph.connected_components(moves, directed=False)
        lumped, orbit = _lump(net, *fixed)
        assert len(lumped) == k < n
        assert orbit.tolist() == want.tolist()


@pytest.mark.parametrize("case", LUMP_CASES)
def test_kept_symmetries_preserve_pi_and_every_conductance(case):
    # each kept permutation maps the edge set onto itself with the same
    # conductances and keeps pi: an automorphism of the chain
    spc, net = _case_network(case, 100.0)
    n = len(net)
    key = net.edge_i * n + net.edge_j
    order = np.argsort(key)
    key, c = key[order], net.edge_c[order]
    assert net.symmetries
    for p in net.symmetries:
        assert np.array_equal(np.sort(p), np.arange(n))
        assert (net.pi[p] == net.pi).all()
        i, j = p[net.edge_i], p[net.edge_j]
        moved = np.minimum(i, j) * n + np.maximum(i, j)
        at = np.minimum(np.searchsorted(key, moved), len(key) - 1)
        assert (key[at] == moved).all()
        assert (c[at] == net.edge_c).all()


@pytest.mark.parametrize("case,lam", [(c, 100.0) for c in LUMP_CASES]
                         + [("cycle:12", 1e40)])
def test_harmonic_residual_matches_csr_matvec(monkeypatch, case, lam):
    # the residual from the edge arrays against the CSR mat-vec one, over the
    # interior states of positive degree; at 1e40 some states are isolated.
    # A perturbed solve checks that a voltage that is not harmonic shows.
    spc, net = _case_network(case, lam)
    C = conductance_matrix(net)
    deg = np.asarray(C.sum(axis=1)).ravel()
    assert (deg == 0).any() == (lam > 1e30)
    star_mesh = potential._star_mesh

    def perturbed(lumped, A, B):
        k, W, m = star_mesh(lumped, A, B)
        return k, W + eps * np.sin(np.arange(len(W))), m

    monkeypatch.setattr(potential, "_star_mesh", perturbed)
    for eps in (0.0, 1e-3):
        for A, B in (f for f in _fixed_sets(spc) if len(f) == 2):
            w = voltage(net, A, B)
            interior = np.setdiff1d(np.flatnonzero(deg > 0), list(A | B))
            avg = (C[interior, :] @ w.values) / deg[interior]
            want = np.abs(w.values[interior] - avg).max()
            assert abs(w.harmonic_residual - want) <= 1e-15
            assert (want > 1e-6) == (eps > 0)
