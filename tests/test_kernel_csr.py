"""The array builds of the space, kernel, network and critical resistance
against per-state reference loops kept here: every output must be equal,
float for float."""
import random
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest

from hcmeta.configspace import CapExceeded, ModelParams, enumerate_space
from hcmeta.dynamics import build_kernel, simulate_hit
from hcmeta.graph import BipartiteGraph, build_family
from hcmeta.potential import (BottleneckTree, _components, _lump, build_network,
                              critical_resistance, effective_resistance,
                              escape_probability, expected_hitting_time,
                              green_by_visits, psi_symbolic)

SPECS = ["cycle:8", "ladder:6", "torus:4x4", "hypercube:3", "complete:2x3",
         "random:4x4:0.4:3"]


def relabel(g: BipartiteGraph, seed: int) -> BipartiteGraph:
    """An isomorphic copy with the sites shuffled within U and within V."""
    rng = random.Random(seed)
    u, v = list(g.u_sites), list(g.v_sites)
    rng.shuffle(u)
    rng.shuffle(v)
    new = {old: k for k, old in enumerate(u)}
    new.update({old: len(u) + k for k, old in enumerate(v)})
    return BipartiteGraph.from_parts(
        len(u), len(v), [(new[a], new[b]) for a, b in g.edges])


def ref_configs(g: BipartiteGraph) -> list[int]:
    """Depth-first enumeration over sites in ascending order, then sorted."""
    n = g.n_sites
    nbr = [g.neighbor_mask(a) for a in range(n)]
    out = []
    stack = [(0, 0, 0)]
    while stack:
        site, mask, blocked = stack.pop()
        while site < n and (blocked >> site) & 1:
            site += 1
        if site == n:
            out.append(mask)
            continue
        stack.append((site + 1, mask | (1 << site), blocked | nbr[site]))
        stack.append((site + 1, mask, blocked))
    return sorted(out)


def ref_kernel(space, params):
    """Per state, per site: (targets, probs, cum) rows and p_move."""
    g = space.graph
    index = {m: i for i, m in enumerate(space.configs)}
    p_add_u = params.lam / params.gamma
    p_add_v = params.lam_bar / params.gamma
    p_rem = 1.0 / params.gamma
    rows = []
    for mask in space.configs:
        targets, probs, cum = [], [], []
        acc = 0.0
        for site in range(g.n_sites):
            bit = 1 << site
            if mask & bit:
                targets.append(index[mask ^ bit])
                probs.append(p_rem)
            elif not mask & g.neighbor_mask(site):
                targets.append(index[mask | bit])
                probs.append(p_add_u if bit & space.u_mask else p_add_v)
            else:
                continue
            acc += probs[-1]
            cum.append(acc)
        rows.append((targets, probs, cum, acc))
    return rows


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry


def ref_critical(net, A, B):
    """Kruskal over the edges by descending conductance (ties in edge order)
    until A meets B, then a breadth-first witness path on the edges at or
    above the bottleneck, from A in ascending order, neighbours in edge
    order."""
    n = len(net)
    uf = _UnionFind(n + 2)
    for a in A:
        uf.union(a, n)
    for b in B:
        uf.union(b, n + 1)
    for idx in np.argsort(-net.edge_c, kind="stable"):
        uf.union(int(net.edge_i[idx]), int(net.edge_j[idx]))
        if uf.find(n) == uf.find(n + 1):
            break
    c_star = float(net.edge_c[idx])
    adj = [[] for _ in range(n)]
    for i, j, c in zip(net.edge_i, net.edge_j, net.edge_c):
        if c >= c_star * (1.0 - 1e-15):
            adj[int(i)].append(int(j))
            adj[int(j)].append(int(i))
    frontier = sorted(A)
    prev = {a: -1 for a in frontier}
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y in prev:
                    continue
                prev[y] = x
                if y in B:
                    path = [y]
                    while prev[path[-1]] != -1:
                        path.append(prev[path[-1]])
                    return (1.0 / c_star, path[::-1],
                            (int(net.edge_i[idx]), int(net.edge_j[idx])))
                nxt.append(y)
        frontier = nxt
    raise AssertionError("no path")


CASES = [(spec, build_family(spec)) for spec in SPECS] + [
    (spec + "~7", relabel(build_family(spec), 7)) for spec in SPECS]


@pytest.mark.parametrize("label,g", CASES, ids=[label for label, _ in CASES])
def test_array_build_matches_loops(label, g):
    space = enumerate_space(g)
    assert space.configs == ref_configs(g)
    assert space.masks.dtype == np.int64
    params = ModelParams.for_graph(g, 50.0, Fraction(1, 2))
    kernel = build_kernel(space, params)
    ref = ref_kernel(space, params)
    assert kernel.indptr.tolist() == np.cumsum(
        [0] + [len(r[0]) for r in ref]).tolist()
    assert kernel.indices.tolist() == [t for r in ref for t in r[0]]
    assert kernel.probs.tolist() == [p for r in ref for p in r[1]]
    assert kernel.cum.tolist() == [c for r in ref for c in r[2]]
    assert kernel.p_move.tolist() == [r[3] for r in ref]
    assert kernel.row(space.u_state) == tuple(ref[space.u_state][:2])
    # a site's rows of the move table, in state order, are its removals
    emptied, occupied, sites = space.moves
    for site in range(g.n_sites):
        occ, emp = occupied[sites == site], emptied[sites == site]
        want = np.flatnonzero((space.masks >> site) & 1)
        assert occ.dtype == want.dtype and occ.tobytes() == want.tobytes()
        want = np.searchsorted(space.masks, space.masks[want] ^ (1 << site))
        assert emp.dtype == want.dtype and emp.tobytes() == want.tobytes()

    lw = np.array([(m & space.u_mask).bit_count() * np.log(params.lam)
                   + (m & space.v_mask).bit_count() * np.log(params.lam_bar)
                   for m in space.configs])
    w = np.exp(lw - lw.max())
    ei = [i for i, r in enumerate(ref) for t in r[0] if i < t]
    ej = [t for i, r in enumerate(ref) for t in r[0] if i < t]
    # a network takes its edges from the move table whether or not its
    # kernel's CSR has been read (here it has)
    for net in (build_network(space, params), build_network(space, params, kernel)):
        assert net.pi.tolist() == (w / w.sum()).tolist()
        ec = [net.pi[i] * p for i, r in enumerate(ref) for t, p in zip(r[0], r[1])
              if i < t]
        assert net.edge_i.dtype == net.edge_j.dtype == np.int64
        assert net.edge_i.tolist() == ei
        assert net.edge_j.tolist() == ej
        assert net.edge_c.tolist() == ec

    rng = random.Random(label)
    u, v = space.u_state, space.v_state
    pairs = [({u}, {v}), ({v}, {u}), ({space.empty_index}, {u, v})]
    for _ in range(8):
        x, y, z, w = rng.sample(range(len(space)), 4)
        pairs += [({x}, {y}), ({x, z}, {y}), ({x, z, w}, {y})]
    for lam, alpha in [(50.0, Fraction(1, 2)), (50.0, Fraction(7, 10)),
                       (1e6, Fraction(1, 2)), (1e6, Fraction(7, 10))]:
        net = build_network(space, ModelParams.for_graph(g, lam, alpha))
        # ref_critical keeps every edge; critical_resistance drops those of
        # conductance 0, so none may have underflowed
        assert (net.edge_c > 0).all()
        for A, B in pairs:
            got = critical_resistance(net, A, B)
            assert (got.value, got.witness_path, got.bottleneck_edge) == \
                ref_critical(net, A, B)

        # critical_resistance's witness search relies on edge_i as it
        # stands: every network must keep it nondecreasing
        lumped, orbit = _lump(net, frozenset({u}), frozenset({v}))
        bottleneck = ref_critical(net, {u}, {v})[2]
        scaled = net.with_scaled_edge(*bottleneck, 1e-3)
        for other, A, B in [(net, {u}, {v}), (scaled, {u}, {v}),
                            (lumped, {int(orbit[u])}, {int(orbit[v])})]:
            assert (np.diff(other.edge_i) >= 0).all()
            got = critical_resistance(other, A, B)
            assert (got.value, got.witness_path, got.bottleneck_edge) == \
                ref_critical(other, A, B)


def ref_reverse(kernel):
    """The entry that points back, found by searching the sorted keys
    i * n + j for j * n + i; -1 where there is none."""
    rows, cols, _ = kernel.offdiag_coo()
    n = len(kernel)
    keys = rows * n + cols
    order = np.argsort(keys)
    back = cols * n + rows
    rev = order[np.minimum(np.searchsorted(keys, back, sorter=order), len(keys) - 1)]
    return np.where(keys[rev] == back, rev, -1)


@pytest.mark.parametrize("label,g", CASES, ids=[label for label, _ in CASES])
def test_move_table_is_the_network_edges_and_the_kernel_csr(label, g):
    space = enumerate_space(g)
    emptied, occupied, site = space.moves
    assert space.moves is space.moves
    assert (emptied.dtype, occupied.dtype, site.dtype) == (np.int64, np.int64, np.uint8)
    assert not any(a.flags.writeable for a in space.moves)
    # ordered by emptied state, then site: the keys strictly ascend
    key = emptied * g.n_sites + site
    assert (np.diff(key) > 0).all()
    # the removal pairs, each once: occupied = emptied plus the site
    assert (space.masks[occupied] == space.masks[emptied] | 1 << site.astype(np.int64)).all()
    assert (space.masks[emptied] >> site.astype(np.int64) & 1 == 0).all()
    params = ModelParams.for_graph(g, 50.0, Fraction(1, 2))
    assert len(site) == sum(t > i for i, r in enumerate(ref_kernel(space, params))
                            for t in r[0])

    # the bottleneck tree's edges are the table's rows, stably sorted by the
    # level of their occupied state
    tree = BottleneckTree(space, Fraction(1, 2))
    level_of = {k: level for level, k in enumerate(tree.level_keys)}
    lvl = [level_of[k] for k in tree.keys[occupied].tolist()]
    order = sorted(range(len(lvl)), key=lvl.__getitem__)
    assert (tree.edge_j.tolist(), tree.edge_i.tolist(), tree.edge_site.tolist()) == \
        (emptied[order].tolist(), occupied[order].tolist(), site[order].tolist())

    kernel = build_kernel(space, params)
    net = build_network(space, params, kernel)
    assert net.edge_i is emptied and net.edge_j is occupied
    p_add = space.addition_probs(params)
    assert net.edge_c.tolist() == (net.pi[emptied] * p_add[site]).tolist()

    # the doubled list, in (row, site) order, is the kernel's CSR
    doubled = sorted(
        [(i, s, j, p_add[s]) for i, j, s in zip(emptied.tolist(), occupied.tolist(),
                                                 site.tolist())]
        + [(j, s, i, 1.0 / params.gamma) for i, j, s in zip(
            emptied.tolist(), occupied.tolist(), site.tolist())])
    rows, cols, probs = kernel.offdiag_coo()
    assert rows.tolist() == [r for r, _, _, _ in doubled]
    assert cols.tolist() == [t for _, _, t, _ in doubled]
    assert probs.tolist() == [p for _, _, _, p in doubled]

    rev = kernel._csr[3]
    assert rev.dtype == np.int64
    assert (cols[rev] == rows).all() and (rev[rev] == np.arange(len(rev))).all()
    assert rev.tolist() == ref_reverse(kernel).tolist()


def partition(labels) -> set[frozenset]:
    classes = {}
    for x, r in enumerate(labels):
        classes.setdefault(r, set()).add(x)
    return {frozenset(c) for c in classes.values()}


def check_components(root, i, j):
    """``_components(root, i, j)`` against a union-find over the classes of
    ``root`` and the edges (i, j)."""
    n = len(root)
    uf = _UnionFind(n)
    for x, y in chain(enumerate(root.tolist()), zip(i.tolist(), j.tolist())):
        uf.union(x, y)
    smallest = {}
    for x in range(n):
        smallest.setdefault(uf.find(x), x)
    want = [smallest[uf.find(x)] for x in range(n)]
    start = root.copy()
    got = _components(root, i, j)
    assert (root == start).all()
    assert partition(got.tolist()) == partition(want)
    assert (got[got] == got).all()                  # every label is a root
    assert got.tolist() == want                     # its component's smallest state
    return got


@pytest.mark.parametrize("seed", range(8))
def test_components_match_union_find(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 300))
    none = np.empty(0, dtype=np.int64)
    check_components(np.arange(n), none, none)
    # a descending chain: one state joined per hook, labels passed down
    chain_i = np.arange(n - 1, 0, -1)
    check_components(np.arange(n), chain_i, chain_i - 1)
    # a multigraph with repeated edges, both orientations and self-loops
    m = int(rng.integers(1, 2 * n))
    i, j = rng.integers(0, n, m), rng.integers(0, n, m)
    loops = rng.integers(0, n, m // 4 + 1)
    i, j = np.concatenate([i, j[:m // 2], loops]), np.concatenate([j, i[:m // 2], loops])
    check_components(np.arange(n), i, j)
    # from a non-trivial partition, as a bisection step starts from the last
    # level's labels
    first = rng.integers(0, n, (2, n // 3))
    root = check_components(np.arange(n), *first)
    assert (root != np.arange(n)).any()
    check_components(root, i, j)
    check_components(root, none, none)


def test_running_sums_computed_only_by_their_readers():
    # path:17 lumps to 2,135 orbits, where E[T]'s first step once read p_move
    for g in (build_family("path:17"), relabel(build_family("ladder:6"), 2)):
        space = enumerate_space(g)
        params = ModelParams.for_graph(g, 50.0, Fraction(1, 2))
        kernel = build_kernel(space, params)
        u, v = space.u_state, space.v_state
        net = build_network(space, params, kernel)
        critical_resistance(net, {u}, {v})
        effective_resistance(net, {u}, {v})
        expected_hitting_time(net, u, {v})
        _lump(net, frozenset({u}), frozenset({v}))
        scaled = net.with_scaled_edge(*critical_resistance(net, {u}, {v}).bottleneck_edge,
                                      1e-3)
        assert scaled.kernel is kernel
        psi_symbolic(space, {u}, {v}, Fraction(1, 2))
        escape_probability(net, u, {v})
        assert "_csr" not in vars(kernel)
        assert "_sums" not in vars(kernel)
    simulate_hit(kernel, u, [v], seed=1)      # on ladder:6, the last input
    assert "_csr" in vars(kernel)
    assert "_sums" in vars(kernel)
    ref = ref_kernel(space, params)
    for got, want in [(kernel.cum, [c for r in ref for c in r[2]]),
                      (kernel.p_move, [r[3] for r in ref])]:
        want = np.array(want)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    readers = [lambda k, net: k.offdiag_coo(),
               lambda k, net: k.row(u),
               lambda k, net: green_by_visits(net, u, {v})]
    for read in readers:
        kernel = build_kernel(space, params)
        net = build_network(space, params, kernel)
        assert "_csr" not in vars(kernel)
        read(kernel, net)
        assert "_csr" in vars(kernel)


def test_witness_paths_do_not_depend_on_the_callers_container():
    g = build_family("cycle:8")
    space = enumerate_space(g)
    params = ModelParams.for_graph(g, 50.0, Fraction(1, 2))
    net = build_network(space, params, build_kernel(space, params))
    # Iterated in insertion order, the list [3, 15, 27] began the search at 27
    # and the others at 3, which gave different shortest paths.
    same_A = [{27, 3, 15}, frozenset({27, 3, 15}), [3, 15, 27], (15, 27, 3)]
    paths = {tuple(critical_resistance(net, A, {8}).witness_path) for A in same_A}
    assert paths == {(3, 11, 9, 23, 22, 8)}
    for B in ({8}, {space.v_state}, {space.empty_index}):
        paths = {tuple(psi_symbolic(space, A, B, Fraction(1, 2)).witness_path)
                 for A in same_A}
        assert len(paths) == 1

def test_detailed_balance_defect_matches_entrywise_scan():
    g = relabel(build_family("ladder:4"), 3)
    space = enumerate_space(g)
    params = ModelParams.for_graph(g, 1e3, Fraction(1, 2))
    kernel = build_kernel(space, params)
    pi = space.stationary(params)
    db = 0.0
    for i in range(len(space)):
        for j, p in zip(*kernel.row(i)):
            if i < j:
                f, b = pi[i] * p, pi[j] * kernel.prob(j, i)
                db = max(db, abs(f - b) / max(f, b))
    assert kernel.check_invariants()["detailed_balance_rel"] == db


def test_row_sum_defect_catches_a_scaled_entry():
    g = relabel(build_family("ladder:4"), 3)
    space = enumerate_space(g)
    for lam, alpha in [(1e3, Fraction(1, 2)), (1e6, Fraction(7, 10))]:
        params = ModelParams.for_graph(g, lam, alpha)
        kernel = build_kernel(space, params)
        assert kernel.check_invariants()["row_sum_dev"] < 1e-12
        # removals and additions alike: the smallest entry is 1/gamma
        for k in range(len(kernel.probs)):
            bad = build_kernel(space, params)
            bad.probs[k] *= 1.5
            assert bad.check_invariants()["row_sum_dev"] > 1e-12


def test_cap_refusal_names_cap_plus_one():
    g = build_family("ladder:8")            # 1,155 states; 2^8 + 2^8 - 1 = 511
    for cap in (600, 1154):
        with pytest.raises(CapExceeded, match=f"at least {cap + 1} states"):
            enumerate_space(g, cap=cap)
    with pytest.raises(CapExceeded, match="at least 101 states"):
        enumerate_space(g, cap=100)         # refused before enumerating
    assert len(enumerate_space(g, cap=1155)) == 1155
