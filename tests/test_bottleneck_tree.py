"""Differential tests of the bottleneck tree and the gate families.

``Reference`` knows nothing of integer keys or union-find: it orders states
by the Fraction value p + q*alpha of their weight exponents and, for every
edge level in turn, labels the connected components of the configuration
graph restricted to edges at or above that level.  It also keeps the
per-state Python build of the tree (Python-int keys, a union-find with
method calls, a state-by-state breadth-first search) and the frozenset
steps of the gate, against which the array and bitmask versions must agree
field for field and in the same order.
"""
import random
from collections import deque
from fractions import Fraction
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest

from hcmeta.asymptotics import AsymptoticExponent
from hcmeta.configspace import enumerate_space
from hcmeta.graph import build_family
from hcmeta.isoperimetry import brute_force_profile
from hcmeta.metastability import build_gate, dominance_sets, no_trap_certificate
from hcmeta.potential import BottleneckTree, psi_symbolic
from test_kernel_csr import _UnionFind, relabel


class Reference:
    """Psi levels by reachability, one component labelling per level."""

    def __init__(self, space, alpha):
        self.space, self.alpha = space, alpha
        expo = [space.weight_exponent(m) for m in space.configs]
        self.expo = expo
        self.val = [e.value(alpha) for e in expo]
        n = len(space)
        self.edges = []                 # (lighter, heavier)
        for i, m in enumerate(space.configs):
            for site in range(space.graph.n_sites):
                bit = 1 << site
                if not m & bit and space.is_valid(m | bit):
                    self.edges.append((i, space.require(m | bit)))
        self.levels = sorted({self.val[j] for _, j in self.edges}, reverse=True)
        self.adj, self.labels = [], []
        for level in self.levels:
            adj = [[] for _ in range(n)]
            for i, j in self.edges:
                if self.val[j] >= level:
                    adj[i].append(j)
                    adj[j].append(i)
            self.adj.append(adj)
            label = [-1] * n
            for s in range(n):
                if label[s] < 0:
                    label[s] = s
                    todo = deque([s])
                    while todo:
                        x = todo.popleft()
                        for y in adj[x]:
                            if label[y] < 0:
                                label[y] = s
                                todo.append(y)
            self.labels.append(label)

    def level_of(self, A, B) -> int:
        """Index of the first level at which B is reachable from A."""
        for k, label in enumerate(self.labels):
            if {label[a] for a in A} & {label[b] for b in B}:
                return k
        raise AssertionError("disconnected")

    def tie_pq(self, k):
        return sorted({self.expo[j].as_tuple() for _, j in self.edges
                       if self.val[j] == self.levels[k]})

    def j_sets(self, x):
        j = {y for y in range(len(self.val)) if y != x and self.val[y] >= self.val[x]}
        return j, {y for y in j if self.val[y] > self.val[x]}

    def no_trap(self):
        space, alpha = self.space, self.alpha
        u, v = space.u_state, space.v_state
        ku = self.level_of({u}, self.j_sets(u)[0])
        pq_u = self.tie_pq(ku)
        q_u = self.expo[u] / AsymptoticExponent(*pq_u[0])
        traps, ties, checked = [], [], 0
        for x in range(len(space)):
            if x in (u, v):
                continue
            checked += 1
            jm = self.j_sets(x)[1]
            if not jm:
                traps.append(x)
                continue
            kx = self.level_of({x}, jm)
            pq_x = self.tie_pq(kx)
            q_x = self.expo[x] / AsymptoticExponent(*pq_x[0])
            if q_x.value(alpha) > q_u.value(alpha):
                traps.append(x)
            elif q_x.value(alpha) == q_u.value(alpha):
                if len(pq_x) > 1 or len(pq_u) > 1 or q_x.as_tuple() != q_u.as_tuple():
                    ties.append(x)
                else:
                    traps.append(x)
        status = "refuted" if traps else ("inconclusive" if ties else "certified")
        return status, traps, ties, q_u, checked

    def is_witness(self, path, A, B, k) -> bool:
        """A shortest A-to-B path over edges at or above level k."""
        space = self.space
        if path[0] not in A or path[-1] not in B:
            return False
        for x, y in zip(path, path[1:]):
            if (space.configs[x] ^ space.configs[y]).bit_count() != 1:
                return False
            if max(self.val[x], self.val[y]) < self.levels[k]:
                return False
        dist = {a: 0 for a in A}
        todo = deque(A)
        while todo:
            x = todo.popleft()
            for y in self.adj[k][x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    todo.append(y)
        return len(path) - 1 == min(dist[b] for b in B if b in dist)


    # -- the per-state Python bottleneck tree -------------------------------

    @cached_property
    def tree(self) -> SimpleNamespace:
        """The tree's fields from Python-int keys, one state at a time: the
        moves by (emptied state, site), as the move table lists them, then
        stably sorted by the level of the occupied endpoint."""
        space, alpha = self.space, Fraction(self.alpha)
        a, b = alpha.numerator, alpha.denominator
        keys = [b * (m & space.u_mask).bit_count() + (a + b) * (m & space.v_mask).bit_count()
                for m in space.configs]
        labels: dict[int, set] = {}
        for key, mask in zip(keys, space.configs):
            if mask:
                nu, nv = space.counts(mask)
                labels.setdefault(key, set()).add((nu + nv, nv))
        level_keys = sorted(labels, reverse=True)
        level_of = {k: lvl for lvl, k in enumerate(level_keys)}
        edges = [(space.require(m | 1 << site), j, site)
                 for j, m in enumerate(space.configs)
                 for site in range(space.graph.n_sites)
                 if not m & (space.neighbor_masks[site] | 1 << site)]
        edges.sort(key=lambda e: level_of[keys[e[0]]])
        return SimpleNamespace(
            keys=keys, level_keys=level_keys,
            level_pq=[sorted((Fraction(p), Fraction(q)) for p, q in labels[k])
                      for k in level_keys],
            edge_i=[i for i, _, _ in edges], edge_j=[j for _, j, _ in edges],
            edge_site=[site for _, _, site in edges],
            level_start=[sum(level_of[keys[i]] < k for i, _, _ in edges)
                         for k in range(len(level_keys) + 1)])

    def connecting_level(self, A, B) -> int:
        t = self.tree
        uf = _UnionFind(len(t.keys) + 2)
        src, dst = len(t.keys), len(t.keys) + 1
        for x in A:
            uf.union(x, src)
        for x in B:
            uf.union(x, dst)
        for level in range(len(t.level_keys)):
            for e in range(t.level_start[level], t.level_start[level + 1]):
                uf.union(t.edge_i[e], t.edge_j[e])
            if uf.find(src) == uf.find(dst):
                return level
        raise AssertionError("disconnected")

    def witness_path(self, A, B, level) -> list[int]:
        """Breadth-first from A in ascending order, each state's moves in
        site order; the first state of B reached ends the path."""
        space, keys = self.space, self.tree.keys
        floor = self.tree.level_keys[level]
        frontier = sorted(A)
        prev = {x: -1 for x in frontier}
        while frontier:
            nxt = []
            for x in frontier:
                mx = space.configs[x]
                for site in range(space.graph.n_sites):
                    bit = 1 << site
                    if mx & bit:
                        my = mx ^ bit
                    elif not mx & space.neighbor_masks[site]:
                        my = mx | bit
                    else:
                        continue
                    y = space.require(my)
                    if max(keys[x], keys[y]) < floor or y in prev:
                        continue
                    prev[y] = x
                    if y in B:
                        path = [y]
                        while prev[path[-1]] != -1:
                            path.append(prev[path[-1]])
                        return path[::-1]
                    nxt.append(y)
            frontier = nxt
        raise AssertionError("no path")

    def escape_levels(self) -> list[int]:
        t = self.tree
        n = len(t.keys)
        uf = _UnionFind(n)
        top = list(t.keys)
        waiting = [[x] for x in range(n)]
        escape = [-1] * n
        for level in range(len(t.level_keys)):
            for e in range(t.level_start[level], t.level_start[level + 1]):
                r, s = uf.find(t.edge_i[e]), uf.find(t.edge_j[e])
                if r == s:
                    continue
                if top[r] > top[s]:
                    r, s = s, r
                if top[r] < top[s]:
                    for x in waiting[r]:
                        escape[x] = level
                else:
                    if len(waiting[r]) > len(waiting[s]):
                        r, s = s, r
                    waiting[s].extend(waiting[r])
                waiting[r] = None
                uf.parent[r] = s
        return escape

    # -- the frozenset steps of the gate ------------------------------------

    @staticmethod
    def gate_family_b(g, prof, s_star, kappa, fam_a, fam_c) -> list[frozenset]:
        """The size-s* witnesses that extend a member of A by one site and
        reach C."""
        fam_c = set(fam_c)
        out = []
        for b_set in (frozenset(w) for w in prof.complete_witnesses(s_star)):
            if not any(a_set < b_set for a_set in fam_a if len(b_set - a_set) == 1):
                continue
            if kappa == 0:
                ok = b_set in fam_c
            elif kappa == 1:
                ok = any((b_set | {x}) in fam_c for x in set(g.v_sites) - b_set)
            else:
                ok = Reference.witness_reachable(b_set, prof, s_star, kappa)
            if ok:
                out.append(b_set)
        return out

    @staticmethod
    def witness_reachable(b_set, prof, s_star, kappa) -> bool:
        """Breadth-first search through the complete witness layers from
        b_set to any set of size s*+kappa, the sizes between at least s*."""
        layers = {s: {frozenset(w) for w in prof.complete_witnesses(s)}
                  for s in range(s_star, s_star + kappa + 1)}
        seen = {b_set}
        frontier = [b_set]
        while frontier:
            nxt = []
            for cur in frontier:
                for s2 in (len(cur) - 1, len(cur) + 1):
                    if not s_star <= s2 <= s_star + kappa:
                        continue
                    for cand in layers[s2]:
                        if len(cand ^ cur) != 1 or cand in seen:
                            continue
                        if s2 == s_star + kappa:
                            return True
                        seen.add(cand)
                        nxt.append(cand)
            frontier = nxt
        return False

    @staticmethod
    def gate_transitions(g, fam_a, fam_b) -> list[tuple[int, int]]:
        u_all = 0
        for a in g.u_sites:
            u_all |= 1 << a
        transitions = {}
        for b_set in fam_b:
            nb = 0
            for site in b_set:
                nb |= g.neighbor_mask(site)
            for a_set in fam_a:
                if not (a_set < b_set and len(b_set - a_set) == 1):
                    continue
                na = 0
                for site in a_set:
                    na |= g.neighbor_mask(site)
                y = u_all & ~nb
                for site in a_set:
                    y |= 1 << site
                extra = nb & ~na
                while extra:
                    low = extra & -extra
                    transitions[(y | low, y)] = None
                    extra ^= low
        return list(transitions)


CASES = [("cycle:8", Fraction(2, 5), "certified"),
         ("ladder:6", Fraction(2, 5), "certified"),
         ("path:6", Fraction(2, 5), "refuted"),
         ("path:6", Fraction(1, 2), "inconclusive"),
         ("hypercube:3", Fraction(2, 5), "certified"),
         ("complete:2x3", Fraction(2, 5), "certified"),
         # u and v share the largest key: their components merge with equal
         # maxima, and neither may count the other as strictly heavier
         ("path:5", Fraction(1, 2), "certified")]
IDS = [f"{spec}@{alpha}" for spec, alpha, _ in CASES]


@pytest.mark.parametrize("spec,alpha,status", CASES, ids=IDS)
def test_no_trap_matches_reference(spec, alpha, status):
    spc = enumerate_space(build_family(spec))
    ref_status, traps, ties, q_u, checked = Reference(spc, alpha).no_trap()
    rep = no_trap_certificate(spc, alpha)
    assert ref_status == status
    assert (rep.certified, rep.status) == (status == "certified", status)
    assert rep.trap_states == traps and rep.tie_states == ties
    assert rep.u_exponent == q_u and rep.checked == checked


@pytest.mark.parametrize("spec,alpha,status", CASES, ids=IDS)
def test_escape_levels_match_reference(spec, alpha, status):
    spc = enumerate_space(build_family(spec))
    ref = Reference(spc, alpha)
    tree = BottleneckTree(spc, alpha)
    escape = tree.escape_levels()
    for x in range(len(spc)):
        jm = ref.j_sets(x)[1]
        if not jm:
            assert escape[x] == -1
            continue
        k = ref.level_of({x}, jm)
        assert tree.bottleneck_weight(escape[x]).value(alpha) == ref.levels[k]
        assert tree.level_pq[escape[x]] == ref.tie_pq(k)
        sym = psi_symbolic(spc, {x}, jm, alpha)
        assert sym.bottleneck_weight.value(alpha) == ref.levels[k]
        assert sym.tie_pq == ref.tie_pq(k)
        assert ref.is_witness(sym.witness_path, {x}, jm, k)


TREE_SPECS = ["cycle:8", "ladder:8", "torus:4x4", "hypercube:4", "complete:2x3"]


@pytest.mark.parametrize("relabelled", [False, True], ids=["canonical", "relabelled"])
@pytest.mark.parametrize("spec", TREE_SPECS)
def test_tree_matches_python_reference(spec, relabelled):
    g = build_family(spec)
    if relabelled:
        g = relabel(g, 5)
    spc = enumerate_space(g)
    n = len(spc)
    rng = random.Random(f"{spec}-{relabelled}")
    # alpha = 0 puts all states with p particles on one level, with p + 1 labels
    for alpha in (Fraction(2, 5), Fraction(1, 2), Fraction(0)):
        ref, tree = Reference(spc, alpha), BottleneckTree(spc, alpha)
        want = ref.tree
        assert all(a.dtype == np.int64 for a in (tree.keys, tree.edge_i, tree.edge_j))
        assert tree.keys.tolist() == want.keys and tree.level_keys == want.level_keys
        assert tree.level_pq == want.level_pq
        assert (tree.edge_i.tolist(), tree.edge_j.tolist(), tree.edge_site.tolist()) == \
            (want.edge_i, want.edge_j, want.edge_site)
        assert tree.level_start == want.level_start
        assert all(type(k) is int for k in tree.level_keys + tree.level_start)
        assert tree.escape_levels() == ref.escape_levels()
        u, v = spc.u_state, spc.v_state
        pairs = [({u}, {v}), ({u}, dominance_sets(spc, u, alpha)[0])]
        for _ in range(12):
            a_set = set(rng.sample(range(n), rng.randint(1, 3)))
            rest = sorted(set(range(n)) - a_set)
            pairs.append((a_set, set(rng.sample(rest, rng.randint(1, 3)))))
        for A, B in pairs:
            A, B = frozenset(A), frozenset(B)
            level = ref.connecting_level(A, B)
            assert tree.connecting_level(A, B) == level == ref.level_of(A, B)
            path = tree.witness_path(A, B, level)
            assert path == ref.witness_path(A, B, level)
            assert all(type(x) is int for x in path)


def test_tree_keeps_each_datum_once():
    spc = enumerate_space(build_family("ladder:6"))
    alpha = Fraction(1, 2)
    tree = BottleneckTree(spc, alpha)
    u, v = spc.u_state, spc.v_state
    A, B = frozenset({u}), frozenset(dominance_sets(spc, u, alpha)[0])
    tree.witness_path(A, B, tree.connecting_level(A, B))
    tree.escape_levels()
    psi_symbolic(spc, {u}, {v}, alpha)
    fields = vars(tree)
    assert set(fields) == {"space", "keys", "level_keys", "level_pq",
                           "edge_i", "edge_j", "edge_site", "level_start"}
    assert (tree.edge_i.dtype, tree.edge_j.dtype, tree.edge_site.dtype) == \
        (np.int64, np.int64, np.uint8)
    long = {len(spc), len(tree.edge_i)}
    assert not [name for name, value in fields.items()
                if isinstance(value, list) and len(value) in long]


def test_intersecting_sets_are_refused():
    spc = enumerate_space(build_family("cycle:8"))
    alpha = Fraction(2, 5)
    tree = BottleneckTree(spc, alpha)
    u, v, n = spc.u_state, spc.v_state, len(spc)
    # the last pair shares a state that is neither set's smallest nor largest
    for A, B in [({u}, {u}), ({u, v}, {v}), ({0, 5, n - 1}, {3, 5, 9})]:
        with pytest.raises(ValueError, match="A and B intersect"):
            tree.connecting_level(frozenset(A), frozenset(B))
        with pytest.raises(ValueError, match="A and B intersect"):
            psi_symbolic(spc, A, B, alpha)


GATE_CASES = [("torus:6x6", Fraction(7, 10), None),
              ("hypercube:4", Fraction(1, 2), None),
              ("doubled(torus:5x5)", Fraction(7, 10), None),
              # kappa = 2, and a size-s* witness that extends no member of A
              ("random:6x6:0.5:1", Fraction(2, 5), None),
              # every kappa in [0, 1/alpha)
              *(("random:6x6:0.5:1", Fraction(2, 5), k) for k in range(3))]


@pytest.mark.parametrize("spec,alpha,kappa", GATE_CASES,
                         ids=[f"{spec}@{alpha}" + ("" if k is None else f"-kappa{k}")
                              for spec, alpha, k in GATE_CASES])
def test_gate_matches_frozenset_reference(spec, alpha, kappa):
    g = build_family(spec)
    gate = build_gate(g, alpha, kappa=kappa)
    s_star, kappa = gate.s_star, gate.kappa
    prof = brute_force_profile(g, min(s_star + kappa, len(g.v_sites)))
    fam_a = [frozenset(w) for w in prof.complete_witnesses(s_star - 1)]
    fam_c = [frozenset(w) for w in prof.complete_witnesses(
        min(s_star + kappa, prof.s_max))]
    fam_b = Reference.gate_family_b(g, prof, s_star, kappa, fam_a, fam_c)
    if gate.conditional_on_conjecture:
        # the doubled torus lists its seed-built families sorted by members
        fam_a, fam_b, fam_c = (sorted(f, key=sorted) for f in (fam_a, fam_b, fam_c))
    assert (gate.family_A, gate.family_B, gate.family_C) == (fam_a, fam_b, fam_c)
    transitions = Reference.gate_transitions(g, fam_a, fam_b)
    assert gate.transitions == transitions
    assert gate.count == len(transitions) > 0
