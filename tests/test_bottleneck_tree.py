"""Differential test of the bottleneck tree against a brute-force reference.

The reference knows nothing of integer keys or union-find: it orders states
by the Fraction value p + q*alpha of their weight exponents and, for every
edge level in turn, labels the connected components of the configuration
graph restricted to edges at or above that level.
"""
from collections import deque
from fractions import Fraction

import pytest

from hcmeta.asymptotics import AsymptoticExponent
from hcmeta.configspace import enumerate_space
from hcmeta.graph import build_family
from hcmeta.metastability import no_trap_certificate
from hcmeta.potential import BottleneckTree, psi_symbolic


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
                    self.edges.append((i, space.index[m | bit]))
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
