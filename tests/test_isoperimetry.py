import math
import random

import pytest

import hcmeta.isoperimetry as iso
from hcmeta.configspace import CapExceeded
from hcmeta.graph import BipartiteGraph, GraphValidationError, build_family
from hcmeta.isoperimetry import (brute_force_profile, closed_form_profile,
                                 connecting_progression, doubled_torus_delta,
                                 doubled_torus_numbering, harper_numbering,
                                 hypercube_bipartite_numbering, hypercube_delta,
                                 hypercube_vertex_boundary, seed_set, set_cost,
                                 spiral_numbering, torus_delta, tree_like_delta,
                                 vertex_boundary)


def test_set_cost_basics():
    g = build_family("torus:6x6")
    assert set_cost(g, set()) == 0
    assert set_cost(g, {g.v_sites[0]}) == 3
    gd = build_family("doubled(torus:5x5)")
    assert set_cost(gd, {gd.v_sites[0]}) == 4


def test_brute_force_torus_profile_and_witnesses():
    g = build_family("torus:6x6")
    prof = brute_force_profile(g, 6)
    assert prof.deltas == [0, 3, 4, 5, 5, 6, 6]
    for s in range(7):
        for w in prof.witnesses[s]:
            assert set_cost(g, w) == prof.deltas[s]
        assert not prof.witnesses_truncated[s]


# torus:6x6 to s = 9, one word per row: level 8's words and level 9's words,
# bit counts, one np.bitwise_count column and flags, and the lists tolist
# makes of level 9's kept witnesses (a slot, a 64-byte list, 72 member bytes
# rounded up to 80); then the witness tuples of sizes 1..9, a slot and
# 40 + 8 s bytes rounded up to 16 (site ids below 257: no int object per
# member)
TORUS_6X6_TO_9_BYTES = (8 * math.comb(18, 8) + (8 + 1 + 1 + 1) * math.comb(18, 9)
                        + iso.WITNESS_CAP * (8 + 64 + 80)
                        + sum(min(math.comb(18, s), iso.WITNESS_CAP)
                              * (8 + -(-(40 + 8 * s) // 16) * 16) for s in range(1, 10)))


def test_brute_force_refused_past_available_memory(monkeypatch):
    g = build_family("torus:6x6")
    need = TORUS_6X6_TO_9_BYTES
    monkeypatch.setattr(iso, "_available_memory", lambda: need - 1)
    with pytest.raises(CapExceeded):
        brute_force_profile(g, 9)
    monkeypatch.setattr(iso, "_available_memory", lambda: need)
    assert brute_force_profile(g, 9).deltas == [0, 3, 4, 5, 5, 6, 6, 6, 6, 5]


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} reached before the memory check")


def test_memory_refusal_before_any_allocation(monkeypatch):
    need = TORUS_6X6_TO_9_BYTES
    monkeypatch.setattr(iso, "np", _NoNumpy())
    monkeypatch.setattr(iso, "_available_memory", lambda: need - 1)
    g = build_family("torus:6x6")
    with pytest.raises(CapExceeded, match=f"needs {need:,} bytes; "
                                          f"{need - 1:,} bytes are available"):
        brute_force_profile(g, 9)


def test_whole_torus_6x8_profile_runs_below_the_lattice():
    # 24 V sites: the whole V fits in memory; at s = 7 the finite torus
    # beats the lattice formula
    prof = brute_force_profile(build_family("torus:6x8"), 24)
    assert prof.s_max == 24
    assert (prof.delta(7), torus_delta(7)) == (6, 7)


def test_negative_size_rejected():
    g = build_family("cycle:6")
    with pytest.raises(ValueError):
        brute_force_profile(g, -1)


def _gosper_profile(g, s_max, witness_cap=iso.WITNESS_CAP):
    """Reference: one Python bit loop per subset, visited by Gosper's hack."""
    v = list(g.v_sites)
    nv = len(v)
    s_max = min(s_max, nv)
    nbr = [g.neighbor_mask(a) for a in v]
    deltas = [0]
    witnesses = {0: [()]}
    truncated = {0: False}
    for s in range(1, s_max + 1):
        best = None
        best_sets = []
        trunc = False
        m = (1 << s) - 1
        while m < 1 << nv:
            nb = 0
            mm = m
            while mm:
                low = mm & -mm
                nb |= nbr[low.bit_length() - 1]
                mm ^= low
            cost = nb.bit_count() - s
            if best is None or cost < best:
                best, best_sets, trunc = cost, [m], False
            elif cost == best:
                if len(best_sets) < witness_cap:
                    best_sets.append(m)
                else:
                    trunc = True
            c = m & -m
            r = m + c
            m = (((r ^ m) >> 2) // c) | r
        deltas.append(best)
        witnesses[s] = [tuple(v[i] for i in range(nv) if mask >> i & 1)
                        for mask in best_sets]
        truncated[s] = trunc
    return deltas, witnesses, truncated


def _relabel(g, seed):
    """An isomorphic copy with sites shuffled within U and within V."""
    rng = random.Random(seed)
    u, v = list(g.u_sites), list(g.v_sites)
    rng.shuffle(u)
    rng.shuffle(v)
    new = {old: k for k, old in enumerate(u)}
    new.update({old: len(u) + k for k, old in enumerate(v)})
    return BipartiteGraph.from_parts(len(u), len(v),
                                     [(new[a], new[b]) for a, b in g.edges])


@pytest.mark.parametrize("relabelled", [False, True])
@pytest.mark.parametrize("spec,s_max,cap", [
    ("torus:6x6", 6, iso.WITNESS_CAP),
    ("doubled(torus:5x5)", 6, iso.WITNESS_CAP),
    ("hypercube:5", 16, iso.WITNESS_CAP),
    ("cycle:12", 5, iso.WITNESS_CAP),
    ("ladder:8", 8, iso.WITNESS_CAP),
    ("torus:10x10", 3, iso.WITNESS_CAP),      # 100 sites
    ("torus:12x12", 2, iso.WITNESS_CAP),      # 72 U sites: two words
    ("torus:6x6", 5, 396),                    # exactly the optimum count
    ("torus:6x6", 5, 395),
])
def test_colex_levels_equal_gosper_loop(spec, s_max, cap, relabelled):
    g = build_family(spec)
    if relabelled:
        g = _relabel(g, 7)
    prof = brute_force_profile(g, s_max, witness_cap=cap)
    deltas, witnesses, truncated = _gosper_profile(g, s_max, cap)
    assert prof.deltas == deltas
    assert prof.witnesses == witnesses
    assert prof.witnesses_truncated == truncated
    if cap < iso.WITNESS_CAP:
        assert len(prof.witnesses[5]) == min(cap, 396)
        assert prof.witnesses_truncated[5] == (cap < 396)


def test_bit_count_across_a_word_edge():
    # |U| = 65: U site 63 is the top bit of word 0 and U site 64 is bit 0 of
    # word 1, so V site 65's two neighbours count in both words; V site 66
    # joins U sites 0..63 and keeps the graph connected
    g = BipartiteGraph.from_parts(65, 2, [(63, 65), (64, 65)]
                                  + [(a, 66) for a in range(64)])
    prof = brute_force_profile(g, 1)
    assert prof.deltas == [0, 1]
    assert prof.witnesses[1] == [(65,)]


def test_torus_closed_form_values():
    # concise algebraic form ceil(2 sqrt(s)) + 1 and the two displayed cases
    assert [torus_delta(s) for s in range(8)] == [0, 3, 4, 5, 5, 6, 6, 7]
    for s in range(1, 200):
        assert torus_delta(s) == math.ceil(2 * math.sqrt(s) - 1e-12) + 1
    # Delta(l(l+1)+j) = 2(l+1)+1 with l = 1, j = 1 gives s = 3 -> 5
    assert torus_delta(3) == 5


def test_doubled_torus_closed_form_values():
    assert doubled_torus_delta(5) == 8          # l = 2, i = 0 -> 4l
    assert [doubled_torus_delta(s) for s in range(10)] == [0, 4, 6, 7, 8, 8, 9, 10, 10, 11]


def test_hypercube_closed_form_values():
    assert hypercube_delta(4, 1) == 3
    assert hypercube_delta(4, 4) == 3
    assert hypercube_delta(4, 7) == 1
    # Hamming balls: Delta_{d+1}(sum_{i<=r} C(d,i)) = C(d, r+1)
    for d in (3, 4, 5):
        acc = 0
        for r in range(d):
            acc = sum(math.comb(d, i) for i in range(r + 1))
            assert hypercube_delta(d + 1, acc) == math.comb(d, r + 1)


@pytest.mark.parametrize("d1", [2, 3, 4, 5])
def test_hypercube_recursion_matches_harper_boundary(d1):
    d = d1 - 1
    order = harper_numbering(d)
    for k in range(2 ** d + 1):
        assert hypercube_vertex_boundary(d, order[:k]) == hypercube_delta(d1, k)


def test_closed_form_windows():
    torus, doubled, cycle = (build_family(spec) for spec in
                             ("torus:6x6", "doubled(torus:5x5)", "cycle:12"))
    assert closed_form_profile(torus, 6) == 6
    with pytest.raises(ValueError, match=r"s=7 outside torus validity window for "
                                         r"dims \(6, 6\)"):
        closed_form_profile(torus, 7)
    assert closed_form_profile(doubled, 6) == 9
    with pytest.raises(ValueError, match="s=30 outside doubled-torus window"):
        closed_form_profile(doubled, 30)
    assert closed_form_profile(cycle, 0) == 0
    assert closed_form_profile(cycle, 3) == 1
    with pytest.raises(ValueError, match="outside tree-like validity window"):
        closed_form_profile(cycle, 6)
    assert closed_form_profile(build_family("hypercube:4"), 3) == hypercube_delta(4, 3)
    with pytest.raises(GraphValidationError, match="no closed form for family 'ladder'"):
        closed_form_profile(build_family("ladder:4"), 1)


@pytest.mark.parametrize("spec,family,kwargs", [
    ("torus:6x6", "torus", {}),
    ("doubled(torus:5x5)", "doubled_torus", {}),
    ("cycle:12", "tree_like", {"degree": 2, "girth": 12}),
    ("doubled(cycle:8)", "doubled_tree_like", {"degree": 2, "girth": 8}),
])
def test_closed_form_equals_brute_force(spec, family, kwargs):
    g = build_family(spec)
    if family == "torus":
        s_max, delta = 6, (lambda s: torus_delta(s))
    elif family == "doubled_torus":
        s_max, delta = 6, (lambda s: doubled_torus_delta(s))
    elif family == "tree_like":
        s_max = 5
        delta = lambda s: tree_like_delta(s, 2, 12) if s else 0
    else:
        s_max = 6
        delta = lambda s: tree_like_delta(s, 2, 8, doubled=True) if s else 0
    prof = brute_force_profile(g, s_max)
    for s in range(s_max + 1):
        assert prof.delta(s) == delta(s), (spec, s)


def test_hypercube_closed_equals_brute_force():
    for d1 in (2, 3, 4, 5):
        g = build_family(f"hypercube:{d1}")
        prof = brute_force_profile(g, len(g.v_sites))
        for s in range(prof.s_max + 1):
            assert prof.delta(s) == hypercube_delta(d1, s)


def test_spiral_numbering_prefix_costs():
    g = build_family("torus:6x6")
    start = g.v_sites[0]
    num = spiral_numbering(g, start, 6)
    costs = [set_cost(g, num[:k]) for k in range(1, 7)]
    assert costs == [3, 4, 5, 5, 6, 6]


def test_spiral_translation_invariance():
    g = build_family("torus:6x6")
    seqs = []
    for start in g.v_sites:
        num = spiral_numbering(g, start, 5)
        seqs.append([set_cost(g, num[:k]) for k in range(1, 6)])
    assert all(s == seqs[0] for s in seqs)


def test_spiral_window_refusal():
    g = build_family("torus:6x6")
    with pytest.raises(ValueError):
        spiral_numbering(g, g.v_sites[0], 7)


def test_harper_numbering_basics():
    order = harper_numbering(3)
    assert order[0] == 0                                    # the all-zeros word
    assert hypercube_vertex_boundary(3, order[:1]) == 3
    assert hypercube_vertex_boundary(3, order[:4]) == 3     # ball of radius 1
    assert hypercube_vertex_boundary(3, order) == 0
    assert sorted(order) == list(range(8))


def test_hypercube_bipartite_numbering_prefixes():
    g = build_family("hypercube:4")
    num = hypercube_bipartite_numbering(g)
    assert len(num) == 8
    for k in range(1, 9):
        assert set_cost(g, num[:k]) == hypercube_delta(4, k)
    # starting site can be any V-site via automorphism translation
    num2 = hypercube_bipartite_numbering(g, start_word=5)
    assert set_cost(g, num2[:1]) == hypercube_delta(4, 1)
    assert num2[0] != num[0]


def test_seed_sets():
    s = seed_set("I", 1)
    assert len(s) == 5 and vertex_boundary(s) == 8          # the plus shape
    assert seed_set("I", 0) == frozenset({(0, 0)})
    for t in ("I", "II", "IIIa", "IIIb", "IV"):
        for k in range(3):
            cells = seed_set(t, k)
            assert vertex_boundary(cells) == doubled_torus_delta(len(cells))
    with pytest.raises(ValueError):
        seed_set("V", 0)


@pytest.mark.parametrize("kind,min_ell", [("a", 2), ("b", 2), ("c", 1), ("d", 1)])
def test_connecting_progressions(kind, min_ell):
    for ell in range(min_ell, min_ell + 3):
        path = connecting_progression(kind, ell)
        for i in range(len(path) - 1):
            assert path[i] < path[i + 1]
            assert len(path[i + 1] - path[i]) == 1
        for stage in path:
            assert vertex_boundary(stage) == doubled_torus_delta(len(stage))


def test_doubled_torus_numbering_and_mapping():
    cells = doubled_torus_numbering(25)
    for k in range(1, 26):
        assert vertex_boundary(cells[:k]) == doubled_torus_delta(k)


def _edge_boundary(g, sites) -> int:
    sset = set(sites)
    count = 0
    for a in sset:
        for b in g.adjacency[a]:
            if b not in sset:
                count += 1
    return count


def test_regular_cost_identity_on_witnesses():
    # Delta(A) = (1/4) |boundary(A union N(A))| on the 4-regular torus.
    g = build_family("torus:6x6")
    prof = brute_force_profile(g, 6)
    for s in range(1, 7):
        for w in prof.witnesses[s]:
            full = set(w)
            for a in w:
                full.update(g.adjacency[a])
            assert prof.deltas[s] == _edge_boundary(g, full) // 4
            assert _edge_boundary(g, full) % 4 == 0


def _torus_l_classify(g, cells_sites):
    """N_k classes of a witness on the torus, plus the N_2 split by
    L-adjacency of the two neighbors in A."""
    m, n = g.meta["dims"]
    pt = {v: k for k, v in g.meta["site_of_point"].items()}
    a_pts = {pt[s] for s in cells_sites}
    nbrs = {}
    for s in cells_sites:
        for u in g.adjacency[s]:
            nbrs.setdefault(u, set()).add(s)
    n_k = {1: 0, 2: 0, 3: 0, 4: 0}
    n_1010 = 0
    for u, owners in nbrs.items():
        k = len(owners)
        n_k[k] += 1
        if k == 2:
            p, q = [pt[s] for s in owners]
            di = min((p[0] - q[0]) % m, (q[0] - p[0]) % m)
            dj = min((p[1] - q[1]) % n, (q[1] - p[1]) % n)
            if not (di == 1 and dj == 1):
                n_1010 += 1
    return n_k, n_1010


def test_lattice_optimality_structure_on_safe_torus():
    # On the 8x8 torus all witnesses at s <= 6 are lattice shapes; they must
    # satisfy: no N_2 neighbor pair diagonal-disconnected, |N_1| - |N_3| = 4.
    g = build_family("torus:8x8")
    prof = brute_force_profile(g, 6)
    checked = 0
    for s in range(1, 7):
        assert not prof.witnesses_truncated[s]
        for w in prof.witnesses[s]:
            n_k, n_1010 = _torus_l_classify(g, w)
            assert n_1010 == 0
            assert n_k[1] - n_k[3] == 4
            checked += 1
    assert checked == 32 + 64 + 192 + 32 + 256 + 64

