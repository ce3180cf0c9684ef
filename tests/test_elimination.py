"""The minimum-degree star-mesh elimination against the routes it replaced
(kept here: the dense O(N^3) star-mesh, the two-solve Green route with an
LU voltage and the front on one Python set per node), and every E[T] route
against exact rational references."""
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hcmeta import potential
from hcmeta.configspace import CapExceeded, ModelParams, enumerate_space
from hcmeta.graph import BipartiteGraph, automorphism_generators, build_family
from hcmeta.potential import (build_network, effective_resistance,
                              expected_hitting_time, voltage)

HALF = Fraction(1, 2)


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


def ref_star_mesh_resistance(net, A, B) -> float:
    """The dense star-mesh: nodes eliminated from the last index down, each
    pivot updating the whole matrix (here only its live leading block, which
    leaves every entry as the full update would)."""
    n = len(net)
    node_of = {}
    nxt = 2
    for x in range(n):
        if x in A:
            node_of[x] = 0
        elif x in B:
            node_of[x] = 1
        else:
            node_of[x] = nxt
            nxt += 1
    m = nxt
    scale = float(net.edge_c.max())
    C = np.zeros((m, m))
    for i, j, c in zip(net.edge_i, net.edge_j, net.edge_c):
        a, b = node_of[int(i)], node_of[int(j)]
        if a != b:
            C[a, b] += c / scale
            C[b, a] += c / scale
    for s in range(m - 1, 1, -1):
        live = C[:s + 1, :s + 1]
        row = live[s]
        cs = row.sum()
        if cs > 0.0:
            live += np.outer(live[:, s].copy(), row) / cs
            np.fill_diagonal(live, 0.0)
        live[s, :] = 0.0
        live[:, s] = 0.0
    if C[0, 1] <= 0.0:
        raise ValueError("A and B are disconnected")
    return 1.0 / (C[0, 1] * scale)


def conductance_matrix(net) -> sp.csr_matrix:
    """The symmetric CSR matrix of the conductances c(x, y)."""
    n = len(net)
    return sp.coo_matrix(
        (np.concatenate([net.edge_c, net.edge_c]),
         (np.concatenate([net.edge_i, net.edge_j]),
          np.concatenate([net.edge_j, net.edge_i]))),
        shape=(n, n)).tocsr()


def ref_lu_voltage(net, A, B) -> np.ndarray:
    """W by a COLAMD-ordered LU of the row-normalised harmonic system."""
    n = len(net)
    C = conductance_matrix(net)
    deg = np.asarray(C.sum(axis=1)).ravel()
    interior = np.array([i for i in range(n) if i not in A and i not in B])
    P = sp.diags(1.0 / deg[interior]) @ C[interior, :]
    M = (sp.identity(len(interior), format="csr") - P[:, interior]).tocsc()
    rhs = np.asarray(P[:, sorted(A)].sum(axis=1)).ravel()
    lu = spla.splu(M)
    x = lu.solve(rhs)
    for _ in range(4):
        r = rhs - M @ x
        if np.max(np.abs(r)) < 1e-15:
            break
        x = x + lu.solve(r)
    w = np.zeros(n)
    w[sorted(A)] = 1.0
    w[interior] = x
    return w


def _net(g, lam):
    spc = enumerate_space(g)
    return spc, build_network(spc, ModelParams.for_graph(g, lam, alpha=HALF))


def _pairs(spc, net):
    """(u, v), and u and v with their configuration-graph neighbours."""
    u, v = spc.u_state, spc.v_state
    return [(frozenset({u}), frozenset({v})),
            (frozenset({u, *net.kernel.row(u)[0]}),
             frozenset({v, *net.kernel.row(v)[0]}))]


# graph spec, then an optional edit: "relabelled" shuffles the sites, "scaled"
# triples one edge at the empty state, which breaks the symmetries moving it
LUMP_CASES = ["cycle:12", "path:15", "ladder:4", "torus:4x4", "hypercube:4",
              "complete:2x3", "ladder:8/relabelled", "torus:4x4/scaled"]


def _case_network(case: str, lam: float):
    spec, _, edit = case.partition("/")
    g = build_family(spec)
    if edit == "relabelled":
        g = relabel(g, 7)
    spc = enumerate_space(g)
    net = build_network(spc, ModelParams.for_graph(g, lam, alpha=HALF))
    if edit == "scaled":
        e = int(np.flatnonzero(net.edge_i == spc.empty_index)[0])
        edited = net.with_scaled_edge(int(net.edge_i[e]), int(net.edge_j[e]), 3.0)
        assert 0 < len(edited.symmetries) < len(net.symmetries)
        net = edited
    return spc, net


def _fixed_sets(spc):
    """(A, B), (B,) and ({empty}, B) for A = {u} and B = {v}."""
    u, v, e = (frozenset({x}) for x in (spc.u_state, spc.v_state, spc.empty_index))
    return [(u, v), (v,), (e, v)]


CASES = [("cycle:8", 100.0), ("ladder:6", 100.0), ("hypercube:3", 100.0),
         ("complete:2x3", 100.0), ("torus:4x4", 100.0), ("torus:4x4", 1e6)]


@pytest.mark.parametrize("spec,lam", CASES, ids=[f"{s}@{l:g}" for s, l in CASES])
def test_elimination_matches_dense_star_mesh_and_two_solve_green_route(spec, lam):
    g = build_family(spec)
    for graph in (g, relabel(g, 11)):
        spc, net = _net(graph, lam)
        for A, B in _pairs(spc, net):
            ref_r = ref_star_mesh_resistance(net, A, B)
            ref_mass = float(net.pi @ ref_lu_voltage(net, A, B))
            assert effective_resistance(net, A, B) == pytest.approx(ref_r, rel=1e-12)
            mass = float(net.pi @ voltage(net, A, B).values)
            assert mass == pytest.approx(ref_mass, rel=1e-12)
            if len(A) == len(B) == 1:
                ht = expected_hitting_time(net, *A, B)
                assert ht.value == pytest.approx(ref_r * ref_mass, rel=1e-12)


def test_elimination_voltage_is_harmonic_and_bounded():
    spc, net = _net(build_family("torus:4x4"), 1e6)
    for A, B in _pairs(spc, net):
        w = voltage(net, A, B)
        assert (w.values[list(A)] == 1.0).all() and (w.values[list(B)] == 0.0).all()
        # W(s) averages its neighbours with weights summing to 1 up to rounding
        assert ((w.values >= 0.0) & (w.values <= 1.0 + 1e-14)).all()
        assert w.harmonic_residual < 1e-12


@pytest.mark.parametrize("switch,panel", [(0.0, 1), (0.0, 5), (0.2, 3), (0.5, 32),
                                          (10.0, 32)])
def test_sparse_front_and_dense_panels_agree(monkeypatch, switch, panel):
    # every split between the minimum-degree front and the dense panels, and
    # every panel width, gives the same R, voltage mass and first step; the
    # networks are unlumped, and the random ones have terminals next to
    # pivots of both phases
    monkeypatch.setattr(potential, "DENSE_SWITCH", switch)
    monkeypatch.setattr(potential, "PANEL", panel)
    for spec in ("random:3x4:0.5:6", "random:5x5:0.5:9", "ladder:6"):
        spc, net = _net(build_family(spec), 100.0)
        for A, B in _pairs(spc, net):
            ref_r = ref_star_mesh_resistance(net, A, B)
            ref_mass = float(net.pi @ ref_lu_voltage(net, A, B))
            c, w, _ = potential._star_mesh(net, A, B)
            assert 1.0 / c == pytest.approx(ref_r, rel=1e-12)
            assert float(net.pi @ w) == pytest.approx(ref_mass, rel=1e-12)
            if len(A) == 1:
                E = potential._eliminate(net, (B,)).solve((0.0,), mass=net.pi)
                assert E[min(A)] == pytest.approx(ref_r * ref_mass, rel=1e-12)


def ref_gth(net, groups, mass, pivots):
    """Plain dense GTH on the full symmetric conductance matrix, one pivot at
    a time in the order ``pivots`` (nodes numbered as :func:`_eliminate`
    numbers them, the groups last), in units of the largest conductance:
    pivot k adds c_ik c_kj / c_k to every pair i, j of its later neighbours,
    in both triangles, and m_k c_jk / c_k to m_j.  Returns the reduced
    conductances among the groups, the mass carried from ``mass`` to each
    group, and a solve: x by back-substitution from x = top on the groups,
    with the carried masses or none.  An update spans the square box of its
    neighbours when they fill half of it (the zeros it adds change
    nothing), and their index grid otherwise."""
    n, t = len(net), len(groups)
    node = np.full(n, -1, dtype=np.int64)
    for k, grp in enumerate(groups):
        node[list(grp)] = k
    rest = np.flatnonzero(node < 0)
    node[rest] = np.arange(t, t + len(rest))
    scale = net.edge_c.max()
    C = np.zeros((t + len(rest),) * 2)
    np.add.at(C, (node[net.edge_i], node[net.edge_j]), net.edge_c / scale)
    np.add.at(C, (node[net.edge_j], node[net.edge_i]), net.edge_c / scale)
    np.fill_diagonal(C, 0.0)
    pivots = np.asarray(pivots)
    C = C[np.ix_(pivots, pivots)]
    m = np.bincount(node, weights=mass / scale, minlength=len(C))[pivots]
    L = len(rest)
    c = np.zeros(L)
    for k in range(L):
        nz = np.flatnonzero(C[k, k + 1:]) + k + 1
        if not len(nz):
            continue                    # isolated: no harmonic condition, x = 0
        c[k] = C[k, k + 1:].sum()
        if 2 * len(nz) < nz[-1] + 1 - nz[0]:
            box = np.ix_(nz, nz)
        else:
            nz = slice(nz[0], nz[-1] + 1)
            box = (nz, nz)
        share = C[nz, k] / c[k]
        C[box] += np.multiply.outer(share, C[k, nz])
        m[nz] += share * m[k]

    def solve(top, with_mass: bool) -> np.ndarray:
        x = np.zeros(len(C))
        x[L:] = top
        for k in range(L - 1, -1, -1):
            if c[k] > 0:
                x[k] = (m[k] * with_mass + C[k, k + 1:] @ x[k + 1:]) / c[k]
        out = np.zeros(len(C))
        out[pivots] = x
        return out[node]
    K = C[L:, L:] * scale
    np.fill_diagonal(K, 0.0)
    return K, m[L:] * scale, solve


def _tail_case(case: str):
    """The lumped network of u and v for "spec@lambda", "/scaled" tripling
    one edge at the empty state, and its groups ({u}, {v}) as orbits."""
    spec, _, lam = case.partition("@")
    spec, _, edit = spec.partition("/")
    spc, net = _net(build_family(spec), float(lam))
    if edit == "scaled":
        e = int(np.flatnonzero(net.edge_i == spc.empty_index)[0])
        net = net.with_scaled_edge(int(net.edge_i[e]), int(net.edge_j[e]), 3.0)
    A, B = frozenset({spc.u_state}), frozenset({spc.v_state})
    lumped, orbit = potential._lump(net, A, B)
    return lumped, (potential._orbits(orbit, A), potential._orbits(orbit, B))


def exact_gth(net, groups, mass, pivots):
    """GTH in exact rationals, with every float conductance and mass of
    ``net`` taken as the rational it is: the same outputs as
    :func:`ref_gth`, in the units of ``net``.  The pivot order changes no
    exact value, only the fill; each row is a dict of its live
    neighbours."""
    n, t = len(net), len(groups)
    node = np.full(n, -1, dtype=np.int64)
    for k, grp in enumerate(groups):
        node[list(grp)] = k
    rest = np.flatnonzero(node < 0)
    node[rest] = np.arange(t, t + len(rest))
    size = t + len(rest)
    C = [{} for _ in range(size)]
    for i, j, c in zip(node[net.edge_i].tolist(), node[net.edge_j].tolist(),
                       net.edge_c.tolist()):
        if i != j and c > 0:
            C[i][j] = C[j][i] = C[i].get(j, 0) + Fraction(c)
    m = [Fraction(0)] * size
    for x, w in zip(node.tolist(), mass.tolist()):
        m[x] += Fraction(w)
    rows = {}
    for k in pivots[:len(rest)].tolist():
        row, ck = C[k], sum(C[k].values())
        rows[k] = row, ck
        nbs = list(row)
        for i in nbs:
            del C[i][k]
        if not ck:
            continue
        for a, i in enumerate(nbs):
            share = row[i] / ck
            m[i] += share * m[k]
            for j in nbs[a + 1:]:
                C[i][j] = C[j][i] = C[i].get(j, 0) + share * row[j]
    K = np.array([[float(C[i].get(j, 0)) for j in range(t)] for i in range(t)])

    def solve(top, with_mass: bool) -> np.ndarray:
        x = [Fraction(v) for v in top] + [Fraction(0)] * len(rest)
        for k in reversed(rows):
            row, ck = rows[k]
            if ck:                      # isolated: no harmonic condition, x = 0
                x[k] = (m[k] * with_mass + sum(c * x[j] for j, c in row.items())) / ck
        return np.array([float(x[i]) for i in node.tolist()])
    return K, np.array([float(v) for v in m[:t]]), solve


TAIL_CASES = ["path:15@1e2", "path:17@1e6", "cycle:12@1e40", "torus:4x4/scaled@1e2"]
# against exact rationals: at lambda = 1e40 the float per-pivot reference's
# own back-substitution forms subnormal products, 1.3e-6 off
EXACT_TAIL_CASES = TAIL_CASES[2:]


@pytest.mark.parametrize("case", TAIL_CASES)
def test_tail_matches_per_pivot_dense_gth(case):
    # the panels, the upper-triangle storage and the column-blocked trailing
    # product against one pivot at a time, in floats on the full symmetric
    # matrix in the factor's own pivot order, or in exact rationals
    net, groups = _tail_case(case)
    f = potential._eliminate(net, groups)
    assert len(f.c) > 0
    pivots = np.concatenate([ps for ps, *_ in f.steps] + [f.order])
    ref = exact_gth if case in EXACT_TAIL_CASES else ref_gth
    K, carried, solve = ref(net, groups, net.pi, pivots)
    assert K[0, 1] > 0
    assert f.conductances() == pytest.approx(K, rel=1e-13, abs=0)
    np.testing.assert_allclose(f.carry(net.pi), carried, rtol=1e-13, atol=0)
    np.testing.assert_allclose(f.solve((1.0, 0.0)), solve((1.0, 0.0), False),
                               rtol=1e-13, atol=0)
    np.testing.assert_allclose(f.solve((1.0, 0.0), mass=net.pi), solve((1.0, 0.0), True),
                               rtol=1e-13, atol=0)


@pytest.mark.parametrize("case", TAIL_CASES[:1] + TAIL_CASES[2:])
@pytest.mark.parametrize("panel,block", [(64, 256), (5, 7)])
def test_solves_read_only_the_upper_triangle(monkeypatch, case, panel, block):
    # whatever lies below D's diagonal, every solve gives the same bytes
    monkeypatch.setattr(potential, "PANEL", panel)
    monkeypatch.setattr(potential, "BLOCK", block)
    net, (A, B) = _tail_case(case)
    for groups in ((A, B), (B,)):
        f = potential._eliminate(net, groups)
        top = (1.0, 0.0)[:len(groups)]

        def outputs():
            return [f.solve(top), f.solve(top, mass=net.pi), f.carry(net.pi),
                    f.conductances()]
        before = outputs()
        f.D[np.tril_indices(len(f.D), -1)] = np.nan
        after = outputs()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))


# ----------------------------------------------------------------------------
# The minimum-degree front against the set loop it replaced
# ----------------------------------------------------------------------------

def ref_min_degree_front(ei, ej, m, t):
    """The front as :func:`potential._min_degree_front` states it, with one
    Python set of live neighbours per node."""
    adj = [set() for _ in range(m)]
    for a, b in zip(ei.tolist(), ej.tolist()):
        adj[a].add(b)
    deg = np.fromiter(map(len, adj), np.int64, m)
    done = 4 * m                # above any live degree: never a pivot
    deg[:t] = done
    level = [0] * m
    front = []
    for count in range(m, t, -1):
        s = int(deg.argmin())
        if deg[s] >= potential.DENSE_SWITCH * count:
            break
        deg[s] = done
        nbs, adj[s] = adj[s], None
        up = level[s] + 1
        for i in nbs:
            a = adj[i]
            a |= nbs
            a.discard(i)
            a.discard(s)
            if level[i] < up:
                level[i] = up
        nbl = sorted(nbs)
        deg[nbl] = [len(adj[i]) if i >= t else done for i in nbl]
        front.append((s, nbl))
    return front, level


FRONT_CASES = ([(c, 100.0, f) for c in LUMP_CASES for f in range(3)]
               + [("torus:4x6", 100.0, 0), ("path:15", 100.0, "balls"),
                  ("cycle:12", 1e40, 0)])


def _front_case(case: str, lam: float, which):
    """The lumped network of a ``FRONT_CASES`` entry and its terminal sets as
    groups of orbits: the ``which``-th of ``_fixed_sets``, or "balls", u and
    v with their neighbours, each a group of several orbits."""
    spc, net = _case_network(case, lam)
    fixed = _pairs(spc, net)[1] if which == "balls" else _fixed_sets(spc)[which]
    lumped, orbit = potential._lump(net, *fixed)
    return lumped, tuple(potential._orbits(orbit, s) for s in fixed)


@pytest.mark.parametrize("case,lam,which", FRONT_CASES,
                         ids=[f"{c}@{l:g}-{w}" for c, l, w in FRONT_CASES])
def test_front_matches_set_reference(monkeypatch, case, lam, which):
    # the bitset front gives the set loop's pivots, neighbour lists and
    # levels, hence the same factor, array for array
    net, groups = _front_case(case, lam, which)
    seen = []

    def recorded(front):
        def run(*args):
            seen.append((args, front(*args)))
            return seen[-1][1]
        return run
    factors = []
    for front in (potential._min_degree_front, ref_min_degree_front):
        monkeypatch.setattr(potential, "_min_degree_front", recorded(front))
        factors.append(potential._eliminate(net, groups))
    ((ei, ej, m, t), ours), (_, ref) = seen
    assert ours == ref and (ours[0] or m <= 40)
    if which == "balls":            # a group node gets the same edge twice
        assert len(np.unique(ei * m + ej)) < len(ei)
    if lam > 1e30:                  # some conductances underflow to 0
        assert (net.edge_c / net.edge_c.max() == 0).any()
    f, r = factors
    assert f.order == r.order and f.scale == r.scale
    for a, b in [(f.node, r.node), (f.D, r.D), (f.c, r.c), (f.X, r.X)] + [
            (x, y) for fs, rs in zip(f.steps, r.steps, strict=True)
            for x, y in zip(fs, rs, strict=True)]:
        assert np.array_equal(a, b)


# R(u, v), E_u[T_v] by the Green route and by the first step, as float.hex,
# at alpha = 1/2, recorded with the set-based front (OpenBLAS, x86-64)
PINNED = {
    ("cycle:12", 100.0): ("0x1.0e23f97a99ecap+36", "0x1.755c3a96d65f4p+16",
                          "0x1.755c3a96d65f2p+16"),
    ("path:15", 100.0): ("0x1.0f47128d92bcbp+33", "0x1.e3cd1f246314dp+16",
                         "0x1.e3cd1f2463149p+16"),
    ("ladder:4", 1e4): ("0x1.82fdabe269512p+71", "0x1.03cedea4cd91bp+45",
                        "0x1.03cedea4cd91bp+45"),
}


@pytest.mark.parametrize("spec,lam", PINNED, ids=[f"{s}@{l:g}" for s, l in PINNED])
def test_outputs_pinned_bit_for_bit(spec, lam):
    spc, net = _net(build_family(spec), lam)
    u, v = spc.u_state, spc.v_state
    ht = expected_hitting_time(net, u, {v})
    got = (effective_resistance(net, {u}, {v}).hex(), ht.value.hex(), ht.first_step.hex())
    assert got == PINNED[spec, lam]


def test_front_refused_before_its_bitsets(monkeypatch):
    # one byte short of the bitset rows of cycle:12's 47 orbits, m ceil(m/30)
    # 4-byte digits, and the byte array they are read from, m ceil(m/8)
    # bytes: refused before the front builds a row
    spc, net = _net(build_family("cycle:12"), 100.0)
    u, v = spc.u_state, spc.v_state
    m = 47
    need = m * (4 * 2 + 6)

    def unreachable(*args):
        raise AssertionError("the front ran")
    monkeypatch.setattr(potential, "_min_degree_front", unreachable)
    monkeypatch.setattr(potential, "_available_memory", lambda: need - 1)
    with pytest.raises(CapExceeded, match=f"bitset rows of {m} nodes need {need:,} "
                                          f"bytes; {need - 1:,} bytes are available"):
        effective_resistance(net, {u}, {v})
    # exactly enough: the front runs
    monkeypatch.setattr(potential, "_available_memory", lambda: need)
    with pytest.raises(AssertionError, match="the front ran"):
        effective_resistance(net, {u}, {v})


def test_green_by_visits_refused_before_its_matrix(monkeypatch):
    # one byte short of the dense first-step matrix of the 321 states of
    # cycle:12 outside v and LAPACK's copy, 16 k^2 bytes: refused before the
    # kernel's entries are read
    spc, net = _net(build_family("cycle:12"), 100.0)
    u, v = spc.u_state, spc.v_state
    k = len(spc) - 1
    need = 16 * k * k

    def unreachable(*args):
        raise AssertionError("the matrix was assembled")
    monkeypatch.setattr(net.kernel, "offdiag_coo", unreachable)
    monkeypatch.setattr(potential, "_available_memory", lambda: need - 1)
    with pytest.raises(CapExceeded, match=f"matrix of {k} states and its LAPACK copy "
                                          f"need {need:,} bytes; {need - 1:,} bytes "
                                          f"are available"):
        potential.green_by_visits(net, u, {v})
    # exactly enough: it assembles
    monkeypatch.setattr(potential, "_available_memory", lambda: need)
    with pytest.raises(AssertionError, match="the matrix was assembled"):
        potential.green_by_visits(net, u, {v})


def test_disconnected_pair_raises():
    g = build_family("complete:1x1")
    spc, net = _net(g, 10.0)
    empty, u0, v0 = spc.empty_index, spc.index[0b01], spc.index[0b10]
    cut = net.with_scaled_edge(empty, u0, 0.0)
    with pytest.raises(ValueError, match="A and B are disconnected"):
        effective_resistance(cut, {u0}, {v0})


# ----------------------------------------------------------------------------
# Exact rational references
# ----------------------------------------------------------------------------

def _solve_exact(rows: dict, rhs: dict) -> dict:
    """Gaussian elimination on a symmetric positive definite system given as
    sparse rows {i: {j: a_ij}}, in ascending order without pivoting."""
    rows = {i: dict(r) for i, r in rows.items()}
    rhs = dict(rhs)
    order = sorted(rows)
    for k, s in enumerate(order):
        piv = rows[s][s]
        for i in order[k + 1:]:
            f = rows[i].get(s)
            if not f:
                continue
            f /= piv
            for j, a in rows[s].items():
                rows[i][j] = rows[i].get(j, 0) - f * a
            rhs[i] = rhs.get(i, 0) - f * rhs.get(s, 0)
    x = {}
    for s in reversed(order):
        acc = rhs.get(s, 0) - sum(a * x[j] for j, a in rows[s].items() if j in x)
        x[s] = acc / rows[s][s]
    return x


def exact_references(spc, par, a: int, b: int, orbit=None
                     ) -> tuple[Fraction, Fraction]:
    """R(a, b) and E_a[T_b] in steps for the model with the activities of
    ``par`` taken as exact rationals.  With ``orbit`` (a node per state),
    on the chain lumped by it: pi and conductances summed, edges inside a
    node dropped."""
    lam, lam_bar = Fraction(par.lam), Fraction(par.lam_bar)
    g = spc.graph
    gamma = (1 + lam) * len(g.u_sites) + (1 + lam_bar) * len(g.v_sites)
    w = [lam ** nu * lam_bar ** nv for nu, nv in map(spc.counts, spc.configs)]
    z = sum(w)
    if orbit is None:
        orbit = list(range(len(spc)))
    a, b = orbit[a], orbit[b]
    n = max(orbit) + 1
    pi = [Fraction(0)] * n
    for x, wx in enumerate(w):
        pi[orbit[x]] += wx / z
    c = {}                                  # c(x, y) = pi(x) K(x, y)
    emptied, occupied, _ = spc.moves
    for y, x in zip(emptied.tolist(), occupied.tolist()):
        ox, oy = orbit[x], orbit[y]
        if ox != oy:
            cx = c.setdefault(ox, {})
            cx[oy] = c.setdefault(oy, {})[ox] = cx.get(oy, 0) + w[x] / z / gamma

    def laplacian(keep):
        return {x: {**{y: -cv for y, cv in c[x].items() if y in keep},
                    x: sum(c[x].values())} for x in keep}

    interior = set(range(n)) - {a, b}
    W = _solve_exact(laplacian(interior),
                     {x: c[x][a] for x in interior if a in c[x]})
    W[a], W[b] = Fraction(1), Fraction(0)
    r = 1 / sum(cv * W[x] for x, cv in c[b].items())
    # first-step system, symmetrised by pi: L E = pi outside b
    outside = set(range(n)) - {b}
    E = _solve_exact(laplacian(outside), {x: pi[x] for x in outside})
    assert r * sum(p * W[x] for x, p in enumerate(pi)) == E[a]
    return r, E[a]


@pytest.mark.parametrize("spec", ["cycle:6", "ladder:4", "complete:2x3"])
def test_routes_against_exact_rationals(spec, record_property):
    g = build_family(spec)
    spc = enumerate_space(g)
    for lam in (1e2, 1e4, 1e6):
        par = ModelParams.for_graph(g, lam, alpha=HALF)
        net = build_network(spc, par)
        # The empty state is the first state, so all its edges leave it.
        for b in (spc.v_state, spc.empty_index):
            r, e = exact_references(spc, par, spc.u_state, b)
            assert effective_resistance(net, {spc.u_state}, {b}) == pytest.approx(
                float(r), rel=1e-12)
            ht = expected_hitting_time(net, spc.u_state, {b})
            assert ht.value == pytest.approx(float(e), rel=1e-12)
            first_step_error = float(abs(Fraction(ht.first_step) - e) / e)
            record_property(f"first_step_rel_error[{b}]@{lam:g}", first_step_error)
            assert first_step_error <= 1e-12


@pytest.mark.parametrize("lam", [1e4, 1e6])
def test_routes_agree_above_the_old_dense_limit(lam):
    # path:17 lumps to 2,135 orbits; above 1,200 an LU first step gave
    # -1.73e20 towards the empty state at 1e4, the Green route found the
    # empty state disconnected at 1e6, and the routes to v differed by 3.5e-8
    spc, net = _net(build_family("path:17"), lam)
    u = spc.u_state
    for b in (spc.v_state, spc.empty_index):
        ht = expected_hitting_time(net, u, {b})
        assert ht.orbits == 2135
        assert ht.value > 0 and ht.first_step > 0
        assert ht.first_step == pytest.approx(ht.value, rel=1e-12)
        green_r = potential._green_weights(net, u, frozenset({b}))[0]
        assert effective_resistance(net, {u}, {b}) == pytest.approx(green_r, rel=1e-12)


def _is_uv_automorphism(g, p) -> bool:
    edges = set(g.edges)
    return (sorted(p) == list(range(g.n_sites))
            and {p[a] for a in g.u_sites} == set(g.u_sites)
            and {tuple(sorted((p[a], p[b]))) for a, b in edges} == edges)


def test_torus_4x4_against_exact_lumped_chain():
    g = build_family("torus:4x4")
    spc = enumerate_space(g)
    gens = automorphism_generators(g)
    assert all(_is_uv_automorphism(g, p) for p in gens)
    # orbits of the states: union-find over x ~ p(x)
    root = list(range(len(spc)))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x
    for p in gens:
        for x, mask in enumerate(spc.configs):
            image = sum(1 << p[site] for site in range(g.n_sites) if mask >> site & 1)
            root[find(x)] = find(spc.index[image])
    heads = sorted({find(x) for x in range(len(spc))})
    node = {h: k for k, h in enumerate(heads)}
    orbit = [node[find(x)] for x in range(len(spc))]
    assert len(heads) == 39
    u, v = spc.u_state, spc.v_state
    for lam in (1e2, 1e4, 1e6):
        par = ModelParams.for_graph(g, lam, alpha=HALF)
        net = build_network(spc, par)
        r, e = exact_references(spc, par, u, v, orbit)
        assert effective_resistance(net, {u}, {v}) == pytest.approx(float(r), rel=1e-12)
        ht = expected_hitting_time(net, u, {v})
        assert ht.orbits == 39
        assert ht.value == pytest.approx(float(e), rel=1e-12)
        assert ht.first_step == pytest.approx(float(e), rel=1e-12)
