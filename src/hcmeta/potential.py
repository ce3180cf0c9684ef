"""Electric-network computations on the configuration graph.

Conductances are c(x,y) = pi(x) K(x,y) with pi normalized.  Voltages come
from a sparse LU solve of the row-normalized harmonic system (with iterative
refinement).  Effective resistances and escape probabilities go through a
cancellation-free star-mesh (Kron) elimination below a size threshold, which
keeps full relative accuracy even when conductances span lambda^Delta ranges;
larger networks fall back to the LU route.

Critical (bottleneck) resistance is computed numerically by incremental
union-find over edges, and symbolically on a bottleneck tree: the edges sorted
once by exact integer exponent keys, which answers every Psi(x, J^-(x)) of a
space in a single union-find pass.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .asymptotics import AsymptoticExponent
from .configspace import ConfigurationSpace, ModelParams
from .dynamics import TransitionKernel, build_kernel

__all__ = [
    "ElectricNetwork",
    "VoltageField",
    "PsiResult",
    "PsiSymbolic",
    "HittingTimeResult",
    "build_network",
    "voltage",
    "effective_resistance",
    "escape_probability",
    "green_function",
    "green_by_visits",
    "expected_hitting_time",
    "critical_resistance",
    "psi_symbolic",
    "BottleneckTree",
    "nash_williams_bounds",
    "voltage_bound_check",
    "VoltageBoundReport",
]

DENSE_ELIMINATION_LIMIT = 1200


class ElectricNetwork:
    """Conductance network over an enumerated configuration space."""

    def __init__(self, space: ConfigurationSpace, params: ModelParams,
                 kernel: TransitionKernel | None = None):
        self.space = space
        self.params = params
        self.kernel = kernel if kernel is not None else build_kernel(space, params)
        self.pi = space.stationary(params)
        rows, cols, probs = self.kernel.offdiag_coo()
        c = self.pi[rows] * probs
        keep = rows < cols                     # one record per undirected edge
        self.edge_i = rows[keep]
        self.edge_j = cols[keep]
        self.edge_c = c[keep]

    def __len__(self) -> int:
        return len(self.space)

    @property
    def n_edges(self) -> int:
        return len(self.edge_c)

    def edges(self):
        return zip(self.edge_i.tolist(), self.edge_j.tolist(), self.edge_c.tolist())

    def conductance_matrix(self) -> sp.csr_matrix:
        n = len(self)
        m = sp.coo_matrix(
            (np.concatenate([self.edge_c, self.edge_c]),
             (np.concatenate([self.edge_i, self.edge_j]),
              np.concatenate([self.edge_j, self.edge_i]))),
            shape=(n, n))
        return m.tocsr()

    def with_scaled_edge(self, i: int, j: int, factor: float) -> "ElectricNetwork":
        """Copy of the network with conductance of edge (i, j) multiplied."""
        out = ElectricNetwork.__new__(ElectricNetwork)
        out.space, out.params, out.kernel = self.space, self.params, self.kernel
        out.pi = self.pi
        out.edge_i, out.edge_j = self.edge_i.copy(), self.edge_j.copy()
        out.edge_c = self.edge_c.copy()
        a, b = min(i, j), max(i, j)
        hit = (out.edge_i == a) & (out.edge_j == b)
        if not hit.any():
            raise ValueError(f"no edge between {i} and {j}")
        out.edge_c[hit] *= factor
        return out


def build_network(space: ConfigurationSpace, params: ModelParams,
                  kernel: TransitionKernel | None = None) -> ElectricNetwork:
    return ElectricNetwork(space, params, kernel)


# ----------------------------------------------------------------------------
# Voltage
# ----------------------------------------------------------------------------

@dataclass
class VoltageField:
    values: np.ndarray
    source: frozenset[int]              # value 1
    ground: frozenset[int]              # value 0
    harmonic_residual: float


def voltage(net: ElectricNetwork, A, B, max_refine: int = 4) -> VoltageField:
    """Harmonic W with W=1 on A, W=0 on B; W(x) = Pr_x(T_A < T_B)."""
    A, B = frozenset(int(a) for a in A), frozenset(int(b) for b in B)
    if not A or not B:
        raise ValueError("A and B must be non-empty")
    if A & B:
        raise ValueError("A and B must be disjoint")
    n = len(net)
    C = net.conductance_matrix()
    deg = np.asarray(C.sum(axis=1)).ravel()
    interior = np.array([i for i in range(n) if i not in A and i not in B],
                        dtype=np.int64)
    w = np.zeros(n)
    w[list(A)] = 1.0
    if len(interior):
        if (deg[interior] <= 0).any():
            raise ValueError("singular system: isolated interior state")
        P = sp.diags(1.0 / deg[interior]) @ C[interior, :]
        M = (sp.identity(len(interior), format="csr")
             - P[:, interior]).tocsc()
        rhs = np.asarray(P[:, sorted(A)].sum(axis=1)).ravel()
        lu = spla.splu(M)
        x = lu.solve(rhs)
        for _ in range(max_refine):
            r = rhs - M @ x
            if np.max(np.abs(r)) < 1e-15:
                break
            x = x + lu.solve(r)
        w[interior] = x
    res = _harmonic_residual(C, deg, w, interior)
    return VoltageField(w, A, B, res)


def _harmonic_residual(C, deg, w, interior) -> float:
    if not len(interior):
        return 0.0
    avg = (C[interior, :] @ w) / deg[interior]
    return float(np.max(np.abs(w[interior] - avg)))


# ----------------------------------------------------------------------------
# Effective resistance via star-mesh elimination
# ----------------------------------------------------------------------------

def _star_mesh_resistance(net: ElectricNetwork, A: frozenset, B: frozenset) -> float:
    """Kron elimination with positive arithmetic; exact relative accuracy."""
    n = len(net)
    # Supernode 0 contracts A, supernode 1 contracts B, the rest in index order.
    node_of: dict[int, int] = {}
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
        row = C[s]
        cs = row.sum()
        if cs <= 0.0:
            C[s, :] = 0.0
            C[:, s] = 0.0
            continue
        col = C[:, s].copy()
        C += np.outer(col, row) / cs
        np.fill_diagonal(C, 0.0)
        C[s, :] = 0.0
        C[:, s] = 0.0
    c01 = C[0, 1]
    if c01 <= 0.0:
        raise ValueError("A and B are disconnected")
    return 1.0 / (c01 * scale)


def _lu_resistance(net: ElectricNetwork, A: frozenset, B: frozenset) -> float:
    w = voltage(net, A, B)
    C = net.conductance_matrix()
    flow = 0.0
    vals = w.values
    for b in B:
        flow += float((C[b] @ vals)[0])     # W(b) = 0, so this is the inflow
    if flow <= 0.0:
        raise ValueError("A and B are disconnected")
    return 1.0 / flow


def effective_resistance(net: ElectricNetwork, A, B) -> float:
    """R(A, B) > 0; invariant under contraction of A and of B."""
    A = frozenset(int(a) for a in A)
    B = frozenset(int(b) for b in B)
    if not A or not B or (A & B):
        raise ValueError("A and B must be non-empty and disjoint")
    if len(net) <= DENSE_ELIMINATION_LIMIT:
        return _star_mesh_resistance(net, A, B)
    return _lu_resistance(net, A, B)


def escape_probability(net: ElectricNetwork, a: int, B) -> tuple[float, float]:
    """Pr_a(T_B < T_a^+) by the resistance formula and by first-transition
    decomposition; returns (formula_value, decomposition_value)."""
    a = int(a)
    B = frozenset(int(b) for b in B)
    if a in B:
        raise ValueError("a must not belong to B")
    r = effective_resistance(net, {a}, B)
    formula = 1.0 / (net.pi[a] * r)
    wf = voltage(net, B, {a})
    k = net.kernel
    dec = sum(p * wf.values[t]
              for t, p in zip(k.row_targets[a], k.row_probs[a]))
    return formula, dec


# ----------------------------------------------------------------------------
# Green functions and expected hitting times
# ----------------------------------------------------------------------------

def green_function(net: ElectricNetwork, a: int, B) -> np.ndarray:
    """G_{T_B}(a, x) = R(a, B) pi(x) W_{a,B}(x); zero on B."""
    a = int(a)
    B = frozenset(int(b) for b in B)
    if a in B:
        raise ValueError("a must not belong to B")
    r = effective_resistance(net, {a}, B)
    w = voltage(net, {a}, B)
    return r * net.pi * w.values


def green_by_visits(net: ElectricNetwork, a: int, B) -> np.ndarray:
    """Independent route: expected visit counts from the first-step system."""
    a = int(a)
    B = frozenset(int(b) for b in B)
    n = len(net)
    keep = np.array([i for i in range(n) if i not in B], dtype=np.int64)
    pos = {int(x): k for k, x in enumerate(keep)}
    k = net.kernel
    rows, cols, vals = [], [], []
    for i in keep:
        rows.append(pos[int(i)])
        cols.append(pos[int(i)])
        vals.append(k.self_loop(int(i)))
        for t, p in zip(k.row_targets[int(i)], k.row_probs[int(i)]):
            if t not in B:
                rows.append(pos[int(i)])
                cols.append(pos[t])
                vals.append(p)
    kk = sp.coo_matrix((vals, (rows, cols)), shape=(len(keep), len(keep))).tocsc()
    m = (sp.identity(len(keep), format="csc") - kk.T).tocsc()
    rhs = np.zeros(len(keep))
    rhs[pos[a]] = 1.0
    g = spla.splu(m).solve(rhs)
    out = np.zeros(n)
    out[keep] = g
    return out


@dataclass
class HittingTimeResult:
    value: float                 # Green-sum route: R(a,B) * sum pi W
    first_step: float            # (I - K) E = 1 route
    rel_gap: float

    def continuous(self, params: ModelParams) -> float:
        return self.value / params.gamma


def expected_hitting_time(net: ElectricNetwork, a: int, B) -> HittingTimeResult:
    """E_a[T_B] in discrete steps, computed by two independent routes."""
    a = int(a)
    B = frozenset(int(b) for b in B)
    if a in B:
        return HittingTimeResult(0.0, 0.0, 0.0)
    r = effective_resistance(net, {a}, B)
    w = voltage(net, {a}, B)
    green_route = r * float(net.pi @ w.values)

    n = len(net)
    keep = np.array([i for i in range(n) if i not in B], dtype=np.int64)
    pos = {int(x): k for k, x in enumerate(keep)}
    k = net.kernel
    rows, cols, vals = [], [], []
    for i in keep:
        ii = int(i)
        rows.append(pos[ii]); cols.append(pos[ii]); vals.append(k.self_loop(ii))
        for t, p in zip(k.row_targets[ii], k.row_probs[ii]):
            if t not in B:
                rows.append(pos[ii]); cols.append(pos[t]); vals.append(p)
    kk = sp.coo_matrix((vals, (rows, cols)), shape=(len(keep), len(keep))).tocsc()
    m = (sp.identity(len(keep), format="csc") - kk).tocsc()
    e = spla.splu(m).solve(np.ones(len(keep)))
    first_step = float(e[pos[a]])
    gap = abs(green_route - first_step) / max(abs(green_route), abs(first_step), 1e-300)
    return HittingTimeResult(green_route, first_step, gap)


# ----------------------------------------------------------------------------
# Critical (bottleneck) resistance
# ----------------------------------------------------------------------------

class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x: int, y: int):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry


@dataclass
class PsiResult:
    value: float
    witness_path: list[int]
    bottleneck_edge: tuple[int, int]


def critical_resistance(net: ElectricNetwork, A, B) -> PsiResult:
    """Psi(A,B) = min over paths of max edge resistance (numeric)."""
    A = frozenset(int(a) for a in A)
    B = frozenset(int(b) for b in B)
    if not A or not B:
        raise ValueError("A and B must be non-empty")
    if A & B:
        return PsiResult(0.0, [next(iter(A & B))], (-1, -1))
    n = len(net)
    order = np.argsort(-net.edge_c, kind="stable")
    uf = _UnionFind(n + 2)
    src, dst = n, n + 1
    for a in A:
        uf.union(a, src)
    for b in B:
        uf.union(b, dst)
    bottleneck = None
    for idx in order:
        i, j = int(net.edge_i[idx]), int(net.edge_j[idx])
        uf.union(i, j)
        if uf.find(src) == uf.find(dst):
            bottleneck = idx
            break
    if bottleneck is None:
        raise ValueError("A and B are disconnected")
    c_star = float(net.edge_c[bottleneck])
    path = _bottleneck_path(net, A, B, c_star)
    return PsiResult(1.0 / c_star, path,
                     (int(net.edge_i[bottleneck]), int(net.edge_j[bottleneck])))


def _bottleneck_path(net: ElectricNetwork, A: frozenset, B: frozenset,
                     c_min: float) -> list[int]:
    """A shortest path from A to B using only edges with c >= c_min."""
    n = len(net)
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j, c in zip(net.edge_i, net.edge_j, net.edge_c):
        if c >= c_min * (1.0 - 1e-15):
            adj[int(i)].append(int(j))
            adj[int(j)].append(int(i))
    prev = {a: -1 for a in A}
    frontier = list(A)
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in prev:
                    prev[y] = x
                    if y in B:
                        path = [y]
                        while path[-1] != -1 and prev[path[-1]] != -1:
                            path.append(prev[path[-1]])
                        return list(reversed(path))
                    nxt.append(y)
        frontier = nxt
    raise AssertionError("bottleneck path reconstruction failed")


@dataclass
class PsiSymbolic:
    """Symbolic bottleneck: Psi(A,B) = gamma * Z / w_bottleneck.

    ``bottleneck_weight`` is the exponent of the bottleneck edge's larger
    endpoint weight; pi(x) Psi(A,B) / gamma then has Z-free exponent
    ord(w_x) - bottleneck_weight.  ``tie_pq`` lists the distinct (p, q) pairs
    when the connecting tie-group is mixed (alpha genericity failure).
    """
    bottleneck_weight: AsymptoticExponent
    witness_path: list[int]
    tie_pq: list[tuple[Fraction, Fraction]] = field(default_factory=list)

    @property
    def is_tie(self) -> bool:
        return len(self.tie_pq) > 1

    def normalized_exponent(self, base: AsymptoticExponent) -> AsymptoticExponent:
        """Exponent of w_base * (1 / w_bottleneck) (Z- and gamma-free)."""
        return base / self.bottleneck_weight


class BottleneckTree:
    """Edges of the configuration graph in the exact lambda-exponent order.

    An edge joins x and x minus one particle; its level is the weight order of
    its heavier endpoint (bigger w = smaller resistance), read from the exact
    integer keys of :meth:`ConfigurationSpace.weight_keys`.  Levels run from
    the highest key down: level k has key ``level_keys[k]``, sorted distinct
    (p, q) labels ``level_pq[k]`` (more than one label is an alpha-genericity
    tie) and edges ``edge_i[e], edge_j[e]`` for ``level_start[k] <= e <
    level_start[k+1]``.  Building costs one O(E log E) sort; each query is a
    single union-find pass over the levels.
    """

    def __init__(self, space: ConfigurationSpace, alpha: Fraction):
        self.space = space
        self.keys = space.weight_keys(alpha)
        labels: dict[int, set[tuple[int, int]]] = {}
        for key, mask in zip(self.keys, space.configs):
            if mask:                    # the empty state heads no edge
                nu, nv = space.counts(mask)
                labels.setdefault(key, set()).add((nu + nv, nv))
        self.level_keys = sorted(labels, reverse=True)
        self.level_pq = [sorted((Fraction(p), Fraction(q)) for p, q in labels[k])
                         for k in self.level_keys]
        level_of = {k: lvl for lvl, k in enumerate(self.level_keys)}
        state_level = np.array([level_of.get(k, -1) for k in self.keys],
                               dtype=np.int64)
        # Removal edges, recorded once from the occupied side i: w_i > w_j,
        # so the edge's level is i's.  Configs are sorted, so searchsorted
        # finds j = i minus the particle.
        masks = np.array(space.configs, dtype=np.int64)
        heads, tails = [], []
        for site in range(space.graph.n_sites):
            occ = np.flatnonzero((masks >> site) & 1)
            heads.append(occ)
            tails.append(np.searchsorted(masks, masks[occ] ^ (1 << site)))
        ei, ej = np.concatenate(heads), np.concatenate(tails)
        lvl = state_level[ei]
        order = np.argsort(lvl, kind="stable")
        self.edge_i, self.edge_j = ei[order].tolist(), ej[order].tolist()
        self.level_start = np.searchsorted(
            lvl[order], np.arange(len(self.level_keys) + 1)).tolist()

    def bottleneck_weight(self, level: int) -> AsymptoticExponent:
        """Level's weight exponent: its smallest (p, q) label."""
        return AsymptoticExponent(*self.level_pq[level][0])

    def connecting_level(self, A: frozenset, B: frozenset) -> int:
        """First level at which edges at or above it join A to B."""
        n = len(self.keys)
        uf = _UnionFind(n + 2)
        src, dst = n, n + 1
        for a in A:
            uf.union(a, src)
        for b in B:
            uf.union(b, dst)
        if uf.find(src) == uf.find(dst):
            raise ValueError("A and B intersect")
        ei, ej, start = self.edge_i, self.edge_j, self.level_start
        for level in range(len(self.level_keys)):
            for e in range(start[level], start[level + 1]):
                uf.union(ei[e], ej[e])
            if uf.find(src) == uf.find(dst):
                return level
        raise ValueError("A and B are disconnected")

    def escape_levels(self) -> list[int]:
        """For every state x, the level of Psi(x, J^-(x)), where J^-(x) holds
        the states of strictly larger key; -1 when J^-(x) is empty.

        One Kruskal pass: each component keeps its largest key and the states
        holding it, which still wait for a larger one.  A merge at level k
        settles the waiting states of the side with the smaller maximum; on
        equal maxima both sides keep waiting.  The configuration graph is
        connected (every state reaches the empty one), so the states left
        waiting are those of the largest key.
        """
        n = len(self.keys)
        uf = _UnionFind(n)
        top = list(self.keys)
        waiting: list[list[int] | None] = [[x] for x in range(n)]
        escape = [-1] * n
        ei, ej, start = self.edge_i, self.edge_j, self.level_start
        for level in range(len(self.level_keys)):
            for e in range(start[level], start[level + 1]):
                r, s = uf.find(ei[e]), uf.find(ej[e])
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

    def witness_path(self, A: frozenset, B: frozenset, level: int) -> list[int]:
        """Shortest path from A to B using only edges whose heavier endpoint
        has key at least ``level_keys[level]`` (BFS from A in site order)."""
        space, keys = self.space, self.keys
        floor = self.level_keys[level]
        prev = {a: -1 for a in A}
        frontier = list(A)
        while frontier:
            nxt = []
            for x in frontier:
                mx = space.configs[x]
                for site in range(space.graph.n_sites):
                    bit = 1 << site
                    if mx & bit:
                        my = mx ^ bit
                    elif not (mx & space.neighbor_masks[site]):
                        my = mx | bit
                    else:
                        continue
                    y = space.index[my]
                    if max(keys[x], keys[y]) < floor:
                        continue
                    if y not in prev:
                        prev[y] = x
                        if y in B:
                            path = [y]
                            while prev[path[-1]] != -1:
                                path.append(prev[path[-1]])
                            return list(reversed(path))
                        nxt.append(y)
            frontier = nxt
        raise AssertionError("exponent path reconstruction failed")


def psi_symbolic(space: ConfigurationSpace, A, B, alpha: Fraction) -> PsiSymbolic:
    """Bottleneck search in the exact exponent order as lambda -> infinity."""
    A = frozenset(int(a) for a in A)
    B = frozenset(int(b) for b in B)
    if not A or not B:
        raise ValueError("A and B must be non-empty")
    tree = BottleneckTree(space, alpha)
    level = tree.connecting_level(A, B)
    return PsiSymbolic(tree.bottleneck_weight(level),
                       tree.witness_path(A, B, level),
                       tie_pq=list(tree.level_pq[level]))


# ----------------------------------------------------------------------------
# Nash-Williams bounds and voltage bounds
# ----------------------------------------------------------------------------

def nash_williams_bounds(net: ElectricNetwork, A, B, cut, paths
                         ) -> tuple[float, float]:
    """(lower, upper) bounds on the effective conductance C(A, B).

    ``cut`` must contain A and avoid B; the upper bound is the total
    conductance across its boundary.  ``paths`` is a family of simple paths
    from A to B, no two of which traverse a common edge in opposite
    directions; the lower bound is the extended dual form with edge-use
    counts n(e).
    """
    A = frozenset(int(a) for a in A)
    B = frozenset(int(b) for b in B)
    cut = frozenset(int(x) for x in cut)
    if not A <= cut:
        raise ValueError("invalid cut: does not contain A")
    if cut & B:
        raise ValueError("invalid cut: intersects B")
    cmat = {}
    for i, j, c in zip(net.edge_i, net.edge_j, net.edge_c):
        cmat[(int(i), int(j))] = float(c)
        cmat[(int(j), int(i))] = float(c)
    upper = sum(c for (i, j), c in cmat.items() if i in cut and j not in cut)

    directed_use: dict[tuple[int, int], int] = {}
    for pnum, path in enumerate(paths):
        if len(path) < 2:
            raise ValueError(f"path {pnum} too short")
        if path[0] not in A or path[-1] not in B:
            raise ValueError(f"path {pnum} does not run from A to B")
        if len(set(path)) != len(path):
            raise ValueError(f"path {pnum} is not simple")
        for x, y in zip(path, path[1:]):
            if (x, y) not in cmat:
                raise ValueError(f"path {pnum} uses a non-edge ({x},{y})")
            if directed_use.get((y, x), 0) > 0:
                raise ValueError(
                    f"paths traverse edge ({x},{y}) in opposite directions")
            directed_use[(x, y)] = directed_use.get((x, y), 0) + 1
    lower = 0.0
    for path in paths:
        denom = sum(directed_use[(x, y)] / cmat[(x, y)]
                    for x, y in zip(path, path[1:]))
        lower += 1.0 / denom
    return lower, upper


@dataclass
class VoltageBoundReport:
    w: float
    resistance_lower_ok: bool       # 1 - R(x,A)/R(A,B) <= W(x)
    resistance_upper_ok: bool       # W(x) <= R(x,B)/R(A,B)
    psi_lower_ok: bool              # 1 - kbar Psi(x,A)/Psi(A,B) <= W(x)
    psi_upper_ok: bool              # W(x) <= kbar Psi(x,B)/Psi(A,B)
    difference_ok: bool             # |W(x)-W(y)| <= kbar Psi(x,y)/Psi(A,B)

    @property
    def all_ok(self) -> bool:
        return (self.resistance_lower_ok and self.resistance_upper_ok and
                self.psi_lower_ok and self.psi_upper_ok and self.difference_ok)


def voltage_bound_check(net: ElectricNetwork, A, B, x: int,
                        y: int | None = None, slack: float = 1e-9
                        ) -> VoltageBoundReport:
    """A priori voltage bounds, with kbar = |X|^4 in the Psi versions."""
    A = frozenset(int(a) for a in A)
    B = frozenset(int(b) for b in B)
    x = int(x)
    if x in A or x in B:
        raise ValueError("x must avoid A and B")
    w = voltage(net, A, B)
    wx = float(w.values[x])
    r_ab = effective_resistance(net, A, B)
    r_xa = effective_resistance(net, {x}, A)
    r_xb = effective_resistance(net, {x}, B)
    kbar = float(len(net)) ** 4
    psi_ab = critical_resistance(net, A, B).value
    psi_xa = critical_resistance(net, {x}, A).value
    psi_xb = critical_resistance(net, {x}, B).value
    if y is None:
        y = next(i for i in range(len(net)) if i != x and i not in A and i not in B)
    wy = float(w.values[int(y)])
    psi_xy = critical_resistance(net, {x}, {int(y)}).value
    return VoltageBoundReport(
        w=wx,
        resistance_lower_ok=1.0 - r_xa / r_ab <= wx + slack,
        resistance_upper_ok=wx <= r_xb / r_ab + slack,
        psi_lower_ok=1.0 - kbar * psi_xa / psi_ab <= wx + slack,
        psi_upper_ok=wx <= kbar * psi_xb / psi_ab + slack,
        difference_ok=abs(wx - wy) <= kbar * psi_xy / psi_ab + slack,
    )
