"""Electric-network computations on the configuration graph.

Conductances are c(x,y) = pi(x) K(x,y) with pi normalized.  Voltages,
effective resistances, Green functions and the Green route of the expected
hitting time, E_a[T_B] = R(a, B) sum_x pi(x) W_{a,B}(x), take one of two
routes, chosen by the number of states alone:

- Up to ``DENSE_ELIMINATION_LIMIT`` states, one star-mesh (Kron) elimination
  in minimum-degree order gives the effective conductance c(A, B) and, by
  back-substitution, the voltage W.  It only adds, multiplies and divides
  positive numbers, so R, every W(x) and the Green-route E[T] keep entrywise
  relative accuracy however far the conductances spread (Grassmann, Taksar
  & Heyman 1985): they agree with exact rational references to 1e-12 up to
  lambda = 1e6.
- Above it, one sparse LU solve of the row-normalized harmonic system
  (minimum-degree ordering on A^T + A, iterative refinement).  R is the
  reciprocal of the current into B, and E[T] uses the same W.  Only the
  harmonic residual, reported with every voltage, is guaranteed; there is
  no relative-accuracy guarantee.

``expected_hitting_time`` cross-checks the Green route with the first-step
system (diag(p_move) - K_off) E = 1, solved by LU.  Its diagonal is p_move
itself, so it no longer loses the digits of 1 - self-loop, but LU is not
cancellation-free.  Against exact references its relative error was 3e-11
on cycle:6 at lambda = 1e6, 3e-10 on ladder:4 at 1e4 and 7e-6 at 1e6, and
1e-10 on complete:2x3 at 1e6; on torus:4x4 it is 2e-3 off the Green route
at 1e4 and wholly wrong at 1e6.  Towards the empty state it does worse:
E_u[T_empty] is 1.5e-4 off on cycle:6 at 1e4 and wholly wrong on ladder:4
at 1e4.

Critical (bottleneck) resistance is computed numerically by threshold
connectivity over the conductances, and symbolically on a bottleneck tree: the
edges sorted once by exact integer exponent keys, which answers every
Psi(x, J^-(x)) of a space in a single union-find pass.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

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
        up = np.flatnonzero(rows < cols)       # one record per undirected edge
        self.edge_i = rows[up]
        self.edge_j = cols[up]
        self.edge_c = self.pi[self.edge_i] * probs[up]

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
# Voltage and effective resistance
# ----------------------------------------------------------------------------

@dataclass
class VoltageField:
    values: np.ndarray
    source: frozenset[int]              # value 1
    ground: frozenset[int]              # value 0
    harmonic_residual: float


def _splu(m: sp.csc_matrix):
    """LU of a structurally symmetric matrix, ordered by minimum degree on
    A^T + A (path:15's voltage: 0.52M fill nonzeros against COLAMD's 1.09M)."""
    return spla.splu(m, permc_spec="MMD_AT_PLUS_A")


def voltage(net: ElectricNetwork, A, B, max_refine: int = 4) -> VoltageField:
    """Harmonic W with W=1 on A, W=0 on B; W(x) = Pr_x(T_A < T_B).

    Up to ``DENSE_ELIMINATION_LIMIT`` states W comes from the star-mesh
    elimination, above it from one LU solve with iterative refinement.
    """
    A, B = frozenset(int(a) for a in A), frozenset(int(b) for b in B)
    if not A or not B:
        raise ValueError("A and B must be non-empty")
    if A & B:
        raise ValueError("A and B must be disjoint")
    n = len(net)
    C = net.conductance_matrix()
    deg = np.asarray(C.sum(axis=1)).ravel()
    interior = np.setdiff1d(np.arange(n), list(A | B))
    if (deg[interior] <= 0).any():
        raise ValueError("singular system: isolated interior state")
    if n <= DENSE_ELIMINATION_LIMIT:
        w = _star_mesh(net, A, B)[1]
    else:
        w = np.zeros(n)
        w[list(A)] = 1.0
        if len(interior):
            P = sp.diags(1.0 / deg[interior]) @ C[interior, :]
            M = (sp.identity(len(interior), format="csr")
                 - P[:, interior]).tocsc()
            rhs = np.asarray(P[:, sorted(A)].sum(axis=1)).ravel()
            lu = _splu(M)
            x = lu.solve(rhs)
            for _ in range(max_refine):
                r = rhs - M @ x
                if np.max(np.abs(r)) < 1e-15:
                    break
                x = x + lu.solve(r)
            w[interior] = x
    return VoltageField(w, A, B, _harmonic_residual(C, deg, w, interior))


def _harmonic_residual(C, deg, w, interior) -> float:
    if not len(interior):
        return 0.0
    avg = (C[interior, :] @ w) / deg[interior]
    return float(np.max(np.abs(w[interior] - avg)))


def _star_mesh(net: ElectricNetwork, A: frozenset, B: frozenset
               ) -> tuple[float, np.ndarray]:
    """Star-mesh (Kron) elimination in minimum-degree order.

    Returns the effective conductance c(A, B) and the voltage W (1 on A,
    0 on B).  Node 0 contracts A, node 1 contracts B and node 2 + k is the
    k-th other state.  Each step eliminates the live node with the fewest
    live neighbours (the lowest node on ties), adding c_is c_sj / c_s to
    its neighbour block only, and keeps the degrees up to date from that
    block's new fill.  W follows by back-substitution in reverse order,
    W(s) = sum_j c_sj W(j) / c_s over s's neighbours when it was eliminated.
    Every operation adds, multiplies or divides positive numbers, so c(A, B)
    and every W(x) keep entrywise relative accuracy.
    """
    n = len(net)
    node = np.full(n, -1, dtype=np.int64)
    node[list(A)] = 0
    node[list(B)] = 1
    rest = np.flatnonzero(node < 0)
    node[rest] = np.arange(2, len(rest) + 2)
    m = len(rest) + 2
    scale = float(net.edge_c.max())
    i, j = node[net.edge_i], node[net.edge_j]
    cross = i != j
    C = np.zeros((m, m))
    np.add.at(C, (i[cross], j[cross]), net.edge_c[cross] / scale)
    C += C.T
    flat = C.reshape(-1)
    deg = np.count_nonzero(C, axis=1)
    done = 4 * m                # above any live degree: never a pivot
    deg[:2] = done
    steps = []
    for _ in range(m - 2):
        s = int(deg.argmin())
        deg[s] = done
        nb = C[s].nonzero()[0]
        w = C[s, nb]
        C[s, nb] = 0.0
        C[nb, s] = 0.0
        cs = w.sum()
        steps.append((s, nb, w / cs))
        block = (nb * m)[:, None] + nb
        old = flat[block]
        # the zeros of a block row, less its diagonal, become fill; s is lost
        deg[nb] += (old == 0.0).sum(axis=1) - 2
        new = old + np.multiply.outer(w, w) / cs
        new.flat[::len(nb) + 1] = 0.0
        flat[block] = new
    W = np.zeros(m)
    W[0] = 1.0
    for s, nb, p in reversed(steps):
        W[s] = p @ W[nb]
    return float(C[0, 1]) * scale, W[node]


def _inflow(net: ElectricNetwork, w: np.ndarray, B: frozenset) -> float:
    """The current into B under a voltage w that is 0 on B: the positive
    sum of c(x, b) w(x) over the edges into B."""
    in_b = np.zeros(len(net), dtype=bool)
    in_b[list(B)] = True
    to_b, from_b = in_b[net.edge_j], in_b[net.edge_i]
    return float(net.edge_c[to_b] @ w[net.edge_i[to_b]]
                 + net.edge_c[from_b] @ w[net.edge_j[from_b]])


def _resistance(conductance: float) -> float:
    if conductance <= 0.0:
        raise ValueError("A and B are disconnected")
    return 1.0 / conductance


def effective_resistance(net: ElectricNetwork, A, B) -> float:
    """R(A, B) > 0; invariant under contraction of A and of B."""
    A = frozenset(int(a) for a in A)
    B = frozenset(int(b) for b in B)
    if not A or not B or (A & B):
        raise ValueError("A and B must be non-empty and disjoint")
    if len(net) <= DENSE_ELIMINATION_LIMIT:
        return _resistance(_star_mesh(net, A, B)[0])
    return _resistance(_inflow(net, voltage(net, A, B).values, B))


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
    dec = sum(p * wf.values[t] for t, p in zip(*net.kernel.row(a)))
    return formula, dec


# ----------------------------------------------------------------------------
# Green functions and expected hitting times
# ----------------------------------------------------------------------------

def _green_weights(net: ElectricNetwork, a: int, B: frozenset
                   ) -> tuple[float, np.ndarray]:
    """R(a, B) and W_{a,B} from one voltage solve."""
    w = voltage(net, {a}, B).values
    return _resistance(_inflow(net, w, B)), w


def green_function(net: ElectricNetwork, a: int, B) -> np.ndarray:
    """G_{T_B}(a, x) = R(a, B) pi(x) W_{a,B}(x); zero on B."""
    a = int(a)
    B = frozenset(int(b) for b in B)
    if a in B:
        raise ValueError("a must not belong to B")
    r, w = _green_weights(net, a, B)
    return r * net.pi * w


def _sub_kernel(kernel: TransitionKernel, B: frozenset):
    """The first-step matrix diag(p_move) - K_off on the states outside B,
    as a CSC matrix.

    Returns (matrix, keep, pos): ``keep`` lists the kept states in ascending
    order and ``pos[x]`` is x's row in the matrix (-1 on B).  The diagonal is
    ``p_move`` itself, not ``1 - (1 - p_move)``, which would lose the digits
    of a small move probability.
    """
    n = len(kernel)
    in_b = np.zeros(n, dtype=bool)
    in_b[list(B)] = True
    keep = np.flatnonzero(~in_b)
    pos = np.full(n, -1, dtype=np.int64)
    pos[keep] = np.arange(len(keep))
    rows, cols, probs = kernel.offdiag_coo()
    live = ~in_b[rows] & ~in_b[cols]
    diag = np.arange(len(keep))
    m = sp.coo_matrix(
        (np.concatenate([kernel.p_move[keep], -probs[live]]),
         (np.concatenate([diag, pos[rows[live]]]),
          np.concatenate([diag, pos[cols[live]]]))),
        shape=(len(keep), len(keep))).tocsc()
    return m, keep, pos


def green_by_visits(net: ElectricNetwork, a: int, B) -> np.ndarray:
    """Independent route: expected visit counts from the first-step system."""
    a = int(a)
    B = frozenset(int(b) for b in B)
    if a in B:
        raise ValueError("a must not belong to B")
    m, keep, pos = _sub_kernel(net.kernel, B)
    rhs = np.zeros(len(keep))
    rhs[pos[a]] = 1.0
    g = _splu(m.T.tocsc()).solve(rhs)
    out = np.zeros(len(net))
    out[keep] = g
    return out


@dataclass
class HittingTimeResult:
    value: float                 # Green-sum route: R(a,B) * sum pi W
    first_step: float            # (diag(p_move) - K_off) E = 1 route
    rel_gap: float

    def continuous(self, params: ModelParams) -> float:
        return self.value / params.gamma


def expected_hitting_time(net: ElectricNetwork, a: int, B) -> HittingTimeResult:
    """E_a[T_B] in discrete steps, computed by two independent routes: the
    Green route R(a, B) sum_x pi(x) W(x) from one voltage solve, and the
    first-step system (diag(p_move) - K_off) E = 1 outside B."""
    a = int(a)
    B = frozenset(int(b) for b in B)
    if a in B:
        return HittingTimeResult(0.0, 0.0, 0.0)
    r, w = _green_weights(net, a, B)
    green_route = r * float(net.pi @ w)

    m, keep, pos = _sub_kernel(net.kernel, B)
    first_step = float(_splu(m).solve(np.ones(len(keep)))[pos[a]])
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
    """Psi(A,B) = min over paths of max edge resistance (numeric).

    The bottleneck conductance c* is the largest c at which the edges with
    conductance >= c join A to B, found by bisection over the distinct
    conductances with one connectivity labelling per step.  The bottleneck
    edge is the edge at which Kruskal over the edges by descending
    conductance, ties in edge order, first joins A to B: a union-find over
    the components above c*, run on c*'s tie group only.
    """
    A = frozenset(int(a) for a in A)
    B = frozenset(int(b) for b in B)
    if not A or not B:
        raise ValueError("A and B must be non-empty")
    if A & B:
        return PsiResult(0.0, [min(A & B)], (-1, -1))
    n = len(net)
    ei, ej = net.edge_i, net.edge_j
    levels, rank = np.unique(net.edge_c, return_inverse=True)
    rank = len(levels) - 1 - rank                   # 0: the largest conductance
    a_list, b_list = list(A), list(B)

    def labels_above(k: int) -> np.ndarray:
        """Component labels of the edges of the k + 1 largest conductances."""
        sel = np.flatnonzero(rank <= k)
        adj = sp.csr_matrix((np.ones(len(sel), dtype=np.int8), (ei[sel], ej[sel])),
                            shape=(n, n))
        # weak components of the i < j edges: no symmetric copy needed
        return csgraph.connected_components(adj, connection="weak")[1]

    def joined(lab: np.ndarray) -> bool:
        return bool(np.intersect1d(lab[a_list], lab[b_list]).size)

    # Not joined at lo; joined at hi, where hi = len(levels) stands for
    # "not yet seen joined".
    lo, hi = -1, len(levels)
    below = np.arange(n)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lab = labels_above(mid)
        if joined(lab):
            hi = mid
        else:
            lo, below = mid, lab
    if hi == len(levels):
        raise ValueError("A and B are disconnected")
    # Kruskal over c*'s tie group, on the components above c*
    lab = below.tolist()
    uf = _UnionFind(n + 2)
    src, dst = n, n + 1
    for a in A:
        uf.union(lab[a], src)
    for b in B:
        uf.union(lab[b], dst)
    for e in np.flatnonzero(rank == hi).tolist():
        uf.union(lab[int(ei[e])], lab[int(ej[e])])
        if uf.find(src) == uf.find(dst):
            break
    c_star = float(net.edge_c[e])
    path = _bottleneck_path(net, A, B, c_star)
    return PsiResult(1.0 / c_star, path, (int(ei[e]), int(ej[e])))


def _bottleneck_path(net: ElectricNetwork, A: frozenset, B: frozenset,
                     c_min: float) -> list[int]:
    """A shortest path from A to B using only edges with c >= c_min.

    Breadth-first from A in ascending order, one level per step, each state's
    neighbours in edge order; a state's predecessor is the first state of
    the previous level to reach it, and the first state of B reached ends
    the path.
    """
    n = len(net)
    sel = np.flatnonzero(net.edge_c >= c_min * (1.0 - 1e-15))
    tail = np.concatenate([net.edge_i[sel], net.edge_j[sel]])
    head = np.concatenate([net.edge_j[sel], net.edge_i[sel]])
    head = head[np.lexsort((np.concatenate([sel, sel]), tail))]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=n), out=indptr[1:])
    in_b = np.zeros(n, dtype=bool)
    in_b[list(B)] = True
    prev = np.full(n, -2, dtype=np.int64)           # -2: not reached yet
    level = np.array(sorted(A), dtype=np.int64)
    prev[level] = -1
    while len(level):
        # the neighbour slots of the level's states, state by state
        lo, counts = indptr[level], indptr[level + 1] - indptr[level]
        starts = np.repeat(lo - np.cumsum(counts) + counts, counts)
        nbr = head[starts + np.arange(len(starts))]
        src = np.repeat(level, counts)
        fresh = prev[nbr] == -2
        nbr, src = nbr[fresh], src[fresh]
        first = np.sort(np.unique(nbr, return_index=True)[1])
        level = nbr[first]
        prev[level] = src[first]
        hits = np.flatnonzero(in_b[level])
        if len(hits):
            path = [int(level[hits[0]])]
            while prev[path[-1]] != -1:
                path.append(int(prev[path[-1]]))
            return path[::-1]
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
        # so the edge's level is i's.
        heads, tails = zip(*space.removals())
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
        has key at least ``level_keys[level]`` (BFS from A in ascending
        order, each state's neighbours in site order)."""
        space, keys = self.space, self.keys
        floor = self.level_keys[level]
        frontier = sorted(A)
        prev = {a: -1 for a in frontier}
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
