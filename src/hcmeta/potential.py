"""Electric-network computations on the configuration graph.

Conductances are c(x,y) = pi(x) K(x,y) with pi normalized, one per move of
the space's move table, which the kernel's rows are sorted from.  Voltages,
effective resistances, Green functions and both routes of the expected
hitting time are solved on the orbit network.  Every automorphism of the
graph that maps U onto U and V onto V permutes the configurations and keeps
pi and every conductance, so it is an automorphism of the chain; it fixes
the packed states u and v.  Those of a generating set
(:func:`hcmeta.graph.automorphism_generators`) that map the terminal sets
A and B onto themselves split the states into orbits, and W_{A,B}, E_x[T_B]
and the currents are constant on each orbit.  They are therefore exactly the
values of the lumped network, whose conductances are summed over orbit pairs
and whose pi is summed over orbits (strong lumpability; Kemeny & Snell,
*Finite Markov Chains*).  path:15 lumps from 1,597 states to 826 orbits,
cycle:12 from 322 to 47, torus:4x6 from 18,995 to 659.  A voltage is read back
on every state and its harmonic residual is taken on the full network, so
the residual checks the lumping as well.  Orbits, residual, solves and
numeric Psi work on the edge arrays in numpy; like the rest of hcmeta
they load no scipy.  :func:`green_by_visits`, the Green function by a dense
LU solve of the first-step matrix, is a route independent of all of them.

Every size runs one star-mesh (Kron) elimination (:func:`_eliminate`), kept
as a factor that serves several solves.  With A and B as its terminal
groups it gives the effective conductance c(A, B); back-substitution on it
gives the voltage W, hence the Green route E_a[T_B] = R(a, B) sum_x pi(x)
W_{a,B}(x); and its forward sweep carries the mass pi to A.  With A = {a}
and B grounded, that mass m_a is the first-step route, GTH state reduction:
c(a, B) E_a[T_B] = m_a.  So one E[T] costs one lumping and one elimination.
The factor only adds, multiplies and divides nonnegative numbers, so R,
every W(x) and both E[T] routes keep entrywise relative accuracy however far
the conductances spread (Grassmann, Taksar & Heyman 1985): within 1e-12 of
exact rational references up to lambda = 1e6, towards v and towards the
empty state, and the two routes agree to rounding (within 5.5e-16 on the
2,135 orbits of path:17 for lambda = 1e2 ... 1e6).  On cycle:12 at lambda =
1e40, whose conductances span hundreds of decades, W, the pi-weighted
solve, the carried mass and c(u, v) are within 3.8e-16 of an exact rational
elimination of the same float network.  As they share the
factor, their gap checks the solves on it: W's inflow into B on the full
network and pi . W against the forward pi sweep over c(a, B).  The checks
that share no factor are the harmonic residual on the full network and
:func:`green_by_visits`.

Critical (bottleneck) resistance is computed numerically over conductance
bands, and symbolically on a bottleneck tree (the edges sorted once by exact
integer exponent keys), both by threshold connectivity (:func:`_components`):
Psi(A, B) bisects over the bands or levels, and one sweep over the levels
answers every Psi(x, J^-(x)) of a space.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np

from .asymptotics import AsymptoticExponent
from .configspace import CapExceeded, ConfigurationSpace, ModelParams, _available_memory
from .dynamics import TransitionKernel, build_kernel
from .graph import automorphism_generators

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

# The elimination's minimum-degree front ends once the smallest live degree
# reaches this share of the live nodes; the dense tail runs in panels of
# PANEL pivots, and each panel's trailing product in blocks of BLOCK columns.
DENSE_SWITCH = 0.05
PANEL = 64
BLOCK = 256
# bytes per neighbour pair that a level of the front holds at its peak: ten
# int64 or float64 arrays (the pair's two slots, both nodes, both factors
# and their product, and the keys and ranks of the sparse update)
FRONT_PAIR_BYTES = 80


class ElectricNetwork:
    """Conductance network over an enumerated configuration space.

    Its edges are the space's move table :attr:`ConfigurationSpace.moves`,
    shared as it stands, one per undirected edge: ``edge_i`` the emptied
    state, ``edge_j`` the occupied one, which is always the larger index,
    and ``edge_c`` = pi(edge_i) lambda_site / gamma, the conductance of the
    addition.  They are ordered by (emptied state, site), so ``edge_i`` is
    nondecreasing.  The kernel is kept for the sampler and
    :func:`green_by_visits` and its CSR is not read here.  A network lumped
    by :func:`_lump` has orbits of states for nodes and no space,
    parameters or kernel.
    """

    def __init__(self, space: ConfigurationSpace, params: ModelParams,
                 kernel: TransitionKernel | None = None):
        self.space = space
        self.params = params
        self.kernel = kernel if kernel is not None else build_kernel(space, params)
        self.pi = space.stationary(params)
        self.edge_i, self.edge_j, site = space.moves
        self.edge_c = self.pi[self.edge_i]
        self.edge_c *= space.addition_probs(params)[site]

    def __len__(self) -> int:
        return len(self.pi)

    @property
    def n_edges(self) -> int:
        return len(self.edge_c)

    def edges(self):
        return zip(self.edge_i.tolist(), self.edge_j.tolist(), self.edge_c.tolist())

    def with_scaled_edge(self, i: int, j: int, factor: float) -> "ElectricNetwork":
        """Copy of the network with conductance of edge (i, j) multiplied.

        The copy keeps those of the symmetries that map the edge onto itself
        (all of them when ``factor`` is 1)."""
        out = ElectricNetwork.__new__(ElectricNetwork)
        out.space, out.params, out.kernel = self.space, self.params, self.kernel
        out.pi = self.pi
        out.edge_i, out.edge_j = self.edge_i, self.edge_j
        out.edge_c = self.edge_c.copy()
        a, b = min(i, j), max(i, j)
        hit = (out.edge_i == a) & (out.edge_j == b)
        if not hit.any():
            raise ValueError(f"no edge between {i} and {j}")
        out.edge_c[hit] *= factor
        out.symmetries = [p for p in self.symmetries
                          if factor == 1 or {p[a], p[b]} == {a, b}]
        return out

    @cached_property
    def symmetries(self) -> list[np.ndarray]:
        """State permutations p (state x to state p[x]) induced by the graph's
        :func:`automorphism_generators`.  Each maps U onto U and V onto V, so
        it keeps pi and every conductance: it is an automorphism of this
        chain.  A copy from :meth:`with_scaled_edge` may keep fewer, and a
        lumped network has none."""
        if self.space is None:
            return []
        masks = self.space.masks
        # a mask's image is the OR of its bytes' images, each looked up in a
        # table of the 256 images of the sites the byte holds
        chunks = [((masks >> lo) & 0xFF).astype(np.uint8)
                  for lo in range(0, self.space.graph.n_sites, 8)]
        byte = np.arange(256, dtype=np.int64)
        out = []
        for perm in automorphism_generators(self.space.graph):
            image = np.zeros_like(masks)
            for k, chunk in enumerate(chunks):
                table = np.zeros(256, dtype=np.int64)
                for bit, to in enumerate(perm[8 * k:8 * k + 8]):
                    table |= ((byte >> bit) & 1) << to
                image |= table[chunk]
            out.append(np.searchsorted(masks, image))   # images are independent sets
        return out


def build_network(space: ConfigurationSpace, params: ModelParams,
                  kernel: TransitionKernel | None = None) -> ElectricNetwork:
    return ElectricNetwork(space, params, kernel)


def _lump(net: ElectricNetwork, *fixed: frozenset
          ) -> tuple[ElectricNetwork, np.ndarray]:
    """The orbit network of ``net`` and the orbit of every state.

    The orbits are the connected components of x ~ p(x) over the symmetries
    p that map every set in ``fixed`` onto itself.  Each such p is an
    automorphism of the chain that keeps the terminals, so voltages, hitting
    times and currents are constant on orbits, and they are exactly those of
    the lumped network: conductances summed over orbit pairs (those inside
    an orbit dropped), pi summed over orbits (strong lumpability; Kemeny &
    Snell, Finite Markov Chains).  Any subset of the symmetries gives exact
    orbits; the generators that fix the sets may generate less than the
    whole stabiliser, and then the lumping is only finer.

    Components by min-label propagation over x ~ p(x), both directions, with
    pointer jumping until no label changes (Shiloach & Vishkin 1982); orbits
    are numbered in the order of their smallest states, as csgraph's
    ``connected_components`` numbers them.
    """
    n = len(net)
    sets = [np.fromiter(s, dtype=np.int64) for s in fixed]
    perms = [p for p in net.symmetries
             if all(np.isin(p[s], s).all() for s in sets)]
    if not perms:
        return net, np.arange(n)
    low, last = np.arange(n), None      # low[x]: least state known in x's orbit
    while not np.array_equal(low, last):
        last = low
        for p in perms:
            low = np.minimum(low, low[p])
            low[p] = np.minimum(low[p], low)
        low = low[low]
    rank = np.cumsum(low == np.arange(n)) - 1
    k, orbit = int(rank[-1]) + 1, rank[low]
    oi, oj = orbit[net.edge_i], orbit[net.edge_j]
    cross = oi != oj
    pair, which = np.unique(np.minimum(oi, oj)[cross] * k + np.maximum(oi, oj)[cross],
                            return_inverse=True)
    out = ElectricNetwork.__new__(ElectricNetwork)
    out.space = out.params = out.kernel = None
    out.pi = np.bincount(orbit, weights=net.pi, minlength=k)
    out.edge_i, out.edge_j = pair // k, pair % k
    out.edge_c = np.bincount(which, weights=net.edge_c[cross], minlength=len(pair))
    return out, orbit


def _orbits(orbit: np.ndarray, states: frozenset) -> frozenset:
    return frozenset(orbit[list(states)].tolist())


# ----------------------------------------------------------------------------
# Voltage and effective resistance
# ----------------------------------------------------------------------------

@dataclass
class VoltageField:
    values: np.ndarray
    harmonic_residual: float            # on the full network
    conductance: float                  # c(A, B) from the factor
    mass: float                         # pi carried to A by the factor's sweep
    orbits: int | None = None           # nodes of the network solved


def voltage(net: ElectricNetwork, A, B) -> VoltageField:
    """Harmonic W with W=1 on A, W=0 on B; W(x) = Pr_x(T_A < T_B).

    W is solved on the orbit network of the symmetries that fix A and B
    (:func:`_lump`) and read back on every state.  The same elimination
    gives ``conductance``, c(A, B), and ``mass``, the pi mass its forward
    sweep carries to A, which is sum_x pi(x) W(x).  The harmonic residual,
    max |W(x) - sum_y c_xy W(y) / c_x| by bincounts over both ends of the
    edges, is taken on the full network, so it checks the lumping too.  An
    interior state with no edge of positive conductance (cut, or
    underflowed) has no harmonic condition: it gets W = 0 and is left out of
    the residual.
    """
    A, B = frozenset(int(a) for a in A), frozenset(int(b) for b in B)
    if not A or not B:
        raise ValueError("A and B must be non-empty")
    if A & B:
        raise ValueError("A and B must be disjoint")
    n, ei, ej, c = len(net), net.edge_i, net.edge_j, net.edge_c
    deg = np.bincount(ei, c, n) + np.bincount(ej, c, n)
    interior = deg > 0
    interior[list(A | B)] = False
    lumped, orbit = _lump(net, A, B)
    conductance, w, mass = _star_mesh(lumped, _orbits(orbit, A), _orbits(orbit, B))
    w = w[orbit]
    flow = np.bincount(ei, c * w[ej], n) + np.bincount(ej, c * w[ei], n)
    residual = np.abs(w[interior] - flow[interior] / deg[interior]).max(initial=0.0)
    return VoltageField(w, float(residual), conductance, mass, len(lumped))


def _star_mesh(net: ElectricNetwork, A: frozenset, B: frozenset
               ) -> tuple[float, np.ndarray, float]:
    """The effective conductance c(A, B), the voltage W (1 on A, 0 on B) and
    the pi mass carried to A, sum_x pi(x) W(x), from one :func:`_eliminate`."""
    f = _eliminate(net, (A, B))
    return (float(f.conductances()[0, 1]), f.solve((1.0, 0.0)),
            float(f.carry(net.pi)[0]))


@dataclass
class _Factor:
    """One star-mesh elimination, kept for its solves (see :func:`_eliminate`).

    ``node`` is every state's node, of ``nodes``, and conductances and
    masses are held in units of ``scale``.  ``steps`` lists the front's
    levels in pivot order, each as its pivots ``ps``, their neighbours
    ``nb`` slot by slot, each slot's pivot ``seg``, the shares p = c_sj /
    c_s and the pivot degrees ``cs``.  ``order`` lists the tail's nodes in
    pivot order, the groups last.  The tail runs in panels of
    ``X.shape[1]`` pivots.  Only the upper triangle of ``D`` past the
    panels' diagonal squares is meaningful: the rows of a panel past it
    hold its pivots' conductances at their elimination and ``c`` their
    degrees, and ``D[L:, L:]`` above its diagonal the reduced conductances
    among the groups.  Rows start .. end of ``X`` hold the panel's
    nonnegative inverse (I - T)^-1, T[r, k] = c_kr / c_k for the panel's
    pivots k < r, in its first end - start columns.
    """
    node: np.ndarray
    nodes: int
    scale: float
    steps: list
    order: list
    D: np.ndarray
    c: np.ndarray
    X: np.ndarray

    def conductances(self) -> np.ndarray:
        """The reduced conductances among the groups (zero diagonal)."""
        L = len(self.c)
        K = np.triu(self.D[L:, L:], 1) * self.scale
        return K + K.T

    def _panels(self):
        """Each panel's start, end and inverse, in pivot order."""
        L, P = len(self.c), self.X.shape[1]
        for start in range(0, L, P):
            end = min(start + P, L)
            yield start, end, self.X[start:end, :end - start]

    def _sweep(self, mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The mass of every node when it is eliminated, by node for the front
        and in tail order, starting from ``mass`` per state: eliminating s
        adds p_sj m_s to m_j."""
        md = np.bincount(self.node, weights=mass / self.scale, minlength=self.nodes)
        for ps, nb, seg, p, _ in self.steps:
            np.add.at(md, nb, p * md[ps][seg])
        dm, D, c = md[self.order], self.D, self.c
        for start, end, X in self._panels():
            dm[start:end] = pm = X @ dm[start:end]
            dm[end:] += (D[start:end, end:] / c[start:end, None]).T @ pm
        return md, dm

    def carry(self, mass: np.ndarray) -> np.ndarray:
        """The mass that ``mass`` (per state) carries to each group."""
        return self._sweep(mass)[1][len(self.c):] * self.scale

    def solve(self, top, mass: np.ndarray | None = None) -> np.ndarray:
        """x on every state: x = top[k] on group k, and back-substitution
        x(s) = (m_s + sum_j c_sj x(j)) / c_s over s's neighbours at its
        elimination, with the masses m carried from ``mass`` (none: 0).  A
        panel takes x = X^T b at once, with b(s) = (m_s + sum_j c_sj x(j)) /
        c_s over the neighbours past the panel."""
        D, c, L = self.D, self.c, len(self.c)
        if mass is None:
            md, dm = np.zeros(self.nodes), np.zeros(len(self.order))
        else:
            md, dm = self._sweep(mass)
        xd = np.zeros(len(self.order))
        xd[L:] = top
        for start, end, X in reversed(list(self._panels())):
            xd[start:end] = X.T @ ((dm[start:end] + D[start:end, end:] @ xd[end:])
                                   / c[start:end])
        x = np.zeros(len(md))
        x[self.order] = xd
        for ps, nb, seg, p, cs in reversed(self.steps):
            h = np.divide(md[ps], cs, out=np.zeros(len(ps)), where=cs > 0)  # 0: cut off
            x[ps] = h + np.bincount(seg, weights=p * x[nb], minlength=len(ps))
        return x[self.node]


def _eliminate(net: ElectricNetwork, groups) -> _Factor:
    """Star-mesh (Kron) elimination of every node outside the terminal groups.

    Group k contracts to node k; node len(groups) + i is the i-th other node.
    Eliminating s adds c_is c_sj / c_s to c_ij for every pair of its
    neighbours.  The factor keeps each pivot's shares p_sj = c_sj / c_s and
    degree c_s, so one elimination serves every solve on the same groups
    (:class:`_Factor`): a forward sweep carries a mass m, adding p_sj m_s to
    m_j, to the groups, and back-substitution in reverse order gives x(s) =
    (m_s + sum_j c_sj x(j)) / c_s, with x = top[k] on group k.  With no mass
    and top (1, 0) on (A, B), x is the voltage W.  With mass pi and top 0 on
    B, x(s) is E_s[T_B] in steps, for every s: the first-step equation times
    pi(s) reads c_s E_s = pi(s) + sum_y c_sy E_y (GTH state reduction;
    Grassmann, Taksar & Heyman 1985).  With groups ({a}, B), the mass pi
    carried to a is m_a = sum_x pi(x) W(x), and c(a, B) E_a[T_B] = m_a.

    The front runs minimum degree on the sparse pattern (George & Liu 1989;
    :func:`_min_degree_front`): the live node of smallest degree (the
    lowest on ties) is the pivot and its neighbours (ascending) become a
    clique, until the smallest live degree reaches ``DENSE_SWITCH`` of the
    live nodes.  Each node's live neighbours are one Python int, a bitset
    row of m bits over the m nodes, so a pivot updates a neighbour's row by
    one OR and its degree is the row's bit count.  The rows need up to m
    ceil(m/30) digits of 4 bytes, and the byte array they are read from m
    ceil(m/8) bytes; the elimination is refused with :class:`CapExceeded`
    before they are built when the two do not fit in the memory available.
    Edges of conductance 0 (cut, or underflowed) are absent.  A pivot's
    level is one more than that of every earlier pivot whose clique held
    it; the pivots of a level touch neither each other's rows nor masses,
    so their values are eliminated together.
    The nodes left (terminals last) are finished in panels of ``PANEL``
    pivots of a dense array ``D`` that holds each conductance once, above
    its diagonal (c_jk = c_kj): the scatter into it keeps the upper entry of
    every pair, and the tail writes below the diagonal only inside the
    diagonal squares of its panels and column blocks, where nothing reads.
    Before any value is computed, the elimination is refused with
    :class:`CapExceeded` when ``D``, one column block of its trailing
    product, the panel inverses ``X``, the front's key/value store and the
    pair arrays of its largest level need more memory than is available.
    A panel of P pivots is eliminated on its own rows only, the array W =
    [its square of ``D`` | each row's sum past the panel | I_P] of P x
    (2P+1), by :func:`_eliminate_panel`.  The identity ends as X = (I -
    T)^-1, T[r, k] = c_kr / c_k, so the panel's rows past it at their
    elimination are X R0, one product with their values R0 before the
    panel.  The trailing block then gets the product (U/c)^T U of those
    rows U, on its upper trapezoid only, in column blocks of ``BLOCK``
    columns; no buffer holds the whole product.  No diagonal is formed or
    read.  The factor keeps X, so its solves take one product per panel.
    Every operation adds, multiplies or divides nonnegative numbers, so the
    reduced conductances, every carried mass and every x(s) keep entrywise
    relative accuracy.
    """
    t = len(groups)
    n = len(net)
    node = np.full(n, -1, dtype=np.int64)
    for k, grp in enumerate(groups):
        node[list(grp)] = k
    rest = np.flatnonzero(node < 0)
    node[rest] = np.arange(t, len(rest) + t)
    m = len(rest) + t
    scale = float(net.edge_c.max())
    i, j = node[net.edge_i], node[net.edge_j]
    cc = net.edge_c / scale
    keep = (i != j) & (cc > 0)
    ei, ej = np.concatenate([i[keep], j[keep]]), np.concatenate([j[keep], i[keep]])
    available = _available_memory()
    # the byte rows, and the ints read from them: m bits in 30-bit digits
    bits_need = m * ((m + 7) // 8 + 4 * ((m + 29) // 30))
    if bits_need > available:
        raise CapExceeded(f"the minimum-degree front's bitset rows of {m} nodes need "
                          f"{bits_need:,} bytes; {available:,} bytes are available")
    front, level = _min_degree_front(ei, ej, m, t)
    gone = np.zeros(m, dtype=bool)
    gone[[s for s, _ in front]] = True
    order = (np.flatnonzero(~gone[t:]) + t).tolist() + list(range(t))
    L = len(order) - t
    dk = [len(nbl) for _, nbl in front]
    levels = [[] for _ in range(max((level[s] + 1 for s, _ in front), default=0))]
    for s, nbl in front:
        levels[level[s]].append((s, nbl))
    # the front's keys and values, 2 sum(d) of each, and its largest level's
    # sum d(d - 1) pairs
    front_need = 2 * 16 * sum(dk) + FRONT_PAIR_BYTES * max(
        (sum(len(nbl) * (len(nbl) - 1) for _, nbl in piv) for piv in levels), default=0)
    N = len(order)
    # the dense array, one column block and the panel inverses X
    tail_need = 8 * ((N + BLOCK) * N + L * PANEL)
    if front_need + tail_need > available:
        raise CapExceeded(f"the dense elimination tail of L = {L} nodes needs "
                          f"{tail_need:,} bytes; {available:,} bytes are available, "
                          f"and the sparse front of {len(front)} pivots needs "
                          f"{front_need:,} bytes more")
    pos = np.full(m, -1, dtype=np.int64)
    pos[order] = np.arange(N)
    D = np.zeros((N, N))
    # c_ij of every pivot's row and column, at the rank of i * m + j in key
    nbc = np.fromiter(chain.from_iterable(nbl for _, nbl in front), np.int64, sum(dk))
    prow = np.repeat(np.array([s for s, _ in front], dtype=np.int64), dk)
    key = np.sort(np.concatenate([prow * m + nbc, nbc * m + prow]))
    val = np.zeros(len(key))

    def add(i, j, v):
        """c_ij += v: above D's diagonal between surviving nodes (each pair
        comes in both orders), in val otherwise."""
        ri, rj = pos[i], pos[j]
        tail = (ri >= 0) & (rj >= 0)
        up = tail & (ri < rj)
        np.add.at(D.reshape(-1), ri[up] * N + rj[up], v[up])
        np.add.at(val, np.searchsorted(key, i[~tail] * m + j[~tail]), v[~tail])

    add(ei, ej, np.concatenate([cc[keep], cc[keep]]))
    steps = []
    for piv in levels:
        ps = np.array([s for s, _ in piv], dtype=np.int64)
        d = np.array([len(nbl) for _, nbl in piv], dtype=np.int64)
        nb = np.fromiter(chain.from_iterable(nbl for _, nbl in piv), np.int64, d.sum())
        seg = np.repeat(np.arange(len(piv)), d)             # each slot's pivot
        w = val[np.searchsorted(key, ps[seg] * m + nb)]
        cs = np.bincount(seg, weights=w, minlength=len(piv))
        p = np.divide(w, cs[seg], out=np.zeros_like(w), where=cs[seg] > 0)
        # every ordered pair (a, b) of distinct slots of one pivot: slot a
        # pairs with its pivot's slots in order, skipping itself
        partners = d[seg] - 1
        a = np.repeat(np.arange(len(nb)), partners)
        b = np.arange(len(a)) + np.repeat(
            (np.cumsum(d) - d)[seg] - np.cumsum(partners) + partners, partners)
        b += b >= a
        add(nb[a], nb[b], w[a] * p[b])
        steps.append((ps, nb, seg, p, cs))
    c = np.zeros(L)
    X = np.zeros((L, PANEL))
    for start in range(0, L, PANEL):
        end = min(start + PANEL, L)
        P = end - start
        R0 = D[start:end, end:]
        W = np.hstack([D[start:end, start:end], R0.sum(1)[:, None], np.eye(P)])
        _eliminate_panel(W, c[start:end], 0, P)
        X[start:end, :P] = W[:, P + 1:]
        D[start:end, end:] = U = X[start:end, :P] @ R0
        S = U / c[start:end, None]
        for lo in range(end, N, BLOCK):
            hi = min(lo + BLOCK, N)
            D[end:hi, lo:hi] += S[:, :hi - end].T @ U[:, lo - end:hi - end]
    return _Factor(node, m, scale, steps, order, D, c, X)


def _min_degree_front(ei: np.ndarray, ej: np.ndarray, m: int, t: int
                      ) -> tuple[list, list]:
    """The minimum-degree front of :func:`_eliminate` on the pattern of the
    edges ei -> ej (each in both directions, duplicates allowed) among m
    nodes, of which the first t never pivot: the pivots in order, each with
    its neighbours at its elimination (ascending), and every node's level.

    Node i's live neighbours are one int, bit j set for neighbour j, read
    from a byte row per node.  Eliminating s makes each neighbour i's row
    (row_i | row_s) minus bits i and s; its degree is the row's bit count.
    """
    rows = np.zeros((m, (m + 7) // 8), dtype=np.uint8)
    np.bitwise_or.at(rows, (ei, ej >> 3), (1 << (ej & 7)).astype(np.uint8))
    adj = [int.from_bytes(r, "little") for r in rows]
    del rows
    deg = np.fromiter(map(int.bit_count, adj), np.int64, m)
    done = 4 * m                # above any live degree: never a pivot
    deg[:t] = done
    level = [0] * m
    front = []
    for count in range(m, t, -1):
        s = int(deg.argmin())
        if deg[s] >= DENSE_SWITCH * count:
            break
        deg[s] = done
        nbs, adj[s] = adj[s], 0
        sbit = 1 << s
        up = level[s] + 1
        nbl, rest = [], nbs
        while rest:             # s's neighbours, from the top bit down
            i = rest.bit_length() - 1
            bit = 1 << i
            rest ^= bit
            adj[i] = (adj[i] | nbs) ^ (bit | sbit)
            if level[i] < up:
                level[i] = up
            nbl.append(i)
        nbl.reverse()
        deg[nbl] = [adj[i].bit_count() if i >= t else done for i in nbl]
        front.append((s, nbl))
    return front, level


def _eliminate_panel(W: np.ndarray, c: np.ndarray, a: int, b: int) -> None:
    """Eliminate pivots a .. b - 1 of a panel array W = [C | s | X], in place.

    Row k of W holds past its diagonal pivot k's conductances to the later
    pivots of the panel (C, upper triangle), its outside sum s and its row
    of X; pivot k's degree c_k is the sum of its row from just past the
    diagonal through s.  Halving: the first half is eliminated, then the
    second half's rows gain (W[a:m, m:b] / c)^T W[a:m, m:] from it in one
    product, then the second half is eliminated (Gustavson 1997; Toledo
    1997).  The rows from b on gain these pivots' shares from the caller.
    """
    if b - a == 1:
        c[a] = W[a, b:len(W) + 1].sum()
        return
    m = (a + b) // 2
    _eliminate_panel(W, c, a, m)
    W[m:b, m:] += (W[a:m, m:b] / c[a:m, None]).T @ W[a:m, m:]
    _eliminate_panel(W, c, m, b)


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
    """R(A, B) > 0; invariant under contraction of A and of B.  Solved on the
    orbit network of the symmetries that fix A and B."""
    A = frozenset(int(a) for a in A)
    B = frozenset(int(b) for b in B)
    if not A or not B or (A & B):
        raise ValueError("A and B must be non-empty and disjoint")
    lumped, orbit = _lump(net, A, B)
    K = _eliminate(lumped, (_orbits(orbit, A), _orbits(orbit, B))).conductances()
    return _resistance(float(K[0, 1]))


def escape_probability(net: ElectricNetwork, a: int, B) -> tuple[float, float]:
    """Pr_a(T_B < T_a^+) by the resistance formula and by first-transition
    decomposition; returns (formula_value, decomposition_value)."""
    a = int(a)
    B = frozenset(int(b) for b in B)
    if a in B:
        raise ValueError("a must not belong to B")
    r = effective_resistance(net, {a}, B)
    formula = 1.0 / (net.pi[a] * r)
    wf = voltage(net, B, {a})           # the step a -> y has K(a, y) = c(a, y) / pi(a)
    return formula, _inflow(net, wf.values, frozenset({a})) / float(net.pi[a])


# ----------------------------------------------------------------------------
# Green functions and expected hitting times
# ----------------------------------------------------------------------------

def _green_weights(net: ElectricNetwork, a: int, B: frozenset
                   ) -> tuple[float, VoltageField]:
    """R(a, B) and the voltage W_{a,B} from one voltage solve."""
    field = voltage(net, {a}, B)
    return _resistance(_inflow(net, field.values, B)), field


def green_function(net: ElectricNetwork, a: int, B) -> np.ndarray:
    """G_{T_B}(a, x) = R(a, B) pi(x) W_{a,B}(x); zero on B."""
    a = int(a)
    B = frozenset(int(b) for b in B)
    if a in B:
        raise ValueError("a must not belong to B")
    r, field = _green_weights(net, a, B)
    return r * net.pi * field.values


def green_by_visits(net: ElectricNetwork, a: int, B) -> np.ndarray:
    """Independent route: expected visit counts from a dense LU solve
    (``np.linalg.solve``) of the first-step matrix diag(p_move) - K_off on
    the states outside B, transposed, against the unit vector of a.  Its
    diagonal is ``p_move`` itself, not ``1 - (1 - p_move)``, which would
    lose the digits of a small move probability.  It shares nothing with
    the elimination factor.  The matrix and LAPACK's copy of it take
    16 k^2 bytes for the k states outside B; beyond the available memory it
    raises :class:`CapExceeded` before allocating."""
    a = int(a)
    B = frozenset(int(b) for b in B)
    if a in B:
        raise ValueError("a must not belong to B")
    kernel, n = net.kernel, len(net)
    in_b = np.zeros(n, dtype=bool)
    in_b[list(B)] = True
    keep = np.flatnonzero(~in_b)
    k = len(keep)
    need, available = 16 * k * k, _available_memory()
    if need > available:
        raise CapExceeded(f"the dense first-step matrix of {k} states and its LAPACK "
                          f"copy need {need:,} bytes; {available:,} bytes are available")
    pos = np.full(n, -1, dtype=np.int64)
    pos[keep] = np.arange(k)
    rows, cols, probs = kernel.offdiag_coo()
    live = ~in_b[rows] & ~in_b[cols]
    m_t = np.zeros((k, k))              # the transpose: row y, column x
    np.subtract.at(m_t, (pos[cols[live]], pos[rows[live]]), probs[live])
    m_t[np.arange(k), np.arange(k)] += kernel.p_move[keep]
    rhs = np.zeros(k)
    rhs[pos[a]] = 1.0
    out = np.zeros(n)
    out[keep] = np.linalg.solve(m_t, rhs)
    return out


@dataclass
class HittingTimeResult:
    """E_a[T_B] in steps by both routes, read from one elimination, each
    entrywise accurate at every size; ``rel_gap``, their relative
    difference, is rounding.  It compares the back-substituted W (its inflow
    into B on the full network, and pi . W) with the forward pi sweep of the
    same factor over its c(a, B), so it checks the solves on the factor, not
    the factor itself."""
    value: float                 # Green-sum route: R(a,B) * sum pi W
    first_step: float            # c(a,B) E_a = pi mass carried to a route
    rel_gap: float
    orbits: int | None = None    # nodes of the voltage solve

    def continuous(self, params: ModelParams) -> float:
        return self.value / params.gamma


def expected_hitting_time(net: ElectricNetwork, a: int, B) -> HittingTimeResult:
    """E_a[T_B] in discrete steps, by two routes on one voltage solve.

    One :func:`voltage` call eliminates the orbit network of the symmetries
    that fix a and B once, with a and B as the terminal groups.  The Green
    route is R(a, B) sum_x pi(x) W(x), with W back-substituted on that
    factor and read back on every state, and R from W's inflow into B on the
    full network.  The first-step route is GTH state reduction: the same
    factor's forward sweep carries the mass pi to a, and with B grounded and
    a eliminated last, c(a, B) E_a[T_B] = m_a (Bovier & den Hollander,
    *Metastability*, 2015, ch. 7).  Both keep entrywise relative accuracy at
    every size, and agree to rounding.  The checks that share no factor are
    the voltage's harmonic residual on the full network and
    :func:`green_by_visits`.
    """
    a = int(a)
    B = frozenset(int(b) for b in B)
    if a in B:
        return HittingTimeResult(0.0, 0.0, 0.0)
    r, field = _green_weights(net, a, B)
    green_route = r * float(net.pi @ field.values)
    first_step = field.mass / field.conductance
    gap = abs(green_route - first_step) / max(abs(green_route), abs(first_step), 1e-300)
    return HittingTimeResult(green_route, first_step, gap, field.orbits)


# ----------------------------------------------------------------------------
# Critical (bottleneck) resistance
# ----------------------------------------------------------------------------

@dataclass
class PsiResult:
    value: float
    witness_path: list[int]
    bottleneck_edge: tuple[int, int]


def _components(root: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The partition ``root`` joined along the edges (i, j), as root labels.

    ``root`` labels every state by a root (``root[root] == root``); it is
    not changed.  Each round gathers the edges' endpoint roots and drops the
    edges whose ends share one, hooks every larger root to its smallest
    neighbouring root (``np.minimum.at``) and pointer-jumps the roots hooked
    so far until none changes (Shiloach & Vishkin 1982); the rounds repeat
    until no edge is left, and one last jump relabels the other states.
    Every component is labelled by its smallest root, so by its
    smallest state when each root is the smallest state of its class (as in
    ``np.arange(n)`` or an earlier result).

    Rounds: a root that does not hook is smaller than all its neighbouring
    roots, and they all hook.  It is merged if one of them hooks onto it;
    there are at most as many merged roots as hooking ones.  If none does,
    each hooks below it, so it hooks in the next round.  With r_t roots on
    an edge in round t, then r_(t+1) <= merged + unmerged and r_(t+2) <=
    merged, so r_t >= r_(t+1) + r_(t+2); also r_t > r_(t+1) (the largest
    root hooks), and a last round has 2 roots.  So k rounds need Fibonacci
    F(k + 2) <= n states: at most log_phi(n) = 1.44 log2(n) rounds.
    """
    root = root.copy()
    a, b = root[i], root[j]
    hooked = np.zeros(len(root), dtype=bool)
    while True:
        keep = a != b
        a, b = a[keep], b[keep]
        if not len(a):
            return root[root]
        hook = np.maximum(a, b)
        np.minimum.at(root, hook, np.minimum(a, b))
        # a hook chain runs through the roots hooked so far only
        hooked[hook] = True
        hook = hooked.nonzero()[0]
        while True:
            up = root[hook]
            jumped = root[up]
            if (jumped == up).all():
                break
            root[hook] = jumped
        a, b = root[a], root[b]


def _first_join(n: int, count: int, edges, A: list, B: list
                ) -> tuple[int, np.ndarray]:
    """The first of ``count`` levels whose edges, with those of the levels
    before it, join A to B, and the labels of the n states just below it.

    ``edges(lo, hi)`` gives the edges (i, j) of levels lo .. hi - 1.  A
    bisection step joins only the levels after the last one seen not to
    join A to B onto that level's labels (:func:`_components`), so an edge
    is relabelled about once per such level.
    """
    # Not joined through level lo, whose labels are ``below``; joined
    # through hi, where hi = count stands for "not yet seen joined".
    lo, hi = -1, count
    below = np.arange(n)
    A, B = np.array(A, dtype=np.int64), np.array(B, dtype=np.int64)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lab = _components(below, *edges(lo + 1, mid + 1))
        in_a = np.zeros(n, dtype=bool)
        in_a[lab[A]] = True
        if in_a[lab[B]].any():
            hi = mid
        else:
            lo, below = mid, lab
    if hi == count:
        raise ValueError("A and B are disconnected")
    return hi, below


def critical_resistance(net: ElectricNetwork, A, B) -> PsiResult:
    """Psi(A,B) = min over paths of max edge resistance (numeric).

    The bottleneck conductance c* is the largest c at which the edges with
    conductance >= c join A to B, found by bisection over the distinct
    conductances (:func:`_first_join`, one conductance band per step);
    edges with conductance 0 (cut, or underflowed) are absent.  The
    bottleneck edge is the edge at which Kruskal over the edges
    by descending conductance, ties in edge order, first joins A to B: the
    same search over c*'s tie group, one edge per level, on the components
    above c*.
    The witness path is searched over the edges in edge order, so it relies
    on ``edge_i`` being nondecreasing, as it is in every network (ordered
    by (emptied state, site), copies from
    :meth:`ElectricNetwork.with_scaled_edge`, the sorted orbit pairs of
    :func:`_lump`).
    """
    A = frozenset(int(a) for a in A)
    B = frozenset(int(b) for b in B)
    if not A or not B:
        raise ValueError("A and B must be non-empty")
    if A & B:
        return PsiResult(0.0, [min(A & B)], (-1, -1))

    n = len(net)
    ei, ej, ec = net.edge_i, net.edge_j, net.edge_c
    levels = np.unique(ec)[::-1]                    # 0: the largest conductance
    levels = levels[levels > 0]
    a_list, b_list = list(A), list(B)

    def band(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        sel = (ec >= levels[hi - 1]) & (ec < (levels[lo - 1] if lo else np.inf))
        return ei[sel], ej[sel]

    hi, below = _first_join(n, len(levels), band, a_list, b_list)
    # c*'s tie group one edge per level, on the components above c*: the
    # labels of A, B and the tie edges' ends, numbered 0 .. k-1
    tie = np.flatnonzero(ec == levels[hi])
    ends = np.concatenate([below[a_list], below[b_list], below[ei[tie]], below[ej[tie]]])
    labels, ends = np.unique(ends, return_inverse=True)
    la, lb, ti, tj = np.split(ends, np.cumsum([len(A), len(B), len(tie)]))
    first, _ = _first_join(len(labels), len(tie),
                           lambda lo, hi: (ti[lo:hi], tj[lo:hi]), la, lb)
    e = int(tie[first])
    c_star = float(ec[e])
    # with edge_i nondecreasing, a state's lower neighbours (it is the edge's
    # j) come before its upper ones (it is the edge's i) in edge order, so
    # the moves j -> i first keep each state's neighbours in edge order
    sel = ec >= c_star * (1.0 - 1e-15)
    path = _shortest_path(n, np.concatenate([ej[sel], ei[sel]]),
                          np.concatenate([ei[sel], ej[sel]]), A, B)
    return PsiResult(1.0 / c_star, path, (int(ei[e]), int(ej[e])))


def _shortest_path(n: int, tail: np.ndarray, head: np.ndarray, A: frozenset,
                   B: frozenset, key: np.ndarray | None = None) -> list[int]:
    """A shortest path from A to B over the moves tail -> head.

    Breadth-first from A in ascending order, one level per step, on a CSR
    of the moves: each state's moves in array order, or by ``key`` when
    given (distinct values, ordered by tail first).  A state's predecessor
    is the first state of the previous level to reach it, and the first
    state of B reached ends the path, as a scan one state and one move at a
    time would find them.
    """
    head = head[np.argsort(tail, kind="stable") if key is None else np.argsort(key)]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=n), out=indptr[1:])
    in_b = np.zeros(n, dtype=bool)
    in_b[list(B)] = True
    prev = np.full(n, -2, dtype=np.int64)           # -2: not reached yet
    level = np.array(sorted(A), dtype=np.int64)
    prev[level] = -1
    slot = np.full(n, len(tail), dtype=np.int64)    # scan position of first reach
    while len(level):
        # the moves of the level's states, state by state
        lo, counts = indptr[level], indptr[level + 1] - indptr[level]
        starts = np.repeat(lo - np.cumsum(counts) + counts, counts)
        nbr, src = head[starts + np.arange(len(starts))], np.repeat(level, counts)
        fresh = prev[nbr] == -2
        nbr, src = nbr[fresh], src[fresh]
        # a state is fresh in one level only, so its slot is set once
        at = np.arange(len(nbr))
        np.minimum.at(slot, nbr, at)
        first = np.flatnonzero(slot[nbr] == at)
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
    integer keys of :meth:`ConfigurationSpace.weight_keys`.  The tree keeps
    ``space``; ``keys``, every state's key (int64); the levels from the
    highest key down: level k has key ``level_keys[k]`` and sorted distinct
    (p, q) labels ``level_pq[k]`` (more than one label is an alpha-genericity
    tie); and the edges ``edge_i[e], edge_j[e]`` (int64, occupied side
    first) with their sites ``edge_site[e]`` (uint8) of level k for
    ``level_start[k] <= e < level_start[k+1]``.  The edges are the rows of
    :attr:`ConfigurationSpace.moves`, stably sorted by the level of their
    occupied state (a radix sort on int16 levels, gathered from one level
    per state); a query joins whole levels, each a contiguous slice of the
    edge arrays, with :func:`_components`.
    """

    def __init__(self, space: ConfigurationSpace, alpha: Fraction):
        self.space = space
        cu, cv = space.key_coefficients(alpha)
        nu, nv = space.part_counts()
        self.keys = cu * nu + cv * nv
        # Levels and labels from the distinct (|x_U|, |x_V|) pairs, found by one
        # count over the combined key |x_U| * (|V| + 1) + |x_V|; pair 0, the
        # empty state, heads no edge.
        width = len(space.graph.v_sites) + 1
        present = np.bincount(nu * width + nv)
        present[0] = 0
        labels: dict[int, list[tuple[Fraction, Fraction]]] = {}
        for pair in np.flatnonzero(present).tolist():
            pu, pv = divmod(pair, width)
            labels.setdefault(cu * pu + cv * pv, []).append(
                (Fraction(pu + pv), Fraction(pv)))
        self.level_keys = sorted(labels, reverse=True)
        self.level_pq = [sorted(labels[k]) for k in self.level_keys]
        ascending = np.array(self.level_keys[::-1], dtype=np.int64)
        top = len(ascending) - 1
        # The move table's rows, each read from its occupied side i: w_i >
        # w_j, so the edge's level is i's.  At most (|U| + 1)(|V| + 1)
        # levels: int16 lets the stable sort be a radix sort.
        emptied, occupied, site = space.moves
        lvl = (top - np.searchsorted(ascending, self.keys)).astype(np.int16)[occupied]
        self.level_start = [0, *np.cumsum(np.bincount(lvl, minlength=top + 1)).tolist()]
        order = np.argsort(lvl, kind="stable")
        del lvl
        self.edge_i, self.edge_j = occupied[order], emptied[order]
        self.edge_site = site[order]

    def bottleneck_weight(self, level: int) -> AsymptoticExponent:
        """Level's weight exponent: its smallest (p, q) label."""
        return AsymptoticExponent(*self.level_pq[level][0])

    def _edges(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The edges of levels lo .. hi - 1, a contiguous slice."""
        start, stop = self.level_start[lo], self.level_start[hi]
        return self.edge_i[start:stop], self.edge_j[start:stop]

    def connecting_level(self, A: frozenset, B: frozenset) -> int:
        """First level at which edges at or above it join A to B."""
        if A & B:
            raise ValueError("A and B intersect")
        return _first_join(len(self.keys), len(self.level_keys), self._edges,
                           list(A), list(B))[0]

    def escape_levels(self) -> list[int]:
        """For every state x, the level of Psi(x, J^-(x)), where J^-(x) holds
        the states of strictly larger key; -1 when J^-(x) is empty.

        One sweep: each level's edges join the components below it, and
        each root keeps its component's largest key.  A state settles at
        the first level where that key exceeds its own, so on equal maxima
        both sides keep waiting.  The configuration graph is connected
        (every state reaches the empty one), so the states left waiting are
        those of the largest key.
        """
        keys = self.keys
        root = np.arange(len(keys))
        top = keys.copy()           # a root's entry: its component's largest key
        escape = np.full(len(keys), -1, dtype=np.int64)
        waiting = root[:0]          # the waiting states some edge has reached
        for level in range(len(self.level_keys)):
            i, j = self._edges(level, level + 1)
            joined = _components(root, i, j)
            ends = np.concatenate([i, j])
            r = root[ends]
            np.maximum.at(top, joined[r], top[r])
            root = joined
            # a state no edge has reached is alone, so cannot settle; a
            # waiting state may be listed once per edge at it
            waiting = np.concatenate([waiting, ends[escape[ends] < 0]])
            settles = top[root[waiting]] > keys[waiting]
            escape[waiting[settles]] = level
            waiting = waiting[~settles]
        return escape.tolist()

    def witness_path(self, A: frozenset, B: frozenset, level: int) -> list[int]:
        """Shortest path from A to B using only edges whose heavier endpoint
        has key at least ``level_keys[level]``: the edges of levels up to
        ``level``, breadth-first from A with each state's moves in site order
        (see :func:`_shortest_path`)."""
        stop = self.level_start[level + 1]
        ei, ej = self.edge_i[:stop], self.edge_j[:stop]
        tail = np.concatenate([ej, ei])
        key = tail * self.space.graph.n_sites + np.tile(self.edge_site[:stop], 2)
        return _shortest_path(len(self.keys), tail, np.concatenate([ei, ej]), A, B,
                              key=key)


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
                        y: int | None = None) -> VoltageBoundReport:
    """A priori voltage bounds, with kbar = |X|^4 in the Psi versions, each
    up to an absolute slack of 1e-9.

    R(A, B) is read from the voltage's own elimination."""
    A = frozenset(int(a) for a in A)
    B = frozenset(int(b) for b in B)
    x = int(x)
    if x in A or x in B:
        raise ValueError("x must avoid A and B")
    w = voltage(net, A, B)
    wx = float(w.values[x])
    r_ab = _resistance(w.conductance)
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
    slack = 1e-9
    return VoltageBoundReport(
        w=wx,
        resistance_lower_ok=1.0 - r_xa / r_ab <= wx + slack,
        resistance_upper_ok=wx <= r_xb / r_ab + slack,
        psi_lower_ok=1.0 - kbar * psi_xa / psi_ab <= wx + slack,
        psi_upper_ok=wx <= kbar * psi_xb / psi_ab + slack,
        difference_ok=abs(wx - wy) <= kbar * psi_xy / psi_ab + slack,
    )
