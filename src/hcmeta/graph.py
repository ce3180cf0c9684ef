"""Bipartite interaction graphs: builders, doubling, validation, serialization.

Site ids are dense integers 0..|U|+|V|-1 with the U part first.  Torus sites
are row-major (i, j) pairs; hypercube sites are the integers whose binary
digits spell the vertex word.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BipartiteGraph",
    "GeneralGraph",
    "GraphValidationError",
    "build_family",
    "double_graph",
    "neighborhood",
    "validate",
    "parse_graph_spec",
    "graphs_isomorphic",
    "automorphism_generators",
]


class GraphValidationError(ValueError):
    """Raised when a graph fails a structural requirement."""


@dataclass(frozen=True)
class GeneralGraph:
    """A finite simple undirected graph, input to :func:`double_graph`."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(n: int, edges) -> "GeneralGraph":
        adj: list[set[int]] = [set() for _ in range(n)]
        for a, b in edges:
            if a == b:
                raise GraphValidationError(f"self-loop at {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise GraphValidationError(f"edge ({a},{b}) out of range for n={n}")
            adj[a].add(b)
            adj[b].add(a)
        return GeneralGraph(n, tuple(tuple(sorted(s)) for s in adj))

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in self.adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n


@dataclass(frozen=True)
class BipartiteGraph:
    """Immutable bipartite graph with parts U (first) and V.

    ``adjacency[i]`` is the sorted tuple of neighbours of site ``i``; the
    constructor via :meth:`from_parts` checks bipartiteness, symmetry and
    connectivity rather than assuming them.
    """

    u_sites: tuple[int, ...]
    v_sites: tuple[int, ...]
    adjacency: tuple[tuple[int, ...], ...]
    label: str = "bipartite"
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def n_sites(self) -> int:
        return len(self.u_sites) + len(self.v_sites)

    @property
    def edges(self) -> list[tuple[int, int]]:
        out = []
        for a in self.u_sites:
            for b in self.adjacency[a]:
                out.append((a, b))
        return sorted(out)

    def neighbor_mask(self, site: int) -> int:
        mask = 0
        for w in self.adjacency[site]:
            mask |= 1 << w
        return mask

    @staticmethod
    def from_parts(n_u: int, n_v: int, edges, label: str = "bipartite",
                   meta: dict | None = None) -> "BipartiteGraph":
        n = n_u + n_v
        adj: list[set[int]] = [set() for _ in range(n)]
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise GraphValidationError(f"edge ({a},{b}) out of range")
            if (a < n_u) == (b < n_u):
                raise GraphValidationError(
                    f"edge ({a},{b}) does not cross the bipartition")
            adj[a].add(b)
            adj[b].add(a)
        g = BipartiteGraph(
            u_sites=tuple(range(n_u)),
            v_sites=tuple(range(n_u, n)),
            adjacency=tuple(tuple(sorted(s)) for s in adj),
            label=label,
            meta=meta or {},
        )
        rep = validate(g)
        if not rep.connected:
            raise GraphValidationError(f"{label}: graph is not connected")
        return g

    def to_json(self) -> str:
        return json.dumps({
            "u_sites": list(self.u_sites),
            "v_sites": list(self.v_sites),
            "edges": [[a, b] for a, b in self.edges],
        })

    @staticmethod
    def from_json(text: str) -> "BipartiteGraph":
        obj = json.loads(text)
        n_u = len(obj["u_sites"])
        n_v = len(obj["v_sites"])
        if obj["u_sites"] != list(range(n_u)) or obj["v_sites"] != list(range(n_u, n_u + n_v)):
            raise GraphValidationError("site ids must be dense with U first")
        return BipartiteGraph.from_parts(n_u, n_v, obj["edges"], label="json")


@dataclass(frozen=True)
class ValidationReport:
    bipartite_consistent: bool
    connected: bool
    regular_degree: int | None           # None when irregular
    girth_lower_bound: int               # exact girth when < cap, else cap
    girth_exact: bool                    # True when a shortest cycle was found
    n_u: int
    n_v: int
    n_edges: int


def neighborhood(g: BipartiteGraph, sites) -> set[int]:
    """Exact N(A) on the U side for A a subset of V."""
    v_set = set(g.v_sites)
    out: set[int] = set()
    for a in sites:
        if a not in v_set:
            raise GraphValidationError(f"site {a} is not in the V part")
        out.update(g.adjacency[a])
    return out


def validate(g: BipartiteGraph, girth_cap: int = 64) -> ValidationReport:
    """Structural diagnostics; failures are reported, never raised."""
    n_u, n_v = len(g.u_sites), len(g.v_sites)
    n = n_u + n_v
    ok = True
    u_set = set(g.u_sites)
    for a in range(n):
        for b in g.adjacency[a]:
            if (a in u_set) == (b in u_set):
                ok = False
            if a not in g.adjacency[b]:
                ok = False
        if len(set(g.adjacency[a])) != len(g.adjacency[a]):
            ok = False

    seen = {0} if n else set()
    stack = [0] if n else []
    while stack:
        x = stack.pop()
        for y in g.adjacency[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    connected = len(seen) == n and n > 0

    degs = {len(g.adjacency[a]) for a in range(n)}
    regular = degs.pop() if len(degs) == 1 else None

    girth, exact = _girth_scan(g, girth_cap)
    n_edges = sum(len(g.adjacency[a]) for a in range(n)) // 2
    return ValidationReport(ok, connected, regular, girth, exact, n_u, n_v, n_edges)


def _girth_scan(g: BipartiteGraph, cap: int) -> tuple[int, bool]:
    """Shortest cycle length via per-root BFS, capped."""
    n = g.n_sites
    best = cap
    found = False
    for root in range(n):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            for x in frontier:
                for y in g.adjacency[x]:
                    if y == parent[x]:
                        continue
                    if y in dist:
                        cyc = dist[x] + dist[y] + 1
                        if cyc < best:
                            best, found = cyc, True
                    else:
                        dist[y] = dist[x] + 1
                        parent[y] = x
                        if 2 * dist[y] < best:
                            nxt.append(y)
            frontier = nxt
    return best, found


# ----------------------------------------------------------------------------
# Family builders
# ----------------------------------------------------------------------------

def _complete_bipartite(m: int, n: int) -> BipartiteGraph:
    if m < 1 or n < 1:
        raise GraphValidationError("complete_bipartite needs positive sizes")
    edges = [(i, m + j) for i in range(m) for j in range(n)]
    return BipartiteGraph.from_parts(m, n, edges, label=f"complete:{m}x{n}")


def _even_cycle(length: int) -> BipartiteGraph:
    if length < 4 or length % 2:
        raise GraphValidationError("even_cycle needs an even length >= 4")
    n = length // 2
    # U holds the even cycle positions, V the odd ones; site id = part slot.
    def sid(pos):
        return pos // 2 if pos % 2 == 0 else n + pos // 2
    edges = [(sid(p), sid((p + 1) % length)) for p in range(0, length, 2)]
    edges += [(sid(p), sid((p + 1) % length)) for p in range(1, length, 2)]
    return BipartiteGraph.from_parts(n, n, edges, label=f"cycle:{length}",
                                     meta={"family": "cycle", "length": length})


def _path(n_sites: int) -> BipartiteGraph:
    """Path on n_sites sites, positions 0..n-1, U = even positions."""
    if n_sites < 2:
        raise GraphValidationError("path needs at least 2 sites")
    n_u = (n_sites + 1) // 2
    def sid(pos):
        return pos // 2 if pos % 2 == 0 else n_u + pos // 2
    edges = [(sid(p), sid(p + 1)) for p in range(n_sites - 1)]
    return BipartiteGraph.from_parts(n_u, n_sites - n_u, edges,
                                     label=f"path:{n_sites}")


def _cyclic_ladder(length: int) -> BipartiteGraph:
    """Z_length x Z_2 with wrap in the first coordinate (length even)."""
    if length < 4 or length % 2:
        raise GraphValidationError("cyclic_ladder needs an even length >= 4")
    pts = [(i, j) for i in range(length) for j in range(2)]
    u_pts = [p for p in pts if (p[0] + p[1]) % 2 == 0]
    v_pts = [p for p in pts if (p[0] + p[1]) % 2 == 1]
    sid = {p: k for k, p in enumerate(u_pts)}
    sid.update({p: len(u_pts) + k for k, p in enumerate(v_pts)})
    edges = set()
    for (i, j) in pts:
        a = sid[(i, j)]
        b = sid[((i + 1) % length, j)]
        edges.add((min(a, b), max(a, b)))
        c = sid[(i, 1 - j)]
        edges.add((min(a, c), max(a, c)))
    return BipartiteGraph.from_parts(len(u_pts), len(v_pts), sorted(edges),
                                     label=f"ladder:{length}",
                                     meta={"family": "ladder", "length": length})


def _even_torus(m: int, n: int) -> BipartiteGraph:
    if m < 4 or n < 4 or m % 2 or n % 2:
        raise GraphValidationError("even_torus needs even dimensions >= 4")
    pts = [(i, j) for i in range(m) for j in range(n)]
    u_pts = [p for p in pts if (p[0] + p[1]) % 2 == 0]
    v_pts = [p for p in pts if (p[0] + p[1]) % 2 == 1]
    sid = {p: k for k, p in enumerate(u_pts)}
    sid.update({p: len(u_pts) + k for k, p in enumerate(v_pts)})
    edges = set()
    for (i, j) in pts:
        a = sid[(i, j)]
        for (di, dj) in ((1, 0), (0, 1)):
            b = sid[((i + di) % m, (j + dj) % n)]
            edges.add((min(a, b), max(a, b)))
    return BipartiteGraph.from_parts(len(u_pts), len(v_pts), sorted(edges),
                                     label=f"torus:{m}x{n}",
                                     meta={"family": "torus", "dims": (m, n),
                                           "site_of_point": sid})


def _hypercube(d: int) -> BipartiteGraph:
    if d < 1:
        raise GraphValidationError("hypercube needs d >= 1")
    words = list(range(1 << d))
    u_words = [w for w in words if bin(w).count("1") % 2 == 0]
    v_words = [w for w in words if bin(w).count("1") % 2 == 1]
    sid = {w: k for k, w in enumerate(u_words)}
    sid.update({w: len(u_words) + k for k, w in enumerate(v_words)})
    edges = set()
    for w in words:
        for b in range(d):
            x = w ^ (1 << b)
            edges.add((min(sid[w], sid[x]), max(sid[w], sid[x])))
    return BipartiteGraph.from_parts(len(u_words), len(v_words), sorted(edges),
                                     label=f"hypercube:{d}",
                                     meta={"family": "hypercube", "d": d,
                                           "site_of_word": sid})


def _random_bipartite(n_u: int, n_v: int, edge_prob: float, seed: int) -> BipartiteGraph:
    if n_u < 1 or n_v < 1:
        raise GraphValidationError("random_bipartite needs positive sizes")
    if not (0.0 < edge_prob <= 1.0):
        raise GraphValidationError("edge_prob must be in (0, 1]")
    for attempt in range(100):          # Philox keys seed .. seed + 99
        rng = np.random.Generator(np.random.Philox(key=seed + attempt))
        edges = [(i, n_u + j) for i in range(n_u) for j in range(n_v)
                 if rng.random() < edge_prob]
        try:
            return BipartiteGraph.from_parts(
                n_u, n_v, edges, label=f"random:{n_u}x{n_v}:{edge_prob}:{seed}")
        except GraphValidationError:
            continue
    raise GraphValidationError(
        f"random_bipartite({n_u},{n_v},{edge_prob},{seed}): "
        "no connected sample within 100 retries")


def double_graph(g: GeneralGraph, label: str = "doubled") -> BipartiteGraph:
    """Doubled version of a general graph: red copies are U, blue copies V.

    Edge between (i, red) and (j, blue) iff i == j or (i, j) is an edge of g.
    Red copy of vertex k has site id k; blue copy has id n + k.
    """
    if not g.is_connected():
        raise GraphValidationError("double_graph needs a connected input")
    n = g.n
    edges = [(k, n + k) for k in range(n)]
    for a in range(n):
        for b in g.adjacency[a]:
            edges.append((a, n + b))
    return BipartiteGraph.from_parts(n, n, edges, label=label)


def _general_family(name: str, args: list[int]) -> GeneralGraph:
    if name == "cycle":
        (length,) = args
        if length < 3:
            raise GraphValidationError("general cycle needs length >= 3")
        return GeneralGraph.from_edges(length, [(i, (i + 1) % length)
                                                for i in range(length)])
    if name == "torus":
        m, n = args
        if m < 3 or n < 3:
            raise GraphValidationError("general torus needs dims >= 3")
        def sid(i, j):
            return i * n + j
        edges = []
        for i in range(m):
            for j in range(n):
                edges.append((sid(i, j), sid((i + 1) % m, j)))
                edges.append((sid(i, j), sid(i, (j + 1) % n)))
        g = GeneralGraph.from_edges(m * n, edges)
        return g
    if name == "hypercube":
        (d,) = args
        edges = [(w, w ^ (1 << b)) for w in range(1 << d) for b in range(d)
                 if w < (w ^ (1 << b))]
        return GeneralGraph.from_edges(1 << d, edges)
    if name == "path":
        (ns,) = args
        return GeneralGraph.from_edges(ns, [(i, i + 1) for i in range(ns - 1)])
    if name == "vertex":
        return GeneralGraph.from_edges(1, [])
    raise GraphValidationError(f"unknown general family {name!r}")


def build_family(spec: str) -> BipartiteGraph:
    """Build a bipartite graph from a CLI family string.

    Accepted forms: ``complete:MxN``, ``cycle:L`` (even L), ``path:SITES``,
    ``ladder:L`` (Z_L x Z_2, even L), ``torus:MxN`` (even M, N),
    ``hypercube:D``, ``random:NUxNV:P:SEED``, and ``doubled(INNER)`` where
    INNER is a general family (``torus:MxN`` any dims, ``cycle:L`` any L,
    ``hypercube:D``, ``path:SITES``, ``vertex``).
    """
    return parse_graph_spec(spec)


# Each family's builder and the fields of its spec after the name; an x
# inside a field separates integers.
_FAMILIES = {"complete": (_complete_bipartite, ["MxN"]), "cycle": (_even_cycle, ["L"]),
             "path": (_path, ["SITES"]), "ladder": (_cyclic_ladder, ["L"]),
             "torus": (_even_torus, ["MxN"]), "hypercube": (_hypercube, ["D"]),
             "random": (_random_bipartite, ["NUxNV", "P", "SEED"])}
_GENERAL_FIELDS = {"cycle": ["L"], "torus": ["MxN"], "hypercube": ["D"],
                   "path": ["SITES"], "vertex": []}


def _spec_numbers(spec: str, given: list[str], names: list[str], form: str) -> list:
    """The numbers in the fields ``given`` after a family name: field P is a
    float, and every other field holds as many x-separated integers as its
    name in ``names`` does.  Any other shape is refused, naming ``form``."""
    try:
        if len(given) != len(names):
            raise ValueError
        out = []
        for text, name in zip(given, names):
            parts = text.split("x")
            if len(parts) != len(name.split("x")):
                raise ValueError
            out += [float(t) if name == "P" else int(t) for t in parts]
        return out
    except ValueError:
        raise GraphValidationError(
            f"graph spec {spec!r}: expected the form {form}") from None


def parse_graph_spec(spec: str) -> BipartiteGraph:
    spec = spec.strip()
    if spec.startswith("doubled(") and spec.endswith(")"):
        inner = spec[len("doubled("):-1]
        name, *given = inner.split(":")
        if name not in _GENERAL_FIELDS:
            raise GraphValidationError(f"unknown general family {name!r}")
        names = _GENERAL_FIELDS[name]
        args = _spec_numbers(spec, given, names, f"doubled({':'.join([name, *names])})")
        base = _general_family(name, args)
        g = double_graph(base, label=f"doubled({inner})")
        g.meta["family"] = f"doubled-{name}"
        if name == "torus":
            g.meta["dims"] = tuple(args)
        if name == "cycle":
            g.meta["length"] = args[0]
        return g
    name, *given = spec.split(":")
    if name not in _FAMILIES:
        raise GraphValidationError(f"unknown graph spec {spec!r}")
    build, names = _FAMILIES[name]
    return build(*_spec_numbers(spec, given, names, ":".join([name, *names])))


# ----------------------------------------------------------------------------
# Isomorphism and automorphisms (graphs <= 64 vertices)
# ----------------------------------------------------------------------------

def _distances(g: BipartiteGraph) -> list[list[int]]:
    """All-pairs shortest-path lengths, one breadth-first search per site
    (-1 between components)."""
    out = []
    for root in range(g.n_sites):
        dist = [-1] * g.n_sites
        dist[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for x in frontier:
                for y in g.adjacency[x]:
                    if dist[y] < 0:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        out.append(dist)
    return out


def _bfs_tree(g: BipartiteGraph, roots: list[int]) -> tuple[list[int], list[int]]:
    """The sites not in ``roots`` in breadth-first order from them, and each
    site's parent in the search (-1 for a site no root reaches; those follow
    in ascending order, each seeding its own search)."""
    parent = [-2] * g.n_sites
    for r in roots:
        parent[r] = -1
    order: list[int] = []
    queue = list(roots)
    for seed in range(g.n_sites + 1):
        while queue:
            x = queue.pop(0)
            for y in g.adjacency[x]:
                if parent[y] == -2:
                    parent[y] = x
                    order.append(y)
                    queue.append(y)
        if seed < g.n_sites and parent[seed] == -2:
            parent[seed] = -1
            order.append(seed)
            queue.append(seed)
    return order, parent


def _extend(g1: BipartiteGraph, g2: BipartiteGraph, d1, d2, order, parent,
            mapping: dict[int, int]) -> dict[int, int] | None:
    """Backtracking: extend ``mapping`` (sites of g1 to sites of g2) over
    ``order``.  A site whose search parent is mapped goes to an unused
    neighbour of the parent's image; a site without one goes to any unused
    site.  Every image must have the site's degree and its distance to every
    site mapped before it, so a complete mapping preserves adjacency both
    ways.  Returns the complete mapping, or None when there is none."""
    used = set(mapping.values())
    n2 = g2.n_sites

    def rec(k: int) -> bool:
        if k == len(order):
            return True
        x = order[k]
        p = parent[x]
        pool = g2.adjacency[mapping[p]] if p >= 0 else range(n2)
        dx = d1[x]
        for y in pool:
            if y in used or len(g2.adjacency[y]) != len(g1.adjacency[x]):
                continue
            dy = d2[y]
            if any(dx[w] != dy[z] for w, z in mapping.items()):
                continue
            mapping[x] = y
            used.add(y)
            if rec(k + 1):
                return True
            del mapping[x]
            used.remove(y)
        return False

    return mapping if rec(0) else None


def graphs_isomorphic(g1: BipartiteGraph, g2: BipartiteGraph) -> bool:
    """Backtracking isomorphism test for small graphs (<= 64 vertices)."""
    n1, n2 = g1.n_sites, g2.n_sites
    if n1 != n2 or n1 > 64:
        raise GraphValidationError("isomorphism check limited to equal sizes <= 64")
    deg1 = sorted(len(g1.adjacency[a]) for a in range(n1))
    deg2 = sorted(len(g2.adjacency[a]) for a in range(n2))
    if deg1 != deg2:
        return False
    order, parent = _bfs_tree(g1, [])
    return _extend(g1, g2, _distances(g1), _distances(g2), order, parent,
                   {}) is not None


def automorphism_generators(g: BipartiteGraph) -> list[tuple[int, ...]]:
    """Generators of the automorphisms of ``g`` that map U onto U and V onto V.

    Each generator is a tuple ``p`` with ``p[site]`` the site's image.  Base
    points b_1, b_2, ... are taken in breadth-first order from site 0.  At
    level i the search looks, for each site y of b_i's part and degree that
    has b_i's distances to b_1..b_{i-1} and is not yet in b_i's orbit under
    the level's generators, for one automorphism that fixes b_1..b_{i-1} and
    maps b_i to y (an extension of the :func:`graphs_isomorphic`
    backtracking), and keeps it.  These transversal elements of the
    point-stabiliser chain generate the group, and no element of the group
    beyond them is ever built.  The chain stops once the distances to the
    base points tell every site apart.
    """
    n = g.n_sites
    if n > 64:
        raise GraphValidationError("automorphism search limited to <= 64 sites")
    dist = _distances(g)
    in_u = [False] * n
    for a in g.u_sites:
        in_u[a] = True
    gens: list[tuple[int, ...]] = []
    base: list[int] = []
    for b in [0, *_bfs_tree(g, [0])[0]]:
        if len({tuple(dist[x][f] for f in base) for x in range(n)}) == n:
            break
        order, parent = _bfs_tree(g, base + [b])
        orbit = {b}
        level: list[tuple[int, ...]] = []
        for y in range(n):
            if (y in orbit or in_u[y] != in_u[b]
                    or len(g.adjacency[y]) != len(g.adjacency[b])
                    or any(dist[b][f] != dist[y][f] for f in base)):
                continue
            mapping = {f: f for f in base}
            mapping[b] = y
            found = _extend(g, g, dist, dist, order, parent, mapping)
            if found is None:
                continue
            level.append(tuple(found[x] for x in range(n)))
            orbit, stack = {b}, [b]
            while stack:
                x = stack.pop()
                for p in level:
                    if p[x] not in orbit:
                        orbit.add(p[x])
                        stack.append(p[x])
        gens.extend(level)
        base.append(b)
    return gens
