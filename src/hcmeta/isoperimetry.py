"""The bipartite isoperimetric problem: costs, brute-force optima, closed
forms per graph family, numberings, and progressions.

Site sets here are subsets of the V part, given as iterables of site ids.
The closed forms for torus-like families are lattice formulas; on a finite
torus they are guarded by a footprint window (the optimal shape together
with its neighborhood ring must embed without wrapping).
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .configspace import CapExceeded, _available_memory
from .graph import BipartiteGraph, GraphValidationError

__all__ = [
    "IsoperimetricProfile",
    "set_cost",
    "brute_force_profile",
    "closed_form_profile",
    "torus_delta",
    "doubled_torus_delta",
    "tree_like_delta",
    "hypercube_delta",
    "spiral_numbering",
    "harper_numbering",
    "hypercube_bipartite_numbering",
    "doubled_torus_numbering",
    "seed_set",
    "connecting_progression",
    "vertex_boundary",
    "hypercube_vertex_boundary",
]

WITNESS_CAP = 10_000
_WORD = (1 << 64) - 1


# ----------------------------------------------------------------------------
# Cost and brute force
# ----------------------------------------------------------------------------

def set_cost(g: BipartiteGraph, sites) -> int:
    """Delta(A) = |N(A)| - |A| for A a subset of V."""
    v_set = set(g.v_sites)
    seen = set()
    nbr_mask = 0
    for a in sites:
        if a not in v_set:
            raise GraphValidationError(f"site {a} is not in the V part")
        if a in seen:
            raise GraphValidationError(f"duplicate site {a}")
        seen.add(a)
        nbr_mask |= g.neighbor_mask(a)
    return nbr_mask.bit_count() - len(seen)


@dataclass
class IsoperimetricProfile:
    """Optimal cost per size and (optionally) all witnesses."""

    deltas: list[int]                       # index s -> Delta(s)
    witnesses: dict[int, list[tuple[int, ...]]] = field(default_factory=dict)
    witnesses_truncated: dict[int, bool] = field(default_factory=dict)

    def delta(self, s: int) -> int:
        if not (0 <= s < len(self.deltas)):
            raise IndexError(f"profile holds s <= {len(self.deltas) - 1}, asked {s}")
        return self.deltas[s]

    @property
    def s_max(self) -> int:
        return len(self.deltas) - 1

    def complete_witnesses(self, s: int) -> list[tuple[int, ...]]:
        """All optimal sets of size s; refuses when retention was truncated."""
        if self.witnesses_truncated.get(s, True):
            raise CapExceeded(
                f"witness list for s={s} is truncated or absent; "
                f"completeness-dependent checks refuse")
        return self.witnesses[s]


def brute_force_profile(g: BipartiteGraph, s_max: int,
                        witness_cap: int = WITNESS_CAP) -> IsoperimetricProfile:
    """Exact Delta(s) for s <= s_max by exhaustive subset enumeration.

    Subsets of V positions are built level by level in colexicographic order.
    The s-subsets whose largest member is j are, in colex order, the
    (s-1)-subsets of {0..j-1} plus j, and those are the first C(j, s-1)
    entries of level s-1.  So level s is the concatenation over j of
    ``level[:C(j, s-1)] | nbr[j]``, one numpy pass per j with no sort, and
    entry r with largest member j has parent r - C(j, s) at level s-1.
    Neighbourhoods are rows of ceil(|U|/64) uint64 words over U positions,
    and ``np.bitwise_count`` counts them one word column at a time.

    Only levels s-1 and s are live.  Where :func:`_profile_bytes` passes the
    available memory, the profile refuses at once.  The first
    ``witness_cap`` optimal sets per size are kept, in colex order, with a
    truncation flag so completeness-dependent consumers can refuse; their
    members come from the parent pointers, walked against one Pascal table.
    """
    if s_max < 0:
        raise ValueError(f"s_max must be nonnegative, got {s_max}")
    v = list(g.v_sites)
    nv = len(v)
    s_max = min(s_max, nv)
    need, available = _profile_bytes(g, s_max, witness_cap), _available_memory()
    if need > available:
        raise CapExceeded(f"the brute-force profile of {nv} V sites up to s = {s_max} "
                          f"needs {need:,} bytes; {available:,} bytes are available")
    n_words = max(1, -(-len(g.u_sites) // 64))
    # U sites are 0..|U|-1, so a neighbour mask is a mask over U positions
    nbr = np.array([[g.neighbor_mask(a) >> (64 * k) & _WORD for k in range(n_words)]
                    for a in v], dtype=np.uint64)
    count_type = np.min_scalar_type(64 * n_words)
    # pascal[t, j] = C(j, t) = sum of C(i, t-1) over i < j
    pascal = np.zeros((s_max + 1, nv), dtype=np.int64)
    pascal[0] = 1
    for t in range(1, s_max + 1):
        np.cumsum(pascal[t - 1, :-1], out=pascal[t, 1:])
    sites = np.array(v, dtype=np.int64)

    deltas = [0]
    witnesses: dict[int, list[tuple[int, ...]]] = {0: [()]}
    truncated: dict[int, bool] = {0: False}
    level = np.zeros((1, n_words), dtype=np.uint64)      # the empty set
    for s in range(1, s_max + 1):
        nxt = np.empty((math.comb(nv, s), n_words), dtype=np.uint64)
        for j in range(s - 1, nv):
            lo, n = math.comb(j, s), math.comb(j, s - 1)
            np.bitwise_or(level[:n], nbr[j], out=nxt[lo:lo + n])
        level = nxt
        counts = np.zeros(len(level), dtype=count_type)
        for k in range(n_words):
            counts += np.bitwise_count(level[:, k])
        best = counts.min()
        optimal = counts == best
        hits = int(np.count_nonzero(optimal))
        end = len(optimal)
        if hits > witness_cap:      # the shortest prefix holding witness_cap hits
            end = bisect_left(range(end), witness_cap, lo=witness_cap,
                              key=lambda e: np.count_nonzero(optimal[:e]))
        ranks = np.flatnonzero(optimal[:end])
        members = np.empty((len(ranks), s), dtype=np.int64)
        for t in range(s, 0, -1):
            j = np.searchsorted(pascal[t], ranks, side="right") - 1
            members[:, t - 1] = sites[j]
            ranks -= pascal[t, j]
        deltas.append(int(best) - s)
        witnesses[s] = list(map(tuple, members.tolist()))
        truncated[s] = hits > witness_cap
    return IsoperimetricProfile(deltas, witnesses, truncated)


def _profile_bytes(g: BipartiteGraph, s_max: int, witness_cap: int) -> int:
    """Bytes of the profile's largest level up to s_max <= |V|: level s-1's
    words (8 per 64 U sites); level s's words, bit counts, one word column's
    ``np.bitwise_count`` and optimality flags; and the lists ``tolist``
    makes of level s's kept witnesses, per witness a slot, a 64-byte list
    and its 8 s member bytes.  Then every kept witness tuple of t members:
    a slot and 40 + 8 t bytes, plus 32 bytes per member whose site id is
    past CPython's small-int cache (256).  pymalloc rounds each block up to
    a multiple of 16 bytes."""
    def block(n: int) -> int:
        return -(-n // 16) * 16

    nv, word = len(g.v_sites), 8 * max(1, -(-len(g.u_sites) // 64))
    count = next(b for b in (1, 2, 4, 8) if 8 * word < 1 << 8 * b)
    member = 32 * (max(g.v_sites, default=0) > 256)
    kept = {s: min(math.comb(nv, s), witness_cap) for s in range(1, s_max + 1)}
    return (max((math.comb(nv, s - 1) * word + math.comb(nv, s) * (word + count + 1 + 1)
                 + n * (8 + 64 + block(8 * s)) for s, n in kept.items()), default=0)
            + sum(n * (8 + block(40 + 8 * s) + member * s) for s, n in kept.items()))


# ----------------------------------------------------------------------------
# Closed forms (lattice formulas)
# ----------------------------------------------------------------------------

def torus_delta(s: int) -> int:
    """Bipartite isoperimetric function of the even torus / square lattice."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if s == 0:
        return 0
    r = math.isqrt(4 * s)
    if r * r < 4 * s:
        r += 1
    return r + 1


def doubled_torus_delta(s: int) -> int:
    """Vertex isoperimetric function of the square lattice (doubled torus)."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if s == 0:
        return 0
    ell, i = _doubled_decompose(s)
    if i == 0:
        return 4 * ell
    return 4 * ell + 1 + (i >= ell) + (i >= 2 * ell) + (i >= 3 * ell)


def _doubled_decompose(s: int) -> tuple[int, int]:
    """Unique s = ell^2 + (ell-1)^2 + i with ell > 0 and 0 <= i < 4*ell."""
    ell = 1
    while ell * ell + (ell - 1) ** 2 + 4 * ell <= s:
        ell += 1
    i = s - ell * ell - (ell - 1) ** 2
    assert 0 <= i < 4 * ell
    return ell, i


def tree_like_delta(s: int, degree: int, girth: int, doubled: bool = False) -> int:
    """Linear cost on d-regular tree-like graphs within the girth window."""
    if degree < 2:
        raise ValueError("degree must be >= 2")
    if s == 0:
        return 0
    limit = girth - 1 if doubled else girth / 2
    if not (0 < s < limit):
        raise ValueError(f"s={s} outside tree-like validity window (<{limit})")
    return (degree - 2) * s + (2 if doubled else 1)


@lru_cache(maxsize=None)
def _psi(d: int, r: int, k: int) -> int:
    """Up-boundary count of the first k weight-r words of H_d in Harper order."""
    if k == 0:
        return 0
    if r == 0:
        return d          # k == 1: the all-zeros word has d up-neighbours
    if r >= d:
        return 0
    half = math.comb(d - 1, r - 1)
    if k <= half:
        return _psi(d - 1, r - 1, k)
    return math.comb(d - 1, r) + _psi(d - 1, r, k - half)


def hypercube_delta(d_plus_1: int, s: int) -> int:
    """Bipartite isoperimetric function of H_{d+1} (= vertex iso of H_d)."""
    d = d_plus_1 - 1
    if d < 1:
        raise ValueError("hypercube dimension must be >= 2")
    if not (0 <= s <= 1 << d):
        raise ValueError(f"s={s} outside [0, 2^{d}]")
    if s == 0:
        return 0
    acc = 0
    for r in range(d + 1):
        c = math.comb(d, r)
        if s < acc + c:
            k = s - acc
            return c + _psi(d, r, k) - k
        acc += c
    return 0            # s == 2^d: full set, empty boundary


def _torus_window_ok(s: int, dims: tuple[int, int]) -> bool:
    """Spiral shape of size s plus its neighborhood ring embeds in the torus."""
    if s == 0:
        return True
    offs = _spiral_offsets(s)
    pts = [(a - b, a + b) for a, b in offs]
    span_i = max(p[0] for p in pts) - min(p[0] for p in pts) + 1
    span_j = max(p[1] for p in pts) - min(p[1] for p in pts) + 1
    return span_i + 2 <= dims[0] and span_j + 2 <= dims[1]


def _doubled_window_ok(s: int, dims: tuple[int, int]) -> bool:
    if s == 0:
        return True
    pts = doubled_torus_numbering(s)
    span_i = max(p[0] for p in pts) - min(p[0] for p in pts) + 1
    span_j = max(p[1] for p in pts) - min(p[1] for p in pts) + 1
    return span_i + 2 <= min(dims) + 1 and span_j + 2 <= min(dims) + 1


def closed_form_profile(g: BipartiteGraph, s: int) -> int:
    """Closed-form Delta(s) of the graph's family: the torus and
    doubled-torus lattice formulas inside their footprint windows, the
    hypercube recursion, and the tree-like form of a cycle.  A size outside
    the validity window raises ``ValueError``, a family with no closed form
    ``GraphValidationError``."""
    fam, dims = g.meta.get("family"), g.meta.get("dims")
    if fam == "torus":
        if not _torus_window_ok(s, dims):
            raise ValueError(f"s={s} outside torus validity window for dims {dims}")
        return torus_delta(s)
    if fam == "doubled-torus":
        if not _doubled_window_ok(s, dims):
            raise ValueError(f"s={s} outside doubled-torus window for dims {dims}")
        return doubled_torus_delta(s)
    if fam == "hypercube":
        return hypercube_delta(g.meta["d"], s)
    if fam == "cycle":
        return tree_like_delta(s, 2, g.meta["length"])
    raise GraphValidationError(f"no closed form for family {fam!r}; use --brute-force")


# ----------------------------------------------------------------------------
# Numberings
# ----------------------------------------------------------------------------

_SPIRAL_STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1))     # E, N, W, S in L-plane


def _spiral_offsets(length: int) -> list[tuple[int, int]]:
    """First `length` cells of the square spiral."""
    out = [(0, 0)]
    x = y = 0
    run, d = 1, 0
    while len(out) < length:
        for _ in range(2):
            dx, dy = _SPIRAL_STEPS[d % 4]
            for _ in range(run):
                x += dx
                y += dy
                out.append((x, y))
                if len(out) == length:
                    return out
            d += 1
        run += 1
    return out


def _orient(p: tuple[int, int], o: int) -> tuple[int, int]:
    x, y = p
    if o & 4:
        x, y = y, x
    for _ in range(o & 3):
        x, y = -y, x
    return (x, y)


def _torus_maps(g: BipartiteGraph):
    meta = g.meta
    if meta.get("family") != "torus":
        raise GraphValidationError("spiral numbering needs an even-torus graph")
    m, n = meta["dims"]
    site_of = meta["site_of_point"]
    point_of = {v: k for k, v in site_of.items()}
    return m, n, site_of, point_of


def spiral_numbering(g: BipartiteGraph, start: int, length: int) -> list[int]:
    """Spiral isoperimetric numbering of torus V-sites starting at ``start``.

    Every prefix cost is asserted to equal the torus closed form; the window
    guard rejects lengths whose shapes would wrap.
    """
    m, n, site_of, point_of = _torus_maps(g)
    if start not in set(g.v_sites):
        raise GraphValidationError(f"start site {start} is not in V")
    if not _torus_window_ok(length, (m, n)):
        raise ValueError(f"length {length} exceeds torus validity window")
    i0, j0 = point_of[start]
    sites = []
    for a, b in _spiral_offsets(length):
        p = ((i0 + a - b) % m, (j0 + a + b) % n)
        sites.append(site_of[p])
    for k in range(1, length + 1):
        got = set_cost(g, sites[:k])
        want = torus_delta(k)
        if got != want:
            raise AssertionError(
                f"spiral prefix {k} has cost {got}, closed form says {want}")
    return sites


def harper_numbering(d: int, length: int | None = None) -> list[int]:
    """Harper order of H_d vertices: by weight, then reverse lexicographic.

    Vertices are integers whose bit i is coordinate i+1 of the word; reverse
    lexicographic order among equal weights puts ones as early as possible.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    total = 1 << d
    if length is None:
        length = total
    if not (0 <= length <= total):
        raise ValueError(f"length must be in [0, {total}]")

    def key(w: int):
        bits = tuple((w >> i) & 1 for i in range(d))
        return (w.bit_count(), tuple(-b for b in bits))

    return sorted(range(total), key=key)[:length]


def hypercube_vertex_boundary(d: int, words) -> int:
    """|ball(A,1)| - |A| in H_d for A a set of integer words."""
    aset = set(words)
    out = set()
    for w in aset:
        for b in range(d):
            x = w ^ (1 << b)
            if x not in aset:
                out.add(x)
    return len(out)


def hypercube_bipartite_numbering(g: BipartiteGraph, length: int | None = None,
                                  start_word: int = 0) -> list[int]:
    """Isoperimetric numbering of the V part of a hypercube graph H_{d+1}.

    Built from the Harper order of H_d by appending a parity-fixing top bit;
    ``start_word`` XOR-translates the order so the numbering can start at any
    V-site (hypercube automorphisms preserve isoperimetry).
    """
    meta = g.meta
    if meta.get("family") != "hypercube":
        raise GraphValidationError("needs a hypercube-family graph")
    d_plus_1 = meta["d"]
    d = d_plus_1 - 1
    site_of_word = meta["site_of_word"]
    out = []
    for w in harper_numbering(d, length):
        w ^= start_word & ((1 << d) - 1)
        parity = (w.bit_count() + 1) % 2
        word = w | (parity << d)
        out.append(site_of_word[word])
    return out


# ----------------------------------------------------------------------------
# Doubled torus: seeds, Pareto sets, connecting progressions
# ----------------------------------------------------------------------------

SEEDS: dict[str, frozenset[tuple[int, int]]] = {
    "I": frozenset({(0, 0)}),
    "II": frozenset({(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)}),
    "IIIa": frozenset({(0, 0), (0, 1)}),
    "IIIb": frozenset({(0, 0), (1, 1)}),
    "IV": frozenset({(0, 0), (0, 1), (1, 0)}),
}


def _ball(cells, k: int) -> frozenset[tuple[int, int]]:
    """Closed ball of radius k around a cell set in the square lattice."""
    cur = set(cells)
    for _ in range(k):
        nxt = set(cur)
        for (x, y) in cur:
            nxt.update([(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)])
        cur = nxt
    return frozenset(cur)


def vertex_boundary(cells) -> int:
    """|N(A) \\ A| in the square lattice."""
    aset = set(cells)
    out = set()
    for (x, y) in aset:
        for p in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if p not in aset:
                out.add(p)
    return len(out)


def seed_set(seed_type: str, k: int) -> frozenset[tuple[int, int]]:
    """Pareto optimal set N^k(S) for a seed of the given type."""
    if seed_type not in SEEDS:
        raise ValueError(f"unknown seed type {seed_type!r}; use {sorted(SEEDS)}")
    if k < 0:
        raise ValueError("inflation radius must be >= 0")
    out = _ball(SEEDS[seed_type], k)
    want = doubled_torus_delta(len(out))
    got = vertex_boundary(out)
    if got != want:
        raise AssertionError(f"seed set {seed_type}/{k}: boundary {got} != {want}")
    return out


class _Budget:
    """A node count shared by the searches of one question."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def tick(self) -> bool:
        self.used += 1
        return self.used <= self.limit


def _grow(start, pool, size: int, cost_fn, delta_fn,
          budget: _Budget | None = None) -> tuple[list[frozenset] | None, bool]:
    """Depth-first search for a nested growth of ``start`` to ``size``
    members, one member of ``pool`` at a time, every set optimal.

    Members are tried in ``pool``'s order, skipping those already in the
    set; a set is kept when ``cost_fn(set) == delta_fn(len(set))`` and the
    first path found is returned.  Each set entered below ``size`` costs a
    tick of ``budget``, and the search stops at the first tick past it.
    Returns (sets from ``start``, or None, exhausted).
    """
    path = [frozenset(start)]
    exhausted = False

    def rec(cur: frozenset) -> bool:
        nonlocal exhausted
        if len(cur) == size:
            return True
        if budget is not None and not budget.tick():
            exhausted = True
            return False
        want = delta_fn(len(cur) + 1)
        for a in pool:
            if a in cur:
                continue
            nxt = cur | {a}
            if cost_fn(nxt) == want:
                path.append(nxt)
                if rec(nxt):
                    return True
                path.pop()
                if exhausted:
                    return False
        return False

    return (path if rec(path[0]) else None), exhausted


def _walk(g: BipartiteGraph, delta_fn, starts, lo: int, hi: int, budget: _Budget,
          stop=None) -> tuple[dict[int, int | None], int | None, bool]:
    """Breadth-first search from ``starts`` over the optimal sets of sizes
    ``lo`` .. ``hi``, one V site added or removed per move.

    Sets are bitmasks of site ids.  Moves are tried in ``g.v_sites`` order,
    and the walk enters a set it has not seen when its size lies in
    lo .. hi and its cost |N(A)| - |A| equals ``delta_fn(|A|)``.  The starts
    are seen but never tested, whatever their size or cost.  Each expanded
    set costs one tick of ``budget``, and the walk stops at the first tick
    past it, or at the first entered set that ``stop`` accepts.

    Moves are symmetric and every constraint sits on a set, so a walk out of
    a family reaches exactly the sets from which such moves, through those
    sizes, reach the family.

    Returns (parent, found, exhausted).  ``parent`` maps every seen set to
    the set it was entered from (a start to None): its keys are the visited
    sets, and a path to any of them runs back along it.  ``found`` is the set
    ``stop`` accepted, or None.
    """
    bits = [1 << a for a in g.v_sites]
    nbr = [g.neighbor_mask(a) for a in g.v_sites]
    want = {s: delta_fn(s) for s in range(lo, hi + 1)}
    parent: dict[int, int | None] = dict.fromkeys(starts)
    frontier = list(parent)
    while frontier:
        nxt = []
        for cur in frontier:
            if not budget.tick():
                return parent, None, True
            size = cur.bit_count()
            if size - 1 < lo and size + 1 > hi:
                continue
            members = [k for k, bit in enumerate(bits) if cur & bit]
            # N(cur) without one member: the ORs of the members before it
            # and of those after it; ``after`` ends as N(cur)
            before, after, drop = [0], 0, {}
            for k in members:
                before.append(before[-1] | nbr[k])
            for pos in reversed(range(len(members))):
                drop[members[pos]] = before[pos] | after
                after |= nbr[members[pos]]
            # at the top size or above, only removals can stay in range
            for k in members if size + 1 > hi else range(len(bits)):
                bit = bits[k]
                s = size - 1 if cur & bit else size + 1
                cand = cur ^ bit
                if not lo <= s <= hi or cand in parent:
                    continue
                cover = drop[k] if cur & bit else after | nbr[k]
                if cover.bit_count() - s != want[s]:
                    continue
                parent[cand] = cur
                if stop is not None and stop(cand):
                    return parent, cand, False
                nxt.append(cand)
        frontier = nxt
    return parent, None, False


_PROGRESSION_KINDS = {
    # kind: (from type, from radius offset, to type, to radius offset, min ell)
    "a": ("I", -1, "II", -2, 2),
    "b": ("II", -2, "IIIa", -1, 2),
    "c": ("IIIa", -1, "IV", -1, 1),
    "d": ("IV", -1, "I", 0, 1),
}


def connecting_progression(kind: str, ell: int) -> list[frozenset]:
    """Nested isoperimetric progression between consecutive Pareto types.

    Kinds a-d connect I->II, II->III, III->IV and IV->I at level ell, using
    seed placements that satisfy the required containments (ball(S_I,1)
    inside S_II, S_II inside ball(S_III,1), S_III inside S_IV, S_IV inside
    ball(S_I,1)).  Every member is verified optimal against the closed form.
    """
    if kind not in _PROGRESSION_KINDS:
        raise ValueError(f"kind must be one of {sorted(_PROGRESSION_KINDS)}")
    t_from, k_from, t_to, k_to, min_ell = _PROGRESSION_KINDS[kind]
    if ell < min_ell:
        raise ValueError(f"kind {kind!r} needs ell >= {min_ell}")
    a = seed_set(t_from, ell + k_from)
    b = seed_set(t_to, ell + k_to)
    path, _ = _grow(a, sorted(b), len(b), vertex_boundary, doubled_torus_delta)
    if path is None or path[-1] != b:
        raise AssertionError(f"no nested isoperimetric progression for {kind}/{ell}")
    return path


def doubled_torus_numbering(length: int) -> list[tuple[int, int]]:
    """Lattice isoperimetric numbering for the vertex problem (doubled torus).

    Chains the connecting progressions I->III->IV->I at level 1, then
    I->II->III->IV->I at levels 2, 3, ... around the same anchor; every
    prefix is optimal.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    cells: list[tuple[int, int]] = []
    have: set[tuple[int, int]] = set()

    def extend(path: list[frozenset]):
        for stage in path:
            for cell in sorted(stage - have):
                have.add(cell)
                cells.append(cell)

    start = seed_set("I", 0)
    extend([start])
    ell = 1
    while len(cells) < length:
        if ell == 1:
            b = seed_set("IIIa", 0)
            step, _ = _grow(start, sorted(b), len(b), vertex_boundary,
                            doubled_torus_delta)
            if step is None:
                raise AssertionError("level-1 chain broke")
            extend(step)
            extend(connecting_progression("c", 1))
            extend(connecting_progression("d", 1))
        else:
            extend(connecting_progression("a", ell))
            extend(connecting_progression("b", ell))
            extend(connecting_progression("c", ell))
            extend(connecting_progression("d", ell))
        ell += 1
    return cells[:length]
