"""Critical size and gate machinery: g(s) maximization, hypothesis checking,
gate families and transition counts, the gate's mandatory passage on the
bottleneck tree, crossover predictions, dominance sets, no-trap
certificates, and gate passage statistics.

All order comparisons that feed metastability logic go through exact
rational heights (p + q*alpha bookkeeping), never floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .asymptotics import AsymptoticExponent
from .configspace import (CapExceeded, ConfigurationSpace, ModelParams,
                          enumerate_space)
from .graph import BipartiteGraph
from .isoperimetry import (
    IsoperimetricProfile,
    _Budget,
    _grow,
    _orient,
    _walk,
    brute_force_profile,
    doubled_torus_delta,
    hypercube_delta,
    seed_set,
    set_cost,
    torus_delta,
)
# psi_symbolic is unused here but stays in this module's namespace for code
# that looks it up (or wraps it) as hcmeta.metastability.psi_symbolic.
from .potential import BottleneckTree, _components, psi_symbolic  # noqa: F401
from .stats import chi_square_sf

__all__ = [
    "CriticalAnalysis",
    "CriticalGate",
    "HypothesisStatus",
    "HypothesisReport",
    "critical_analysis",
    "torus_critical_size",
    "doubled_torus_critical_size",
    "profile_function",
    "dominance_sets",
    "check_hypotheses",
    "build_gate",
    "crossover_prediction",
    "CrossoverPrediction",
    "no_trap_certificate",
    "NoTrapReport",
    "gate_statistics",
    "GateStats",
    "find_isoperimetric_numbering",
    "mandatory_passage",
    "default_s_tilde_bound",
]


# ----------------------------------------------------------------------------
# Critical sizes
# ----------------------------------------------------------------------------

@dataclass
class CriticalAnalysis:
    alpha: Fraction
    s_star: int
    g_star: Fraction
    s_tilde: int
    delta_s_star: int
    unique_max: bool
    tied_maximizers: list[int]
    t_star: int | None = None            # |U| - s* - Delta(s*) when |U| known

    def as_json_obj(self) -> dict:
        return {"alpha": str(self.alpha), "s_star": self.s_star,
                "g_star": str(self.g_star), "s_tilde": self.s_tilde,
                "delta_s_star": self.delta_s_star,
                "unique_max": self.unique_max,
                "tied_maximizers": self.tied_maximizers,
                "t_star": self.t_star}


def critical_analysis(delta_fn, alpha: Fraction, bound: int,
                      n_u: int | None = None) -> CriticalAnalysis:
    """Exact s*, s~ and g* from a profile Delta(s) available on 0..bound.

    s* is the smallest maximizer of g(s) = Delta(s) - alpha(s-1) over
    {1..s~}; s~ is the smallest integer above s* with Delta(s~) <= alpha s~.
    All tied maximizers over {0..s~} are reported; the uniqueness hypothesis
    check consumes them.
    """
    alpha = Fraction(alpha)
    deltas = [Fraction(delta_fn(s)) for s in range(bound + 1)]
    resettles = [s for s in range(1, bound + 1) if deltas[s] <= alpha * s]
    if not resettles:
        raise ValueError(
            f"no resettling size within bound {bound}: Delta(s) > alpha*s throughout")

    def g(s: int) -> Fraction:
        return deltas[s] - alpha * (s - 1)

    # Fixpoint of the two interlocking definitions: maximizing over a larger
    # {1..s~} can move s*, which can in turn push s~ to a later resettle.
    s_tilde = resettles[0]
    while True:
        g_star = max(g(s) for s in range(1, s_tilde + 1))
        s_star = min(s for s in range(1, s_tilde + 1) if g(s) == g_star)
        later = [s for s in resettles if s > s_star]
        if not later:
            raise ValueError(
                f"no resettling size above s*={s_star} within bound {bound}")
        if later[0] == s_tilde:
            break
        s_tilde = later[0]
    tied = [s for s in range(0, s_tilde + 1) if g(s) == g_star]
    t_star = (n_u - s_star - int(deltas[s_star])) if n_u is not None else None
    return CriticalAnalysis(alpha=alpha, s_star=s_star, g_star=g_star,
                            s_tilde=s_tilde, delta_s_star=int(deltas[s_star]),
                            unique_max=len(tied) == 1, tied_maximizers=tied,
                            t_star=t_star)


def torus_critical_size(alpha: Fraction) -> tuple[int, int, bool]:
    """(ell*, s*, generic) with ell* = ceil(1/alpha), s* = ell*(ell*-1)+1.

    ``generic`` is False when 2/alpha is an integer (the uniqueness lemma's
    hypothesis fails; the formula itself may still name the unique maximizer).
    """
    alpha = Fraction(alpha)
    inv = 1 / alpha
    ell = int(math.ceil(inv)) if inv.denominator != 1 else int(inv)
    generic = (2 / alpha).denominator != 1
    return ell, ell * (ell - 1) + 1, generic


def doubled_torus_critical_size(alpha: Fraction) -> tuple[int, int, int, bool]:
    """(ell*, s*, case, generic) for the doubled torus.

    ell* is the closest integer to 1/alpha (undefined at half-integers:
    raises); case 1 is ell* > 1/alpha, case 2 is ell* < 1/alpha.
    """
    alpha = Fraction(alpha)
    inv = 1 / alpha
    frac = inv - int(inv)
    if frac == Fraction(1, 2):
        raise ValueError(f"1/alpha = {inv} is a half-integer: "
                         "no closest integer, critical size not given by the closed form")
    ell = int(inv) if frac < Fraction(1, 2) else int(inv) + 1
    generic = (4 / alpha).denominator != 1
    if ell > inv:
        s_star = ell * ell + (ell - 1) ** 2 + ell
        case = 1
    else:
        s_star = ell * ell + (ell - 1) ** 2 + 3 * ell
        case = 2
    return ell, s_star, case, generic


def default_s_tilde_bound(alpha: Fraction, family: str | None = None) -> int:
    """Search bound for the resettling size; torus-like default 8/alpha^2+1."""
    alpha = Fraction(alpha)
    if family in ("doubled-torus",):
        return int(math.ceil((2 / alpha + 1) ** 2 + (2 / alpha) ** 2))
    return int(math.ceil(8 / (alpha * alpha))) + 1


def profile_function(g: BipartiteGraph, alpha: Fraction):
    """(delta_fn, bound, family) for a graph: closed form when the family has
    one, else a brute-force profile over the whole V part."""
    fam = g.meta.get("family")
    if fam == "torus":
        return torus_delta, default_s_tilde_bound(alpha), fam
    if fam == "doubled-torus":
        return doubled_torus_delta, default_s_tilde_bound(alpha, fam), fam
    if fam == "hypercube":
        d = g.meta["d"]
        return (lambda s: hypercube_delta(d, s)), len(g.v_sites), fam
    # cycles: the tree-like closed form covers s < girth/2 only, and the
    # resettling size can sit past that window; V is small, so exhaust it.
    prof = brute_force_profile(g, len(g.v_sites))
    return prof.delta, prof.s_max, fam


# ----------------------------------------------------------------------------
# Dominance sets
# ----------------------------------------------------------------------------

def dominance_sets(space: ConfigurationSpace, a: int, alpha: Fraction
                   ) -> tuple[set[int], set[int]]:
    """(J(a), J_minus(a)) by exact comparison of integer weight keys.

    J(a) holds states whose stationary order is at least a's (ties included);
    J_minus(a) requires strictly larger order.
    """
    keys = space.weight_keys(alpha)
    j = set(np.flatnonzero(keys >= keys[a]).tolist())
    j.discard(a)
    return j, set(np.flatnonzero(keys > keys[a]).tolist())


# ----------------------------------------------------------------------------
# Hypotheses
# ----------------------------------------------------------------------------

@dataclass
class HypothesisStatus:
    status: str                     # verified | refuted | exhausted-budget | closed-form
    evidence: object = None

    @property
    def holds(self) -> bool:
        return self.status in ("verified", "closed-form")


@dataclass
class HypothesisReport:
    analysis: CriticalAnalysis
    kappa: int
    statuses: dict[str, HypothesisStatus]

    def as_json_obj(self) -> dict:
        return {"analysis": self.analysis.as_json_obj(), "kappa": self.kappa,
                "hypotheses": {k: v.status for k, v in self.statuses.items()}}


# Node budgets of the searches behind the hypotheses and the gate, and the
# largest space check_hypotheses enumerates for its no-trap certificate.
NUMBERING_NODES = 200_000
PROGRESSION_NODES = 200_000
GATE_SEARCH_NODES = 500_000
NO_TRAP_STATE_CAP = 100_000


def find_isoperimetric_numbering(g: BipartiteGraph, delta_fn, length: int,
                                 start: int | None = None,
                                 budget: int = NUMBERING_NODES):
    """DFS for a numbering whose every prefix is optimal.

    The nested growth of :func:`_grow` over the V sites in order, from the
    empty set to ``length`` sites.  A ``start`` forces the first site: a
    growth to one site from ``[start]`` alone, then the growth on from it.
    Both share one budget of ``budget`` nodes, so the forced step costs the
    same root tick as any other.

    Returns (numbering, exhausted): numbering is None on failure; exhausted
    tells whether the search ran out of budget rather than out of options.
    """
    b = _Budget(budget)
    cost = partial(set_cost, g)
    head, exhausted = [frozenset()], False
    if start is not None:
        head, exhausted = _grow((), [start], min(length, 1), cost, delta_fn, b)
    if head is None:
        return None, exhausted
    path, exhausted = _grow(head[-1], g.v_sites, length, cost, delta_fn, b)
    if path is None:
        return None, exhausted
    sets = head + path[1:]
    return [next(iter(y - x)) for x, y in zip(sets, sets[1:])], False


def _critical_setup(g: BipartiteGraph, alpha: Fraction, kappa: int | None,
                    profile: IsoperimetricProfile | None = None):
    """(delta_fn, analysis, kappa): the profile of :func:`profile_function`,
    replaced by ``profile`` on a graph with no closed form; its critical
    analysis; and kappa, ceil(1/alpha) - 1 by default, checked to lie in
    [0, 1/alpha).  s*+kappa above |V| is refused with ``ValueError``:
    family C would not exist."""
    delta_fn, bound, fam = profile_function(g, alpha)
    if profile is not None and fam not in ("torus", "doubled-torus", "hypercube"):
        delta_fn, bound = profile.delta, profile.s_max
    analysis = critical_analysis(delta_fn, alpha, bound, n_u=len(g.u_sites))
    if kappa is None:
        kappa = math.ceil(1 / alpha) - 1
    if not (0 <= kappa < 1 / alpha):
        raise ValueError(f"kappa={kappa} outside [0, 1/alpha)")
    if analysis.s_star + kappa > len(g.v_sites):
        raise ValueError(f"s*+kappa = {analysis.s_star + kappa} exceeds "
                         f"|V| = {len(g.v_sites)}: no family C at alpha={alpha}")
    return delta_fn, analysis, kappa


def check_hypotheses(g: BipartiteGraph, alpha: Fraction,
                     kappa: int | None = None) -> HypothesisReport:
    """Statuses for the structural hypotheses behind the crossover laws.

    stability: |U| < (1+alpha)|V| so the packed V-configuration dominates.
    numbering / numbering_all_starts: an isoperimetric numbering of length
    at least the resettling size exists (from some start / from every start).
    uniqueness: the critical size is the unique maximizer of
    g(s) = Delta(s) - alpha(s-1) on {0..s~}.
    profile_values: Delta(s*+kappa) >= Delta(s*+kappa-1); Delta(s*+i) >=
    Delta(s*) for 0 <= i < kappa; Delta(s*) = Delta(s*-1) + 1.
    progressions: isoperimetric progressions run from the empty set up to
    every optimal (s*-1)-set, and from every optimal (s*+kappa)-set on to
    the resettling size without dipping below s*.
    no_trap: certificate that no intermediate state has the escape scale of
    the packed-U state (evaluated when the space has at most
    ``NO_TRAP_STATE_CAP`` states; a larger one is exhausted-budget).

    stability, uniqueness and profile_values are decided exactly from the
    profile of :func:`profile_function`.  The numbering and progression
    statuses go through the family closed form when one exists (torus
    spiral, hypercube weight-order, doubled-torus seed chain), whose
    numberings the tests check prefix by prefix: the spiral up to 6 sites
    on torus:6x6 (``test_spiral_numbering_prefix_costs``), the Harper order
    against :func:`hypercube_delta` on H_2 .. H_5
    (``test_hypercube_recursion_matches_harper_boundary``), and
    :func:`doubled_torus_numbering` up to 25 cells
    (``test_doubled_torus_numbering_and_mapping``); otherwise they go
    through searches of at most ``NUMBERING_NODES`` and
    ``PROGRESSION_NODES`` nodes each, with honest exhausted-budget status.
    A progression up to an (s*-1)-set is the nested growth inside it
    (:func:`_grow`), else a walk (:func:`_walk`) from the empty set to it on
    the same budget; a progression on from an (s*+kappa)-set is a walk over
    sizes s* .. s~ that stops at the first set of size s~, and an
    (s*+kappa)-set of size s~ (or |V|) is one already.  s*+kappa above |V|
    is refused with ``ValueError``.
    """
    alpha = Fraction(alpha)
    fam = g.meta.get("family")
    delta_fn, analysis, kappa = _critical_setup(g, alpha, kappa)
    s_star, s_tilde = analysis.s_star, analysis.s_tilde
    st: dict[str, HypothesisStatus] = {}

    h0 = len(g.u_sites) < (1 + alpha) * len(g.v_sites)
    st["stability"] = HypothesisStatus("verified" if h0 else "refuted",
                                evidence=(len(g.u_sites), len(g.v_sites)))

    closed_form_numbering = fam in ("torus", "hypercube", "doubled-torus", "cycle")
    if closed_form_numbering:
        ev = {"torus": "spiral numbering + translation symmetry",
              "hypercube": "Harper numbering + automorphism translation",
              "doubled-torus": "seed-chain numbering + translation symmetry",
              "cycle": "any single site (s~ = 1)"}[fam]
        st["numbering"] = HypothesisStatus("closed-form", ev)
        st["numbering_all_starts"] = HypothesisStatus("closed-form", ev)
    else:
        num, exhausted = find_isoperimetric_numbering(
            g, delta_fn, min(s_tilde, len(g.v_sites)))
        st["numbering"] = HypothesisStatus(
            "verified" if num else ("exhausted-budget" if exhausted else "refuted"),
            evidence=num)
        all_ok, any_exhausted, failures = True, False, []
        for a in g.v_sites:
            numa, exh = find_isoperimetric_numbering(
                g, delta_fn, min(s_tilde, len(g.v_sites)), start=a)
            if numa is None:
                all_ok = False
                failures.append(a)
                any_exhausted = any_exhausted or exh
        st["numbering_all_starts"] = HypothesisStatus(
            "verified" if all_ok else ("exhausted-budget" if any_exhausted else "refuted"),
            evidence=failures or None)

    st["uniqueness"] = HypothesisStatus(
        "verified" if analysis.unique_max else "refuted",
        evidence=analysis.tied_maximizers)

    h4a = delta_fn(s_star + kappa) >= delta_fn(s_star + kappa - 1)
    h4b = all(delta_fn(s_star + i) >= delta_fn(s_star) for i in range(kappa))
    h4c = delta_fn(s_star) == delta_fn(s_star - 1) + 1
    st["profile_values"] = HypothesisStatus(
        "verified" if (h4a and h4b and h4c) else "refuted",
        evidence={"a": h4a, "b": h4b, "c": h4c})

    if closed_form_numbering:
        st["progressions"] = HypothesisStatus("closed-form",
                                    "numbering prefixes realize both progressions")
    else:
        try:
            prof = brute_force_profile(g, min(s_tilde, len(g.v_sites)))
            fam_a = [frozenset(w) for w in prof.complete_witnesses(s_star - 1)]
            fam_c = [frozenset(w) for w in prof.complete_witnesses(
                min(s_star + kappa, prof.s_max))]
        except CapExceeded as exc:
            st["progressions"] = HypothesisStatus("exhausted-budget", str(exc))
            fam_a = fam_c = None
        if fam_a is not None:
            ok, exhausted = True, False
            for a_set in fam_a:
                # the nested growth inside the target first; else the walk,
                # which may pass through other optimal sets of its size
                b = _Budget(PROGRESSION_NODES)
                path, _ = _grow((), sorted(a_set), len(a_set), partial(set_cost, g),
                                delta_fn, b)
                if path is None:
                    _, found, exh = _walk(g, delta_fn, [0], 0, len(a_set), b,
                                          stop=_site_mask(a_set).__eq__)
                    ok &= found is not None
                    exhausted |= exh
            top = prof.s_max
            for c_set in fam_c:
                if len(c_set) == top:
                    continue            # already at the resettling size
                _, found, exh = _walk(g, delta_fn, [_site_mask(c_set)], s_star, top,
                                      _Budget(PROGRESSION_NODES),
                                      stop=lambda x: x.bit_count() == top)
                ok &= found is not None
                exhausted |= exh
            st["progressions"] = HypothesisStatus(
                "verified" if ok else ("exhausted-budget" if exhausted else "refuted"))

    try:
        space = enumerate_space(g, cap=NO_TRAP_STATE_CAP)
    except CapExceeded as exc:
        st["no_trap"] = HypothesisStatus("exhausted-budget", str(exc))
    else:
        rep = no_trap_certificate(space, alpha)
        status = {"certified": "verified", "refuted": "refuted",
                  "inconclusive": "exhausted-budget"}[rep.status]
        evidence = ("absence of traps is not satisfied"
                    if rep.status == "refuted" else rep.status)
        st["no_trap"] = HypothesisStatus(status, evidence)
    return HypothesisReport(analysis, kappa, st)


# ----------------------------------------------------------------------------
# Critical gate
# ----------------------------------------------------------------------------

@dataclass
class CriticalGate:
    s_star: int
    kappa: int
    family_A: list[frozenset]
    family_B: list[frozenset]
    family_C: list[frozenset]
    transitions: list[tuple[int, int]]          # (x_mask, y_mask), x = y + one U-particle
    count: int
    conditional_on_conjecture: bool = False

    def transition_indices(self, space: ConfigurationSpace) -> list[tuple[int, int]]:
        return [(space.require(x), space.require(y)) for x, y in self.transitions]

    def as_json_obj(self) -> dict:
        return {"s_star": self.s_star, "kappa": self.kappa,
                "gate_count": self.count,
                "family_A_size": len(self.family_A),
                "family_B_size": len(self.family_B),
                "family_C_size": len(self.family_C),
                "conditional_on_conjecture": self.conditional_on_conjecture}


def _site_mask(sites) -> int:
    """Bitmask of a collection of sites."""
    mask = 0
    for site in sites:
        mask |= 1 << site
    return mask


def _gate_from_families(g: BipartiteGraph, fam_a, fam_b) -> tuple[list, int]:
    """The set of transitions (x, y) generated by the family pairs.

    The per-pair sum of |N(B) \\ N(A)| equals the set size whenever distinct
    pairs generate distinct transitions (true for all the lattice families);
    with degenerate neighborhoods (complete bipartite: every B has N(B) = U)
    coinciding transitions collapse, and the collapsed set is the object the
    sharp prefactor and the uniform-passage law live on.  Pairs run over B
    in order, then over the members of A that B extends by one site, in A's
    order; that fixes the order of the transitions.  No transition at all is
    refused with ``ValueError``: the sharp prefactor 1/count does not exist.
    """
    u_mask_all = _site_mask(g.u_sites)
    nbr = {site: g.neighbor_mask(site) for site in set().union(*fam_b)}
    a_rank: dict[int, int] = {}
    for k, a_set in enumerate(fam_a):
        a_rank.setdefault(_site_mask(a_set), k)
    transitions: dict[tuple[int, int], None] = {}
    for b_set in fam_b:
        b = _site_mask(b_set)
        # (rank in A, site) of each member of A that is B minus one site
        below = sorted((a_rank[b ^ (1 << site)], site) for site in b_set
                       if b ^ (1 << site) in a_rank)
        nb_mask = 0
        for site in b_set:
            nb_mask |= nbr[site]
        for _, extra_site in below:
            na_mask = 0
            for site in b_set:
                if site != extra_site:
                    na_mask |= nbr[site]
            y = (u_mask_all & ~nb_mask) | (b ^ (1 << extra_site))
            extra = nb_mask & ~na_mask
            while extra:
                low = extra & -extra
                transitions[(y | low, y)] = None
                extra ^= low
    if not transitions:
        raise ValueError(f"the critical gate is empty: no transition joins the "
                         f"{len(fam_a)} sets of family A to the {len(fam_b)} of family B")
    out = list(transitions)
    return out, len(out)


def _dihedral_placements(cells: frozenset, dims: tuple[int, int]):
    """All distinct torus placements of a lattice cell set (8 orientations
    x all translations), as frozensets of torus coordinates."""
    m, n = dims
    shapes = set()
    for o in range(8):
        pts = [_orient(p, o) for p in cells]
        mi = min(p[0] for p in pts)
        mj = min(p[1] for p in pts)
        shapes.add(frozenset((a - mi, b - mj) for a, b in pts))
    out = set()
    for shape in shapes:
        span_i = max(p[0] for p in shape) + 1
        span_j = max(p[1] for p in shape) + 1
        if span_i > m or span_j > n:
            raise ValueError("shape wraps around the torus")
        for di in range(m):
            for dj in range(n):
                out.add(frozenset(((p[0] + di) % m, (p[1] + dj) % n)
                                  for p in shape))
    return out


def _doubled_gate(g: BipartiteGraph, alpha: Fraction, kappa: int,
                  analysis: CriticalAnalysis) -> CriticalGate:
    """Doubled-torus gate from the Pareto-seed characterization.

    Families A and C are every torus placement of their seeds, and B comes
    from the walk back from C (:func:`_family_b`); all three are sorted by
    members.  Refused with ``ValueError``: a closed-form s* that is not the
    profile's argmax; a kappa other than |C| - s*, since the seed family C
    has one size; and a torus too small for the lattice analysis, where a
    placement of family A or C costs other than the lattice Delta of its
    size.  The B family relies on the connecting-progressions conjecture,
    so the gate is labeled conditional_on_conjecture, as the sharp estimate
    is.
    """
    m, n = g.meta["dims"]
    ell, s_star, case, _ = doubled_torus_critical_size(alpha)
    if s_star != analysis.s_star:
        raise ValueError(f"the doubled-torus closed form gives s* = {s_star}, the "
                         f"profile's argmax {analysis.s_star} at alpha={alpha}")
    if case == 2:
        seeds_a = [seed_set("IV", ell - 1)]
        seeds_c = [seed_set("I", ell)]
    else:
        seeds_a = [seed_set("II", ell - 2)]
        seeds_c = [seed_set("IIIa", ell - 1), seed_set("IIIb", ell - 1)]
    if s_star + kappa != len(seeds_c[0]):
        raise ValueError(f"kappa={kappa}, but the doubled-torus family C has size "
                         f"{len(seeds_c[0])} = s*+{len(seeds_c[0]) - s_star} at "
                         f"alpha={alpha}")
    blue = {(i, j): m * n + (i * n + j) for i in range(m) for j in range(n)}

    def placements(seeds) -> list[frozenset]:
        sets = {frozenset(blue[c] for c in cells)
                for seed in seeds for cells in _dihedral_placements(seed, (m, n))}
        return sorted(sets, key=sorted)

    fam_a, fam_c = placements(seeds_a), placements(seeds_c)
    for name, family in (("A", fam_a), ("C", fam_c)):
        for sites in family:
            got, want = set_cost(g, sites), doubled_torus_delta(len(sites))
            if got != want:
                raise ValueError(
                    f"doubled torus too small for the critical gate at alpha={alpha}: "
                    f"a placement of family {name} costs {got} on this torus vs "
                    f"lattice {want}")
    fam_b = sorted((frozenset(_sites(b)) for b in
                    _family_b(g, doubled_torus_delta, fam_a, fam_c, s_star, kappa)),
                   key=sorted)
    transitions, count = _gate_from_families(g, fam_a, fam_b)
    return CriticalGate(s_star, kappa, fam_a, fam_b, fam_c, transitions, count,
                        conditional_on_conjecture=True)


def _sites(mask: int):
    """The sites of a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _family_b(g: BipartiteGraph, delta_fn, fam_a, fam_c, s_star: int,
              kappa: int) -> set[int]:
    """Masks of family B: the optimal size-s* sets that extend a member of A
    by one site and go on to a member of C through optimal sets of sizes
    s* .. s*+kappa-1.

    One walk back from C over those sizes (:func:`_walk`) finds them all:
    moves are symmetric and every constraint sits on a set, so the walk
    reaches a set exactly when that set reaches C.  kappa = 0 reaches C
    itself, and kappa = 1 the optimal sets one site short of C.  A walk past
    ``GATE_SEARCH_NODES`` nodes is refused with ``CapExceeded`` rather than
    read as "no path", which would shrink B silently.
    """
    reached, _, exhausted = _walk(g, delta_fn, [_site_mask(c) for c in fam_c],
                                  s_star, s_star + kappa - 1, _Budget(GATE_SEARCH_NODES))
    if exhausted:
        raise CapExceeded(f"the walk back from family C needs more than "
                          f"{GATE_SEARCH_NODES} nodes")
    a_masks = {_site_mask(a_set) for a_set in fam_a}
    return {b for b in reached if b.bit_count() == s_star
            and any((b ^ (1 << site)) in a_masks for site in _sites(b))}


def build_gate(g: BipartiteGraph, alpha: Fraction, kappa: int | None = None,
               profile: IsoperimetricProfile | None = None) -> CriticalGate:
    """Families A (optimal, size s*-1), C (optimal, size s*+kappa), B (size-s*
    optimal sets extending members of A by one site, with an isoperimetric
    progression to C through sizes strictly between s*-1 and s*+kappa), and
    the transition list with its exact count.

    B comes from one breadth-first walk back from C (:func:`_family_b`) on
    a budget of ``GATE_SEARCH_NODES`` nodes; a walk that runs out is refused
    with ``CapExceeded``.  Generic graphs take A and C from a complete
    brute-force witness enumeration, ``profile`` (by default a fresh one up
    to s*+kappa), refusing on truncation with ``CapExceeded``, and list B in
    the witnesses' colex order.  The doubled torus uses the Pareto-seed
    characterization and labels results conditional on the
    connecting-progressions conjecture (:func:`_doubled_gate`).  s*+kappa
    above |V| is refused with ``ValueError``: family C would not exist.
    """
    alpha = Fraction(alpha)
    fam = g.meta.get("family")
    delta_fn, analysis, kappa = _critical_setup(g, alpha, kappa, profile)
    s_star = analysis.s_star

    if fam == "doubled-torus":
        return _doubled_gate(g, alpha, kappa, analysis)

    prof = profile or brute_force_profile(g, s_star + kappa)
    if fam == "torus":
        # a torus too small for the critical sizes has wrap-assisted optima
        # below s*+kappa; the lattice analysis does not apply there
        for s in range(s_star + kappa + 1):
            if s <= prof.s_max and prof.delta(s) != delta_fn(s):
                raise ValueError(
                    f"torus too small for the critical gate at alpha={alpha}: "
                    f"Delta({s}) = {prof.delta(s)} on this torus vs lattice "
                    f"{delta_fn(s)}")
    fam_a = [frozenset(w) for w in prof.complete_witnesses(s_star - 1)]
    fam_c = [frozenset(w) for w in prof.complete_witnesses(s_star + kappa)]
    b_masks = _family_b(g, prof.delta, fam_a, fam_c, s_star, kappa)
    fam_b = [frozenset(w) for w in prof.complete_witnesses(s_star)
             if _site_mask(w) in b_masks]
    transitions, count = _gate_from_families(g, fam_a, fam_b)

    if fam == "torus":
        _check_torus_gate_families(g, analysis, fam_a, fam_b)
    return CriticalGate(s_star, kappa, fam_a, fam_b, fam_c, transitions, count)


def _check_torus_gate_families(g: BipartiteGraph, analysis: CriticalAnalysis,
                               fam_a, fam_b):
    """Torus cross-check: A = tilted (l*-1) x l* rectangles; every B is an A
    plus an extra site along one of the two longer sides."""
    m, n = g.meta["dims"]
    ell = torus_critical_size(analysis.alpha)[0]
    if ell < 2:
        return
    rect = frozenset((a, b) for a in range(ell) for b in range(ell - 1))
    expected_a = _dihedral_placements(rect, (m, n))
    site_of = g.meta["site_of_point"]

    def l_cells_to_mask(cells) -> int:
        # L-plane cell (a, b) -> odd-parity torus point (a - b, a + b + 1).
        mask = 0
        for a, b in cells:
            mask |= 1 << site_of[((a - b) % m, (a + b + 1) % n)]
        return mask

    if {_site_mask(a_set) for a_set in fam_a} != \
            {l_cells_to_mask(c) for c in expected_a}:
        raise ValueError("torus family A does not match the tilted "
                         f"({ell - 1} x {ell}) rectangles on this torus")
    # Every B must be an L-plane rectangle plus one cell on a longer side:
    # equivalently not collinear when ell = 2; in general: bounding box of the
    # B-shape is ell x (ell-1)+1 with the extra cell adjacent along a long side.
    # A B set (ell^2 - ell + 1 sites) inside a square (ell^2) is a proper subset.
    square = frozenset((a, b) for a in range(ell) for b in range(ell))
    squares = [l_cells_to_mask(c) for c in _dihedral_placements(square, (m, n))]
    for b_set in fam_b:
        b = _site_mask(b_set)
        if not any(b & ~c == 0 for c in squares):
            raise ValueError(
                "torus family B member does not extend to a tilted square "
                "(extra element not on a longer side)")


def mandatory_passage(space: ConfigurationSpace, alpha: Fraction,
                      gate: CriticalGate) -> bool:
    """Whether every optimal path from u to v crosses the gate.

    An optimal path keeps every transition at or above the u -> v connecting
    level L of the :class:`BottleneckTree` (the gate notion of Manzo, Nardi,
    Olivieri & Scoppola, J. Stat. Phys. 2004).  The edges of levels 0 .. L
    without the gate's transitions, both recorded occupied side first, are
    joined by :func:`_components`; the gate is a mandatory passage exactly
    when u and v stay apart.
    """
    tree = BottleneckTree(space, alpha)
    u, v = space.u_state, space.v_state
    level = tree.connecting_level(frozenset({u}), frozenset({v}))
    i, j = tree._edges(0, level + 1)
    n = len(space)
    gate_keys = [x * n + y for x, y in gate.transition_indices(space)]
    keep = ~np.isin(i * n + j, gate_keys)
    root = _components(np.arange(n), i[keep], j[keep])
    return bool(root[u] != root[v])


# ----------------------------------------------------------------------------
# Crossover prediction
# ----------------------------------------------------------------------------

@dataclass
class CrossoverPrediction:
    exponent: AsymptoticExponent            # order of E_u[T_hat_v]
    gate_count: int | None
    conditional_on_conjecture: bool = False

    def sharp_value(self, params: ModelParams, s_star: int, delta_s_star: int) -> float:
        if self.gate_count is None:
            raise ValueError("sharp value needs a gate")
        lam, lbar = params.lam, params.lam_bar
        log_val = ((delta_s_star + s_star - 1) * math.log(lam)
                   - (s_star - 1) * math.log(lbar) - math.log(self.gate_count))
        return math.exp(log_val)


def crossover_prediction(analysis: CriticalAnalysis,
                         gate: CriticalGate | None = None) -> CrossoverPrediction:
    """Order exponent lambda^(Delta(s*) - alpha(s*-1)) and, with a gate, the
    sharp prefactor 1/|[Q,Q*]|."""
    expo = AsymptoticExponent.from_powers(
        analysis.delta_s_star + analysis.s_star - 1, -(analysis.s_star - 1))
    return CrossoverPrediction(
        exponent=expo,
        gate_count=gate.count if gate else None,
        conditional_on_conjecture=bool(gate and gate.conditional_on_conjecture))


# ----------------------------------------------------------------------------
# No-trap certificate
# ----------------------------------------------------------------------------

@dataclass
class NoTrapReport:
    certified: bool
    status: str                     # certified | refuted | inconclusive
    trap_states: list[int]
    tie_states: list[int]
    u_exponent: AsymptoticExponent
    checked: int

    def as_json_obj(self) -> dict:
        return {"certified": self.certified, "status": self.status,
                "trap_states": self.trap_states, "tie_states": self.tie_states,
                "checked": self.checked,
                "u_exponent": self.u_exponent.as_json(),
                }


def no_trap_certificate(space: ConfigurationSpace, alpha: Fraction) -> NoTrapReport:
    """Checks pi(x) Psi(x, J^-(x)) strictly below pi(u) Psi(u, J(u)) in the
    exponent order for every x outside {u, v}.

    Exponents compared are of the Z- and gamma-free products w_x / w_bneck.
    Order ties (alpha genericity failures) give an inconclusive status.  All
    bottlenecks, and J(u) (the states of key at least u's), come from one
    :class:`BottleneckTree` pass.
    """
    alpha = Fraction(alpha)
    u, v = space.u_state, space.v_state
    tree = BottleneckTree(space, alpha)
    j_u = np.flatnonzero(tree.keys >= tree.keys[u])
    j_u = j_u[j_u != u]
    if not len(j_u):
        raise ValueError("J(u) is empty: u already has maximal order")
    lu = tree.connecting_level(frozenset({u}), frozenset(j_u.tolist()))
    escape = np.array(tree.escape_levels())
    level_pq = tree.level_pq
    q_u = space.weight_exponent(int(space.masks[u])) / tree.bottleneck_weight(lu)
    # Compare values p + q*alpha (as integer keys): the bottleneck VALUE is
    # unambiguous even when its (p, q) label is tied.  Strict inequality
    # certifies, so only the states at or above u's value, and those with no
    # J^-(x) (a second stable state: infinite scale), need a closer look.
    q_key = tree.keys - np.array(tree.level_keys, dtype=np.int64)[escape]
    q_u_key = int(tree.keys[u]) - tree.level_keys[lu]
    others = np.ones(len(space), dtype=bool)
    others[[u, v]] = False
    traps, ties = [], []
    for x in np.flatnonzero(others & ((escape < 0) | (q_key >= q_u_key))).tolist():
        lx = int(escape[x])
        if lx < 0 or q_key[x] > q_u_key:
            traps.append(x)
            continue
        # Equal values with unambiguous equal labels expose a genuine trap;
        # equal values with mixed labels are an alpha-genericity failure.
        q_x = (space.weight_exponent(int(space.masks[x]))
               / tree.bottleneck_weight(lx))
        if (len(level_pq[lx]) > 1 or len(level_pq[lu]) > 1
                or q_x.as_tuple() != q_u.as_tuple()):
            ties.append(x)
        else:
            traps.append(x)
    status = "refuted" if traps else ("inconclusive" if ties else "certified")
    return NoTrapReport(status == "certified", status, traps, ties, q_u,
                        int(others.sum()))


# ----------------------------------------------------------------------------
# Gate statistics
# ----------------------------------------------------------------------------

@dataclass
class GateStats:
    n_samples: int
    crossed: int
    single_crossing: int
    single_crossing_fraction: float
    counts: dict[tuple[int, int], int]
    chi_square: float
    p_value: float

    def as_json_obj(self) -> dict:
        return {"n_samples": self.n_samples, "crossed": self.crossed,
                "single_crossing": self.single_crossing,
                "single_crossing_fraction": self.single_crossing_fraction,
                "chi_square": self.chi_square, "p_value": self.p_value,
                "counts": {f"{a}->{b}": c for (a, b), c in sorted(self.counts.items())}}


def gate_statistics(samples, gate_transitions) -> GateStats:
    """Per-transition frequencies of the first gate crossing, a chi-square
    uniformity statistic over the gate, and the single-crossing fraction.

    The statistic is Pearson's sum of (observed - mean)^2 / mean over the
    gate's transitions; its p-value is :func:`hcmeta.stats.chi_square_sf`
    with one degree of freedom fewer than the gate has transitions."""
    gate = [(int(a), int(b)) for a, b in gate_transitions]
    counts = {t: 0 for t in gate}
    crossed = single = 0
    n = 0
    for s in samples:
        n += 1
        ev = s.gate_events
        if ev:
            crossed += 1
            if len(ev) == 1:
                single += 1
            first = (int(ev[0][0]), int(ev[0][1]))
            counts[first] = counts.get(first, 0) + 1
    obs = np.array([counts[t] for t in gate], dtype=float)
    if crossed > 0 and len(gate) > 1:
        expected = obs.mean()
        stat = float(((obs - expected) ** 2 / expected).sum())
        p = chi_square_sf(stat, len(gate) - 1)
    else:
        stat, p = 0.0, 1.0
    return GateStats(n, crossed, single,
                     single / n if n else math.nan, counts, stat, p)
