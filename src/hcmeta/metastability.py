"""Critical size and gate machinery: g(s) maximization, hypothesis checking,
gate families and transition counts, crossover predictions, dominance sets,
no-trap certificates, standard paths, and gate passage statistics.

All order comparisons that feed metastability logic go through exact
rational heights (p + q*alpha bookkeeping), never floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .asymptotics import AsymptoticExponent
from .configspace import CapExceeded, ConfigurationSpace, ModelParams
from .graph import BipartiteGraph, GraphValidationError
from .isoperimetry import (
    IsoperimetricProfile,
    brute_force_profile,
    doubled_torus_delta,
    hypercube_delta,
    seed_set,
    set_cost,
    torus_delta,
)
# psi_symbolic is unused here but stays in this module's namespace for code
# that looks it up (or wraps it) as hcmeta.metastability.psi_symbolic.
from .potential import BottleneckTree, psi_symbolic  # noqa: F401

__all__ = [
    "CriticalAnalysis",
    "CriticalGate",
    "HypothesisStatus",
    "HypothesisReport",
    "SearchBudgets",
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
    "standard_path",
    "standard_path_exponent",
    "StandardPath",
    "gate_statistics",
    "GateStats",
    "find_isoperimetric_numbering",
    "mandatory_passage_probe",
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
    ell_star: int | None = None
    t_star: int | None = None            # |U| - s* - Delta(s*) when |U| known

    def as_json_obj(self) -> dict:
        return {"alpha": str(self.alpha), "s_star": self.s_star,
                "g_star": str(self.g_star), "s_tilde": self.s_tilde,
                "delta_s_star": self.delta_s_star,
                "unique_max": self.unique_max,
                "tied_maximizers": self.tied_maximizers,
                "ell_star": self.ell_star, "t_star": self.t_star}


def critical_analysis(delta_fn, alpha: Fraction, bound: int,
                      n_u: int | None = None,
                      ell_star: int | None = None) -> CriticalAnalysis:
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
                            ell_star=ell_star, t_star=t_star)


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


def profile_function(g: BipartiteGraph, alpha: Fraction,
                     budget: int = 10_000_000):
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
    prof = brute_force_profile(g, len(g.v_sites), budget=budget)
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
    ref = keys[a]
    j = {i for i, k in enumerate(keys) if k >= ref and i != a}
    return j, {i for i in j if keys[i] > ref}


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


@dataclass
class SearchBudgets:
    numbering_nodes: int = 200_000
    progression_nodes: int = 200_000
    profile_budget: int = 10_000_000


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def tick(self) -> bool:
        self.used += 1
        return self.used <= self.limit


def find_isoperimetric_numbering(g: BipartiteGraph, delta_fn, length: int,
                                 start: int | None = None,
                                 budget: int = 200_000):
    """DFS for a numbering whose every prefix is optimal.

    Returns (numbering, exhausted): numbering is None on failure; exhausted
    tells whether the search ran out of budget rather than out of options.
    """
    v_sites = list(g.v_sites)
    b = _Budget(budget)
    prefix: list[int] = []
    exhausted = False

    def rec() -> bool:
        nonlocal exhausted
        if len(prefix) == length:
            return True
        if not b.tick():
            exhausted = True
            return False
        want = delta_fn(len(prefix) + 1)
        pool = [start] if (start is not None and not prefix) else v_sites
        for a in pool:
            if a in prefix:
                continue
            if set_cost(g, prefix + [a]) == want:
                prefix.append(a)
                if rec():
                    return True
                prefix.pop()
                if exhausted:
                    return False
        return False

    ok = rec()
    return (list(prefix) if ok else None), exhausted


def _find_progression_down(g, delta_fn, target: frozenset, budget: int):
    """Isoperimetric progression empty -> target with sizes <= |target|.

    Tries nested (inside the target) first; falls back to a general +-1 walk
    over optimal sets of size at most |target|.
    """
    b = _Budget(budget)
    path: list[frozenset] = []

    def rec_nested(cur: frozenset) -> bool:
        if cur == target:
            return True
        if not b.tick():
            return False
        want = delta_fn(len(cur) + 1)
        for a in sorted(target - cur):
            nxt = cur | {a}
            if set_cost(g, nxt) == want:
                path.append(nxt)
                if rec_nested(nxt):
                    return True
                path.pop()
        return False

    path = [frozenset()]
    if rec_nested(frozenset()):
        return path, False
    # General search (BFS over optimal sets, sizes bounded by |target|).
    limit = len(target)
    seen = {frozenset()}
    frontier = [(frozenset(), [frozenset()])]
    while frontier:
        nxt_frontier = []
        for cur, trail in frontier:
            if not b.tick():
                return None, True
            for a in g.v_sites:
                for cand in ((cur | {a}) if a not in cur else (cur - {a}),):
                    if len(cand) > limit or cand in seen:
                        continue
                    if set_cost(g, cand) != delta_fn(len(cand)):
                        continue
                    seen.add(cand)
                    t2 = trail + [cand]
                    if cand == target:
                        return t2, False
                    nxt_frontier.append((cand, t2))
        frontier = nxt_frontier
    return None, False


def _find_progression_up(g, delta_fn, start: frozenset, size_to: int,
                         size_min: int, budget: int, target_filter=None):
    """Isoperimetric progression from start to a set of size size_to
    (optionally restricted by target_filter), all sizes at least size_min."""
    b = _Budget(budget)
    seen = {start}
    frontier = [(start, [start])]
    while frontier:
        nxt_frontier = []
        for cur, trail in frontier:
            if not b.tick():
                return None, True
            for a in g.v_sites:
                cand = (cur | {a}) if a not in cur else (cur - {a})
                if len(cand) < size_min or len(cand) > size_to or cand in seen:
                    continue
                if set_cost(g, cand) != delta_fn(len(cand)):
                    continue
                seen.add(cand)
                t2 = trail + [cand]
                if len(cand) == size_to:
                    if target_filter is None or target_filter(cand):
                        return t2, False
                    continue
                nxt_frontier.append((cand, t2))
        frontier = nxt_frontier
    return None, False


def check_hypotheses(g: BipartiteGraph, alpha: Fraction,
                     budgets: SearchBudgets | None = None,
                     kappa: int | None = None,
                     profile: IsoperimetricProfile | None = None,
                     no_trap_sites_cap: int = 12) -> HypothesisReport:
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
    the packed-U state (evaluated when the space is small enough).

    stability, uniqueness and profile_values are decided exactly from the
    profile.  The numbering and progression statuses go through the family
    closed form when one exists (torus spiral, hypercube weight-order,
    doubled-torus seed chain; machine-verified constructions at the lattice
    level), and otherwise through bounded search with honest
    exhausted-budget status.
    """
    alpha = Fraction(alpha)
    budgets = budgets or SearchBudgets()
    fam = g.meta.get("family")
    delta_fn, bound, _ = profile_function(g, alpha, budgets.profile_budget)
    if profile is not None and fam not in ("torus", "doubled-torus", "hypercube"):
        delta_fn, bound = profile.delta, profile.s_max
    analysis = critical_analysis(delta_fn, alpha, bound, n_u=len(g.u_sites))
    s_star, s_tilde = analysis.s_star, analysis.s_tilde
    if kappa is None:
        kappa = math.ceil(1 / alpha) - 1
    if not (0 <= kappa < 1 / alpha):
        raise ValueError(f"kappa={kappa} outside [0, 1/alpha)")
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
            g, delta_fn, min(s_tilde, len(g.v_sites)), budget=budgets.numbering_nodes)
        st["numbering"] = HypothesisStatus(
            "verified" if num else ("exhausted-budget" if exhausted else "refuted"),
            evidence=num)
        all_ok, any_exhausted, failures = True, False, []
        for a in g.v_sites:
            numa, exh = find_isoperimetric_numbering(
                g, delta_fn, min(s_tilde, len(g.v_sites)), start=a,
                budget=budgets.numbering_nodes)
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
            prof = profile or brute_force_profile(
                g, min(s_tilde, len(g.v_sites)), budget=budgets.profile_budget)
            fam_a = [frozenset(w) for w in prof.complete_witnesses(s_star - 1)]
            fam_c = [frozenset(w) for w in prof.complete_witnesses(
                min(s_star + kappa, prof.s_max))]
        except CapExceeded as exc:
            st["progressions"] = HypothesisStatus("exhausted-budget", str(exc))
            fam_a = fam_c = None
        if fam_a is not None:
            ok, exhausted = True, False
            for a_set in fam_a:
                p, exh = _find_progression_down(g, delta_fn, a_set,
                                                budgets.progression_nodes)
                ok &= p is not None
                exhausted |= exh
            for c_set in fam_c:
                p, exh = _find_progression_up(g, delta_fn, c_set,
                                              min(s_tilde, len(g.v_sites)),
                                              s_star, budgets.progression_nodes)
                ok &= p is not None
                exhausted |= exh
            st["progressions"] = HypothesisStatus(
                "verified" if ok else ("exhausted-budget" if exhausted else "refuted"))

    if g.n_sites <= no_trap_sites_cap:
        from .configspace import enumerate_space
        rep = no_trap_certificate(enumerate_space(g), alpha)
        status = {"certified": "verified", "refuted": "refuted",
                  "inconclusive": "exhausted-budget"}[rep.status]
        evidence = ("absence of traps is not satisfied"
                    if rep.status == "refuted" else rep.status)
        st["no_trap"] = HypothesisStatus(status, evidence)
    else:
        st["no_trap"] = HypothesisStatus("exhausted-budget",
                                         "space too large to enumerate")
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


def _gate_from_families(g: BipartiteGraph, fam_a, fam_b) -> tuple[list, int]:
    """The set of transitions (x, y) generated by the family pairs.

    The per-pair sum of |N(B) \\ N(A)| equals the set size whenever distinct
    pairs generate distinct transitions (true for all the lattice families);
    with degenerate neighborhoods (complete bipartite: every B has N(B) = U)
    coinciding transitions collapse, and the collapsed set is the object the
    sharp prefactor and the uniform-passage law live on.
    """
    u_mask_all = 0
    for a in g.u_sites:
        u_mask_all |= 1 << a
    transitions: dict[tuple[int, int], None] = {}
    for b_set in fam_b:
        nb_mask = 0
        for site in b_set:
            nb_mask |= g.neighbor_mask(site)
        for a_set in fam_a:
            if not (a_set < b_set and len(b_set - a_set) == 1):
                continue
            na_mask = 0
            for site in a_set:
                na_mask |= g.neighbor_mask(site)
            y = (u_mask_all & ~nb_mask)
            for site in a_set:
                y |= 1 << site
            extra = nb_mask & ~na_mask
            while extra:
                low = extra & -extra
                transitions[(y | low, y)] = None
                extra ^= low
    out = list(transitions)
    return out, len(out)


def _dihedral_placements(cells: frozenset, dims: tuple[int, int]):
    """All distinct torus placements of a lattice cell set (8 orientations
    x all translations), as frozensets of torus coordinates."""
    m, n = dims
    shapes = set()
    for o in range(8):
        pts = []
        for (x, y) in cells:
            a, b = x, y
            if o & 4:
                a, b = b, a
            for _ in range(o & 3):
                a, b = -b, a
            pts.append((a, b))
        mi = min(p[0] for p in pts)
        mj = min(p[1] for p in pts)
        shapes.add(frozenset(((p[0] - mi), (p[1] - mj)) for p in pts))
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

    The B family relies on the connecting-progressions conjecture, so the
    gate is labeled conditional_on_conjecture, as the sharp estimate is.
    """
    m, n = g.meta["dims"]
    ell, s_star, case, _ = doubled_torus_critical_size(alpha)
    if s_star != analysis.s_star:
        raise AssertionError("closed form and argmax disagree on s*")
    blue = {(i, j): m * n + (i * n + j) for i in range(m) for j in range(n)}

    def to_sites(cells) -> frozenset:
        return frozenset(blue[c] for c in cells)

    if case == 2:
        seeds_a = [seed_set("IV", ell - 1)]
        seeds_c = [seed_set("I", ell)]
    else:
        seeds_a = [seed_set("II", ell - 2)]
        seeds_c = [seed_set("IIIa", ell - 1), seed_set("IIIb", ell - 1)]
    fam_a_cells = set()
    for s in seeds_a:
        fam_a_cells |= _dihedral_placements(s, (m, n))
    fam_c_cells = set()
    for s in seeds_c:
        fam_c_cells |= _dihedral_placements(s, (m, n))
    fam_a = [to_sites(c) for c in sorted(fam_a_cells, key=sorted)]
    fam_c_set = {to_sites(c) for c in fam_c_cells}

    delta_b = doubled_torus_delta(s_star)
    fam_b_set = set()
    v_all = set(g.v_sites)
    for a_set in fam_a:
        cand_sites = set()
        for site in a_set:
            for u_nbr in g.adjacency[site]:
                cand_sites.update(g.adjacency[u_nbr])
        for b_site in (cand_sites & v_all) - a_set:
            b_set = a_set | {b_site}
            if set_cost(g, b_set) != delta_b:
                continue
            if kappa == 1:
                ok = any((b_set | {x}) in fam_c_set
                         for x in v_all - b_set)
            else:
                p, _ = _find_progression_up(
                    g, doubled_torus_delta, b_set, s_star + kappa, s_star,
                    budget=500_000, target_filter=lambda c: c in fam_c_set)
                ok = p is not None
            if ok:
                fam_b_set.add(b_set)
    fam_b = sorted(fam_b_set, key=sorted)
    transitions, count = _gate_from_families(g, fam_a, fam_b)
    return CriticalGate(s_star, kappa, fam_a, fam_b, sorted(fam_c_set, key=sorted),
                        transitions, count, conditional_on_conjecture=True)


def build_gate(g: BipartiteGraph, alpha: Fraction, kappa: int | None = None,
               profile: IsoperimetricProfile | None = None,
               budgets: SearchBudgets | None = None) -> CriticalGate:
    """Families A (optimal, size s*-1), C (optimal, size s*+kappa), B (size-s*
    optimal sets extending members of A by one site, with an isoperimetric
    progression to C through sizes strictly between s*-1 and s*+kappa), and
    the transition list with its exact count.

    Generic graphs use complete brute-force witness enumeration (refusing on
    truncation); the doubled torus uses the Pareto-seed characterization and
    labels results conditional on the connecting-progressions conjecture.
    """
    alpha = Fraction(alpha)
    budgets = budgets or SearchBudgets()
    delta_fn, bound, fam = profile_function(g, alpha, budgets.profile_budget)
    if profile is not None and fam not in ("torus", "doubled-torus", "hypercube"):
        delta_fn, bound = profile.delta, profile.s_max
    analysis = critical_analysis(delta_fn, alpha, bound, n_u=len(g.u_sites))
    s_star = analysis.s_star
    if kappa is None:
        kappa = math.ceil(1 / alpha) - 1
    if not (0 <= kappa < 1 / alpha):
        raise ValueError(f"kappa={kappa} outside [0, 1/alpha)")

    if fam == "doubled-torus":
        return _doubled_gate(g, alpha, kappa, analysis)

    prof = profile or brute_force_profile(g, min(s_star + kappa, len(g.v_sites)),
                                          budget=budgets.profile_budget)
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
    fam_c = [frozenset(w) for w in prof.complete_witnesses(
        min(s_star + kappa, prof.s_max))]
    cand_b = [frozenset(w) for w in prof.complete_witnesses(s_star)]
    fam_c_set = set(fam_c)
    fam_b = []
    for b_set in cand_b:
        if not any(a_set < b_set for a_set in fam_a if len(b_set - a_set) == 1):
            continue
        if kappa == 0:
            ok = b_set in fam_c_set
        elif kappa == 1:
            ok = any((b_set | {x}) in fam_c_set
                     for x in set(g.v_sites) - b_set)
        else:
            reachable = _witness_reachable(b_set, prof, s_star, kappa)
            ok = reachable
        if ok:
            fam_b.append(b_set)
    transitions, count = _gate_from_families(g, fam_a, fam_b)

    if fam == "torus":
        _check_torus_gate_families(g, analysis, fam_a, fam_b)
    return CriticalGate(s_star, kappa, fam_a, fam_b, fam_c, transitions, count)


def _witness_reachable(b_set: frozenset, prof: IsoperimetricProfile,
                       s_star: int, kappa: int) -> bool:
    """BFS through complete witness layers from b_set to any size s*+kappa set,
    intermediate sizes strictly below s*+kappa and at least s*."""
    layers = {s: {frozenset(w) for w in prof.complete_witnesses(s)}
              for s in range(s_star, s_star + kappa + 1)}
    target = layers[s_star + kappa]
    seen = {b_set}
    frontier = [b_set]
    while frontier:
        nxt = []
        for cur in frontier:
            for s2 in (len(cur) - 1, len(cur) + 1):
                if not (s_star <= s2 <= s_star + kappa):
                    continue
                for cand in layers[s2]:
                    if len(cand ^ cur) != 1 or cand in seen:
                        continue
                    if s2 == s_star + kappa:
                        if cand in target:
                            return True
                        continue
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return False


def _check_torus_gate_families(g: BipartiteGraph, analysis: CriticalAnalysis,
                               fam_a, fam_b):
    """Torus cross-check: A = tilted (l*-1) x l* rectangles; every B is an A
    plus an extra site along one of the two longer sides."""
    m, n = g.meta["dims"]
    ell = analysis.ell_star or torus_critical_size(analysis.alpha)[0]
    if ell < 2:
        return
    rect = frozenset((a, b) for a in range(ell) for b in range(ell - 1))
    expected_a = _dihedral_placements(rect, (m, n))
    site_of = g.meta["site_of_point"]

    def l_cells_to_sites(cells) -> frozenset:
        # L-plane cell (a, b) -> odd-parity torus point (a - b, a + b + 1).
        return frozenset(site_of[((a - b) % m, (a + b + 1) % n)] for a, b in cells)

    expected_a_sites = {l_cells_to_sites(c) for c in expected_a}
    if set(fam_a) != expected_a_sites:
        raise AssertionError("torus family A does not match tilted rectangles")
    # Every B must be an L-plane rectangle plus one cell on a longer side:
    # equivalently not collinear when ell = 2; in general: bounding box of the
    # B-shape is ell x (ell-1)+1 with the extra cell adjacent along a long side.
    square = frozenset((a, b) for a in range(ell) for b in range(ell))
    expected_c = _dihedral_placements(square, (m, n))
    expected_c_sites = {l_cells_to_sites(c) for c in expected_c}
    for b_set in fam_b:
        if not any(b_set < c for c in expected_c_sites):
            raise AssertionError(
                "torus family B member does not extend to a tilted square "
                "(extra element not on a longer side)")


def mandatory_passage_probe(g: BipartiteGraph, alpha: Fraction,
                            gate: CriticalGate, max_len: int = 12,
                            budget: int = 500_000) -> dict:
    """Tiny-scale exhaustive probe of the mandatory-passage condition.

    Enumerates every alpha-bounded progression from the empty set (length at
    most ``max_len``, graphs with |V| <= 8) that ends in a set with
    Delta(A_n) <= alpha |A_n|, and checks each makes a step A_k -> A_{k+1}
    with A_k in the gate's A family and A_{k+1} in its B family.  Validation
    only; the gate construction never relies on this search.
    """
    alpha = Fraction(alpha)
    if len(g.v_sites) > 8:
        raise ValueError("probe is restricted to |V| <= 8")
    delta_fn, bound, _ = profile_function(g, alpha)
    analysis = critical_analysis(delta_fn, alpha, bound)
    bound_val = (Fraction(delta_fn(analysis.s_star))
                 - alpha * analysis.s_star)
    fam_a = set(gate.family_A)
    fam_b = set(gate.family_B)
    v_sites = list(g.v_sites)
    checked = 0
    violations = []
    counter = _Budget(budget)

    def alpha_ok(a: frozenset) -> bool:
        return Fraction(set_cost(g, a)) - alpha * len(a) <= bound_val

    def passes_gate(trail) -> bool:
        return any(trail[k] in fam_a and trail[k + 1] in fam_b
                   for k in range(len(trail) - 1))

    stack = [[frozenset()]]
    while stack:
        trail = stack.pop()
        if not counter.tick():
            return {"status": "exhausted-budget", "checked": checked,
                    "violations": violations}
        cur = trail[-1]
        if len(trail) > 1 and len(cur) > 0 and \
                Fraction(set_cost(g, cur)) <= alpha * len(cur):
            # every longer qualifying progression extends a qualifying prefix,
            # so stopping at the first qualifying terminal is complete
            checked += 1
            if not passes_gate(trail):
                violations.append([sorted(a) for a in trail])
            continue
        if len(trail) > max_len:
            continue
        for s in v_sites:
            nxt = (cur | {s}) if s not in cur else (cur - {s})
            if not alpha_ok(nxt):
                continue
            stack.append(trail + [nxt])
    return {"status": "checked", "checked": checked, "violations": violations}


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
    bottlenecks come from one :class:`BottleneckTree` pass.
    """
    alpha = Fraction(alpha)
    u, v = space.u_state, space.v_state
    j_u, _ = dominance_sets(space, u, alpha)
    if not j_u:
        raise ValueError("J(u) is empty: u already has maximal order")
    tree = BottleneckTree(space, alpha)
    lu = tree.connecting_level(frozenset({u}), frozenset(j_u))
    escape = tree.escape_levels()
    keys, level_keys, level_pq = tree.keys, tree.level_keys, tree.level_pq
    q_u = space.weight_exponent(space.configs[u]) / tree.bottleneck_weight(lu)
    q_u_key = keys[u] - level_keys[lu]
    traps, ties = [], []
    checked = 0
    inconclusive = False
    for x in range(len(space)):
        if x in (u, v):
            continue
        checked += 1
        lx = escape[x]
        if lx < 0:
            traps.append(x)             # a second stable state: infinite scale
            continue
        # Compare values p + q*alpha (as integer keys): the bottleneck VALUE
        # is unambiguous even when its (p, q) label is tied.  Strict
        # inequality certifies; equal values with unambiguous equal labels
        # expose a genuine trap; equal values with mixed labels are an
        # alpha-genericity failure.
        q_x_key = keys[x] - level_keys[lx]
        if q_x_key > q_u_key:
            traps.append(x)
        elif q_x_key == q_u_key:
            q_x = (space.weight_exponent(space.configs[x])
                   / tree.bottleneck_weight(lx))
            if (len(level_pq[lx]) > 1 or len(level_pq[lu]) > 1
                    or q_x.as_tuple() != q_u.as_tuple()):
                ties.append(x)
                inconclusive = True
            else:
                traps.append(x)
    if traps:
        status = "refuted"
    elif inconclusive:
        status = "inconclusive"
    else:
        status = "certified"
    return NoTrapReport(status == "certified", status, traps, ties, q_u, checked)


# ----------------------------------------------------------------------------
# Standard paths
# ----------------------------------------------------------------------------

@dataclass
class StandardPath:
    states: list[int]               # state indices along the path
    backbone: list[int]             # positions within `states`
    psi_normalized: AsymptoticExponent   # exponent of pi(u) Psi(path) / gamma

    def __len__(self) -> int:
        return len(self.states)


def _standard_masks(g: BipartiteGraph, numbering):
    """Masks along the monotone path of a numbering, plus backbone positions."""
    v_set = set(g.v_sites)
    for a in numbering:
        if a not in v_set:
            raise GraphValidationError(f"numbering site {a} not in V")
    if len(set(numbering)) != len(list(numbering)):
        raise GraphValidationError("numbering has repeats")
    mask = 0
    for a in g.u_sites:
        mask |= 1 << a
    masks = [mask]
    backbone = [0]
    for a in numbering:
        for nb in g.adjacency[a]:
            if mask >> nb & 1:
                mask ^= 1 << nb
                masks.append(mask)
        mask |= 1 << a
        masks.append(mask)
        backbone.append(len(masks) - 1)
    return masks, backbone


def standard_path_exponent(g: BipartiteGraph, numbering, alpha: Fraction
                           ) -> AsymptoticExponent:
    """Exponent of pi(u) Psi(path) / gamma for the standard path of a
    numbering, computed from particle counts alone (no enumeration)."""
    from .configspace import mask_counts

    alpha = Fraction(alpha)
    masks, _ = _standard_masks(g, numbering)
    worst = None
    worst_val = None
    nu0, nv0 = mask_counts(g, masks[0])
    prev_e = AsymptoticExponent.from_powers(nu0, nv0)
    for m in masks[1:]:
        nu, nv = mask_counts(g, m)
        cur_e = AsymptoticExponent.from_powers(nu, nv)
        top = prev_e if prev_e.value(alpha) >= cur_e.value(alpha) else cur_e
        tv = top.value(alpha)
        if worst_val is None or tv < worst_val:
            worst, worst_val = top, tv
        prev_e = cur_e
    return AsymptoticExponent.from_powers(nu0, nv0) / worst


def standard_path(space: ConfigurationSpace, numbering, alpha: Fraction
                  ) -> StandardPath:
    """Monotone path from u realizing the nested progression of a numbering:
    removes the occupied neighbors of each new site one by one, then places
    the site.  Backbone configurations have V-part A_i and U-part U \\ N(A_i).
    """
    alpha = Fraction(alpha)
    masks, backbone = _standard_masks(space.graph, numbering)
    states = [space.require(m) for m in masks]
    return StandardPath(states, backbone,
                        standard_path_exponent(space.graph, numbering, alpha))


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
    uniformity statistic over the gate, and the single-crossing fraction."""
    from scipy.stats import chisquare

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
    obs = [counts[t] for t in gate]
    if crossed > 0 and len(gate) > 1:
        stat, p = chisquare(obs)
        stat, p = float(stat), float(p)
    else:
        stat, p = 0.0, 1.0
    return GateStats(n, crossed, single,
                     single / n if n else math.nan, counts, stat, p)
