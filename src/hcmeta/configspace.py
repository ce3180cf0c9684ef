"""Hard-core configuration spaces: enumeration, weights, heights, lattice order.

Configurations are occupied-site bitmasks over all sites (bit i = site i).
Independence (no edge with both endpoints occupied) is checked whenever a
configuration enters through a public constructor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .asymptotics import AsymptoticExponent
from .graph import BipartiteGraph

__all__ = [
    "CapExceeded",
    "ModelParams",
    "ConfigurationSpace",
    "enumerate_space",
    "count_independent_sets",
    "mask_counts",
    "height",
    "config_cost",
    "leq",
    "join",
    "meet",
]

DEFAULT_CAP = 5_000_000

# Linear weights are trusted only while |log weight| stays below this; above
# it the log form is mandatory (lambda up to 1e6 with |U| up to 50 overflows).
LOG_LINEAR_LIMIT = 600.0


class CapExceeded(RuntimeError):
    """Enumeration or subset budget exceeded; message names the count."""


@dataclass(frozen=True)
class ModelParams:
    """Activities (lam on U, lam_bar on V) and the total clock rate gamma."""

    lam: float
    lam_bar: float
    gamma: float
    alpha: Fraction | None = None

    @staticmethod
    def for_graph(g: BipartiteGraph, lam: float, alpha: Fraction | None = None,
                  lam_bar: float | None = None) -> "ModelParams":
        if lam <= 0:
            raise ValueError("lambda must be positive")
        if lam_bar is None:
            if alpha is None:
                raise ValueError("supply alpha or an explicit lambda_bar")
            lam_bar = lam ** (1.0 + float(alpha))
        if lam_bar <= 0:
            raise ValueError("lambda_bar must be positive")
        gamma = (1.0 + lam) * len(g.u_sites) + (1.0 + lam_bar) * len(g.v_sites)
        return ModelParams(lam=lam, lam_bar=lam_bar, gamma=gamma, alpha=alpha)


class ConfigurationSpace:
    """Complete enumeration of the valid configurations of a bipartite graph.

    The list is in canonical ascending-bitmask order; ``index[mask]`` maps a
    configuration back to its ordinal.  ``u_state`` packs all of U, ``v_state``
    all of V; ``empty_index`` is the ordinal of the empty configuration.
    """

    def __init__(self, graph: BipartiteGraph, configs: list[int]):
        self.graph = graph
        self.configs = configs
        self.index = {m: i for i, m in enumerate(configs)}
        self.u_mask = sum(1 << a for a in graph.u_sites)
        self.v_mask = sum(1 << a for a in graph.v_sites)
        self.u_state = self.index[self.u_mask]
        self.v_state = self.index[self.v_mask]
        self.empty_index = self.index[0]
        self.neighbor_masks = [graph.neighbor_mask(a) for a in range(graph.n_sites)]

    def __len__(self) -> int:
        return len(self.configs)

    def counts(self, mask: int) -> tuple[int, int]:
        """(|x_U|, |x_V|) of a configuration bitmask."""
        return ((mask & self.u_mask).bit_count(), (mask & self.v_mask).bit_count())

    def is_valid(self, mask: int) -> bool:
        m = mask
        while m:
            low = m & -m
            site = low.bit_length() - 1
            if mask & self.neighbor_masks[site]:
                return False
            m ^= low
        return True

    def require(self, mask: int) -> int:
        """Index of a configuration, validating independence."""
        if mask not in self.index:
            raise ValueError(f"configuration {mask:#x} is not a valid independent set")
        return self.index[mask]

    # -- stationary weights ---------------------------------------------------

    def log_weight(self, mask: int, params: ModelParams) -> float:
        nu, nv = self.counts(mask)
        return nu * math.log(params.lam) + nv * math.log(params.lam_bar)

    def weight(self, mask: int, params: ModelParams) -> float:
        """Unnormalized weight lam^|x_U| * lam_bar^|x_V|; inf past the linear range."""
        lw = self.log_weight(mask, params)
        if abs(lw) < LOG_LINEAR_LIMIT:
            return math.exp(lw)
        return math.inf if lw > 0 else 0.0

    def log_weights(self, params: ModelParams) -> "np.ndarray":
        import numpy as np
        lu = math.log(params.lam)
        lv = math.log(params.lam_bar)
        return np.array([
            (m & self.u_mask).bit_count() * lu + (m & self.v_mask).bit_count() * lv
            for m in self.configs
        ])

    def stationary(self, params: ModelParams) -> "np.ndarray":
        """Normalized pi over the space (log-sum-exp normalisation)."""
        import numpy as np
        lw = self.log_weights(params)
        mx = lw.max()
        w = np.exp(lw - mx)
        return w / w.sum()

    def weight_exponent(self, mask: int) -> AsymptoticExponent:
        """Order of the unnormalized weight as lambda -> infinity."""
        nu, nv = self.counts(mask)
        return AsymptoticExponent.from_powers(nu, nv)

    def weight_keys(self, alpha: Fraction) -> list[int]:
        """Exact integer keys of the weight orders, one per state.

        With alpha = a/b the weight of x has order lambda^(p + q*alpha), where
        p = |x_U| + |x_V| and q = |x_V|; the key b*(p + q*alpha) = b*p + a*q
        orders states (and detects equal orders) exactly as p + q*alpha does.
        """
        alpha = Fraction(alpha)
        a, b = alpha.numerator, alpha.denominator
        um, vm = self.u_mask, self.v_mask
        return [b * (m & um).bit_count() + (a + b) * (m & vm).bit_count()
                for m in self.configs]

    def serialize_config(self, mask: int) -> dict:
        return {"mask": format(mask, "x"),
                "occupied": [s for s in range(self.graph.n_sites) if mask >> s & 1]}


def _enumerate_masks(graph: BipartiteGraph, cap: int, store: bool):
    """DFS over sites in ascending id order, skipping neighbors of occupied
    sites; the collected masks are sorted into canonical ascending order."""
    n = graph.n_sites
    nbr = [graph.neighbor_mask(a) for a in range(n)]
    out: list[int] = []
    count = 0
    # Iterative DFS; stack holds (next_site, mask, blocked).
    stack = [(0, 0, 0)]
    while stack:
        site, mask, blocked = stack.pop()
        while site < n and (blocked >> site) & 1:
            site += 1
        if site == n:
            count += 1
            if count > cap:
                return count, None
            if store:
                out.append(mask)
            continue
        # Explore include branch after exclude branch: push include first.
        stack.append((site + 1, mask | (1 << site), blocked | nbr[site]))
        stack.append((site + 1, mask, blocked))
    return count, out if store else None


def enumerate_space(graph: BipartiteGraph, cap: int = DEFAULT_CAP) -> ConfigurationSpace:
    """Enumerate all independent sets; refuses (naming the count) past ``cap``."""
    if not graph.v_sites:
        raise ValueError("degenerate graph with empty V part (u would equal v)")
    count, _ = _enumerate_masks(graph, cap, store=False)
    if count > cap:
        raise CapExceeded(
            f"configuration count exceeds cap={cap}: at least {count} states")
    _, configs = _enumerate_masks(graph, cap, store=True)
    configs.sort()
    return ConfigurationSpace(graph, configs)


def count_independent_sets(graph: BipartiteGraph) -> int:
    """Independent-set count by deletion recursion; oracle for the enumerator.

    count(G) = count(G - v) + count(G - N[v]); memoized on the free-site mask.
    Intended for graphs up to ~24 sites.
    """
    n = graph.n_sites
    nbr = [graph.neighbor_mask(a) for a in range(n)]
    memo: dict[int, int] = {}

    def rec(free: int) -> int:
        if free == 0:
            return 1
        got = memo.get(free)
        if got is not None:
            return got
        low = free & -free
        site = low.bit_length() - 1
        res = rec(free ^ low) + rec(free & ~(nbr[site] | low))
        memo[free] = res
        return res

    return rec((1 << n) - 1)


# ----------------------------------------------------------------------------
# Heights, lattice order, per-configuration isoperimetric cost
# ----------------------------------------------------------------------------

def mask_counts(g: BipartiteGraph, mask: int) -> tuple[int, int]:
    """(|x_U|, |x_V|) directly from a graph and a configuration bitmask."""
    u_mask = sum(1 << a for a in g.u_sites)
    v_mask = sum(1 << a for a in g.v_sites)
    return ((mask & u_mask).bit_count(), (mask & v_mask).bit_count())


def height(g: BipartiteGraph, mask: int, alpha: Fraction) -> Fraction:
    """Energy H(x) = -|x_U| - (1+alpha)|x_V|, exact in Q."""
    nu, nv = mask_counts(g, mask)
    return Fraction(-nu) - (1 + alpha) * nv


def config_cost(g: BipartiteGraph, mask: int) -> int:
    """Isoperimetric cost of a configuration: |U \\ x_U| - |x_V| = |U| - |x|."""
    nu, nv = mask_counts(g, mask)
    return len(g.u_sites) - nu - nv


def leq(space: ConfigurationSpace, x: int, y: int) -> bool:
    """x below y in the crossover order: x_U contains y_U and x_V inside y_V."""
    xu, yu = x & space.u_mask, y & space.u_mask
    xv, yv = x & space.v_mask, y & space.v_mask
    return (xu | yu) == xu and (xv | yv) == yv


def join(space: ConfigurationSpace, x: int, y: int) -> int:
    """Supremum: V parts union, U parts intersect; always a valid configuration."""
    out = ((x & y) & space.u_mask) | ((x | y) & space.v_mask)
    return space.configs[space.require(out)]


def meet(space: ConfigurationSpace, x: int, y: int) -> int:
    """Infimum: V parts intersect, U parts union; always a valid configuration."""
    out = ((x | y) & space.u_mask) | ((x & y) & space.v_mask)
    return space.configs[space.require(out)]
