"""Hard-core configuration spaces: enumeration, moves, weights, heights,
lattice order.

Configurations are occupied-site bitmasks over all sites (bit i = site i).
Independence (no edge with both endpoints occupied) is checked whenever a
configuration enters through a public constructor.  The network's edges,
the kernel's rows and the bottleneck tree's edges all come from one move
table per space, :attr:`ConfigurationSpace.moves`.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

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

INT64_MAX = 2 ** 63 - 1


class CapExceeded(RuntimeError):
    """Refused before the work: a count past its cap, bytes past the memory
    available, a spent search or a truncated witness list; names the figures."""


def _available_memory() -> int:
    """Bytes the OS reports available, for the byte estimates: MemAvailable
    from one binary read of /proc/meminfo, or the free physical pages where
    the file or the field is missing."""
    try:
        with open("/proc/meminfo", "rb", buffering=0) as f:
            return int(f.read().split(b"MemAvailable:")[1].split(maxsplit=1)[0]) * 1024
    except (OSError, IndexError):
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


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
        if not 0 < lam < math.inf:
            raise ValueError(f"lambda must be finite and positive, got {lam}")
        if lam_bar is None:
            if alpha is None:
                raise ValueError("supply alpha or an explicit lambda_bar")
            try:
                lam_bar = lam ** (1.0 + float(alpha))
            except OverflowError:
                lam_bar = math.inf              # refused below, as float overflow
        gamma = (1.0 + lam) * len(g.u_sites) + (1.0 + lam_bar) * len(g.v_sites)
        for name, rate in (("lambda_bar", lam_bar), ("gamma", gamma)):
            if not 0 < rate < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {rate}")
        return ModelParams(lam=lam, lam_bar=lam_bar, gamma=gamma, alpha=alpha)


class ConfigurationSpace:
    """Complete enumeration of the valid configurations of a bipartite graph.

    ``masks`` is the sorted ``int64`` array of configuration bitmasks (the
    canonical order); ``configs`` is the same as a list of ints, and
    :meth:`require` maps a configuration back to its ordinal.  ``u_state``
    packs all of U, ``v_state`` all of V; ``empty_index`` is the ordinal of
    the empty configuration.
    """

    def __init__(self, graph: BipartiteGraph, masks):
        self.graph = graph
        self.masks = np.asarray(masks, dtype=np.int64)
        self.u_mask = sum(1 << a for a in graph.u_sites)
        self.v_mask = sum(1 << a for a in graph.v_sites)
        self.u_state = self.require(self.u_mask)
        self.v_state = self.require(self.v_mask)
        self.empty_index = self.require(0)
        self.neighbor_masks = [graph.neighbor_mask(a) for a in range(graph.n_sites)]

    @cached_property
    def configs(self) -> list[int]:
        return self.masks.tolist()

    def __len__(self) -> int:
        return len(self.masks)

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
        n = len(self.masks)
        i = int(np.searchsorted(self.masks, mask)) if 0 <= mask < 1 << 63 else n
        if i == n or self.masks[i] != mask:
            raise ValueError(f"configuration {mask:#x} is not a valid independent set")
        return i

    @cached_property
    def moves(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The chain's moves, one per addition of a particle: read-only
        ``(emptied, occupied, site)`` (site uint8), ordered by emptied state,
        then site.  ``occupied[e]``, the larger index, is ``emptied[e]`` plus
        the site; read in reverse, the row is the removal of that particle.

        Setting a clear bit keeps the masks in order, so the k-th state with
        the site and its neighbours empty becomes the k-th state with the
        site occupied: two scans per site, no search.  A counting sort
        places the rows: each state's moves fill its block, site by site."""
        masks = self.masks
        free = [((masks & (nbr | 1 << site)) == 0).nonzero()[0]
                for site, nbr in enumerate(self.neighbor_masks)]
        count = np.zeros(len(masks), dtype=np.int64)
        for emp in free:
            count[emp] += 1
        fill = np.cumsum(count) - count     # each state's next free row
        emptied = np.repeat(np.arange(len(masks)), count)
        occupied = np.empty(len(emptied), dtype=np.int64)
        # at most 62 sites fit a mask
        site = np.empty(len(emptied), dtype=np.uint8)
        for s, emp in enumerate(free):
            at = fill[emp]
            fill[emp] += 1
            occupied[at] = (masks & (1 << s)).nonzero()[0]
            site[at] = s
        table = emptied, occupied, site
        for a in table:
            a.flags.writeable = False
        return table

    def addition_probs(self, params: ModelParams) -> np.ndarray:
        """Per site, the kernel's probability of adding a particle there:
        lambda / gamma on U, lambda_bar / gamma on V."""
        p_u, p_v = params.lam / params.gamma, params.lam_bar / params.gamma
        return np.array([p_u if (self.u_mask >> site) & 1 else p_v
                         for site in range(self.graph.n_sites)])

    def occupancy(self, sites) -> np.ndarray:
        """Number of occupied sites among ``sites``, per state (int64)."""
        out = np.zeros(len(self.masks), dtype=np.int64)
        for site in sites:
            out += (self.masks >> site) & 1
        return out

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

    def part_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """(|x_U|, |x_V|) per state, as int64 arrays."""
        return self.occupancy(self.graph.u_sites), self.occupancy(self.graph.v_sites)

    def log_weights(self, params: ModelParams) -> np.ndarray:
        nu, nv = self.part_counts()
        return nu * math.log(params.lam) + nv * math.log(params.lam_bar)

    def stationary(self, params: ModelParams) -> np.ndarray:
        """Normalized pi over the space (log-sum-exp normalisation)."""
        lw = self.log_weights(params)
        mx = lw.max()
        w = np.exp(lw - mx)
        return w / w.sum()

    def weight_exponent(self, mask: int) -> AsymptoticExponent:
        """Order of the unnormalized weight as lambda -> infinity."""
        nu, nv = self.counts(mask)
        return AsymptoticExponent.from_powers(nu, nv)

    def key_coefficients(self, alpha: Fraction) -> tuple[int, int]:
        """(b, a + b) for alpha = a/b: the weight key of x is b*|x_U| + (a+b)*|x_V|.

        Refuses, rather than wrap around, an alpha whose keys could leave
        int64: (|a| + b) * n_sites bounds every key and partial sum.
        """
        alpha = Fraction(alpha)
        a, b = alpha.numerator, alpha.denominator
        if (abs(a) + b) * self.graph.n_sites > INT64_MAX:
            raise ValueError(
                f"alpha = {alpha}: denominator {b} too large for int64 weight keys "
                f"on {self.graph.n_sites} sites")
        return b, a + b

    def weight_keys(self, alpha: Fraction) -> np.ndarray:
        """Exact integer keys of the weight orders, one per state (int64).

        With alpha = a/b the weight of x has order lambda^(p + q*alpha), where
        p = |x_U| + |x_V| and q = |x_V|; the key b*(p + q*alpha) = b*p + a*q
        orders states (and detects equal orders) exactly as p + q*alpha does.
        """
        cu, cv = self.key_coefficients(alpha)
        nu, nv = self.part_counts()
        return cu * nu + cv * nv

    def serialize_config(self, mask: int) -> dict:
        return {"mask": format(mask, "x"),
                "occupied": [s for s in range(self.graph.n_sites) if mask >> s & 1]}


def enumerate_space(graph: BipartiteGraph, cap: int = DEFAULT_CAP) -> ConfigurationSpace:
    """Enumerate all independent sets; refuses (naming the count) past ``cap``.

    The mask array grows one site at a time: every configuration over sites
    below ``s`` whose lower-index neighbours of ``s`` are empty also appears
    with ``s`` occupied.  The new masks all exceed the old ones and keep
    their order, so the array stays sorted without a sort.
    """
    if not graph.v_sites:
        raise ValueError("degenerate graph with empty V part (u would equal v)")

    def refuse():
        return CapExceeded(
            f"configuration count exceeds cap={cap}: at least {cap + 1} states")

    # Every subset of U and every subset of V is independent.
    if 2 ** len(graph.u_sites) + 2 ** len(graph.v_sites) - 1 > cap:
        raise refuse()
    if graph.n_sites > 62:
        raise ValueError(f"{graph.n_sites} sites do not fit int64 masks")
    masks = np.zeros(1, dtype=np.int64)
    for site in range(graph.n_sites):
        lower = graph.neighbor_mask(site) & ((1 << site) - 1)
        masks = np.concatenate([masks, masks[(masks & lower) == 0] | (1 << site)])
        if len(masks) > cap:
            raise refuse()
    return ConfigurationSpace(graph, masks)


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
