"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

A run repeats a *pass*, the same work each time, until its seconds are used.
Each call a pass makes into hcmeta is kept under about half a second, so that
a run repeats it many times.  A pass is made of *operations*; each is
checked, and one that raises, hits the sampler's step cap or fails its check
counts as failed.  References marked "recorded" were computed with the
canonical labelling at the commit that added the benchmark; the seed
relabels the sites of most graphs within their two parts and seeds the
sampler, and a correct program reproduces the references on every seed.
"""
from __future__ import annotations

import math
import random
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import hcmeta

HALF = Fraction(1, 2)
REF_TOL = 1e-9          # relative; covers re-ordered floating-point sums


def close(x: float, ref: float, tol: float = REF_TOL) -> bool:
    return abs(x - ref) <= tol * abs(ref)


def relabel(g: hcmeta.BipartiteGraph, seed: int) -> hcmeta.BipartiteGraph:
    """An isomorphic copy of ``g`` with sites shuffled within U and within V."""
    rng = random.Random(seed)
    u, v = list(g.u_sites), list(g.v_sites)
    rng.shuffle(u)
    rng.shuffle(v)
    new = {old: k for k, old in enumerate(u)}
    new.update({old: len(u) + k for k, old in enumerate(v)})
    return hcmeta.BipartiteGraph.from_parts(
        len(u), len(v), [(new[a], new[b]) for a, b in g.edges],
        label=f"{g.label}~{seed}")


@dataclass
class Outcome:
    """Attempted and failed operations, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def op(self, what: str, check, n: int = 1):
        """Run ``check`` (returns the number of its ``n`` operations that
        failed, or a bool for all or none); an exception fails all ``n``."""
        try:
            bad = check()
        except Exception:       # a failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            bad = n
        if not isinstance(bad, int) or isinstance(bad, bool):
            bad = 0 if bad else n
        self.attempted += n
        if bad:
            self.failed += bad
            self.notes.append(f"{what}: {bad}/{n} failed")


def _space(call, g):
    return call("configspace.enumerate", hcmeta.enumerate_space, g)


def _kernel_entries(kernel) -> int:
    return len(kernel.offdiag_coo()[0])


# ----------------------------------------------------------------------------
# exact-solve
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveCase:
    spec: str
    lam: float
    resistance: float           # R(u, v), recorded
    hitting: float              # E_u[T_v] in steps, Green-function route, recorded
    route_tol: float | None     # two-route agreement required; None: reported only
    relabel: bool = True


EXACT_CASES = (
    # 322 states: below potential.DENSE_ELIMINATION_LIMIT, dense star-mesh R
    SolveCase("cycle:12", 100.0, 72515295145.6203, 95580.22886409514, 1e-6),
    # 1,597 states: above it, R by LU voltage.  The LU fill depends on the
    # state order (0.98M to 1.32M nonzeros over six relabellings), so this
    # graph keeps its canonical labels and the pass costs the same on every seed
    SolveCase("path:15", 100.0, 9102566683.146414, 123853.12164897246, 1e-6,
              relabel=False),
    # the first-step route loses ~1e-3 here; reported as potential.route_gap
    SolveCase("ladder:4", 1e4, 3.5693610824532304e+21, 35707751274930.21, None),
)


class ExactSolve:
    """R(u, v) and E_u[T_v] at alpha = 1/2 on both sides of the solver switch."""

    name = "exact-solve"

    def __init__(self, cases=EXACT_CASES):
        self.cases = cases

    def inputs(self, seed: int):
        graphs = [hcmeta.parse_graph_spec(c.spec) for c in self.cases]
        return [relabel(g, seed * 31 + k) if c.relabel else g
                for k, (c, g) in enumerate(zip(self.cases, graphs))]

    def _network(self, call, case, g):
        space = _space(call, g)
        params = hcmeta.ModelParams.for_graph(g, case.lam, HALF)
        kernel = call("dynamics.build_kernel", hcmeta.build_kernel, space, params)
        net = call("potential.build_network", hcmeta.build_network,
                   space, params, kernel)
        return space, kernel, net

    def prepare(self, graphs, call, out: Outcome):
        # R is computed inside expected_hitting_time but not returned; it is
        # checked once per run here, outside the timed passes.
        for case, g in zip(self.cases, graphs):
            def check():
                space, _, net = self._network(call, case, g)
                r = call("potential.effective_resistance",
                         hcmeta.effective_resistance, net,
                         {space.u_state}, {space.v_state})
                return close(r, case.resistance)
            out.op(f"R {case.spec}", check)
        return None

    def run_pass(self, graphs, refs, call, index: int, out: Outcome):
        products = []
        for case, g in zip(self.cases, graphs):
            def check():
                space, kernel, net = self._network(call, case, g)
                res = call("potential.expected_hitting_time",
                           hcmeta.expected_hitting_time, net,
                           space.u_state, {space.v_state})
                products.append((space, kernel, net, res))
                return close(res.value, case.hitting) and (
                    case.route_tol is None or res.rel_gap <= case.route_tol)
            out.op(f"E[T] {case.spec}", check)
        return products

    def counts(self, products, refs) -> dict:
        return {
            "configspace.states": sum(len(p[0]) for p in products),
            "dynamics.kernel_entries": sum(_kernel_entries(p[1]) for p in products),
            "potential.edges": sum(p[2].n_edges for p in products),
            "potential.route_gap": max(float(p[3].rel_gap) for p in products),
        }


# ----------------------------------------------------------------------------
# build-large
# ----------------------------------------------------------------------------

class BuildLarge:
    """Construction at scale: enumerate, kernel, network, critical resistance."""

    name = "build-large"

    def __init__(self, spec: str = "ladder:12", states: int = 39_203,
                 edges: int = 235_224, psi: float = 1.3383581491180074e+20):
        # states = trace of [[1,1,1],[1,0,1],[1,1,0]]^12; edges and Psi(u, v)
        # at lambda = 100 recorded
        self.spec, self.states, self.edges, self.psi = spec, states, edges, psi

    def inputs(self, seed: int):
        return relabel(hcmeta.parse_graph_spec(self.spec), seed)

    def prepare(self, g, call, out: Outcome):
        return None

    def run_pass(self, g, refs, call, index: int, out: Outcome):
        products = []

        def check():
            space = _space(call, g)
            params = hcmeta.ModelParams.for_graph(g, 100.0, HALF)
            kernel = call("dynamics.build_kernel", hcmeta.build_kernel, space, params)
            net = call("potential.build_network", hcmeta.build_network,
                       space, params, kernel)
            psi = call("potential.critical_resistance", hcmeta.critical_resistance,
                       net, {space.u_state}, {space.v_state})
            products.append((space, kernel, net))
            return (len(space) == self.states and net.n_edges == self.edges
                    and close(psi.value, self.psi))
        out.op(f"build {self.spec}", check)
        return products

    def counts(self, products, refs) -> dict:
        space, kernel, net = products[0]
        return {"configspace.states": len(space),
                "dynamics.kernel_entries": _kernel_entries(kernel),
                "potential.edges": net.n_edges}


# ----------------------------------------------------------------------------
# sample
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleCase:
    spec: str
    lam: float
    chunk: int                  # samples per sample_crossover call
    chunks: int
    embed_clock: bool
    ks: bool                    # run the KS test on this case's samples

    @property
    def n(self) -> int:
        return self.chunk * self.chunks


# Crossover times are near exponential, so the pass's work varies with the
# seed by about 1/sqrt(samples): 1,000 samples on cycle:6 keep that near 2 %.
SAMPLE_CASES = (
    SampleCase("cycle:6", 1e3, 50, 20, True, True),
    # at lambda = 1e2 one ladder:4 sample costs 17x more and its cost is far
    # more spread out
    SampleCase("ladder:4", 10.0, 50, 8, False, False),
)
MEAN_SE_TOL = 5.0


def exact_means(kernel, target: int) -> tuple[np.ndarray, np.ndarray]:
    """Expected steps and expected jumps to ``target`` from every state.

    Dense solves of the first-step equations, with the diagonal taken from
    the move probabilities so that no ``1 - self_loop`` cancellation occurs.
    """
    n = len(kernel)
    rows, cols, probs = kernel.offdiag_coo()
    K = np.zeros((n, n))
    np.add.at(K, (rows, cols), probs)
    p_move = K.sum(axis=1)
    keep = np.array([i for i in range(n) if i != target])
    sub = K[np.ix_(keep, keep)]
    steps = np.linalg.solve(np.diag(p_move[keep]) - sub, np.ones(len(keep)))
    jumps = np.linalg.solve(np.eye(len(keep)) - sub / p_move[keep, None],
                            np.ones(len(keep)))
    out_s, out_j = np.zeros(n), np.zeros(n)
    out_s[keep], out_j[keep] = steps, jumps
    return out_s, out_j


class Sample:
    """Monte Carlo crossover times, checked against the exact mean."""

    name = "sample"

    def __init__(self, cases=SAMPLE_CASES):
        self.cases = cases

    def inputs(self, seed: int):
        return seed, [hcmeta.parse_graph_spec(c.spec) for c in self.cases]

    def prepare(self, inputs, call, out: Outcome):
        """Per case: exact E_u[T_v] in continuous time and E_u[jumps]."""
        _, graphs = inputs
        refs = []
        for case, g in zip(self.cases, graphs):
            space = hcmeta.enumerate_space(g)
            params = hcmeta.ModelParams.for_graph(g, case.lam, HALF)
            steps, jumps = exact_means(hcmeta.build_kernel(space, params),
                                       space.v_state)
            refs.append((steps[space.u_state] / params.gamma,
                         jumps[space.u_state]))
        return refs

    def run_pass(self, inputs, refs, call, index: int, out: Outcome):
        seed, graphs = inputs
        products = []
        for k, (case, g, (mean_t, _)) in enumerate(zip(self.cases, graphs, refs)):
            base = (seed * len(self.cases) + k) * 10**7     # same in every pass

            def check():
                space = _space(call, g)
                params = hcmeta.ModelParams.for_graph(g, case.lam, HALF)
                kernel = call("dynamics.build_kernel", hcmeta.build_kernel,
                              space, params)
                samples = []
                for c in range(case.chunks):
                    got, _ = call("dynamics.sample_crossover", hcmeta.sample_crossover,
                                  kernel, space.u_state, [space.v_state], case.chunk,
                                  base_seed=base + c * case.chunk,
                                  embed_clock=case.embed_clock)
                    samples += got
                products.append((k, samples))
                t = np.array([s.t_hat for s in samples if not s.timed_out])
                timeouts = case.n - len(t)
                se = t.std(ddof=1) / math.sqrt(len(t)) if len(t) > 1 else math.inf
                if not abs(t.mean() - mean_t) <= MEAN_SE_TOL * se:
                    return case.n
                return timeouts
            out.op(f"samples {case.spec}", check, n=case.n)
            if case.ks and products and products[-1][0] == k:
                def ks():
                    rep = call("stats.ks_exponential_test", hcmeta.ks_exponential_test,
                               [s.t_hat for s in products[-1][1] if not s.timed_out])
                    return 0.0 <= rep.p_value <= 1.0
                out.op(f"KS {case.spec}", ks)
        return products

    def counts(self, products, refs) -> dict:
        return {
            "dynamics.samples": sum(len(s) for _, s in products),
            "dynamics.timeouts": sum(x.timed_out for _, s in products for x in s),
            "dynamics.steps_total": sum(x.steps for _, s in products for x in s),
            "dynamics.expected_jumps": sum(len(s) * refs[k][1] for k, s in products),
        }


# ----------------------------------------------------------------------------
# bottleneck
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiCase:
    """Psi(u, J(u)) at alpha = 1/2, recorded: |J(u)|, the bottleneck's value
    p + q alpha and its (p, q) labels (more than one label is an order tie)."""

    spec: str
    j_size: int
    value: Fraction
    tie_pq: tuple


class Bottleneck:
    """Exact-exponent bottleneck layers and the combinatorial gate."""

    name = "bottleneck"

    def __init__(self, no_trap_spec: str = "cycle:8",
                 psi: PsiCase = PsiCase("ladder:8", 53, Fraction(6),
                                        ((4, 4), (5, 2), (6, 0))),
                 gate_count: int = 288):
        self.no_trap_spec, self.no_trap_alpha = no_trap_spec, Fraction(2, 5)
        self.psi = psi
        self.gate_spec, self.gate_alpha = "torus:6x6", Fraction(7, 10)
        self.gate_count, self.profile_s_max = gate_count, 6

    def inputs(self, seed: int):
        # the gate keeps the canonical torus: build_gate reads its lattice
        # coordinates from the graph's metadata
        return (relabel(hcmeta.parse_graph_spec(self.no_trap_spec), seed),
                relabel(hcmeta.parse_graph_spec(self.psi.spec), seed + 1),
                hcmeta.parse_graph_spec(self.gate_spec))

    def prepare(self, graphs, call, out: Outcome):
        return None

    def run_pass(self, graphs, refs, call, index: int, out: Outcome):
        g_trap, g_psi, g_gate = graphs
        products = []

        def no_trap():
            space = _space(call, g_trap)
            rep = call("metastability.no_trap_certificate",
                       hcmeta.no_trap_certificate, space, self.no_trap_alpha)
            products.append(rep)
            return rep.status == "certified" and rep.checked == len(space) - 2

        def psi():
            space = _space(call, g_psi)
            j, _ = call("metastability.dominance_sets", hcmeta.dominance_sets,
                        space, space.u_state, HALF)
            sym = call("potential.psi_symbolic", hcmeta.psi_symbolic,
                       space, {space.u_state}, j, HALF)
            return (len(j) == self.psi.j_size
                    and sym.bottleneck_weight.value(HALF) == self.psi.value
                    and tuple(sym.tie_pq) == self.psi.tie_pq)

        def profile():
            prof = call("isoperimetry.brute_force_profile",
                        hcmeta.brute_force_profile, g_gate, self.profile_s_max)
            return prof.deltas == [hcmeta.torus_delta(s)
                                   for s in range(self.profile_s_max + 1)]

        def gate():
            got = call("metastability.build_gate", hcmeta.build_gate,
                       g_gate, self.gate_alpha)
            return got.count == self.gate_count

        out.op(f"no-trap {self.no_trap_spec}", no_trap)
        out.op(f"Psi(u, J(u)) {self.psi.spec}", psi)
        out.op(f"profile {self.gate_spec}", profile)
        out.op(f"gate {self.gate_spec}", gate)
        return products

    def counts(self, products, refs) -> dict:
        return {"metastability.no_trap_checked": sum(r.checked for r in products)}


WORKLOADS = {w.name: w for w in (ExactSolve, BuildLarge, Sample, Bottleneck)}
