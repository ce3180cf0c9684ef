"""Acceptance suite: the thirteen verification criteria.

Each criterion is a function returning a :class:`CriterionResult`; the CLI
``verify`` command and the pytest acceptance module both run these.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .configspace import CapExceeded, ModelParams, enumerate_space
from .dynamics import build_kernel, coupled_simulate, sample_crossover
from .graph import GraphValidationError, build_family
from .isoperimetry import (brute_force_profile, doubled_torus_delta,
                           hypercube_delta, torus_delta, tree_like_delta)
from .metastability import (build_gate, critical_analysis,
                            doubled_torus_critical_size, dominance_sets,
                            gate_statistics, no_trap_certificate,
                            torus_critical_size)
from .potential import (build_network, critical_resistance,
                        effective_resistance, escape_probability,
                        expected_hitting_time, green_by_visits,
                        green_function, nash_williams_bounds, psi_symbolic,
                        voltage, voltage_bound_check)
from .stats import ks_exponential_test

__all__ = ["CriterionResult", "run_criterion", "run_all", "CRITERIA"]

HALF = Fraction(1, 2)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.number:2d}: {self.name} ({self.seconds:.1f}s)"


def _series_resistance(m: int, n: int, lam: float, lbar: float) -> float:
    z = (1 + lam) ** m + (1 + lbar) ** n - 1
    gamma = (1 + lam) * m + (1 + lbar) * n
    r = sum(z * gamma / (i * math.comb(m, i) * lam ** i) for i in range(1, m + 1))
    r += sum(z * gamma / (j * math.comb(n, j) * lbar ** j) for j in range(1, n + 1))
    return r


def criterion_1() -> CriterionResult:
    """Complete bipartite resistance matches the series closed form to 1e-9."""
    worst = 0.0
    details = {}
    for (m, n) in ((2, 3), (3, 4)):
        for lam in (10.0, 100.0):
            lbar = lam ** 1.5
            g = build_family(f"complete:{m}x{n}")
            spc = enumerate_space(g)
            par = ModelParams.for_graph(g, lam, lam_bar=lbar)
            net = build_network(spc, par)
            r = effective_resistance(net, {spc.u_state}, {spc.v_state})
            want = _series_resistance(m, n, lam, lbar)
            rel = abs(r - want) / want
            details[f"K{m},{n}@{lam:g}"] = rel
            worst = max(worst, rel)
    return CriterionResult(1, "complete bipartite series resistance",
                           worst <= 1e-9, {"worst_rel": worst, **details})


def _cycle_mean_ratio(lam: float) -> float:
    g = build_family("cycle:6")
    spc = enumerate_space(g)
    par = ModelParams.for_graph(g, lam, alpha=HALF)
    net = build_network(spc, par)
    ht = expected_hitting_time(net, spc.u_state, {spc.v_state})
    return ht.continuous(par) / (lam / 6.0)


def criterion_2() -> CriterionResult:
    """Even-cycle sharp mean: ratio to lambda/(2n) near 1, improving in lambda."""
    r4 = _cycle_mean_ratio(1e4)
    r2 = _cycle_mean_ratio(1e2)
    ok = 0.95 <= r4 <= 1.05 and abs(r4 - 1) < abs(r2 - 1)
    return CriterionResult(2, "even-cycle sharp mean",
                           ok, {"ratio_1e4": r4, "ratio_1e2": r2})


def criterion_3() -> CriterionResult:
    """Cyclic-ladder sharp mean: E_u[T_hat_v] near lambda^2 / 12.

    The 1/(6n) prefactor is alpha-free; the finite-lambda correction scales
    like lambda^(-alpha), so alpha = 7/10 puts lambda = 1e3 inside the band.
    """
    lam = 1e3
    g = build_family("ladder:4")
    spc = enumerate_space(g)
    par = ModelParams.for_graph(g, lam, alpha=Fraction(7, 10))
    net = build_network(spc, par)
    ht = expected_hitting_time(net, spc.u_state, {spc.v_state})
    ratio = ht.continuous(par) / (lam ** 2 / 12.0)
    return CriterionResult(3, "cyclic-ladder sharp mean",
                           0.9 <= ratio <= 1.1, {"ratio": ratio})


def criterion_4(threads: int = 1) -> CriterionResult:
    """Exponential law on the cycle: KS of scaled crossover times."""
    g = build_family("cycle:6")
    spc = enumerate_space(g)
    par = ModelParams.for_graph(g, 1e3, alpha=HALF)
    kern = build_kernel(spc, par)
    _, summ = sample_crossover(kern, spc.u_state, [spc.v_state], 2000,
                               base_seed=20_240_401, embed_clock=True,
                               threads=threads)
    rep = ks_exponential_test(np.array(summ.scaled_sorted) * summ.mean_t_hat,
                              threshold=0.01)
    return CriterionResult(4, "exponential crossover law (KS)",
                           rep.passed, rep.as_json_obj())


def criterion_5(threads: int = 1) -> CriterionResult:
    """Odd path: sum of three unit exponentials, not a single exponential.

    alpha is unpinned; at alpha = 1/2 the replacement-failure inflation puts
    the true variance (~3.65) at the edge of the 25% band, while alpha = 7/10
    leaves it near 3.2 with margin.
    """
    g = build_family("path:6")
    spc = enumerate_space(g)
    par = ModelParams.for_graph(g, 1e3, alpha=Fraction(7, 10))
    kern = build_kernel(spc, par)
    samples, summ = sample_crossover(kern, spc.u_state, [spc.v_state], 2000,
                                     base_seed=987, embed_clock=True,
                                     threads=threads)
    mean_ok = abs(summ.mean_t_hat - 3.0) <= 0.45
    var_ok = abs(summ.var_t_hat - 3.0) <= 0.75
    rep = ks_exponential_test([s.t_hat for s in samples], threshold=0.01)
    return CriterionResult(
        5, "odd-path sum-of-exponentials limit",
        mean_ok and var_ok and not rep.passed,
        {"mean": summ.mean_t_hat, "var": summ.var_t_hat, "ks_p": rep.p_value})


def criterion_6(threads: int = 1) -> CriterionResult:
    """Gate passage on the cycle: single crossing and uniform choice.

    Single-crossing probability behaves like 1 - O(lambda^-alpha); alpha =
    7/10 keeps lambda = 1e3 above the 95% bar (the gate is alpha-free).
    """
    g = build_family("cycle:6")
    spc = enumerate_space(g)
    par = ModelParams.for_graph(g, 1e3, alpha=Fraction(7, 10))
    kern = build_kernel(spc, par)
    gate = build_gate(g, Fraction(7, 10))
    watch = gate.transition_indices(spc)
    samples, _ = sample_crossover(kern, spc.u_state, [spc.v_state], 3000,
                                  base_seed=555, gate_watch=watch,
                                  threads=threads)
    st = gate_statistics(samples, watch)
    ok = st.single_crossing_fraction >= 0.95 and st.p_value > 0.01
    return CriterionResult(6, "gate passage: single crossing + uniformity",
                           ok, st.as_json_obj())


def criterion_7() -> CriterionResult:
    """Brute force equals closed forms exactly on all pinned families."""
    fails = []
    g = build_family("torus:6x6")
    prof = brute_force_profile(g, 6)
    for s in range(7):
        if prof.delta(s) != torus_delta(s):
            fails.append(("torus", s, prof.delta(s), torus_delta(s)))
    g = build_family("doubled(torus:5x5)")
    prof = brute_force_profile(g, 6)
    for s in range(7):
        if prof.delta(s) != doubled_torus_delta(s):
            fails.append(("doubled", s, prof.delta(s), doubled_torus_delta(s)))
    for d1 in (2, 3, 4, 5):
        g = build_family(f"hypercube:{d1}")
        prof = brute_force_profile(g, len(g.v_sites))
        for s in range(prof.s_max + 1):
            if prof.delta(s) != hypercube_delta(d1, s):
                fails.append((f"H{d1}", s, prof.delta(s), hypercube_delta(d1, s)))
    g = build_family("cycle:12")
    prof = brute_force_profile(g, 5)
    for s in range(1, 6):
        if prof.delta(s) != tree_like_delta(s, 2, 12):
            fails.append(("cycle12", s, prof.delta(s), tree_like_delta(s, 2, 12)))
    return CriterionResult(7, "isoperimetric oracle equivalence",
                           not fails, {"failures": fails})


def criterion_8() -> CriterionResult:
    """Torus gate: 288 transitions, with family characterizations asserted."""
    g = build_family("torus:6x6")
    gate = build_gate(g, Fraction(7, 10))     # builder cross-checks A and B shapes
    ok = (gate.count == 288 and len(gate.family_A) == 36
          and len(gate.family_B) == 72 and len(gate.family_C) == 18)
    return CriterionResult(8, "torus gate count 4mn*ell",
                           ok, gate.as_json_obj())


def criterion_9() -> CriterionResult:
    """Closed-form critical sizes equal direct argmax for the four alphas."""
    alphas = [Fraction(7, 10), Fraction(11, 20), Fraction(2, 5), Fraction(3, 10)]
    fails = []
    for a in alphas:
        ca = critical_analysis(torus_delta, a, 400)
        ell, s_closed, generic = torus_critical_size(a)
        if ca.s_star != s_closed or not ca.unique_max:
            fails.append(("torus", str(a), ca.s_star, s_closed, ca.tied_maximizers))
        if a == Fraction(2, 5) and generic:
            fails.append(("torus-genericity-flag", str(a)))
        cd = critical_analysis(doubled_torus_delta, a, 400)
        if a == Fraction(2, 5):
            # 1/alpha is a half-integer: the doubled closed form must refuse
            # and the argmax route must report the genuine tie {11, 16}.
            try:
                doubled_torus_critical_size(a)
                fails.append(("doubled-no-refusal", str(a)))
            except ValueError:
                pass
            if cd.unique_max or cd.tied_maximizers != [11, 16]:
                fails.append(("doubled-tie", str(a), cd.tied_maximizers))
        else:
            _, s_closed_d, _, generic_d = doubled_torus_critical_size(a)
            if cd.s_star != s_closed_d or not cd.unique_max or not generic_d:
                fails.append(("doubled", str(a), cd.s_star, s_closed_d))
    return CriterionResult(9, "critical-size closed forms vs argmax",
                           not fails, {"failures": fails})


def _random_instances():
    """Deterministic list of 20 (graph, space) pairs of at most 200 states."""
    out = []
    seed = 0
    dims = [(3, 3), (3, 4), (4, 4), (4, 5), (5, 5)]
    while len(out) < 20:
        nu, nv = dims[len(out) % len(dims)]
        try:
            g = build_family(f"random:{nu}x{nv}:0.5:{seed}")
            spc = enumerate_space(g, cap=5000)
            if len(spc) <= 200:
                out.append((g, spc))
        except (GraphValidationError, CapExceeded):
            pass
        seed += 1
    return out


def criterion_10() -> CriterionResult:
    """Potential-theory identity suite on 20 random instances."""
    rng = np.random.default_rng(12345)
    worst = {"green": 0.0, "reciprocity": 0.0, "escape": 0.0, "hitting": 0.0}
    violations = []
    for idx, (g, spc) in enumerate(_random_instances()):
        lam = float(3.0 + 7.0 * rng.random())
        par = ModelParams.for_graph(g, lam, alpha=HALF)
        net = build_network(spc, par)
        u, v = spc.u_state, spc.v_state
        n = len(spc)

        gf = green_function(net, u, {v})
        gv = green_by_visits(net, u, {v})
        denom = np.maximum(np.abs(gv), np.abs(gv).max() * 1e-12)
        worst["green"] = max(worst["green"], float(np.max(np.abs(gf - gv) / denom)))

        for _ in range(20):
            x, y = int(rng.integers(0, n)), int(rng.integers(0, n))
            if v in (x, y):
                continue
            gx = green_function(net, x, {v})
            gy = green_function(net, y, {v})
            lhs, rhs = net.pi[x] * gx[y], net.pi[y] * gy[x]
            if lhs or rhs:
                worst["reciprocity"] = max(
                    worst["reciprocity"], abs(lhs - rhs) / max(lhs, rhs))

        ef, ed = escape_probability(net, u, {v})
        worst["escape"] = max(worst["escape"], abs(ef - ed) / max(ef, ed))

        ht = expected_hitting_time(net, u, {v})
        worst["hitting"] = max(worst["hitting"], ht.rel_gap)

        r = effective_resistance(net, {u}, {v})
        psi = critical_resistance(net, {u}, {v})
        if not (psi.value / n ** 2 <= r * (1 + 1e-12) and
                r <= psi.value * n ** 2 * (1 + 1e-12)):
            violations.append((idx, "sandwich"))

        x = next(i for i in range(n) if i not in (u, v))
        rep = voltage_bound_check(net, {u}, {v}, x)
        if not rep.all_ok:
            violations.append((idx, "voltage-bounds"))

        cut = frozenset(range(n)) - {v}
        paths = _edge_disjoint_paths(net, u, v, k=3)
        lo, hi = nash_williams_bounds(net, {u}, {v}, cut, paths)
        c_exact = 1.0 / r
        if not (lo <= c_exact * (1 + 1e-12) and c_exact <= hi * (1 + 1e-12)):
            violations.append((idx, "nash-williams"))
    tol_ok = all(w <= 1e-9 for w in worst.values())
    return CriterionResult(10, "potential identity suite (20 instances)",
                           tol_ok and not violations,
                           {"worst": worst, "violations": violations})


def _edge_disjoint_paths(net, a: int, b: int, k: int = 3) -> list[list[int]]:
    """Greedy BFS path family, removing used edges between rounds."""
    n = len(net)
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for i, j, _ in net.edges():
        adj[i].add(j)
        adj[j].add(i)
    out = []
    for _ in range(k):
        prev = {a: -1}
        frontier = [a]
        found = None
        while frontier and found is None:
            nxt = []
            for x in frontier:
                for y in sorted(adj[x]):
                    if y not in prev:
                        prev[y] = x
                        if y == b:
                            found = y
                            break
                        nxt.append(y)
                if found:
                    break
            frontier = nxt
        if found is None:
            break
        path = [found]
        while prev[path[-1]] != -1:
            path.append(prev[path[-1]])
        path.reverse()
        for x, y in zip(path, path[1:]):
            adj[x].discard(y)
            adj[y].discard(x)
        out.append(path)
    return out


def criterion_11() -> CriterionResult:
    """No-trap certificates across the four benchmark graphs (alpha 2/5)."""
    a = Fraction(2, 5)
    results = {}
    ok = True
    for spec, want in (("complete:2x3", "certified"), ("cycle:6", "certified"),
                       ("ladder:4", "certified"), ("path:6", "refuted")):
        g = build_family(spec)
        spc = enumerate_space(g)
        rep = no_trap_certificate(spc, a)
        results[spec] = {"status": rep.status, "traps": rep.trap_states}
        ok &= rep.status == want
        if spec == "path:6":
            ok &= len(rep.trap_states) > 0
    return CriterionResult(11, "no-trap certificates", ok, results)


def criterion_12() -> CriterionResult:
    """Monotone coupling: zero order violations over 100 x 1e4 steps."""
    from .configspace import join, meet

    total_viol = 0
    for spec in ("torus:4x4", "complete:2x3"):
        g = build_family(spec)
        spc = enumerate_space(g)
        par = ModelParams.for_graph(g, 10.0, alpha=HALF)
        rng = np.random.default_rng(99)
        for run in range(100):
            if run % 3 == 0:
                lo, hi = spc.u_mask, spc.v_mask     # u below v
            else:
                x = spc.configs[int(rng.integers(0, len(spc)))]
                y = spc.configs[int(rng.integers(0, len(spc)))]
                lo, hi = meet(spc, x, y), join(spc, x, y)
            cr = coupled_simulate(spc, par, par, lo, hi, 10_000,
                                  seed=run, record=False)
            total_viol += len(cr.violations)
    return CriterionResult(12, "monotone coupling, zero violations",
                           total_viol == 0, {"violations": total_viol})


def criterion_13() -> CriterionResult:
    """Symbolic Psi exponent vs finite-lambda slope on three graphs."""
    results = {}
    ok = True
    for spec in ("cycle:6", "ladder:4", "complete:2x3"):
        g = build_family(spec)
        spc = enumerate_space(g)
        ju, _ = dominance_sets(spc, spc.u_state, HALF)
        sym = psi_symbolic(spc, {spc.u_state}, ju, HALF)
        wu = spc.weight_exponent(spc.u_mask)
        expo = float(sym.normalized_exponent(wu).value(HALF))
        vals = []
        for lam in (1e3, 1e4):
            par = ModelParams.for_graph(g, lam, alpha=HALF)
            net = build_network(spc, par)
            psi = critical_resistance(net, {spc.u_state}, ju)
            vals.append(psi.value * net.pi[spc.u_state] / par.gamma)
        slope = (math.log(vals[1]) - math.log(vals[0])) / (math.log(1e4) - math.log(1e3))
        results[spec] = {"symbolic": expo, "slope": slope}
        ok &= abs(slope - expo) <= 0.05
    return CriterionResult(13, "symbolic vs numeric Psi exponent", ok, results)


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11, 12: criterion_12,
    13: criterion_13,
}


def run_criterion(number: int, threads: int = 1) -> CriterionResult:
    fn = CRITERIA[number]
    t0 = time.time()
    if number in (4, 5, 6):
        res = fn(threads=threads)
    else:
        res = fn()
    res.seconds = time.time() - t0
    return res


def run_all(numbers=None, threads: int = 1) -> list[CriterionResult]:
    numbers = sorted(numbers) if numbers else sorted(CRITERIA)
    return [run_criterion(k, threads=threads) for k in numbers]
