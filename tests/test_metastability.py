from fractions import Fraction
from functools import partial

import pytest

from hcmeta import metastability
from hcmeta.asymptotics import AsymptoticExponent
from hcmeta.configspace import CapExceeded, ModelParams, enumerate_space
from hcmeta.graph import build_family
from hcmeta.isoperimetry import (_Budget, _walk, brute_force_profile,
                                 doubled_torus_delta, hypercube_delta, torus_delta)
from hcmeta.metastability import (CriticalGate, _gate_from_families, _site_mask,
                                  build_gate, check_hypotheses,
                                  critical_analysis, crossover_prediction,
                                  dominance_sets, doubled_torus_critical_size,
                                  find_isoperimetric_numbering, gate_statistics,
                                  mandatory_passage, no_trap_certificate,
                                  profile_function, torus_critical_size)
from hcmeta.potential import psi_symbolic

HALF = Fraction(1, 2)


def test_critical_analysis_torus_values():
    a = Fraction(7, 10)
    ca = critical_analysis(torus_delta, a, 100)
    assert ca.s_star == 3 and ca.s_tilde == 12 and ca.unique_max
    assert ca.g_star == Fraction(36, 10)
    g = lambda s: Fraction(torus_delta(s)) - a * (s - 1)
    assert [g(s) for s in (1, 2, 3, 4)] == [
        Fraction(3), Fraction(33, 10), Fraction(36, 10), Fraction(29, 10)]


def test_critical_analysis_no_resettle_error():
    with pytest.raises(ValueError, match="no resettling"):
        critical_analysis(lambda s: 2 * s + 1, HALF, 50)


def test_critical_analysis_fixpoint_past_first_resettle():
    # A profile whose g peaks strictly between the first resettle and s~:
    # Delta = [0, 0, 5, 1, ...]: s = 1 resettles at alpha = 1/2 but the
    # maximizer domain {1..s~} = {1..3} puts s* at 2.
    deltas = [0, 0, 5, 1, 1, 1]
    ca = critical_analysis(lambda s: deltas[s], HALF, 5)
    assert ca.s_star == 2
    assert ca.s_tilde == 3
    assert ca.g_star == Fraction(9, 2)


def _fixpoint_analysis(delta_fn, alpha, bound, n_u=None):
    """The earlier critical_analysis, kept as a reference: Delta read on
    0..bound, then the fixpoint of s* over {1..s~} and s~ after s*."""
    alpha = Fraction(alpha)
    deltas = [Fraction(delta_fn(s)) for s in range(bound + 1)]
    resettles = [s for s in range(1, bound + 1) if deltas[s] <= alpha * s]
    if not resettles:
        raise ValueError(
            f"no resettling size within bound {bound}: Delta(s) > alpha*s throughout")

    def g(s):
        return deltas[s] - alpha * (s - 1)

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
    return metastability.CriticalAnalysis(
        alpha=alpha, s_star=s_star, g_star=g_star, s_tilde=s_tilde,
        delta_s_star=int(deltas[s_star]), unique_max=len(tied) == 1,
        tied_maximizers=tied, t_star=t_star)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


# name -> (delta_fn, bounds): the lattice forms to generous bounds, a
# hypercube to |V|, a profile with one resettling size, at s* = 1, and one
# with none; the brute-force profiles below run to every bound up to |V|
SCAN_CASES = {
    "torus": (torus_delta, (3, 100)),
    "doubled": (doubled_torus_delta, (4, 200)),
    "hypercube:5": (lambda s: hypercube_delta(5, s), (5, 16)),
    "rises": ([0, 0, 3, 5].__getitem__, (3,)),
    "never": (lambda s: 2 * s + 1, (50,)),
}


@pytest.mark.parametrize("name", [*SCAN_CASES, "ladder:8", "path:10", "random:6x6:0.5:1"])
def test_critical_analysis_scan_equals_fixpoint(name):
    if name in SCAN_CASES:
        delta_fn, bounds = SCAN_CASES[name]
    else:
        prof = brute_force_profile(build_family(name), 36)
        delta_fn, bounds = prof.delta, range(prof.s_max + 1)
    for alpha in [Fraction(k, 20) for k in range(1, 20)] + [Fraction(1, 3),
                                                           Fraction(2, 3)]:
        for bound in bounds:
            want = _outcome(_fixpoint_analysis, delta_fn, alpha, bound, 7)
            assert _outcome(critical_analysis, delta_fn, alpha, bound, 7) == want


@pytest.mark.parametrize("spec", ["torus", "ladder:8", "path:10"])
def test_critical_analysis_reads_delta_no_further_than_s_tilde(spec):
    if spec == "torus":
        full, bound = torus_delta, 100
    else:
        prof = brute_force_profile(build_family(spec), 20)
        full, bound = prof.delta, prof.s_max
    for alpha in (Fraction(7, 10), HALF, Fraction(2, 5), Fraction(3, 10)):
        s_tilde = _fixpoint_analysis(full, alpha, bound).s_tilde

        def delta_fn(s):
            assert s <= s_tilde, f"Delta({s}) read past s~ = {s_tilde}"
            return full(s)

        assert critical_analysis(delta_fn, alpha, bound).s_tilde == s_tilde


@pytest.mark.parametrize("a,ell,s", [
    (Fraction(7, 10), 2, 3), (Fraction(11, 20), 2, 3),
    (Fraction(2, 5), 3, 7), (Fraction(3, 10), 4, 13)])
def test_torus_closed_form_sizes(a, ell, s):
    e, ss, generic = torus_critical_size(a)
    assert (e, ss) == (ell, s)
    ca = critical_analysis(torus_delta, a, 400)
    assert ca.s_star == ss and ca.unique_max
    if a == Fraction(2, 5):
        assert not generic             # 2/alpha integer: lemma hypothesis fails


def test_torus_h3_tie_when_two_over_alpha_integral():
    # alpha = 1/2 makes 2/alpha integral and g genuinely tie on the torus.
    ca = critical_analysis(torus_delta, HALF, 100)
    assert not ca.unique_max
    assert ca.tied_maximizers == [3, 5, 7]


@pytest.mark.parametrize("a,s,case", [
    (Fraction(7, 10), 4, 2), (Fraction(11, 20), 7, 1),
    (Fraction(3, 10), 22, 2), (Fraction(12, 25), 11, 2), (Fraction(3, 5), 7, 1)])
def test_doubled_torus_closed_form_four_quarters(a, s, case):
    ell, ss, cs, generic = doubled_torus_critical_size(a)
    assert (ss, cs) == (s, case) and generic
    ca = critical_analysis(doubled_torus_delta, a, 600)
    assert ca.s_star == s and ca.unique_max


def test_doubled_torus_half_integer_refusal_and_tie():
    a = Fraction(2, 5)
    with pytest.raises(ValueError):
        doubled_torus_critical_size(a)
    ca = critical_analysis(doubled_torus_delta, a, 400)
    assert not ca.unique_max and ca.tied_maximizers == [11, 16]


def test_dominance_sets():
    g = build_family("complete:2x3")
    spc = enumerate_space(g)
    a = HALF
    _, jm_v = dominance_sets(spc, spc.v_state, a)
    assert jm_v == set()                      # v is the stable state under H0
    j_e, jm_e = dominance_sets(spc, spc.empty_index, a)
    assert spc.u_state in jm_e and spc.v_state in jm_e
    # J(u) against a numeric probe of pi-ratios at lambda = 1e6
    par = ModelParams.for_graph(g, 1e6, alpha=a)
    lw = spc.log_weights(par)
    j_u, _ = dominance_sets(spc, spc.u_state, a)
    for x in range(len(spc)):
        if x == spc.u_state:
            continue
        assert (x in j_u) == (lw[x] >= lw[spc.u_state] - 1e-9)


def test_check_hypotheses_torus():
    g = build_family("torus:6x6")
    rep = check_hypotheses(g, Fraction(7, 10))
    assert all(rep.statuses[k].holds for k in ("stability", "numbering", "numbering_all_starts", "uniqueness", "profile_values", "progressions"))
    assert rep.statuses["numbering"].status == "closed-form"
    assert rep.analysis.s_star == 3 and rep.kappa == 1
    assert rep.analysis.t_star == 18 - 3 - 5
    # 2,406,862 states: refused by the state cap, which names the count
    assert rep.statuses["no_trap"].status == "exhausted-budget"
    assert "at least 100001 states" in rep.statuses["no_trap"].evidence


def test_check_hypotheses_cycle_and_path():
    rep = check_hypotheses(build_family("cycle:6"), HALF)
    # s~ is defined as the smallest size strictly above s*, so s* = 1 makes
    # s~ = ceil(1/alpha) = 2 on the cycle (Delta(2) = 1 <= 2 alpha).
    assert rep.analysis.s_star == 1 and rep.analysis.s_tilde == 2
    assert rep.statuses["stability"].holds
    # odd path: a numbering cannot start at an interior V-site (H2 refuted)
    # and the no-trap flag fires
    rep = check_hypotheses(build_family("path:6"), Fraction(2, 5))
    assert rep.statuses["numbering_all_starts"].status == "refuted"
    assert rep.statuses["no_trap"].status == "refuted"
    assert "absence of traps" in rep.statuses["no_trap"].evidence
    rep = check_hypotheses(build_family("cycle:6"), Fraction(2, 5))
    assert rep.statuses["no_trap"].status == "verified"


def test_progressions_accept_family_c_at_the_resettling_size():
    # s* = 1 and kappa = 1: family C's members have size s~ = 2 already
    rep = check_hypotheses(build_family("path:6"), HALF)
    assert (rep.analysis.s_star, rep.kappa, rep.analysis.s_tilde) == (1, 1, 2)
    assert rep.statuses["progressions"].status == "verified"


def test_check_hypotheses_generic_route():
    g = build_family("complete:2x3")
    rep = check_hypotheses(g, HALF)
    assert rep.statuses["numbering"].status == "verified"
    assert rep.statuses["numbering_all_starts"].status == "verified"
    assert rep.statuses["progressions"].status == "verified"


def test_find_isoperimetric_numbering_budget():
    g = build_family("complete:2x3")
    delta_fn, bound, _ = profile_function(g, HALF)
    num, exhausted = find_isoperimetric_numbering(g, delta_fn, 2, budget=1)
    assert num is None and exhausted


# (graph, length, start) -> (numbering, exhausted) at budgets 1, 2 and 3.  A
# forced start costs its own node, and the V sites are tried in order.
PINNED_NUMBERINGS = [
    ("complete:2x3", 2, None, [(None, True), ([2, 3], False), ([2, 3], False)]),
    ("complete:2x3", 2, 2, [(None, True), ([2, 3], False), ([2, 3], False)]),
    ("complete:2x3", 2, 3, [(None, True), ([3, 2], False), ([3, 2], False)]),
    ("complete:2x3", 2, 4, [(None, True), ([4, 2], False), ([4, 2], False)]),
    ("complete:2x3", 3, None, [(None, True), (None, True), ([2, 3, 4], False)]),
    ("complete:2x3", 3, 2, [(None, True), (None, True), ([2, 3, 4], False)]),
    ("complete:2x3", 3, 3, [(None, True), (None, True), ([3, 2, 4], False)]),
    ("complete:2x3", 3, 4, [(None, True), (None, True), ([4, 2, 3], False)]),
    ("path:6", 1, 3, [(None, False)] * 3),
    ("path:6", 2, None, [(None, True), ([5, 4], False), ([5, 4], False)]),
    ("path:6", 2, 3, [(None, False)] * 3),
    ("path:6", 2, 4, [(None, False)] * 3),
    ("path:6", 2, 5, [(None, True), ([5, 4], False), ([5, 4], False)]),
    ("path:6", 3, None, [(None, True), (None, True), ([5, 4, 3], False)]),
    ("path:6", 3, 4, [(None, False)] * 3),
    ("path:6", 3, 5, [(None, True), (None, True), ([5, 4, 3], False)]),
]


@pytest.mark.parametrize("spec,length,start,want", PINNED_NUMBERINGS,
                         ids=[f"{r[0]}-{r[1]}-{r[2]}" for r in PINNED_NUMBERINGS])
def test_find_isoperimetric_numbering_pinned(spec, length, start, want):
    g = build_family(spec)
    delta_fn = profile_function(g, HALF)[0]
    got = [find_isoperimetric_numbering(g, delta_fn, length, start=start, budget=b)
           for b in (1, 2, 3)]
    assert got == want


@pytest.mark.parametrize("spec,alpha,count", [
    ("cycle:6", HALF, 6),                      # 2n
    ("cycle:8", HALF, 8),
    ("ladder:4", HALF, 12),                    # 6n for the doubled cycle
    ("torus:6x6", Fraction(7, 10), 288),       # 4 m n ell*
])
def test_gate_counts(spec, alpha, count):
    gate = build_gate(build_family(spec), alpha)
    assert gate.count == count
    assert len(gate.transitions) == count
    assert not gate.conditional_on_conjecture


def test_cycle_gate_families():
    gate = build_gate(build_family("cycle:6"), HALF)
    assert gate.family_A == [frozenset()]
    g = build_family("cycle:6")
    assert sorted(gate.family_B) == sorted(frozenset({b}) for b in g.v_sites)


@pytest.mark.parametrize("spec,alpha,count", [
    ("doubled(torus:6x6)", Fraction(7, 10), 8 * 36 * 2),      # case 2
    ("doubled(torus:8x8)", Fraction(11, 20), 24 * 64 * 2),    # case 1
])
def test_doubled_gate_counts_conditional(spec, alpha, count):
    gate = build_gate(build_family(spec), alpha)
    assert gate.count == count
    assert gate.conditional_on_conjecture


def test_doubled_gate_characterization_matches_brute_force():
    # The seed-characterization route must reproduce the gate built from
    # complete brute-force witness enumeration at sizes s*-1, s*, s*+kappa.
    g = build_family("doubled(torus:6x6)")
    gate = build_gate(g, Fraction(7, 10))
    prof = brute_force_profile(g, 5)
    fam_a = [frozenset(w) for w in prof.complete_witnesses(3)]
    fam_c = {frozenset(w) for w in prof.complete_witnesses(5)}
    v_all = set(g.v_sites)
    fam_b = [b for b in (frozenset(w) for w in prof.complete_witnesses(4))
             if any(a < b for a in fam_a if len(b - a) == 1)
             and any((b | {x}) in fam_c for x in v_all - b)]
    _, count = _gate_from_families(g, fam_a, fam_b)
    assert count == gate.count == 576
    assert set(fam_a) == set(gate.family_A)
    assert set(fam_b) == set(gate.family_B)


def test_torus_gate_second_instance():
    gate = build_gate(build_family("torus:8x8"), Fraction(7, 10))
    assert gate.count == 4 * 64 * 2


def test_torus_gate_refuses_undersized_torus():
    # the 4x4 torus already has wrap-assisted optima at the critical sizes
    with pytest.raises(ValueError, match="too small"):
        build_gate(build_family("torus:4x4"), Fraction(7, 10))


def test_complete_bipartite_gate_collapses_and_sharp_law():
    # On K_{m,n} every B has N(B) = U, so the family pairs collapse onto
    # Q* = {empty}: m distinct transitions, and the sharp prefactor 1/m is
    # confirmed by the exact solver.
    from hcmeta.configspace import ModelParams, enumerate_space
    from hcmeta.potential import build_network, expected_hitting_time

    g = build_family("complete:2x3")
    gate = build_gate(g, HALF)
    assert gate.count == 2
    assert {y for _, y in gate.transitions} == {0}
    rep = check_hypotheses(g, HALF)
    pred = crossover_prediction(rep.analysis, gate)
    lam = 1e5
    par = ModelParams.for_graph(g, lam, alpha=HALF)
    sharp = pred.sharp_value(par, rep.analysis.s_star, rep.analysis.delta_s_star)
    assert sharp == pytest.approx(lam / 2, rel=1e-12)
    spc = enumerate_space(g)
    net = build_network(spc, par)
    exact = expected_hitting_time(net, spc.u_state, {spc.v_state}).continuous(par)
    assert exact == pytest.approx(sharp, rel=0.01)


def test_gate_refuses_truncated_witnesses(monkeypatch):
    # profiles that keep 5 witnesses per size: the torus gate reads its own
    # profile to s*+kappa, ladder:8's the one that decided s*; both lists of
    # family C are truncated
    monkeypatch.setattr(metastability, "brute_force_profile",
                        partial(brute_force_profile, witness_cap=5))
    for spec in ("torus:6x6", "ladder:8"):
        with pytest.raises(CapExceeded, match="truncated"):
            build_gate(build_family(spec), Fraction(7, 10))


def test_gate_walk_ends_at_the_top_size():
    # The walk back from C on cycle:8 with s* = 1 and kappa = 1 runs over
    # size 1 only.  From {5, 6} it reaches {5} and {6}, but never {4}: the
    # way there, {5} -> {4, 5} -> {4}, steps through a set of C's size,
    # which is an end of a progression, never a step on it.  From {4, 5} it
    # reaches {4} at once.
    g = build_family("cycle:8")
    prof = brute_force_profile(g, 2)

    def walk(fam_c):
        reached, found, exhausted = _walk(g, prof.delta, [_site_mask(c) for c in fam_c],
                                          1, 1, _Budget(100))
        assert (found, exhausted) == (None, False)
        return reached

    reached = walk([{5, 6}])
    assert _site_mask({4}) not in reached and set(reached) == {
        _site_mask(c) for c in ({5, 6}, {5}, {6})}
    assert _site_mask({4}) in walk([{4, 5}])


@pytest.mark.parametrize("spec,alpha", [("random:6x6:0.5:1", Fraction(2, 5)),
                                        ("doubled(torus:10x10)", Fraction(3, 10))])
def test_gate_refuses_an_exhausted_progression_search(monkeypatch, spec, alpha):
    # kappa >= 2 on the witness route and on the doubled-torus route: a walk
    # out of nodes is no answer, and must not drop B's members silently
    monkeypatch.setattr(metastability, "_walk", lambda *args, **kwargs: ({}, None, True))
    with pytest.raises(CapExceeded, match=f"{metastability.GATE_SEARCH_NODES} nodes"):
        build_gate(build_family(spec), alpha)


def test_gate_transitions_are_valid_configurations():
    g = build_family("torus:6x6")
    gate = build_gate(g, Fraction(7, 10))
    nbr = [g.neighbor_mask(s) for s in range(g.n_sites)]

    def independent(mask):
        mm = mask
        while mm:
            low = mm & -mm
            if mask & nbr[low.bit_length() - 1]:
                return False
            mm ^= low
        return True

    for x, y in gate.transitions[:50]:
        assert independent(x) and independent(y)
        diff = x ^ y
        assert diff.bit_count() == 1 and (x & diff)        # x = y + one particle
        assert diff & sum(1 << s for s in g.u_sites)       # the particle is on U


def test_crossover_prediction_values():
    rep_c = check_hypotheses(build_family("cycle:6"), HALF)
    gate_c = build_gate(build_family("cycle:6"), HALF)
    pred = crossover_prediction(rep_c.analysis, gate_c)
    assert pred.exponent == AsymptoticExponent(1, 0)
    par = ModelParams.for_graph(build_family("cycle:6"), 1e3, alpha=HALF)
    sharp = pred.sharp_value(par, rep_c.analysis.s_star, rep_c.analysis.delta_s_star)
    assert sharp == pytest.approx(1e3 / 6, rel=1e-12)

    g = build_family("ladder:4")
    rep_l = check_hypotheses(g, HALF)
    gate_l = build_gate(g, HALF)
    pred = crossover_prediction(rep_l.analysis, gate_l)
    par = ModelParams.for_graph(g, 1e3, alpha=HALF)
    sharp = pred.sharp_value(par, rep_l.analysis.s_star, rep_l.analysis.delta_s_star)
    assert sharp == pytest.approx(1e3 ** 2 / 12, rel=1e-12)

    g = build_family("torus:6x6")
    a = Fraction(7, 10)
    rep_t = check_hypotheses(g, a)
    gate_t = build_gate(g, a)
    pred = crossover_prediction(rep_t.analysis, gate_t)
    # lambda^{l(l+1)+1} / (4 m n l * lambda_bar^{l(l-1)}) with l = 2
    lam = 10.0
    par = ModelParams.for_graph(g, lam, alpha=a)
    want = lam ** 7 / (288 * par.lam_bar ** 2)
    sharp = pred.sharp_value(par, rep_t.analysis.s_star, rep_t.analysis.delta_s_star)
    assert sharp == pytest.approx(want, rel=1e-12)
    assert pred.exponent == AsymptoticExponent.from_powers(7, -2)


_LATTICE_PROFILE_ON_SMALL_TORUS = pytest.mark.xfail(
    strict=True, reason="profile_function gives every torus the lattice torus_delta; "
    "on torus:4x4 and torus:4x6 the true Delta(3) is 4, the lattice value 5")
_LATTICE_PROFILE_ON_SMALL_DOUBLED_TORUS = pytest.mark.xfail(
    strict=True, reason="profile_function gives every doubled torus the lattice "
    "doubled_torus_delta; the exact exponents at 7/10 and 1/2 are 43/10 and 9/2 on "
    "doubled(torus:3x3) and 28/5 and 6 on doubled(torus:4x4), the lattice ones "
    "59/10 and 7")


@pytest.mark.parametrize("alpha", [Fraction(7, 10), HALF], ids=str)
@pytest.mark.parametrize("spec", [
    "cycle:6", "cycle:8", "ladder:4", "ladder:6", "complete:2x3", "hypercube:3",
    "hypercube:4",
    pytest.param("torus:4x4", marks=_LATTICE_PROFILE_ON_SMALL_TORUS),
    pytest.param("torus:4x6", marks=_LATTICE_PROFILE_ON_SMALL_TORUS),
    pytest.param("doubled(torus:3x3)", marks=_LATTICE_PROFILE_ON_SMALL_DOUBLED_TORUS),
    pytest.param("doubled(torus:4x4)", marks=_LATTICE_PROFILE_ON_SMALL_DOUBLED_TORUS),
])
def test_critical_exponent_equals_bottleneck_psi(spec, alpha):
    # The closed-form order Delta(s*) - alpha(s*-1) against the exact order
    # of pi(u) Psi(u, J(u)).  Values, not (p, q) labels: on hypercube:4 at
    # 1/2 the labels are (4, -1) and (5, -3), both 7/2.
    g = build_family(spec)
    spc = enumerate_space(g)
    critical = crossover_prediction(check_hypotheses(g, alpha).analysis).exponent
    ju, _ = dominance_sets(spc, spc.u_state, alpha)
    exact = psi_symbolic(spc, {spc.u_state}, ju, alpha).normalized_exponent(
        spc.weight_exponent(spc.u_mask))
    assert critical.value(alpha) == exact.value(alpha)


@pytest.mark.parametrize("spec,want", [
    ("complete:2x3", "certified"), ("cycle:6", "certified"),
    ("ladder:4", "certified"), ("path:6", "refuted")])
def test_no_trap_certificates(spec, want):
    spc = enumerate_space(build_family(spec))
    rep = no_trap_certificate(spc, Fraction(2, 5))
    assert rep.status == want
    if want == "refuted":
        assert rep.trap_states


def test_no_trap_cycle_at_half_and_path_inconclusive():
    spc = enumerate_space(build_family("cycle:6"))
    assert no_trap_certificate(spc, HALF).status == "certified"
    assert no_trap_certificate(spc, HALF).checked == 16
    spc = enumerate_space(build_family("path:6"))
    assert no_trap_certificate(spc, HALF).status == "inconclusive"
    # the certificate reads the mask array, not a list of every state
    assert "configs" not in spc.__dict__


def test_no_trap_torus_at_half():
    spc = enumerate_space(build_family("torus:4x4"))
    rep = no_trap_certificate(spc, HALF)
    assert rep.status == "certified" and rep.checked == len(spc) - 2
    hyp = check_hypotheses(build_family("torus:4x4"), HALF)
    assert hyp.statuses["no_trap"].status == "verified"


def test_gate_transitions_have_critical_order():
    # condition (a): every gate transition's resistance has the order of
    # Psi(u, J(u)); conditions (b), (c): both sides sit strictly inside.
    for spec, alpha in (("cycle:6", HALF), ("complete:2x3", HALF),
                        ("ladder:4", HALF)):
        g = build_family(spec)
        spc = enumerate_space(g)
        gate = build_gate(g, alpha)
        ju, _ = dominance_sets(spc, spc.u_state, alpha)
        sym = psi_symbolic(spc, {spc.u_state}, ju, alpha)
        wu = spc.weight_exponent(spc.u_mask)
        psi_exp = sym.normalized_exponent(wu).value(alpha)
        for x_mask, y_mask in gate.transitions:
            # r(x, y) = gamma Z / w(x): normalized exponent ord(w_u) - ord(w_x)
            wx = spc.weight_exponent(x_mask)
            r_exp = (wu / wx).value(alpha)
            assert r_exp == psi_exp
        for x_mask, _ in gate.transitions:
            x = spc.require(x_mask)
            s2 = psi_symbolic(spc, {spc.u_state}, {x}, alpha)
            assert s2.normalized_exponent(wu).value(alpha) < psi_exp
        for _, y_mask in gate.transitions:
            y = spc.require(y_mask)
            s3 = psi_symbolic(spc, {y}, ju, alpha)
            wy = spc.weight_exponent(y_mask)
            # pi-free comparison: Psi(y, J(u)) against Psi(u, J(u)) itself
            assert (s3.bottleneck_weight.value(alpha)
                    > sym.bottleneck_weight.value(alpha))


def test_girth_lower_bound_on_hypercube():
    # d-regular bipartite, d > 2, girth 4: the symbolic Psi(u, J(u)) exponent
    # dominates the size-floor(girth/2) landmark exponent.
    for d1 in (3, 4):
        g = build_family(f"hypercube:{d1}")
        spc = enumerate_space(g)
        alpha = Fraction(2, 5)
        s_l = 2                                   # floor(girth / 2), girth = 4
        prof = brute_force_profile(g, s_l)
        landmark = AsymptoticExponent.from_powers(
            prof.delta(s_l) + s_l - 1, -(s_l - 1))
        ju, _ = dominance_sets(spc, spc.u_state, alpha)
        sym = psi_symbolic(spc, {spc.u_state}, ju, alpha)
        wu = spc.weight_exponent(spc.u_mask)
        got = sym.normalized_exponent(wu)
        assert got.value(alpha) >= landmark.value(alpha)


@pytest.mark.parametrize("alpha", [HALF, Fraction(7, 10)], ids=str)
@pytest.mark.parametrize("spec", ["cycle:6", "complete:2x3", "ladder:6",
                                  "hypercube:4", "path:6", "doubled(cycle:10)"])
def test_mandatory_passage(spec, alpha):
    # every optimal u -> v path crosses the gate
    g = build_family(spec)
    assert mandatory_passage(enumerate_space(g), alpha, build_gate(g, alpha))


@pytest.mark.parametrize("spec", ["cycle:6", "ladder:6", "hypercube:4"])
def test_mandatory_passage_fails_on_restricted_b(spec):
    # negative control: the transitions of B's first member alone leave an
    # optimal path open.  complete:2x3 and path:6 have no such control:
    # every B member there yields the same transitions, or |B| = 1.
    g = build_family(spec)
    gate = build_gate(g, HALF)
    transitions, count = _gate_from_families(g, gate.family_A, gate.family_B[:1])
    restricted = CriticalGate(gate.s_star, gate.kappa, gate.family_A,
                              gate.family_B[:1], gate.family_C, transitions, count)
    assert not mandatory_passage(enumerate_space(g), HALF, restricted)


def test_hypercube_hypotheses_and_numeric_critical_size():
    g = build_family("hypercube:4")
    a = Fraction(2, 5)
    rep = check_hypotheses(g, a)
    assert rep.statuses["stability"].holds
    assert rep.statuses["numbering"].status == "closed-form"
    # the critical size is computed numerically from the recursion profile;
    # no closed form is claimed
    assert rep.analysis.s_star >= 1
    ca = critical_analysis(lambda s: hypercube_delta(4, s), a, len(g.v_sites))
    assert ca.s_star == rep.analysis.s_star


def test_gate_statistics_degenerate():
    class _S:
        def __init__(self, ev):
            self.gate_events = ev

    st = gate_statistics([_S([(0, 1)]), _S([(0, 1)])], [(0, 1)])
    assert st.single_crossing_fraction == 1.0
    assert st.counts[(0, 1)] == 2 and st.p_value == 1.0
