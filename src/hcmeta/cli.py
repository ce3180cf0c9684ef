"""Reproducible experiment driver.

Exit codes: 0 success, 2 invalid configuration, 3 refusal (a state cap, a
search's node budget or a byte estimate), 4 verification or comparison failure.

Artifacts: single JSON for analyses (a ``generated_at`` timestamp field is
the only run-dependent content), JSON-lines for samples, CSV for profiles.
Floats are serialized with Python's shortest round-trip representation;
every artifact is strict JSON (no NaN or Infinity), and a statistic with no
value, such as a variance from one sample, is written as null.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

# each command imports the layers it runs; main() catches these modules' errors
from .asymptotics import parse_fraction
from .configspace import DEFAULT_CAP, CapExceeded, ModelParams, enumerate_space
from .graph import GraphValidationError, parse_graph_spec, validate

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4

ROUTE_GAP_TOL = 1e-6            # E[T] routes must agree to this relative gap


def _emit(obj: dict, path: str | None) -> None:
    obj = {"generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), **obj}
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _write_text(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _params(g, args) -> ModelParams:
    alpha = parse_fraction(args.alpha) if args.alpha else None
    lam_bar = getattr(args, "lambda_bar", None)
    return ModelParams.for_graph(g, args.lam, alpha=alpha, lam_bar=lam_bar)


def cmd_enumerate(args) -> int:
    g = parse_graph_spec(args.graph)
    spc = enumerate_space(g, cap=args.cap)
    rep = validate(g)
    _emit({"graph": args.graph, "n_states": len(spc),
           "n_u": rep.n_u, "n_v": rep.n_v, "n_edges": rep.n_edges,
           "regular_degree": rep.regular_degree,
           "girth_lower_bound": rep.girth_lower_bound,
           "u_index": spc.u_state, "v_index": spc.v_state,
           "empty_index": spc.empty_index,
           "u_config": spc.serialize_config(spc.u_mask),
           "v_config": spc.serialize_config(spc.v_mask)}, args.output)
    return EXIT_OK


def cmd_resistance(args) -> int:
    from .potential import (build_network, critical_resistance,
                            effective_resistance, psi_symbolic)
    g = parse_graph_spec(args.graph)
    spc = enumerate_space(g, cap=args.cap)
    par = _params(g, args)
    net = build_network(spc, par)
    u, v = spc.u_state, spc.v_state
    r = effective_resistance(net, {u}, {v})
    psi = critical_resistance(net, {u}, {v})
    alpha = parse_fraction(args.alpha)
    sym = psi_symbolic(spc, {u}, {v}, alpha)
    wu = spc.weight_exponent(spc.u_mask)
    norm = sym.normalized_exponent(wu)
    _emit({"graph": args.graph, "lambda": par.lam, "lambda_bar": par.lam_bar,
           "gamma": par.gamma, "R": r, "C": 1.0 / r, "psi": psi.value,
           "psi_exponent": [str(norm.p), str(norm.q)],
           "psi_exponent_note": "exponent of pi(u)*Psi(u,v)/gamma",
           "order_tie": sym.is_tie,
           "witness_path": psi.witness_path}, args.output)
    return EXIT_OK


def cmd_hitting(args) -> int:
    from .potential import build_network, expected_hitting_time
    g = parse_graph_spec(args.graph)
    spc = enumerate_space(g, cap=args.cap)
    par = _params(g, args)
    net = build_network(spc, par)
    ht = expected_hitting_time(net, spc.u_state, {spc.v_state})
    _emit({"graph": args.graph, "lambda": par.lam, "lambda_bar": par.lam_bar,
           "E_steps": ht.value, "E_steps_first_step_route": ht.first_step,
           "route_rel_gap": ht.rel_gap,
           "E_continuous": ht.continuous(par)}, args.output)
    if ht.rel_gap > ROUTE_GAP_TOL:
        print(f"E[T] routes disagree: relative gap {ht.rel_gap:.3g} > "
              f"{ROUTE_GAP_TOL:g}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_isoperimetry(args) -> int:
    from .isoperimetry import brute_force_profile
    g = parse_graph_spec(args.graph)
    fam = g.meta.get("family")
    rows = []
    mismatches = 0
    prof = None
    s_max = args.s_max
    if s_max < 0:
        raise ValueError(f"--s-max must be nonnegative, got {s_max}")
    if args.brute_force:
        prof = brute_force_profile(g, s_max)
        s_max = prof.s_max                  # clamped to |V|
    for s in range(s_max + 1):
        brute = prof.delta(s) if prof else None
        closed = None
        prov = "brute-force" if brute is not None else f"closed-form:{fam}"
        if args.compare == "closed-form" or not args.brute_force:
            try:
                closed = _closed_delta(g, fam, s)
            except GraphValidationError:
                raise                       # the family has no closed form
            except ValueError:
                if brute is None:           # nothing else to report for s
                    raise
                prov = "brute-force:outside-window"
        delta = brute if brute is not None else closed
        wit = len(prof.witnesses.get(s, [])) if prof else 0
        rows.append(f"{s},{delta},{prov},{wit}")
        if brute is not None and closed is not None and brute != closed:
            mismatches += 1
    _write_text("s,delta,provenance,witness_count\n" + "\n".join(rows) + "\n",
                args.output)
    if args.compare and mismatches:
        print(f"comparison failed on {mismatches} sizes", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _closed_delta(g, fam: str | None, s: int) -> int:
    from .isoperimetry import closed_form_profile, hypercube_delta
    if fam == "torus":
        return closed_form_profile("torus", s, dims=g.meta["dims"])
    if fam == "doubled-torus":
        return closed_form_profile("doubled_torus", s, dims=g.meta["dims"])
    if fam == "hypercube":
        return hypercube_delta(g.meta["d"], s)
    if fam == "cycle":
        return closed_form_profile("tree_like", s, degree=2,
                                   girth=g.meta["length"]) if s else 0
    raise GraphValidationError(
        f"no closed form for family {fam!r}; use --brute-force")


def cmd_critical(args) -> int:
    from .metastability import check_hypotheses, crossover_prediction
    g = parse_graph_spec(args.graph)
    alpha = parse_fraction(args.alpha)
    rep = check_hypotheses(g, alpha)
    pred = crossover_prediction(rep.analysis)
    out = rep.as_json_obj()
    out.update({"graph": args.graph,
                "exponent": pred.exponent.as_json(),
                "g_star": str(rep.analysis.g_star)})
    _emit(out, args.output)
    return EXIT_OK


def cmd_gate(args) -> int:
    from .metastability import build_gate, check_hypotheses, crossover_prediction
    g = parse_graph_spec(args.graph)
    alpha = parse_fraction(args.alpha)
    gate = build_gate(g, alpha, kappa=args.kappa)
    rep = check_hypotheses(g, alpha, kappa=args.kappa)
    pred = crossover_prediction(rep.analysis, gate)
    out = gate.as_json_obj()
    out.update({"graph": args.graph, "alpha": str(alpha),
                "s_tilde": rep.analysis.s_tilde,
                "g_star": str(rep.analysis.g_star),
                "exponent": pred.exponent.as_json(),
                "sharp_prefactor": 1.0 / gate.count,
                "hypotheses": {k: v.status for k, v in rep.statuses.items()}})
    if args.lam is not None:
        par = _params(g, args)
        out["sharp_value"] = pred.sharp_value(par, rep.analysis.s_star,
                                              rep.analysis.delta_s_star)
    _emit(out, args.output)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .dynamics import build_kernel, sample_crossover
    g = parse_graph_spec(args.graph)
    spc = enumerate_space(g, cap=args.cap)
    par = _params(g, args)
    kern = build_kernel(spc, par)
    watch = None
    gate = None
    if args.gate_watch:
        from .metastability import build_gate, gate_statistics
        gate = build_gate(g, parse_fraction(args.alpha))
        watch = gate.transition_indices(spc)
    samples, summ = sample_crossover(
        kern, spc.u_state, [spc.v_state], args.samples, base_seed=args.seed,
        step_cap=args.step_cap, gate_watch=watch,
        embed_clock=args.embed_clock or bool(args.ks_exponential),
        threads=args.threads)
    if args.output:
        with open(args.output, "w") as f:
            for i, s in enumerate(samples):
                f.write(json.dumps(s.as_json_obj(i), sort_keys=True,
                                   allow_nan=False) + "\n")
    out = {"graph": args.graph, "lambda": par.lam, "lambda_bar": par.lam_bar,
           "gamma": par.gamma, "samples": summ.n, "timeouts": summ.timeouts,
           "mean_steps": summ.mean_steps, "mean_t_hat": summ.mean_t_hat,
           "var_t_hat": summ.var_t_hat, "seed": args.seed}
    code = EXIT_OK
    if args.ks_exponential:
        from .stats import KS_MIN_SAMPLES, ks_exponential_test
        done = [s.t_hat for s in samples if not s.timed_out]
        if len(done) < KS_MIN_SAMPLES:      # timeouts took too many samples
            print(f"ks: {len(done)} samples finished, the test needs "
                  f"{KS_MIN_SAMPLES}", file=sys.stderr)
            out["ks"] = None
            out["finished"] = len(done)
            code = EXIT_VERIFY
        else:
            rep = ks_exponential_test(done, threshold=args.ks_threshold)
            out["ks"] = rep.as_json_obj()
            if not rep.passed:
                code = EXIT_VERIFY
    if watch is not None:
        st = gate_statistics(samples, watch)
        out["gate"] = st.as_json_obj()
        out["gate_count"] = gate.count
    _emit(out, args.summary)
    return code


def cmd_notrap(args) -> int:
    from .metastability import no_trap_certificate
    g = parse_graph_spec(args.graph)
    spc = enumerate_space(g, cap=args.cap)
    rep = no_trap_certificate(spc, parse_fraction(args.alpha))
    _emit({"graph": args.graph, "alpha": args.alpha, **rep.as_json_obj()},
          args.output)
    return EXIT_OK if rep.certified else EXIT_VERIFY


def cmd_verify(args) -> int:
    from .verify import run_all
    numbers = None
    if args.criteria:
        numbers = [int(x) for x in args.criteria.split(",")]
    results = run_all(numbers, threads=args.threads)
    for r in results:
        print(r.line())
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} criteria passed")
    if args.output:
        _emit({"results": [{"number": r.number, "name": r.name,
                            "passed": r.passed, "seconds": r.seconds}
                           for r in results]}, args.output)
    return EXIT_OK if passed == len(results) else EXIT_VERIFY


def _add_common(p, *groups: str):
    """--graph, -o and the named groups: alpha, rates (--lambda[-bar]), cap."""
    p.add_argument("--graph", required=True,
                   help="e.g. torus:6x6, cycle:8, doubled(torus:5x5), hypercube:4")
    if "alpha" in groups:
        p.add_argument("--alpha", help="imbalance exponent as a fraction, e.g. 7/10")
    if "rates" in groups:
        p.add_argument("--lambda", dest="lam", type=float,
                       help="activity on U (lambda_bar = lambda^(1+alpha))")
        p.add_argument("--lambda-bar", dest="lambda_bar", type=float,
                       help="explicit activity on V (overrides alpha scaling)")
    if "cap" in groups:
        p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                       help="state-count cap for enumeration")
    p.add_argument("-o", "--output", help="artifact path (stdout if omitted)")


def _env_threads() -> int:
    text = os.environ.get("HCMETA_THREADS", "1")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"HCMETA_THREADS must be an integer, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hcmeta",
        description="Hard-core metastability on bipartite graphs: exact "
                    "potential theory, isoperimetry, critical gates, Monte Carlo.")
    ap.add_argument("--threads", type=int, default=_env_threads(),
                    help="worker processes for sampling (HCMETA_THREADS)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate the configuration space")
    _add_common(p, "cap")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("resistance", help="effective + critical resistance u->v")
    _add_common(p, "alpha", "rates", "cap")
    p.set_defaults(fn=cmd_resistance)

    p = sub.add_parser("hitting", help="exact expected hitting time u->v")
    _add_common(p, "alpha", "rates", "cap")
    p.set_defaults(fn=cmd_hitting)

    p = sub.add_parser("isoperimetry", help="isoperimetric profile (CSV)")
    _add_common(p)
    p.add_argument("--s-max", type=int, required=True)
    p.add_argument("--brute-force", action="store_true")
    p.add_argument("--compare", choices=["closed-form"])
    p.set_defaults(fn=cmd_isoperimetry)

    p = sub.add_parser("critical", help="critical size analysis + hypotheses")
    _add_common(p, "alpha")
    p.set_defaults(fn=cmd_critical)

    p = sub.add_parser("gate", help="critical gate families and count")
    _add_common(p, "alpha", "rates")
    p.add_argument("--kappa", type=int)
    p.set_defaults(fn=cmd_gate)

    p = sub.add_parser("simulate", help="Monte Carlo crossover sampling")
    _add_common(p, "alpha", "rates", "cap")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step-cap", type=int, default=10_000_000_000)
    p.add_argument("--embed-clock", action="store_true",
                   help="draw continuous times from the embedded Poisson clock")
    p.add_argument("--ks-exponential", action="store_true",
                   help="KS test of scaled times against the unit exponential")
    p.add_argument("--ks-threshold", type=float, default=0.01)
    p.add_argument("--gate-watch", action="store_true",
                   help="record crossings of the critical gate")
    p.add_argument("--summary", help="summary JSON path (stdout if omitted)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("notrap", help="no-trap certificate")
    _add_common(p, "alpha", "cap")
    p.set_defaults(fn=cmd_notrap)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--criteria", help="comma-separated criterion numbers")
    p.add_argument("-o", "--output", help="results JSON path")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else 0
    except ValueError as exc:                   # a bad HCMETA_THREADS
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID
    needs_alpha = {"resistance", "critical", "gate", "notrap"}
    needs_rates = {"resistance", "hitting", "simulate"}
    try:
        cmd = args.command
        if args.threads < 1:
            raise ValueError(f"--threads (or HCMETA_THREADS) must be at least 1, "
                             f"got {args.threads}")
        if cmd in needs_rates and getattr(args, "lam", None) is None:
            raise ValueError(f"--lambda is required for {cmd}")
        if cmd in needs_alpha and getattr(args, "alpha", None) is None:
            raise ValueError(f"--alpha is required for {cmd}")
        if cmd in needs_rates and getattr(args, "alpha", None) is None \
                and getattr(args, "lambda_bar", None) is None:
            raise ValueError(f"{cmd} needs --alpha or --lambda-bar")
        if getattr(args, "cap", 0) < 0:
            raise ValueError(f"--cap must be nonnegative, got {args.cap}")
        if cmd == "simulate" and not 0 < args.ks_threshold < 1:
            raise ValueError(f"--ks-threshold must lie in (0, 1), "
                             f"got {args.ks_threshold}")
        if cmd == "simulate" and args.gate_watch and args.alpha is None:
            raise ValueError("--gate-watch needs --alpha")
        if cmd == "simulate" and args.ks_exponential:
            from .stats import KS_MIN_SAMPLES
            if args.samples < KS_MIN_SAMPLES:
                raise ValueError(f"--ks-exponential needs --samples of at least "
                                 f"{KS_MIN_SAMPLES}, got {args.samples}")
        return args.fn(args)
    except CapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, GraphValidationError, KeyError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
