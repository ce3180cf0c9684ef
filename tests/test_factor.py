"""One elimination per E_a[T_B]: the voltage, R and both E[T] routes read
one factor of the orbit network."""
from fractions import Fraction

import numpy as np
import pytest

from hcmeta import potential
from hcmeta.configspace import ModelParams, enumerate_space
from hcmeta.graph import build_family
from hcmeta.potential import (build_network, effective_resistance,
                              expected_hitting_time, voltage, voltage_bound_check)
from test_elimination import exact_references

HALF = Fraction(1, 2)


def _net(spec: str, lam: float):
    g = build_family(spec)
    spc = enumerate_space(g)
    par = ModelParams.for_graph(g, lam, alpha=HALF)
    return spc, par, build_network(spc, par)


def _counted(monkeypatch, name: str) -> list:
    """Replace the module global ``name`` with a wrapper that logs its calls."""
    calls, fn = [], getattr(potential, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(potential, name, wrapper)
    return calls


@pytest.mark.parametrize("spec", ["cycle:12", "path:15", "ladder:4"])
def test_one_lump_and_one_factor_per_hitting_time(monkeypatch, spec):
    spc, _, net = _net(spec, 100.0)
    net.symmetries                      # cached before counting
    lumps, factors, solves = (_counted(monkeypatch, name)
                              for name in ("_lump", "_eliminate", "voltage"))
    ht = expected_hitting_time(net, spc.u_state, {spc.v_state})
    assert len(lumps) == len(factors) == len(solves) == 1
    assert ht.rel_gap <= 1e-12


@pytest.mark.parametrize("spec", ["cycle:8", "ladder:6"])
def test_voltage_bound_check_eliminates_each_pair_once(monkeypatch, spec):
    # the voltage between A and B, then R(x, A) and R(x, B); R(A, B) is
    # read from the voltage's factor
    spc, _, net = _net(spec, 100.0)
    u, v = spc.u_state, spc.v_state
    x = next(i for i in range(len(net)) if i not in (u, v))
    factors = _counted(monkeypatch, "_eliminate")
    assert voltage_bound_check(net, {u}, {v}, x).all_ok
    assert len(factors) == 3


CASES = [("cycle:12", 100.0), ("path:15", 100.0), ("ladder:4", 1e4),
         ("torus:4x4", 1e6)]


@pytest.mark.parametrize("spec,lam", CASES, ids=[f"{s}@{l:g}" for s, l in CASES])
def test_hitting_time_reads_the_voltage_factor(spec, lam):
    spc, _, net = _net(spec, lam)
    u = spc.u_state
    for b in (spc.v_state, spc.empty_index):
        A, B = frozenset({u}), frozenset({b})
        lumped, orbit = potential._lump(net, A, B)
        c, w, mass = potential._star_mesh(lumped, potential._orbits(orbit, A),
                                          potential._orbits(orbit, B))
        field = voltage(net, A, B)
        # W, c(a, B), the carried mass and the orbits: the lumped star-mesh's
        assert field.values.tobytes() == w[orbit].tobytes()
        assert (field.conductance, field.mass, field.orbits) == (c, mass, len(lumped))
        assert effective_resistance(net, A, B) == 1.0 / c
        # the Green route from the field, the first step from its two scalars
        ht = expected_hitting_time(net, u, B)
        r = 1.0 / potential._inflow(net, field.values, B)
        assert ht.value == r * float(net.pi @ field.values)
        assert ht.first_step == mass / c
        assert ht.orbits == field.orbits
        assert ht.rel_gap <= 1e-12


def test_carried_mass_is_the_pi_weighted_voltage():
    # with several states in A and B the forward sweep still carries
    # sum_x pi(x) W(x) to A, and the factor's c(A, B) is 1 / R(A, B)
    spc, _, net = _net("torus:4x4", 1e4)
    u, v = spc.u_state, spc.v_state
    A = frozenset({u, *net.kernel.row(u)[0]})
    B = frozenset({v, *net.kernel.row(v)[0]})
    field = voltage(net, A, B)
    assert field.mass == pytest.approx(float(net.pi @ field.values), rel=1e-12)
    assert field.conductance == pytest.approx(
        1.0 / effective_resistance(net, A, B), rel=1e-15)


@pytest.mark.parametrize("lam", [1e2, 1e4, 1e6])
def test_first_step_against_exact_rationals_from_an_unfixed_start(lam):
    # a: one particle on a U site of cycle:8, moved by some generators, so
    # the voltage lumps only by those that fix it
    g = build_family("cycle:8")
    spc = enumerate_space(g)
    par = ModelParams.for_graph(g, lam, alpha=HALF)
    net = build_network(spc, par)
    a = spc.require(1 << g.u_sites[0])
    assert any(p[a] != a for p in net.symmetries)
    for b in (spc.v_state, spc.empty_index):
        e = exact_references(spc, par, a, b)[1]
        ht = expected_hitting_time(net, a, {b})
        assert ht.orbits < len(net)
        for got in (ht.value, ht.first_step):
            assert float(abs(Fraction(got) - e) / e) <= 1e-12
        assert np.isfinite(ht.rel_gap) and ht.rel_gap <= 1e-12
