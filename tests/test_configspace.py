import io
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest

import hcmeta.configspace as configspace
from hcmeta.configspace import (CapExceeded, ModelParams, config_cost,
                                count_independent_sets, enumerate_space,
                                height, join, leq, meet)
from hcmeta.graph import BipartiteGraph, build_family
from hcmeta.metastability import dominance_sets
from hcmeta.potential import BottleneckTree


def test_known_counts():
    assert len(enumerate_space(build_family("cycle:6"))) == 18
    assert len(enumerate_space(build_family("complete:2x3"))) == 11   # 2^2+2^3-1
    assert len(enumerate_space(build_family("complete:1x1"))) == 3


@pytest.mark.parametrize("spec", ["cycle:8", "path:7", "torus:4x4",
                                  "ladder:6", "random:4x4:0.4:3", "hypercube:3"])
def test_enumeration_matches_recursive_count(spec):
    g = build_family(spec)
    spc = enumerate_space(g)
    assert len(spc) == count_independent_sets(g)
    # every enumerated configuration is independent; order is canonical
    assert all(spc.is_valid(m) for m in spc.configs)
    assert spc.configs == sorted(spc.configs)


def test_cap_refusal_names_count():
    g = build_family("torus:4x4")
    with pytest.raises(CapExceeded, match="at least 101"):
        enumerate_space(g, cap=100)


def test_empty_v_rejected():
    g = BipartiteGraph.from_parts(1, 0, [])
    with pytest.raises(ValueError):
        enumerate_space(g)


@pytest.mark.parametrize("lam,alpha,lam_bar", [
    (math.nan, Fraction(1, 2), None), (math.inf, Fraction(1, 2), None),
    (0.0, Fraction(1, 2), None), (-1.0, Fraction(1, 2), None),
    (1e300, Fraction(1, 2), None),              # lambda^(3/2) overflows
    (10.0, None, math.nan), (10.0, None, math.inf), (10.0, None, 0.0),
    (1e308, None, 1e308),                       # finite rates, gamma = inf
])
def test_rates_must_be_finite_and_positive(lam, alpha, lam_bar):
    g = build_family("cycle:6")
    with pytest.raises(ValueError, match="finite and positive|overflows"):
        ModelParams.for_graph(g, lam, alpha, lam_bar)


def test_weights():
    g = build_family("complete:2x3")
    spc = enumerate_space(g)
    par = ModelParams.for_graph(g, 10.0, lam_bar=10.0 ** 1.5)
    assert spc.weight(spc.u_mask, par) == pytest.approx(10.0 ** 2, rel=1e-12)
    assert spc.weight(0, par) == 1.0
    assert spc.weight(spc.v_mask, par) == pytest.approx(10.0 ** 4.5, rel=1e-12)
    pi = spc.stationary(par)
    assert abs(pi.sum() - 1.0) < 1e-12


def test_weight_keys_exact_up_to_the_int64_bound():
    g = build_family("cycle:8")
    spc = enumerate_space(g)

    def python_keys(alpha):
        a, b = alpha.numerator, alpha.denominator
        return [b * (m & spc.u_mask).bit_count() + (a + b) * (m & spc.v_mask).bit_count()
                for m in spc.configs]

    # (1 + b) * 8 sites fits int64 for this b, and not for b + 1
    b = (2 ** 63 - 1) // g.n_sites - 1
    for alpha in (Fraction(2, 5), Fraction(7, 10), Fraction(1, b)):
        keys = spc.weight_keys(alpha)
        assert keys.dtype == np.int64 and keys.tolist() == python_keys(alpha)
        tree_keys = BottleneckTree(spc, alpha).keys
        assert tree_keys.dtype == np.int64 and tree_keys.tolist() == python_keys(alpha)
    for alpha, denominator in ((Fraction(1, b + 1), b + 1),
                               (Fraction(1, 2 ** 60), 2 ** 60),
                               (0.001, Fraction(0.001).denominator)):
        for build in (spc.weight_keys, lambda a: BottleneckTree(spc, a),
                      lambda a: dominance_sets(spc, spc.u_state, a)):
            with pytest.raises(ValueError, match=f"denominator {denominator} "):
                build(alpha)


def test_log_weight_fallback_above_overflow():
    g = build_family("complete:2x3")
    spc = enumerate_space(g)
    par = ModelParams.for_graph(g, 1e250, lam_bar=1e250)
    assert spc.weight(spc.v_mask, par) == math.inf
    assert math.isfinite(spc.log_weight(spc.v_mask, par))
    pi = spc.stationary(par)
    assert abs(pi.sum() - 1.0) < 1e-12


def test_height_values():
    # torus(6,6): H(u) = -18; H(v) = -(1.7)*18 = -153/5; H(empty) = 0.
    g66 = build_family("torus:6x6")
    a = Fraction(7, 10)
    u_mask = sum(1 << s for s in g66.u_sites)
    v_mask = sum(1 << s for s in g66.v_sites)
    assert height(g66, u_mask, a) == Fraction(-18)
    assert height(g66, v_mask, a) == Fraction(-153, 5)
    assert height(g66, 0, a) == 0


def test_config_cost():
    g6 = build_family("cycle:6")
    u_mask6 = sum(1 << s for s in g6.u_sites)
    assert config_cost(g6, u_mask6) == 0
    assert config_cost(g6, 0) == 3
    # torus: x with one V particle and U minus its 4 neighbors -> cost 3
    g = build_family("torus:6x6")
    b = g.v_sites[0]
    u_mask = sum(1 << s for s in g.u_sites)
    x = (u_mask & ~g.neighbor_mask(b)) | (1 << b)
    assert config_cost(g, x) == 3


def test_lattice_ops():
    g = build_family("complete:2x3")
    spc = enumerate_space(g)
    rnd = random.Random(0)
    for m in spc.configs:
        assert join(spc, m, m) == m and meet(spc, m, m) == m
        assert leq(spc, spc.u_mask, m)          # u is the minimum
    for _ in range(200):
        x, y = rnd.choice(spc.configs), rnd.choice(spc.configs)
        j, mt = join(spc, x, y), meet(spc, x, y)
        assert leq(spc, mt, x) and leq(spc, x, j)
        # FKG identity: exact on particle counts and in log space
        cx, cy = spc.counts(x), spc.counts(y)
        cj, cm = spc.counts(j), spc.counts(mt)
        assert (cj[0] + cm[0], cj[1] + cm[1]) == (cx[0] + cy[0], cx[1] + cy[1])


def test_fkg_weight_identity_log_space():
    g = build_family("torus:4x4")
    spc = enumerate_space(g)
    par = ModelParams.for_graph(g, 7.0, lam_bar=55.0)
    rnd = random.Random(1)
    for _ in range(1000):
        x, y = rnd.choice(spc.configs), rnd.choice(spc.configs)
        lhs = spc.log_weight(join(spc, x, y), par) + spc.log_weight(meet(spc, x, y), par)
        rhs = spc.log_weight(x, par) + spc.log_weight(y, par)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_height_is_order_embedding_of_asymptotic_mass():
    # For alpha with a large denominator, H(x) < H(y) iff pi(x)/pi(y) -> inf.
    g = build_family("complete:2x3")
    spc = enumerate_space(g)
    alpha = Fraction(355, 713)
    lam = 1e6
    par = ModelParams.for_graph(g, lam, alpha=alpha)
    rnd = random.Random(2)
    for _ in range(100):
        x, y = rnd.choice(spc.configs), rnd.choice(spc.configs)
        hx, hy = height(g, x, alpha), height(g, y, alpha)
        lx, ly = spc.log_weight(x, par), spc.log_weight(y, par)
        if hx < hy:
            assert lx > ly
        elif hx > hy:
            assert lx < ly


def test_config_cost_dominates_profile_minimum():
    # config_cost(x) >= Delta(|x_V|), with equality attained at every size.
    from hcmeta.isoperimetry import brute_force_profile

    g = build_family("torus:4x4")
    spc = enumerate_space(g)
    prof = brute_force_profile(g, len(g.v_sites))
    attained = {s: False for s in range(prof.s_max + 1)}
    for m in spc.configs:
        _, nv = spc.counts(m)
        c = config_cost(g, m)
        assert c >= prof.delta(nv)
        if c == prof.delta(nv):
            attained[nv] = True
    assert all(attained.values())


def test_serialize_config():
    spc = enumerate_space(build_family("complete:1x1"))
    obj = spc.serialize_config(spc.u_mask)
    assert obj == {"mask": "1", "occupied": [0]}


def _fake_meminfo(text):
    def fake_open(path, mode="r", buffering=-1):
        assert (path, mode) == ("/proc/meminfo", "rb")
        if text is None:
            raise FileNotFoundError(path)
        return io.BytesIO(text)
    return fake_open


def test_available_memory_reads_mem_available(monkeypatch):
    monkeypatch.setattr(configspace, "open", _fake_meminfo(
        b"MemTotal:        8000000 kB\nMemFree:         1000000 kB\n"
        b"MemAvailable:    6543210 kB\nBuffers:           12345 kB\n"), raising=False)
    assert configspace._available_memory() == 6543210 * 1024


@pytest.mark.parametrize("text", [None, b"MemTotal:        8000000 kB\n"])
def test_available_memory_falls_back_to_free_pages(monkeypatch, text):
    # no /proc/meminfo, or one without the MemAvailable field
    monkeypatch.setattr(configspace, "open", _fake_meminfo(text), raising=False)
    pages = {"SC_AVPHYS_PAGES": 1000, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    assert configspace._available_memory() == 1000 * 4096
