import math
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from hcmeta.asymptotics import AsymptoticExponent, OrderTie, parse_fraction
from hcmeta.metastability import gate_statistics
from hcmeta.stats import (TAIL_START, _smirnov_sf, chi_square_sf, kolmogorov_sf,
                          ks_exponential_test)


def test_ks_null_sanity_batches():
    # unit-exponential samples must pass at p > 0.01 in at least 99% of seeds
    passes = 0
    batches = 200
    for seed in range(batches):
        rng = np.random.default_rng(seed)
        rep = ks_exponential_test(rng.exponential(size=2000))
        passes += rep.passed
    assert passes >= 0.99 * batches


def test_ks_rejects_constant():
    rep = ks_exponential_test([2.0] * 500)
    assert rep.p_value < 1e-10 and not rep.passed


def test_ks_rejects_erlang():
    rng = np.random.default_rng(0)
    samples = rng.gamma(shape=3.0, scale=1.0, size=2000)
    rep = ks_exponential_test(samples)
    assert not rep.passed


def test_ks_needs_enough_samples():
    with pytest.raises(ValueError):
        ks_exponential_test([1.0] * 50)


def test_parse_fraction():
    assert parse_fraction("7/10") == Fraction(7, 10)
    assert parse_fraction("0.5") == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_fraction("3/2")


def test_exponent_arithmetic_and_ties():
    a = AsymptoticExponent(1, 0)
    b = AsymptoticExponent(0, 2)
    assert (a * b).as_tuple() == (1, 2)
    assert (a / b).as_tuple() == (1, -2)
    assert a.compare(b, Fraction(2, 5)) > 0          # 1 > 0.8
    with pytest.raises(OrderTie):
        a.compare(b, Fraction(1, 2))                 # 1 == 1 with (p,q) differing
    assert a.compare(AsymptoticExponent(1, 0), Fraction(1, 2)) == 0
    assert AsymptoticExponent.from_powers(2, 3) == AsymptoticExponent(5, 3)


# ----------------------------------------------------------------------------
# Accuracy of the KS and chi-square p-values; scipy and mpmath are references
# ----------------------------------------------------------------------------

def _durbin_sf_40_digits(n, d):
    """1 - P(D_n < d) from Durbin's matrix in 40-digit arithmetic, as the
    vector H^n e_k (Marsaglia, Tsang & Wang 2003)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        nd = mpmath.mpf(d) * n                  # exact: d has 53 bits
        k = int(mpmath.floor(nd)) + 1
        m = 2 * k - 1
        h = k - nd
        fact = [mpmath.factorial(t) for t in range(m + 1)]
        H = [[1 / fact[i - j + 1] if i - j + 1 >= 0 else mpmath.mpf(0)
              for j in range(m)] for i in range(m)]
        for i in range(m):
            H[i][0] -= h ** (i + 1) / fact[i + 1]
            H[m - 1][i] -= h ** (m - i) / fact[m - i]
        if 2 * h > 1:
            H[m - 1][0] += (2 * h - 1) ** m / fact[m]
        rows = [H[i][:i + 2] for i in range(m)]  # lower Hessenberg
        col = [mpmath.mpf(0)] * m
        col[k - 1] = mpmath.mpf(1)
        for _ in range(n):
            col = [mpmath.fdot(r, col) for r in rows]
        return 1 - col[k - 1] * mpmath.factorial(n) / mpmath.mpf(n) ** n


@pytest.mark.parametrize("n", [100, 140, 150, 300])
def test_ks_sf_matches_a_40_digit_durbin_matrix(n):
    # n d^2 on both sides of the switch to the doubled one-sided tail, and
    # n d = 3/4, where k = 1 and the matrix is the single entry 2 n d - 1
    grid = [0.75 / n] + [math.sqrt(x / n) for x in (0.3, 1.0, 2.2, 3.0, 3.99,
                                                     TAIL_START, 5.5)]
    for d in grid:
        assert abs(kolmogorov_sf(n, d) - float(_durbin_sf_40_digits(n, d))) <= 1e-12, d


def _scipy_is_exact(n, d):
    """Where scipy 1.17's ``kstwo.sf`` is exact: n <= 140 throughout (Durbin,
    Pomeranz, and the doubled one-sided tail only above n d^2 = 4); above
    140 its Durbin branch (n d^2 < 2.2 and n d^1.5 <= 1.4), n d <= 1,
    d >= 1/2, and its doubled one-sided tail where the doubling is exact to
    3e-14, n d^2 >= 4.  Between 2.2 and 4 it doubles the one-sided tail, 4e-8
    above the two-sided one at 2.2; elsewhere it takes Pelz-Good's series."""
    x = n * d * d
    return (n <= 140 or n * d <= 1 or d >= 0.5 or x >= TAIL_START
            or (x < 2.2 and n * d ** 1.5 <= 1.4))


@pytest.mark.parametrize("n", [100, 120, 140, 141, 150, 200, 300, 1000, 3000, 10_000])
def test_ks_sf_matches_scipy_kstwo(n):
    stats = pytest.importorskip("scipy.stats")
    xs = np.concatenate([np.geomspace(1e-3, 40, 60), [2.2, 3.99, TAIL_START]])
    grid = [0.6 / n, 1.0 / n, 0.5, 0.9] + [math.sqrt(x / n) for x in xs]
    for d in grid:
        err = abs(kolmogorov_sf(n, d) - float(stats.kstwo.sf(d, n)))
        assert err <= (1e-11 if _scipy_is_exact(n, d) else 5e-6), (d, err)


def test_ks_tail_relative_to_a_40_digit_birnbaum_tingey_sum():
    # deep p-values keep their relative digits: the doubled one-sided tail
    # against the same sum in 40 digits
    mpmath = pytest.importorskip("mpmath")
    for n, x in [(100, 4.0), (100, 50.0), (2000, 10.0), (2000, 300.0), (10_000, 100.0)]:
        d = math.sqrt(x / n)
        with mpmath.workdps(40):
            md = mpmath.mpf(d)
            ref = 2 * md * mpmath.fsum(
                mpmath.binomial(n, j) * (1 - md - mpmath.mpf(j) / n) ** (n - j)
                * (md + mpmath.mpf(j) / n) ** (j - 1)
                for j in range(n + 1) if n - j - n * md > 0)
        assert abs(kolmogorov_sf(n, d) / float(ref) - 1) <= 1e-12, (n, x)


def test_ks_statistic_is_scipys():
    stats = pytest.importorskip("scipy.stats")
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.gamma(1.0 + seed % 3, size=100 + 97 * seed)
        rep = ks_exponential_test(x)
        ref = stats.kstest(x / x.mean(), "expon")
        # np.expm1 and scipy's expm1 may round 1 - e^-t one ulp apart
        assert abs(rep.ks_statistic - ref.statistic) <= 1e-15
        assert abs(rep.p_value - ref.pvalue) <= 5e-6


def test_ks_sf_edges():
    assert kolmogorov_sf(200, 0.5 / 200) == 1.0
    assert kolmogorov_sf(200, 1.0) == 0.0
    assert kolmogorov_sf(200, 1.5) == 0.0
    # just past n d = 1/2, P(D_n < d) = n!/n^n (2 n d - 1)^n (Ruben & Gambino)
    n, d = 200, 0.75 / 200
    cdf = math.exp(math.lgamma(n + 1) - n * math.log(n) + n * math.log(2 * n * d - 1))
    assert kolmogorov_sf(n, d) == pytest.approx(1 - cdf, abs=1e-15)


def test_ks_sf_large_sample_within_seconds():
    # the costliest Durbin matrix at n = 10^5: n d^2 just below the switch,
    # m = 2 floor(n d) + 1 = 1265 rows
    n = 100_000
    d = math.sqrt(TAIL_START / n) * (1 - 1e-9)
    assert 2 * int(n * d) + 1 == 1265
    t0 = time.perf_counter()
    p = kolmogorov_sf(n, d)
    assert time.perf_counter() - t0 < 2.0
    # against the doubled one-sided tail, exact to 3e-14 here; the Durbin
    # route reads 1.47e-12 from it (its error grows about in proportion to n)
    assert abs(p - 2 * _smirnov_sf(n, d)) <= 1e-11


@pytest.mark.parametrize("df", [1, 2, 3, 5, 17, 95, 287, 3199])
def test_chi_square_sf_matches_scipy_and_mpmath(df):
    stats = pytest.importorskip("scipy.stats")
    mpmath = pytest.importorskip("mpmath")
    xs = [1e-3, 0.5, 5.0] + [df * f for f in (0.05, 0.3, 0.7, 1.0, 1.3, 2.0, 3.0)]
    for x in xs:
        p = chi_square_sf(x, df)
        ref = float(stats.chi2.sf(x, df))
        if ref > 1e-300:
            assert abs(p / ref - 1) <= 1e-11, x
        with mpmath.workdps(40):
            exact = mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2,
                                    mpmath.inf, regularized=True)
        if exact > 1e-300:
            assert abs(p / float(exact) - 1) <= 1e-12, x
    assert chi_square_sf(0.0, df) == 1.0


def test_gate_statistics_match_scipy_chisquare():
    stats = pytest.importorskip("scipy.stats")
    for seed in range(30):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 40))
        gate = [(i, i + 1) for i in range(k)]
        samples = [SimpleNamespace(gate_events=[gate[int(rng.integers(0, k))]]
                                   * int(rng.integers(1, 3)))
                   for _ in range(int(rng.integers(1, 500)))]
        st = gate_statistics(samples, gate)
        ref = stats.chisquare([st.counts[t] for t in gate])
        assert st.chi_square == ref.statistic
        assert abs(st.p_value / ref.pvalue - 1) <= 1e-11
