"""Statistical acceptance tests for crossover-time laws."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["StatReport", "chi_square_sf", "kolmogorov_sf", "ks_exponential_test"]

KS_MIN_SAMPLES = 100            # fewest samples ks_exponential_test takes


@dataclass
class StatReport:
    n: int
    mean: float
    std_error: float
    ks_statistic: float
    p_value: float
    threshold: float
    passed: bool

    def as_json_obj(self) -> dict:
        return {"n": self.n, "mean": self.mean, "std_error": self.std_error,
                "ks_statistic": self.ks_statistic, "p_value": self.p_value,
                "threshold": self.threshold, "passed": self.passed}


def ks_exponential_test(samples, threshold: float = 0.01) -> StatReport:
    """One-sample Kolmogorov-Smirnov test of samples/mean against 1 - e^-t.

    Samples are scaled by their empirical mean, then compared with the unit
    exponential law.  D is the largest gap between the empirical and the
    exponential distribution function, the usual two-sided statistic.  Its
    p-value P(D_n >= D) is :func:`kolmogorov_sf`.  Pass/fail is decided only
    by the pre-declared threshold.
    """
    x = np.asarray(list(samples), dtype=float)
    n = len(x)
    if n < KS_MIN_SAMPLES:
        raise ValueError(f"need at least {KS_MIN_SAMPLES} samples, got {n}")
    mean = float(x.mean())
    if not (mean > 0 and math.isfinite(mean)):
        raise ValueError("samples must have a positive finite mean")
    cdf = -np.expm1(-np.sort(x / mean))
    d = float(max((np.arange(1.0, n + 1) / n - cdf).max(),
                  (cdf - np.arange(0.0, n) / n).max()))
    p = kolmogorov_sf(n, d)
    return StatReport(n=n, mean=mean,
                      std_error=float(x.std(ddof=1) / math.sqrt(n)),
                      ks_statistic=d, p_value=p,
                      threshold=threshold, passed=p > threshold)


# n d^2 from which the one-sided tail doubled is the two-sided one: the
# doubling counts twice the samples whose empirical law leaves the band on
# both sides, at most about 2 e^(-8 n d^2): 4.5e-8 at 2.2, 2.5e-14 at 4
TAIL_START = 4.0
# ln 2 in two parts; E * LN2_HI is exact for |E| < 2^21 (fdlibm)
LN2_HI = 6.93147180369123816490e-01
LN2_LO = 1.90821492927058770002e-10
TINY = np.finfo(float).tiny             # the smallest normal float


def kolmogorov_sf(n: int, d: float) -> float:
    """P(D_n >= d) for the two-sided Kolmogorov-Smirnov statistic of n
    samples from a continuous law.

    It is 1 for n d <= 1/2 and 0 for d >= 1.  Below n d^2 = ``TAIL_START``
    it is 1 minus Kolmogorov's exact distribution by the Durbin matrix
    (:func:`_durbin_cdf`; Marsaglia, Tsang & Wang, *J. Stat. Softw.* 8(18),
    2003).  The matrix has m = 2 floor(n d) + 1 < 4 sqrt(n) + 1 rows; its
    cost is about log2(n/m) squarings of an m x m matrix and at most
    m + log2(n) matrix-vector products.  On a 2-vCPU Xeon VM that is
    0.6-1.2 s at n = 10^5 just below the switch (m = 1265; the first call
    in a process is the slower), 0.33 s at n d^2 = 2.2.  From the switch on
    it is twice the Birnbaum-Tingey sum for the one-sided statistic
    (:func:`_smirnov_sf`), whose doubling is exact to 3e-14 there.  Both
    routes are within 1.4e-14 absolute of a 40-digit evaluation of the
    Durbin matrix for n in {100, 140, 150, 300}, and within 1e-11 of scipy's
    ``kstwo.sf`` wherever scipy is exact.  The Durbin route's error grows
    about in proportion to n, as H^n carries the rounding of H's entries
    about n times: just below the switch it is 1.4e-14 for n <= 3000,
    1.0e-13 at n = 10^4 and 1.5e-12 at n = 10^5, against the exact tail.
    The tail route keeps its relative digits: within 6.3e-14 relative of
    the one-sided sum in 40 digits for n up to 10^4, down to 1e-263.
    Elsewhere scipy's own error shows: 2.7e-6 at n = 150 on its Pelz-Good
    branch, and about 4e-8 at n d^2 = 2.2 for n > 140, where it doubles the
    one-sided tail.
    """
    if n * d <= 0.5:
        return 1.0
    if d >= 1.0:
        return 0.0
    if n * d * d < TAIL_START:
        return min(1.0, max(0.0, 1.0 - _durbin_cdf(n, d)))
    return min(1.0, 2.0 * _smirnov_sf(n, d))


def _durbin_cdf(n: int, d: float) -> float:
    """P(D_n < d) = n!/n^n (H^n)[k-1, k-1] for Durbin's m x m matrix H,
    k = floor(n d) + 1, m = 2k - 1.  H is lower Hessenberg with entries
    1/(i - j + 1)!, less h^t/t! in its first column and last row,
    h = k - n d; every entry is nonnegative, so no product cancels.  The
    power's binary exponent and n!/n^n meet in one compensated sum of
    logarithms."""
    k = int(n * d) + 1
    m = 2 * k - 1
    h = k - n * d
    inv_fact = np.zeros(m + 1)          # 1/t!, 0 once it underflows
    f = 1
    for t in range(m + 1):
        f *= max(t, 1)
        if 1 / f < TINY:
            break
        inv_fact[t] = 1 / f
    jump = np.arange(m)[:, None] - np.arange(m)[None, :] + 1
    H = np.where(jump >= 0, inv_fact[np.clip(jump, 0, m)], 0.0)
    pw = h ** np.arange(m + 1) * inv_fact          # h^t / t!
    H[:, 0] -= pw[1:]
    H[-1, :] -= pw[:0:-1]
    if 2 * h > 1:
        H[-1, 0] += (2 * h - 1) ** m * inv_fact[m]
    q, e = _power_entry(H, n, k - 1)
    if q <= 0:
        return 0.0
    # log(n!/n^n) = -n + log(2 pi n) / 2 + S(n)
    return math.exp(math.fsum([math.log(q), e * LN2_HI, e * LN2_LO, -float(n),
                               0.5 * math.log(2 * math.pi * n),
                               float(_stirling_remainder(n))]))


def _power_entry(H: np.ndarray, n: int, k: int) -> tuple[float, int]:
    """(q, e) with (H^n)[k, k] = q 2^e, read from the vector H^n e_k.
    While n exceeds the m rows, one squaring halves the vector products
    left and costs fewer flops than they do: each square P = H^(2^j) takes
    the vector through it when bit j of n is set, and the last square is
    applied n // 2^j times.  Every product is rescaled by a power of two,
    so nothing over- or underflows and the scaling is exact."""
    def rescale(a, e):
        s = math.frexp(float(a.max()))[1]
        a = np.ldexp(a, -s)
        a[a < TINY] = 0.0               # subnormals: slow, and below rounding
        return a, e + s

    p, e_p = rescale(H, 0)
    col, e = np.zeros(len(H)), 0
    col[k] = 1.0
    while n > len(H):
        if n & 1:
            col, e = rescale(p @ col, e + e_p)
        p, e_p = rescale(p @ p, 2 * e_p)
        n >>= 1
    for _ in range(n):
        col, e = rescale(p @ col, e + e_p)
    return float(col[k]), e


def _smirnov_sf(n: int, d: float) -> float:
    """P(D_n^+ >= d), the one-sided statistic, by the Birnbaum-Tingey sum
    d sum_j C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1) over
    0 <= j < n (1 - d).  Every term is positive.  Each is taken as a
    logarithm in which C(n, j) is written by Stirling's formula and its
    n log n parts cancel against the powers by hand, c = n d:

        log(c / (c + j)) + log(n / (2 pi j (n - j))) / 2
        + S(n) - S(j) - S(n - j) + (n - j) log1p(-c / (n - j)) + j log1p(c / j),

    S the remainder of Stirling's formula, so no part larger than about c
    is rounded."""
    c = n * d
    j = np.arange(1, int(n - c) + 1, dtype=float)
    j = j[n - j - c > 0]
    terms = (np.log(c / (c + j)) + 0.5 * np.log(n / (2 * math.pi * j * (n - j)))
             + _stirling_remainder(n) - _stirling_remainder(j)
             - _stirling_remainder(n - j)
             + (n - j) * np.log1p(-c / (n - j)) + j * np.log1p(c / j))
    return _exp_sum(np.append(terms, n * math.log1p(-d)))  # j = 0: (1 - d)^n


def _exp_sum(terms: np.ndarray) -> float:
    """sum(exp(terms)) as exp(top) fsum(exp(terms - top)), top the largest
    term: nothing overflows, and only terms below the largest by more than
    the float range underflow."""
    top = float(terms.max())
    return math.exp(top) * math.fsum(np.exp(terms - top).tolist())


# S(k) for k = 1/2, 1, 3/2, ..., 39/2 at index 2k, taken directly
_STIRLING_SMALL = np.array([0.0] + [
    math.lgamma(t / 2 + 1) - (t / 2 * math.log(t / 2) - t / 2 + 0.5 * math.log(math.pi * t))
    for t in range(1, 40)])


def _stirling_remainder(k):
    """S(k) = log Gamma(k + 1) - (k log k - k + log(2 pi k) / 2) for k >= 1/2
    a multiple of 1/2: from a table below 20, from there the series through
    k^-9, whose next term is below 1e-17."""
    k = np.asarray(k, dtype=float)
    r = 1.0 / np.maximum(k, 20.0)
    r2 = r * r
    series = r * (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 * (1 / 1680 - r2 / 1188))))
    return np.where(k < 20, _STIRLING_SMALL[np.minimum(2 * k, 39).astype(np.int64)], series)


def chi_square_sf(x: float, df: int) -> float:
    """P(X >= x) for a chi-square variable of df degrees of freedom: the
    regularized upper incomplete gamma Q(df/2, x/2) as a finite sum of
    positive terms.  With y = x/2, for even df it is the Poisson sum
    e^(-y) sum_{s < df/2} y^s / s!; for odd df it is
    erfc(sqrt y) + e^(-y) sum_{s = 1/2, 3/2, ..} y^s / Gamma(s + 1) up to
    s = df/2 - 1.  Each term is taken as the logarithm
    s log(y/s) + (s - y) - log(2 pi s)/2 - S(s), S the remainder of
    Stirling's formula, so no part as large as s log s is rounded.  Within
    7.3e-14 relative of a 40-digit evaluation for df from 1 to 3199, where
    scipy's ``chi2.sf`` is within 2.3e-12."""
    if df < 1:
        raise ValueError(f"need df >= 1, got {df}")
    if x <= 0:
        return 1.0
    y = x / 2
    s = np.arange(df // 2) + (df % 2) / 2
    s = s[s > 0]
    terms = (s * np.log(y / s) + (s - y) - 0.5 * np.log(2 * math.pi * s)
             - _stirling_remainder(s))
    if df % 2:
        head = math.erfc(math.sqrt(y))
    else:
        head, terms = 0.0, np.append(terms, -y)  # s = 0: e^(-y)
    return head + _exp_sum(terms) if len(terms) else head
