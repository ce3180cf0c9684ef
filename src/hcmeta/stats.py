"""Statistical acceptance tests for crossover-time laws."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["StatReport", "ks_exponential_test"]


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


def ks_exponential_test(samples, threshold: float = 0.01,
                        min_samples: int = 100) -> StatReport:
    """One-sample Kolmogorov-Smirnov test of samples/mean against 1 - e^-t.

    Samples are scaled by their empirical mean, then compared with the unit
    exponential law; the p-value is scipy's exact small-sample distribution
    (asymptotic above its internal cutoff).  Pass/fail is decided only by the
    pre-declared threshold.
    """
    from scipy.stats import kstest

    x = np.asarray(list(samples), dtype=float)
    if len(x) < min_samples:
        raise ValueError(f"need at least {min_samples} samples, got {len(x)}")
    mean = float(x.mean())
    if not (mean > 0 and math.isfinite(mean)):
        raise ValueError("samples must have a positive finite mean")
    scaled = x / mean
    res = kstest(scaled, "expon")
    p = float(res.pvalue)
    return StatReport(n=len(x), mean=mean,
                      std_error=float(x.std(ddof=1) / math.sqrt(len(x))),
                      ks_statistic=float(res.statistic), p_value=p,
                      threshold=threshold, passed=p > threshold)
