"""Exact-model series that the estimator-recovery tests take as ground
truth: c_n from a stretched-exponential or a factorial growth model, with
every parameter given."""

from dataclasses import dataclass

import mpmath
from mpmath import mpf

from ascentlab.errors import InsufficientTermsError
from ascentlab.series import RealSeries, DEFAULT_DPS, to_mpf


@dataclass
class StretchedFitParams:
    """c_n ~ C * mu^n * mu1^(n^sigma) * n^g with mu1 given through its log.
    Values may be float, int, str, Fraction or mpf (see `to_mpf`)."""

    mu: float
    sigma: float
    log_mu1: float
    g: float
    C: float = 1.0

    def __post_init__(self):
        if not to_mpf(self.mu, DEFAULT_DPS) > 0:
            raise ValueError("mu must be positive")
        if not 0 < to_mpf(self.sigma, DEFAULT_DPS) < 1:
            raise ValueError("sigma must lie strictly between 0 and 1")


@dataclass
class FactorialFitParams:
    """c_n ~ C * (alpha*n)! * mu^n * n^g; values as for StretchedFitParams."""

    alpha: float
    mu: float
    g: float = 0.0
    C: float = 1.0

    def __post_init__(self):
        if not to_mpf(self.alpha, DEFAULT_DPS) > 0:
            raise ValueError("alpha must be positive")


def synth_series(params, n_terms, dps=DEFAULT_DPS) -> RealSeries:
    """Exact-model series used as ground truth in estimator-recovery tests."""
    if n_terms < 4:
        raise InsufficientTermsError("need at least four terms")
    out = []
    with mpmath.workdps(dps):
        if isinstance(params, StretchedFitParams):
            mu, sig, lm1, g, C = (to_mpf(v, dps) for v in (
                params.mu, params.sigma, params.log_mu1, params.g, params.C))
            for n in range(1, n_terms + 1):
                nn = mpf(n)
                out.append(C * mu ** nn * mpmath.e ** (lm1 * nn ** sig) * nn ** g)
        elif isinstance(params, FactorialFitParams):
            al, mu, g, C = (to_mpf(v, dps) for v in (
                params.alpha, params.mu, params.g, params.C))
            for n in range(1, n_terms + 1):
                nn = mpf(n)
                out.append(C * mpmath.gamma(al * nn + 1) * mu ** nn * nn ** g)
        else:
            raise TypeError("params must be StretchedFitParams or FactorialFitParams")
    return RealSeries(out, first_index=1, dps=dps)
