"""Exact enumeration of length-3 pattern-avoiding ascent sequences and
asymptotic analysis of the resulting coefficient series."""

from .series import CoefficientSeries, RealSeries, DEFAULT_DPS, LENGTH_ZERO_COUNT
from .sequences import (ascent_count, is_ascent_sequence, is_weak_ascent_sequence,
                        contains_pattern, pattern_occurrences, parse_pattern,
                        weak_reverse_complement, direct_sum_concat,
                        ascent_sequences, weak_ascent_sequences,
                        brute_force_avoiders)
from .dp import (enumerate_ascent, enumerate_000_exponential,
                 enumerate_000_polynomial, enumerate_100, enumerate_110,
                 enumerate_120, enumerate_avoiders, enumerate_with_cache,
                 suffix_count, MemoCache, cache_repetition_report,
                 bitset)
from .analysis import (StretchedFitParams, FactorialFitParams, ratios,
                       egf_ratios, linear_intercepts, quadratic_intercepts,
                       intercept_pipeline, sigma_estimator_ratio,
                       sigma_estimator_root, sigma_local_gradient_known_mu,
                       mu1_estimator, g_estimator, mu1_refined, fit_ratio4,
                       fit_ratio4_sweep, fit_stirling_log,
                       fit_stirling_log_sweep, factorial_ratio_transforms,
                       hadamard_quotient, synth_series, reference_constants,
                       neville_extrapolate, extrapolate_intercept)
from .approximants import (DAConfig, DifferentialApproximant, fit_da,
                           fit_defects, singularities, recurrence_extend,
                           recurrence_extend_exact, predict_ensemble,
                           default_ensemble)
from .errors import (CapExceededError, RankDeficientError,
                     InsufficientTermsError, VanishingMultiplierError,
                     AllFitsFailedError)

__version__ = "0.1.0"
