"""Shared exception types and the cap check that raises one of them."""

import warnings


class CapExceededError(ValueError):
    """A term count exceeded its configured feasibility cap and no override was given."""


def check_cap(what, n_terms, cap, allow_over_cap):
    """Raise CapExceededError when n_terms exceeds cap; with allow_over_cap
    the run proceeds under a warning instead."""
    if n_terms > cap:
        if not allow_over_cap:
            raise CapExceededError(f"{what} capped at {cap} terms (requested {n_terms})")
        warnings.warn(f"{what} of {n_terms} terms exceeds cap {cap}")


class RankDeficientError(ValueError):
    """The fitting system is inconsistent under every allowed normalization."""

    def __init__(self, message, deficiency=None):
        super().__init__(message)
        self.deficiency = deficiency


class InsufficientTermsError(ValueError):
    """Not enough exact series terms for the requested operation."""


class VanishingMultiplierError(ArithmeticError):
    """The recurrence multiplier vanished at some index."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


class AllFitsFailedError(RuntimeError):
    """No approximant in the ensemble could be fitted."""
