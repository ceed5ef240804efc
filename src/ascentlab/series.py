"""Series containers: exact integer coefficient series and fixed-precision real series.

Counting series are indexed by sequence length starting at 1; the length-0
count is 1 by convention but lives outside the container (see LENGTH_ZERO_COUNT).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

# Number of objects of length 0 (the empty sequence), kept outside the series.
LENGTH_ZERO_COUNT = 1

# Default working precision in decimal digits for derived real series.
DEFAULT_DPS = 60


@dataclass
class _IndexedSeries:
    """Values aligned with absolute indices first_index, first_index+1, ..."""

    values: list
    first_index: int = 1

    def __len__(self):
        return len(self.values)

    @property
    def last_index(self):
        return self.first_index + len(self.values) - 1

    def indices(self):
        return range(self.first_index, self.last_index + 1)

    def at(self, n: int):
        """Value at absolute index n."""
        if not self.first_index <= n <= self.last_index:
            raise IndexError(f"index {n} outside [{self.first_index}, {self.last_index}]")
        return self.values[n - self.first_index]


@dataclass
class CoefficientSeries(_IndexedSeries):
    """Exact big-integer counts c_n for n = first_index, first_index+1, ..."""

    def __post_init__(self):
        self.values = [int(v) for v in self.values]

    def truncate(self, n: int) -> "CoefficientSeries":
        """Prefix through absolute index n."""
        if n < self.first_index:
            raise IndexError(f"cannot truncate below first index {self.first_index}")
        return CoefficientSeries(self.values[: n - self.first_index + 1], self.first_index)


@dataclass
class RealSeries(_IndexedSeries):
    """Arbitrary-precision real values aligned with absolute indices.

    `dps` records the decimal precision the values were computed at; derived
    series inherit the minimum precision of their inputs.
    """

    dps: int = DEFAULT_DPS


def working_dps(*series, dps=None):
    """Precision to compute at: explicit override or the minimum of the inputs."""
    if dps is not None:
        return dps
    found = [s.dps for s in series if isinstance(s, RealSeries)]
    return min(found) if found else DEFAULT_DPS


def to_mpf(value, dps):
    """Convert an int/str/Fraction/float/mpf to mpf at the given precision; a
    float goes through its shortest repr, so 0.1 means exactly 1/10."""
    with mpmath.workdps(dps):
        if isinstance(value, Fraction):
            return mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator)
        return mpmath.mpf(repr(value) if isinstance(value, float) else value)
