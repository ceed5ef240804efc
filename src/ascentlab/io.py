"""File formats: OEIS-style b-files for integer series (with a marked
extension section for predicted terms) and CSV for real-valued traces.

b-file lines are "n value" with n ascending from 1, LF-terminated, no
trailing whitespace. Predicted terms are never mixed silently with exact
ones: their lines read "n ~value digits" where digits is the ensemble's
agreed-digit count, and readers keep the two groups separate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import mpmath
from mpmath import mpf

from .series import CoefficientSeries, RealSeries, DEFAULT_DPS


def format_real(value, dps=DEFAULT_DPS):
    """Plain decimal string, no scientific notation."""
    return mpmath.nstr(value, dps, min_fixed=-mpmath.inf, max_fixed=mpmath.inf)


def format_real_sci(value, digits):
    return mpmath.nstr(value, digits)


def _write_exact(fh, series: CoefficientSeries):
    """The exact-term lines "n value" of a b-file."""
    for n in series.indices():
        fh.write(f"{n} {series.at(n)}\n")


def write_bfile(path, series: CoefficientSeries):
    with open(path, "w") as fh:
        _write_exact(fh, series)


def write_extended_bfile(path, series: CoefficientSeries, prediction):
    """Exact terms followed by predicted terms marked with "~" and their
    agreed-digit counts."""
    with open(path, "w") as fh:
        _write_exact(fh, series)
        n = prediction.first_index
        for value, digits in zip(prediction.values, prediction.agreed_digits):
            shown = max(int(digits), 1)
            fh.write(f"{n} ~{format_real_sci(value, shown)} {digits}\n")
            n += 1


@dataclass
class LoadedSeries:
    """Parsed b-file: the exact prefix plus any marked approximate tail."""

    exact: CoefficientSeries
    approx: list          # (n, mpf value, agreed digits or None)

    @property
    def n_exact(self):
        return len(self.exact)

    def combined_real(self, dps=DEFAULT_DPS) -> RealSeries:
        """All terms as reals; exact values convert at working precision."""
        with mpmath.workdps(dps):
            vals = [mpf(v) for v in self.exact.values]
            vals.extend(v for _, v, _ in self.approx)
        return RealSeries(vals, first_index=self.exact.first_index, dps=dps)


def read_bfile(path, dps=DEFAULT_DPS) -> LoadedSeries:
    exact = []
    approx = []
    expected = 1
    with open(path) as fh, mpmath.workdps(dps):
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if not re.fullmatch(r"[0-9]+", parts[0]):
                raise ValueError(f"parse error at line {lineno}: bad index field")
            n = int(parts[0])
            if n != expected:
                raise ValueError(
                    f"parse error at line {lineno}: expected index {expected}, got {n}")
            if len(parts) < 2:
                raise ValueError(f"parse error at line {lineno}: missing value")
            predicted = parts[1].startswith("~")
            if len(parts) > (3 if predicted else 2):
                raise ValueError(f"parse error at line {lineno}: trailing fields")
            if predicted:
                value = parts[1][1:]
                digits = parts[2] if len(parts) == 3 else None
                # a plain decimal or scientific literal, as format_real_sci writes
                if not (re.fullmatch(r"-?[0-9]+(\.[0-9]*)?([eE][-+]?[0-9]+)?", value)
                        and re.fullmatch(r"[0-9]+", digits or "0")):
                    raise ValueError(
                        f"parse error at line {lineno}: bad predicted value or digit count")
                approx.append((n, mpf(value), None if digits is None else int(digits)))
            else:
                if approx:
                    raise ValueError(
                        f"parse error at line {lineno}: exact term after predicted terms")
                if not re.fullmatch(r"-?[0-9]+", parts[1]):
                    raise ValueError(f"parse error at line {lineno}: bad integer value")
                exact.append(int(parts[1]))
            expected += 1
    if not exact:
        raise ValueError("parse error: no exact terms")
    return LoadedSeries(exact=CoefficientSeries(exact, first_index=1), approx=approx)


def write_trace_csv(path, columns, assumptions=None, dps=DEFAULT_DPS):
    """Wide CSV over the union of indices; header comments echo the analysis
    assumptions. `columns` maps name -> RealSeries or list of (n, value)."""
    cols = {}
    for name, col in columns.items():
        if isinstance(col, RealSeries):
            cols[name] = {n: col.at(n) for n in col.indices()}
        else:
            cols[name] = dict(col)
    all_ns = sorted(set().union(*[set(c) for c in cols.values()])) if cols else []
    with open(path, "w") as fh:
        for key, value in sorted((assumptions or {}).items()):
            fh.write(f"# {key}={value}\n")
        fh.write("n," + ",".join(cols.keys()) + "\n")
        for n in all_ns:
            row = [str(n)]
            for name in cols:
                v = cols[name].get(n)
                row.append("" if v is None else format_real(v, dps))
            fh.write(",".join(row) + "\n")


def write_intercept_summary(path, summaries, assumptions=None, dps=DEFAULT_DPS):
    """Sidecar listing, per trace, the raw tail value and the Neville
    extrapolant in the declared abscissa."""
    with open(path, "w") as fh:
        for key, value in sorted((assumptions or {}).items()):
            fh.write(f"# {key}={value}\n")
        for s in summaries:
            fh.write(
                f"{s.name} abscissa=1/n^{s.abscissa_power} last_n={s.last_n} "
                f"last={format_real(s.last_value, dps)} "
                f"neville(depth={s.depth})={format_real(s.neville, dps)}\n")
