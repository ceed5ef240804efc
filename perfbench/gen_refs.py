"""Write the benchmark's reference series to perfbench/ref/.

    PYTHONPATH=src python3 perfbench/gen_refs.py

Each series is computed with the production engines and cross-checked
before anything is written against three independent sources: the direct
state counters of tests/safeguards.py (n <= 14), the exhaustive oracle
`sequences.brute_force_avoiders` (n <= 12; for unrestricted ascent
sequences, a count of `sequences.ascent_sequences`), and, for 000, the
polynomial engine against the exponential one (n <= 28). Takes about two
minutes on a 2-core machine.
"""

from __future__ import annotations

import importlib.util
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from ascentlab import dp, io as aio, sequences as sq  # noqa: E402

sys.path.insert(0, HERE)
from workloads import REFERENCES  # noqa: E402

SAFEGUARD_N = 14
ORACLE_N = 12
POLY_EXP_N = 28


def _safeguards():
    path = os.path.join(ROOT, "tests", "safeguards.py")
    spec = importlib.util.spec_from_file_location("safeguards", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _agree(name, label, got, want):
    if list(got) != list(want):
        first = next(i + 1 for i, (g, w) in enumerate(zip(got, want)) if g != w)
        sys.exit(f"{name}: disagrees with {label} at n={first}")
    print(f"{name}: matches {label} to n={len(want)}")


def main():
    sg = _safeguards()
    series = {
        "ascent": dp.enumerate_ascent(REFERENCES["ascent"]),
        "000": dp.enumerate_000_polynomial(REFERENCES["000"]),
        "100": dp.enumerate_100(REFERENCES["100"]),
        "110": dp.enumerate_110(REFERENCES["110"]),
        "120": dp.enumerate_120(REFERENCES["120"]),
    }
    asc = [sum(1 for _ in sq.ascent_sequences(n)) for n in range(1, 11)]
    _agree("ascent", "an enumeration of ascent sequences", series["ascent"].values[:10], asc)
    for name in ("000", "100", "110", "120"):
        values = series[name].values
        direct = getattr(sg, f"direct_count_{name}")(SAFEGUARD_N)
        _agree(name, "tests/safeguards.py", values[:SAFEGUARD_N], direct)
        oracle = sq.brute_force_avoiders(name, ORACLE_N).values
        _agree(name, "brute_force_avoiders", values[:ORACLE_N], oracle)
    _agree("000", "the exponential engine", series["000"].values[:POLY_EXP_N],
           dp.enumerate_000_exponential(POLY_EXP_N).values)
    os.makedirs(os.path.join(HERE, "ref"), exist_ok=True)
    for name, s in series.items():
        aio.write_bfile(os.path.join(HERE, "ref", f"{name}.b"), s)


if __name__ == "__main__":
    main()
