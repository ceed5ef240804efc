"""Benchmark workloads: fixed sequences of `ascentlab` CLI commands, the
reference series they are checked against, and the output checks.

A workload is a list of chains. Commands inside a chain depend on each other
and run in order; chains are independent, and the run's seed only shuffles
their order. Every input is deterministic because exact counting is.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from decimal import Decimal, localcontext

import mpmath

# Deepest committed reference per series, as written by gen_refs.py. Each
# workload uses a prefix of one of these.
REFERENCES = {"ascent": 200, "000": 120, "100": 76, "110": 21, "120": 40}

# Known constants the analyze summaries must reproduce, with the relative
# tolerance each extrapolant meets at the lengths the workloads analyze.
with mpmath.workdps(30):
    MU_000_EGF = 8 / (3 * mpmath.pi ** 2)
    MU_120 = mpmath.findroot(lambda x: x ** 3 - 8 * x ** 2 + 5 * x + 1, 7.3)
MU_120_ARG = mpmath.nstr(MU_120, 15)
CONSTANT_TOLERANCE = 0.01


@dataclass
class Command:
    kind: str         # enumerate | extend | analyze | verify
    argv: list
    check: object     # callable(refs, stdout) -> error string or None


class Refs:
    """Reference series, loaded as raw b-file lines and as integers."""

    def __init__(self, ref_dir):
        self.lines = {}
        self.values = {}
        for name in REFERENCES:
            with open(os.path.join(ref_dir, f"{name}.b"), "rb") as fh:
                lines = fh.read().splitlines(keepends=True)
            self.lines[name] = lines
            self.values[name] = [int(ln.split()[1]) for ln in lines]

    def write_prefix(self, name, n, path):
        with open(path, "wb") as fh:
            fh.writelines(self.lines[name][:n])


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def expect_bfile(path, series, n):
    """The enumerate output must be byte-identical to the reference prefix."""
    def check(refs, out):
        want = b"".join(refs.lines[series][:n])
        if _read(path) != want:
            return f"{path}: differs from reference {series} n={n}"
        return None
    return check


def expect_extension(path, series, n_exact, predict, digits_out):
    """Exact part byte-identical to the reference; each predicted term within
    one unit of its last claimed agreed digit of the true term, where the
    reference reaches that far. Claimed digits are appended to digits_out."""
    def check(refs, out):
        lines = _read(path).splitlines(keepends=True)
        if b"".join(lines[:n_exact]) != b"".join(refs.lines[series][:n_exact]):
            return f"{path}: exact terms differ from reference {series}"
        predicted = lines[n_exact:]
        if len(predicted) != predict:
            return f"{path}: {len(predicted)} predicted terms, expected {predict}"
        truth = refs.values[series]
        for k, line in enumerate(predicted):
            idx, value, digits = line.split()
            n, digits = int(idx), int(digits)
            if n != n_exact + 1 + k or not value.startswith(b"~"):
                return f"{path}: malformed predicted line {line!r}"
            digits_out.append(digits)
            if digits < 1 or n > len(truth):
                continue
            true = truth[n - 1]
            with localcontext() as ctx:
                ctx.prec = len(str(true)) + 10
                err = abs(Decimal(value[1:].decode()) - true)
                if err > Decimal(10) ** (len(str(true)) - digits):
                    return (f"{path}: term {n} claims {digits} digits, "
                            f"off by {err:.3e} from the true term")
        return None
    return check


_SUMMARY = re.compile(r"^(\S+) abscissa=\S+ last_n=(\d+) last=(\S+) neville\(depth=\d+\)=(\S+)$")


def _summary(path):
    rows = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            m = _SUMMARY.match(line.rstrip("\n"))
            if m is None:
                raise ValueError(f"{path}: unparsable summary line {line!r}")
            rows[m.group(1)] = (mpmath.mpf(m.group(3)), mpmath.mpf(m.group(4)))
    return rows


def expect_summary(csv_path, names, constants=None):
    """The summary lists the named traces with finite values; each traced
    name in `constants` (name -> (field, constant)) lies within
    CONSTANT_TOLERANCE of the constant, field being 'last' or 'neville'."""
    def check(refs, out):
        if not os.path.getsize(csv_path):
            return f"{csv_path}: empty trace CSV"
        rows = _summary(csv_path + ".summary.txt")
        for name in names:
            if name not in rows:
                return f"{csv_path}: summary lacks {name}"
            if not all(mpmath.isfinite(v) for v in rows[name]):
                return f"{csv_path}: {name} is not finite"
        for name, (field, constant) in (constants or {}).items():
            value = rows[name][0 if field == "last" else 1]
            if abs(value / constant - 1) > CONSTANT_TOLERANCE:
                return (f"{csv_path}: {name} {field}={mpmath.nstr(value, 8)} "
                        f"is not within {CONSTANT_TOLERANCE} of {mpmath.nstr(constant, 8)}")
        return None
    return check


def expect_verify(pattern):
    def check(refs, out):
        return None if re.search(pattern, out, re.M) else f"verify printed no {pattern!r}"
    return check


def _enumerate(work, series, n, algo=None):
    path = os.path.join(work, f"enum-{series}-{algo or 'dp'}-{n}.b")
    argv = ["enumerate", "--pattern", "none" if series == "ascent" else series,
            "--terms", str(n), "--output", path]
    if algo:
        argv += ["--algo", algo]
    return path, Command("enumerate", argv, expect_bfile(path, series, n))


def _analyze(work, source, model, names, constants=None, extra=()):
    out = os.path.join(work, os.path.basename(source) + f".{model}.csv")
    argv = ["analyze", "--input", source, "--output", out, "--model", model, *extra]
    return Command("analyze", argv, expect_summary(out, names, constants))


EGF_NAMES = ("alpha_estimate", "stirling_e1", "stirling_e2", "egf_l2", "egf_l3")
STRETCHED_NAMES = ("sigma_ratio_gradient", "sigma_root_gradient", "sigma_known_mu",
                   "mu1_estimate", "ratfit_c1")
EGF_MU = {"egf_l2": ("neville", MU_000_EGF), "egf_l3": ("neville", MU_000_EGF)}
RATFIT_MU = {"ratfit_c1": ("last", MU_120)}
STRETCHED_ARGS = ("--mu", MU_120_ARG)


def layered_deep(work, inputs, digits):
    asc, c_asc = _enumerate(work, "ascent", 200)
    p000, c000 = _enumerate(work, "000", 64, "dp-poly")
    _, c100 = _enumerate(work, "100", 76)
    return [[c_asc, _analyze(work, asc, "power", ("l2", "l3"))],
            [c000, _analyze(work, p000, "factorial-egf", EGF_NAMES, EGF_MU)],
            [c100]]


def setstate_sweep(work, inputs, digits):
    p120, c120 = _enumerate(work, "120", 33)
    _, c110 = _enumerate(work, "110", 21)
    _, c000 = _enumerate(work, "000", 21, "dp-exp")
    return [[c120, _analyze(work, p120, "stretched", STRETCHED_NAMES, RATFIT_MU,
                            STRETCHED_ARGS)],
            [c110], [c000]]


EXTEND_PREDICT = 20


def extend_analyze(work, inputs, digits):
    chains = []
    for series, n, model, names, extra in (
            ("000", 100, "factorial-egf", EGF_NAMES, ()),
            ("120", 30, "stretched", STRETCHED_NAMES, STRETCHED_ARGS)):
        src = os.path.join(inputs, f"{series}-{n}.b")
        out = os.path.join(work, f"ext-{series}.b")
        extend = Command("extend", ["extend", "--input", src, "--output", out,
                                    "--predict", str(EXTEND_PREDICT)],
                         expect_extension(out, series, n, EXTEND_PREDICT, digits))
        # Predicted terms carry 4-11 agreed digits, too few for the summary
        # extrapolants to reach the known constants, so only their form is
        # checked here.
        chains.append([extend, _analyze(work, out, model, names, extra=extra)])
    return chains


CROSSCHECK_INPUTS = (("000", 30), ("100", 40), ("110", 16), ("120", 22))


def crosscheck(work, inputs, digits):
    chains = [[Command("verify", ["verify", "--max-n", "12"],
                       expect_verify(r"^(\d+)/\1 checks passed$"))]]
    for series, n in CROSSCHECK_INPUTS:
        path = os.path.join(inputs, f"{series}-{n}.b")
        chains.append([Command("verify", ["verify", "--input", path, "--pattern", series],
                               expect_verify(r"^PASS series-file-comparison"))])
    return chains


# name -> (chain factory, reference prefixes written to the inputs directory)
WORKLOADS = {
    "layered-deep": (layered_deep, ()),
    "setstate-sweep": (setstate_sweep, ()),
    "extend-analyze": (extend_analyze, (("000", 100), ("120", 30))),
    "crosscheck": (crosscheck, CROSSCHECK_INPUTS),
}


def build(name, work, inputs, refs, digits):
    """Write the workload's reference inputs and return its chains."""
    make_chains, prefixes = WORKLOADS[name]
    for series, n in prefixes:
        refs.write_prefix(series, n, os.path.join(inputs, f"{series}-{n}.b"))
    return make_chains(work, inputs, digits)

