"""Command-line front end: enumerate series to b-files, analyze them to
trace CSVs, extend them with differential approximants, and run the
cross-check suite.

Every error path carries a distinct message prefix; exit code 0 means
success, 2 a usage error, 1 any runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import analysis as an
from . import approximants as ap
from . import dp
from . import io as aio
from . import sequences as sq
from . import verify as ver
from .errors import (AllFitsFailedError, CapExceededError,
                     InsufficientTermsError)
from .series import DEFAULT_DPS

MODELS = ("power", "stretched", "factorial-egf")
# The stretched model's sigma when --sigma is not given.
STRETCHED_SIGMA = 0.375


def _fail(prefix, message, code=1):
    print(f"error: {prefix}: {message}", file=sys.stderr)
    return code


def cmd_enumerate(args):
    try:
        if args.algo == "brute":
            series = sq.brute_force_avoiders(args.pattern, args.terms,
                                             allow_over_cap=args.override_caps)
        else:
            series = dp.enumerate_avoiders(args.pattern, args.terms,
                                           algorithm=args.algo,
                                           allow_over_cap=args.override_caps)
    except CapExceededError as exc:
        return _fail("cap-exceeded", f"{exc}; pass --override-caps to proceed")
    except ValueError as exc:
        return _fail("usage", str(exc), 2)
    try:
        aio.write_bfile(args.output, series)
    except OSError as exc:
        return _fail("write", str(exc))
    return 0


# Each _analyze_* returns (CSV columns, [(summary name, trace, abscissa power)]).

def _analyze_power(real, dps):
    r = an.ratios(real, dps=dps)
    l, l2, l3 = an.intercept_pipeline(r)
    return {"r": r, "l": l, "l2": l2, "l3": l3}, [("l2", l2, 1), ("l3", l3, 1)]


def _analyze_stretched(real, dps, sigma, mu, g):
    r = an.ratios(real, dps=dps)
    l = an.linear_intercepts(r)
    t1 = an.sigma_estimator_ratio(r)
    t2 = an.sigma_estimator_root(real, dps=dps)
    g1 = list(zip(t1.gradient_ns, t1.gradients))
    g2 = list(zip(t2.gradient_ns, t2.gradients))
    cols = {"r": r, "l": l, "sigma_ratio_grad": g1, "sigma_root_grad": g2}
    traces = [(name, grads, sigma) for name, grads in
              (("sigma_ratio_gradient", g1), ("sigma_root_gradient", g2)) if grads]
    if mu is not None:
        sg = an.sigma_local_gradient_known_mu(r, mu)
        m1 = an.mu1_estimator(r, mu, sigma)
        cols["sigma_known_mu"] = sg
        cols["mu1_estimate"] = m1
        fits = an.fit_ratio4_sweep(r, sigma)
        for idx in range(4):
            cols[f"ratfit_c{idx + 1}"] = [(w.k, w.coefficients[idx]) for w in fits]
        traces += [("sigma_known_mu", sg, sigma), ("mu1_estimate", m1, 0.5),
                   ("ratfit_c1", cols["ratfit_c1"], 1)]
        if g is not None:
            cols["mu1_refined"] = an.mu1_refined(real, mu, sigma, g, dps=dps)
            traces.append(("mu1_refined", cols["mu1_refined"], 1))
    return cols, traces


def _analyze_factorial(real, dps):
    tr = an.factorial_ratio_transforms(real, dps=dps)
    cols = {"r": tr.r, "s": tr.s, "t": tr.t, "alpha_estimate": tr.alpha_estimates}
    fits = an.fit_stirling_log_sweep(real, dps=dps)
    for idx in range(4):
        cols[f"stirling_e{idx + 1}"] = [(w.k, w.coefficients[idx]) for w in fits]
    er = an.egf_ratios(real, dps=dps)
    el, el2, el3 = an.intercept_pipeline(er)
    cols.update({"egf_r": er, "egf_l": el, "egf_l2": el2, "egf_l3": el3})
    return cols, [("alpha_estimate", tr.alpha_estimates, 1),
                  ("stirling_e1", cols["stirling_e1"], 1),
                  ("stirling_e2", cols["stirling_e2"], 1),
                  ("egf_l2", el2, 1), ("egf_l3", el3, 1)]


def cmd_analyze(args):
    if args.model not in MODELS:
        return _fail("usage", f"model must be one of {MODELS}", 2)
    if args.model != "stretched":
        if (args.mu, args.g, args.sigma) != (None, None, None):
            return _fail("usage", "--mu, --g and --sigma apply only to "
                         "--model stretched", 2)
    else:
        if args.sigma is None:
            args.sigma = STRETCHED_SIGMA
        if not all(math.isfinite(v) for v in (args.mu, args.g) if v is not None):
            return _fail("usage", "mu and g must be finite", 2)
        if args.mu is not None and not args.mu > 0:
            return _fail("usage", "mu must be positive", 2)
        if not 0 < args.sigma < 1:
            return _fail("usage", "sigma must lie strictly between 0 and 1", 2)
        if args.mu is not None and args.sigma == 0.5:
            return _fail("usage", "sigma 0.5 with --mu makes the ratio fit "
                         "singular: its terms n^(2*sigma-2) and 1/n coincide", 2)
        if args.g is not None and args.mu is None:
            return _fail("usage", "--g needs --mu", 2)
    dps = args.precision
    try:
        loaded = aio.read_bfile(args.input, dps=dps)
    except (OSError, ValueError) as exc:
        return _fail("parse", str(exc))
    real = loaded.exact if not loaded.approx else loaded.combined_real(dps)
    # a count is positive: every model divides by the terms or takes logs
    bad = next((n for n, v in zip(real.indices(), real.values) if v <= 0), None)
    if bad is not None:
        return _fail("analysis-failed", f"non-positive term at index {bad}")
    assumptions = {"model": args.model, "precision": dps,
                   "input_terms_exact": loaded.n_exact,
                   "input_terms_predicted": len(loaded.approx)}
    try:
        if args.model == "power":
            cols, traces = _analyze_power(real, dps)
        elif args.model == "stretched":
            assumptions["sigma"] = args.sigma
            if args.mu is not None:
                assumptions["mu"] = args.mu
            if args.g is not None:
                assumptions["g"] = args.g
            cols, traces = _analyze_stretched(real, dps, args.sigma, args.mu, args.g)
        else:
            cols, traces = _analyze_factorial(real, dps)
        summaries = [an.extrapolate_intercept(trace, power=power, depth=3,
                                              name=name, dps=dps)
                     for name, trace, power in traces]
    except InsufficientTermsError as exc:
        return _fail("insufficient-terms", str(exc))
    except ValueError as exc:
        return _fail("analysis-failed", str(exc))
    try:
        aio.write_trace_csv(args.output, cols, assumptions=assumptions, dps=dps)
        aio.write_intercept_summary(args.output + ".summary.txt", summaries,
                                    assumptions=assumptions, dps=dps)
    except OSError as exc:
        return _fail("write", str(exc))
    return 0


def cmd_extend(args):
    if args.predict < 1:
        return _fail("usage", "predict must be at least 1", 2)
    cfgs = None
    if args.order is not None or args.degrees is not None:
        if args.order is None or args.degrees is None:
            return _fail("usage", "--order and --degrees go together", 2)
        try:
            d = tuple(int(v) for v in args.degrees.split(","))
            # the shape, and Q_0 or Q_M one degree lower, at L = -1, 0 and 1
            lower = [(d[0] - 1, *d[1:]), (*d[:-1], d[-1] - 1)]
            cfgs = [ap.DAConfig(order=args.order, degrees=s, inhomog_degree=L)
                    for s in [d] + [v for v in lower if min(v) >= 0]
                    for L in (-1, 0, 1)]
        except ValueError as exc:
            return _fail("usage", str(exc), 2)
    dps = args.precision
    try:
        loaded = aio.read_bfile(args.input, dps=dps)
    except (OSError, ValueError) as exc:
        return _fail("parse", str(exc))
    exact = loaded.exact
    if cfgs is None:
        cfgs = ap.default_ensemble(min(loaded.n_exact, 44))
        if len(cfgs) < 3:
            return _fail("insufficient-terms",
                         f"{loaded.n_exact} exact terms give {len(cfgs)} default "
                         "approximants; need >= 3")
    try:
        pred = ap.predict_ensemble(exact, cfgs, args.predict, dps=dps)
    except AllFitsFailedError as exc:
        return _fail("fit-failed", str(exc))
    diag = {
        "input_terms": loaded.n_exact,
        "predicted": args.predict,
        "precision": dps,
        "configs": [{"order": c.order, "degrees": list(c.degrees),
                     "inhomog_degree": c.inhomog_degree,
                     "matched_terms": c.matched_terms}
                    for c in pred.configs_used],
        "failures": [f"{c.order}/{c.degrees}/{c.inhomog_degree}: {msg}"
                     for c, msg in pred.failures],
        "agreed_digits": [int(d) for d in pred.agreed_digits],
        "spreads": [aio.format_real_sci(s, 3) for s in pred.spreads],
        "excluded": [[n, str(cfg.degrees), aio.format_real_sci(v, 8)]
                     for n, cfg, v in pred.excluded],
    }
    try:
        aio.write_extended_bfile(args.output, exact, pred)
        with open(args.output + ".diag.json", "w") as fh:
            json.dump(diag, fh, indent=1, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        return _fail("write", str(exc))
    return 0


def cmd_verify(args):
    if (args.input is None) != (args.pattern is None):
        return _fail("usage", "--input and --pattern go together", 2)
    if args.input is not None:
        if args.max_n is not None:
            return _fail("usage", "--max-n applies only without --input", 2)
        try:
            loaded = aio.read_bfile(args.input)
        except (OSError, ValueError) as exc:
            return _fail("parse", str(exc))
        try:
            bad = ver.compare_series_file(loaded, args.pattern)
        except CapExceededError as exc:
            return _fail("cap-exceeded", str(exc))
        if bad is not None:
            print(f"FAIL series-file-comparison first mismatch at n={bad}")
            return 1
        print(f"PASS series-file-comparison {loaded.n_exact} exact terms match")
        return 0
    try:
        results = ver.run_checks(max_n=10 if args.max_n is None else args.max_n)
    except ValueError as exc:
        return _fail("usage", str(exc), 2)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        tag = "PASS" if r.ok else "FAIL"
        detail = f"  {r.detail}" if r.detail else ""
        print(f"{tag} {r.name:<{width}}{detail}")
        failed += 0 if r.ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser():
    # the engine table's patterns and algorithms, plus "brute": the oracle's
    # forward sweep over avoiding prefixes (sequences.brute_force_avoiders)
    patterns = list(dict.fromkeys(pattern for pattern, _ in dp.ENGINES))
    algos = ["brute", *dict.fromkeys(algo for _, algo in dp.ENGINES)]
    precision_help = f"working precision in decimal digits, at least 30; default {DEFAULT_DPS}"
    p = argparse.ArgumentParser(prog="ascentlab",
                                description="Pattern-avoiding ascent sequence workbench")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("enumerate", help="write a series b-file")
    pe.add_argument("--pattern", required=True, choices=patterns)
    pe.add_argument("--algo", default="dp", choices=algos)
    pe.add_argument("--terms", type=int, required=True,
                    help="count lengths 1..TERMS, at most a capped engine's cap: dp.CAPS for "
                    "the set-state engines (a run at its cap fits a 4 GB memory budget; "
                    "\"dp\" for 110 is the marked-repeat sweep, \"dp-exp\" the raw sweep), "
                    "sequences.ORACLE_CAP for brute; the layered engines have none")
    pe.add_argument("--output", required=True)
    pe.add_argument("--override-caps", action="store_true",
                    help="run past a cap (see --terms) under a warning")
    pe.set_defaults(func=cmd_enumerate)

    pa = sub.add_parser("analyze", help="write estimator-trace CSV from a b-file")
    pa.add_argument("--input", required=True)
    pa.add_argument("--output", required=True)
    pa.add_argument("--model", required=True, help="one of " + ", ".join(MODELS))
    pa.add_argument("--sigma", type=float,
                    help=f"stretched model only; default {STRETCHED_SIGMA}")
    pa.add_argument("--mu", type=float, help="stretched model only: the known growth "
                    "constant, which adds the known-mu estimators and the ratio fit")
    pa.add_argument("--g", type=float, help="stretched model only, needs --mu: the "
                    "known power-law exponent, which adds the refined mu1 estimate")
    pa.add_argument("--precision", type=int, default=DEFAULT_DPS, help=precision_help)
    pa.set_defaults(func=cmd_analyze)

    px = sub.add_parser("extend", help="extend a series by ensemble prediction")
    px.add_argument("--input", required=True)
    px.add_argument("--output", required=True)
    px.add_argument("--predict", type=int, required=True)
    px.add_argument("--order", type=int,
                    help="fit this order with --degrees, and with Q_0 or Q_M "
                    "one degree lower, each at inhomogeneous degrees -1, 0 "
                    "and 1, instead of the default ensemble")
    px.add_argument("--degrees", help="degrees of Q_0..Q_M, comma-separated")
    px.add_argument("--precision", type=int, default=DEFAULT_DPS, help=precision_help)
    px.set_defaults(func=cmd_extend)

    pv = sub.add_parser("verify", help="run the cross-check suite")
    pv.add_argument("--max-n", type=int, help="largest length the oracles count; default 10")
    pv.add_argument("--input", help="b-file to recount with the pattern's dp engine under "
                    "enumerate's caps; a file longer than the cap fails (cap-exceeded)")
    pv.add_argument("--pattern", choices=patterns, help="pattern of the --input series")
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "precision", 30) < 30:
        return _fail("usage", "precision must be at least 30", 2)
    if getattr(args, "terms", 1) < 1:
        return _fail("usage", "terms must be at least 1", 2)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
