"""File formats and command-line behavior: round trips, exit codes,
byte-level determinism."""

import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from decimal import Decimal, localcontext
from pathlib import Path

import mpmath
import numpy as np
import pytest
from mpmath import mpf

from ascentlab import analysis as an
from ascentlab import cli
from ascentlab import dp
from ascentlab import io as aio
from ascentlab import sequences as sq
from ascentlab import verify as ver
from ascentlab.series import CoefficientSeries

mpmath.mp.dps = 60


REF_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "ref"
# Outputs pinned byte for byte, each written by the CLI from a prefix of a
# reference series (`head -n N perfbench/ref/P.b > P.b`):
#   extend_P_nN.b (+ .diag.json): `extend --input P.b --predict 20`;
#   extend_P_nN_p100.b (+ .diag.json): the same with `--precision 100`;
#   analyze_M_P_nN.csv (+ .summary.txt): `analyze --input P.b --model M`, with
#   `--mu 7.2958969 --g 2` for the stretched model; the input of
#   analyze_M_extend_000_n60.csv is the extended file extend_000_n60.b.
# A deliberate regeneration (say, a new DA size cap that changes the extended
# terms) rewrites these files and is logged in CHANGES.md.
GOLDEN_DIR = Path(__file__).resolve().parent / "data"
# Terms per engine in test_cli_every_engine_matches_reference; each reference
# series is cross-checked against the oracles when it is written. The layered
# engines run to the benchmark's depths, where values span many limbs; 110
# and 120 run to the full reference depth, 000's set-state engine to 24.
ENGINE_TERMS = {("none", "dp"): 200, ("000", "dp"): 64, ("000", "dp-poly"): 64,
                ("000", "dp-exp"): 24, ("100", "dp"): 76, ("110", "dp"): 21,
                ("110", "dp-exp"): 21, ("120", "dp"): 40, ("120", "dp-exp"): 40}


def run_cli(*argv):
    return cli.main(list(argv))


def _choices(command, option):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command").choices[command]
    return list(next(a for a in sub._actions if option in a.option_strings).choices)


def test_bfile_roundtrip(tmp_path):
    series = dp.enumerate_100(25)
    path = tmp_path / "c100.bf"
    aio.write_bfile(path, series)
    text = path.read_text()
    assert text.endswith("\n") and not any(ln != ln.rstrip() for ln in text.splitlines())
    assert text.splitlines()[0] == "1 1"
    loaded = aio.read_bfile(path)
    assert loaded.exact.values == series.values  # big integers survive exactly
    assert loaded.approx == []
    # blank lines and comment lines are skipped wherever they stand
    path.write_text("# c100\n1 1\n\n   \n# note\n2 2\n")
    assert aio.read_bfile(path).exact.values == [1, 2]


def test_bfile_parse_errors(tmp_path):
    p = tmp_path / "bad.bf"
    p.write_text("1 1\n3 5\n")
    with pytest.raises(ValueError, match="line 2"):
        aio.read_bfile(p)
    p.write_text("1 1\n2 x\n")
    with pytest.raises(ValueError, match="line 2"):
        aio.read_bfile(p)
    p.write_text("1 ~2.0 3\n")
    with pytest.raises(ValueError, match="no exact"):
        aio.read_bfile(p)
    # malformed predicted terms and trailing fields name their line too
    for text, line in (("1 1\n2 ~abc 3\n", 2), ("1 1\n2 ~2.5 x\n", 2),
                       ("1 1 junk\n", 1), ("1 1\n2 ~2.5 3 junk\n", 2),
                       ("1 1\n2 ~nan 3\n", 2), ("1 1\n2 ~inf\n", 2),
                       # int() and mpf() accept these; a b-file field does not
                       ("1 1\n2 2_0\n", 2), ("1 1\n2 1\n3 1\n4 \u0663\n", 4),
                       ("0_1 1\n", 1), ("1 1\n2 1\n3 ~1_0 3\n", 3),
                       ("1 1\n2 ~2.5 3_0\n", 2)):
        p.write_text(text)
        with pytest.raises(ValueError, match=f"^parse error at line {line}: "):
            aio.read_bfile(p)
    for text, message in (("1 1\n2\n", "line 2: missing value"),
                          ("1 1\n2 ~2.5 3\n3 7\n",
                           "line 3: exact term after predicted terms")):
        p.write_text(text)
        with pytest.raises(ValueError, match=f"^parse error at {message}$"):
            aio.read_bfile(p)


def test_extended_bfile_roundtrip(tmp_path):
    from ascentlab import approximants as ap
    cat = CoefficientSeries([math.comb(2 * k, k) // (k + 1) for k in range(1, 25)])
    pred = ap.predict_ensemble(cat, ap.default_ensemble(24), 6)
    path = tmp_path / "cat_ext.bf"
    aio.write_extended_bfile(path, cat, pred)
    loaded = aio.read_bfile(path)
    assert loaded.n_exact == 24
    assert len(loaded.approx) == 6
    n0, v0, d0 = loaded.approx[0]
    assert n0 == 25 and d0 == pred.agreed_digits[0]
    true = math.comb(50, 25) // 26
    assert abs(v0 - true) / true < mpf(10) ** -8
    real = loaded.combined_real(60)
    assert real.last_index == 30
    # exact terms never mix into the approximate tail on re-read
    assert loaded.exact.values == cat.values


def test_cli_enumerate_golden(tmp_path):
    out = tmp_path / "c000.bf"
    assert run_cli("enumerate", "--pattern", "000", "--algo", "dp-poly",
                   "--terms", "7", "--output", str(out)) == 0
    assert out.read_text() == "1 1\n2 2\n3 4\n4 10\n5 27\n6 83\n7 277\n"
    out2 = tmp_path / "asc.bf"
    assert run_cli("enumerate", "--pattern", "none", "--algo", "dp",
                   "--terms", "5", "--output", str(out2)) == 0
    assert out2.read_text().splitlines()[-1] == "5 53"
    out3 = tmp_path / "b120.bf"
    assert run_cli("enumerate", "--pattern", "120", "--algo", "brute",
                   "--terms", "3", "--output", str(out3)) == 0
    assert out3.read_text() == "1 1\n2 2\n3 5\n"


def test_cli_enumerate_errors(tmp_path, capsys):
    out = tmp_path / "x.bf"
    code = run_cli("enumerate", "--pattern", "110", "--algo", "dp-poly",
                   "--terms", "5", "--output", str(out))
    assert code == 2
    assert "error: usage:" in capsys.readouterr().err
    code = run_cli("enumerate", "--pattern", "000", "--algo", "brute",
                   "--terms", "16", "--output", str(out))
    assert code == 1
    assert "error: cap-exceeded:" in capsys.readouterr().err
    # no oracle counts plain ascent sequences: a usage error, no output
    code = run_cli("enumerate", "--pattern", "none", "--algo", "brute",
                   "--terms", "5", "--output", str(out))
    assert code == 2
    assert "error: usage:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_enumerate_cap_lines_name_the_flag(tmp_path, capsys, monkeypatch):
    # the oracle's cap and a set-state engine's cap, in the CLI's own terms
    out = tmp_path / "x.bf"
    assert run_cli("enumerate", "--pattern", "110", "--algo", "brute",
                   "--terms", "16", "--output", str(out)) == 1
    assert capsys.readouterr().err == ("error: cap-exceeded: oracle run capped at 15 "
                                       "terms (requested 16); pass --override-caps "
                                       "to proceed\n")
    monkeypatch.setitem(dp.CAPS, "enumerate_110", 5)
    assert run_cli("enumerate", "--pattern", "110", "--terms", "8",
                   "--output", str(out)) == 1
    assert capsys.readouterr().err == ("error: cap-exceeded: enumerate_110 capped at 5 "
                                       "terms (requested 8); pass --override-caps "
                                       "to proceed\n")
    assert not out.exists()


def test_cli_override_caps_runs_past_the_oracle_cap(tmp_path):
    out = tmp_path / "000.b"
    with pytest.warns(UserWarning):
        assert run_cli("enumerate", "--pattern", "000", "--algo", "brute",
                       "--terms", "16", "--override-caps", "--output", str(out)) == 0
    ref = (REF_DIR / "000.b").read_bytes().splitlines(keepends=True)[:16]
    assert out.read_bytes() == b"".join(ref)


def test_cli_choices_come_from_engine_table():
    assert set(ENGINE_TERMS) == set(dp.ENGINES)
    patterns = [p for p, _ in dp.ENGINES]
    assert _choices("enumerate", "--pattern") == list(dict.fromkeys(patterns))
    assert _choices("verify", "--pattern") == list(dict.fromkeys(patterns))
    algos = ["brute"] + [a for _, a in dp.ENGINES]
    assert _choices("enumerate", "--algo") == list(dict.fromkeys(algos))


def test_cli_every_engine_matches_reference(tmp_path):
    for (pattern, algo), n in ENGINE_TERMS.items():
        ref = "ascent" if pattern == "none" else pattern
        want = b"".join((REF_DIR / f"{ref}.b").read_bytes().splitlines(keepends=True)[:n])
        out = tmp_path / f"{pattern}-{algo}.bf"
        assert run_cli("enumerate", "--pattern", pattern, "--algo", algo,
                       "--terms", str(n), "--output", str(out)) == 0
        assert out.read_bytes() == want, (pattern, algo)


@pytest.mark.parametrize("pattern,n,precision", [("120", 30, None), ("000", 60, None),
                                                  ("000", 60, 100)],
                         ids=["120-30", "000-60", "000-60-p100"])
def test_cli_extend_matches_golden(tmp_path, pattern, n, precision):
    src = tmp_path / f"{pattern}.b"
    src.write_bytes(b"".join((REF_DIR / f"{pattern}.b").read_bytes()
                             .splitlines(keepends=True)[:n]))
    out = tmp_path / "ext.b"
    extra = ("--precision", str(precision)) if precision else ()
    assert run_cli("extend", "--input", str(src), "--output", str(out),
                   "--predict", "20", *extra) == 0
    suffix = f"_p{precision}" if precision else ""
    golden = GOLDEN_DIR / f"extend_{pattern}_n{n}{suffix}.b"
    assert out.read_bytes() == golden.read_bytes()
    assert (Path(f"{out}.diag.json").read_bytes()
            == Path(f"{golden}.diag.json").read_bytes())


@pytest.mark.parametrize("model,source", [
    ("power", "100_n40"), ("factorial-egf", "000_n40"), ("stretched", "120_n30"),
    ("factorial-egf", "extend_000_n60"),  # real input with predicted terms
])
def test_cli_analyze_matches_golden(tmp_path, model, source):
    extra = ("--mu", "7.2958969", "--g", "2") if model == "stretched" else ()
    if source.startswith("extend_"):
        src = GOLDEN_DIR / f"{source}.b"
    else:
        pattern, n = source.split("_n")
        src = tmp_path / f"{pattern}.b"
        src.write_bytes(b"".join((REF_DIR / f"{pattern}.b").read_bytes()
                                 .splitlines(keepends=True)[:int(n)]))
    out = tmp_path / "trace.csv"
    assert run_cli("analyze", "--input", str(src), "--output", str(out),
                   "--model", model, *extra) == 0
    golden = GOLDEN_DIR / f"analyze_{model}_{source}.csv"
    assert out.read_bytes() == golden.read_bytes()
    assert (Path(f"{out}.summary.txt").read_bytes()
            == Path(f"{golden}.summary.txt").read_bytes())


def test_cli_analyze_summary_at_requested_precision(tmp_path):
    # the (n, value) traces are extrapolated at --precision, not at 60 digits
    src = tmp_path / "000.b"
    src.write_bytes(b"".join((REF_DIR / "000.b").read_bytes()
                             .splitlines(keepends=True)[:40]))
    out = tmp_path / "trace.csv"
    assert run_cli("analyze", "--input", str(src), "--output", str(out),
                   "--model", "factorial-egf", "--precision", "100") == 0
    alpha = an.factorial_ratio_transforms(aio.read_bfile(src, dps=100).exact,
                                          dps=100).alpha_estimates[-3:]
    with mpmath.workdps(100):
        want = an.neville_extrapolate([1 / mpf(n) for n, _ in alpha],
                                      [v for _, v in alpha], 100)
    line = next(s for s in Path(f"{out}.summary.txt").read_text().splitlines()
                if s.startswith("alpha_estimate "))
    assert line.endswith(f"neville(depth=3)={aio.format_real(want, 100)}")


def test_cli_enumerate_determinism(tmp_path):
    a, b = tmp_path / "a.bf", tmp_path / "b.bf"
    for pattern, algo in (("000", "dp-poly"), ("100", "dp"), ("120", "dp-exp"),
                          ("none", "dp"), ("110", "brute")):
        run_cli("enumerate", "--pattern", pattern, "--algo", algo,
                "--terms", "10", "--output", str(a))
        run_cli("enumerate", "--pattern", pattern, "--algo", algo,
                "--terms", "10", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()


def test_cli_analyze_constant_series(tmp_path):
    src = tmp_path / "const.bf"
    src.write_text("".join(f"{n} 5\n" for n in range(1, 21)))
    out = tmp_path / "const.csv"
    assert run_cli("analyze", "--input", str(src), "--model", "power",
                   "--output", str(out)) == 0
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    header = rows[0].split(",")
    r_col = header.index("r")
    data = [ln.split(",") for ln in rows[1:]]
    vals = [row[r_col] for row in data if row[r_col]]
    assert all(v == "1.0" for v in vals)


def test_cli_analyze_assumptions_echoed(tmp_path):
    src = tmp_path / "s.bf"
    aio.write_bfile(src, dp.enumerate_120(20))
    out = tmp_path / "s.csv"
    assert run_cli("analyze", "--input", str(src), "--model", "stretched",
                   "--sigma", "0.375", "--mu", "7.2958969", "--g", "2",
                   "--output", str(out)) == 0
    head = [ln for ln in out.read_text().splitlines() if ln.startswith("#")]
    assert any("sigma=0.375" in ln for ln in head)
    assert any("mu=7.2958969" in ln for ln in head)
    assert os.path.exists(str(out) + ".summary.txt")


def test_cli_analyze_parse_error(tmp_path, capsys):
    src = tmp_path / "bad.bf"
    src.write_text("1 1\nbroken\n")
    out = tmp_path / "out.csv"
    assert run_cli("analyze", "--input", str(src), "--model", "power",
                   "--output", str(out)) == 1
    assert "error: parse:" in capsys.readouterr().err


def test_cli_extend_and_reanalyze(tmp_path):
    src = tmp_path / "c110.bf"
    aio.write_bfile(src, dp.enumerate_110(20))
    ext = tmp_path / "c110_ext.bf"
    assert run_cli("extend", "--input", str(src), "--predict", "10",
                   "--output", str(ext)) == 0
    assert os.path.exists(str(ext) + ".diag.json")
    diag = json.loads((tmp_path / "c110_ext.bf.diag.json").read_text())
    assert diag["predicted"] == 10 and len(diag["configs"]) >= 3
    lines = ext.read_text().splitlines()
    assert len(lines) == 30 and "~" in lines[20]
    out = tmp_path / "c110.csv"
    assert run_cli("analyze", "--input", str(ext), "--model", "factorial",
                   "--output", str(out)) == 0


def test_cli_extend_determinism(tmp_path):
    src = tmp_path / "cat.bf"
    aio.write_bfile(src, CoefficientSeries(
        [math.comb(2 * k, k) // (k + 1) for k in range(1, 26)]))
    outs = []
    for name in ("e1.bf", "e2.bf"):
        out = tmp_path / name
        assert run_cli("extend", "--input", str(src), "--predict", "8",
                       "--output", str(out)) == 0
        outs.append(out.read_bytes() + (tmp_path / (name + ".diag.json")).read_bytes())
    assert outs[0] == outs[1]


def test_cli_extend_geometric_exact(tmp_path):
    src = tmp_path / "geo.bf"
    aio.write_bfile(src, CoefficientSeries([2 ** n for n in range(1, 16)]))
    out = tmp_path / "geo_ext.bf"
    assert run_cli("extend", "--input", str(src), "--predict", "5",
                   "--order", "1", "--degrees", "1,1",
                   "--output", str(out)) == 0
    loaded = aio.read_bfile(out)
    for (n, v, d) in loaded.approx:
        assert abs(v - 2 ** n) / 2 ** n < mpf(10) ** -30


def test_cli_extend_explicit_shape_claims_hold(tmp_path):
    # --order/--degrees fit an ensemble of distinct approximants, so each
    # claimed digit count is measured agreement; checked against the true
    # terms 31..40 with the rule of perfbench's extension check: within one
    # unit of the last claimed digit
    ref = (REF_DIR / "120.b").read_bytes().splitlines(keepends=True)
    src = tmp_path / "120.b"
    src.write_bytes(b"".join(ref[:30]))
    out = tmp_path / "ext.b"
    assert run_cli("extend", "--input", str(src), "--output", str(out),
                   "--predict", str(len(ref) - 30),
                   "--order", "2", "--degrees", "6,6,6") == 0
    diag = json.loads(Path(f"{out}.diag.json").read_text())
    assert len(diag["configs"]) == 9
    for line in out.read_text().splitlines()[30:]:
        n, value, digits = line.split()
        true = int(ref[int(n) - 1].split()[1])
        assert 1 <= int(digits) < 55, line
        with localcontext() as ctx:
            ctx.prec = len(str(true)) + 10
            err = abs(Decimal(value[1:]) - true)
            assert err <= Decimal(10) ** (len(str(true)) - int(digits)), line


def test_cli_analyze_error_prefixes(tmp_path, capsys):
    # a zero term, exact or predicted, is not a shortage of terms, and is
    # named by its own index; two terms are a shortage
    out = tmp_path / "out.csv"
    for text, prefix in (("1 1\n2 0\n3 5\n4 9\n5 20\n",
                          "error: analysis-failed: non-positive term at index 2"),
                         ("1 1\n2 2\n3 5\n4 9\n5 20\n6 ~0.0 3\n",
                          "error: analysis-failed: non-positive term at index 6"),
                         ("1 1\n2 2\n", "error: insufficient-terms: need at least")):
        src = tmp_path / "s.b"
        src.write_text(text)
        assert run_cli("analyze", "--input", str(src), "--model", "power",
                       "--output", str(out)) == 1
        assert prefix in capsys.readouterr().err
        assert not out.exists()
    # every model rejects a negative term
    src.write_text("1 1\n2 -2\n3 5\n4 9\n5 20\n6 50\n")
    for model in ("power", "stretched", "factorial", "factorial-egf"):
        assert run_cli("analyze", "--input", str(src), "--model", model,
                       "--output", str(out)) == 1, model
        err = capsys.readouterr().err
        assert "error: analysis-failed: non-positive term at index 2" in err, model
        assert not out.exists()
    # a ratio equal to the given mu leaves the known-mu estimators nothing
    # to divide by
    src.write_text("".join(f"{n} {2 ** (n - 1)}\n" for n in range(1, 21)))
    assert run_cli("analyze", "--input", str(src), "--model", "stretched",
                   "--mu", "2", "--output", str(out)) == 1
    assert ("error: analysis-failed: ratio equals mu exactly at index 2"
            in capsys.readouterr().err)
    assert not out.exists()


def test_cli_extend_error_prefixes(tmp_path, capsys):
    # each failure exits with its prefix and writes neither output file
    asc = "".join(f"{n} {v}\n" for n, v in enumerate([1, 2, 5, 15, 53, 217], 1))
    src = tmp_path / "s.b"
    out = tmp_path / "out.b"
    for text, extra, code, prefix in (
            (asc, ("--order", "2", "--degrees", "2,x"), 2, "error: usage: "),
            ("1 1\n2 x\n", (), 1, "error: parse: parse error at line 2: "),
            (asc, ("--order", "3", "--degrees", "5,5,5,5"), 1,
             "error: fit-failed: only 0 of 9 approximants fitted"),
            # fewer than six terms leave the default ensemble short of three
            # approximants: a shortage of terms, not a failure of the fits
            ("1 1\n2 2\n3 5\n", (), 1, "error: insufficient-terms: 3 exact terms "
             "give 0 default approximants; need >= 3"),
            ("".join(asc.splitlines(keepends=True)[:5]), (), 1,
             "error: insufficient-terms: 5 exact terms give 2 default "
             "approximants; need >= 3")):
        src.write_text(text)
        assert run_cli("extend", "--input", str(src), "--output", str(out),
                       "--predict", "2", *extra) == code, prefix
        assert capsys.readouterr().err.startswith(prefix)
        assert not out.exists() and not Path(f"{out}.diag.json").exists()
    # six terms give four default approximants, and the series extends
    src.write_text(asc)
    assert run_cli("extend", "--input", str(src), "--output", str(out),
                   "--predict", "2") == 0
    assert len(json.loads(Path(f"{out}.diag.json").read_text())["configs"]) == 4
    assert len(aio.read_bfile(out).approx) == 2


def test_cli_write_error_prefix(tmp_path, capsys):
    # an output in a missing directory fails after the work, under its own
    # prefix and with no traceback
    src = tmp_path / "geo.b"
    aio.write_bfile(src, CoefficientSeries([2 ** n for n in range(1, 16)]))
    out = str(tmp_path / "missing" / "out")
    for argv in (("enumerate", "--pattern", "000", "--terms", "5"),
                 ("analyze", "--input", str(src), "--model", "power"),
                 ("extend", "--input", str(src), "--predict", "2",
                  "--order", "1", "--degrees", "1,1")):
        assert run_cli(*argv, "--output", out) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: write: ") and "missing" in err, argv[0]
    assert not (tmp_path / "missing").exists()


def test_cli_verify_quick(capsys):
    assert run_cli("verify", "--max-n", "6") == 0
    out = capsys.readouterr().out
    # the two 120 engines are distinct, so the oracle checks each; the
    # canonical 120 and marked 110 engines are checked against their raw
    # sweeps at max_n + 6, and the ascent engine against the Fishburn
    # generating function at max_n
    for line in ("oracle-equivalence-120-dp", "oracle-equivalence-120-dp-exp",
                 "canonical-equals-raw-120 +n=12", "marked-equals-raw-110 +n=12",
                 "closed-form-ascent +n=6"):
        assert re.search(f"^PASS {line} *$", out, re.M), line


def test_cli_verify_top_of_range(capsys):
    top = max(ver.MAX_N_RANGE)
    assert top == 14
    assert run_cli("verify", "--max-n", str(top)) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.endswith("27/27 checks passed\n")


def test_verify_runs_each_engine_once(monkeypatch):
    names = set(dp.ENGINES.values())
    calls = Counter()
    for name in names:
        def counted(*args, _engine=getattr(dp, name), _name=name, **kwargs):
            calls[_name] += 1
            return _engine(*args, **kwargs)
        monkeypatch.setattr(dp, name, counted)
    assert all(r.ok for r in ver.run_checks(6))
    assert calls == Counter(names)


def test_verify_checks_each_engine_once():
    # one oracle check per distinct engine, not one per ENGINES key: the
    # layered 000 engine under ("000", "dp") only, not again as "dp-poly"
    names = {name for (pat, _), name in dp.ENGINES.items() if pat != "none"}
    oracle = [r.name for r in ver.run_checks(6) if r.name.startswith("oracle-equivalence-")]
    assert len(oracle) == len(names) == 7
    assert "oracle-equivalence-000-dp" in oracle


def test_verify_involution_check_fails_for_broken_maps(monkeypatch):
    # each broken map keeps some of the involution's properties; the check
    # must still catch every one of them
    def involution_ok():
        return {r.name: r.ok for r in ver.run_checks(6)}["reverse-complement-involution"]

    assert involution_ok()
    broken = {"reversal only": lambda rows: rows[:, ::-1],
              "identity": lambda rows: rows,
              "complement only": lambda rows: (rows.max(axis=1, keepdims=True)
                                               + rows.min(axis=1, keepdims=True) - rows)}
    for label, bad_map in broken.items():
        monkeypatch.setattr(ver, "_reverse_complement", bad_map)
        assert not involution_ok(), label


def test_verify_reverse_complement_rows_match_the_map():
    # the array map that verify checks is sequences.weak_reverse_complement,
    # row by row, on every weak ascent sequence of length <= 7
    for k in range(1, 8):
        seqs = list(sq.weak_ascent_sequences(k))
        rows = ver._reverse_complement(np.array(seqs, dtype=np.int64))
        assert [tuple(r) for r in rows.tolist()] == [sq.weak_reverse_complement(s)
                                                     for s in seqs], k


def test_cli_verify_series_file(tmp_path, capsys):
    good = tmp_path / "good.bf"
    aio.write_bfile(good, dp.enumerate_100(12))
    assert run_cli("verify", "--input", str(good), "--pattern", "100") == 0
    bad = tmp_path / "bad.bf"
    s = dp.enumerate_100(12)
    s.values[7] += 1
    aio.write_bfile(bad, s)
    capsys.readouterr()
    assert run_cli("verify", "--input", str(bad), "--pattern", "100") == 1
    assert "n=8" in capsys.readouterr().out
    bad.write_text("1 1\n2 x\n")
    assert run_cli("verify", "--input", str(bad), "--pattern", "100") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: parse: parse error at line 2: bad integer value\n"
    assert captured.out == ""


def test_cli_verify_series_file_past_cap(tmp_path, capsys, monkeypatch):
    # a file longer than its pattern's "dp" cap fails before any sweep
    # starts, naming the engine and its cap and no flag verify lacks
    capped = {p: name for (p, algo), name in dp.ENGINES.items()
              if algo == "dp" and name in dp.CAPS}
    assert capped

    def no_sweep(*args):
        raise AssertionError("sweep started")
    monkeypatch.setattr(dp, "_sweep_step", no_sweep)
    src = tmp_path / "s.b"
    for pattern, name in capped.items():
        src.write_bytes(b"".join((REF_DIR / f"{pattern}.b").read_bytes()
                                 .splitlines(keepends=True)[:8]))
        monkeypatch.setitem(dp.CAPS, name, 5)
        assert run_cli("verify", "--input", str(src), "--pattern", pattern) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: cap-exceeded: {name} capped at 5 terms "
                                "(requested 8)\n")
        assert captured.out == ""


def test_cli_usage_validation(tmp_path, capsys):
    assert run_cli("analyze", "--input", "x", "--model", "nope",
                   "--output", "y") == 2
    assert "error: usage:" in capsys.readouterr().err
    assert run_cli("analyze", "--input", "x", "--model", "power",
                   "--output", "y", "--precision", "10") == 2
    assert run_cli("enumerate", "--pattern", "000", "--terms", "0",
                   "--output", str(tmp_path / "z.bf")) == 2
    # bad model parameters and prediction counts are usage errors, caught
    # before the (missing) input is read
    capsys.readouterr()
    stretched = ("analyze", "--input", "x", "--model", "stretched", "--output", "y")
    for extra, message in ((("--mu", "-1"), "mu must be positive"),
                           (("--sigma", "1.5"), "sigma must lie strictly between"),
                           (("--sigma", "0"), "sigma must lie strictly between"),
                           (("--sigma", "0.5", "--mu", "7"),
                            "sigma 0.5 with --mu makes the ratio fit singular"),
                           (("--g", "2"), "--g needs --mu"),
                           (("--mu", "inf"), "mu and g must be finite"),
                           (("--mu", "7", "--g", "nan"), "mu and g must be finite"),
                           (("--mu", "7", "--g", "inf"), "mu and g must be finite"),
                           (("--mu", "7", "--g=-inf"), "mu and g must be finite")):
        assert run_cli(*stretched, *extra) == 2
        assert f"error: usage: {message}" in capsys.readouterr().err
    # the stretched model's parameters are rejected, not ignored, elsewhere
    for model, extra in (("power", ("--mu", "7")), ("factorial", ("--g", "2")),
                         ("factorial-egf", ("--sigma", "0.375"))):
        assert run_cli("analyze", "--input", "x", "--model", model,
                       "--output", "y", *extra) == 2
        assert ("error: usage: --mu, --g and --sigma apply only to --model "
                "stretched") in capsys.readouterr().err
    for bad in ("0", "-5"):
        assert run_cli("extend", "--input", "x", "--output", "y",
                       "--predict", bad) == 2
        assert "error: usage: predict must be at least 1" in capsys.readouterr().err
    # --order is checked before the (missing) input is read
    capsys.readouterr()
    assert run_cli("extend", "--input", str(tmp_path / "missing.b"), "--output", "y",
                   "--predict", "3", "--order", "2") == 2
    assert "error: usage: --order and --degrees go together" in capsys.readouterr().err
    # verify compares a series file only given both --input and --pattern;
    # one of them alone does not fall back to the whole suite
    for one in (("--pattern", "120"), ("--input", str(tmp_path / "z.bf"))):
        assert run_cli("verify", *one) == 2
        captured = capsys.readouterr()
        assert "error: usage: --input and --pattern go together" in captured.err
        assert "checks passed" not in captured.out
    # verify's exhaustive depth is rejected, not clamped, outside 4..14
    capsys.readouterr()
    for bad in ("3", "15", "20"):
        assert run_cli("verify", "--max-n", bad) == 2
        captured = capsys.readouterr()
        assert "error: usage: max_n must be in 4..14" in captured.err
        assert "checks passed" not in captured.out
    # --max-n sizes the suite only; with a series file it is rejected, not
    # ignored, before the (missing) input is read
    for value in ("4", "10", "14"):
        assert run_cli("verify", "--input", str(tmp_path / "missing.b"),
                       "--pattern", "120", "--max-n", value) == 2
        captured = capsys.readouterr()
        assert "error: usage: --max-n applies only without --input" in captured.err
        assert "series-file-comparison" not in captured.out
    # patterns without an engine are rejected by argparse before any work
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--input", str(tmp_path / "z.bf"), "--pattern", "201")
    assert exc.value.code == 2
    assert "invalid choice: '201'" in capsys.readouterr().err


def test_cli_module_exit_codes_reach_the_shell(tmp_path):
    # `python -m ascentlab.cli` hands main()'s return value to sys.exit
    env = dict(os.environ)
    src_dir = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    out = tmp_path / "c000.b"
    for argv, code, stderr in (
            (("enumerate", "--pattern", "000", "--terms", "5", "--output", str(out)),
             0, ""),
            (("analyze", "--input", str(tmp_path / "missing.b"), "--model", "power",
              "--output", str(tmp_path / "t.csv")), 1, "error: parse: "),
            (("enumerate", "--pattern", "000", "--terms", "0", "--output", str(out)),
             2, "error: usage: terms must be at least 1")):
        done = subprocess.run([sys.executable, "-m", "ascentlab.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == code, (argv, done.stderr)
        assert done.stderr.startswith(stderr), (argv, done.stderr)
    assert out.read_text() == "1 1\n2 2\n3 4\n4 10\n5 27\n"


def test_trace_csv_format(tmp_path):
    from ascentlab.series import RealSeries
    cols = {"a": RealSeries([mpf("1.5"), mpf("2.25")], first_index=3, dps=60),
            "b": [(4, mpf("-0.125"))]}
    path = tmp_path / "t.csv"
    aio.write_trace_csv(path, cols, assumptions={"sigma": 0.375}, dps=60)
    lines = path.read_text().splitlines()
    assert lines[0] == "# sigma=0.375"
    assert lines[1] == "n,a,b"
    assert lines[2].startswith("3,1.5,")
    assert "e" not in lines[3]  # plain decimal strings only
