"""File formats and command-line behavior: round trips, exit codes,
byte-level determinism."""

import json
import math
import os
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf

from ascentlab import cli
from ascentlab import dp
from ascentlab import io as aio
from ascentlab.series import CoefficientSeries

mpmath.mp.dps = 60


REF_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "ref"
# `extend --predict 20` outputs on reference prefixes, pinned byte for byte.
GOLDEN_DIR = Path(__file__).resolve().parent / "data"
# Terms per engine in test_cli_every_engine_matches_reference; each reference
# series is cross-checked against the oracles when it is written. The layered
# engines run to the benchmark's depths, where values span many limbs.
ENGINE_TERMS = {("none", "dp"): 200, ("000", "dp"): 64, ("000", "dp-poly"): 64,
                ("000", "dp-exp"): 18, ("100", "dp"): 76, ("110", "dp"): 16,
                ("110", "dp-exp"): 16, ("120", "dp"): 22, ("120", "dp-exp"): 22}


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


@pytest.mark.parametrize("pattern,n", [("120", 30), ("000", 60)])
def test_cli_extend_matches_golden(tmp_path, pattern, n):
    src = tmp_path / f"{pattern}.b"
    src.write_bytes(b"".join((REF_DIR / f"{pattern}.b").read_bytes()
                             .splitlines(keepends=True)[:n]))
    out = tmp_path / "ext.b"
    assert run_cli("extend", "--input", str(src), "--output", str(out),
                   "--predict", "20") == 0
    golden = GOLDEN_DIR / f"extend_{pattern}_n{n}.b"
    assert out.read_bytes() == golden.read_bytes()
    assert (Path(f"{out}.diag.json").read_bytes()
            == Path(f"{golden}.diag.json").read_bytes())


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


def test_cli_verify_quick():
    assert run_cli("verify", "--max-n", "6") == 0


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


def test_cli_usage_validation(tmp_path, capsys):
    assert run_cli("analyze", "--input", "x", "--model", "nope",
                   "--output", "y") == 2
    assert "error: usage:" in capsys.readouterr().err
    assert run_cli("analyze", "--input", "x", "--model", "power",
                   "--output", "y", "--precision", "10") == 2
    assert run_cli("enumerate", "--pattern", "000", "--terms", "0",
                   "--output", str(tmp_path / "z.bf")) == 2
    # patterns without an engine are rejected by argparse before any work
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--input", str(tmp_path / "z.bf"), "--pattern", "201")
    assert exc.value.code == 2
    assert "invalid choice: '201'" in capsys.readouterr().err


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
