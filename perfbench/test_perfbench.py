"""Tests of the benchmark itself:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

NOCACHE = shutil.ignore_patterns("__pycache__", ".pytest_cache")


def _checkout(tmp_path, with_src=True):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=NOCACHE)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=NOCACHE)
    return tmp_path


def _run(root, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def test_corrupted_reference_term_counts_as_failed(tmp_path):
    root = _checkout(tmp_path)
    ref = root / "perfbench" / "ref" / "110.b"
    lines = ref.read_text().splitlines(keepends=True)
    n, value = lines[9].split()
    lines[9] = f"{n} {int(value) + 1}\n"
    ref.write_text("".join(lines))
    proc = _run(root, "--workload", "setstate-sweep", "--seed", "3", "--seconds", "1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    repetitions = result["attempted"] // 4        # four commands per repetition
    assert result["correct"] is False
    assert result["failed"] == repetitions        # only the 110 enumeration fails
    assert result["metrics"]["failed_frac"]["value"] == 0.25
    with open(root / "BENCHMARK.json") as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(result["metrics"]) == per_layer
    assert result["metrics"]["dp.setstate.share"]["value"] > 0.5


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    root = _checkout(tmp_path, with_src=False)
    proc = _run(root, "--workload", "crosscheck", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


class _Refs:
    def __init__(self, values):
        self.lines = {"s": [f"{n} {v}\n".encode() for n, v in enumerate(values, 1)]}
        self.values = {"s": values}


def test_predicted_terms_are_held_to_their_claimed_digits(tmp_path):
    path = tmp_path / "ext.b"
    path.write_text("1 1\n2 2\n3 ~1234.5 4\n4 ~9.9e+3 0\n")
    digits = []
    check = wl.expect_extension(str(path), "s", 2, 2, digits)
    assert check(_Refs([1, 2, 1235, 7]), "") is None     # off by 0.5 < 1 unit
    assert digits == [4, 0]                              # 0 digits claims nothing
    assert "claims 4 digits" in check(_Refs([1, 2, 1237, 7]), "")
    assert "exact terms differ" in check(_Refs([1, 3, 1235, 7]), "")
