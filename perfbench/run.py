"""Benchmark of the `ascentlab` command-line pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1

Run from the root of a source checkout. A run of one workload is one fresh
Python process that repeats the workload's fixed sequence of CLI commands,
one after the other (a closed loop with one client), until the next
repetition would not fit in S seconds; at least three repetitions run. Each
command's outputs are checked against committed reference series. The last
line of standard output is a JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`. Timings are medians
over repetitions, scaled to a reference machine speed (see speed.py); the
unscaled ones are the per-layer `raw.*` metrics. `--workload all` runs
every workload, each in its own process, and prints every metric by name
and unit before the JSON line.

Set-up time is measured by starting a fresh interpreter 15 times, each of
which imports the program and loads the reference inputs; the median is
reported. A traced run alternates untraced and traced repetitions: spans
and counters come from the traced ones, per-command times and the tracing
overhead from the comparison. Result files, stamped with the environment,
go to `.perfbench_work/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 15
MIN_REPEATS = 3
KINDS = ("enumerate", "extend", "analyze", "verify")

sys.path.insert(0, HERE)
import speed  # noqa: E402
import workloads as wl  # noqa: E402


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup(workload, work):
    """Import the program from the checkout and load the reference inputs,
    writing the workload's input files under `work`."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ascentlab", "cli.py")):
        fail(f"no ascentlab sources under {src}")
    sys.path.insert(0, src)
    from ascentlab import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        fail(f"imported ascentlab from {cli.__file__}, not from {src}")
    refs = wl.Refs(os.path.join(HERE, "ref"))
    digits = []
    for sub in ("inputs", "out"):
        os.makedirs(os.path.join(work, sub), exist_ok=True)
    chains = wl.build(workload, os.path.join(work, "out"), os.path.join(work, "inputs"),
                      refs, digits)
    return cli, refs, chains, digits


def measure_setup(workload, work):
    """Median scaled and raw wall times of fresh interpreters that only run
    `setup`. Each samples the machine's speed while it sets up and reports
    the samples on its last line of output; the samples of all of them
    scale the median."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--setup-only", work]
    walls, samples = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail("set-up failed")
        sampled = json.loads(proc.stdout.splitlines()[-1])
        walls.append(wall - sampled["spent"])
        samples.extend(sampled["samples"])
    raw = statistics.median(walls)
    return raw * speed.scale(samples), raw


def run_command(cli, cmd, refs, tracer, sampler):
    """Run one CLI command in this process; return (wall, cpu, error), the
    times less those spent sampling the machine's speed."""
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with sampler, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = (tracer.span("cli", "cli", cli.main, cmd.argv) if tracer
                  else cli.main(cmd.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crashing command counts as failed, the run goes on
        rc = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0 - sampler.spent
    cpu = time.process_time() - c0 - sampler.spent
    if rc != 0:
        return wall, cpu, f"{' '.join(cmd.argv[:3])}: exit {rc}: {err.getvalue().strip()}"
    try:
        return wall, cpu, cmd.check(refs, out.getvalue())
    except (OSError, ValueError) as exc:
        return wall, cpu, f"{' '.join(cmd.argv[:3])}: {exc}"


def repetition(cli, chains, refs, digits, rng, tracer=None):
    """One pass over the workload's commands, chains in seeded order. All
    its timings are scaled by the kernel samples taken while its commands
    ran. Each command's record holds its raw times, its in-command kernel
    time and a back-to-back probe taken after it, for comparison."""
    order = list(chains)
    rng.shuffle(order)
    digits.clear()
    raw = dict.fromkeys(("total_s", "cpu_s", *(f"{k}_s" for k in KINDS)), 0.0)
    commands, samples, errors = [], [], []
    for chain in order:
        for cmd in chain:
            sampler = speed.Sampler()
            wall, cpu, error = run_command(cli, cmd, refs, tracer, sampler)
            samples.extend(sampler.samples)
            raw["total_s"] += wall
            raw["cpu_s"] += cpu
            raw[f"{cmd.kind}_s"] += wall
            commands.append({"argv": cmd.argv[:3], "wall_s": wall, "cpu_s": cpu,
                             "kernel_samples": len(sampler.samples),
                             "kernel_in_s": (speed.kernel_time(sampler.samples)
                                             if sampler.samples else None),
                             "kernel_probe_s": speed.probe()})
            if error:
                errors.append(error)
    # Only a repetition whose every command failed at once has no samples.
    scale = speed.scale(samples or [speed.probe()])
    sample = {k: v * scale for k, v in raw.items()}
    sample.update({"raw.total_s": raw["total_s"], "raw.cpu_s": raw["cpu_s"],
                   "calibration.kernel_s": speed.REFERENCE_S / scale,
                   "agreed_digits_mean": statistics.fmean(digits) if digits else 0.0,
                   "commands": commands})
    return sample, len(commands), errors


def git_sha():
    """Commit of the checkout, or "unknown" where it has no .git (git is
    then not started, so it cannot look above the checkout)."""
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.isdir(git_dir):
        return "unknown"
    try:
        proc = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment():
    """Stamp for result files: what ran, and how busy the machine was."""
    import mpmath
    import numpy
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "nproc": os.cpu_count(), "loadavg_start": list(os.getloadavg()),
            "platform": platform.platform()}


def median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def run_workload(args):
    env = environment()
    work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_s, raw_setup_s = measure_setup(args.workload, work)
        cli, refs, chains, digits = setup(args.workload, work)
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        rng = random.Random(args.seed)
        plain, traced, per_layer, errors = [], [], [], []
        attempted = 0
        start = time.perf_counter()
        while True:
            use_trace = args.trace and len(traced) < len(plain)
            gc.collect()
            if use_trace:
                tracer.begin()
                tracer.install()
                try:
                    sample, n, errs = repetition(cli, chains, refs, digits, rng, tracer)
                finally:
                    tracer.uninstall()
                per_layer.append(tracer.metrics())
                traced.append(sample)
            else:
                sample, n, errs = repetition(cli, chains, refs, digits, rng)
                plain.append(sample)
            attempted += n
            errors.extend(errs)
            done = len(plain) + len(traced)
            elapsed = time.perf_counter() - start
            enough = done >= MIN_REPEATS and (not args.trace or len(traced) >= 2)
            if enough and elapsed * (done + 1) / done > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {k: statistics.median(m[k] for m in per_layer) for k in per_layer[0]}
        for key in ("agreed_digits_mean", "raw.total_s", "raw.cpu_s",
                    "calibration.kernel_s", *(f"{k}_s" for k in KINDS)):
            metrics[key] = median_of(plain, key)
        metrics["raw.setup_s"] = raw_setup_s
        metrics["failed_frac"] = len(errors) / attempted
        metrics["trace.overhead_s"] = median_of(traced, "total_s") - median_of(plain, "total_s")
    else:
        metrics = {"total_s": median_of(plain, "total_s"), "cpu_s": median_of(plain, "cpu_s"),
                   "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    spec = load_spec()
    listed = spec["per_layer" if args.trace else "end_to_end"]
    result = {"correct": not errors, "attempted": attempted, "failed": len(errors),
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in listed}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "repetitions": {"untraced": plain, "traced": traced, "per_layer": per_layer},
              "errors": errors, "result": result}
    os.makedirs(os.path.join(WORK_ROOT, "results"), exist_ok=True)
    stem = os.path.join(WORK_ROOT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.dump(stem + ".spans.json")
    for error in errors[:10]:
        print(f"FAILED {error}", file=sys.stderr)
    return result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_all(args):
    """Every workload in its own process; print each metric with its unit."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            fail(f"workload {name} exited {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:<40} {v['value']:>14.6g} {v['unit']}")
            total["metrics"][f"{name}/{metric}"] = v
    return total


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail(f"no BENCHMARK.json in {ROOT}")
    if args.setup_only:
        with speed.Sampler() as sampler:
            setup(args.workload, args.setup_only)
        print(json.dumps({"samples": sampler.samples, "spent": sampler.spent}))
        return
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
