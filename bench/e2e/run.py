#!/usr/bin/env python3
"""End-to-end benchmark of the CPU training stack (see README.md).

Builds bench/e2e (the caraml_e2e program and the caraml CLI) from the
repository's sources, runs workloads, checks their outputs and prints every
metric BENCHMARK.json declares, by name and with its unit.

  python3 bench/e2e/run.py --seed 1              # all five workloads
  python3 bench/e2e/run.py --seed 1 --trace 1    # plus a traced run of each
  python3 bench/e2e/run.py --workload gpt_train --seed 3 --seconds 10 --trace 0
  python3 bench/e2e/run.py --smoke               # 1 s windows, every check
  python3 bench/e2e/run.py --compare BASE.jsonl NEW.jsonl

A single-workload run prints, as its last line, one JSON object with the keys
correct, attempted, failed and metrics: the end_to_end metrics untraced
(--trace 0), the per_layer metrics traced (--trace 1). --compare reads such
lines, one run per line, and checks medians against the declared bounds.
Exits non-zero on any failure.
"""

import argparse
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_BUILD_DIR = ROOT / ".bench_build" / "e2e"

# Pool threads per workload: at most nproc (4) runnable threads each.
# gpt_train_dp runs 2 rank threads over a 2-worker pool; tokenize is
# single-threaded code.
THREADS = {
    "gpt_train": 4,
    "gpt_train_dp": 2,
    "gpt_decode": 4,
    "resnet_train": 4,
    "tokenize": 1,
}

# What one item of items_per_s is, per workload.
ITEM = {
    "gpt_train": "trained tokens",
    "gpt_train_dp": "trained tokens",
    "gpt_decode": "generated tokens",
    "resnet_train": "trained images",
    "tokenize": "encoded bytes",
}

# gpt_train loss at step 20 (counted from the first warm-up step) for
# --seed 1. Thread count changes the last bits (README.md, defect 2), so it
# is compared within REFERENCE_RTOL.
REFERENCE_SEED = 1
REFERENCE_LOSS_STEP20 = 5.3805460929870605
REFERENCE_RTOL = 1e-4

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH_RE = re.compile(r"[A-Za-z0-9_./-]{1,200}")
MIN_BEYOND = 10  # samples that must lie beyond a reported percentile
SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"}
MAX_BOUND = 0.25


class BenchError(Exception):
    """A failed build, run or check; the runner exits non-zero."""


# --- BENCHMARK.json ----------------------------------------------------------

def _check_metrics(entries, keys, section, limit):
    if not isinstance(entries, list) or not 1 <= len(entries) <= limit:
        raise BenchError(f"{section}: expected 1 to {limit} metrics")
    for m in entries:
        if not isinstance(m, dict) or set(m) != keys:
            raise BenchError(f"{section}: each metric has exactly "
                             f"{sorted(keys)}")
        if not isinstance(m["name"], str) or not NAME_RE.fullmatch(m["name"]):
            raise BenchError(f"{section}: bad metric name {m['name']!r}")
        if not isinstance(m["unit"], str) or not UNIT_RE.fullmatch(m["unit"]):
            raise BenchError(f"{section}: bad unit {m['unit']!r}")
        if m["better"] not in ("higher", "lower"):
            raise BenchError(f"{section}: {m['name']}: better is higher|lower")
        if "bound" in m:
            b = m["bound"]
            if isinstance(b, bool) or not isinstance(b, (int, float)) or \
                    not 0 <= b <= MAX_BOUND:
                raise BenchError(f"{section}: {m['name']}: bound must lie "
                                 f"in [0, {MAX_BOUND}]")


def validate_spec(spec):
    """Raises BenchError unless `spec` is a well-formed BENCHMARK.json."""
    if not isinstance(spec, dict) or set(spec) != SPEC_KEYS:
        raise BenchError(f"BENCHMARK.json: keys must be {sorted(SPEC_KEYS)}")
    cmd = spec["command"]
    if not isinstance(cmd, list) or not 1 <= len(cmd) <= 32 or \
            not all(isinstance(c, str) and len(c) <= 200 for c in cmd):
        raise BenchError("command: 1 to 32 strings of at most 200 characters")
    paths = spec["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        raise BenchError("paths: 1 to 16 directories")
    for p in paths:
        if not isinstance(p, str) or not PATH_RE.fullmatch(p) or \
                p.startswith("/") or ".." in p.split("/"):
            raise BenchError(f"paths: bad path {p!r}")
    secs = spec["run_seconds"]
    if isinstance(secs, bool) or not isinstance(secs, int) or \
            not 1 <= secs <= 60:
        raise BenchError("run_seconds: a whole number from 1 to 60")
    workloads = spec["workloads"]
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        raise BenchError("workloads: 2 to 8 entries")
    for w in workloads:
        if not isinstance(w, dict) or set(w) != {"name", "why"}:
            raise BenchError("workloads: each has exactly name and why")
        if not isinstance(w["name"], str) or not NAME_RE.fullmatch(w["name"]):
            raise BenchError(f"workloads: bad name {w['name']!r}")
        why = w["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or \
                "\n" in why:
            raise BenchError(f"workloads: {w['name']}: why is one line of at "
                             "most 200 characters")
    _check_metrics(spec["end_to_end"], {"name", "unit", "better", "bound"},
                   "end_to_end", 16)
    _check_metrics(spec["per_layer"], {"name", "unit", "better"},
                   "per_layer", 128)
    names = [x["name"] for x in workloads] + \
        [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(names) != len(set(names)):
        raise BenchError("BENCHMARK.json: a name is used twice")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and
               m["better"] == "lower" for m in spec["end_to_end"]):
        raise BenchError("end_to_end: setup_s (s, lower) is required")
    return spec


def load_spec(path=SPEC_PATH):
    try:
        spec = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e
    return validate_spec(spec)


# --- statistics --------------------------------------------------------------

def percentile(samples, pct):
    """Nearest-rank percentile `pct` (an integer in 1..99) of `samples`.

    Refuses to report one that fewer than MIN_BEYOND samples lie beyond:
    p90 needs at least 100 samples, p50 at least 20.
    """
    n = len(samples)
    rank = -(-pct * n // 100)  # ceil(pct * n / 100) in integers
    if n - rank < MIN_BEYOND:
        raise BenchError(f"p{pct} needs {MIN_BEYOND} samples beyond it, "
                         f"{n} samples leave {max(n - rank, 0)}")
    return sorted(samples)[rank - 1]


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


def regression(metric, base_median, new_median):
    """Share by which `new_median` is worse than `base_median` (<= 0: not)."""
    if base_median == 0:
        return 0.0 if new_median == base_median else math.inf
    change = (new_median - base_median) / abs(base_median)
    return change if metric["better"] == "lower" else -change


def compare(spec, base_runs, new_runs):
    """Rows (name, base median, new median, worse by, bound, ok) for every
    end-to-end metric present in both sets of result objects."""
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base = [r["metrics"][name]["value"] for r in base_runs
                if name in r["metrics"]]
        new = [r["metrics"][name]["value"] for r in new_runs
               if name in r["metrics"]]
        if not base or not new:
            continue
        b, n = statistics.median(base), statistics.median(new)
        worse = regression(metric, b, n)
        rows.append((name, b, n, worse, metric["bound"],
                     worse <= metric["bound"]))
    return rows


# --- running caraml_e2e ------------------------------------------------------

def _run(cmd, timeout, build_dir, **env):
    """Runs `cmd` from the repository root in a process group of its own, so
    that on timeout the whole group (make, compilers) is killed and reaped.
    Temporary files go to the build directory, inside the checkout."""
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, text=True,
                                env=dict(os.environ, TMPDIR=str(tmp), **env),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
    except OSError as e:
        raise BenchError(f"cannot run {cmd[0]}: {e}") from e
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{Path(cmd[0]).name} timed out after {timeout} s")
    return proc.returncode, out, err


def _cpus():
    return len(os.sched_getaffinity(0))


def build(build_dir):
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "caraml_e2e",
                  "caraml_cli", "-j", str(min(4, _cpus()))])
    for cmd in steps:
        code, out, err = _run(cmd, 850, build_dir)
        if code != 0:
            sys.stderr.write(out[-4000:] + err[-4000:])
            raise BenchError(f"build failed: {' '.join(cmd)}")


def run_e2e(build_dir, workload, seed, seconds, setups, trace_path=None):
    cmd = [str(build_dir / "caraml_e2e"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--setups", str(setups)]
    if trace_path is not None:
        cmd += ["--trace-out", str(trace_path)]
    threads = min(THREADS[workload], _cpus())
    code, out, err = _run(cmd, seconds + 150, build_dir,
                          CARAML_NUM_THREADS=str(threads))
    if code != 0:
        sys.stderr.write(err)
        raise BenchError(f"{workload}: caraml_e2e exited {code}")
    return json.loads(out.strip().splitlines()[-1])


def analyse_trace(build_dir, trace_path):
    cli = build_dir / "caraml" / "core" / "caraml"
    code, out, err = _run([str(cli), "analyse-trace", "--format", "json",
                           str(trace_path)], 120, build_dir)
    if code != 0:
        sys.stderr.write(out[-2000:] + err[-2000:])
        raise BenchError(f"caraml analyse-trace rejected {trace_path}")


def self_times(trace_path):
    """Per span name: (count, total ms, self ms), self time being the span's
    duration minus that of its direct children on the same track."""
    trace = json.loads(Path(trace_path).read_text())
    events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    events.sort(key=lambda e: (e["tid"], e["ts"], -e["dur"]))
    stats, stack, tid = {}, [], None
    for e in events:
        if e["tid"] != tid:
            stack, tid = [], e["tid"]
        while stack and stack[-1]["ts"] + stack[-1]["dur"] <= e["ts"]:
            stack.pop()
        if stack:
            stack[-1]["_child"] = stack[-1].get("_child", 0.0) + e["dur"]
        stack.append(e)
    for e in events:
        count, total, own = stats.get(e["name"], (0, 0.0, 0.0))
        stats[e["name"]] = (count + 1, total + e["dur"] / 1e3,
                            own + (e["dur"] - e.get("_child", 0.0)) / 1e3)
    return stats


# --- metrics -----------------------------------------------------------------

def end_to_end(raw, smoke):
    """End-to-end metric values of one untraced caraml_e2e result. In smoke runs
    a percentile with too few samples is left out instead of failing."""
    values = {
        "items_per_s": raw["items"] / raw["window_s"],
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    for pct in (50, 90):
        try:
            values[f"op_ms_p{pct}"] = percentile(raw["op_ms"], pct)
        except BenchError:
            if not smoke:
                raise
    return values


def per_layer(raw):
    values = dict(raw["layers"])
    values["host.cpu_busy_frac"] = raw["cpu_busy_frac"]
    return values


def failures(raw, smoke):
    """Correctness failures of one caraml_e2e result."""
    found = []
    if raw["failed"]:
        found.append(f"{raw['failed']} of {len(raw['op_ms'])} operations "
                     "failed their checks")
    found += [f"{c['name']}: {c['detail']}" for c in raw["checks"]
              if not c["ok"]]
    if raw["workload"] == "gpt_train" and raw["seed"] == REFERENCE_SEED:
        loss = raw.get("loss_step20")
        if loss is None:
            if not smoke:
                found.append("gpt_train did not reach step 20")
        elif abs(loss - REFERENCE_LOSS_STEP20) > \
                REFERENCE_RTOL * abs(REFERENCE_LOSS_STEP20):
            found.append(f"gpt_train loss at step 20 is {loss!r}, "
                         f"expected {REFERENCE_LOSS_STEP20!r}")
    return found


def with_units(values, declared):
    units = {m["name"]: m["unit"] for m in declared}
    unknown = set(values) - set(units)
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: "
                         f"{sorted(unknown)}")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units if name in values}


def run_workload(spec, build_dir, workload, seed, seconds, trace, smoke):
    """Runs one workload; prints its metrics; returns the result object."""
    setups = 1 if smoke else 3
    trace_path = None
    if trace:
        trace_dir = build_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{workload}-seed{seed}.json"
    raw = run_e2e(build_dir, workload, seed, seconds, setups, trace_path)
    problems = failures(raw, smoke)
    if trace:
        analyse_trace(build_dir, trace_path)
        metrics = with_units(per_layer(raw), spec["per_layer"])
        print(f"{workload}: self time by span ({trace_path.name})")
        stats = self_times(trace_path)
        for name, (count, total, own) in sorted(
                stats.items(), key=lambda kv: -kv[1][2])[:12]:
            print(f"  {name:34s} {count:6d} spans {own:10.1f} ms self "
                  f"{total:10.1f} ms total")
    else:
        metrics = with_units(end_to_end(raw, smoke), spec["end_to_end"])
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if not smoke:
        missing = [m["name"] for m in declared if m["name"] not in metrics]
        if missing:
            raise BenchError(f"{workload}: no value for {missing}")
    print(f"{workload} (seed {seed}, {raw['threads']} threads, "
          f"{len(raw['op_ms'])} operations in {raw['window_s']:.2f} s; "
          f"items are {ITEM[workload]})")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"  FAILED {problem}")
    attempted = len(raw["op_ms"]) + len(raw["checks"])
    failed = raw["failed"] + sum(not c["ok"] for c in raw["checks"])
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(THREADS),
                   help="run one workload (default: all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured window (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run, per-layer metrics (all workloads: "
                   "in addition to the untraced run)")
    p.add_argument("--smoke", action="store_true",
                   help="1 s windows and one set-up; every correctness check")
    p.add_argument("--build-dir", type=Path, default=DEFAULT_BUILD_DIR)
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), type=Path)
    args = p.parse_args(argv)

    try:
        spec = load_spec()
        if args.compare:
            return print_compare(spec, *args.compare)
        seconds = args.seconds or (1 if args.smoke else spec["run_seconds"])
        build_dir = args.build_dir.resolve()
        build(build_dir)
        if args.workload:
            result = run_workload(spec, build_dir, args.workload, args.seed,
                                  seconds, args.trace == 1, args.smoke)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        ok = True
        for workload in THREADS:
            passes = [False, True] if args.trace else [False]
            for trace in passes:
                result = run_workload(spec, build_dir, workload, args.seed,
                                      seconds, trace, args.smoke)
                ok = ok and result["correct"]
        print("all workloads passed" if ok else "FAILED")
        return 0 if ok else 1
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


def print_compare(spec, base_path, new_path):
    def read(path):
        return [json.loads(line) for line in path.read_text().splitlines()
                if line.strip()]
    base, new = read(base_path), read(new_path)
    ok = True
    for name, b, n, worse, bound, fine in compare(spec, base, new):
        values = [r["metrics"][name]["value"] for r in base
                  if name in r["metrics"]]
        s = spread(values) if len(values) >= 2 else math.nan
        print(f"{name:16s} base {b:<12.6g} new {n:<12.6g} worse by "
              f"{worse:+.3f} (bound {bound}, base spread {s:.3f}) "
              f"{'ok' if fine else 'REGRESSED'}")
        ok = ok and fine
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
