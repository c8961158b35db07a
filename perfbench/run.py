#!/usr/bin/env python3
"""memstream benchmark: builds the benchmark binary from source, runs one
workload for a fixed host-time budget and prints one JSON result as the
last line of stdout.

    python3 perfbench/run.py --workload farm_million --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a source checkout. The benchmark binary
(bench_main.cc) is built into .bench_build/ with its own CMake project.
Every repetition is a fresh process, so wall_s is whole-process host time
(spawn to exit) and peak_rss_mb is that process's peak resident set.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones from separate traced processes. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "memstream_perfbench"
OUT = BUILD / "out"
WORKLOADS = ("farm_million", "server_modes", "admission_churn")
# Fixed thread count of the benchmark: 4, or fewer on a smaller host.
THREADS = max(1, min(4, os.cpu_count() or 1))
MIN_REPS = 3  # untraced processes per --trace 0 run, whatever --seconds says
PROCESS_LIMIT_S = 150


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; exits 1 on
    failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no memstream sources next to perfbench/")
        sys.exit(1)
    BUILD.mkdir(exist_ok=True)
    build_log = BUILD / "build.log"
    jobs = str(THREADS)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        cfg = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "memstream_perfbench"])
    with open(build_log, "a") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log("perfbench: build failed, see", build_log)
                sys.exit(1)


class ProcessTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ProcessTimeout()


def spawn(workload, seed, threads, scale, trace_file=None):
    """Runs the benchmark binary once; returns its JSON plus host-side
    figures."""
    OUT.mkdir(parents=True, exist_ok=True)
    stdout_path = OUT / f"{workload}.stdout"
    argv = [str(BINARY), "--workload", workload, "--seed", str(seed),
            "--threads", str(threads), "--scale", scale,
            "--out-dir", str(OUT)]
    if trace_file:
        argv += ["--trace-file", str(trace_file)]
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout_path),
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    signal.signal(signal.SIGALRM, _alarm)
    t0 = time.monotonic_ns()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, PROCESS_LIMIT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException as e:  # timeout, SIGTERM, Ctrl-C: reap the child
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        if isinstance(e, ProcessTimeout):
            log(f"perfbench: {workload} process exceeded "
                f"{PROCESS_LIMIT_S} s")
            sys.exit(1)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    t1 = time.monotonic_ns()
    code = os.waitstatus_to_exitcode(status)
    lines = stdout_path.read_text().strip().splitlines()
    if code != 0 or not lines:
        log(f"perfbench: benchmark binary exited with {code} on {workload}")
        sys.exit(1)
    rep = json.loads(lines[-1])
    # The benchmark binary stamps setup_end_ns with the same CLOCK_MONOTONIC.
    rep["wall_s"] = (t1 - t0) / 1e9
    rep["setup_s"] = (rep["setup_end_ns"] - t0) / 1e9
    rep["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB
    return rep


def repeat(seconds, min_reps, *make):
    """Calls each of `make` in turn until `seconds` of host time have
    passed and every one ran at least `min_reps` times; returns one list
    of results per callable."""
    results = [[] for _ in make]
    start = time.monotonic()
    while True:
        for i, fn in enumerate(make):
            results[i].append(fn())
        if (len(results[0]) >= min_reps
                and time.monotonic() - start >= seconds):
            return results


def consistent(reps, checks):
    """Output checks over processes of one (workload, seed): each one's
    own checks, and identical simulated results in all of them, whatever
    their thread count. Returns False when the results differ."""
    for rep in reps:
        for failure in rep["check_failures"]:
            checks.append(f"threads={rep['threads']}: {failure}")
    for rep in reps:
        if rep["sim"] != reps[0]["sim"]:
            checks.append(f"simulated results at {rep['threads']} thread(s) "
                          f"differ from those at {reps[0]['threads']}")
            return False
    return True


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(reps):
    """The nine end-to-end figures of the workload, measured untraced."""
    first = reps[0]
    wall = statistics.median(r["wall_s"] for r in reps)
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                        "MB"),
        "sim_ios_per_s": (statistics.median(
            r["sim_ios"] / r["wall_s"] for r in reps), "IOs/s"),
        "admissions_per_s": (statistics.median(
            r["admission_decisions"] / r["wall_s"] for r in reps),
            "decisions/s"),
        "admitted_streams": (first["admitted"], "streams"),
        # No admitted stream-seconds (no IO simulated): nobody lost service.
        "availability": (first["served_stream_s"] / first["admitted_stream_s"]
                         if first["admitted_stream_s"] else 1.0, "ratio"),
        "rejection_rate": (ratio(first["rejected"], first["offered"]),
                           "ratio"),
        "dram_per_stream_mb": (ratio(first["analytic_dram_bytes"],
                                     first["dram_streams"]) / 1e6, "MB"),
    }


def per_layer(plain, traced):
    """Per-layer figures: medians over the traced processes, plus the
    figures that compare traced with untraced processes."""
    layer = {}
    for key in traced[0]["layer"]:
        layer[key] = statistics.median(r["layer"][key] for r in traced)
    wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    layer["trace.overhead_ratio"] = traced_wall / wall
    # Traced wall that neither set-up nor a top-level span covers:
    # process start-up and exit, span output, the replay loop.
    layer["trace.unattributed_s"] = (
        traced_wall - statistics.median(r["setup_s"] for r in traced)
        - layer.pop("trace.top_spans_s"))
    e2e = end_to_end(plain)
    for key in ("sim_ios_per_s", "admissions_per_s", "availability",
                "rejection_rate"):
        layer[key] = e2e[key][0]
    return layer


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "trim"), default="full",
                    help="trim: seconds-long inputs for the benchmark's "
                         "own tests")
    args = ap.parse_args()

    # SIGTERM unwinds like Ctrl-C, so a running benchmark process is reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    spec = load_spec()
    build()
    w, seed, scale = args.workload, args.seed, args.scale
    run = lambda threads=THREADS, trace_file=None: spawn(  # noqa: E731
        w, seed, threads, scale, trace_file)
    checks = []
    extra = {}
    # One untimed process first: it loads the binary and its inputs' code
    # into the page cache and wakes idle cores, so the first timed process
    # starts like the rest. Its outputs are checked with the others.
    warmup = [run()]
    if args.trace == 0:
        (plain,) = repeat(args.seconds, MIN_REPS, run)
        reps = warmup + plain
        deterministic = consistent(reps, checks)
        figures = end_to_end(plain)
        names = spec["end_to_end"]
    else:
        spans = OUT / f"{w}.spans.csv"
        plain, traced = repeat(args.seconds, 1, run,
                               lambda: run(trace_file=spans))
        reps = warmup + plain + traced + [run(threads=1)]
        deterministic = consistent(reps, checks)
        layer = per_layer(plain, traced)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        figures = {k: (layer.get(k, 0.0), units[k]) for k in units}
        names = spec["per_layer"]
        extra = {"layer": layer}  # self.* times and the rest, saved too
        log(f"spans of the last traced process: {spans}")

    attempted = sum(r["offered"] for r in reps)
    # The benchmark binary counts the streams of its own failed runs;
    # results that change between processes put every operation in doubt.
    failed = sum(r["failed"] for r in reps) if deterministic else attempted
    for c in checks:
        log("CHECK FAILED:", c)

    # Human-readable table on stderr: every figure with unit and context.
    log(f"workload={w} seed={seed} scale={scale} threads={THREADS} "
        f"processes={len(reps)} trace={args.trace}")
    if args.trace == 0:
        for key, (value, unit) in figures.items():
            log(f"  {key:<22} {value:>18.6g} {unit}")
    else:
        for key, (value, unit) in sorted(figures.items()):
            log(f"  {key:<32} {value:>18.6g} {unit}")
    log(f"  failed operations: {failed}/{attempted} "
        f"({ratio(failed, attempted):.4%})")

    record = {
        "workload": w, "seed": seed, "scale": scale, "threads": THREADS,
        "trace": args.trace, "processes": len(reps),
        "metrics": {k: {"value": v, "unit": u, "threads": THREADS}
                    for k, (v, u) in figures.items()},
        **extra,
    }
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{w}-seed{seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)

    metrics = {m["name"]: {"value": figures[m["name"]][0],
                           "unit": figures[m["name"]][1]} for m in names}
    print(json.dumps({"correct": not checks and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
