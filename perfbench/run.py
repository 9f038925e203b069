#!/usr/bin/env python3
"""End-to-end benchmark of nrcollapse: build, run one workload, report.

    python3 perfbench/run.py --workload <serve-warm|serve-cold|paper-kernels>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The first call builds the library and
the nrcbench program from source into .bench_build/ (CMake, Release).
Each run gets a private scratch directory under .bench_build/ for the
JIT object cache and temporary files, removed on exit; the environment
is pinned per workload (OMP_NUM_THREADS, NRC_COST_TABLE cleared,
NRC_JIT_CACHE_DIR and TMPDIR private).  No network ports are used.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
The exit code is non-zero when the build fails or any output disagrees
with the benchmark's oracle.  See perfbench/DESIGN.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "nrcbench")
BINARY = os.path.join(BUILD_DIR, "nrcbench")
TRACE_DIR = os.path.join(BUILD_ROOT, "trace")

WORKLOADS = ("serve-warm", "serve-cold", "paper-kernels")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build nrcbench; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "nrcollapse.hpp")):
        log("library sources not found (src/nrcollapse.hpp); run from a full checkout")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_ROOT, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", str(max(1, len(os.sched_getaffinity(0))))],
    ]
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                             env=env)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def workload_env(workdir, extra):
    env = dict(os.environ)
    env.pop("NRC_COST_TABLE", None)
    # One OpenMP thread per serve client, so total threads equal cores;
    # paper-kernels sets its team size (nrcbench's affinity count) itself.
    env["OMP_NUM_THREADS"] = "1"
    env["NRC_JIT_CACHE_DIR"] = os.path.join(workdir, "jit")
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    env.update(extra or {})
    for key in ("NRC_JIT_CACHE_DIR", "TMPDIR"):
        os.makedirs(env[key], exist_ok=True)
    return env


def run_workload(workload, seed, seconds, trace, extra_env=None, tiny=False):
    """Run nrcbench once; returns (exit code, stdout text)."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    try:
        cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--work-dir", workdir]
        if tiny:
            cmd.append("--tiny")
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env=workload_env(workdir, extra_env), cwd=workdir)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
            return 1, ""
        spans = [f for f in os.listdir(workdir) if f.endswith(".spans.tsv")]
        if spans:
            os.makedirs(TRACE_DIR, exist_ok=True)
            for f in spans:
                shutil.copyfile(os.path.join(workdir, f), os.path.join(TRACE_DIR, f))
        return proc.returncode, out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def result_of(out):
    """The final JSON object of a run's output, or None."""
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        return None
    return res


def record_of(out, tag):
    """A '# <tag> {json}' record line of a run's output, or None."""
    for line in out.splitlines():
        if line.startswith(f"# {tag} {{"):
            return json.loads(line[len(tag) + 3:])
    return None


# Every end-to-end metric named in DESIGN.md, per workload (printed on
# the '# metrics' line with unit and sample count).
DESIGN_METRICS = {
    "serve-warm": ["setup_s", "error_rate", "peak_rss_mb", "req_per_s", "meta_p50_us",
                   "meta_p99_us", "exec_p50_ms", "exec_p99_ms", "exec_mitems_per_s"],
    "serve-cold": ["setup_s", "error_rate", "peak_rss_mb", "req_per_s", "meta_p50_us",
                   "meta_p99_us", "cold_p50_ms", "cold_p90_ms"],
    "paper-kernels": ["setup_s", "error_rate", "peak_rss_mb", "kernel_ms_geomean",
                      "gain_vs_dynamic", "serial_overhead"],
}


def selftest():
    """Tiny configuration of every workload, traced and untraced, plus a
    forced no-toolchain run; checks every metric is printed with its
    unit and the oracle passes."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def check(workload, trace, extra_env=None, what=""):
        label = f"{workload} trace={trace}{what}"
        rc, out = run_workload(workload, 7, 1, trace, extra_env, tiny=True)
        res = result_of(out)
        if rc != 0 or res is None:
            problems.append(f"{label}: exit {rc}, result {res!r}")
            return None, None
        if not res["correct"] or res["failed"] != 0:
            problems.append(f"{label}: oracle failed ({res['failed']} failed)")
        wanted = spec["per_layer" if trace else "end_to_end"]
        for m in wanted:
            got = res["metrics"].get(m["name"])
            if got is None or got.get("unit") != m["unit"]:
                problems.append(f"{label}: metric {m['name']} missing or unit differs: {got}")
        design = record_of(out, "metrics") or {}
        for name in DESIGN_METRICS[workload]:
            if name not in design or not design[name].get("unit"):
                problems.append(f"{label}: design metric {name} not printed with a unit")
        return res, out

    for workload in WORKLOADS:
        for trace in (0, 1):
            check(workload, trace)
    # No toolchain: the JIT falls back, nothing fails, nothing compiles.
    for workload in ("serve-warm", "serve-cold"):
        res, _ = check(workload, 1, {"NRC_JIT_CC": "/bin/false"}, " no-toolchain")
        if res is not None:
            ratio = res["metrics"].get("jit.compiled_ratio", {}).get("value")
            if ratio != 0:
                problems.append(f"{workload} no-toolchain: jit.compiled_ratio {ratio} != 0")
    for p in problems:
        log("selftest: " + p)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    if not build():
        return 3
    if args.selftest:
        return selftest()

    rc, out = run_workload(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    if result_of(out) is None:
        log(f"{args.workload}: no result line (exit {rc})")
        return rc or 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
