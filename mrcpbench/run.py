#!/usr/bin/env python3
"""Run one workload of the MRCP-RM benchmark, or the smoke check.

    python3 mrcpbench/run.py --workload fb_paper --seed 1 --seconds 20 --trace 0
    python3 mrcpbench/run.py --workload all --seed 1
    python3 mrcpbench/run.py --smoke

Run from the root of a checkout. The first run builds the repository's
libraries and the benchmark binary from source (CMake, Release) into
$CARGO_TARGET_DIR/mrcpbench, default .bench_build/mrcpbench; later runs
only rebuild what changed. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}. The lines before it
are the human-readable report: every metric by name and unit, the
workload's P/T/N (which repeat exactly for a seed), the correctness-gate
outcome and the host context. See mrcpbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # one workload run, build excluded
BUILD_TIMEOUT_S = 880


def fail(message):
    print("mrcpbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "mrcpbench")


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def loadavg():
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def build(bdir):
    """Configure (once) and build the benchmark; build output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt next to mrcpbench/: run from a checkout "
             "of the repository")
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "--target", "mrcpbench",
                      "-j", str(min(4, nproc()))])
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out: " + " ".join(cmd))
            if proc.returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "mrcpbench")


def source_revision():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds (src/ and mrcpbench/)."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "mrcpbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def run_binary(binary, workload, seed, seconds, trace, smoke=False):
    """Run one workload; return the binary's report (dict), or exit."""
    bdir = os.path.dirname(binary)
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--tmp-dir", tmp]
    if trace:
        spans = os.path.join(bdir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--span-out",
                os.path.join(spans, "%s-seed%s.json" % (workload, seed))]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not report.get("correct"):
        reason = report.get("gate_failure", "exit code %d" % proc.returncode)
        print("mrcpbench: %s failed the correctness gate: %s"
              % (workload, reason), file=sys.stderr)
        sys.exit(1)
    return report


def check_metrics(report, trace):
    """Every declared metric is present with its declared unit, and no
    other metric is reported. Returns a list of problems."""
    declared = declared_metrics(trace)
    if declared is None:
        return []
    got = {k: v["unit"] for k, v in report["metrics"].items()}
    problems = []
    for name, unit in declared:
        if name not in got:
            problems.append("missing metric " + name)
        elif got[name] != unit:
            problems.append("%s has unit %s, declared %s" % (name, got[name], unit))
    extra = set(got) - {name for name, _ in declared}
    problems += ["undeclared metric " + name for name in sorted(extra)]
    return problems


def print_report(report, context):
    info = report.get("info", {})
    print("workload %s, seed %s, %s jobs, %s"
          % (context["workload"], context["seed"], info.get("jobs"),
             "traced" if context["trace"] else "untraced"))
    for name, m in report["metrics"].items():
        print("  %-28s %18.6f %s" % (name, m["value"], m["unit"]))
    q = info.get("quality", {})
    print("  quality: P = %.4f %%, T = %.3f s, N = %s late, %s RM invocations"
          % (q.get("P_late_pct", 0.0), q.get("T_turnaround_s", 0.0),
             q.get("N_late"), q.get("rm_invocations")))
    if context["trace"]:
        print("  correctness gate: passed (execution validator, no budget-bound "
              "call, no dirty promotion; replay consistent: %s)"
              % info.get("replay_consistent"))
    else:
        print("  correctness gate: passed (execution validator on, outcome "
              "repeated exactly over %s rounds)" % info.get("repetitions"))
    for note in report.get("notes", []):
        print("  note: " + note)
    print("context: " + json.dumps(context, sort_keys=True))


def workload_names(binary):
    """Every workload the binary knows: BENCHMARK.json's and the extra ones."""
    return subprocess.run([binary, "--list-workloads"], check=True,
                          capture_output=True, text=True).stdout.split()


def smoke():
    """Every workload at a tiny size, untraced and traced: every declared
    metric must be present with its unit."""
    binary = build(build_dir())
    problems = []
    for workload in workload_names(binary):
        for trace in (False, True):
            report = run_binary(binary, workload, 1, 1, trace, smoke=True)
            found = check_metrics(report, trace)
            problems += ["%s (trace %d): %s" % (workload, trace, p) for p in found]
            print("smoke %-24s trace=%d metrics=%d %s"
                  % (workload, trace, len(report["metrics"]),
                     "ok" if not found else "FAIL"))
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


def run_one(binary, workload, seed, seconds, trace):
    """Run one workload and print its report; return the result dict."""
    load_start = loadavg()
    report = run_binary(binary, workload, seed, seconds, trace)
    problems = check_metrics(report, trace)
    if problems:
        fail("; ".join(problems))
    context = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "nproc": nproc(),
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
        "revision": source_revision(),
    }
    context.update(report.get("info", {}).get("build", {}))
    print_report(report, context)
    return {k: report[k] for k in ("correct", "attempted", "failed", "metrics")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        help="workload name, or 'all' for every workload "
                             "in turn (one report each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload, both modes")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")

    binary = build(build_dir())
    workloads = [args.workload]
    if args.workload == "all":
        workloads = workload_names(binary)
    for workload in workloads:
        result = run_one(binary, workload, args.seed, args.seconds,
                         bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
