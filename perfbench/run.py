#!/usr/bin/env python3
"""End-to-end benchmark of the AnonChan library.

Builds the benchmark program (perfbench/CMakeLists.txt, Release) from the
repository's sources into .bench_build/perfbench, then runs it:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One run. The last line of stdout is the result JSON.
  python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]
      Every workload, untraced and traced; prints every metric by name with
      its unit.
  python3 perfbench/run.py --self-test [--seed <n>]
      Checks that each workload's work fingerprint repeats exactly at a fixed
      seed and that the traced run does the same work as the untraced one.

Run from the repository root or anywhere else; paths are resolved from this
file's location.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["chan_n6_rb", "batch_n4_ggor_recorded", "serve_n4_churn"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, capture=False, env=None):
    """Runs cmd in its own process group; kills the whole group on timeout.

    Returns (exit code, stdout or None); exit code None means timed out.
    """
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE if capture else None,
        stderr=subprocess.STDOUT if capture else None,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None


def build():
    """Configures (first time only) and builds the program; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        code, out = run(cmd, BUILD_TIMEOUT_S, capture=True, env=env)
        if code != 0:
            sys.stderr.write(out or "")
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def run_bench(workload, seed, seconds, trace, capture):
    return run([BINARY, "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)],
               RUN_TIMEOUT_S, capture=capture)


def last_json(out):
    lines = (out or "").strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def fingerprint(out):
    for line in (out or "").splitlines():
        if line.startswith("fingerprint "):
            return line
    return None


def run_all(seed, seconds):
    ok = True
    rows = []
    for w in WORKLOADS:
        for trace in (0, 1):
            code, out = run_bench(w, seed, seconds, trace, capture=True)
            sys.stdout.write(out or "")
            result = last_json(out)
            if code != 0 or result is None or not result["correct"]:
                ok = False
                print("run.py: %s trace=%d failed" % (w, trace))
                continue
            for name, m in result["metrics"].items():
                rows.append((w, trace, name, m["value"], m["unit"]))
    print("\n%-24s %-5s %-34s %16s %s" % ("workload", "trace", "metric",
                                          "value", "unit"))
    for w, trace, name, value, unit in rows:
        print("%-24s %-5d %-34s %16.6g %s" % (w, trace, name, value, unit))
    return 0 if ok else 1


def self_test(seed):
    ok = True
    for w in WORKLOADS:
        prints = []
        for trace in (0, 0, 1):
            code, out = run_bench(w, seed, 1, trace, capture=True)
            result = last_json(out)
            good = code == 0 and result is not None and result["correct"]
            prints.append(fingerprint(out) if good else None)
        same = None not in prints and len(set(prints)) == 1
        ok = ok and same
        print("%-24s %s" % (w, "fingerprint repeats, traced == untraced"
                            if same else "FINGERPRINT MISMATCH"))
        for p in prints:
            print("  " + str(p))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (args.all or args.self_test or args.workload):
        ap.error("one of --workload, --all or --self-test is required")
    if not build():
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.self_test:
        return self_test(args.seed)
    code, _ = run_bench(args.workload, args.seed, args.seconds, args.trace,
                     capture=False)
    if code is None:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
