#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a source tree.

    python3 perfbench/run.py --workload static|churn|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The OCaml driver (perfbench/main.ml) is built with dune, run once, and its
JSON result (the last line of its output) is passed through with one
metric added: peak_rss_mb, the child's peak resident set size as the
kernel's rusage reports it.  Everything the run reads and writes stays under
the current directory (the build goes to ./_build, dune's shared cache is
off).  Exit status is non-zero when the tree cannot be built, the driver
fails, or its correctness digest disagrees with the recorded golden one.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for path in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            fail("not a source tree (missing %s); run from the repository root" % path)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed", 3)


def run_driver(args):
    """Run the driver once; return (exit code, output lines, peak RSS in MB)."""
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=os.path.abspath("_build"))
    p = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, env=env, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
        p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out.splitlines(), usage.ru_maxrss * 1024 / 1e6


def run_once(args, trace):
    code, lines, rss_mb = run_driver(args)
    if not lines:
        fail("driver printed nothing (exit %d)" % code, code or 4)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        for line in lines:
            print(line, file=sys.stderr)
        fail("driver's last line is not JSON (exit %d)" % code, code or 4)
    if not trace:
        result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    return code, lines[:-1], result


def digest_of(lines):
    for line in lines:
        if line.startswith("digest "):
            return line.split()[1]
    return None


def selftest():
    """Tiny pass of every workload, checked against BENCHMARK.json."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            args = ["--workload", w["name"], "--seed", "1", "--seconds", "0",
                    "--trace", str(trace), "--size", "tiny"]
            code, _, result = run_once(args, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if code != 0 or not result["correct"]:
                problems.append("%s trace %d: exit %d, correct %s" % (
                    w["name"], trace, code, result["correct"]))
            if got != want:
                problems.append("%s trace %d: metric set differs: missing %s, extra %s, "
                                "units %s" % (
                                    w["name"], trace, sorted(set(want) - set(got)),
                                    sorted(set(got) - set(want)),
                                    sorted(k for k in want if k in got and got[k] != want[k])))
            print("selftest %-6s trace %d: %d metrics, correct %s, failed %d of %d" % (
                w["name"], trace, len(got), result["correct"], result["failed"],
                result["attempted"]))
    # Seed 7 crashes hosts in the tiny trace; seed 1 does not.
    for seed in (1, 7):
        digests = {}
        for shards in (1, 2):
            code, lines, _ = run_once(["--workload", "churn", "--seed", str(seed),
                                       "--seconds", "0", "--trace", "0", "--size", "tiny",
                                       "--shards", str(shards), "--domains", str(shards)], 0)
            digests[shards] = digest_of(lines)
        print("selftest churn seed %d digest at 1 shard on 1 domain %s, at 2 shards on "
              "2 domains %s" % (seed, digests[1], digests[2]))
        if digests[1] is None or digests[1] != digests[2]:
            problems.append("churn digest of seed %d depends on the shard count" % seed)
    for p in problems:
        print("selftest FAIL: " + p)
    print("selftest %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["static", "churn", "serve"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--shards", type=int, default=2)
    ap.add_argument("--domains", type=int, default=1)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    build()
    if a.selftest:
        sys.exit(selftest())
    if a.workload is None:
        fail("--workload is required")
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--size", a.size, "--shards", str(a.shards),
            "--domains", str(a.domains)]
    code, detail, result = run_once(args, a.trace == 1)
    for line in detail:
        print(line)
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
