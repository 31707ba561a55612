#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the OCaml workload runner
(perfbench/bench.ml) and the counter-extraction self-test with dune, runs
the self-test, then runs the workload in a fresh process, which forks one
child process per repetition, so heap figures belong to that workload and
repetition alone.  With --trace 1 the runner alternates untraced and
profiled repetitions and reports the per-layer metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the metric names and units come from BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "_build", "default", "perfbench")
WORKLOADS = ("fig2_clique16", "caida_load", "caida_dataplane")
BUILD_TIMEOUT_S = 850
# A run must end within 180 s; a traced caida_load run (two repetitions
# and a sharded pass) takes about 45 s on a 2-core host.
RUN_TIMEOUT_S = 165


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    # The dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./perfbench/selftest.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 2)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("build failed", 2)


def run_exe(args, timeout):
    # bench.exe forks one child per repetition: run it in its own process
    # group so a timeout stops the children too.
    try:
        proc = subprocess.Popen([os.path.join(BUILD, args[0])] + args[1:], cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
    except OSError as e:
        fail("%s: %s" % (args[0], e), 3)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s: timed out after %d s" % (args[0], timeout), 3)
    if proc.returncode != 0:
        sys.stderr.write(out + err)
        fail("%s exited with %d" % (args[0], proc.returncode), 3)
    return out


def bench(workload, seed, seconds, traced):
    args = ["bench.exe", "run", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    if traced:
        args.append("--traced")
    lines = run_exe(args, RUN_TIMEOUT_S).strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("bench.exe printed no result", 3)


def pick(values, specs, what):
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        fail("%s metrics missing from the runner: %s" % (what, ", ".join(missing)))
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    opts = ap.parse_args()
    if opts.seconds < 1:
        fail("--seconds must be at least 1", 2)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e, 2)

    build()
    run_exe(["selftest.exe"], 60)

    res = bench(opts.workload, opts.seed, opts.seconds, traced=opts.trace == 1)
    if opts.trace == 0:
        metrics = pick(res["e2e"], spec["end_to_end"], "end-to-end")
    else:
        metrics = pick(res["layers"], spec["per_layer"], "per-layer")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
