#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload study|serve|whatif|all \
        --seed N --seconds S --trace 0|1 [--sweep]

The first run configures and builds the library and the benchmark binary
(Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset; later runs rebuild only what changed.  Every file a
run writes goes below .bench_work/.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The binary reports every
figure it measured; this script keeps the ones BENCHMARK.json declares, the
end-to-end metrics with --trace 0 and the per-layer metrics with --trace 1.
BENCHMARK.json is the only list of declared metrics: a per-layer metric the
workload does not load reads 0, an end-to-end metric the run did not measure
is an error.  The exit code is 0 only when the build succeeded and every
output check passed.

`--workload all` runs study, serve and whatif one after the other and ends
with a combined line whose metrics are named `<workload>.<metric>`.
`--sweep` (serve only) runs the on-demand update-rate sweep instead of the
gated workload: update_visible_p99_ms at 50, 100, 200 and 400 updates/s and
beyond, and serve.capacity_per_s.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("study", "serve", "whatif")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.isfile(binary) else None


def source_id():
    """The git commit when there is one, else a digest of the source tree."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for sub in ("src", "perfbench"):
        base = os.path.join(ROOT, sub)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def valid_result(result):
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return "result keys are not exactly " + str(sorted(RESULT_KEYS))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number >= 0"
    for name, m in result["metrics"].items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return "metric %s has no finite value" % name
    return None


def select_declared(measured, declared, zero_fill):
    """The declared metrics out of everything measured, or an error text."""
    selected = {}
    for spec in declared:
        name, unit = spec["name"], spec["unit"]
        m = measured.get(name)
        if m is None:
            if not zero_fill:
                return None, "end-to-end metric %s was not measured" % name
            m = {"value": 0, "unit": unit}
        if m["unit"] != unit:
            return None, "metric %s measured in %s, declared in %s" % (
                name, m["unit"], unit)
        selected[name] = {"value": m["value"], "unit": unit}
    return selected, None


def run_workload(binary, workload, args, commit):
    """Runs one workload; returns (result dict or None, exit code)."""
    work = os.path.join(ROOT, ".bench_work")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PATHSEL_")}
    env["TMPDIR"] = tmp
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--commit", commit]
    if args.sweep:
        cmd.append("--sweep")
    timeout = max(170.0, args.seconds * 8.0)
    # Its own session, so a hung run can be stopped together with any matrix
    # worker it forked.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("%s did not finish within %.0f s" % (workload, timeout))
        return None, 1
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("%s printed no result line (exit %d)" % (workload,
                                                      proc.returncode))
        return None, proc.returncode or 1
    problem = valid_result(result)
    if problem is None and not args.sweep:
        result["metrics"], problem = select_declared(
            result["metrics"], declared_metrics(args.trace), args.trace == 1)
    if problem:
        log("%s: %s" % (workload, problem))
        return None, 1
    return result, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.sweep and args.workload != "serve":
        parser.error("--sweep applies to the serve workload only")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources at %s; run from a full checkout" %
            os.path.join(ROOT, "src"))
        return 2
    binary = build()
    if binary is None:
        log("build failed")
        return 3
    commit = source_id()

    if args.workload != "all":
        result, code = run_workload(binary, args.workload, args, commit)
        if result is None:
            return code or 1
        print(json.dumps(result), flush=True)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        result, code = run_workload(binary, workload, args, commit)
        if result is None:
            return code or 1
        worst = worst or code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][workload + "." + name] = m
    print(json.dumps(combined), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
