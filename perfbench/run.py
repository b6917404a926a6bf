#!/usr/bin/env python3
"""Layered STAlloc benchmark: builds perfbench from this directory, then runs one workload.

    python3 perfbench/run.py --workload train|storm|serve|all --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench, or to
.bench_build/perfbench when the variable is unset. Each workload runs in its own process; the
last line of stdout is one JSON object with the keys correct, attempted, failed and metrics
(the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1). With
--workload all every workload runs in turn and the last line merges them, prefixing each metric
with its workload. See perfbench/README.md.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["train", "storm", "serve"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_PREFIX = "PERFBENCH_RESULT "


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: command failed: %s\n" % " ".join(cmd))
        sys.exit(1)


def build(bdir):
    """Configures once and builds the two targets; concurrent runs serialise on a lock."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "Makefile")):
            run_quiet(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        run_quiet(["cmake", "--build", bdir, "--target", "perfbench", "perfbench_selftest",
                   "-j", jobs])


def source_hash():
    """Identifies the code under test: every file under src/ and perfbench/."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def check_digests(bdir, key, digests):
    """Placement digests of one (code, workload, seed) must match every earlier run's."""
    path = os.path.join(bdir, "digests.json")
    with open(os.path.join(bdir, "digests.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        known = {}
        if os.path.exists(path):
            with open(path) as f:
                known = json.load(f)
        errors = []
        for kind, digest in digests.items():
            earlier = known.get(key, {}).get(kind)
            if earlier is not None and earlier != digest:
                errors.append("%s: placement digest %s differs from an earlier run's %s"
                              % (kind, digest, earlier))
        known.setdefault(key, {}).update(digests)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(known, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return errors


def declared_metrics(section):
    """Metric names BENCHMARK.json declares for a section, in order (None without the file)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return [m["name"] for m in json.load(f)[section]]


def run_workload(bdir, code, workload, seed, seconds, trace):
    workdir = os.path.join(bdir, "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0", "--workdir", workdir]
    if trace:
        spans_dir = os.path.join(bdir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, "%s-%d.jsonl" % (workload, seed))]
    # A run measures for `seconds`, plus set-up, probes and the pass that is running at the
    # deadline; a traced 30 s run takes about 45 s.
    timeout = 3 * seconds + 120
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out after %d s\n" % (workload, timeout))
        sys.exit(1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith(RESULT_PREFIX):
        sys.stdout.write(proc.stdout)
        sys.stderr.write("perfbench: %s exited with code %d\n" % (workload, proc.returncode))
        sys.exit(1)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1][len(RESULT_PREFIX):])
    expected = declared_metrics("per_layer" if trace else "end_to_end")
    if expected is not None and list(result["metrics"]) != expected:
        sys.stderr.write("perfbench: %s printed metrics %s, BENCHMARK.json declares %s\n"
                         % (workload, list(result["metrics"]), expected))
        sys.exit(1)
    errors = list(result["errors"])
    errors += check_digests(bdir, "%s/%s/%d" % (code, workload, seed), result["digests"])
    for error in errors[len(result["errors"]):]:
        print("  CHECK FAILED: %s" % error)
    correct = not errors
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"] if correct else result["attempted"],
        "metrics": result["metrics"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    bdir = build_dir()
    build(bdir)
    selftest = subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    sys.stdout.write(selftest.stdout)
    code = source_hash()
    print("seed: %d" % args.seed)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        results[workload] = run_workload(bdir, code, workload, args.seed, args.seconds,
                                         args.trace == 1)
        if selftest.returncode != 0:
            results[workload]["correct"] = False
            results[workload]["failed"] = results[workload]["attempted"]

    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, name): m
                        for w, r in results.items() for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))


if __name__ == "__main__":
    main()
