#!/usr/bin/env python3
"""HetSim host-speed benchmark: build, run one workload, report.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cpu_paper --seed 1 --seconds 20 --trace 0

The first call configures and builds the hetsim libraries and the
benchmark program (hetbench.cc) in Release under .bench_build/perfbench;
later calls rebuild incrementally. Its summary goes to stdout, preceded by one
provenance line (git SHA or source digest, compiler, build type, core
count, host) and followed, as the last line, by the JSON result. The
full record, provenance included, is also written to
.bench_build/results/. With --trace 1 the traced passes' spans are
written to .bench_build/spans/ in chrome://tracing format.

    python3 perfbench/run.py --record-refs --seeds 0-15

re-records the reference result hashes in perfbench/refs/ (only for a
change that alters simulated results on purpose).
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
WORK = os.path.join(OUT, "work")
BINARY = os.path.join(BUILD, "hetbench")
REFS = os.path.join(HERE, "refs")
WORKLOADS = ["cpu_paper", "cpu_contention", "gpu_paper", "regen_store"]
RUN_TIMEOUT_S = 170


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build_env():
    """Environment for the build: no inherited compiler flags, so a
    sanitizer or debug flag set in the shell cannot leak in."""
    env = dict(os.environ)
    for var in ("CXXFLAGS", "CFLAGS", "LDFLAGS", "CPPFLAGS"):
        env.pop(var, None)
    return env


def read_cache():
    cache = {}
    path = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(path):
        with open(path) as f:
            for line in f:
                m = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line.strip())
                if m:
                    cache[m.group(1)] = m.group(2)
    return cache


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("hetsim sources (src/) not found beside perfbench/")
    home = read_cache().get("CMAKE_HOME_DIRECTORY")
    if home and os.path.realpath(home) != os.path.realpath(HERE):
        shutil.rmtree(BUILD)  # configured for another tree
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(OUT, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps.append(["cmake", "--build", BUILD, "--target", "hetbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                 env=build_env(), cwd=ROOT)
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die("build failed: " + " ".join(cmd))
    cache = read_cache()
    flags = " ".join(v for k, v in cache.items() if k.startswith("CMAKE_CXX_FLAGS"))
    if cache.get("CMAKE_BUILD_TYPE") != "Release" or "-fsanitize" in flags:
        die("refusing to measure: the benchmark build is not a plain "
            "Release build (%s, flags '%s'); remove %s and rerun"
            % (cache.get("CMAKE_BUILD_TYPE"), flags, BUILD))
    return cache


def source_digest():
    """SHA-256 over every file under src/, in path order."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def provenance(cache):
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.check_output(
                ["git", "rev-parse", "HEAD"], cwd=ROOT,
                stderr=subprocess.DEVNULL, text=True).strip()
        except (OSError, subprocess.CalledProcessError):
            sha = None
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.check_output(
            [compiler, "--version"], text=True,
            stderr=subprocess.DEVNULL).splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        version = "unknown"
    return {
        "git_sha": sha or "none (not a git checkout)",
        "source_sha256": source_digest(),
        "compiler": "%s (%s)" % (compiler, version),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "cxx_flags_release": cache.get("CMAKE_CXX_FLAGS_RELEASE", ""),
        "nproc": os.cpu_count(),
        "host": platform.node(),
        "machine": platform.machine(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def stop_group(proc):
    """Kill the benchmark's process group and wait until every member,
    forked jobs included, has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_bench(args, prov):
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans = os.path.join(OUT, "spans", tag + ".json")
    work = os.path.join(WORK, str(os.getpid()))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--refs", REFS, "--work", work]
    if args.trace:
        cmd += ["--spans", spans]
    print("provenance: " + json.dumps(prov, sort_keys=True), flush=True)
    # Own process group, so a timeout also stops regen_store's jobs.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        die("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            stop_group(proc)
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        die("hetbench failed (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", tag + ".json"), "w") as f:
        json.dump({"provenance": prov, "workload": args.workload,
                   "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "result": result}, f, indent=1)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result), flush=True)


def parse_seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record_refs(seeds):
    os.makedirs(REFS, exist_ok=True)
    for workload in WORKLOADS:
        tmp = os.path.join(OUT, workload + ".refs.tmp")
        if os.path.exists(tmp):
            os.remove(tmp)
        for seed in seeds:
            rc = subprocess.call([BINARY, "--workload", workload,
                                  "--seed", str(seed), "--work", WORK,
                                  "--record-refs", tmp], cwd=ROOT)
            if rc != 0:
                die("recording %s seed %d failed" % (workload, seed))
        with open(tmp) as f:
            body = f.read()
        with open(os.path.join(REFS, workload + ".tsv"), "w") as f:
            f.write("# seed cell fnv64-of-result-bytes (%s)\n" % workload)
            f.write(body)
        os.remove(tmp)
        print("recorded %s for seeds %d-%d" % (workload, seeds[0], seeds[-1]))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record-refs", action="store_true")
    p.add_argument("--seeds", default="0-15")
    args = p.parse_args()
    if not args.record_refs and not args.workload:
        p.error("--workload is required")
    cache = build()
    if args.record_refs:
        record_refs(parse_seeds(args.seeds))
        return
    run_bench(args, provenance(cache))


if __name__ == "__main__":
    main()
