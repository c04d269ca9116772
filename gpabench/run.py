#!/usr/bin/env python3
"""Build gpabench from this checkout's sources and run one workload.

    python3 gpabench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
gpa library and the benchmark into .bench_build/gpabench (Release);
later calls only re-check the build. Reports and Chrome traces go to
.bench_out/. The binary prints its detailed report (workload-native
metric names with sample counts) as its last line; this script projects
it onto the BENCHMARK.json vocabulary and prints the result object as the
last line of stdout. A failed output check still prints its result
("correct": false) and exits non-zero; a failed build, a crash, a timeout,
or an end-to-end metric the run did not measure exits non-zero without a
result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "gpabench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "gpabench")
RUN_TIMEOUT_S = 170

# The end-to-end names are shared by every workload; each fills them with
# its own quantity (see WORKLOADS.md). Per-layer names are reported under
# their own names.
ALIASES = {
    "oneshot_mixed": {"op_cpu_ms": "open_request_cpu_ms", "step_cpu_us": "closed_request_cpu_us"},
    "chat_shared_prefix": {"op_cpu_ms": "prefill_cpu_ms", "step_cpu_us": "token_cpu_us"},
    "cluster_long_context": {"op_cpu_ms": "prefill_cpu_ms", "step_cpu_us": "token_cpu_us"},
}


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def source_id():
    """Git commit when there is one, plus a digest of the sources built."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "cmake", "src", "gpabench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    commit = "none"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        pass
    return "git:%s tree:%s" % (commit, digest.hexdigest()[:16])


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("no gpa sources next to gpabench/; nothing to build")
        return False
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as fh:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in fh.read():
                shutil.rmtree(BUILD)  # configured from another checkout
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(cache):
        steps.append((["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"], 300))
    steps.append((["cmake", "--build", BUILD, "-j", jobs], 840))
    for cmd, timeout in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout,
                                cwd=ROOT).returncode
        except (OSError, subprocess.SubprocessError) as e:
            log("build step failed: %s" % e)
            return False
        if rc != 0:
            log("build step failed: %s" % " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def result_metrics(workload, trace, measured):
    """The BENCHMARK.json metrics of this run, or None when an end-to-end
    metric is missing, rests on no samples, or has another unit. A
    per-layer metric of a layer the workload leaves idle reads 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    aliases = ALIASES.get(workload, {})
    out = {}
    for m in spec:
        source = aliases.get(m["name"], m["name"])
        got = measured.get(source)
        if got is None or got["n"] == 0:
            if not trace:
                log("end-to-end metric %s (%s) was not measured" % (m["name"], source))
                return None
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            log("%s is in %s, BENCHMARK.json says %s" % (source, got["unit"], m["unit"]))
            return None
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT, "--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("benchmark timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write("".join(line + "\n" for line in lines))
        log("benchmark exited with %d and no report" % proc.returncode)
        return proc.returncode or 1
    # The report is labelled so that only the result line below parses.
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]) + "report: " + lines[-1] + "\n")
    metrics = result_metrics(args.workload, args.trace, report["metrics"])
    if metrics is None:
        return 1
    result = {"correct": report["correct"], "attempted": max(1, report["attempted"]),
              "failed": report["failed"], "metrics": metrics}
    print(json.dumps(result), flush=True)
    # A failed output check prints its result (correct: false) and exits non-zero.
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
