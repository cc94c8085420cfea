#!/usr/bin/env python3
"""ExaReq's end-to-end benchmark: one command per workload.

    python3 perfbench/run.py --workload campaign|refit|serve --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout. It builds the repository's
libraries and the benchmark binary (RelWithDebInfo, the repository's default
build type) into .bench_build/, runs one workload, checks its outputs, and
prints, in this order:

  * one line per metric, "name = value unit";
  * the full result document as one JSON line (perfbench/schema.json):
    every metric with its unit and sample counts, the correctness
    mismatches, and a meta block describing machine, compiler and build;
  * a summary line {"correct", "attempted", "failed", "metrics"} holding the
    end-to-end metrics of BENCHMARK.json (trace 0) or its per-layer metrics
    (trace 1).

Exit status: 0 when every output was correct, 1 on a correctness mismatch
(the mismatches are printed and name the app, fit or request), 2 when the
run could not complete, 3 when the repository sources are missing.

    python3 perfbench/run.py --regenerate   # rewrite perfbench/data
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "exareq")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "exareq_perfbench")
DATA_DIR = os.path.join(BENCH_DIR, "data")
SCHEMA = os.path.join(BENCH_DIR, "schema.json")
RUN_TIMEOUT_S = 175.0
BUILD_TIMEOUT_S = 850.0
# The traced section's wall time that its layer self times may leave
# unaccounted for: this share of it, plus one millisecond for the clock
# reads around the spans.
ACCOUNTING_TOLERANCE = 0.01


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def bench_threads():
    """Campaign, fit and serve-load threads: at most nproc, at most 4."""
    return max(1, min(4, nproc()))


def checkout_env():
    """Environment that keeps compiler temporaries inside the checkout."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures (once) and builds the benchmark target, output to stderr."""
    env = checkout_env()
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        command = ["cmake", "-S", ROOT, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                   "-DCMAKE_PROJECT_exareq_INCLUDE="
                   + os.path.join(BENCH_DIR, "inject.cmake")]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        subprocess.run(command, check=True, stdout=sys.stderr, env=env,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "exareq_perfbench", "-j", str(nproc())],
                   check=True, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)


# ---- schema -----------------------------------------------------------------

_TYPES = {
    "object": dict, "array": list, "string": str, "boolean": bool,
    "null": type(None),
}


def _is_type(value, name):
    if name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if name == "number":
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    return isinstance(value, _TYPES[name])


def validate(value, schema, path="$"):
    """Errors of `value` against the JSON-Schema subset schema.json uses."""
    errors = []
    types = schema.get("type")
    if types is not None:
        names = types if isinstance(types, list) else [types]
        if not any(_is_type(value, name) for name in names):
            return ["%s: expected %s, got %r" % (path, "/".join(names), value)]
    if "enum" in schema and value not in schema["enum"]:
        errors.append("%s: %r is not one of %r" % (path, value, schema["enum"]))
    if "minimum" in schema and value < schema["minimum"]:
        errors.append("%s: %r is below %r" % (path, value, schema["minimum"]))
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append("%s: missing %r" % (path, key))
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in properties:
                errors += validate(item, properties[key], path + "." + key)
            elif extra is False:
                errors.append("%s: unexpected %r" % (path, key))
            elif isinstance(extra, dict):
                errors += validate(item, extra, path + "." + key)
    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            errors += validate(item, schema["items"], "%s[%d]" % (path, index))
    return errors


def accounting_errors(document):
    """The traced run's self-time check. The layer self times (every
    `<layer>.self_s`; pipeline.other_s is the root span's own time and not a
    layer) must account for the traced section's wall time, which the
    binary takes around the section with its own clock reads, up to
    ACCOUNTING_TOLERANCE of it plus 1 ms. Work a layer call does outside
    any layer span, or a span that double-counts, fails it."""
    if document["trace"] != 1:
        return []
    metrics = document["metrics"]
    wall = document["info"].get("trace.wall_s")
    layers = [m["value"] for name, m in metrics.items() if name.endswith(".self_s")]
    if wall is None or not layers:
        return ["trace accounting: trace.wall_s or the layer self times are missing"]
    unaccounted = wall - sum(layers)
    if abs(unaccounted) > ACCOUNTING_TOLERANCE * wall + 1e-3:
        return ["trace accounting: layer self times sum to %.6f s of %.6f s wall time "
                "(%.6f s unaccounted, limit %.1f%% + 1 ms)"
                % (sum(layers), wall, unaccounted, 100 * ACCOUNTING_TOLERANCE)]
    return []


# ---- meta -------------------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_state():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None, None
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True,
                             timeout=30).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, check=True,
                                timeout=30).stdout
        return sha, bool(status.strip())
    except (OSError, subprocess.SubprocessError):
        return None, None


def source_digest():
    """SHA-256 over the program's sources and the benchmark's, which
    identifies the code when the checkout is not a git repository."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), BENCH_DIR]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in roots:
        for directory, subdirs, names in os.walk(top):
            subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
            files += [os.path.join(directory, name) for name in names]
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def meta(document):
    info = document["info"]
    sha, dirty = git_state()
    return {
        "nproc": nproc(),
        "hardware_concurrency": int(info.get("hardware_concurrency", 0)),
        "cpu_model": cpu_model(),
        "compiler": str(info.get("compiler", "unknown")),
        "build_type": str(info.get("build_type", "unknown")),
        "git_sha": sha,
        "git_dirty": dirty,
        "source_digest": source_digest(),
        "seed": document["seed"],
        "warmups": int(info.get("warmups", 0)),
        "repeats": int(info.get("repeats", 1)),
    }


def summary_line(document, declared):
    metrics = {}
    for name in declared:
        if name not in document["metrics"]:
            raise KeyError("metric %r missing from the %s run" % (name, document["workload"]))
        metric = document["metrics"][name]
        metrics[name] = {"value": metric["value"], "unit": metric["unit"]}
    return {"correct": document["correct"], "attempted": document["attempted"],
            "failed": document["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["campaign", "refit", "serve"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--regenerate", action="store_true",
                        help="rewrite the committed inputs and references")
    args = parser.parse_args()
    if not args.regenerate and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not args.regenerate and (args.seed < 0 or args.seconds <= 0):
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no repository sources next to perfbench/ (need CMakeLists.txt and src/)")
        return 3
    started = time.monotonic()
    try:
        build()
    except (OSError, subprocess.SubprocessError) as error:
        log("build failed: %s" % error)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)

    if args.regenerate:
        return subprocess.run([BINARY, "--generate", "--data", DATA_DIR,
                               "--apps-md", os.path.join(ROOT, "docs", "APPS.md"),
                               "--threads", str(bench_threads())]).returncode

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    declared = [m["name"] for m in bench["end_to_end" if args.trace == 0 else "per_layer"]]
    with open(SCHEMA) as handle:
        schema = json.load(handle)

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--data", DATA_DIR, "--scratch", os.path.relpath(RUN_DIR, ROOT),
               "--threads", str(bench_threads())]
    # A first run also builds; the run itself keeps to the time limit.
    budget = max(RUN_TIMEOUT_S - (time.monotonic() - started), 60.0)
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             env=checkout_env(), timeout=budget)
    except subprocess.TimeoutExpired:
        log("the %s run did not finish within %.0f s" % (args.workload, budget))
        return 2
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        log("the benchmark binary failed (exit %d)" % run.returncode)
        return 2
    document = json.loads(lines[-1])
    document["meta"] = meta(document)
    for error in accounting_errors(document):
        document["mismatches"].append(error)
        document["correct"] = False
    problems = validate(document, schema)
    if problems:
        log("result document does not match the schema: " + "; ".join(problems[:5]))
        return 2

    for name, metric in document["metrics"].items():
        print("%-32s = %.6g %s" % (name, metric["value"], metric["unit"]))
    for mismatch in document["mismatches"]:
        print("MISMATCH: " + mismatch)
    print(json.dumps(document, sort_keys=False))
    try:
        print(json.dumps(summary_line(document, declared)))
    except KeyError as error:
        log(str(error))
        return 2
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
