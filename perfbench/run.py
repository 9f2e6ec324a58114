#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (and the library sources it compiles) into the directory named by
CARGO_TARGET_DIR, or .bench_build; later calls rebuild only what changed.
Build output goes to stderr; the benchmark's report goes to stdout and ends
with a one-line JSON result.

The result line holds every end-to-end metric of BENCHMARK.json (untraced
runs) or every per-layer metric (traced runs). A run whose result misses an
end-to-end metric, reports one that is not above 0, or reports a metric or
unit BENCHMARK.json does not name, fails with exit code 1. A per-layer
metric of a layer the workload does not exercise is printed as 0.
Workloads, metrics and checks are described in perfbench/README.md.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def complete(result, traced):
    """Checks the result's metrics against BENCHMARK.json and adds the
    per-layer metrics the workload does not exercise, as 0. Returns an
    error message, or None."""
    with open(MANIFEST) as f:
        manifest = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in manifest["per_layer" if traced else "end_to_end"]}
    metrics = result["metrics"]
    for name, m in metrics.items():
        if wanted.get(name) != m["unit"]:
            return f"metric {name} ({m['unit']}) is not in BENCHMARK.json"
    for name, unit in wanted.items():
        if name in metrics:
            continue
        if not traced:
            return f"end-to-end metric {name} missing"
        metrics[name] = {"value": 0.0, "unit": unit}
    if not traced:
        for name, m in metrics.items():
            if not (math.isfinite(m["value"]) and m["value"] > 0):
                return f"end-to-end metric {name} is {m['value']}"
    result["metrics"] = {name: metrics[name] for name in wanted}
    return None


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    try:
        out = subprocess.run([binary, *sys.argv[1:], "--git-sha", git_sha()],
                             stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = out.stdout.rstrip("\n").split("\n")
    if out.returncode != 0:
        sys.stdout.write(out.stdout)
        return out.returncode
    result = json.loads(lines[-1])
    error = complete(result, "--trace" in sys.argv and
                     sys.argv[sys.argv.index("--trace") + 1] == "1")
    print("\n".join(lines[:-1]))
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result, separators=(",", ":")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
