#!/usr/bin/env python3
"""Build and run one trialbench workload; print its metrics and a JSON result.

    python3 trialbench/run.py --workload race_mc --seed 42 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
simulator libraries and the benchmark binary into .bench_build/trialbench
(CMake, Release, -O2); later runs only check that the build is current.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(see README.md). Every run checks each trial's outcome predicate, and
folds the outcomes of trials [0, sample) into a digest. At the default
seed that digest must equal the one stored in digests.json; a traced run
also checks that the untraced and the traced pass give the same digest.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is nonzero when the build fails, a check fails or a
metric is missing.

    python3 trialbench/run.py --all

runs every workload untraced and then traced, and rewrites BENCHMARK.json
from spec.py; --write-benchmark-json only rewrites it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "trialbench"
BINARY = BUILD_DIR / "trialbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"trialbench: {msg}", file=sys.stderr)


def build():
    """Configure (once) and build; compiler output goes to stderr."""
    if not (HERE / "CMakeLists.txt").is_file():
        log("missing trialbench/CMakeLists.txt")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return False
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return False
    return BINARY.is_file()


def parse_output(text):
    """Split the binary's line records into fields and metrics."""
    fields, metrics = {}, {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            _, name, unit, value = parts
            metrics[name] = {"value": float(value), "unit": unit}
        elif len(parts) == 2:
            fields[parts[0]] = parts[1]
    return fields, metrics


def expected_metrics(traced):
    if traced:
        return {name: unit for name, unit, *_ in spec.PER_LAYER}
    return {name: unit for name, unit, *_ in spec.END_TO_END}


def run_workload(args, workload, trace):
    """Run one workload, print its report and JSON line; return the exit code."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload} ran past {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"benchmark binary exited with {proc.returncode}")
        return 1
    fields, metrics = parse_output(proc.stdout)

    traced = trace == 1
    if traced:
        for name in spec.LISTENERS:
            metrics.setdefault(f"ctrl.listener.{name}.dispatches_per_trial",
                               {"value": 0.0, "unit": "count"})
    want = expected_metrics(traced)
    problems = []
    for name, unit in want.items():
        if name not in metrics:
            problems.append(f"metric {name} missing")
        elif metrics[name]["unit"] != unit:
            problems.append(f"metric {name} in {metrics[name]['unit']}, "
                            f"declared {unit}")
    extra = sorted(set(metrics) - set(want))
    if extra:
        problems.append(f"undeclared metrics: {', '.join(extra)}")
    if problems:
        for p in problems:
            log(p)
        return 1

    checks = []
    digest = fields.get("digest")
    if traced:
        checks.append(("traced digest equals untraced digest",
                       fields.get("traced_digest") == digest))
    if args.seed == spec.DEFAULT_SEED:
        expected = json.loads(args.digests.read_text()).get(workload)
        checks.append((f"digest {digest} equals expected {expected}",
                       digest == expected))
    attempted = int(fields["attempted"])
    failed = int(fields["failed"])
    warmup_failed = int(fields["warmup_failed"])
    checks.append(("every trial met its outcome predicate",
                   failed == 0 and warmup_failed == 0))
    correct = all(ok for _, ok in checks)

    print(f"workload {workload}  seed {args.seed}  trace {trace}  "
          f"trials {fields.get('trials')}")
    if not traced:
        print(f"{fields.get('rounds')} rounds; unscaled, not gated: "
              f"{fields.get('loop_trials_per_s')} trials/s over the loop, "
              f"p50 {fields.get('loop_trial_ms_p50')} ms, "
              f"{fields.get('loop_cpu_ms_per_trial')} CPU ms/trial, "
              f"median set-up {fields.get('loop_setup_s')} s")
    print(f"fail_ratio {failed / attempted:.6g}  "
          f"({failed} of {attempted}; warm-up failures {warmup_failed})")
    print(f"digest {digest}")
    for label, ok in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {label}")
    for name in want:
        m = metrics[name]
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: metrics[name] for name in want}}
    print(json.dumps(result))
    return 0 if correct else 1


def write_benchmark_json():
    text = json.dumps(spec.benchmark_json(), indent=2) + "\n"
    (ROOT / "BENCHMARK.json").write_text(text)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and traced, then "
                    "rewrite BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--digests", type=Path, default=HERE / "digests.json",
                    help="expected digests at the default seed")
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="rewrite BENCHMARK.json from spec.py and exit")
    args = ap.parse_args(argv)

    if args.write_benchmark_json:
        write_benchmark_json()
        return 0
    if args.workload is None and not args.all:
        ap.error("--workload or --all is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not build():
        return 1
    if not args.all:
        return run_workload(args, args.workload, args.trace)
    status = 0
    for w in spec.WORKLOADS:
        for trace in (0, 1):
            status |= run_workload(args, w["name"], trace)
    write_benchmark_json()
    return status


if __name__ == "__main__":
    sys.exit(main())
