#!/usr/bin/env python3
"""Pipeline-equivalence gate for the message-pipeline refactor.

The refactor's correctness contract (DESIGN.md §9) has two halves:

  1. Golden equivalence -- with a single defense per cell, the
     attack-matrix stdout must be byte-identical to the pre-refactor
     output. Routing every PacketIn / PortStatus / LLDP event through
     the ordered listener chain may not change a single simulated
     result. `[bench]` marks exactly the host-time lines (jobs, wall
     time, events/s); they are the only nondeterministic lines and are
     stripped before the diff. The `[work]` record (trials, base seed,
     simulator events) stays in, so every golden pins exact event
     counts. Goldens exist at 1, 3 and
     10 trials per cell; the 10-trial table also pins the flow table,
     path cache and LLI window to the output they produced back when
     each still had a naive twin to diff against.

  2. Stacked determinism -- with TopoGuard + SPHINX + TOPOGUARD+
     stacked on the same chain (`--stacked`), two runs at different
     worker counts must produce identical output, including the
     per-listener dispatch counters (`--pipeline-stats`).

The per-controller profile layer adds two more:

  3. Floodlight-profile golden equivalence -- `--profile=floodlight`
     spells out the default, so its table must stay byte-identical to
     the profile-less golden (the profile plumbing itself may not
     perturb the default chain).

  4. Per-profile determinism -- every profile (including ONOS's
     probe-before-move migration and OpenDaylight's gate-less
     broadcast chain) must produce identical tables at --jobs 1 vs 8,
     with the runtime invariant checker attached (`--check`: any
     violation exits non-zero, and the sweep count is diffed too).

The same run/strip/diff code pins any other bench to a golden:

  5. Golden stdout -- `--golden FILE BINARY FLAG...` runs BINARY once
     per `--jobs N` pair among the flags, with the other flags and that
     one pair, and diffs each stdout against FILE. With no `--jobs` in
     the flags it runs BINARY once with the flags as given: the flagless
     benches reject `--jobs`. CMakeLists.txt says which bench is which
     (ctest golden.*).

Usage: check_pipeline_equivalence.py <bench_attack_matrix> <golden_dir>
       check_pipeline_equivalence.py --golden <file> <binary> [flag ...]

Exit status: 0 all checks pass, 1 a diff was found, 2 setup error.
"""

from __future__ import annotations

import difflib
import subprocess
import sys
from pathlib import Path

BENCH_PREFIX = "[bench]"


def run_bench(binary: Path, *flags: str) -> list[str]:
    proc = subprocess.run(
        [str(binary), *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        check=False,
        timeout=1800,
    )
    if proc.returncode != 0:
        print(f"check_pipeline_equivalence: {binary.name} "
              f"{' '.join(flags)} exited {proc.returncode}",
              file=sys.stderr)
        sys.stderr.write(proc.stderr)
        sys.exit(2)
    return [
        line
        for line in proc.stdout.splitlines()
        if not line.startswith(BENCH_PREFIX)
    ]


def show_diff(label: str, want: list[str], got: list[str]) -> bool:
    if want == got:
        print(f"  PASS {label}")
        return True
    print(f"  FAIL {label}")
    for line in difflib.unified_diff(
        want, got, fromfile="expected", tofile="actual", lineterm="", n=2
    ):
        print("    " + line)
    return False


def check_golden(golden: Path, binary: Path, flags: list[str]) -> int:
    if not golden.exists() or not binary.exists():
        print(f"check_pipeline_equivalence: missing {golden} or {binary}",
              file=sys.stderr)
        return 2
    want = golden.read_text(encoding="utf-8").splitlines()
    common: list[str] = []
    runs: list[list[str]] = []
    args = iter(flags)
    for flag in args:
        if flag == "--jobs":
            runs.append(["--jobs", next(args, "")])
        else:
            common.append(flag)
    ok = True
    print(f"golden: {' '.join([binary.name, *common])} vs {golden.name}")
    for run in runs or [[]]:
        got = run_bench(binary, *common, *run)
        ok &= show_diff(" ".join(run) or "no flags", want, got)
    return 0 if ok else 1


def main() -> int:
    if len(sys.argv) >= 4 and sys.argv[1] == "--golden":
        return check_golden(Path(sys.argv[2]), Path(sys.argv[3]),
                            sys.argv[4:])
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    binary = Path(sys.argv[1])
    golden_dir = Path(sys.argv[2])
    if not binary.exists():
        print(f"check_pipeline_equivalence: no such binary {binary}",
              file=sys.stderr)
        return 2

    ok = True
    print("pipeline equivalence: single-defense goldens")
    for golden_name, flags in [
        ("attack_matrix_single_defense.txt", ["--trials", "1"]),
        ("attack_matrix_single_defense_t3.txt", ["--trials", "3"]),
        ("attack_matrix_single_defense_t10.txt", ["--trials", "10"]),
    ]:
        golden = golden_dir / golden_name
        if not golden.exists():
            print(f"check_pipeline_equivalence: missing golden {golden}",
                  file=sys.stderr)
            return 2
        want = golden.read_text(encoding="utf-8").splitlines()
        got = run_bench(binary, *flags, "--jobs", "1")
        ok &= show_diff(golden_name, want, got)

    print("pipeline equivalence: stacked determinism across worker counts")
    stacked = ["--trials", "1", "--stacked", "--pipeline-stats"]
    first = run_bench(binary, *stacked, "--jobs", "4")
    second = run_bench(binary, *stacked, "--jobs", "8")
    ok &= show_diff("stacked --jobs 4 vs --jobs 8", first, second)

    print("pipeline equivalence: --profile=floodlight is the default")
    golden = golden_dir / "attack_matrix_single_defense.txt"
    want = golden.read_text(encoding="utf-8").splitlines()
    got = run_bench(binary, "--trials", "1", "--jobs", "1",
                    "--profile=floodlight")
    ok &= show_diff("floodlight profile vs golden", want, got)

    print("pipeline equivalence: per-profile determinism across worker "
          "counts, invariant checker on")
    for profile in ["floodlight", "pox", "opendaylight", "onos"]:
        flags = ["--trials", "2", f"--profile={profile}", "--check"]
        first = run_bench(binary, *flags, "--jobs", "1")
        second = run_bench(binary, *flags, "--jobs", "8")
        ok &= show_diff(f"{profile} --jobs 1 vs --jobs 8", first, second)

    if not ok:
        print("pipeline equivalence: FAILED -- the listener chain changed "
              "a simulated result")
        return 1
    print("pipeline equivalence: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
