#!/usr/bin/env python3
"""Offline anomaly-IDS round-trip: export -> train -> validate.

Drives the full offline training loop end to end and fails if any link
breaks (the obs.profile_roundtrip ctest):

  1. run a bench with --trace-out to export a clean-run TraceLog JSONL;
  2. schema-check the export (check_trace_schema.check_file);
  3. train a behavior profile from it (build/tools/train_profile);
  4. schema-check the profile (check_trace_schema.check_profile);
  5. assert the profile is non-trivial — at least one port and one
     event. This pins the featurization contract: if the trace instant
     names or detail formats ever drift from what the offline trainer
     parses (DESIGN.md §14), training silently yields an empty profile,
     and this gate is what catches it.

Usage:
    python3 tools/check_profile_roundtrip.py BENCH_BINARY TRAINER_BINARY \
        WORK_DIR [extra bench args...]
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import check_trace_schema


def run(cmd: list[str]) -> None:
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} exited {proc.returncode}")


def main() -> int:
    if len(sys.argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    bench = Path(sys.argv[1])
    trainer = Path(sys.argv[2])
    work = Path(sys.argv[3])
    extra = sys.argv[4:]
    for binary in (bench, trainer):
        if not binary.exists():
            sys.exit(f"error: {binary} not found — build the tree first")
    work.mkdir(parents=True, exist_ok=True)

    trace = work / "clean.jsonl"
    profile = work / "profile.json"

    run([str(bench), "--quick", f"--trace-out={trace}"] + extra)
    errors = check_trace_schema.check_file(trace)
    if errors:
        for e in errors[:20]:
            print("  " + e, file=sys.stderr)
        sys.exit(f"error: exported trace fails the schema "
                 f"({len(errors)} error(s))")

    run([str(trainer), "--out", str(profile), str(trace)])
    errors = check_trace_schema.check_profile(profile)
    if errors:
        for e in errors[:20]:
            print("  " + e, file=sys.stderr)
        sys.exit(f"error: trained profile fails the schema "
                 f"({len(errors)} error(s))")

    doc = json.loads(profile.read_text(encoding="utf-8"))
    if doc["events"] == 0 or not doc["ports"]:
        sys.exit("error: profile trained to nothing (0 events or 0 ports) "
                 "— the trace featurization contract has drifted "
                 "(DESIGN.md §14)")

    print(f"profile round-trip OK: {doc['trials']} trial(s), "
          f"{doc['events']} events, {len(doc['ports'])} ports, "
          f"{len(doc['durations'])} duration kind(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
