#!/usr/bin/env python3
"""Check that trialbench's end-to-end metrics are steady enough for their bounds.

    python3 trialbench/steadiness.py [--runs 10] [--workloads a,b] [--out FILE]

Runs two sets of untraced runs of the same build, each run with its own
seed, workload after workload in the same order in both sets. For every
end-to-end metric and workload it prints each set's median and
quartiles, the spread (interquartile distance / median) and the gap
(how much worse set 2's median is than set 1's, as a share of set 1's;
negative when set 2 is better), next to the bound in spec.py. Quartiles
are statistics.quantiles(values, n=4).

Exit status 1 when a gap exceeds its bound in either direction (the two
sets must agree), or when a spread other than setup_s's does. setup_s's
spread is printed but not gated: a run holds seven set-ups against
hundreds of rounds, so its per-run value is the noisiest one, and what
must hold for it is that the medians of two sets agree, which the gap
checks. Timing metrics whose median is under a millisecond are flagged
(not failed): such a number is easily moved by timer and scheduling
effects, so read its spread with care.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited "
                         f"{proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: result not correct")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec.WORKLOADS))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path, help="write all runs as JSON here")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")

    seed = args.first_seed
    sets = []
    for set_no in (1, 2):
        runs = {}
        for w in workloads:
            runs[w] = []
            for _ in range(args.runs):
                runs[w].append({"seed": seed, **run_once(w, seed, args.seconds)})
                seed += 1
                print(f"set {set_no} {w} run {len(runs[w])}/{args.runs}",
                      file=sys.stderr)
        sets.append(runs)
    if args.out:
        args.out.write_text(json.dumps(sets, indent=1) + "\n")

    failures = []
    header = (f"{'workload':14s} {'metric':18s} {'med 1':>10s} {'q1..q3 1':>21s}"
              f" {'med 2':>10s} {'q1..q3 2':>21s} {'spread':>14s} {'gap':>7s}"
              f" {'bound':>6s}")
    print(header)
    for w in workloads:
        for name, unit, better, bound in spec.END_TO_END:
            a = summarize([r[name] for r in sets[0][w]])
            b = summarize([r[name] for r in sets[1][w]])
            worse = b["median"] - a["median"]
            if better == "higher":
                worse = -worse
            gap = worse / a["median"]
            spread = max(a["spread"], b["spread"])
            notes = []
            if abs(gap) > bound:
                notes.append("GAP>BOUND")
                failures.append(f"{w} {name}: gap {gap:+.3f} beyond {bound}")
            if spread > bound and name == "setup_s":
                notes.append("spread>bound (not gated)")
            elif spread > bound:
                notes.append("SPREAD>BOUND")
                failures.append(f"{w} {name}: spread {spread:.3f} > {bound}")
            elif spread > bound / 3:
                notes.append("spread>bound/3")
            ms = {"ms": 1.0, "s": 1e3}.get(unit)
            if ms is not None and a["median"] * ms < 1.0:
                notes.append("sub-ms")
            print(f"{w:14s} {name:18s} {a['median']:10.4g} "
                  f"{a['q1']:10.4g}..{a['q3']:<9.4g} {b['median']:10.4g} "
                  f"{b['q1']:10.4g}..{b['q3']:<9.4g} "
                  f"{a['spread']:6.3f}/{b['spread']:<6.3f} {gap:+7.3f} "
                  f"{bound:6.3f} {' '.join(notes)}")
    if failures:
        print("\nNOT STEADY:\n  " + "\n  ".join(failures))
        return 1
    print("\nsteady: every gap and every gated spread within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
