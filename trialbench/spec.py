"""What trialbench measures: workloads, metrics, bounds and the layer each
metric belongs to.

This module is the single source for BENCHMARK.json
(`python3 trialbench/run.py --write-benchmark-json`), for the checks in
run.py and steadiness.py, and for the metric table in README.md.
"""

COMMAND = ["python3", "trialbench/run.py"]
PATHS = ["trialbench"]
RUN_SECONDS = 30
DEFAULT_SEED = 42

WORKLOADS = [
    {
        "name": "race_mc",
        "why": "Serial Fig. 2 hijack races over 4 controller profiles x 3 "
        "suites; tiny topology, so testbed build, event loop and "
        "allocation dominate each trial.",
    },
    {
        "name": "defense_stack",
        "why": "Serial link attacks under the Stacked suite plus the anomaly "
        "IDS: longest listener chain, signed and sealed LLDP, LLI windows "
        "and IDS scoring.",
    },
    {
        "name": "fleet_loaded",
        "why": "Fleet hijack on a k=8 fat-tree with background traffic at 2 "
        "workers: deep event queue, flow tables, host table, thread pool; "
        "no crypto.",
    },
]

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("trials_per_s", "1/s", "higher", 0.25),
    ("trial_ms.p50", "ms", "lower", 0.25),
    ("cpu_ms_per_trial", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

# Pipeline listeners seen on any workload. A workload prints a listener's
# dispatch count only when the listener is in its chain; run.py reports
# the others as 0.
LISTENERS = [
    "CMM", "LLI", "SPHINX", "TopoGuard", "anomaly-ids", "controller-core",
    "host-tracking", "link-discovery", "observer", "routing", "verdict-gate",
]

# name, unit, better, layer, what it should move (end-to-end metric and
# workload). "exact" marks counts that must repeat bit for bit and must not
# move under a speed-only change.
PER_LAYER = [
    ("sim.events_per_trial", "count", "lower", "sim",
     "exact; identical under a speed-only change; fewer events move "
     "trials_per_s on all three"),
    ("sim.host_ns_per_event", "ns", "lower", "sim",
     "trials_per_s on all three"),
    ("sim.queue_depth.p50", "count", "lower", "sim",
     "sizes the loop drill; shallow on race_mc, deep on fleet_loaded"),
    ("sim.queue_depth.max", "count", "lower", "sim",
     "where a bucketed or 4-ary queue front end can pay"),
    ("sim.loop_ns_per_event", "ns", "lower", "sim",
     "trials_per_s on race_mc and fleet_loaded"),
    ("crypto.lldp_macs_per_trial", "count", "lower", "crypto",
     "exact; fewer move trials_per_s on defense_stack and race_mc; 0 on "
     "fleet_loaded"),
    ("crypto.hmac_ns", "ns", "lower", "crypto",
     "trials_per_s on defense_stack and race_mc TopoGuard cells"),
    ("crypto.hmac_bytes", "bytes", "lower", "crypto",
     "sizes the HMAC drill (the signed LLDPDU core)"),
    ("crypto.xtea_ns", "ns", "lower", "crypto",
     "trials_per_s on defense_stack"),
    ("net.lldp_codec_ns", "ns", "lower", "net",
     "trials_per_s on defense_stack"),
    ("of.flow_lookup_ns", "ns", "lower", "of",
     "trials_per_s on fleet_loaded"),
    ("of.flow_table_population", "count", "lower", "of",
     "sizes the flow-lookup drill"),
    ("topo.path_ns.miss", "ns", "lower", "topo",
     "trials_per_s on fleet_loaded"),
    ("topo.path_ns.hit", "ns", "lower", "topo",
     "trials_per_s on fleet_loaded"),
    ("ctrl.pipeline.dispatches_per_trial", "count", "lower", "ctrl",
     "exact; fewer move trials_per_s on fleet_loaded and defense_stack"),
    ("ctrl.pipeline.visited_per_dispatch", "count", "lower", "ctrl",
     "exact; shorter chains move trials_per_s on defense_stack; sizes the "
     "dispatch drill"),
] + [
    (f"ctrl.listener.{name}.dispatches_per_trial", "count", "lower", "ctrl",
     "exact; that listener's share of dispatch work, 0 where it is not in "
     "the chain")
    for name in LISTENERS
] + [
    ("ctrl.pipeline.dispatch_ns_per_listener", "ns", "lower", "ctrl",
     "trials_per_s on defense_stack"),
    ("ctrl.lldp.emitted_per_trial", "count", "lower", "ctrl",
     "exact; discovery load, trials_per_s on fleet_loaded"),
    ("ctrl.lldp.matched_ratio", "ratio", "higher", "ctrl",
     "exact; useful discovery work over attempts"),
    ("ctrl.host_table.learn_ns", "ns", "lower", "ctrl",
     "trials_per_s on fleet_loaded"),
    ("ctrl.host_table.find_ns", "ns", "lower", "ctrl",
     "trials_per_s on fleet_loaded"),
    ("ctrl.hosts_tracked", "count", "higher", "ctrl",
     "exact; sizes the host-table drills; 128 on fleet_loaded"),
    ("defense.alerts_per_trial", "count", "lower", "defense",
     "exact; must not move under a speed-only change"),
    ("ids.train_ms", "ms", "lower", "ids", "setup_s on defense_stack"),
    ("ids.scored_per_trial", "count", "lower", "ids",
     "exact; IDS work, trials_per_s on defense_stack"),
    ("ids.deviations_per_trial", "count", "lower", "ids",
     "exact; must not move under a speed-only change"),
    ("attack.lldp_relayed_per_trial", "count", "lower", "attack",
     "exact; must not move under a speed-only change"),
    ("attack.flaps_per_trial", "count", "lower", "attack",
     "exact; must not move under a speed-only change"),
    ("stats.p2_add_ns", "ns", "lower", "stats",
     "trials_per_s on defense_stack"),
    ("stats.latency_window_add_ns", "ns", "lower", "stats",
     "trials_per_s on defense_stack"),
    ("scenario.testbed_build_ms", "ms", "lower", "scenario",
     "trials_per_s, mostly on race_mc"),
    ("scenario.worker_busy_ratio", "ratio", "higher", "scenario",
     "trials_per_s on fleet_loaded"),
    ("obs.traced_overhead_ratio", "ratio", "lower", "obs",
     "none (tracing is off in end-to-end runs)"),
    ("alloc.count_per_trial", "count", "lower", "alloc",
     "exact; trials_per_s on race_mc and fleet_loaded"),
    ("alloc.bytes_per_trial", "bytes", "lower", "alloc",
     "exact; trials_per_s on race_mc and fleet_loaded, peak_rss_mb on "
     "fleet_loaded"),
    ("layers.unattributed_ratio", "ratio", "lower", "all",
     "none; share of trial time no drill accounts for"),
]

# Per-layer metrics that must repeat bit for bit across traced runs.
EXACT = [m[0] for m in PER_LAYER if m[4].startswith("exact")] + [
    "sim.queue_depth.p50", "sim.queue_depth.max", "crypto.hmac_bytes",
    "of.flow_table_population",
]


def benchmark_json():
    """The BENCHMARK.json document, as a dict."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER
        ],
    }
