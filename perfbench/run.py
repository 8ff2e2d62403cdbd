#!/usr/bin/env python3
"""Fleet-calibration benchmark: build, run one workload, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the speccal libraries from src/ plus the C++ driver) under
.bench_build/; later runs rebuild incrementally. The driver runs closed
batches of the workload for S seconds and checks every output; this script
turns its raw document into the metrics BENCHMARK.json names.

--trace 0 prints the end-to-end metrics, measured on untraced batches.
--trace 1 alternates untraced and traced batches and prints the per-layer
metrics; a layer's self time comes from the Chrome trace the driver wrote
(a stage span minus the sdr.capture spans it contains).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 only when every output check
passed; usage errors exit 2. README.md in this directory says why each
workload exists and what each metric should move.
"""

import argparse
import fcntl
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"
DRIVER = BUILD / "perfbench_driver"
RUN_LIMIT_S = 175.0  # a measured run must end within 180 s

STAGES = ["survey", "fov", "cell_scan", "tv_sweep", "fuse", "lo_calibration"]


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def whole_number(lo, hi):
    def parse(text):
        if not re.fullmatch(r"[0-9]+", text) or not lo <= int(text) <= hi:
            raise argparse.ArgumentTypeError(
                f"wants a whole number in [{lo}, {hi}], got {text!r}")
        return int(text)
    return parse


def parse_args(workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=whole_number(0, 2**63 - 1))
    parser.add_argument("--seconds", required=True, type=whole_number(1, 600))
    parser.add_argument("--trace", required=True, type=whole_number(0, 1))
    return parser.parse_args()  # exits 2 with a usage message on bad input


# ------------------------------------------------------------------ build --

def build():
    """Configure once, then rebuild incrementally; one build at a time."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no speccal sources under {ROOT / 'src'}; run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    with open(BUILD / ".lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(step)} (log: {log_path})")


def git_describe():
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


# ------------------------------------------------------------------ stats --

def median(xs):
    return statistics.median(xs) if xs else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def tail_percentile(xs):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    ordered = sorted(xs)
    for p in (99, 95, 90, 75):
        k = int(len(ordered) * p / 100)
        beyond = len(ordered) - k - 1
        if k < len(ordered) and beyond >= 10:
            return p, ordered[k], beyond
    return None


# ------------------------------------------------------------ end to end --

def end_to_end(raw, batches):
    nodes = [b["nodes"] for b in batches]
    return {
        "nodes_per_s": median([b["nodes"] / b["wall_s"] for b in batches]),
        "node_ms_p50": median([ms for b in batches for ms in b["node_ms"]]),
        "ingest_mbytes_per_s": median([b["ingest_bytes"] / 1e6 / b["wall_s"] for b in batches]),
        "cpu_ms_per_node": median([1e3 * b["cpu_s"] / n for b, n in zip(batches, nodes)]),
        "setup_s": median(raw["setup_s"]),
        "peak_rss_mb": median([b["peak_rss_mb"] for b in batches]),
    }


# -------------------------------------------------------------- per layer --

def contained(inner, outer):
    return (inner["tid"] == outer["tid"] and inner["ts"] >= outer["ts"]
            and inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"])


def trace_nodes(trace_file):
    """Per (batch, node) view of the Chrome trace: stage spans, the capture
    spans inside each, and the node's task spans. A batch is one fleet_run
    span (one FleetCalibrator::run, also inside DecodeFarm::run)."""
    events = [e for e in json.loads(Path(trace_file).read_text())["traceEvents"]
              if e.get("ph") == "X"]
    runs = sorted((e for e in events if e["name"] == "fleet_run"), key=lambda e: e["ts"])

    def batch_of(e):
        for i, r in enumerate(runs):
            if r["ts"] <= e["ts"] <= r["ts"] + r["dur"]:
                return i
        return None

    nodes = {}

    def node(e, node_id):
        return nodes.setdefault((batch_of(e), node_id),
                                {"stages": [], "captures": [], "tasks": []})

    for e in events:
        if e["cat"] == "stage":
            node(e, e["args"]["node"])["stages"].append(e)
        elif e["cat"] == "sdr":
            node(e, e["args"]["node"])["captures"].append(e)
        elif e["cat"] == "task":
            node(e, e["name"].rsplit("/", 1)[0])["tasks"].append(e)
    return runs, {k: v for k, v in nodes.items() if k[0] is not None}


def ledger(runs, nodes):
    """Stage x layer self times (ms, per node) and the ledger gate."""
    n = len(nodes)
    table = {s: {"wall": 0.0, "render": 0.0} for s in STAGES}
    render_total = wall_total = task_total = wait_total = 0.0
    samples = 0
    worst_gap = 0.0
    for record in nodes.values():
        captures = record["captures"]
        stage_wall = 0.0
        attributed = 0.0
        for stage in record["stages"]:
            inside = sum(c["dur"] for c in captures if contained(c, stage))
            row = table.setdefault(stage["name"], {"wall": 0.0, "render": 0.0})
            row["wall"] += stage["dur"] / 1e3
            row["render"] += inside / 1e3
            stage_wall += stage["dur"]
            attributed += stage["dur"] - inside
        render = sum(c["dur"] for c in captures)
        samples += sum(c["args"]["samples"] for c in captures)
        # Layer sum = every capture (render) + every stage's self time; it
        # equals the stage-wall sum only if each capture sits in a stage.
        gap = abs(render + attributed - stage_wall) / stage_wall if stage_wall else 1.0
        worst_gap = max(worst_gap, gap)
        tasks = record["tasks"]
        latency = (max(t["ts"] + t["dur"] for t in tasks) - min(t["ts"] for t in tasks)
                   if tasks else stage_wall)
        render_total += render / 1e3
        wall_total += stage_wall / 1e3
        task_total += sum(t["dur"] for t in tasks) / 1e3
        wait_total += (latency - stage_wall) / 1e3
    run_wall_ms = sum(r["dur"] for r in runs) / 1e3
    return {
        "nodes": n,
        "table": table,
        "render_ms": render_total,
        "samples": samples,
        "stage_wall_ms": wall_total,
        "task_ms": task_total,
        "wait_ms": wait_total,
        "run_wall_ms": run_wall_ms,
        "worst_gap": worst_gap,
    }


def per_layer(raw, untraced, traced, led, threads):
    layers = raw["layers"]
    c = layers["counters"]
    n = led["nodes"]
    per_node = lambda ms: ratio(ms, n)
    batches = len(traced)
    samples = led["samples"]
    table = led["table"]
    self_ms = lambda s: table[s]["wall"] - table[s]["render"]
    wire, codec_s = layers["wire_bytes"], layers["codec_s"]
    lookups = c["speccal_dsp_plan_cache_hits_total"] + c["speccal_dsp_plan_cache_misses_total"]
    tv_checks = c["speccal_gate_tv_pilot_pass_total"] + c["speccal_gate_tv_pilot_skip_total"]
    lo_checks = c["speccal_gate_lo_refine_pass_total"] + c["speccal_gate_lo_refine_skip_total"]
    attempted = c["speccal_adsb_frames_attempted_total"]
    tasks = c["speccal_executor_tasks_total"]
    return {
        "sdr.capture_ms_per_node": per_node(led["render_ms"]),
        "sdr.ns_per_sample": ratio(1e6 * led["render_ms"], samples),
        "sdr.samples_per_node": ratio(samples, n),
        "sdr.node_time_share": ratio(led["render_ms"], led["stage_wall_ms"]),
        "tv.sweep_self_ms_per_node": per_node(self_ms("tv_sweep")),
        "tv.node_time_share": ratio(self_ms("tv_sweep"), led["stage_wall_ms"]),
        "calib.survey_self_ms_per_node": per_node(self_ms("survey")),
        "calib.lo_self_ms_per_node": per_node(self_ms("lo_calibration")),
        "calib.fuse_ms_per_node": per_node(table["fuse"]["wall"]),
        "calib.consensus_ms": median(layers["consensus_ms"]),
        "calib.node_fail_ratio": ratio(sum(b["failed"] for b in traced),
                                       sum(b["nodes"] for b in traced)),
        "adsb.frames_decoded_per_node": ratio(c["speccal_adsb_frames_decoded_total"], n),
        "adsb.frames_attempted_per_node": ratio(attempted, n),
        "adsb.decode_yield": ratio(c["speccal_adsb_frames_decoded_total"], attempted),
        "dsp.plan_cache_hit_ratio": ratio(c["speccal_dsp_plan_cache_hits_total"], lookups),
        "dsp.plan_cache_lookups_per_batch": ratio(lookups, batches),
        "dsp.scratch_grow_events_per_batch":
            ratio(c["speccal_dsp_scratch_grow_events_total"], batches),
        "gate.tv_pilot_pass_ratio": ratio(c["speccal_gate_tv_pilot_pass_total"], tv_checks),
        "gate.tv_pilot_checks_per_node": ratio(tv_checks, n),
        "gate.lo_refine_pass_ratio": ratio(c["speccal_gate_lo_refine_pass_total"], lo_checks),
        "gate.lo_refine_checks_per_node": ratio(lo_checks, n),
        "executor.tasks_run": ratio(tasks, batches),
        "executor.steal_ratio": ratio(c["speccal_executor_steals_total"], tasks),
        "executor.wait_ms_per_node": per_node(led["wait_ms"]),
        "executor.busy_ratio": ratio(led["task_ms"], threads * led["run_wall_ms"]),
        "net.decode_s": codec_s,
        "net.decode_mbytes_per_s": ratio(wire / 1e6, codec_s),
        "net.codec_ns_per_byte": ratio(1e9 * codec_s, wire),
        "net.queue_peak_depth": layers["queue_peak_depth"],
        "net.decode_errors": c["speccal_net_decode_errors_total"],
        "obs.trace_overhead_ratio":
            ratio(median([b["wall_s"] for b in traced]),
                  median([b["wall_s"] for b in untraced])) - 1.0,
        "ledger.max_gap_ratio": led["worst_gap"],
    }


def print_stage_table(workload, led):
    n = led["nodes"]
    total = led["stage_wall_ms"]
    print(f"\nstage x layer self time, {workload}, ms per node over {n} traced nodes")
    print(f"{'stage':<22}{'wall':>10}{'render':>10}{'self':>10}{'share':>8}")
    rows = [("render (sdr.capture)", led["render_ms"], led["render_ms"], 0.0)]
    for s, row in led["table"].items():
        if row["wall"]:
            rows.append((s, row["wall"], row["render"], row["wall"] - row["render"]))
    for name, wall, render, self_ms in rows:
        share = (render if name.startswith("render") else self_ms) / total if total else 0.0
        print(f"{name:<22}{wall / n:>10.2f}{render / n:>10.2f}{self_ms / n:>10.2f}"
              f"{100 * share:>7.1f}%")


# ------------------------------------------------------------------- main --

def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args([w["name"] for w in spec["workloads"]])
    build()
    started = time.monotonic()  # the build has its own, longer allowance

    OUT.mkdir(parents=True, exist_ok=True)
    command = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(OUT)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        fail("driver exceeded the run time limit")
    if done.returncode != 0:
        fail(f"driver exited with {done.returncode}")
    raw = json.loads(done.stdout)

    manifest = dict(raw["manifest"], git_describe=git_describe(), trace=args.trace)
    print("manifest " + json.dumps(manifest, sort_keys=True))
    untraced = [b for b in raw["batches"] if not b["traced"]]
    traced = [b for b in raw["batches"] if b["traced"]]
    checks = list(raw["checks"])

    if args.trace:
        runs, nodes = trace_nodes(raw["layers"]["trace_file"])
        led = ledger(runs, nodes)
        checks.append({"name": "ledger_within_5pct", "ok": led["worst_gap"] <= 0.05,
                       "detail": f"worst node gap {led['worst_gap']:.4f}"})
        checks.append({"name": "capture_samples_match_registry",
                       "ok": led["samples"] ==
                             raw["layers"]["counters"]["speccal_sdr_samples_total"],
                       "detail": f"{led['samples']} in sdr.capture spans"})
        checks.append({"name": "trace_covers_traced_nodes",
                       "ok": led["nodes"] == raw["layers"]["traced_nodes"],
                       "detail": f"{led['nodes']} in trace, "
                                 f"{raw['layers']['traced_nodes']} traced"})
        values = per_layer(raw, untraced, traced, led, manifest["worker_threads"])
        print_stage_table(args.workload, led)
        measured = traced
        wanted = spec["per_layer"]
    else:
        values = end_to_end(raw, untraced)
        measured = untraced
        wanted = spec["end_to_end"]

    latencies = [ms for b in measured for ms in b["node_ms"]]
    tail = tail_percentile(latencies)
    attempted = sum(b["nodes"] for b in measured)
    failed = sum(b["failed"] for b in measured)
    print(f"\n{len(measured)} batch(es), {attempted} node(s), {failed} failed "
          f"(node_fail_ratio {ratio(failed, attempted):.4f}); node latency over "
          f"{len(latencies)} nodes: p50 {median(latencies):.1f} ms, " +
          (f"p{tail[0]} {tail[1]:.1f} ms ({tail[2]} nodes beyond)" if tail else
           "no tail percentile has ten nodes beyond it"))
    for check in checks:
        status = "ok  " if check["ok"] else "FAIL"
        detail = f" ({check['detail']})" if check["detail"] and not check["ok"] else ""
        print(f"check {status} {check['name']}{detail}")

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics not produced: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = all(c["ok"] for c in checks)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"manifest": manifest, "checks": checks, **result}, indent=1) + "\n")
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
