"""End-to-end benchmark of the ADDC reproduction: one workload per call.

    python3 e2ebench/run.py --workload paper-rep --seed 2012 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload untraced once, then again under the
outside-in tracer, and prints the per-layer metrics.  Either way the
last stdout line is one JSON object; the lines before it are the full
human-readable report, every figure with its unit and sample count.
Work files live in ``.e2ebench/`` and are removed; the report, the span
file and the per-seed count ledger stay in ``.e2ebench/out/``.
See e2ebench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from host import REF_NOMINAL_S, HostClock, OpTimer, percentile

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("paper-rep", "fig6c-sweep", "service-mix")
#: Fresh-interpreter set-ups per run; the median is reported.
SETUP_SAMPLES = 5
#: What an in-process workload imports before its first op can run.
SETUP_SNIPPET = (
    "from repro.experiments.config import ExperimentConfig\n"
    "from repro.experiments.runner import run_comparison_repetition\n"
    "from repro.service.jobs import JobSpec, execute_job\n"
    "ExperimentConfig(seed=0)\n"
    "print('ready', flush=True)\n"
)

#: The workloads BENCHMARK.json gates; each must yield every metric below.
#: paper-rep runs the same way but is not gated (see README.md).
GATED = ("fig6c-sweep", "service-mix")
#: name -> unit, the JSON line of an untraced run.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "slots_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PHASES = ("sensing", "adjudicate", "pu_redraw", "backoff", "deliver", "frozen_wait")
PER_LAYER = {
    "host.ref_s": "s",
    "host.ref_spread": "1",
    "host.wall_raw_s": "s",
    "host.setup_raw_s": "s",
    "setup.import_s": "s",
    "network.deploy_s": "s",
    "graphs.tree_s": "s",
    "graphs.coolest_routes_s": "s",
    "spectrum.sense_map_s": "s",
    "experiments.repetition_s.p50": "s",
    "experiments.repetition_s.p90": "s",
    "harness.overhead_s": "s",
    "harness.journal_append_s": "s",
    "harness.journal_appends": "count",
    "harness.retries": "count",
    "storage.artifact_save_s": "s",
    "obs.trace_merge_s": "s",
    "sim.addc.run_s": "s",
    "sim.coolest.run_s": "s",
    "sim.addc.slots": "count",
    "sim.coolest.slots": "count",
    "sim.addc.ff_share": "1",
    "sim.coolest.ff_share": "1",
    "sim.addc.us_per_executed_slot": "us",
    "sim.coolest.us_per_executed_slot": "us",
    "sim.us_per_delivery": "us",
    "sim.delivery_per_attempt": "1",
    **{f"sim.phase.{phase}.us_per_slot": "us" for phase in PHASES},
    "sim.unattributed_share": "1",
    "trace.overhead_ratio": "1",
    "trace.unattributed_share": "1",
}
#: Reported figures outside the JSON line (only some workloads reach them).
REPORT_ONLY = {
    "experiments.repetition_s": "s",
    "trace.accounting_gap": "1",
    "service.ack_s": "s",
    "service.queue_wait_s": "s",
    "service.miss_overhead_s": "s",
    "service.cache_hit_ratio": "1",
    "service.jobs_shed": "count",
    "service.daemon_rss_mb": "MB",
    "setup.daemon_ready_s": "s",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


# ---- set-up ---------------------------------------------------------------- #


def measure_setup(workload: str, clock: HostClock, work: Path, workloads) -> Dict:
    """Fresh interpreter -> first op ready, ``SETUP_SAMPLES`` times.

    In-process workloads: interpreter start plus the imports an op needs.
    service-mix: a daemon process answering ``ping``.  Each sample is an
    op of its own, normalized by the reference samples around it.
    """
    timer = OpTimer(clock, 3)
    for index in range(SETUP_SAMPLES):
        if workload == "service-mix":
            timer.measure("setup", _daemon_ready, workloads, work / f"setup-{index}").stop()
        else:
            proc = timer.measure("setup", _interpreter_ready)
            if proc.wait(timeout=60) != 0:
                raise RuntimeError("set-up interpreter failed")
    timer.close()
    return {"raw": [op.raw_s for op in timer.ops], "norm": [op.norm_s for op in timer.ops]}


def _daemon_ready(workloads, directory: Path):
    daemon = workloads.Daemon(directory, traced=False)
    try:
        daemon.wait_ready()
    except BaseException:
        daemon.stop()
        raise
    return daemon


def _interpreter_ready() -> subprocess.Popen:
    proc = subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET], stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    proc.stdout.close()
    if line.strip() != b"ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("set-up interpreter did not get ready")
    return proc


# ---- metrics --------------------------------------------------------------- #


def _pcts(values: List[float]) -> Dict[str, Optional[float]]:
    return {"p50": percentile(values, 50), "p90": percentile(values, 90), "n": len(values)}


def end_to_end(units, setup: Dict, clock: HostClock) -> Dict:
    """Every end-to-end figure of an untraced pass (medians over units)."""
    def med(values):
        return statistics.median(values)

    ops = [op for unit in units for op in unit.timer.ops]
    figures = {
        "setup_s": med(setup["norm"]),
        "wall_s": med([u.wall_norm_s for u in units]),
        "ops_per_s": med([len(u.timer.ops) / u.wall_norm_s for u in units]),
        "slots_per_s": med([u.slots / u.wall_norm_s for u in units]),
        "peak_rss_mb": max(u.peak_rss_mb for u in units),
        "latency_s": _pcts([op.norm_s for op in ops if op.kind == "rep"]),
        "hit_latency_s": _pcts([op.norm_s for op in ops if op.kind == "hit"]),
        "miss_latency_s": _pcts([op.norm_s for op in ops if op.kind == "miss"]),
        "raw": {
            "setup_s": med(setup["raw"]),
            "wall_s": med([u.wall_raw_s for u in units]),
            "ops_per_s": med([len(u.timer.ops) / u.wall_raw_s for u in units]),
            "slots_per_s": med([u.slots / u.wall_raw_s for u in units]),
        },
        "units": len(units),
    }
    return figures


def per_layer(workload: str, unit, untraced_unit, tracer, recorder, clock, import_s, setup) -> Dict:
    """Per-layer figures of the traced pass (one unit)."""
    from tracer import END, NAME, PARENT, START, layer_of, root_accounting, self_times

    scale = REF_NOMINAL_S / clock.ref_s()
    spans = tracer.spans
    own = self_times(spans)
    by_name: Dict[str, List[float]] = {}
    self_by_name: Dict[str, float] = {}
    for index, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(s[END] - s[START])
        self_by_name[s[NAME]] = self_by_name.get(s[NAME], 0.0) + own[index]

    def mean_self(name):
        count = len(by_name.get(name, ()))
        return self_by_name[name] / count * scale if count else None

    reps = by_name.get("experiments.repetition", [])
    figures: Dict[str, Optional[float]] = {
        "host.ref_s": clock.ref_s(),
        "host.ref_spread": clock.spread(),
        "host.wall_raw_s": untraced_unit.wall_raw_s,
        "host.setup_raw_s": statistics.median(setup["raw"]),
        "setup.import_s": import_s,
        "network.deploy_s": mean_self("network.deploy"),
        "graphs.tree_s": mean_self("graphs.tree"),
        "graphs.coolest_routes_s": mean_self("graphs.coolest_routes"),
        "spectrum.sense_map_s": mean_self("spectrum.sense_map"),
        "experiments.repetition_s": statistics.mean(reps) * scale if reps else None,
        "experiments.repetition_s.p50": percentile([r * scale for r in reps], 50),
        "experiments.repetition_s.p90": percentile([r * scale for r in reps], 90),
    }

    runs = tracer.engine_runs
    for policy in ("addc", "coolest"):
        mine = [r for r in runs if r["policy"] == policy]
        slots = sum(r["slots"] for r in mine)
        ff = sum(r["ff_slots"] for r in mine)
        seconds = sum(r["seconds"] for r in mine) * scale
        figures[f"sim.{policy}.run_s"] = seconds / len(mine) if mine else None
        figures[f"sim.{policy}.slots"] = slots
        figures[f"sim.{policy}.ff_share"] = ff / slots if slots else None
        figures[f"sim.{policy}.us_per_executed_slot"] = (
            seconds / (slots - ff) * 1e6 if slots > ff else None
        )
    delivered = sum(r["delivered"] for r in runs)
    attempts = sum(r["attempts"] for r in runs)
    figures["sim.us_per_delivery"] = (
        sum(r["seconds"] for r in runs) * scale / delivered * 1e6 if delivered else None
    )
    figures["sim.delivery_per_attempt"] = delivered / attempts if attempts else None

    profile = unit.extra.get("daemon_profile") or recorder.profile()
    executed = profile.get("engine.slot", {}).get("count", 0)
    for phase in PHASES:
        total_ms = profile.get(f"engine.phase.{phase}", {}).get("total_ms", 0.0)
        figures[f"sim.phase.{phase}.us_per_slot"] = (
            total_ms * 1e3 * scale / executed if executed else None
        )
    run_ms = profile.get("engine.run", {}).get("total_ms", 0.0)
    slot_ms = profile.get("engine.slot", {}).get("total_ms", 0.0)
    figures["sim.unattributed_share"] = 1.0 - slot_ms / run_ms if run_ms else None

    # The observer: traced wall over untraced wall, and what no span claims.
    figures["trace.overhead_ratio"] = unit.wall_norm_s / untraced_unit.wall_norm_s - 1.0
    roots = [i for i, s in enumerate(spans) if s[PARENT] < 0 and s[NAME].startswith("bench.")]
    nested_ref = sum(
        s[END] - s[START] for s in spans if s[NAME] == "host.ref" and s[PARENT] >= 0
    )
    traced_wall = sum(spans[i][END] - spans[i][START] for i in roots) - nested_ref
    unattributed = sum(own[i] for i, s in enumerate(spans) if layer_of(s[NAME]) == "unattributed")
    figures["trace.unattributed_share"] = unattributed / traced_wall if traced_wall else None
    figures["trace.accounting_gap"] = root_accounting(spans)
    layers: Dict[str, float] = {}
    for index, s in enumerate(spans):
        if s[NAME] != "host.ref":
            layers[layer_of(s[NAME])] = layers.get(layer_of(s[NAME]), 0.0) + own[index]
    figures["trace.layer_share"] = {k: v / traced_wall for k, v in sorted(layers.items())}

    # The job path (not reached by paper-rep): per job, job wall minus
    # the repetitions it ran and the reference samples taken inside it.
    jobs = [i for i, s in enumerate(spans) if s[NAME] in ("bench.job", "service.execute_job")]
    if jobs:
        inside = sum(
            s[END] - s[START]
            for s in spans
            if s[NAME] in ("harness.work_item", "host.ref") and s[PARENT] >= 0
        )
        job_wall = sum(spans[i][END] - spans[i][START] for i in jobs)
        figures["harness.overhead_s"] = (job_wall - inside) / len(jobs) * scale
        figures["harness.journal_append_s"] = mean_self("harness.journal_append")
        figures["harness.journal_appends"] = len(by_name.get("harness.journal_append", ()))
        snapshot = unit.extra.get("daemon_snapshot") or recorder.snapshot()
        figures["harness.retries"] = snapshot["counters"].get("harness.retries", 0)
        figures["storage.artifact_save_s"] = mean_self("storage.artifact_save")
        figures["obs.trace_merge_s"] = self_by_name.get("obs.trace_merge", 0.0) / len(jobs) * scale
    if workload == "service-mix":
        figures.update(_service_layer(unit, tracer, scale))
        figures["setup.daemon_ready_s"] = statistics.median(setup["norm"])
    return figures


def _service_layer(unit, tracer, scale) -> Dict:
    from tracer import END, NAME, OP, START

    job_starts = {s[OP]: s[START] for s in tracer.spans if s[NAME] == "service.execute_job"}
    admitted = {s[OP]: s[END] for s in tracer.spans if s[NAME] == "service.admit"}
    ack, queue_wait, overhead = [], [], []
    walls = unit.extra["manifest_wall_s"]
    plan = unit.extra["plan"]
    for index, op in enumerate(unit.timer.ops):
        events = op.info.get("events", [])
        ack.append((events[0][0] - op.started) if events else op.raw_s)
        if op.kind != "miss":
            continue
        if index in admitted and index in job_starts:
            queue_wait.append(job_starts[index] - admitted[index])
        wall = walls.get(plan[index][1].fingerprint())
        if wall is not None:
            overhead.append(op.raw_s - wall)
    counts = unit.counts
    return {
        "service.ack_s": statistics.median(ack) * scale,
        "service.queue_wait_s": statistics.median(queue_wait) * scale if queue_wait else None,
        "service.miss_overhead_s": statistics.median(overhead) * scale if overhead else None,
        "service.cache_hit_ratio": counts["service.cache_hit_ratio"],
        "service.jobs_shed": counts["service.jobs_shed"],
        "service.daemon_rss_mb": unit.peak_rss_mb,
    }


# ---- checks ---------------------------------------------------------------- #


def check_expected(workload: str, seed: int, unit) -> List[str]:
    expected = json.loads((HERE / "expected.json").read_text()).get(workload)
    if not expected or expected["seed"] != seed:
        return []
    problems = []
    for key, value in expected["outputs"].items():
        if unit.outputs.get(key) != value:
            problems.append(f"output {key} differs from expected.json")
    for key, value in expected["counts"].items():
        if key in unit.counts and unit.counts[key] != value:
            problems.append(f"count {key}={unit.counts[key]} differs from expected {value}")
    return problems


def check_ledger(ledger_path: Path, workload: str, seed: int, counts: Dict) -> List[str]:
    """Counts at one seed must repeat exactly across runs in this checkout."""
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    seen = ledger.setdefault(f"{workload}/{seed}", {})
    problems = [
        f"count {key}={value} differs from {seen[key]} in an earlier run at this seed"
        for key, value in counts.items()
        if key in seen and seen[key] != value
    ]
    for key, value in counts.items():
        seen.setdefault(key, value)
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, ledger_path)
    return problems


def compare_units(units, label: str) -> List[str]:
    """All units of a run did the same work: same outputs, same counts."""
    first = units[0]
    problems = []
    for unit in units[1:]:
        if unit.outputs != first.outputs:
            problems.append(f"{label}: outputs differ between units at one seed")
        if any(unit.counts.get(k) != v for k, v in first.counts.items() if k in unit.counts):
            problems.append(f"{label}: counts differ between units at one seed")
    return problems


# ---- main ------------------------------------------------------------------ #


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # Unwind (stopping the daemon, removing work files) when terminated.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: {src}/repro not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )
    out = root / ".e2ebench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    work = root / ".e2ebench" / f"work-{os.getpid()}"

    clock = HostClock()
    clock.sample(5)  # warm the kernel's code paths
    started = time.perf_counter()
    workloads = importlib.import_module("workloads")
    import_s = clock.normalize(time.perf_counter() - started)
    try:
        setup = measure_setup(args.workload, clock, work, workloads)
        seconds = 0.0 if args.trace else args.seconds
        units, _, _ = workloads.run_pass(args.workload, args.seed, seconds, clock, False, work)
        traced = None
        if args.trace:
            traced = workloads.run_pass(args.workload, args.seed, 0.0, clock, True, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems: List[str] = []
    failed_ops = set()
    all_units = list(units) + (list(traced[0]) if traced else [])
    attempted = 0
    for number, unit in enumerate(all_units):
        for op, message in unit.failures:
            problems.append(f"unit {number} op {op}: {message}")
            ops = range(len(unit.timer.ops)) if op is None else [op]
            failed_ops.update((number, i) for i in ops)
        attempted += len(unit.timer.ops)
    unit_problems = compare_units(all_units, args.workload)
    unit_problems += check_expected(args.workload, args.seed, units[0])
    unit_problems += check_ledger(out / "counts.json", args.workload, args.seed, units[0].counts)
    if traced:
        unit_problems += check_ledger(
            out / "counts.json", args.workload, args.seed, traced[0][0].counts
        )
    if unit_problems:
        # A wrong result or a drifting count taints every op it covers.
        failed_ops.update((0, i) for i in range(len(units[0].timer.ops)))
    problems += unit_problems

    e2e = end_to_end(units, setup, clock)
    layer = None
    if traced:
        t_units, tracer, recorder = traced
        layer = per_layer(
            args.workload, t_units[0], units[0], tracer, recorder, clock, import_s, setup
        )
        if layer["trace.accounting_gap"] > 0.05:
            problems.append(f"span self times miss the op wall by {layer['trace.accounting_gap']:.1%}")
            failed_ops.add((0, 0))
        spans_path = out / f"{args.workload}-seed{args.seed}.spans.ndjson"
        spans_path.write_text("".join(json.dumps(r) + "\n" for r in tracer.to_records()))

    figures, units_of = (layer, PER_LAYER) if args.trace else (e2e, END_TO_END)
    metrics = {n: {"value": figures.get(n), "unit": u} for n, u in units_of.items()}
    missing = [n for n, m in metrics.items() if m["value"] is None]
    if args.workload not in GATED:
        metrics = {n: m for n, m in metrics.items() if m["value"] is not None}
    elif missing:
        problems.append(f"no value measured for {missing}")
        failed_ops.add((0, 0))

    failed = len(failed_ops)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ref_nominal_s": REF_NOMINAL_S,
        "host": {
            "ref_s": clock.ref_s(),
            "ref_spread": clock.spread(),
            "ref_samples": len(clock.samples),
            "setup_raw_s": setup["raw"],
        },
        "end_to_end": e2e,
        "per_layer": layer,
        "outputs": units[0].outputs,
        "counts": units[0].counts,
        "failed_ratio": failed / max(1, attempted),
        "problems": problems,
    }
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str)
    )
    print_report(args, clock, e2e, layer, failed, attempted, problems)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


def print_report(args, clock, e2e, layer, failed, attempted, problems) -> None:
    """The human-readable report: every figure with its unit and sample count."""
    print(f"workload {args.workload}  seed {args.seed}  units {e2e['units']}")
    print(f"host.ref_s {clock.ref_s():.6g} s  host.ref_spread {clock.spread():.4g}"
          f"  ({len(clock.samples)} samples, nominal {REF_NOMINAL_S} s)")
    for name in END_TO_END:
        print(f"{name} {_fmt(e2e[name])} {END_TO_END[name]}  (raw {_fmt(e2e['raw'].get(name))})")
    for name in ("latency_s", "hit_latency_s", "miss_latency_s"):
        if e2e[name]["n"]:
            pc = e2e[name]
            print(f"{name}.p50 {_fmt(pc['p50'])} s  {name}.p90 {_fmt(pc['p90'])} s  (n={pc['n']})")
    print(f"failed_ratio {failed / max(1, attempted):.6g} 1  ({failed} of {attempted} ops)")
    if layer:
        for name, value in layer.items():
            if not isinstance(value, dict):
                print(f"{name} {_fmt(value)} {PER_LAYER.get(name) or REPORT_ONLY[name]}")
        shares = layer["trace.layer_share"]
        print("trace.layer_share " + " ".join(f"{k}={v:.4f}" for k, v in shares.items()))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")


if __name__ == "__main__":
    sys.exit(main())
