"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``pcr``        evaluate the Proper Carrier-sensing Range (Eq. 16)
``bounds``     the analytic delay/capacity bounds for a scenario
``collect``    run one ADDC collection and print the outcome
``compare``    ADDC vs Coolest over repeated deployments
``chaos``      ADDC over repeated deployments under fault injection
               (repro.faults); ``chaos gate`` runs the full resilience
               scenario grid, evaluates every resilience contract, and
               ratchets the result against ``BENCH_resilience.json``
               (exit 1 on a contract violation or a gated regression)
``fig4``       regenerate Figure 4 (PCR sweeps)
``fig6``       regenerate one Figure 6 sub-figure (a-f), optionally --save
``scenario``   list or run a named scenario preset
``report``     regenerate the full evaluation record (slow)
``lint``       run reprolint (determinism & paper-invariant checks)
``obs``        observability: ``report`` (render/verify a run manifest),
               ``export`` (manifest or live stats -> Prometheus text), and
               ``diff`` (manifest-vs-manifest figure comparison)
``trace``      NDJSON traces: ``export`` (stream a run's events to disk),
               ``stats`` (summarize a trace/v1 or trace/v2 file), and
               ``tree`` (render a job's merged trace/v2 span tree)
``checkpoint`` crash-safe journals: ``inspect`` (summarize), ``verify``
               (validate), ``smoke`` (run/kill/resume byte-identity check)
``serve``      run the fault-tolerant experiment daemon (service/v1 over
               a local AF_UNIX socket; see docs/SERVICE.md)
``service``    talk to a running daemon: ``submit``, ``status``, ``top``
               (live telemetry), ``result``, ``ping``, ``shutdown``, and
               ``smoke`` (CI kill/restart/cache end-to-end check)

``fig6``, ``compare`` and ``chaos`` are jobs: each builds the same
:class:`~repro.service.jobs.JobSpec` that ``service submit`` sends and runs
it through :func:`~repro.service.jobs.run_job`, so every repetition is
supervised and can be journalled (``--checkpoint``/``--resume``).

Every scenario command accepts ``--scale {quick,bench,paper}``
(density-preserving scenario sizes; ``paper`` is the full n = 2000
setting — expect a very long run) and the radio parameters of the paper.
A library error exits 1 with one ``ERROR [code]: message`` line.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.analysis import TheoreticalBounds
from repro.core.collector import run_addc_collection
from repro.core.pcr import PcrParameters, compute_pcr
from repro.errors import ReproError
from repro.experiments.config import SCALES, ExperimentConfig, resolve_config
from repro.experiments.fig4 import figure4_rows
from repro.experiments.fig6 import FIG6_SWEEPS
from repro.experiments.report import render_fig4_table, render_fig6_table
from repro.network.deployment import deploy_crn
from repro.rng import StreamFactory

__all__ = ["main", "build_parser"]

_SOCKET = ".addc-service/service.sock"


def _retry_policy_from(args: argparse.Namespace):
    """A RetryPolicy from CLI flags, or None for the jobs-layer default."""
    if args.timeout is None and args.max_retries is None:
        return None
    from repro.harness import RetryPolicy

    kwargs = {}
    if args.timeout is not None:
        kwargs["timeout_s"] = args.timeout
    if args.max_retries is not None:
        kwargs["max_attempts"] = args.max_retries + 1
    return RetryPolicy(**kwargs)


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    return resolve_config(
        args.scale,
        seed=args.seed,
        blocking=args.blocking,
        repetitions=getattr(args, "repetitions", None),
        p_t=args.p_t,
    )


def _collect(config: ExperimentConfig, label: str, activity=None, **options):
    """One ADDC collection on a fresh deployment drawn from lineage ``label``.

    The RNG stream layout depends only on ``config.seed`` and ``label``, so
    two calls with the same arguments replay the identical simulation —
    which is what the determinism smoke check exploits.  ``options`` go
    to :func:`~repro.core.collector.run_addc_collection`.
    """
    streams = StreamFactory(config.seed).spawn(label)
    topology = deploy_crn(config.deployment_spec(), streams, activity=activity)
    return run_addc_collection(
        topology,
        streams.spawn("addc"),
        eta_p_db=config.eta_p_db,
        eta_s_db=config.eta_s_db,
        alpha=config.alpha,
        blocking=config.blocking,
        max_slots=config.max_slots,
        **options,
    )


def _cmd_pcr(args: argparse.Namespace) -> int:
    params = PcrParameters(
        alpha=args.alpha,
        pu_power=args.pu_power,
        su_power=args.su_power,
        pu_radius=args.pu_radius,
        su_radius=args.su_radius,
        eta_p_db=args.eta_p_db,
        eta_s_db=args.eta_s_db,
        zeta_bound=args.zeta_bound,
    )
    result = compute_pcr(params)
    print(f"c1 = {result.c1:.4f}   c2 = {result.c2:.4f}   c3 = {result.c3:.4f}")
    print(f"primary term   = {result.primary_term:.4f}")
    print(f"secondary term = {result.secondary_term:.4f}")
    print(f"kappa          = {result.kappa:.4f} ({result.binding_constraint} binds)")
    print(f"PCR            = {result.pcr:.4f}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    config = _config_from(args)
    params = PcrParameters(
        alpha=config.alpha,
        pu_power=config.pu_power,
        su_power=config.su_power,
        pu_radius=config.pu_radius,
        su_radius=config.su_radius,
        eta_p_db=config.eta_p_db,
        eta_s_db=config.eta_s_db,
        zeta_bound=config.zeta_bound,
    )
    pcr = compute_pcr(params)
    streams = StreamFactory(config.seed).spawn("cli-bounds")
    topology = deploy_crn(config.deployment_spec(), streams)
    from repro.graphs.tree import build_collection_tree

    tree = build_collection_tree(
        topology.secondary.graph, topology.secondary.base_station
    )
    bounds = TheoreticalBounds.for_scenario(
        num_sus=config.num_sus,
        num_pus=config.num_pus,
        area=config.area,
        p_t=config.p_t,
        kappa=pcr.kappa,
        su_radius=config.su_radius,
        delta=tree.max_degree(),
        root_degree=max(tree.root_degree(), 1),
    )
    print(f"kappa                 = {bounds.kappa:.3f} (PCR {pcr.pcr:.1f})")
    print(f"p_o (Lemma 7)         = {bounds.p_o:.6f}")
    print(f"expected wait         = {bounds.expected_wait_slots:,.0f} slots")
    print(f"Theorem 1 service     = {bounds.theorem1_slots:,.0f} slots")
    print(f"Lemma 8 service       = {bounds.lemma8_slots:,.0f} slots")
    print(f"Theorem 2 delay bound = {bounds.theorem2_delay_slots:,.0f} slots")
    print(f"capacity fraction     = {bounds.capacity_fraction:.3e} W")
    return 0


def _cmd_collect(args: argparse.Namespace) -> int:
    outcome = _collect(
        _config_from(args),
        "cli-collect",
        fairness_wait=not args.no_fairness,
        use_cds_tree=not args.bfs_tree,
        p_false_alarm=args.p_false_alarm,
        p_missed_detection=args.p_missed_detection,
        num_channels=args.num_channels,
        rounds=args.rounds,
        period_slots=args.period_slots,
    )
    print(outcome.result.summary())
    print(
        f"transmissions: {outcome.result.total_transmissions} "
        f"({outcome.result.collisions} collisions, "
        f"{outcome.result.pu_violations} PU violations)"
    )
    if outcome.bounds is not None and outcome.result.delay_slots is not None:
        ratio = outcome.result.delay_slots / outcome.bounds.theorem2_delay_slots
        print(f"Theorem 2 bound slack: {1.0 / max(ratio, 1e-12):,.0f}x")
    return 0 if outcome.result.completed else 1


def _job_spec(args: argparse.Namespace):
    """The :class:`~repro.service.jobs.JobSpec` a command line names.

    The one builder behind ``fig6``, ``compare``, ``chaos`` and ``service
    submit``, so a one-shot run, its checkpoint journal and the daemon's
    cache all agree on the experiment's fingerprint.
    """
    from repro.service.jobs import JobSpec

    chaos = {}
    if args.kind == "chaos":
        chaos = {
            "intensity": args.intensity,
            "horizon_slots": args.horizon_slots,
            "mean_downtime_slots": args.mean_downtime,
            "drop_queue": not args.keep_queues,
            # Pinned-idle detectors are only meaningful under geometric
            # blocking (the mean-field model has no PUs to violate).
            "sensing_fault_fraction": (
                0.25 if args.blocking == "geometric" else 0.0
            ),
            "blackout": args.blackout,
        }
    return JobSpec(
        kind=args.kind,
        scale=args.scale,
        seed=args.seed,
        blocking=args.blocking,
        # The CI smoke run is the same job at one repetition.
        repetitions=1 if getattr(args, "smoke", False) else args.repetitions,
        p_t=args.p_t,
        subfigure=args.subfigure if args.kind == "fig6" else None,
        chaos=chaos,
    )


def _render_fig6(job) -> None:
    sweep = FIG6_SWEEPS[job.spec.sweep_name()]
    print(render_fig6_table(sweep.name, sweep.description, job.points))


def _render_compare(job) -> None:
    if not job.points:
        return
    point = job.points[0][1]
    print(
        f"ADDC    : {point.addc_delay_ms.mean:12.1f} ms "
        f"± {point.addc_delay_ms.std:.1f}"
    )
    print(
        f"Coolest : {point.coolest_delay_ms.mean:12.1f} ms "
        f"± {point.coolest_delay_ms.std:.1f}"
    )
    print(
        f"ADDC induces {point.reduction_percent:.0f}% less delay "
        f"({point.speedup:.2f}x speedup)"
    )
    if point.skipped_repetitions:
        print(
            f"skipped {point.skipped_repetitions} repetition(s) that hit "
            "max_slots"
        )


def _render_chaos(job) -> None:
    result = job.chaos
    aggregate = result.aggregate()
    print(
        f"chaos sweep: {aggregate['completed']}/{result.repetitions} "
        f"repetition(s) completed "
        f"(intensity {job.spec.chaos_options().intensity})"
    )
    if aggregate["mean_availability"] is not None:
        print(f"mean availability : {aggregate['mean_availability']:.3f}")
    print(
        f"delivered         : {aggregate['delivered']} "
        f"({aggregate['packets_lost']} lost, "
        f"{aggregate['packets_orphaned']} orphaned)"
    )
    print(
        f"fault events      : {aggregate['fault_events']} "
        f"({aggregate['outages_recovered']} recovered)"
    )
    if result.delays is not None:
        print(
            f"ADDC delay        : {result.delays.mean:12.1f} ms "
            f"± {result.delays.std:.1f}"
        )


_RENDERERS = {
    "fig6": _render_fig6,
    "compare": _render_compare,
    "chaos": _render_chaos,
}


def _chaos_smoke_failure(records) -> Optional[str]:
    """Why a chaos record breaks the delivery books, or ``None``."""
    for record in records:
        rep = record["repetition"]
        delivered, lost = record["delivered"], record["packets_lost"]
        if not record["completed"]:
            return f"rep {rep} did not complete"
        if delivered + lost != record["num_packets"]:
            return (
                f"rep {rep}: delivered + lost != expected "
                f"({delivered} + {lost} != {record['num_packets']})"
            )
        if record["packets_orphaned"] > lost:
            return f"rep {rep}: more orphans than losses"
        if not 0.0 <= record["availability"] <= 1.0:
            return f"rep {rep}: availability outside [0, 1]"
    return None


def _cmd_job(args: argparse.Namespace) -> int:
    """``fig6`` / ``compare`` / ``chaos``: run the job, render, save."""
    from repro import obs
    from repro.service.jobs import run_job, save_job_artifact

    spec = _job_spec(args)
    recorder = obs.MetricsRecorder()
    start = obs.monotonic_s()
    with obs.use_recorder(recorder):
        job = run_job(
            spec,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            workers=args.workers,
            policy=_retry_policy_from(args),
        )
    wall_time_s = obs.monotonic_s() - start
    _RENDERERS[spec.kind](job)
    for record in job.failures:
        print(
            f"quarantined: point {record['point']} rep {record['rep']} "
            f"({record['kind']} after {record['attempts']} attempts)",
            file=sys.stderr,
        )
    if not job.complete and not args.allow_partial:
        print(
            f"PARTIAL: {spec.sweep_name()} lost repetitions; re-run with "
            "--resume to retry them, or pass --allow-partial to save the "
            "survivors",
            file=sys.stderr,
        )
        return 1
    if getattr(args, "smoke", False):
        # CI sanity run: the delivery books must balance exactly.
        failure = _chaos_smoke_failure(job.chaos.records)
        if failure is not None:
            print(f"SMOKE FAIL: {failure}", file=sys.stderr)
            return 1
        print("chaos smoke OK")
    save = getattr(args, "save", None)
    if save:
        # The manifest execute_job writes, minus the trace: two CLI runs
        # saving into one directory must not share a trace/ shard dir.
        manifest = obs.build_manifest(
            seed=spec.seed,
            config=spec.config(),
            wall_time_s=wall_time_s,
            recorder=recorder,
            extra=job.manifest_extra(args.workers),
        )
        save_job_artifact(job, save, manifest=manifest)
        print(f"saved to {save}")
    return 0


def _cmd_chaos_gate(args: argparse.Namespace) -> int:
    """Run the resilience scenario grid, contracts, and the ratchet."""
    import tempfile
    from pathlib import Path

    from repro.chaos import (
        diff_against_baseline,
        run_gate,
        write_gate_baseline,
    )
    from repro.chaos.gate import render_gate

    def progress(name: str) -> None:
        print(f"chaos gate: running {name} scenario ...", flush=True)

    with tempfile.TemporaryDirectory(prefix="chaos-gate-") as scratch:
        workdir = Path(args.workdir) if args.workdir else Path(scratch)
        report = run_gate(
            workdir,
            seed=args.seed,
            smoke=args.smoke,
            include_service=not args.no_service,
            synthetic_violation=args.synthetic_violation,
            progress=progress,
        )
        if args.update_baseline:
            write_gate_baseline(args.baseline, report)
            print(render_gate(report, None))
            print(f"baseline written to {args.baseline}")
            return 0 if not report.contract_failures else 1
        if Path(args.baseline).exists():
            diff_against_baseline(report, args.baseline, args.fail_on_regression)
        elif args.fail_on_regression is not None:
            print(
                f"ERROR: baseline {args.baseline} does not exist; "
                "generate it with `chaos gate --update-baseline`",
                file=sys.stderr,
            )
            return 1
        if args.out:
            write_gate_baseline(args.out, report)
        print(render_gate(report, args.fail_on_regression))
    return 0 if report.passed else 1


def _result_fingerprint(result) -> tuple:
    """The outcome fields two identical runs must agree on exactly."""
    return (
        result.completed,
        result.slots_simulated,
        result.delivered,
        result.delay_slots,
        result.collisions,
        result.total_transmissions,
        result.packets_lost,
    )


def _obs_smoke(args: argparse.Namespace) -> int:
    """CI sanity: instrumentation collects data and changes nothing."""
    import json
    import tempfile
    from pathlib import Path

    from repro import obs

    config = _config_from(args).with_overrides(repetitions=1)
    baseline = _collect(config, "cli-obs-smoke", with_bounds=False)

    recorder = obs.MetricsRecorder()
    start = obs.monotonic_s()
    with obs.use_recorder(recorder):
        instrumented = _collect(config, "cli-obs-smoke", with_bounds=False)
    wall_time_s = obs.monotonic_s() - start

    if _result_fingerprint(instrumented.result) != _result_fingerprint(
        baseline.result
    ):
        print(
            "SMOKE FAIL: instrumented run diverged from baseline "
            f"({_result_fingerprint(instrumented.result)} != "
            f"{_result_fingerprint(baseline.result)})",
            file=sys.stderr,
        )
        return 1
    profile = recorder.profile()
    if "engine.slot" not in profile or "engine.run" not in profile:
        print(
            f"SMOKE FAIL: profile is missing engine spans ({sorted(profile)})",
            file=sys.stderr,
        )
        return 1
    if recorder.counters.get("engine.runs") != 1:
        print(
            "SMOKE FAIL: expected engine.runs == 1, got "
            f"{recorder.counters.get('engine.runs')}",
            file=sys.stderr,
        )
        return 1

    manifest = obs.build_manifest(
        seed=config.seed,
        config=config,
        wall_time_s=wall_time_s,
        recorder=recorder,
    )
    path = Path(tempfile.mkdtemp()) / "smoke.manifest.json"
    obs.write_manifest(path, manifest)
    loaded = obs.load_manifest(path)
    if not loaded.profile or loaded.config_hash != manifest.config_hash:
        print(
            "SMOKE FAIL: manifest did not round-trip through " f"{path}",
            file=sys.stderr,
        )
        return 1
    if args.json:
        print(json.dumps(loaded.to_dict(), indent=2, sort_keys=True))
    else:
        print(obs.render_report(loaded))
    print("obs smoke OK")
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    import json

    from repro import obs

    if args.smoke:
        return _obs_smoke(args)
    if args.manifest is None:
        print(
            "obs report needs a manifest path (or --smoke)", file=sys.stderr
        )
        return 2
    manifest = obs.load_manifest(args.manifest)
    if args.json:
        print(json.dumps(manifest.to_dict(), indent=2, sort_keys=True))
    else:
        print(obs.render_report(manifest))
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from repro import obs

    config = _config_from(args)
    with obs.NdjsonTraceWriter(args.out) as writer:
        outcome = _collect(
            config, "cli-trace", trace=writer, with_bounds=False
        )
    print(f"wrote {writer.events_written} events to {args.out}")
    return 0 if outcome.result.completed else 1


def _cmd_trace_stats(args: argparse.Namespace) -> int:
    import json

    from repro import obs

    stats = obs.trace_stats(args.path, top=args.top)
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"schema:  {stats['schema']}")
    if stats["schema"] == "trace/v2":
        print(f"trace:   {stats['trace_id']}")
        print(f"spans:   {stats['spans']} ({stats['dropped']} dropped)")
        names = stats["names"]
        if names:
            width = max(len(name) for name in names)
            for name in sorted(names):
                row = names[name]
                print(
                    f"  {name:<{width}}  n={row['spans']:<5d} "
                    f"total={row['total_ms']:10.3f} ms  "
                    f"p50={row['p50_ms']:.3f}  p95={row['p95_ms']:.3f}  "
                    f"p99={row['p99_ms']:.3f}"
                )
        for entry in stats.get("slowest", ()):
            print(
                f"  slow  {entry['span_id']}  ({entry['name']})  "
                f"{entry['total_ms']:.3f} ms"
            )
        return 0
    print(f"events:  {stats['events']} ({stats['dropped']} dropped)")
    print(f"slots:   {stats['first_slot']} .. {stats['last_slot']}")
    print(f"nodes:   {stats['nodes']}")
    for kind, count in stats["kinds"].items():
        print(f"  {kind:>14}: {count}")
    return 0


def _cmd_trace_tree(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.tracing import load_spans, render_tree

    path = Path(args.job)
    if not path.exists():
        candidate = Path(args.state_dir) / "jobs" / args.job / "trace.ndjson"
        if candidate.exists():
            path = candidate
        else:
            print(
                f"no trace file at {path} and no job trace at {candidate} "
                "(pass a trace/v2 path or a job fingerprint + --state-dir)",
                file=sys.stderr,
            )
            return 2
    header, spans = load_spans(path)
    print(render_tree(header.get("trace_id", ""), spans))
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro import obs

    if args.socket is not None:
        from repro.service.client import ServiceClient

        report = ServiceClient(args.socket).stats()
        if report.get("type") != "stats_report":
            print(
                f"unexpected response type {report.get('type')!r} "
                "(expected 'stats_report')",
                file=sys.stderr,
            )
            return 1
        summary = report.get("service") or {}
        gauge_names = ("queue_depth", "inflight", "capacity")
        metrics = {
            "counters": {
                f"service.{name}": value
                for name, value in summary.items()
                if name not in gauge_names and isinstance(value, (int, float))
            },
            "gauges": {
                f"service.{name}": summary.get(name, 0) for name in gauge_names
            },
        }
        metrics["gauges"]["service.quarantined"] = report.get("quarantined", 0)
        profile = report.get("phases") or {}
    else:
        if args.manifest is None:
            print(
                "obs export needs a manifest path (or --socket for a live "
                "daemon)",
                file=sys.stderr,
            )
            return 2
        record = obs.load_manifest(args.manifest).to_dict()
        metrics = record.get("metrics") or {}
        profile = record.get("profile") or {}
    text = obs.render_prometheus(metrics, profile)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    import json

    from repro import obs
    from repro.obs.diff import load_manifest_dict

    rows = obs.diff_manifests(
        load_manifest_dict(args.old),
        load_manifest_dict(args.new),
        tolerance_pct=args.fail_on_regression,
    )
    if args.json:
        print(
            json.dumps(
                [row.to_dict() for row in rows], indent=2, sort_keys=True
            )
        )
    else:
        print(obs.render_diff(rows, args.fail_on_regression))
    return 1 if any(row.regression for row in rows) else 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    print(render_fig4_table(figure4_rows()))
    return 0


def _cmd_checkpoint_inspect(args: argparse.Namespace) -> int:
    import json

    from repro.harness import inspect_checkpoint

    print(json.dumps(inspect_checkpoint(args.path), indent=2, sort_keys=True))
    return 0


def _cmd_checkpoint_verify(args: argparse.Namespace) -> int:
    from repro.harness import verify_checkpoint

    problems = verify_checkpoint(args.path, config_hash=args.config_hash)
    if not problems:
        print(f"{args.path}: OK")
        return 0
    for problem in problems:
        print(f"{args.path}: {problem}", file=sys.stderr)
    return 1


def _cmd_checkpoint_smoke(args: argparse.Namespace) -> int:
    """CI resume smoke: run, tear the journal mid-record, resume, compare.

    Simulates the exact on-disk state a ``SIGKILL`` leaves behind — a
    journal cut mid-line — then asserts the resumed sweep's saved artifact
    is byte-identical to the uninterrupted run's.  (The real signal-driven
    kill tests live in ``tests/test_harness.py``; this check is the fast,
    deterministic CI variant.)
    """
    import tempfile
    from pathlib import Path

    from repro import obs
    from repro.harness import verify_checkpoint
    from repro.service.jobs import JobSpec, run_job, save_job_artifact

    spec = JobSpec(
        kind="fig6",
        subfigure="c",
        values=FIG6_SWEEPS["fig6c"].values[:2],
        seed=20120612,
        repetitions=2,
        overrides={
            "area": 30.0 * 30.0,
            "num_pus": 4,
            "num_sus": 20,
            "max_slots": 200_000,
        },
    )
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        full_journal = base / "full.checkpoint.ndjson"
        kill_journal = base / "kill.checkpoint.ndjson"
        full = run_job(spec, checkpoint_path=full_journal, workers=args.workers)
        save_job_artifact(full, base / "full.json")
        run_job(spec, checkpoint_path=kill_journal, workers=args.workers)
        # Tear the journal the way SIGKILL does: keep the header plus one
        # whole record, then cut the next record mid-line.
        lines = kill_journal.read_bytes().split(b"\n")
        if len(lines) < 4:
            print("SMOKE FAIL: journal too short to tear", file=sys.stderr)
            return 1
        kill_journal.write_bytes(
            b"\n".join(lines[:2]) + b"\n" + lines[2][: len(lines[2]) // 2]
        )
        recorder = obs.MetricsRecorder()
        with obs.use_recorder(recorder):
            resumed = run_job(
                spec,
                checkpoint_path=kill_journal,
                resume=True,
                workers=args.workers,
            )
        save_job_artifact(resumed, base / "resumed.json")
        if resumed.cached_items != 1:
            print(
                "SMOKE FAIL: expected 1 cached item after the tear, got "
                f"{resumed.cached_items}",
                file=sys.stderr,
            )
            return 1
        if recorder.counters.get("harness.checkpoint.torn_tail") != 1:
            print(
                "SMOKE FAIL: torn tail was not detected "
                f"({recorder.counters})",
                file=sys.stderr,
            )
            return 1
        full_bytes = (base / "full.json").read_bytes()
        resumed_bytes = (base / "resumed.json").read_bytes()
        if full_bytes != resumed_bytes:
            print(
                "SMOKE FAIL: resumed artifact differs from uninterrupted run",
                file=sys.stderr,
            )
            return 1
        problems = verify_checkpoint(kill_journal)
        if problems:
            print(
                f"SMOKE FAIL: resumed journal fails verify: {problems}",
                file=sys.stderr,
            )
            return 1
    print("checkpoint smoke OK")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.experiments.scenarios import get_scenario, list_scenarios

    if args.name is None:
        print("available scenarios:")
        for name in list_scenarios():
            print(f"  {name:>18}: {get_scenario(name).summary}")
        return 0

    scenario = get_scenario(args.name)
    print(f"scenario: {scenario.name} — {scenario.summary}")
    # Derived from the validated scenario id, which the run manifest
    # records; each scenario gets a distinct lineage.
    outcome = _collect(
        scenario.config,
        f"scenario-{scenario.name}",
        activity=scenario.make_activity(),
        num_channels=scenario.num_channels,
    )
    print(outcome.result.summary())
    print(
        f"transmissions: {outcome.result.total_transmissions} "
        f"({outcome.result.collisions} collisions)"
    )
    return 0 if outcome.result.completed else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report_all import generate_report

    config = _config_from(args)
    sweeps = args.sweeps.split(",") if args.sweeps else None
    document = generate_report(config, sweeps=sweeps, output_path=args.out)
    if args.out:
        print(f"report written to {args.out}")
    else:
        print(document)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the experiment daemon until SIGTERM/SIGINT (graceful drain)."""
    from repro import obs
    from repro.service import ExperimentService
    from repro.service.server import ServiceServer

    with obs.use_recorder(obs.MetricsRecorder()):
        service = ExperimentService(
            args.state_dir,
            queue_capacity=args.queue_capacity,
            workers=args.workers,
            policy=_retry_policy_from(args),
        )
        server = ServiceServer(service, args.socket, heartbeat_s=args.heartbeat)
        server.install_signal_handlers()
        if service.recovered_jobs:
            print(
                f"recovered {service.recovered_jobs} unfinished job(s) "
                "from the state directory"
            )
        print(
            f"service listening on {args.socket} "
            f"(state: {args.state_dir}, queue capacity: "
            f"{args.queue_capacity})"
        )
        sys.stdout.flush()
        summary = server.serve_forever()
    print(f"drained: {summary['counters']}")
    return 0


def _cmd_service_submit(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import ServiceClient

    def on_event(event):
        kind = event.get("type")
        if kind == "progress":
            print(
                f"progress: {event.get('done')}/{event.get('total')}",
                file=sys.stderr,
            )
        elif kind == "heartbeat":
            print(
                f"heartbeat: depth={event.get('queue_depth')} "
                f"inflight={event.get('inflight')} "
                f"cache={event.get('cache_hits', 0)}/"
                f"{event.get('cache_misses', 0)} hit/miss",
                file=sys.stderr,
            )

    spec = _job_spec(args)
    response = ServiceClient(args.socket).submit(
        spec, stream=args.stream, on_event=on_event if args.stream else None
    )
    print(json.dumps(response, indent=2, sort_keys=True))
    kind = response.get("type")
    if kind == "retry_after":
        # EX_TEMPFAIL: the queue is full, come back later.
        return 75
    return 0 if kind in ("accepted", "cache_hit", "completed") else 1


#: ``service`` verbs that send one request and print the JSON answer:
#: verb (= the ServiceClient method) -> (help, positional arguments).
_SERVICE_VERBS = {
    "status": ("queue depth, in-flight job, and service counters", ()),
    "ping": ("liveness check", ()),
    "shutdown": ("ask the daemon to drain and exit", ()),
    "result": ("fetch a job's result by fingerprint", ("fingerprint",)),
}


def _cmd_service_verb(args: argparse.Namespace) -> int:
    """status / result / ping / shutdown — one request, JSON out."""
    import json

    from repro.service.client import ServiceClient

    request = getattr(ServiceClient(args.socket), args.service_command)
    _, positionals = _SERVICE_VERBS[args.service_command]
    response = request(*(getattr(args, name) for name in positionals))
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("type") not in ("error", "failed") else 1


def _render_service_top(report: dict) -> str:
    """The ``service top`` text view of one ``stats_report`` payload."""
    summary = report.get("service") or {}
    lines = [
        "queue    depth={queue_depth} inflight={inflight} "
        "capacity={capacity}".format(
            queue_depth=summary.get("queue_depth", 0),
            inflight=summary.get("inflight", 0),
            capacity=summary.get("capacity", 0),
        ),
        "cache    hits={cache_hits} misses={cache_misses}".format(
            cache_hits=summary.get("cache_hits", 0),
            cache_misses=summary.get("cache_misses", 0),
        ),
        "jobs     admitted={jobs_admitted} completed={jobs_completed} "
        "failed={jobs_failed} shed={jobs_shed} quarantined={q}".format(
            jobs_admitted=summary.get("jobs_admitted", 0),
            jobs_completed=summary.get("jobs_completed", 0),
            jobs_failed=summary.get("jobs_failed", 0),
            jobs_shed=summary.get("jobs_shed", 0),
            q=report.get("quarantined", 0),
        ),
    ]
    phases = report.get("phases") or {}
    if phases:
        lines.append("phases")
        width = max(len(name) for name in phases)
        for name in sorted(phases):
            stats = phases[name]
            lines.append(
                f"  {name:<{width}}  calls={stats.get('count', 0):<8} "
                f"total={stats.get('total_ms', 0.0):10.1f} ms  "
                f"mean={stats.get('mean_ms', 0.0):.4f} ms"
            )
    else:
        lines.append("phases   (no spans recorded yet)")
    return "\n".join(lines)


def _cmd_service_top(args: argparse.Namespace) -> int:
    """Live daemon telemetry: single-shot JSON or a refreshing text view."""
    import json

    from repro.obs.clock import sleep_s
    from repro.service.client import ServiceClient

    client = ServiceClient(args.socket)
    for iteration in range(max(1, args.count)):
        if iteration:
            sleep_s(args.interval)
            print()
        report = client.stats()
        if report.get("type") != "stats_report":
            print(
                f"unexpected response type {report.get('type')!r} "
                "(expected 'stats_report')",
                file=sys.stderr,
            )
            return 1
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(_render_service_top(report))
        sys.stdout.flush()
    return 0


def _cmd_service_smoke(args: argparse.Namespace) -> int:
    """CI end-to-end daemon check: backpressure, SIGKILL recovery, cache.

    Starts a real daemon subprocess with a capacity-1 queue, then
    asserts the three service guarantees in order: a full queue answers
    ``retry_after`` (never blocks), a SIGKILL'd daemon resumes its
    backlog on restart and produces artifacts byte-identical to an
    uninterrupted in-process run (RNG stream positions included), and a
    repeat submission is served from the cache without admitting a job.
    """
    import json
    import signal as _signal
    import tempfile
    from pathlib import Path

    from repro.experiments.runner import run_comparison_repetition
    from repro.harness import load_checkpoint
    from repro.obs.clock import sleep_s
    from repro.service.client import ServiceClient, spawn_daemon
    from repro.service.jobs import JobSpec, run_job, save_job_artifact

    tiny = {"area": 900.0, "num_pus": 4, "num_sus": 20, "max_slots": 200_000}
    job_a = JobSpec(kind="compare", seed=20120612, repetitions=3, overrides=tiny)
    job_b = JobSpec(kind="compare", seed=7, repetitions=1, overrides=tiny)
    job_c = JobSpec(kind="compare", seed=8, repetitions=1, overrides=tiny)
    fp_a = job_a.fingerprint()
    fp_b = job_b.fingerprint()

    def fail(message: str) -> int:
        print(f"SMOKE FAIL: {message}", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        state = base / "state"
        sock = base / "service.sock"
        reference = base / "reference.json"
        # The uninterrupted in-process reference the daemon must match.
        save_job_artifact(run_job(job_a), reference)
        client = ServiceClient(sock, timeout_s=60.0)

        with spawn_daemon(sock, state, queue_capacity=1) as daemon:
            if not client.wait_for_ping():
                return fail("daemon never answered ping")
            first = client.submit(job_a)
            if first.get("type") != "accepted":
                return fail(f"submit A answered {first.get('type')!r}")
            # Wait for A to go in-flight so B takes the only queue slot.
            for _ in range(200):
                if client.status().get("inflight") == 1:
                    break
                sleep_s(0.05)
            else:
                return fail("job A never started")
            second = client.submit(job_b)
            if second.get("type") != "accepted":
                return fail(f"submit B answered {second.get('type')!r}")
            third = client.submit(job_c)
            if third.get("type") != "retry_after":
                return fail(
                    "expected typed backpressure for a full queue, got "
                    f"{third.get('type')!r}"
                )
            if not third.get("retry_after_s", 0) > 0:
                return fail("retry_after carried no backoff hint")
            # SIGKILL once job A has >= 1 durable repetition journalled.
            journal = state / "jobs" / fp_a / "checkpoint.ndjson"
            for _ in range(600):
                if (
                    journal.exists()
                    and len(journal.read_bytes().split(b"\n")) >= 3
                ):
                    break
                sleep_s(0.05)
            else:
                return fail("job A journalled nothing to kill over")
            daemon.send_signal(_signal.SIGKILL)
            daemon.wait(timeout=30)

        interrupted = not (state / "cache" / f"{fp_a}.json").exists()

        with spawn_daemon(sock, state, queue_capacity=1) as daemon:
            if not client.wait_for_ping():
                return fail("restarted daemon never answered ping")
            if interrupted and client.status().get("jobs_recovered", 0) < 1:
                return fail("restart recovered no jobs")
            final_a = client.wait_for_result(fp_a)
            final_b = client.wait_for_result(fp_b)
            for label, final in (("A", final_a), ("B", final_b)):
                if (
                    final.get("type") != "completed"
                    or final.get("status") != "complete"
                ):
                    return fail(
                        f"job {label} ended {final.get('type')!r} "
                        f"({final.get('status')!r})"
                    )
            artifact = (state / "cache" / f"{fp_a}.json").read_bytes()
            if artifact != reference.read_bytes():
                return fail(
                    "recovered artifact differs from the uninterrupted "
                    "reference run"
                )
            # RNG stream positions: the recovered journal must agree with
            # a fresh in-process run, repetition by repetition.
            entries = load_checkpoint(journal).entries
            config_a = job_a.config()
            for rep in range(config_a.repetitions):
                expected = run_comparison_repetition(config_a, rep)
                got = entries[(0, rep)].measurement.rng_positions
                if got != expected.rng_positions:
                    return fail(f"repetition {rep} RNG positions diverged")
            before = client.status()
            hit = client.submit(job_a)
            if hit.get("type") != "cache_hit":
                return fail(
                    f"resubmission answered {hit.get('type')!r}, "
                    "expected cache_hit"
                )
            if not hit.get("provenance", {}).get("fingerprint") == fp_a:
                return fail("cache hit carried no provenance record")
            after = client.status()
            if after.get("jobs_admitted") != before.get("jobs_admitted"):
                return fail("cache hit still admitted a job (compute leak)")
            if after.get("cache_hits", 0) < 1:
                return fail("cache_hits counter did not move")
            if not interrupted:
                print(
                    "note: job A completed before the SIGKILL landed; "
                    "identity checks still cover the journal"
                )
            if client.shutdown().get("type") != "draining":
                return fail("shutdown was not acknowledged with draining")
            daemon.wait(timeout=120)

        snapshot_path = state / "service-state.json"
        if not snapshot_path.exists():
            return fail("drain left no service-state snapshot")
        snapshot = json.loads(snapshot_path.read_text())
        if snapshot.get("schema") != "service-state/v1":
            return fail(f"snapshot schema is {snapshot.get('schema')!r}")
        if not (state / "service-state.manifest.json").exists():
            return fail("drain left no manifest next to the snapshot")
    print("service smoke OK")
    return 0


def _add_scale_options(
    parser: argparse.ArgumentParser, repetitions: bool = False
) -> None:
    """The scenario flags; ``--repetitions`` only where a command reads it."""
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="quick",
        help="scenario size (density-preserving); default: quick",
    )
    parser.add_argument("--seed", type=int, default=2012, help="root RNG seed")
    if repetitions:
        parser.add_argument(
            "--repetitions", type=int, default=None, help="override repetitions"
        )
    parser.add_argument(
        "--blocking",
        choices=("homogeneous", "geometric"),
        default="homogeneous",
        help="PU blocking model (paper's analysis regime: homogeneous)",
    )
    parser.add_argument("--p-t", type=float, default=None, help="override p_t")


def _add_workers(parser: argparse.ArgumentParser, default: int = 1) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=default,
        help=f"worker processes (default: {default}; 1 = serial; results "
        "are identical for any value)",
    )


def _add_retry_options(parser: argparse.ArgumentParser) -> None:
    """The supervisor's retry flags (job commands and ``serve``)."""
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-repetition deadline; a worker exceeding it is "
        "terminated and the item retried (pool mode only)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retries per item before quarantine (default: 2; backoff "
        "is deterministic exponential)",
    )


def _add_chaos_options(parser: argparse.ArgumentParser) -> None:
    """The fault-cocktail flags (``chaos`` and ``service submit chaos``)."""
    parser.add_argument(
        "--intensity",
        type=float,
        default=0.2,
        help="expected fraction of SUs hit by a transient outage",
    )
    parser.add_argument(
        "--horizon-slots",
        type=int,
        default=2000,
        help="slots over which fault onsets are scheduled",
    )
    parser.add_argument(
        "--mean-downtime",
        type=float,
        default=200.0,
        help="mean outage duration in slots",
    )
    parser.add_argument(
        "--keep-queues",
        action="store_true",
        help="downed nodes keep their queued packets (default: dropped)",
    )
    parser.add_argument(
        "--blackout",
        action="store_true",
        help="add one base-station blackout window mid-run",
    )


def _add_socket(
    parser: argparse.ArgumentParser,
    default: Optional[str] = _SOCKET,
    help: str = "daemon AF_UNIX socket path (default: %(default)s)",
) -> None:
    parser.add_argument("--socket", default=default, help=help)


def _add_job_parser(commands, kind: str, help: str, save: bool = True):
    """A ``fig6``/``compare``/``chaos`` parser: one job through run_job."""
    parser = commands.add_parser(kind, help=help)
    _add_scale_options(parser, repetitions=True)
    _add_workers(parser)
    _add_retry_options(parser)
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="journal every completed repetition to this checkpoint/v1 "
        "file (durable across kills; see docs/ROBUSTNESS.md)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay a compatible existing --checkpoint journal and run "
        "only the missing items (results are byte-identical to an "
        "uninterrupted run)",
    )
    parser.add_argument(
        "--allow-partial",
        action="store_true",
        help="accept a sweep with quarantined items (saved artifacts are "
        "marked status: partial)",
    )
    if save:
        parser.add_argument(
            "--save", default=None, help="write the result to a JSON file"
        )
    parser.set_defaults(handler=_cmd_job, kind=kind)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    pcr = commands.add_parser("pcr", help="evaluate the PCR (Eq. 16)")
    pcr.add_argument("--alpha", type=float, default=4.0)
    pcr.add_argument("--pu-power", type=float, default=10.0)
    pcr.add_argument("--su-power", type=float, default=10.0)
    pcr.add_argument("--pu-radius", type=float, default=12.0)
    pcr.add_argument("--su-radius", type=float, default=10.0)
    pcr.add_argument("--eta-p-db", type=float, default=10.0)
    pcr.add_argument("--eta-s-db", type=float, default=10.0)
    pcr.add_argument(
        "--zeta-bound", choices=("paper", "safe", "exact"), default="paper"
    )
    pcr.set_defaults(handler=_cmd_pcr)

    bounds = commands.add_parser("bounds", help="analytic delay/capacity bounds")
    _add_scale_options(bounds)
    bounds.set_defaults(handler=_cmd_bounds)

    collect = commands.add_parser("collect", help="run one ADDC collection")
    _add_scale_options(collect)
    collect.add_argument("--no-fairness", action="store_true")
    collect.add_argument("--bfs-tree", action="store_true")
    collect.add_argument("--p-false-alarm", type=float, default=0.0)
    collect.add_argument("--p-missed-detection", type=float, default=0.0)
    collect.add_argument(
        "--num-channels",
        type=int,
        default=1,
        help="licensed channels (1 = the paper's model)",
    )
    collect.add_argument(
        "--rounds", type=int, default=1, help="snapshot rounds (continuous mode)"
    )
    collect.add_argument(
        "--period-slots",
        type=int,
        default=None,
        help="slots between snapshot rounds",
    )
    collect.set_defaults(handler=_cmd_collect)

    _add_job_parser(commands, "compare", "ADDC vs Coolest", save=False)

    chaos = _add_job_parser(
        commands, "chaos", "ADDC over repeated deployments under faults"
    )
    _add_chaos_options(chaos)
    chaos.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI mode: one repetition plus accounting checks",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command")
    gate = chaos_sub.add_parser(
        "gate",
        help="run the resilience scenario grid, contracts, and ratchet",
    )
    gate.add_argument(
        "--seed",
        type=int,
        default=20120612,
        help="grid seed (the committed baseline pins the default)",
    )
    gate.add_argument(
        "--smoke",
        action="store_true",
        help="CI grid: smaller degradation horizon, no hang injection",
    )
    gate.add_argument(
        "--no-service",
        action="store_true",
        help="skip the daemon/proxy scenario (no subprocesses spawned; "
        "the service contracts then FAIL for missing evidence)",
    )
    gate.add_argument(
        "--baseline",
        default="BENCH_resilience.json",
        help="committed baseline manifest to ratchet against",
    )
    gate.add_argument(
        "--out",
        default=None,
        help="also write this run's manifest to a file",
    )
    gate.add_argument(
        "--fail-on-regression",
        type=float,
        default=None,
        metavar="PCT",
        help="fail when a gated resilience figure moves more than PCT%% "
        "the wrong way vs the baseline",
    )
    gate.add_argument(
        "--update-baseline",
        action="store_true",
        help="write this run's manifest to --baseline instead of diffing",
    )
    gate.add_argument(
        "--workdir",
        default=None,
        help="scenario scratch directory (default: a temp dir)",
    )
    gate.add_argument(
        "--synthetic-violation",
        action="store_true",
        help="poison one contract so the gate must exit 1 (the CI canary "
        "proving the gate can fail)",
    )
    gate.set_defaults(handler=_cmd_chaos_gate)

    fig4 = commands.add_parser("fig4", help="regenerate Figure 4")
    fig4.set_defaults(handler=_cmd_fig4)

    fig6 = _add_job_parser(commands, "fig6", "regenerate a Figure 6 sub-figure")
    fig6.add_argument("subfigure", choices=list("abcdef"))

    scenario = commands.add_parser(
        "scenario", help="list or run a named scenario preset"
    )
    scenario.add_argument("name", nargs="?", default=None)
    scenario.set_defaults(handler=_cmd_scenario)

    report = commands.add_parser(
        "report", help="regenerate the full evaluation record (slow)"
    )
    _add_scale_options(report, repetitions=True)
    report.add_argument("--out", default=None, help="write Markdown here")
    report.add_argument(
        "--sweeps",
        default=None,
        help="comma-separated sub-figures, e.g. fig6c,fig6d (default: all)",
    )
    report.set_defaults(handler=_cmd_report)

    obs_parser = commands.add_parser(
        "obs", help="observability: manifests, profiles, exports"
    )
    obs_commands = obs_parser.add_subparsers(dest="obs_command", required=True)

    obs_report = obs_commands.add_parser(
        "report", help="render a run manifest (or --smoke self-check)"
    )
    obs_report.add_argument(
        "manifest", nargs="?", default=None, help="path to a *.manifest.json"
    )
    obs_report.add_argument(
        "--json", action="store_true", help="emit the manifest as JSON"
    )
    obs_report.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: instrumented run, determinism check, manifest round-trip",
    )
    _add_scale_options(obs_report)
    obs_report.set_defaults(handler=_cmd_obs_report)

    obs_export = obs_commands.add_parser(
        "export",
        help="export a manifest (or live daemon stats) as Prometheus text",
    )
    obs_export.add_argument(
        "manifest", nargs="?", default=None, help="path to a *.manifest.json"
    )
    _add_socket(
        obs_export,
        default=None,
        help="export a live daemon's stats instead of a manifest file",
    )
    obs_export.add_argument(
        "--out", default=None, help="write to a file instead of stdout"
    )
    obs_export.set_defaults(handler=_cmd_obs_export)

    obs_diff = obs_commands.add_parser(
        "diff",
        help="compare two manifests' figures (the chaos gate's ratchet)",
    )
    obs_diff.add_argument(
        "old", help="baseline manifest (e.g. BENCH_resilience.json)"
    )
    obs_diff.add_argument("new", help="fresh manifest to compare")
    obs_diff.add_argument(
        "--fail-on-regression",
        type=float,
        default=None,
        metavar="PCT",
        help="exit nonzero when a gated figure moved the wrong way by "
        "more than PCT%%",
    )
    obs_diff.add_argument(
        "--json", action="store_true", help="emit the rows as JSON"
    )
    obs_diff.set_defaults(handler=_cmd_obs_diff)

    trace_parser = commands.add_parser(
        "trace", help="NDJSON trace export and inspection (trace/v1)"
    )
    trace_commands = trace_parser.add_subparsers(
        dest="trace_command", required=True
    )

    trace_export = trace_commands.add_parser(
        "export", help="run one collection, streaming its trace to disk"
    )
    trace_export.add_argument(
        "--out", required=True, help="output NDJSON path"
    )
    _add_scale_options(trace_export)
    trace_export.set_defaults(handler=_cmd_trace_export)

    trace_stats = trace_commands.add_parser(
        "stats", help="summarize a trace NDJSON file (trace/v1 or trace/v2)"
    )
    trace_stats.add_argument("path", help="path to a trace NDJSON file")
    trace_stats.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    trace_stats.add_argument(
        "--top",
        type=int,
        default=0,
        metavar="N",
        help="also list the N slowest individual spans (trace/v2 only)",
    )
    trace_stats.set_defaults(handler=_cmd_trace_stats)

    trace_tree = trace_commands.add_parser(
        "tree", help="render a job's merged trace/v2 file as a span tree"
    )
    trace_tree.add_argument(
        "job", help="path to a trace/v2 file, or a job fingerprint"
    )
    trace_tree.add_argument(
        "--state-dir",
        default=".addc-service",
        help="daemon state directory for fingerprint lookup "
        "(default: .addc-service)",
    )
    trace_tree.set_defaults(handler=_cmd_trace_tree)

    checkpoint_parser = commands.add_parser(
        "checkpoint",
        help="crash-safe checkpoint journals (checkpoint/v1)",
    )
    checkpoint_commands = checkpoint_parser.add_subparsers(
        dest="checkpoint_command", required=True
    )

    checkpoint_inspect = checkpoint_commands.add_parser(
        "inspect", help="summarize a journal as JSON"
    )
    checkpoint_inspect.add_argument("path", help="path to a checkpoint journal")
    checkpoint_inspect.set_defaults(handler=_cmd_checkpoint_inspect)

    checkpoint_verify = checkpoint_commands.add_parser(
        "verify", help="validate a journal (schema, records, counts)"
    )
    checkpoint_verify.add_argument("path", help="path to a checkpoint journal")
    checkpoint_verify.add_argument(
        "--config-hash",
        default=None,
        help="also require this sweep fingerprint",
    )
    checkpoint_verify.set_defaults(handler=_cmd_checkpoint_verify)

    checkpoint_smoke = checkpoint_commands.add_parser(
        "smoke",
        help="CI mode: run a tiny sweep, tear the journal, resume, "
        "assert byte-identical artifacts",
    )
    _add_workers(checkpoint_smoke, default=2)
    checkpoint_smoke.set_defaults(handler=_cmd_checkpoint_smoke)

    serve = commands.add_parser(
        "serve",
        help="run the fault-tolerant experiment daemon (service/v1)",
    )
    _add_socket(serve)
    serve.add_argument(
        "--state-dir",
        default=".addc-service",
        help="durable state root: job journals, result cache, snapshot",
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=4,
        help="bounded queue size; a full queue answers retry_after",
    )
    _add_workers(serve)
    serve.add_argument(
        "--heartbeat",
        type=float,
        default=5.0,
        help="seconds between heartbeat events to streaming clients",
    )
    _add_retry_options(serve)
    serve.set_defaults(handler=_cmd_serve)

    service_parser = commands.add_parser(
        "service",
        help="talk to a running experiment daemon over its socket",
    )
    service_commands = service_parser.add_subparsers(
        dest="service_command", required=True
    )

    service_submit = service_commands.add_parser(
        "submit", help="submit a job; duplicates are served from cache"
    )
    service_submit.add_argument(
        "kind",
        choices=sorted(("fig6", "compare", "chaos")),
        help="experiment kind",
    )
    service_submit.add_argument(
        "--subfigure",
        choices=list("abcdef"),
        default=None,
        help="Figure 6 sub-figure (required for kind=fig6)",
    )
    _add_scale_options(service_submit, repetitions=True)
    _add_chaos_options(service_submit)
    _add_socket(service_submit)
    service_submit.add_argument(
        "--stream",
        action="store_true",
        help="hold the connection and print progress until the job ends",
    )
    service_submit.set_defaults(handler=_cmd_service_submit)

    for verb, (help_text, positionals) in _SERVICE_VERBS.items():
        verb_parser = service_commands.add_parser(verb, help=help_text)
        for name in positionals:
            verb_parser.add_argument(name)
        _add_socket(verb_parser)
        verb_parser.set_defaults(handler=_cmd_service_verb)

    service_top = service_commands.add_parser(
        "top",
        help="live telemetry: queue, cache, quarantine, per-phase timings",
    )
    _add_socket(service_top)
    service_top.add_argument(
        "--json", action="store_true", help="emit raw stats_report JSON"
    )
    service_top.add_argument(
        "--count",
        type=int,
        default=1,
        help="snapshots to take before exiting (default: 1)",
    )
    service_top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between snapshots (default: 2)",
    )
    service_top.set_defaults(handler=_cmd_service_top)

    service_smoke = service_commands.add_parser(
        "smoke",
        help="CI mode: start a daemon, fill the queue, SIGKILL it "
        "mid-run, restart, assert byte-identical recovery and a "
        "cache hit",
    )
    service_smoke.set_defaults(handler=_cmd_service_smoke)

    lint = commands.add_parser(
        "lint",
        help="run reprolint, the determinism & paper-invariant linter",
    )
    from repro.lint.cli import configure_parser as _configure_lint_parser

    _configure_lint_parser(lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"ERROR [{error.code}]: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
