"""The ``gemstone`` command-line tool.

Mirrors the workflow of the paper's released software::

    gemstone report --core A15 --model gem5-ex5-big      # full evaluation
    gemstone report --checkpoint-dir run/                # crash-safe rerun
    gemstone headline --core A15                         # exec-time errors
    gemstone lmbench --machine gem5-ex5-little           # Fig. 4 sweep
    gemstone power-model --core A15                      # Section V model
    gemstone bp-fix                                      # Section VII swing
    gemstone campaign run --board shared/ --shards 4     # multi-process run
    gemstone campaign worker --board shared/             # join from anywhere
    gemstone lint src tests                              # determinism linter
    gemstone report --trace-out trace/                   # + Perfetto trace
    gemstone trace summary trace/                        # run-health tables

All commands are offline and deterministic; ``--instructions`` trades
fidelity for speed.  ``--log-level INFO`` (optionally ``--log-json``)
surfaces the library's structured diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.core.pipeline import GemStone, GemStoneConfig
from repro.core.report import (
    render_dvfs_figure,
    render_event_ratio_table,
    render_pmc_correlation_figure,
    render_power_energy_figure,
    render_power_model_summary,
    render_workload_characterisation,
    render_workload_mpe_figure,
    text_table,
)
from repro.obs.exporters import (
    CHROME_FILE,
    EVENTS_FILE,
    slowest_spans,
    summarize_spans,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.log import LEVELS, configure_logging
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.machine import machine_by_name
from repro.workloads.microbench import memory_latency_sweep


def _add_common(
    parser: argparse.ArgumentParser, cache_dir: bool = True
) -> None:
    """Options every pipeline subcommand shares.

    ``cache_dir=False`` leaves out ``--cache-dir`` for subcommands whose
    results live elsewhere (a campaign stores them on its board).
    """
    parser.add_argument("--core", choices=("A7", "A15"), default="A15")
    parser.add_argument(
        "--instructions",
        type=int,
        default=60_000,
        help="trace length per workload (lower = faster, coarser)",
    )
    parser.add_argument("--model", default=None, help="gem5 machine name")
    parser.add_argument("--out", default=None, help="write output to a file")
    if cache_dir:
        parser.add_argument(
            "--cache-dir",
            default=None,
            help="directory for on-disk simulation-result caching",
        )
    parser.add_argument(
        "--retries",
        type=int,
        default=3,
        help="attempts per simulation job before it counts as failed "
        "(a failed attempt is replayed at once; 0 means 1)",
    )
    _add_guard_level(parser)
    _add_logging(parser)


def _add_guard_level(parser: argparse.ArgumentParser) -> None:
    """The guardrails over the replay engine."""
    parser.add_argument(
        "--guard-level",
        choices=("off", "sentinel", "paranoid"),
        default="sentinel",
        help="runtime guardrails over the replay engine: sentinel samples "
        "jobs through both engines and falls back to scalar on any "
        "divergence/NaN/corrupt decode; paranoid dual-replays every job",
    )


def _add_logging(parser: argparse.ArgumentParser) -> None:
    """Structured diagnostics on stderr (configured by :func:`main`)."""
    parser.add_argument(
        "--log-level",
        choices=LEVELS,
        default=None,
        help="emit the library's structured diagnostics on stderr",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="log as JSON lines instead of text (implies --log-level "
        "warning when none is given)",
    )


def _gemstone(args: argparse.Namespace) -> GemStone:
    retries = getattr(args, "retries", 3)
    return GemStone(
        GemStoneConfig(
            core=args.core,
            gem5_machine=args.model,
            trace_instructions=args.instructions,
            cache_dir=getattr(args, "cache_dir", None),
            max_attempts=max(1, retries),
            guard_level=getattr(args, "guard_level", "sentinel"),
            checkpoint_dir=getattr(args, "checkpoint_dir", None),
            trace_dir=getattr(args, "trace_out", None),
        )
    )


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {out}")
    else:
        print(text)


def cmd_report(args: argparse.Namespace) -> int:
    """Print or write the full GemStone evaluation report.

    With ``--checkpoint-dir`` every completed phase is checkpointed; a run
    killed by SIGINT/SIGTERM (or a crash) re-run on the same directory
    restores the finished phases and computes the rest, producing a
    byte-identical report.
    """
    gs = _gemstone(args)
    if gs.runstate is not None:
        with gs.runstate.interruptible():
            text = gs.report()
    else:
        text = gs.report()
    if args.trace_out:
        paths = gs.export_trace()
        gs.tracer.close()
        print(f"wrote {paths['chrome']} and {paths['metrics']}", file=sys.stderr)
    _emit(text, args.out)
    return 0


def cmd_headline(args: argparse.Namespace) -> int:
    """Print the execution-time MAPE/MPE table per OPP."""
    gs = _gemstone(args)
    dataset = gs.dataset
    rows = [
        [f"{f / 1e6:.0f} MHz", dataset.time_mape(f), dataset.time_mpe(f)]
        for f in dataset.frequencies
    ]
    rows.append(["ALL", dataset.time_mape(), dataset.time_mpe()])
    _emit(
        text_table(
            ["frequency", "time MAPE %", "time MPE %"],
            rows,
            title=f"{dataset.gem5_model} vs hardware {args.core}",
        ),
        args.out,
    )
    return 0


def cmd_lmbench(args: argparse.Namespace) -> int:
    """Print the Fig. 4 memory-latency sweep for one machine."""
    machine = machine_by_name(args.machine)
    points = memory_latency_sweep(machine, stride_b=args.stride)
    rows = [[f"{p.size_kb} KiB", p.ns_per_access] for p in points]
    _emit(
        text_table(
            ["array size", "ns / access"],
            rows,
            title=f"lat_mem_rd (stride {args.stride}) on {machine.name}",
        ),
        args.out,
    )
    return 0


def cmd_power_model(args: argparse.Namespace) -> int:
    """Build and summarise the Section V power model."""
    gs = _gemstone(args)
    model = gs.build_power_model(restrained=not args.unrestricted)
    lines = [render_power_model_summary(model)]
    if args.equations:
        lines.append("")
        lines.append(model.gem5_equations())
    _emit("\n".join(lines), args.out)
    return 0


def cmd_bp_fix(args: argparse.Namespace) -> int:
    """Compare the pre- and post-BP-fix models (Section VII)."""
    buggy = _gemstone(args)
    fixed = buggy.with_machine("gem5-ex5-big-fixed")
    rows = []
    for label, gs in (("pre-fix", buggy), ("post-fix", fixed)):
        dataset = gs.dataset
        rows.append([label, dataset.gem5_model, dataset.time_mape(), dataset.time_mpe()])
    _emit(
        text_table(
            ["model", "machine", "time MAPE %", "time MPE %"],
            rows,
            title="Section VII: effect of the branch-predictor bug fix",
        ),
        args.out,
    )
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    """Regenerate a single paper figure as text."""
    gs = _gemstone(args)
    renderers = {
        "fig3": lambda: render_workload_mpe_figure(gs.workload_clusters),
        "fig5": lambda: render_pmc_correlation_figure(gs.pmc_correlation),
        "fig6": lambda: render_event_ratio_table(gs.event_comparison),
        "fig7": lambda: render_power_energy_figure(gs.power_energy),
        "fig8": lambda: render_dvfs_figure(gs.dvfs),
        "characterisation": lambda: render_workload_characterisation(
            gs.dataset, gs.config.analysis_freq_hz
        ),
    }
    _emit(renderers[args.figure](), args.out)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """Export datasets as CSV or the fitted power model as JSON."""
    from repro.core.model_io import (
        power_dataset_to_csv,
        save_power_model,
        validation_to_csv,
    )

    gs = _gemstone(args)
    if args.what == "validation-csv":
        _emit(validation_to_csv(gs.dataset).rstrip("\n"), args.out)
    elif args.what == "power-csv":
        _emit(power_dataset_to_csv(gs.power_dataset).rstrip("\n"), args.out)
    else:  # power-model
        if not args.out:
            raise SystemExit("--out FILE required for power-model export")
        save_power_model(gs.power_model, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_runtime_power(args: argparse.Namespace) -> int:
    """Print the per-window run-time power trace of one workload."""
    from repro.core.runtime_power import (
        compile_equations,
        mean_power,
        runtime_power_trace,
        trace_energy,
    )
    from repro.workloads.suites import workload_by_name

    gs = _gemstone(args)
    equations = compile_equations(gs.power_model.gem5_equations())
    profile = workload_by_name(args.workload)
    freq = args.freq_mhz * 1e6
    samples = runtime_power_trace(
        gs.gem5, profile, freq, equations, n_windows=args.windows
    )
    rows = [
        [f"{s.start_seconds:.3f}s", f"{s.duration_seconds:.3f}s", s.power_w]
        for s in samples
    ]
    lines = [
        text_table(
            ["window start", "duration", "power (W)"],
            rows,
            title=(
                f"Run-time power of {profile.name} on {gs.gem5.machine.name} "
                f"@ {args.freq_mhz:.0f} MHz"
            ),
        ),
        f"mean power {mean_power(samples):.3f} W, "
        f"energy {trace_energy(samples):.2f} J",
    ]
    _emit("\n".join(lines), args.out)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Inspect or re-export a ``--trace-out`` directory (run health).

    ``summary`` aggregates spans by name; ``slowest`` lists the longest
    individual spans; ``profile`` attributes replay cycles and seconds
    per columnar pass; ``export`` rebuilds (and schema-validates) the
    Chrome trace-event JSON from the raw event stream.

    The directory may be a plain ``--trace-out`` directory or a campaign
    board: board directories transparently stitch every shard's
    checksummed segments (plus the coordinator's stream, when present)
    into one campaign-wide trace with per-shard tracks.
    """
    from repro.obs.merge import load_trace_records

    try:
        records, names = load_trace_records(args.trace_dir)
    except FileNotFoundError:
        print(f"no trace stream in {args.trace_dir}", file=sys.stderr)
        return 1
    segments = sorted(
        {int(r.get("segment", 0)) for r in records}
    )
    if args.action == "summary":
        rows = [
            [e["name"], e["count"], e["total_ms"], e["mean_ms"], e["max_ms"]]
            for e in summarize_spans(records)
        ]
        _emit(
            text_table(
                ["span", "count", "total ms", "mean ms", "max ms"],
                rows,
                title=(
                    f"{len(records)} trace records across "
                    f"{max(len(segments), 1)} run segment(s)"
                ),
            ),
            args.out,
        )
    elif args.action == "slowest":
        rows = [
            [r["path"], r.get("segment", 0), r.get("status", "ok"),
             float(r["dur_us"]) / 1000.0]
            for r in slowest_spans(records, top=args.top)
        ]
        _emit(
            text_table(
                ["span path", "segment", "status", "ms"],
                rows,
                title=f"slowest {len(rows)} spans",
            ),
            args.out,
        )
    elif args.action == "profile":
        from repro.obs.prof import profile_records

        profile = profile_records(records)
        rows = [
            [
                row["pass"],
                row["calls"],
                row["seconds"] * 1e3,
                row["cycles"],
                f"{row['share']:.1%}",
            ]
            for row in profile["rows"]
        ]
        lines = [
            text_table(
                ["pass", "calls", "total ms", "cycles", "share"],
                rows,
                title=(
                    f"replay profile over {profile['replays']} "
                    "simulation(s)"
                ),
            ),
            (
                f"attributed {profile['attributed_cycles']:.0f} of "
                f"{profile['core_cycles']:.0f} simulated cycles "
                f"(coverage {profile['coverage']:.1%})"
            ),
        ]
        _emit("\n".join(lines), args.out)
    else:  # export
        path = args.out or os.path.join(args.trace_dir, CHROME_FILE)
        n_events = write_chrome_trace(records, path, process_names=names)
        from json import load

        with open(path) as handle:
            validate_chrome_trace(load(handle))
        print(f"wrote {path} ({n_events} events, schema OK)")
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Distributed sharded campaigns over a shared job board.

    ``run`` coordinates: it syncs the board to the configuration
    (incremental — jobs whose content-addressed result is already on the
    board are reused, never re-run), spawns shard workers, steals the
    leases of lost ones, and prints the final report.  ``worker`` joins an
    existing board from any process or host sharing the directory.
    ``status`` prints the board counts and the journal tail;
    ``status --detail`` adds per-shard progress, derived health from the
    merged shard metrics, an ETA from journal completion deltas, and the
    shard-count auto-tune hint.
    """
    from repro.sim.campaign import CampaignBoard, run_campaign, run_worker

    if args.action == "status":
        try:
            board = CampaignBoard.open(args.board)
        except (FileNotFoundError, ValueError) as exc:
            print(f"no campaign board at {args.board}: {exc}", file=sys.stderr)
            return 1
        status = board.status()
        lines = [
            text_table(
                ["state", "jobs"],
                [[state, n] for state, n in status.items()],
                title=f"campaign board {args.board}",
            )
        ]
        journal = board.read_journal()
        if args.detail:
            lines.append("")
            lines.extend(_campaign_detail(args.board, status, journal))
        tail = journal[-args.tail :]
        if tail:
            lines.append("")
            lines.append(
                text_table(
                    ["seq", "event", "key", "owner"],
                    [
                        [r["seq"], r["event"], str(r.get("key", ""))[:12],
                         r.get("owner", "")]
                        for r in tail
                    ],
                    title=f"journal tail ({len(tail)} records)",
                )
            )
        _emit("\n".join(lines), args.out)
        return 0

    if args.action == "worker":
        try:
            report = run_worker(
                args.board,
                owner=args.owner,
                guard_level=args.guard_level,
                max_jobs=args.max_jobs,
            )
        except (FileNotFoundError, ValueError) as exc:
            print(f"no campaign board at {args.board}: {exc}", file=sys.stderr)
            return 1
        print(
            f"{report.owner}: {report.done} done "
            f"({report.adopted} adopted, {report.stolen} stolen leases, "
            f"{report.errors} errors)"
        )
        return 0

    # run: coordinate shards, then collate and report.
    config = GemStoneConfig(
        core=args.core,
        gem5_machine=args.model,
        trace_instructions=args.instructions,
        max_attempts=max(1, args.retries),
        guard_level=args.guard_level,
    )
    tracer = NULL_TRACER
    if args.trace_out is not None:
        os.makedirs(args.trace_out, exist_ok=True)
        tracer = Tracer(
            enabled=True,
            stream_path=os.path.join(args.trace_out, EVENTS_FILE),
        )
    result = run_campaign(
        config,
        args.board,
        shards=args.shards,
        ttl_seconds=args.ttl,
        collate=not args.no_collate,
        tracer=tracer,
    )
    summary = [
        f"board {args.board}: {result.status['done']} done, "
        f"{result.status['poisoned']} poisoned, "
        f"{result.lost_shards} shard(s) lost",
    ]
    for _key, workload, reason in result.poisoned:
        summary.append(f"  poisoned {workload}: {reason}")
    for name, value in result.counters.items():
        if value:
            summary.append(f"  {name} = {value:g}")
    print("\n".join(summary), file=sys.stderr)
    if args.trace_out is not None:
        from repro.obs.merge import export_campaign_trace

        tracer.close()
        paths = export_campaign_trace(args.board, args.trace_out)
        print(
            f"wrote {paths['chrome']} ({paths['events']} events) and "
            f"{paths['metrics']}",
            file=sys.stderr,
        )
    if result.gemstone is not None:
        _emit(result.gemstone.report(), args.out)
    return 1 if result.degraded else 0


def _campaign_detail(board_dir, status, journal) -> list[str]:
    """The ``campaign status --detail`` sections (per-shard + health)."""
    from repro.obs.merge import (
        autotune_hint,
        campaign_health,
        merge_board_metrics,
    )

    per_owner: dict[str, dict[str, int]] = {}

    def _bump(owner, field):
        if not owner:
            return
        row = per_owner.setdefault(
            owner,
            {"done": 0, "claimed": 0, "stolen": 0, "abandoned": 0,
             "poisoned": 0},
        )
        row[field] += 1

    done_clocks: list[float] = []
    guard_rollup: dict[str, int] = {}
    for record in journal:
        event = record.get("event")
        owner = record.get("owner", "")
        if event == "job-done":
            _bump(owner, "done")
            if "clock" in record:
                done_clocks.append(float(record["clock"]))
        elif event == "lease-claimed":
            _bump(owner, "claimed")
        elif event == "lease-stolen":
            _bump(owner, "stolen")
        elif event == "job-abandoned":
            _bump(owner, "abandoned")
        elif event == "job-poisoned":
            _bump(owner, "poisoned")
        if event in ("lease-stolen", "job-abandoned", "job-poisoned",
                     "job-requeued"):
            guard_rollup[event] = guard_rollup.get(event, 0) + 1
    lines = [
        text_table(
            ["shard", "done", "claimed", "stolen", "abandoned", "poisoned"],
            [
                [owner, row["done"], row["claimed"], row["stolen"],
                 row["abandoned"], row["poisoned"]]
                for owner, row in sorted(per_owner.items())
            ],
            title="per-shard progress (from the board journal)",
        )
    ]
    if guard_rollup:
        lines.append(
            "guard events: "
            + ", ".join(
                f"{event} x{n}" for event, n in sorted(guard_rollup.items())
            )
        )
    remaining = status["total"] - status["done"] - status["poisoned"]
    if remaining > 0 and len(done_clocks) >= 2:
        span = max(done_clocks) - min(done_clocks)
        if span > 0:
            rate = (len(done_clocks) - 1) / span
            lines.append(
                f"ETA: ~{remaining / rate:.1f}s for {remaining} "
                f"remaining job(s) at {rate:.2f} jobs/s"
            )
    elif remaining == 0:
        lines.append("ETA: board fully drained")
    try:
        merged = merge_board_metrics(board_dir)
    except (TypeError, ValueError) as exc:
        lines.append(f"merged metrics unavailable: {exc}")
        return lines
    health = campaign_health(
        merged, {o: r["done"] for o, r in per_owner.items()}
    )
    rows = [["steal rate", f"{health['steal_rate']:.1%}"]]
    if health["straggler_skew"] is not None:
        rows.append(
            ["straggler skew", f"{health['straggler_skew']:.2f}"]
        )
    if health["contention_index"] is not None:
        rows.append(
            ["board contention index", f"{health['contention_index']:.3f}"]
        )
    lines.append(
        text_table(
            ["health", "value"], rows,
            title="derived health (merged shard metrics)",
        )
    )
    shards = len(per_owner) or 1
    hint = autotune_hint(
        shards, status["total"], health["steal_rate"],
        health["contention_index"],
    )
    lines.append(
        f"shard auto-tune: suggest {hint['suggested_shards']} shard(s) — "
        f"{hint['reason']}"
    )
    return lines


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the determinism & worker-purity linter (``repro-lint``)."""
    from repro.analysis.cli import main as lint_main

    return lint_main(args.lint_args)


def build_parser() -> argparse.ArgumentParser:
    """Construct the gemstone argument parser."""
    parser = argparse.ArgumentParser(
        prog="gemstone",
        description="GemStone: validate gem5 CPU models against reference hardware",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="full evaluation report")
    _add_common(p)
    p.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="checkpoint every pipeline phase into DIR and restore the "
        "phases a previous run finished there (atomic, checksummed, keyed "
        "by the config fields each phase uses; corrupt or stale "
        "checkpoints are quarantined and recomputed)",
    )
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="DIR",
        help="stream a span trace into DIR/events.jsonl and export a "
        "Perfetto-loadable Chrome trace plus a metrics snapshot there "
        "(out-of-band: the report itself is unchanged)",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("headline", help="execution-time MAPE/MPE table")
    _add_common(p)
    p.set_defaults(func=cmd_headline)

    p = sub.add_parser("lmbench", help="memory-latency sweep (Fig. 4)")
    p.add_argument("--machine", default="gem5-ex5-big")
    p.add_argument("--stride", type=int, default=256)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lmbench)

    p = sub.add_parser("power-model", help="build the Section V power model")
    _add_common(p)
    p.add_argument("--unrestricted", action="store_true",
                   help="allow events without reliable gem5 equivalents")
    p.add_argument("--equations", action="store_true",
                   help="also print gem5 runtime power equations")
    p.set_defaults(func=cmd_power_model)

    p = sub.add_parser("bp-fix", help="pre/post BP-fix comparison (Section VII)")
    _add_common(p)
    p.set_defaults(func=cmd_bp_fix)

    p = sub.add_parser("figure", help="regenerate one paper figure as text")
    p.add_argument(
        "figure",
        choices=("fig3", "fig5", "fig6", "fig7", "fig8", "characterisation"),
    )
    _add_common(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("export", help="export datasets or the fitted power model")
    p.add_argument(
        "what", choices=("validation-csv", "power-csv", "power-model")
    )
    _add_common(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser(
        "runtime-power",
        help="per-window run-time power of one workload (method 2, Fig. 2)",
    )
    p.add_argument("--workload", default="mi-sha")
    p.add_argument("--freq-mhz", type=float, default=1000.0)
    p.add_argument("--windows", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=cmd_runtime_power)

    p = sub.add_parser(
        "trace",
        help="inspect a --trace-out directory or campaign board: span "
        "summary, slowest spans, replay profile, Chrome-trace re-export",
    )
    p.add_argument(
        "action", choices=("summary", "slowest", "profile", "export")
    )
    p.add_argument("trace_dir", metavar="DIR")
    p.add_argument("--top", type=int, default=10,
                   help="spans to list for 'slowest'")
    p.add_argument("--out", default=None, help="write output to a file")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "campaign",
        help="distributed sharded campaigns over a shared job board "
        "(lease-based work stealing, worker-loss recovery, incremental "
        "recompute)",
    )
    p.set_defaults(func=cmd_campaign)
    actions = p.add_subparsers(dest="action", required=True)

    def board_action(name: str, summary: str) -> argparse.ArgumentParser:
        action = actions.add_parser(name, help=summary)
        action.add_argument(
            "--board", required=True, metavar="DIR",
            help="shared board directory (jobs, leases, journal, results)",
        )
        return action

    a = board_action("run", "coordinate shards and report")
    a.add_argument("--shards", type=int, default=2,
                   help="worker processes to spawn")
    a.add_argument("--ttl", type=float, default=5.0, metavar="SECONDS",
                   help="lease heartbeat TTL; an older lease is stolen")
    a.add_argument("--no-collate", action="store_true",
                   help="leave results on the board without building the "
                   "report")
    a.add_argument(
        "--trace-out", default=None, metavar="DIR",
        help="trace the campaign and write the merged campaign-wide "
        "Chrome trace + Prometheus snapshot there",
    )
    _add_common(a, cache_dir=False)

    a = board_action("worker", "join an existing board")
    a.add_argument("--owner", default=None,
                   help="worker identity on the board (default: PID-based)")
    a.add_argument("--max-jobs", type=int, default=None,
                   help="stop this worker after N completed jobs")
    _add_guard_level(a)
    _add_logging(a)

    a = board_action("status", "board counts and journal tail")
    a.add_argument(
        "--detail", action="store_true",
        help="per-shard progress, derived health, ETA and the shard-count "
        "auto-tune hint",
    )
    a.add_argument("--tail", type=int, default=10,
                   help="journal records to show")
    a.add_argument("--out", default=None, help="write output to a file")
    _add_logging(a)

    p = sub.add_parser(
        "lint",
        help="static analysis: determinism & worker-purity rules "
        "(everything after 'lint' is passed to repro-lint)",
        add_help=False,
    )
    p.add_argument("lint_args", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    arg_list = list(argv) if argv is not None else sys.argv[1:]
    if arg_list and arg_list[0] == "lint":
        # Hand everything after "lint" to repro-lint verbatim: REMAINDER
        # would swallow a leading option (e.g. ``gemstone lint --list-rules``).
        from repro.analysis.cli import main as lint_main

        return lint_main(arg_list[1:])
    args = build_parser().parse_args(arg_list)
    if getattr(args, "log_level", None) or getattr(args, "log_json", False):
        configure_logging(
            getattr(args, "log_level", None) or "warning",
            json_lines=getattr(args, "log_json", False),
        )
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream closed early (e.g. ``gemstone trace summary | head``);
        # exit quietly with the conventional SIGPIPE status.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
