"""Text rendering of every GemStone table and figure.

The paper's figures are bar charts and tables; this module renders their
textual equivalents (aligned tables and ASCII horizontal bars), which is
what the benchmark harness prints when regenerating each figure.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def text_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned monospace table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(f"row has {len(row)} cells, expected {len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.2f}"
    return str(cell)


def hbar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 48,
    title: str | None = None,
    annotations: Sequence[str] | None = None,
) -> str:
    """Signed horizontal ASCII bar chart (the Fig. 3 / Fig. 5 equivalent)."""
    if len(labels) != len(values):
        raise ValueError("labels and values differ in length")
    values = [float(v) for v in values]
    if annotations is None:
        annotations = [""] * len(labels)
    biggest = max((abs(v) for v in values), default=1.0) or 1.0
    label_width = max((len(l) for l in labels), default=1)
    half = width // 2
    lines = []
    if title:
        lines.append(title)
    for label, value, note in zip(labels, values, annotations):
        extent = int(round(abs(value) / biggest * half))
        if value >= 0:
            bar = " " * half + "|" + "#" * extent
        else:
            bar = " " * (half - extent) + "#" * extent + "|"
        bar = bar.ljust(width + 1)
        suffix = f" {value:+.1f}" + (f"  {note}" if note else "")
        lines.append(f"{label.rjust(label_width)} {bar}{suffix}")
    return "\n".join(lines)


def render_dendrogram(dendrogram, names: Sequence[str], max_label: int = 28) -> str:
    """Indented text rendering of an HCA merge tree.

    Leaves print flush-left; each internal node prints its merge height and
    indents its subtree — the textual equivalent of the dendrogram plots the
    Powmon/GemStone tooling produces.
    """
    children: dict[int, tuple[int, int, float]] = {}
    n = dendrogram.n_leaves
    for step, merge in enumerate(dendrogram.merges):
        children[n + step] = (merge.a, merge.b, merge.height)
    root = n + len(dendrogram.merges) - 1 if dendrogram.merges else 0

    lines: list[str] = []

    def walk(node: int, depth: int) -> None:
        indent = "  " * depth
        if node < n:
            label = names[node][:max_label]
            lines.append(f"{indent}- {label}")
            return
        a, b, height = children[node]
        lines.append(f"{indent}+ (h={height:.2f})")
        walk(a, depth + 1)
        walk(b, depth + 1)

    walk(root, 0)
    return "\n".join(lines)


def render_workload_characterisation(dataset, freq_hz: float) -> str:
    """Per-workload behavioural summary from the HW PMCs (Fig. 1 box g).

    IPC, branch and miss rates, and BP accuracy — the characterisation table
    a user consults when interpreting the cluster designations.
    """
    rows = []
    for run in dataset.runs_at(freq_hz):
        pmc = run.hw.pmc
        instructions = pmc[0x08]
        cycles = pmc[0x11]
        branches = max(pmc.get(0x12, 0.0), 1.0)
        rows.append(
            [
                run.workload,
                run.threads,
                instructions / max(cycles, 1.0),
                pmc.get(0x12, 0.0) / instructions,
                pmc.get(0x03, 0.0) / max(pmc.get(0x04, 1.0), 1.0),
                pmc.get(0x17, 0.0) / max(pmc.get(0x16, 1.0), 1.0),
                1.0 - pmc.get(0x10, 0.0) / branches,
            ]
        )
    return text_table(
        ["workload", "thr", "IPC", "branch rate", "L1D miss", "L2 miss", "BP acc"],
        rows,
        title=(
            f"Workload characterisation on hardware at {freq_hz / 1e6:.0f} MHz"
        ),
    )


def render_workload_mpe_figure(analysis) -> str:
    """Fig. 3: per-workload MPE bars ordered and labelled by HCA cluster."""
    rows = analysis.ordered_rows()
    labels = [name for name, _, _ in rows]
    values = [error for _, _, error in rows]
    annotations = [f"c{cluster}" for _, cluster, _ in rows]
    header = (
        f"Execution-time MPE per workload at "
        f"{analysis.freq_hz / 1e6:.0f} MHz (positive = performance "
        f"overestimated); cX = HCA cluster"
    )
    return hbar_chart(labels, values, title=header, annotations=annotations)


def render_pmc_correlation_figure(correlation) -> str:
    """Fig. 5: per-PMC correlation with the error, cluster-labelled."""
    rows = correlation.sorted_events()
    labels = [name for name, _, _ in rows]
    values = [corr for _, corr, _ in rows]
    annotations = [f"c{cluster}" for _, _, cluster in rows]
    return hbar_chart(
        labels,
        values,
        title="Correlation of HW PMC rates with execution-time MPE",
        annotations=annotations,
    )


def render_event_ratio_table(comparison) -> str:
    """Fig. 6: gem5 totals normalised by HW PMC equivalents."""
    clusters = sorted(
        {c for ratio in comparison.ratios.values() for c in ratio.cluster_ratios}
    )
    headers = ["event", "mean x"] + [f"c{c} x" for c in clusters] + ["note"]
    rows = []
    for event in sorted(comparison.ratios):
        ratio = comparison.ratios[event]
        rows.append(
            [ratio.name, ratio.mean_ratio]
            + [ratio.cluster_ratios.get(c, float("nan")) for c in clusters]
            + [ratio.note]
        )
    return text_table(
        headers,
        rows,
        title="gem5 events / HW PMC equivalents"
        f" (mean excludes cluster {comparison.excluded_cluster})",
    )


def render_power_energy_figure(comparison) -> str:
    """Fig. 7: per-cluster power and energy MAPE."""
    table = comparison.cluster_table()
    rows = [
        [f"cluster {c}", int(v["n_workloads"]), v["power_mape"], v["energy_mape"]]
        for c, v in sorted(table.items())
    ]
    rows.append(
        ["ALL", len({r.workload for r in comparison.rows}),
         comparison.power_mape(), comparison.energy_mape()]
    )
    return text_table(
        ["cluster", "workloads", "power MAPE %", "energy MAPE %"],
        rows,
        title=f"{comparison.core}: power/energy error of gem5-driven estimates",
    )


def render_dvfs_figure(scaling) -> str:
    """Fig. 8: mean scaling per OPP, hardware vs model."""
    freqs = sorted({r.freq_hz for r in scaling.rows})
    rows = []
    for freq in freqs:
        hw = scaling.speedup_stats(freq, "hw")
        gem5 = scaling.speedup_stats(freq, "gem5")
        hw_e = scaling.energy_stats(freq, "hw")
        gem5_e = scaling.energy_stats(freq, "gem5")
        rows.append(
            [
                f"{freq / 1e6:.0f} MHz",
                hw["mean"], gem5["mean"],
                f"{hw['min']:.2f}-{hw['max']:.2f}",
                f"{gem5['min']:.2f}-{gem5['max']:.2f}",
                hw_e["mean"], gem5_e["mean"],
            ]
        )
    return text_table(
        [
            "OPP",
            "HW speedup",
            "model speedup",
            "HW range",
            "model range",
            "HW energy x",
            "model energy x",
        ],
        rows,
        title=(
            f"{scaling.core}: scaling normalised to "
            f"{scaling.base_freq_hz / 1e6:.0f} MHz"
        ),
    )


def render_campaign_section(summary: dict) -> str:
    """Distributed-campaign section of a collation report.

    Every row is derived from the board journal and the sync counts —
    deterministic inputs only, so a clean campaign's report is
    byte-identical whether or not the campaign was traced.  The
    wall-clock health view (contention index, straggler skew) lives in
    the merged Prometheus snapshot and ``gemstone campaign status
    --detail`` instead.
    """
    rows = [
        ["shards", summary["shards"]],
        ["jobs total", summary["total"]],
        ["jobs done", summary["done"]],
        ["jobs poisoned", summary["poisoned"]],
        ["results reused", summary["reused"]],
        ["jobs requeued", summary["requeued"]],
        ["leases stolen", summary["stolen"]],
        ["jobs abandoned", summary["abandoned"]],
    ]
    lines = [
        text_table(
            ["campaign", "value"],
            rows,
            title="Distributed campaign",
        )
    ]
    hint = summary.get("hint")
    if hint:
        lines.append(
            f"shard auto-tune: suggest {hint['suggested_shards']} shard(s)"
            f" — {hint['reason']}"
        )
    return "\n".join(lines)


def render_power_model_summary(model) -> str:
    """Section V: power model composition and quality."""
    lines = [f"{model.core} empirical power model ({len(model.terms)} events)"]
    lines.append("events: " + ", ".join(t.pretty_name for t in model.terms))
    quality = model.quality
    if quality is not None:
        lines.append(
            f"MAPE {quality.mape:.2f}%  MPE {quality.mpe:+.2f}%  "
            f"SER {quality.ser:.3f} W  adj-R2 {quality.adjusted_r2:.4f}  "
            f"mean VIF {quality.mean_vif:.1f}"
        )
        lines.append(
            f"max APE {quality.max_ape:.1f}% ({quality.worst_observation}); "
            f"n={quality.n_observations}"
        )
    return "\n".join(lines)


def render_full_report(gemstone, include_telemetry: bool = True) -> str:
    """The complete GemStone report: every table and figure in order.

    Args:
        gemstone: The :class:`~repro.core.pipeline.GemStone` facade.
        include_telemetry: Append the simulation-executor telemetry
            section.  Checkpointed runs disable it: its wall-clock rows
            are the one nondeterministic part of the report, and resumed
            runs must produce byte-identical text.
    """
    dataset = gemstone.dataset
    freq = gemstone.config.analysis_freq_hz
    sections = []

    sections.append(
        f"GemStone report: {dataset.gem5_model} vs {gemstone.platform.machine.name}"
    )
    sections.append("=" * len(sections[0]))

    rows = [
        [
            f"{f / 1e6:.0f} MHz",
            dataset.time_mape(f),
            dataset.time_mpe(f),
        ]
        for f in dataset.frequencies
    ]
    rows.append(["ALL", dataset.time_mape(), dataset.time_mpe()])
    sections.append(
        text_table(
            ["frequency", "time MAPE %", "time MPE %"],
            rows,
            title="Execution-time error (negative MPE = time overestimated)",
        )
    )

    sections.append(render_workload_mpe_figure(gemstone.workload_clusters))
    sections.append(render_pmc_correlation_figure(gemstone.pmc_correlation))

    g5corr = gemstone.gem5_correlation
    summary = g5corr.cluster_summary()
    rows = [
        [f"cluster {c}", int(v["size"]), v["mean"], v["min"], v["max"]]
        for c, v in sorted(summary.items(), key=lambda kv: kv[1]["mean"])
    ]
    sections.append(
        text_table(
            ["gem5 event cluster", "events", "mean r", "min r", "max r"],
            rows,
            title="gem5 statistics vs error (|r| > 0.3), clustered",
        )
    )

    for source in ("hw", "gem5"):
        reg = gemstone.regression(source)
        sections.append(
            f"Stepwise error regression ({source}): R2={reg.r2:.3f} "
            f"adj-R2={reg.adjusted_r2:.3f}; selected: "
            + ", ".join(reg.selected)
        )

    sections.append(render_event_ratio_table(gemstone.event_comparison))
    hw_acc, gem5_acc = gemstone.event_comparison.mean_bp_accuracy()
    extreme = gemstone.event_comparison.extreme_bp_workload()
    sections.append(
        f"Branch predictor accuracy: HW mean {hw_acc:.1%}, model mean "
        f"{gem5_acc:.1%}; lowest model accuracy {extreme.gem5_accuracy:.2%} "
        f"({extreme.workload}, HW {extreme.hw_accuracy:.2%})"
    )

    sections.append(render_power_model_summary(gemstone.power_model))
    sections.append(render_power_energy_figure(gemstone.power_energy))
    sections.append(render_dvfs_figure(gemstone.dvfs))

    campaign = getattr(gemstone, "campaign", None)
    if campaign is not None:
        sections.append(render_campaign_section(campaign))

    health = getattr(gemstone, "health", None)
    if health is not None and health.degraded:
        sections.append(render_collection_health(health))

    degraded_fits = getattr(gemstone, "degraded_fits", None)
    if degraded_fits is not None:
        fits = degraded_fits()
        if fits:
            sections.append(render_degraded_fits(fits))

    executor = getattr(gemstone, "executor", None)
    if include_telemetry and executor is not None and executor.telemetry.jobs_submitted:
        cache = getattr(executor, "cache", None)
        sections.append(
            render_sim_telemetry(
                executor.telemetry,
                cache_metrics=cache.metrics if cache is not None else None,
            )
        )

    guard = getattr(executor, "guard", None)
    if include_telemetry and guard is not None and guard.plan.active:
        sections.append(render_guardrails(guard))

    return "\n\n".join(sections)


def render_sim_telemetry(telemetry, cache_metrics=None) -> str:
    """Simulation-executor telemetry: job accounting and stage wall-clock.

    The cache rows render from ``cache_metrics``, the disk cache's registry.
    """
    rows = [
        ["jobs submitted", telemetry.jobs_submitted],
        ["deduplicated in-flight", telemetry.jobs_deduplicated],
        ["disk cache hits", telemetry.cache_hits],
        ["simulated", telemetry.jobs_run],
        ["job retries", telemetry.job_retries],
        ["jobs failed permanently", telemetry.jobs_failed],
        ["batches", telemetry.batches],
        ["probe wall-clock (s)", telemetry.probe_seconds],
        ["simulate wall-clock (s)", telemetry.simulate_seconds],
        ["throughput (sims/s)", telemetry.throughput()],
    ]
    if cache_metrics is not None:
        count = cache_metrics.counter
        rows.append(["cache entries quarantined", count("sim.cache.quarantined").value])
        rows.append(["cache write failures", count("sim.cache.put_failures").value])
    return text_table(
        ["simulation executor", "value"],
        rows,
        title="Simulation executor telemetry",
    )


def render_guardrails(guard, max_events: int = 12) -> str:
    """Runtime guardrail accounting for one run.

    Summarises what the divergence sentinels and decode validation
    (:mod:`repro.sim.guard`) observed and did: how many jobs were
    dual-replayed and every fallback and quarantine.  A clean run
    renders all zeros — the section states that the guarantees were
    *checked*, not just assumed.
    """
    count = guard.metrics.counter
    rows = [
        ["guard level", guard.plan.level],
        ["sentinel interval (1 in N jobs)", guard.plan.interval],
        ["sentinel dual-engine replays", count("sim.guard.sentinel_replays").value],
        ["divergences caught", count("sim.guard.divergences").value],
        ["NaN/overflow results rejected", count("sim.guard.nan_fallbacks").value],
        ["corrupt decodes re-decoded", count("sim.guard.decode_quarantines").value],
        ["engine errors recovered", count("sim.guard.engine_errors").value],
        ["scalar fallbacks (total)", count("sim.guard.fallbacks").value],
    ]
    lines = [text_table(["guardrails", "value"], rows, title="Guardrails")]
    for event in guard.events[:max_events]:
        lines.append(f"  {event.summary()}")
    if len(guard.events) > max_events:
        lines.append(f"  ... and {len(guard.events) - max_events} more")
    return "\n".join(lines)


def render_degraded_fits(fits) -> str:
    """Degradation notes from the analysis layer, one line per note.

    Rendered alongside the collection-health section: where that section
    says which *data points* were lost, this one says how the *fits*
    (clustering, stepwise regressions, power model) had to degrade —
    dropped regressors, intercept-only fallbacks, trivial clusterings —
    so a report over degraded data is explicit about its weakened models.
    """
    lines = [f"Degraded fits ({len(fits)} note(s))"]
    for fit in fits:
        lines.append(f"  [{fit.stage}] {fit.detail}")
    return "\n".join(lines)


def render_collection_health(health, max_failures: int = 12) -> str:
    """Gap accounting of a degraded collection campaign.

    Lists what was attempted, what survived, and (capped) which points were
    lost and why, so a report over a partial dataset is explicit about its
    gaps rather than silently narrower.
    """
    lines = [
        text_table(
            ["collection health", "value"],
            [
                ["points attempted", health.attempted],
                ["points collected", health.succeeded],
                ["points failed", health.failed],
                ["power samples lost", health.power_samples_lost],
                ["guard interventions", len(health.guard_events)],
            ],
            title=f"Collection health (degraded: {health.summary()})",
        )
    ]
    for failure in health.failures[:max_failures]:
        lines.append(
            f"  lost {failure.workload} @ {failure.freq_hz / 1e6:.0f} MHz "
            f"[{failure.stage}]: {failure.error}"
        )
    if health.failed > max_failures:
        lines.append(f"  ... and {health.failed - max_failures} more")
    for event in health.guard_events[:max_failures]:
        lines.append(f"  guard {event.summary()}")
    if len(health.guard_events) > max_failures:
        lines.append(
            f"  ... and {len(health.guard_events) - max_failures} more"
        )
    return "\n".join(lines)
