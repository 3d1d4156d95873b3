"""Chaos: a traced run killed mid-pipeline leaves well-formed trace files.

The crash-safety contract for observability is weaker than for results —
a trace is best-effort — but it must never be *corrupt*: every record
flushed before the kill parses, the resumed run appends a second segment
to the same stream, and the Chrome export renders both segments as
separate process tracks.  Meanwhile the report, as ever, must come back
byte-identical; wall-clock lives only in the trace files.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.pipeline import GemStone, GemStoneConfig
from repro.obs.exporters import (
    EVENTS_FILE,
    read_event_stream,
    validate_chrome_trace,
)
from repro.workloads.suites import workload_by_name

pytestmark = pytest.mark.chaos

N_INSTRS = 8_000
FREQS = (600e6, 1000e6)
WORKLOADS = ("mi-bitcount", "mi-qsort", "mi-sha")


@pytest.fixture(scope="module")
def sim_cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("sim-cache"))


def _config(sim_cache_dir, **overrides):
    profiles = tuple(workload_by_name(name) for name in WORKLOADS)
    defaults = dict(
        core="A15",
        workloads=profiles,
        power_workloads=profiles,
        frequencies=FREQS,
        trace_instructions=N_INSTRS,
        n_workload_clusters=2,
        power_model_terms=2,
        cache_dir=sim_cache_dir,
    )
    defaults.update(overrides)
    return GemStoneConfig(**defaults)


@pytest.fixture(scope="module")
def reference_report(sim_cache_dir, tmp_path_factory):
    """The untraced, uninterrupted report the traced resume must match.

    Checkpointed like the scenario runs: checkpointed reports render
    without the wall-clock telemetry table, which is what makes
    byte-identity possible at all.
    """
    ckpt = str(tmp_path_factory.mktemp("reference-ckpt"))
    return GemStone(_config(sim_cache_dir, checkpoint_dir=ckpt)).report()


def test_killed_traced_run_resumes_with_a_two_segment_trace(
    sim_cache_dir, tmp_path, reference_report
):
    ckpt = str(tmp_path / "ckpt")
    trace_dir = str(tmp_path / "trace")
    stream = os.path.join(trace_dir, EVENTS_FILE)

    # First run: finish the two collection phases, then die.  Abandoning
    # the facade is what SIGKILL leaves behind: the trace stream is
    # flushed per record, so everything that closed before the kill is
    # already durable.
    victim = GemStone(
        _config(sim_cache_dir, checkpoint_dir=ckpt, trace_dir=trace_dir)
    )
    _ = victim.dataset
    _ = victim.power_dataset
    victim.tracer.close()
    del victim

    first = read_event_stream(stream)
    assert first, "the killed run left no trace"
    assert {r["segment"] for r in first} == {0}
    phase_spans = {
        r["name"] for r in first if r.get("kind") == "span"
    }
    assert "phase:dataset" in phase_spans

    # Resume: the report must be byte-identical (all wall-clock lives in
    # the trace files), and the stream gains a second segment.
    resumed = GemStone(
        _config(
            sim_cache_dir, checkpoint_dir=ckpt, trace_dir=trace_dir,
        )
    )
    assert resumed.report() == reference_report
    assert resumed.tracer.segment == 1
    paths = resumed.export_trace()
    resumed.tracer.close()

    records = read_event_stream(stream)
    segments = {r["segment"] for r in records}
    assert segments == {0, 1}
    # Restored phases announce themselves in the second segment.
    restored = [
        r for r in records
        if r.get("kind") == "event" and r["name"] == "restored"
    ]
    assert {e["attrs"]["phase"] for e in restored} >= {
        "dataset", "power-dataset",
    }

    # The Chrome export is schema-valid and renders one process track
    # (pid) per segment.
    with open(paths["chrome"]) as handle:
        document = json.load(handle)
    assert validate_chrome_trace(document) == len(document["traceEvents"])
    assert {e["pid"] for e in document["traceEvents"]} == {0, 1}


def test_stream_torn_by_a_kill_mid_record_still_parses(
    sim_cache_dir, tmp_path
):
    trace_dir = str(tmp_path / "trace")
    stream = os.path.join(trace_dir, EVENTS_FILE)
    gs = GemStone(_config(sim_cache_dir, trace_dir=trace_dir))
    _ = gs.dataset
    gs.tracer.close()

    intact = len(read_event_stream(stream))
    with open(stream, "a") as handle:
        handle.write('{"kind": "span", "id": "torn')  # the kill point

    # The torn tail is dropped; the trusted prefix survives, and a
    # resumed tracer still opens segment 1 on top of it.
    assert len(read_event_stream(stream)) == intact
    resumed = GemStone(
        _config(sim_cache_dir, trace_dir=trace_dir)
    )
    assert resumed.tracer.segment == 1
    resumed.tracer.close()
