"""Run-time power analysis inside the simulator (the paper's "method 2").

Section III describes two ways of using the power models: (1) applying them
to output files after the simulation (``PowerModelApplication``), and (2)
"generating equations that can be inserted directly into gem5 for run-time
power analysis within gem5 itself".  This module implements the second path:

* :func:`compile_equations` parses the equation text emitted by
  :meth:`PowerModel.gem5_equations` back into an evaluable object — proving
  the exported text is machine-usable, and standing in for gem5's
  ``MathExprPowerModel`` expression parser;
* :func:`runtime_power_trace` runs a workload through the gem5 model in
  windows and evaluates the compiled equations per window, producing the
  power-vs-time trace a run-time power model yields inside gem5.  Each
  window is one windowed :class:`~repro.sim.result_cache.SimJob` on the
  model's executor, so windows are cached, guarded and traced like every
  other simulation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Mapping

from repro.sim.gem5 import Gem5Simulation, Gem5Stats
from repro.sim.platform import HardwarePlatform
from repro.workloads.profile import WorkloadProfile

_LINE_RE = re.compile(r"^power\[(\d+)MHz\]\s*=\s*(.+)$")
_TERM_RE = re.compile(r"([+-])\s*([0-9.eE+-]+)\*rate\(([A-Za-z0-9_.]+)\)")


@dataclass(frozen=True)
class RuntimePowerEquations:
    """Compiled per-OPP power equations over gem5 stat rates.

    Attributes:
        core: Cluster label from the equation header ("A15"/"A7"), if any.
        intercepts: Constant term per OPP (Hz key, rounded).
        weights: Per-OPP mapping of gem5 short stat name to watts per
            (event/second).
    """

    core: str
    intercepts: dict[int, float]
    weights: dict[int, dict[str, float]]

    def opps(self) -> list[int]:
        """Fitted OPPs in Hz, ascending."""
        return sorted(self.intercepts)

    def evaluate(self, freq_hz: float, rates: Mapping[str, float]) -> float:
        """Power in watts from gem5 stat rates at one OPP.

        Raises:
            KeyError: For an OPP outside the compiled set, or a stat the
                equations reference but ``rates`` does not provide.
        """
        key = round(freq_hz)
        if key not in self.intercepts:
            raise KeyError(
                f"{freq_hz / 1e6:.0f} MHz not in compiled equations "
                f"({[k / 1e6 for k in self.opps()]} MHz)"
            )
        power = self.intercepts[key]
        for stat, weight in self.weights[key].items():
            power += weight * rates[stat]
        return power

    def evaluate_stats(self, stats: Gem5Stats) -> float:
        """Evaluate directly on one gem5 stats dump."""
        key = round(stats.freq_hz)
        if key not in self.intercepts:
            raise KeyError(f"{stats.freq_hz / 1e6:.0f} MHz not compiled")
        rates = {
            stat: stats.stats[stat] / stats.sim_seconds
            for stat in self.weights[key]
        }
        return self.evaluate(stats.freq_hz, rates)


def compile_equations(text: str) -> RuntimePowerEquations:
    """Parse :meth:`PowerModel.gem5_equations` output into evaluable form.

    Raises:
        ValueError: If no equation lines parse, or a line is malformed.
    """
    core = "unknown"
    intercepts: dict[int, float] = {}
    weights: dict[int, dict[str, float]] = {}
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            header = re.search(r"#\s*(\S+)\s+cluster", line)
            if header:
                core = header.group(1)
            continue
        match = _LINE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable equation line: {line!r}")
        key = int(match.group(1)) * 1_000_000
        body = match.group(2)

        # The first token is the bare intercept; normalise it to "+ c".
        body = body.strip()
        first_term = body.split(" ", 1)[0]
        try:
            intercept = float(first_term)
        except ValueError as exc:
            raise ValueError(f"equation must start with the intercept: {line!r}") from exc
        rest = body[len(first_term):]

        stat_weights: dict[str, float] = {}
        consumed = 0
        for term in _TERM_RE.finditer(rest):
            sign = -1.0 if term.group(1) == "-" else 1.0
            stat_weights[term.group(3)] = (
                stat_weights.get(term.group(3), 0.0) + sign * float(term.group(2))
            )
            consumed += 1
        # Every "+/-" chunk after the intercept must have parsed.
        expected = rest.count("rate(")
        if consumed != expected:
            raise ValueError(f"failed to parse {expected - consumed} terms in: {line!r}")
        intercepts[key] = intercept
        weights[key] = stat_weights

    if not intercepts:
        raise ValueError("no power equations found in text")
    return RuntimePowerEquations(core=core, intercepts=intercepts, weights=weights)


@dataclass(frozen=True)
class PowerSample:
    """One window of the run-time power trace."""

    start_seconds: float
    duration_seconds: float
    power_w: float


def runtime_power_trace(
    gem5: Gem5Simulation,
    profile: WorkloadProfile,
    freq_hz: float,
    equations: RuntimePowerEquations,
    n_windows: int = 8,
) -> list[PowerSample]:
    """Per-window power of one workload, evaluated inside the simulation.

    The trace is split into ``n_windows`` contiguous windows; each window is
    simulated through ``gem5.executor`` (one batch) and the compiled
    equations are evaluated on its statistics — the behaviour of a gem5
    ``MathExprPowerModel`` sampled periodically.  The window bounds need
    the trace's dynamic block count, so the trace is compiled here once,
    and the executor replays that compile for every window the cache
    misses.

    Raises:
        ValueError: For fewer than one window.
    """
    if n_windows < 1:
        raise ValueError("need at least one window")
    job = gem5.job_for(profile)
    trace = job.compile_recipe()
    n_blocks = len(trace.block_seq)
    bounds = [round(i * n_blocks / n_windows) for i in range(n_windows + 1)]
    windows = [(start, end) for start, end in zip(bounds, bounds[1:]) if end > start]
    results = gem5.executor.run_many(
        [replace(job, window=w) for w in windows], traces=[trace]
    )
    repeat = HardwarePlatform.repeat_count(profile, gem5.trace_instructions)

    samples: list[PowerSample] = []
    clock = 0.0
    for result in results:
        duration = result.time_seconds(freq_hz) * repeat
        scale = repeat * profile.threads
        counts = {k: v * scale for k, v in result.counts.items()}
        stats = gem5._emit(result, counts, freq_hz, duration, scale)
        key = round(freq_hz)
        rates = {
            stat: stats[stat] / duration for stat in equations.weights[key]
        }
        samples.append(
            PowerSample(
                start_seconds=clock,
                duration_seconds=duration,
                power_w=equations.evaluate(freq_hz, rates),
            )
        )
        clock += duration
    return samples


def trace_energy(samples: list[PowerSample]) -> float:
    """Energy in joules of a run-time power trace."""
    return sum(s.power_w * s.duration_seconds for s in samples)


def mean_power(samples: list[PowerSample]) -> float:
    """Duration-weighted mean power of a trace.

    Raises:
        ValueError: For an empty trace.
    """
    total_time = sum(s.duration_seconds for s in samples)
    if total_time <= 0:
        raise ValueError("empty power trace")
    return trace_energy(samples) / total_time
