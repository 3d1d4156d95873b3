"""The simulated ODROID-XU3 hardware platform.

This module plays the part of the physical development board in the paper's
Experiments 1, 3 and 4:

* runs workloads on the true Cortex-A7/A15 micro-architecture (through the
  shared CPU simulator) at any supported OPP;
* exposes an ARMv7 PMU with six multiplexed counters — capturing all 68
  events of Experiment 1 requires repeated runs, each with its own
  run-to-run jitter, exactly the procedure the paper describes;
* reports execution time as the median of five runs;
* measures cluster power with the board's 3.8 Hz averaged power sensors,
  repeating the workload to fill a >=30 s measurement window;
* models die temperature (ambient + thermal resistance x power) and the
  thermal throttling that makes 2 GHz unusable on the A15 (Section III).

All nondeterminism is seeded from (workload, core, frequency), so a
characterisation is a pure function of (profile, frequency, with_power) on
one platform.  The platform therefore characterises each such point once and
hands every later caller the same :class:`HwMeasurement` object: the
validation and power campaigns share their common (workload, OPP) points,
and callers must treat a measurement as read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# Named here so that numpy 2 loads numpy.random at start-up, not in a report.
from numpy.random import default_rng

from repro.events.armv7_pmu import events_for_core
from repro.sim.cpu import SimResult
from repro.sim.dvfs import OppTable, opp_table_for
from repro.sim.executor import SimExecutor, SimFrontEnd
from repro.sim.machine import MachineConfig, hardware_a7, hardware_a15
from repro.sim.power_ground_truth import PowerGroundTruth
from repro.workloads.profile import WorkloadProfile
from repro.workloads.trace import workload_seed

#: Simultaneously programmable PMU counters (plus the fixed cycle counter).
MAX_PMU_COUNTERS = 6

#: Power sensor sample rate of the ODROID-XU3 (INA231 averaged output).
SENSOR_HZ = 3.8

#: Minimum power-measurement window, as used in the paper.
POWER_WINDOW_SECONDS = 30.0

#: Thermal parameters: ambient and per-cluster thermal resistance (C/W).
AMBIENT_C = 28.0
THERMAL_RESISTANCE = {"A15": 10.0, "A7": 14.0}

#: A15 junction temperature that trips the thermal governor.
THROTTLE_TEMP_C = 82.0


@dataclass
class HwMeasurement:
    """One characterised (workload, frequency) point on the hardware.

    Attributes:
        workload: Workload name.
        core: ``"A7"`` or ``"A15"``.
        freq_hz: Requested core frequency.
        effective_freq_hz: Frequency actually sustained (lower if throttled).
        time_seconds: Median-of-five execution time of a single run.
        pmc: Event totals for one run, keyed by PMU event number.  Captured
            through counter multiplexing, so different events carry
            (deterministic) different run jitter.
        power_w: Mean cluster power over the sensor window (mean of the
            finite samples; NaN when every sample was lost).
        power_samples: The individual 3.8 Hz sensor readings, including any
            NaN readings a faulty sensor produced.
        temperature_c: Settled die temperature during the power run.
        throttled: True when the thermal governor reduced the frequency.
        threads: Active cores during the run.
        power_samples_lost: Sensor readings dropped or NaN during the
            window (0 on a healthy sensor).
    """

    workload: str
    core: str
    freq_hz: float
    effective_freq_hz: float
    time_seconds: float
    pmc: dict[int, float]
    power_w: float
    power_samples: np.ndarray
    temperature_c: float
    throttled: bool
    threads: int
    power_samples_lost: int = 0

    def rate(self, event: int) -> float:
        """Event rate in events/second over the run."""
        return self.pmc[event] / self.time_seconds

    def energy_j(self) -> float:
        """Energy of a single workload run at the measured mean power."""
        return self.power_w * self.time_seconds


class HardwarePlatform(SimFrontEnd):
    """The reference board: true micro-architecture plus measurement warts.

    Every simulation goes through ``executor`` (see
    :class:`~repro.sim.executor.SimFrontEnd`).  Without one the platform
    builds ``SimExecutor(faults=faults)``: uncached, guards off.  Pass a
    shared executor to add a disk cache or guards, and to batch both
    experiment arms through one executor.  ``faults`` also
    drives the power-sensor faults of :meth:`characterize`.
    """

    def __init__(
        self,
        core: str = "A15",
        trace_instructions: int = 60_000,
        machine: MachineConfig | None = None,
        executor: SimExecutor | None = None,
        faults=None,
    ):
        if machine is None:
            machine = hardware_a15() if core == "A15" else hardware_a7()
        if machine.core != core:
            raise ValueError(f"machine {machine.name} is not a {core} config")
        super().__init__(
            machine,
            trace_instructions,
            executor if executor is not None else SimExecutor(faults=faults),
        )
        self.core = core
        self.opps: OppTable = opp_table_for(core)
        self.power_process = PowerGroundTruth(core)
        self.faults = faults
        #: PMU event numbers this core implements.
        self._pmu_events = frozenset(e.number for e in events_for_core(core))
        #: Successful characterisations by (profile, freq_hz, with_power).
        self._measurements: dict[
            tuple[WorkloadProfile, float, bool], HwMeasurement
        ] = {}

    @staticmethod
    def repeat_count(profile: WorkloadProfile, trace_instructions: int) -> int:
        """How many trace passes one workload *run* represents.

        Derived purely from the workload definition (its nominal duration at
        1 GHz assuming CPI 1), never from measured behaviour, so the hardware
        run and the gem5 simulation represent the identical amount of work.
        """
        nominal = profile.natural_seconds * 1e9
        return max(1, round(nominal / trace_instructions))

    # ----------------------------------------------------------------- public
    def characterize(
        self, profile: WorkloadProfile, freq_hz: float, with_power: bool = True
    ) -> HwMeasurement:
        """Run Experiment-1-style characterisation of one workload.

        Execution time is the median of five jittered runs; PMCs are captured
        in multiplexed groups of six; power (optional) is measured over a
        >=30 s repeated-execution window at the settled die temperature.

        Each (profile, freq_hz, with_power) point is characterised once per
        platform: a repeated call returns the memoised measurement itself,
        shared with every earlier caller, so callers must not mutate it.  A
        call that raises stores nothing and is retried by the next call.
        """
        key = (profile, freq_hz, with_power)
        measurement = self._measurements.get(key)
        if measurement is None:
            measurement = self._characterize(profile, freq_hz, with_power)
            self._measurements[key] = measurement
        return measurement

    def _characterize(
        self, profile: WorkloadProfile, freq_hz: float, with_power: bool
    ) -> HwMeasurement:
        voltage = self.opps.voltage(freq_hz)
        sim = self._sim(profile)
        repeat = self.repeat_count(profile, self.trace_instructions)

        effective_freq, throttled = self._thermal_frequency(profile, freq_hz, voltage)
        single_time = sim.time_seconds(effective_freq) * repeat

        rng = default_rng(
            workload_seed(profile.name, f"hw-{self.core}-{freq_hz:.0f}")
        )
        run_times = single_time * (1.0 + rng.normal(0.0, 0.004, size=5))
        # The middle of the five sorted runs: np.median's value, without its
        # NaN check, which imports numpy.ma on first use.
        time_seconds = float(np.sort(run_times)[run_times.size // 2])

        # The PMU is read system-wide: counts aggregate over all active
        # cores (threads are homogeneous), like perf's per-cluster counting
        # on the real board.
        pmc = self._multiplexed_pmc(
            sim, effective_freq, time_seconds, repeat * profile.threads, rng
        )

        if with_power:
            power_w, samples, temperature, samples_lost = self._measure_power(
                sim, profile, effective_freq, voltage, time_seconds, rng
            )
        else:
            power_w, samples, temperature, samples_lost = (
                float("nan"), np.empty(0), AMBIENT_C, 0
            )

        return HwMeasurement(
            workload=profile.name,
            core=self.core,
            freq_hz=freq_hz,
            effective_freq_hz=effective_freq,
            time_seconds=time_seconds,
            pmc=pmc,
            power_w=power_w,
            power_samples=samples,
            temperature_c=temperature,
            throttled=throttled,
            threads=profile.threads,
            power_samples_lost=samples_lost,
        )

    def measure_events(
        self, profile: WorkloadProfile, freq_hz: float, events: list[int]
    ) -> dict[int, float]:
        """Programme specific PMU counters (at most six) for one run."""
        if len(events) > MAX_PMU_COUNTERS:
            raise ValueError(
                f"the PMU has {MAX_PMU_COUNTERS} programmable counters; "
                f"{len(events)} requested — multiplex across runs instead"
            )
        measurement = self.characterize(profile, freq_hz, with_power=False)
        unknown = [e for e in events if e not in measurement.pmc]
        if unknown:
            raise KeyError(f"events not implemented by the {self.core} PMU: {unknown}")
        return {e: measurement.pmc[e] for e in events}

    # --------------------------------------------------------------- internals
    def _thermal_frequency(
        self, profile: WorkloadProfile, freq_hz: float, voltage: float
    ) -> tuple[float, bool]:
        """Thermal governor: the A15 cannot sustain 2 GHz (Section III)."""
        if self.core != "A15" or freq_hz < 1.9e9:
            return freq_hz, False
        # Estimate settled temperature at the requested OPP; throttle to the
        # next OPP down when it exceeds the trip point.
        sim = self._sim(profile)
        time_s = sim.time_seconds(freq_hz)
        counts = self._scaled_counts(sim, 1)
        counts["cycles"] = sim.cycles(freq_hz)
        power = self.power_process.cluster_power(
            counts, time_s, voltage, freq_hz, profile.threads, temperature_c=80.0
        )
        temperature = AMBIENT_C + THERMAL_RESISTANCE[self.core] * power
        if temperature > THROTTLE_TEMP_C:
            return 1.8e9, True
        return freq_hz, False

    @staticmethod
    def _scaled_counts(sim: SimResult, repeat: int) -> dict[str, float]:
        return {key: value * repeat for key, value in sim.counts.items()}

    def _multiplexed_pmc(
        self,
        sim: SimResult,
        freq_hz: float,
        time_seconds: float,
        repeat: int,
        rng: np.random.Generator,
    ) -> dict[int, float]:
        """Capture the full event set through groups of six counters.

        Each group of events comes from a separate (jittered) run, exactly
        like the paper's repeated Experiment-1 sweeps over 68 events.

        All draws come from one ``standard_normal`` call, in the order the
        runs happen: each group's jitter, then that group's event noise,
        then the cycle counter's.  ``rng.normal(0, sigma)`` is
        ``0.0 + sigma * z`` over the same stream, and ``1.0 + sigma * z``
        rounds identically, so the counts are those of one ``rng.normal``
        call per draw.
        """
        ideal = self._ideal_pmc(sim, freq_hz, time_seconds, repeat)
        numbers = sorted(ideal)
        n_groups = -(-len(numbers) // MAX_PMU_COUNTERS)
        draws = iter(rng.standard_normal(len(numbers) + n_groups + 1).tolist())
        pmc: dict[int, float] = {}
        for group_start in range(0, len(numbers), MAX_PMU_COUNTERS):
            group_jitter = 1.0 + 0.004 * next(draws)
            for event in numbers[group_start:group_start + MAX_PMU_COUNTERS]:
                event_noise = 1.0 + 0.002 * next(draws)
                pmc[event] = ideal[event] * group_jitter * event_noise
        pmc[0x11] = ideal[0x11] * (1.0 + 0.001 * next(draws))  # cycle counter
        return pmc

    def _ideal_pmc(
        self, sim: SimResult, freq_hz: float, time_seconds: float, repeat: int
    ) -> dict[int, float]:
        """Map neutral simulator counts onto the ARMv7 PMU event space."""
        counts = self._scaled_counts(sim, repeat)
        get = counts.get
        loads = get("inst_load", 0.0) + get("inst_ldrex", 0.0)
        stores = get("inst_store", 0.0) + get("inst_strex", 0.0)
        mem_accesses = get("l1d_rd_accesses", 0.0) + get("l1d_wr_accesses", 0.0)
        load_share = loads / max(loads + stores, 1.0)
        spec = get("spec_instructions", 0.0) / max(get("instructions", 1.0), 1.0)
        cycles = sim.cycles(freq_hz) * repeat
        barriers = get("inst_barrier", 0.0)
        unaligned = get("unaligned_accesses", 0.0)

        pmc = {
            0x00: 0.0,  # SW_INCR: no software increments in these workloads
            0x01: get("l1i_misses", 0.0),
            0x02: get("itlb_misses", 0.0),
            # Refill events count allocations; streaming stores bypass the
            # cache entirely and therefore do not refill.
            0x03: get("l1d_rd_misses", 0.0) + get("l1d_wr_refills", 0.0),
            0x04: mem_accesses,
            0x05: get("dtlb_misses", 0.0),
            0x06: loads,
            0x07: stores,
            0x08: get("instructions", 0.0),
            0x09: get("itlb_walks", 0.0) * 0.01,
            0x0A: get("itlb_walks", 0.0) * 0.01,
            0x0B: 0.0,
            0x0C: get("branches", 0.0),
            0x0D: get("cond_branches", 0.0) + get("calls", 0.0),
            0x0E: get("returns", 0.0),
            0x0F: unaligned,
            0x10: get("branch_mispredicts", 0.0),
            0x11: cycles,
            0x12: get("cond_branches", 0.0) * spec,
            0x13: mem_accesses,
            # The A15 PMU counts one L1I access per fetch window (up to four
            # instructions; taken branches cut windows short), not one per
            # instruction the way gem5 does — the paper's ~2x divergence.
            0x14: get("instructions", 0.0) * 0.52,
            0x15: get("l1d_writebacks", 0.0),
            0x16: get("l2_rd_accesses", 0.0) + get("l2_wr_accesses", 0.0),
            0x17: get("l2_rd_misses", 0.0) + get("l2_wr_misses", 0.0),
            0x18: get("l2_writebacks", 0.0),
            0x19: get("dram_reads", 0.0) + get("dram_writes", 0.0),
            0x1B: get("spec_instructions", 0.0),
            0x1C: 0.0,
            0x1D: time_seconds * 400e6,  # 400 MHz memory bus
        }
        if self.core == "A15":
            strex = get("inst_strex", 0.0)
            pmc.update(
                {
                    0x40: get("l1d_rd_accesses", 0.0),
                    0x41: get("l1d_wr_accesses", 0.0),
                    0x42: get("l1d_rd_misses", 0.0),
                    0x43: get("l1d_wr_refills", 0.0),
                    0x4C: get("dtlb_misses", 0.0) * load_share,
                    0x4D: get("dtlb_misses", 0.0) * (1.0 - load_share),
                    0x50: get("l2_rd_accesses", 0.0),
                    0x51: get("l2_wr_accesses", 0.0),
                    0x52: get("l2_rd_misses", 0.0),
                    0x53: get("l2_wr_misses", 0.0),
                    0x60: get("dram_reads", 0.0),
                    0x61: get("dram_writes", 0.0),
                    0x62: (get("dram_reads", 0.0) + get("dram_writes", 0.0)) * 0.9,
                    0x63: (get("dram_reads", 0.0) + get("dram_writes", 0.0)) * 0.1,
                    0x64: get("dram_reads", 0.0) + get("dram_writes", 0.0),
                    0x65: 0.0,
                    0x66: get("l1d_rd_accesses", 0.0),
                    0x67: get("l1d_wr_accesses", 0.0),
                    0x68: unaligned * load_share,
                    0x69: unaligned * (1.0 - load_share),
                    0x6A: unaligned,
                    0x6C: get("inst_ldrex", 0.0) * spec,
                    0x6D: strex * 0.98,
                    0x6E: strex * 0.02,
                    0x70: loads * spec,
                    0x71: stores * spec,
                    0x72: (loads + stores) * spec,
                    0x73: (
                        get("inst_int_alu", 0.0)
                        + get("inst_mul", 0.0)
                        + get("inst_div", 0.0)
                    ) * spec,
                    0x74: get("inst_simd", 0.0) * spec,
                    0x75: get("inst_fp", 0.0) * spec,
                    0x76: get("branches", 0.0) * spec,
                    0x78: (get("cond_branches", 0.0) + get("calls", 0.0)) * spec,
                    0x79: get("returns", 0.0) * spec,
                    0x7A: get("indirect_branches", 0.0) * spec,
                    0x7C: barriers * 0.05,
                    0x7D: barriers * 0.25,
                    0x7E: barriers * 0.70,
                }
            )
        available = self._pmu_events
        return {number: value for number, value in pmc.items() if number in available}

    def _measure_power(
        self,
        sim: SimResult,
        profile: WorkloadProfile,
        freq_hz: float,
        voltage: float,
        single_run_seconds: float,
        rng: np.random.Generator,
    ) -> tuple[float, np.ndarray, float, int]:
        """Sensor-sampled mean power over a >=30 s repeated-run window.

        Returns ``(mean power, samples, die temperature, samples lost)``.
        The mean is taken over the *finite* samples, so a sensor that drops
        readings or emits NaN (see :mod:`repro.sim.faults`) degrades the
        measurement instead of poisoning it; with no faults installed the
        value is bit-identical to the plain mean.
        """
        counts = self._scaled_counts(sim, 1)
        counts["cycles"] = sim.cycles(freq_hz)
        trace_time = sim.time_seconds(freq_hz)

        # Settle the die temperature: power depends on leakage depends on
        # temperature; a few fixed-point iterations converge.
        temperature = AMBIENT_C + 20.0
        power = 0.0
        for _ in range(4):
            power = self.power_process.cluster_power(
                counts, trace_time, voltage, freq_hz, profile.threads, temperature
            )
            temperature = AMBIENT_C + THERMAL_RESISTANCE[self.core] * power

        # Run-to-run measurement conditions: ambient temperature, regulator
        # tolerance and storage-media timing shift the whole run's power by
        # a few percent (the effects the paper lists when its re-validation
        # of the published Powmon coefficients lands at 5.6 % instead of
        # 2.8 %).  Systematic per-(workload, OPP), not per-sample.
        conditions = 1.0 + rng.normal(0.0, 0.028)
        power *= conditions

        window = max(POWER_WINDOW_SECONDS, single_run_seconds)
        n_samples = max(8, int(window * SENSOR_HZ))
        drift = 1.0 + 0.01 * np.sin(np.linspace(0.0, 2.2 * math.pi, n_samples))
        noise = rng.normal(0.0, 0.008, size=n_samples)
        samples = power * drift * (1.0 + noise) + rng.normal(0.0, 0.002, n_samples)
        samples = np.round(np.clip(samples, 0.0, None), 3)  # mW quantisation

        samples_lost = 0
        if self.faults is not None:
            samples, samples_lost = self.faults.apply_power_faults(
                profile.name, f"{self.core}-{freq_hz:.0f}", samples
            )
        valid = samples[np.isfinite(samples)]
        mean_power = float(valid.mean()) if valid.size else float("nan")
        return mean_power, samples, temperature, samples_lost
