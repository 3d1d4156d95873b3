"""lmbench-style micro-benchmarks (Section IV-A, Fig. 4).

``lat_mem_rd``-equivalent: a dependent pointer chase over an array of a given
size with a fixed stride; the measured ns-per-access curve steps at each
level of the memory hierarchy.  Run against both machine configurations it
reads out the paper's Fig. 4 findings directly: the model's DRAM latency is
too low and the gem5 Cortex-A7 L2 latency too high, while the L1 regions
match.

Because a pointer chase is a single dependency chain, no memory-level
parallelism applies; the probe therefore runs the machine with its overlap
factors disabled, exactly as the real micro-benchmark defeats the hardware's
MLP by construction.

Each probe is a :class:`~repro.sim.result_cache.SimJob` run on a private
serial, uncached :class:`~repro.sim.executor.SimExecutor`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

from repro.sim.executor import SimExecutor
from repro.sim.machine import MachineConfig
from repro.sim.result_cache import SimJob
from repro.workloads.profile import WorkloadProfile

#: Default probe sizes (KiB), log-spaced through the hierarchy.
DEFAULT_SIZES_KB: tuple[int, ...] = (
    4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
)


@dataclass(frozen=True)
class LatencyPoint:
    """One point of the lat_mem_rd curve."""

    size_kb: int
    ns_per_access: float


def _chase_profile(size_kb: int, stride_b: int) -> WorkloadProfile:
    return WorkloadProfile(
        name=f"lat-mem-{size_kb}k-s{stride_b}",
        suite="microbench",
        frac_load=0.45,
        frac_store=0.01,
        frac_branch=0.10,
        loop_branch_frac=0.90,
        pattern_branch_frac=0.02,
        biased_branch_frac=0.05,
        random_branch_frac=0.03,
        loop_trip_mean=300,
        n_functions=1,
        code_kb=4,
        data_kb=float(size_kb),
        frac_seq=0.01,
        frac_stride=0.01,
        stride_b=stride_b,
        frac_rand=0.98,
        ilp=1.0,
        natural_seconds=1.0,
    )


def _chain_machine(machine: MachineConfig) -> MachineConfig:
    """The machine as a dependent chain sees it: zero overlap."""
    return dc_replace(
        machine, mem_overlap=0.0, dram_overlap=0.0, store_miss_exposure=1.0
    )


def memory_latency_sweep(
    machine: MachineConfig,
    freq_hz: float = 1.0e9,
    sizes_kb: tuple[int, ...] = DEFAULT_SIZES_KB,
    stride_b: int = 256,
    n_instrs: int = 40_000,
) -> list[LatencyPoint]:
    """lat_mem_rd: average load latency vs array size (Fig. 4).

    Args:
        machine: Machine configuration to probe.
        freq_hz: Core frequency during the probe.
        sizes_kb: Array sizes to sweep.
        stride_b: Chase stride in bytes (the paper plots stride 256).
        n_instrs: Probe trace length.

    Returns:
        One :class:`LatencyPoint` per size, in sweep order.
    """
    probe_machine = _chain_machine(machine)
    results = SimExecutor().run_many(
        [
            SimJob(_chase_profile(size_kb, stride_b), n_instrs, probe_machine)
            for size_kb in sizes_kb
        ]
    )
    points = []
    for size_kb, result in zip(sizes_kb, results):
        # Attribute all memory-related stall time to the loads; the base
        # pipeline cost per access is the in-cache (L1) latency floor.
        loads = result.counts["inst_load"]
        mem_components = (
            result.components["dcache"]
            + result.components["dtlb"]
            + result.components["load_use"]
        )
        dram_seconds = (
            result.dram_stall_weight * probe_machine.dram_latency_ns * 1e-9
        )
        l1_floor_cycles = loads * machine.l1d.latency
        seconds = (mem_components + l1_floor_cycles) / freq_hz + dram_seconds
        points.append(
            LatencyPoint(size_kb=size_kb, ns_per_access=seconds / loads * 1e9)
        )
    return points


def op_latency_table(machine: MachineConfig) -> dict[str, float]:
    """Exposed operation latencies in cycles (the lmbench ops probes)."""
    return {
        "int_add": 1.0,
        "int_mul": 1.0 + machine.mul_penalty,
        "int_div": 1.0 + machine.div_penalty,
        "fp_add": 1.0 + machine.fp_penalty,
        "simd": 1.0 + machine.simd_penalty,
        "load_l1": float(machine.l1d.latency),
        "load_l2": float(machine.l1d.latency + machine.l2.latency),
    }


def memory_bandwidth(
    machine: MachineConfig,
    freq_hz: float = 1.0e9,
    size_kb: int = 8192,
    n_instrs: int = 40_000,
) -> float:
    """Streaming read bandwidth in bytes/second (bw_mem equivalent)."""
    profile = WorkloadProfile(
        name=f"bw-mem-{size_kb}k",
        suite="microbench",
        frac_load=0.50,
        frac_store=0.02,
        frac_branch=0.08,
        loop_branch_frac=0.92,
        pattern_branch_frac=0.02,
        biased_branch_frac=0.04,
        random_branch_frac=0.02,
        loop_trip_mean=400,
        n_functions=1,
        code_kb=4,
        data_kb=float(size_kb),
        frac_seq=0.98,
        frac_stride=0.01,
        frac_rand=0.01,
        ilp=2.2,
        natural_seconds=1.0,
    )
    result = SimExecutor().run(SimJob(profile, n_instrs, machine))
    seconds = result.time_seconds(freq_hz)
    bytes_read = result.counts["inst_load"] * 8.0  # 64-bit stream loads
    return bytes_read / seconds
