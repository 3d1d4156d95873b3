"""Full-system simulators: the hardware reference and the gem5-style model.

* :mod:`repro.sim.machine` — machine configurations.  The *hardware* configs
  carry the true Cortex-A7/A15 parameters; the *gem5* configs carry the
  documented specification errors of ``ex5_LITTLE.py`` / ``ex5_big.py``.
* :mod:`repro.sim.cpu` — the shared trace-driven CPU simulator.  Each
  :func:`simulate` call replays one trace on a fresh micro-architectural
  state; its :class:`SimResult` projects time and cycles to any DVFS
  operating point without another replay.
* :mod:`repro.sim.dvfs` — operating performance points and voltage tables.
* :mod:`repro.sim.platform` — the ODROID-XU3-like hardware platform with a
  multiplexed PMU, 3.8 Hz power sensors, and thermal throttling.
* :mod:`repro.sim.gem5` — the gem5-style simulation wrapper emitting stats in
  the gem5 namespace.
* :mod:`repro.sim.power_ground_truth` — the "silicon" power process.
* :mod:`repro.sim.executor` — fault-tolerant in-process execution of
  independent simulation jobs, with dedup, disk caching, bounded retry,
  guards and telemetry.  It is the library's one way into
  :func:`simulate`.
* :mod:`repro.sim.campaign` — sharded campaigns over a shared job board,
  the one way to simulate across processes: each shard runs its claims
  through its own executor.
* :mod:`repro.sim.faults` — deterministic fault injection (job crashes,
  out-of-memory jobs, shard crashes and lease stalls, cache corruption,
  power-sample loss) for chaos testing.
"""

from repro.sim.cpu import SimResult, simulate
from repro.sim.dvfs import OperatingPoint, OppTable, opp_table_for
from repro.sim.executor import (
    RetryPolicy,
    SimExecutor,
    SimJobError,
    SimJobFailure,
    SimTelemetry,
    prime_engines,
)
from repro.sim.faults import FaultPlan, FaultSpec, InjectedFault
from repro.sim.gem5 import Gem5Simulation, Gem5Stats
from repro.sim.machine import (
    CacheGeometry,
    MachineConfig,
    gem5_ex5_big,
    gem5_ex5_big_fixed_bp,
    gem5_ex5_little,
    hardware_a7,
    hardware_a15,
    machine_by_name,
)
from repro.sim.platform import HardwarePlatform, HwMeasurement
from repro.sim.power_ground_truth import PowerGroundTruth

__all__ = [
    "SimResult",
    "simulate",
    "OperatingPoint",
    "OppTable",
    "opp_table_for",
    "Gem5Simulation",
    "Gem5Stats",
    "CacheGeometry",
    "MachineConfig",
    "gem5_ex5_big",
    "gem5_ex5_big_fixed_bp",
    "gem5_ex5_little",
    "hardware_a7",
    "hardware_a15",
    "machine_by_name",
    "HardwarePlatform",
    "HwMeasurement",
    "PowerGroundTruth",
    "RetryPolicy",
    "SimExecutor",
    "SimJobError",
    "SimJobFailure",
    "SimTelemetry",
    "prime_engines",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
]
