"""``repro.engine`` — the component kernel the simulator is built on.

The engine owns the four cross-cutting concerns every hardware model in
this repository needs and previously reimplemented by hand:

* :class:`~repro.engine.component.Component` — a named node in the
  machine's component tree, carrying a stats scope and the shared clock;
* :class:`~repro.engine.clock.SimClock` — the single simulation
  timeline, with per-component :class:`~repro.engine.clock.ClockCursor`
  views for event-driven interleaving;
* :class:`~repro.engine.stats.StatsRegistry` — a hierarchical registry
  of named counters/gauges and adopted stat blocks, with ``snapshot()``,
  ``reset()``, ``merge()`` and a tree-formatted dump;
* :class:`~repro.engine.port.Port` — typed request/response channels
  (with latency accounting) between components, replacing bare
  callables;
* :class:`~repro.engine.builder.SystemBuilder` — config-driven wiring:
  the whole machine (hierarchy, TLBs, DRAM, cores) is derived from one
  :class:`~repro.config.SystemConfig`, so Table 2 lives in exactly one
  place;
* :func:`~repro.engine.rng.derive_rng` — seeded-RNG derivation, so
  every synthetic-input generator draws from an explicit
  ``random.Random`` rooted at ``SystemConfig.rng_seed`` (simlint SL001);
* :mod:`~repro.engine.tracing` — the opt-in trace-hook slot every
  engine structure publishes events through (free when no sink is
  installed; the recorder lives in :mod:`repro.obs`);
* :mod:`~repro.engine.process_state` — the registry of every
  process-wide mutable (hook slots, the watchdog default,
  workload caches) with ``snapshot_all``/``reset_all``/``fork_guard``,
  so worker processes start deterministic by construction (simlint
  SL007 enforces registration).
"""

from . import process_state, tracing
from .clock import (ClockCursor, ClockError, SimClock, SimulationHangError,
                    default_max_cycles, set_default_max_cycles)
from .component import Component
from .port import (FetchPort, MissPort, MissResolution, Port, PortError,
                   WritebackPort)
from .stats import Counter, Gauge, StatsError, StatsRegistry, merge_blocks, snapshot_block
from .builder import SystemBuilder
from .rng import derive_rng, resolve_seed
from .tracing import CycleSampler, FaultHook, TraceError, TraceSink

__all__ = [
    "ClockCursor", "ClockError", "SimClock", "SimulationHangError",
    "default_max_cycles", "set_default_max_cycles",
    "Component",
    "FetchPort", "MissPort", "MissResolution", "Port", "PortError",
    "WritebackPort",
    "Counter", "Gauge", "StatsError", "StatsRegistry",
    "merge_blocks", "snapshot_block",
    "SystemBuilder",
    "derive_rng", "resolve_seed",
    "process_state",
    "tracing", "CycleSampler", "FaultHook", "TraceError", "TraceSink",
]
