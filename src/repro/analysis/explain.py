"""``simlint --explain SLxxx``: the rationale and a worked fix per rule.

Every rule in the registry must have an entry here (a test enforces
it); the text is what a contributor sees when a finding confuses them,
so it answers *why the rule exists in this simulator* and shows a
minimal before/after, not just a restatement of the message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Explanation:
    """Long-form documentation of one rule."""

    code: str
    rationale: str       # why the rule exists in this codebase
    fix: str             # a minimal before/after example

    def format(self, summary: str) -> str:
        return (f"{self.code}: {summary}\n\n{self.rationale.strip()}\n\n"
                f"Fix:\n{self.fix.strip()}\n")


EXPLANATIONS: Dict[str, Explanation] = {}


def _explain(code: str, rationale: str, fix: str) -> None:
    EXPLANATIONS[code] = Explanation(code, rationale, fix)


_explain(
    "SL001",
    """
Every experiment must be byte-for-byte reproducible from its manifest
(run name + rng_seed + config).  Wall-clock reads and the shared
module-level RNG both smuggle in state the manifest cannot capture:
time.time() differs per run, and random.random() depends on whatever
drew from the global stream earlier in the process.  All randomness
flows from repro.engine.rng.derive_rng, rooted at SystemConfig.rng_seed;
all timing flows from SimClock cycles.
""",
    """
    # before
    delay = random.randrange(4)
    stamp = time.time()
    # after
    rng = derive_rng(None, seed, stream=3)
    delay = rng.randrange(4)
    stamp = clock.now()            # cycles, not seconds
""")

_explain(
    "SL002",
    """
Table 2 of the paper is the timing model; SystemConfig is its single
in-repo owner.  A latency literal buried in a component (miss_latency=30
as a default argument) silently forks the model: sweeps change the
config but not the literal, and results stop corresponding to any
config that was actually recorded in the manifest.  The engine and
repro.config are exempt — they define what a cycle is.
""",
    """
    # before
    def __init__(self, miss_latency: int = 30): ...
    # after: route through Table 2
    def __init__(self, config: SystemConfig):
        self.miss_latency = config.dram_access_latency
""")

_explain(
    "SL003",
    """
Counters kept as bare self attributes (self.hits += 1) are invisible to
StatsRegistry.snapshot()/reset()/merge(), so they leak across phases
(warm-up counts pollute measurement), vanish from results/*.json, and
cannot be merged across sharded campaign workers.  Any Component
counter that is ever incremented must be registered — either as a named
counter or wholesale via own_block()/register_block().
""",
    """
    # before
    self.hits = 0 ... self.hits += 1
    # after
    self._hits = self.stats_scope.counter("hits")
    ... self._hits.add(1)
    # or adopt a dataclass block: self.own_block("tlb", self.stats)
""")

_explain(
    "SL004",
    """
The layer DAG (engine -> {mem, core, cpu, osmodel, obs} -> techniques
-> {eval, workloads, sparse, robust}) is what keeps the kernel
importable without dragging in experiment code, and what lets the
analysis and obs layers reason about the machine without cycles.  An
upward import-time import (engine importing techniques, say) makes the
import order load-bearing and eventually circular.  Runtime-only
imports inside functions are exempt — the rule checks import time.
""",
    """
    # before (in repro/engine/foo.py)
    from ..techniques.dedup import DedupController
    # after: invert the dependency — techniques call into the engine,
    # or the shared type moves down into the engine/core layer.
""")

_explain(
    "SL005",
    """
Component.init_component wires the three invariants every model node
relies on: membership in the component tree (teardown, traversal), a
stats scope under the parent's, and the shared SimClock.  A subclass
whose __init__ skips it (and never calls super().__init__) is a node
the machine cannot see: its stats never export and its clock cursor
free-runs.  Rebinding sim_clock after wiring forks the timeline the
same way.
""",
    """
    # before
    class MyTLB(Component):
        def __init__(self, cfg): self.cfg = cfg
    # after
    class MyTLB(Component):
        def __init__(self, cfg):
            super().__init__()     # or self.init_component(...)
            self.cfg = cfg
""")

_explain(
    "SL006",
    """
Hot-path objects (per-access records, per-line metadata) are allocated
millions of times per run; without __slots__ each instance also carries
a dict, which dominates simulator memory at Figure-8 scales.  A module
opts in with a '# simlint: hot-path' comment in its first lines; every
top-level class there must then declare __slots__.  Dataclasses,
Component subclasses and exceptions are exempt (they need the instance
dict).
""",
    """
    # before (in a '# simlint: hot-path' module)
    class LineState:
        def __init__(self): self.dirty = False
    # after
    class LineState:
        __slots__ = ("dirty",)
        def __init__(self): self.dirty = False
""")

_explain(
    "SL007",
    """
The sharded campaign fleet runs workers under multiprocessing; any
module-level mutable that functions write to (hook slots, mode
defaults, workload caches) is process-wide state a forked or spawned
worker inherits — or misses — unpredictably, so two workers can
disagree with a serial run while every manifest claims the same seed.
repro.engine.process_state is the registry that makes such state
enumerable and resettable (snapshot_all/reset_all/fork_guard); this
rule proves the registry is *complete* by finding every module-level
global in a ranked layer that is mutated from function scope and
demanding a register() call with its dotted name.  Constants built in
steps at module scope are exempt — only post-import mutation makes
process state.
""",
    """
    # before (repro/engine/clock.py)
    _DEFAULT_MAX_CYCLES = None
    def set_default_max_cycles(limit):
        global _DEFAULT_MAX_CYCLES
        _DEFAULT_MAX_CYCLES = limit
    # after: same, plus the registration
    register_process_state(
        "repro.engine.clock._DEFAULT_MAX_CYCLES",
        snapshot=lambda: _DEFAULT_MAX_CYCLES,
        reset=_reset_default_max_cycles)
""")

_explain(
    "SL008",
    """
repro.engine.tracing promises zero overhead when tracing is off: an
unarmed slot must cost one 'is not None' test and nothing else.  A
call through HOOKS.active/sampler/faults that is not dominated by an
armed-check builds event payloads on every hot-path operation even
with tracing disabled — the exact overhead the slot design exists to
avoid.  The rule also checks the other direction: the architectural-
state modules (OMT, overlay bit vectors, TLB, coherence, OMS, DRAM,
hierarchy) must each have at least one guarded hook site reachable
from their class methods, or the tracer is blind to the state the
paper's mechanisms mutate.
""",
    """
    # before
    HOOKS.active.emit("tlb_fill", vpn=vpn)
    # after (guard directly...)
    if HOOKS.active is not None:
        HOOKS.active.emit("tlb_fill", vpn=vpn)
    # ...or alias once per method with several emits)
    sink = HOOKS.active
    if sink is not None:
        sink.emit("tlb_fill", vpn=vpn)
""")

_explain(
    "SL009",
    """
Results documents are validated against the JSON schemas in
repro.obs.schema — but only at runtime, only on exercised paths.
Three drifts survive that: a producer emits a key the schema never
validates (or loses a required key, failing every run); a deliberately
duplicated literal (campaign.OUTCOMES vs schema.FAULT_OUTCOMES —
duplicated because layering forbids obs importing robust) drifts; or
the profiler reads a stats scalar by a name no component registers,
silently attributing zero cycles.  This rule cross-checks all three
statically, resolving producers and schemas through the project symbol
table so renames break loudly.
""",
    """
    # before: producer gained a key the schema doesn't know
    doc = {"manifest": ..., "data": ..., "extra": 1}
    # after: declare it (or drop it)
    RUN_SCHEMA["properties"]["extra"] = {"type": "integer"}
    # stats drift: fix whichever side renamed —
    scalars.get("row_hits", 0)   # must match DRAMStats.row_hits
""")
