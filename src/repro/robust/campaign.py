"""Fault-injection campaigns: sweep rates, classify outcomes, emit JSON.

The harness tying the robustness layer together.  Each **trial** runs a
deterministic synthetic workload twice on identical machines — once
golden (no faults) and once with a :class:`~repro.robust.FaultPlan`
armed — and classifies what the faults did to the architectural memory
image (every mapped page read back through
:meth:`~repro.core.framework.OverlaySystem.page_bytes`):

``crash``
    the faulted run raised (e.g. a corrupted OMS slot pointer
    dereferenced) — highest precedence;
``detected_recovered``
    the :class:`~repro.robust.InvariantChecker` flagged at least one
    violation and the final image still matches the golden run —
    detection plus recovery preserved correctness;
``corrected``
    no architectural violation, but the ECC model corrected or
    retried DRAM errors, and the image matches;
``masked``
    faults were injected (or none fired) and the image matches anyway —
    the corruption was architecturally dead;
``silent_corruption``
    the final image differs from the golden run.  When ``detections``
    is nonzero the corruption was *seen* but recovery failed to restore
    the image; it still counts as data corruption, not success.

A **campaign** sweeps a list of fault-rate multipliers over a base
plan, tallies outcomes per rate, and writes
``results/<name>.faults.json`` through the crash-safe
:func:`repro.obs.export.write_json`.  The document embeds the
*deterministic* manifest half only, so the same ``rng_seed`` plus the
same plan reproduce the artifact byte for byte (the CI robustness job
asserts exactly this).

Because every trial builds its own machines and derives its own RNG
streams, a campaign decomposes into per-(rate, trial) shards: pass
``fleet_workers`` to run them through :func:`repro.fleet.run_fleet`
(content-addressed caching, ``resume=True`` to reuse a previous —
possibly killed — run's shard artifacts).  The merged document is
byte-identical to the serial path's; the CI fleet job asserts this.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config import DEFAULT_CONFIG, SystemConfig
from ..core.address import PAGE_SIZE
from ..engine.rng import derive_rng, resolve_seed
from ..fleet.runner import run_fleet
from ..fleet.shards import Shard
from ..obs.export import default_results_dir, write_json
from ..obs.manifest import RunManifest
from ..obs.schema import FAULTS_SCHEMA, validate
from ..osmodel.kernel import Kernel
from .faults import FaultPlan, fault_session
from .invariants import InvariantChecker

#: Trial outcome classes, in classification precedence order.
OUTCOMES = ("masked", "corrected", "detected_recovered",
            "silent_corruption", "crash")

#: RNG stream for the synthetic workload (decorrelated from the fault
#: stream so arming faults never changes the access sequence).
WORKLOAD_STREAM = 9100

#: First virtual page of the workload's mapped region.
BASE_VPN = 0x100

#: Per-site weights the rate multiplier scales (see
#: :meth:`FaultPlan.scaled`): mapping-state flips dominate, coherence
#: and segment-metadata faults are rarer, as soft-error cross sections
#: scale with structure size.
DEFAULT_BASE_PLAN = FaultPlan(
    omt_flip_rate=1.0,
    obitvector_flip_rate=1.0,
    tlb_fill_flip_rate=1.0,
    coherence_drop_rate=0.5,
    coherence_delay_rate=0.5,
    dram_error_rate=1.0,
    segment_pointer_rate=0.25,
)

#: Decorrelation strides for per-trial fault seeds.  Distinct primes
#: keep (rate, trial) pairs apart, but that is *checked*, not assumed:
#: :func:`fault_seed_grid` raises on any duplicate derived seed.
_RATE_STRIDE = 7919
_TRIAL_STRIDE = 104729


def fault_seed_grid(fault_base_seed: int, num_rates: int, trials: int, *,
                    rate_stride: int = _RATE_STRIDE,
                    trial_stride: int = _TRIAL_STRIDE) -> List[List[int]]:
    """Per-(rate, trial) fault seeds, verified collision-free.

    Two grid cells sharing a seed would inject *identical* fault
    sequences while claiming to be independent trials — silently
    narrowing the campaign's coverage.  The stride arithmetic makes
    that impossible for any grid smaller than ``trial_stride`` rates by
    ``rate_stride`` trials, but rather than trust the comment this
    builds the full seed set and raises :class:`ValueError` naming the
    first colliding pair.
    """
    if num_rates < 0 or trials < 0:
        raise ValueError(f"grid dimensions must be >= 0, got "
                         f"{num_rates} rate(s) x {trials} trial(s)")
    seen: Dict[int, Tuple[int, int]] = {}
    grid: List[List[int]] = []
    for rate_index in range(num_rates):
        row = []
        for trial in range(trials):
            fault_seed = (fault_base_seed + rate_stride * rate_index
                          + trial_stride * trial)
            if fault_seed in seen:
                first_rate, first_trial = seen[fault_seed]
                raise ValueError(
                    f"fault seed collision across the rate x trial grid: "
                    f"(rate {rate_index}, trial {trial}) and "
                    f"(rate {first_rate}, trial {first_trial}) both derive "
                    f"seed {fault_seed} with strides {rate_stride}/"
                    f"{trial_stride}; such trials would inject identical "
                    f"fault sequences")
            seen[fault_seed] = (rate_index, trial)
            row.append(fault_seed)
        grid.append(row)
    return grid


def synthesize_workload(rng, ops: int, pages: int) -> List[Tuple]:
    """A deterministic op list: CoW-heavy writes, reads, promotions.

    The mix exercises every injection site: writes drive overlaying
    writes (coherence messages, OMT updates), reads drive TLB fills,
    DRAM reads and OMT walks, the occasional cache flush pushes dirty
    overlay lines into OMS segments (whose metadata the segment-pointer
    fault targets), and ``commit`` promotions drive broadcast commits
    and segment frees.

    *ops* must be non-negative and *pages* must map a span wider than
    the 8-byte accesses the mix places (with 4 KiB pages: at least one
    page); degenerate inputs raise :class:`ValueError` up front instead
    of crashing inside ``rng.randrange`` mid-generation.
    """
    if ops < 0:
        raise ValueError(f"ops must be >= 0, got {ops}")
    span = pages * PAGE_SIZE
    if span <= 8:
        raise ValueError(
            f"workload span must exceed 8 bytes to place 8-byte accesses: "
            f"pages={pages} gives a {span}-byte span; pass pages >= 1")
    base = BASE_VPN * PAGE_SIZE
    result: List[Tuple] = []
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.55:
            vaddr = base + rng.randrange(span - 8)
            value = bytes([rng.randrange(256)]) * 8
            result.append(("write", vaddr, value))
        elif roll < 0.88:
            vaddr = base + rng.randrange(span - 8)
            result.append(("read", vaddr, 8))
        elif roll < 0.93:
            result.append(("flush",))
        else:
            result.append(("promote", rng.randrange(pages), "commit"))
    return result


def _build_machine(config: SystemConfig, pages: int,
                   cores: int) -> Tuple[Kernel, Any]:
    kernel = Kernel(num_cores=cores, config=config, total_frames=1 << 16)
    process = kernel.create_process()
    # Mark the pages CoW (against a self-share) so writes take the
    # overlaying-write path — fork gives each page a sharer.
    kernel.mmap(process, BASE_VPN, pages, fill=b"\xa5")
    kernel.fork(process)
    return kernel, process


def _execute(ops_list: Sequence[Tuple], kernel: Kernel, process,
             checker: Optional[InvariantChecker] = None,
             recover: bool = True) -> Dict[str, Any]:
    """Drive the op list; returns detection/recovery telemetry."""
    system = kernel.system
    cores = len(system.tlbs)
    detections = 0
    recovery_cycles = 0
    first_violations: List[Dict[str, str]] = []
    cycle = system.clock
    for index, op in enumerate(ops_list):
        core = index % cores
        if op[0] == "write":
            latency = system.write(process.asid, op[1], op[2], core=core)
        elif op[0] == "read":
            _, latency = system.read(process.asid, op[1], op[2],
                                     core=core)
        elif op[0] == "flush":
            system.hierarchy.flush_dirty()
            latency = 0
        else:
            vpn = BASE_VPN + op[1]
            if system.overlay_line_count(process.asid, vpn):
                latency = system.promote(process.asid, vpn, op[2])
            else:
                latency = 0
        cycle += latency
        system.clock = cycle
        if checker is not None:
            violations = checker.maybe_check()
            if violations:
                detections += len(violations)
                if not first_violations:
                    first_violations = [v.to_dict()
                                        for v in violations[:4]]
                if recover:
                    repaired = checker.repair(violations)
                    recovery_cycles += repaired
                    cycle += repaired
                    system.clock = cycle
    if checker is not None:
        violations = checker.check_all()
        if violations:
            detections += len(violations)
            if not first_violations:
                first_violations = [v.to_dict() for v in violations[:4]]
            if recover:
                recovery_cycles += checker.repair(violations)
    return {"detections": detections,
            "recovery_cycles": recovery_cycles,
            "violations": first_violations}


def _final_image(kernel: Kernel, process) -> List[bytes]:
    system = kernel.system
    return [system.page_bytes(process.asid, vpn)
            for vpn in sorted(process.mappings)]


def run_trial(plan: FaultPlan, *, ops: int = 160, pages: int = 4,
              cores: int = 2, workload_seed: Optional[int] = None,
              check_interval: int = 0, recover: bool = True,
              config: Optional[SystemConfig] = None) -> Dict[str, Any]:
    """One golden-vs-faulted run pair; returns the trial record."""
    config = config or DEFAULT_CONFIG
    rng = derive_rng(None, workload_seed, stream=WORKLOAD_STREAM,
                     config=config)
    ops_list = synthesize_workload(rng, ops, pages)

    kernel, process = _build_machine(config, pages, cores)
    _execute(ops_list, kernel, process)
    golden = _final_image(kernel, process)

    kernel, process = _build_machine(config, pages, cores)
    checker = InvariantChecker(kernel.system,
                               check_interval=check_interval)
    record: Dict[str, Any] = {"detections": 0, "repairs": 0,
                              "recovery_cycles": 0, "violations": []}
    with fault_session(plan, config=config,
                       main_memory=kernel.system.main_memory) as injector:
        try:
            telemetry = _execute(ops_list, kernel, process,
                                 checker=checker, recover=recover)
            record.update(telemetry)
            image: Optional[List[bytes]] = _final_image(kernel, process)
            error: Optional[str] = None
        except Exception as failure:  # crash outcome: anything the
            # faulted machine raises, including OMS metadata corruption.
            image = None
            error = f"{type(failure).__name__}: {failure}"
    record["repairs"] = checker.stats.repairs
    record["faults"] = injector.stats.to_dict()
    ecc_events = (injector.stats.ecc_corrections
                  + injector.stats.ecc_retries)
    if error is not None:
        record["outcome"] = "crash"
        record["error"] = error
    elif image != golden:
        record["outcome"] = "silent_corruption"
    elif record["detections"]:
        record["outcome"] = "detected_recovered"
    elif ecc_events:
        record["outcome"] = "corrected"
    else:
        record["outcome"] = "masked"
    return record


def campaign_shards(rates: Sequence[float], seed_grid: List[List[int]],
                    base: FaultPlan, manifest: Dict[str, Any], *,
                    trials: int, ops: int, pages: int, cores: int,
                    check_interval: int, recover: bool,
                    workload_seed: int) -> List[Shard]:
    """One ``fault_trial`` shard per (rate, trial) grid cell.

    Each shard is self-contained: the scaled per-site rates, the derived
    fault seed, the workload parameters, and the deterministic manifest
    half (whose ``config`` the worker rebuilds its
    :class:`~repro.config.SystemConfig` from).
    """
    shards: List[Shard] = []
    for rate_index, rate in enumerate(rates):
        scaled = base.scaled(rate)
        for trial in range(trials):
            params = {
                "plan_rates": dict(sorted(scaled.rates().items())),
                "ecc": scaled.ecc,
                "stream": scaled.stream,
                "fault_seed": seed_grid[rate_index][trial],
                "ops": ops, "pages": pages, "cores": cores,
                "workload_seed": workload_seed,
                "check_interval": check_interval,
                "recover": recover,
            }
            shards.append(Shard(kind="fault_trial", index=len(shards),
                                params=params, manifest=manifest))
    return shards


def run_fault_trial_shard(shard: Shard) -> Dict[str, Any]:
    """Execute one campaign shard (the ``fault_trial`` fleet runner).

    Reconstructs the config and plan from the shard's JSON-ready data
    and produces exactly the trial record the serial loop would.
    """
    params = shard.params
    config = SystemConfig(**shard.manifest["config"])
    plan = FaultPlan(ecc=params["ecc"], seed=params["fault_seed"],
                     stream=params["stream"], **params["plan_rates"])
    record = run_trial(plan, ops=params["ops"], pages=params["pages"],
                       cores=params["cores"],
                       workload_seed=params["workload_seed"],
                       check_interval=params["check_interval"],
                       recover=params["recover"], config=config)
    record["fault_seed"] = params["fault_seed"]
    return record


def check_rates(rates: Sequence[float]) -> Sequence[float]:
    """Return *rates* if they form a valid sweep, else raise ValueError.

    A sweep needs at least one rate, and every rate is a finite,
    non-negative multiplier: a NaN would arm every fault site (the
    scaled rate clamps to 1.0) and could not be written as JSON, and a
    negative one is not a probability.
    """
    if not rates:
        raise ValueError("a fault campaign needs at least one rate")
    bad = [rate for rate in rates if not (math.isfinite(rate) and rate >= 0)]
    if bad:
        raise ValueError(f"fault rates must be finite and non-negative, "
                         f"got {', '.join(map(str, bad))}")
    return rates


def run_campaign(name: str, rates: Sequence[float], *, trials: int = 4,
                 ops: int = 160, pages: int = 4, cores: int = 2,
                 ecc: str = "secded", check_interval: int = 0,
                 recover: bool = True, seed: Optional[int] = None,
                 base_plan: Optional[FaultPlan] = None,
                 config: Optional[SystemConfig] = None,
                 results_dir=None, fleet_workers: Optional[int] = None,
                 resume: bool = False,
                 fleet_summary: Optional[Dict[str, Any]] = None
                 ) -> Dict[str, Any]:
    """Sweep *rates* over the base plan; write ``<name>.faults.json``.

    Returns the validated document (already written).  *rates* are
    multipliers applied to :data:`DEFAULT_BASE_PLAN`'s per-site weights;
    *seed* overrides the config's base RNG seed for both the workload
    and the fault streams.

    With *fleet_workers* set (``0`` = auto-resolve), trials shard
    through :func:`repro.fleet.run_fleet` — run in parallel, each
    leaving a content-addressed artifact under
    ``<results_dir>/fleet/<name>/`` — and merge into the byte-identical
    serial document.  *resume* reuses artifacts a previous run (killed
    or complete) left in that cache; pass a dict as *fleet_summary* to
    receive the shard/hit/miss/worker counters.  Bad *rates* (see
    :func:`check_rates`) raise ValueError before any trial runs.
    """
    check_rates(rates)
    config = config or DEFAULT_CONFIG
    base = base_plan or DEFAULT_BASE_PLAN
    base = FaultPlan(ecc=ecc, seed=base.seed, stream=base.stream,
                     **base.rates())
    workload_seed = resolve_seed(seed, stream=WORKLOAD_STREAM,
                                 config=config)
    fault_base_seed = resolve_seed(seed, stream=base.stream, config=config)
    seed_grid = fault_seed_grid(fault_base_seed, len(rates), trials)
    manifest = RunManifest.create(name, config=config, seed=seed)
    results = (default_results_dir() if results_dir is None
               else Path(results_dir))
    if fleet_workers is None:
        records: List[Dict[str, Any]] = []
        for rate_index, rate in enumerate(rates):
            scaled = base.scaled(rate)
            for trial in range(trials):
                fault_seed = seed_grid[rate_index][trial]
                plan = FaultPlan(ecc=scaled.ecc, seed=fault_seed,
                                 stream=scaled.stream, **scaled.rates())
                record = run_trial(plan, ops=ops, pages=pages, cores=cores,
                                   workload_seed=workload_seed,
                                   check_interval=check_interval,
                                   recover=recover, config=config)
                record["fault_seed"] = fault_seed
                records.append(record)
    else:
        shards = campaign_shards(
            rates, seed_grid, base, manifest.deterministic_dict(),
            trials=trials, ops=ops, pages=pages, cores=cores,
            check_interval=check_interval, recover=recover,
            workload_seed=workload_seed)
        result = run_fleet(shards, workers=fleet_workers, resume=resume,
                           cache_dir=results / "fleet" / name)
        if fleet_summary is not None:
            fleet_summary.update(result.summary.to_dict())
        records = result.payloads
    sweep: List[Dict[str, Any]] = []
    totals = {outcome: 0 for outcome in OUTCOMES}
    position = 0
    for rate in rates:
        trial_records = records[position:position + trials]
        position += trials
        tally = {outcome: 0 for outcome in OUTCOMES}
        for record in trial_records:
            tally[record["outcome"]] += 1
            totals[record["outcome"]] += 1
        sweep.append({"rate": rate, "outcomes": tally,
                      "trials": trial_records})
    doc: Dict[str, Any] = {
        "kind": "fault_campaign",
        "name": name,
        "manifest": manifest.deterministic_dict(),
        "plan": base.to_dict(),
        "parameters": {"trials": trials, "ops": ops, "pages": pages,
                       "cores": cores, "check_interval": check_interval,
                       "recover": recover,
                       "workload_seed": workload_seed},
        "sweep": sweep,
        "outcome_totals": totals,
    }
    validate(doc, FAULTS_SCHEMA, f"{name} fault campaign")
    write_json(results / f"{name}.faults.json", doc)
    return doc
