"""Host-time benchmark of the Figure 8/9 fork and Figure 10 SpMV harnesses.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-reference

Run it from the root of a checkout.  Each timed run is a fresh
single-threaded interpreter (``cold_run.py``) driving the public
experiment entry points in the program's default configuration; runs
follow one another, never overlap, and start while the previous runs
predict they end within ``--seconds``.  At least one run is made.

Times are the program's CPU seconds scaled to the reference box's
speed by the host gauge (``gauge.py``), so that a shared host's drift
in speed is not read as a change to the program.  ``--trace 0``
reports the end-to-end metrics as medians over the runs, taken part by
part: the imports, then each harness call, each part's median over the
runs, summed.
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics from the traced ones.  Both check every run's
simulated outputs and stats-tree counters against ``reference.json``,
and against each other.  The last line of standard output is the JSON
result; the lines before it print every metric by name with its unit.

``--record-reference`` reruns every workload at every seed index and
rewrites ``reference.json``; do so only in a change that is meant to
alter simulated results.  NOTES.md says why each workload was chosen.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from cold_run import CELLS, FORK_BENCHMARKS, LAYERS, WORKLOADS  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")

#: Seed indices with recorded reference outputs; ``--seed n`` runs
#: index ``n % SEED_INDICES``, so every seed is checked exactly.
SEED_INDICES = 10

#: Host seconds one invocation may take in all; a run that would end
#: later is not started, and a run still going then is killed and its
#: cells count as failed.
LIMIT_S = 170.0

END_TO_END = {"norm_cpu_s": "s", "setup_s": "s", "sim_insts_per_s": "1/s",
              "peak_rss_mb": "MB"}
#: Printed for each invocation but not bounded: how long the runs took
#: unscaled, and how much slower than the reference box the host was.
UNSCALED = {"cpu_s": "s", "wall_s": "s", "host_slowdown": "x"}
#: Also end-to-end, but 0 on a healthy run, so reported with the
#: unbounded per-layer metrics: a bound is a share of the previous
#: median, so BENCHMARK.json bounds only metrics that are never 0.
OUTCOMES = {"failed_frac": "frac", "golden_mismatch_frac": "frac"}

SPANS = {"cpu.run_s": "cpu.run", "osmodel.mmap_s": "osmodel.mmap",
         "osmodel.fork_s": "osmodel.fork", "sparse.build_s": "sparse.build",
         "sparse.trace_s": "sparse.trace"}

#: Simulated work: stats-tree paths (``*`` spans TLBs) summed over machines.
COUNT_PATHS = {
    "core.reads": "system.framework.reads",
    "core.writes": "system.framework.writes",
    "core.cow_triggers": "system.framework.cow_triggers",
    "core.overlaying_writes": "system.framework.overlaying_writes",
    "core.overlay_hits": "system.framework.overlay_hits",
    "core.tlb.misses": "system.tlb*.misses",
    "core.tlb.shootdowns": "system.tlb*.shootdowns",
    "core.omt.walks": "system.controller.omt_cache.walks",
    "mem.l1.misses": "system.hierarchy.l1.misses",
    "mem.l2.misses": "system.hierarchy.l2.misses",
    "mem.l3.misses": "system.hierarchy.l3.misses",
    "mem.l1.dirty_evictions": "system.hierarchy.l1.dirty_evictions",
    "mem.dram.reads": "system.dram.reads",
    "mem.dram.writes": "system.dram.writes",
    "mem.dram.write_drains": "system.dram.write_drains",
}
#: Ratios of useful outcomes to attempts: (numerator, denominator paths).
RATIO_PATHS = {
    "core.omt.hit_ratio": ("system.controller.omt_cache.cache_hits",
                           "system.controller.omt_cache.cache_misses"),
    "mem.dram.row_hit_ratio": ("system.dram.row_hits",
                               "system.dram.row_misses"),
}

LAYER_METRICS: Dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in LAYERS + ("ext",)},
    **{name: "s" for name in SPANS},
    "cpu.instructions": "count",
    **{name: "count" for name in COUNT_PATHS},
    **{name: "ratio" for name in RATIO_PATHS},
    "mem.prefetch.useful_ratio": "ratio",
    "mem.self_us_per_l1_miss": "us",
    "core.self_us_per_access": "us",
    "cpu.self_us_per_inst": "us",
    "trace_overhead_frac": "frac",
}
#: Printed, but left out of the JSON result and BENCHMARK.json: each can
#: read exactly 0 on every run of a workload -- the workloads that never
#: run its layer, or, for ``eval``, a layer whose own code takes a few
#: milliseconds -- and a time that never changes looks never measured.
PRINTED_ONLY = ("sparse.self_s", "techniques.self_s", "workloads.self_s",
                "eval.self_s", "osmodel.fork_s", "sparse.build_s",
                "sparse.trace_s")
PER_LAYER: Dict[str, str] = {
    **{name: unit for name, unit in LAYER_METRICS.items()
       if name not in PRINTED_ONLY},
    **OUTCOMES,
}


# -- runs ----------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` setting, so runs
    see the default configuration, and with one numeric-library thread."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def launch(workload: str, seed_index: int, traced: bool,
           timeout: float) -> dict:
    """One cold run; a crash or timeout fails all its cells."""
    argv = [sys.executable, os.path.join(HERE, "cold_run.py"), workload,
            str(seed_index)] + (["--traced"] if traced else [])
    timeout = max(1.0, timeout)
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env=child_env(), timeout=timeout)
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        error = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    except subprocess.TimeoutExpired:
        error = f"killed after {timeout:.0f}s"
    return {"workload": workload, "seed_index": seed_index,
            "traced": traced, "attempted": CELLS[workload],
            "failed": CELLS[workload], "errors": [error], "cells": {},
            "counts": {}}


def measure(workload: str, seed_index: int, seconds: float,
            traced: bool) -> Tuple[List[dict], List[dict]]:
    """Untraced runs and, with *traced*, one traced run after each."""
    start = time.monotonic()
    untraced: List[dict] = []
    with_trace: List[dict] = []
    rounds: List[float] = []
    while True:
        began = time.monotonic()
        untraced.append(launch(workload, seed_index, False,
                               LIMIT_S - (began - start)))
        if traced:
            with_trace.append(launch(workload, seed_index, True,
                                     LIMIT_S - (time.monotonic() - start)))
        rounds.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        if (elapsed + statistics.median(rounds) > seconds
                or elapsed + max(rounds) > LIMIT_S):
            return untraced, with_trace


# -- outputs -------------------------------------------------------------------


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()
                          ).hexdigest()[:16]


def run_digests(run: dict) -> Dict[str, object]:
    """A run's simulated outputs in the shape ``reference.json`` keeps."""
    return {"cells": {cell: digest(values)
                      for cell, values in run["cells"].items()},
            "counts": digest(run["counts"])}


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def golden_cells(workload: str, results_dir: str) -> Dict[str, dict]:
    """The committed goldens, in the cell shape ``cold_run`` reports.

    A fork cell takes cycles, instructions and CPI from figure9.json and
    additional memory from figure8.json; an SpMV cell takes its
    representation's cycles and the point's memory ratio.
    """
    if workload == "spmv_locality":
        points = load_json(os.path.join(results_dir, "figure10.json"))
        return {f"{p['matrix']}/{rep}": {
                    "cycles": p[f"{rep}_cycles"],
                    "relative_memory": p["relative_memory"]}
                for p in points["data"]["points"]
                for rep in ("csr", "overlay")}
    memory = {row["benchmark"]: row for row in load_json(
        os.path.join(results_dir, "figure8.json"))["data"]["benchmarks"]}
    cells = {}
    for row in load_json(os.path.join(
            results_dir, "figure9.json"))["data"]["benchmarks"]:
        if row["benchmark"] not in FORK_BENCHMARKS[workload]:
            continue
        for side in ("cow", "oow"):
            run = row[side]
            cells[f"{run['benchmark']}/{run['policy']}"] = {
                "cycles": run["cycles"], "instructions": run["instructions"],
                "cpi": run["cpi"], "additional_memory_bytes":
                    memory[run["benchmark"]][side]["additional_memory_bytes"]}
    return cells


def golden_mismatch_frac(cells: Dict[str, dict], expected: Dict[str, dict]
                         ) -> float:
    """Share of expected cells that are missing or differ."""
    wrong = sum(1 for cell, values in expected.items()
                if cells.get(cell) != values)
    return wrong / len(expected)


def expected_cells(workload: str, seed_index: int,
                   reference: dict) -> Dict[str, object]:
    """Per-cell digests a run must match for *golden_mismatch_frac*: the
    committed goldens at the default seeds, else the recorded reference."""
    if seed_index == 0:
        return {cell: digest(values) for cell, values in
                golden_cells(workload, "results").items()}
    return reference[workload][str(seed_index)]["cells"]


def check(workload: str, seed_index: int, runs: List[dict],
          reference: dict) -> Tuple[bool, float, List[str]]:
    """(correct, golden_mismatch_frac, problems) over *runs*."""
    problems = [error for run in runs for error in run["errors"]]
    recorded = reference[workload][str(seed_index)]
    for run in runs:
        got = run_digests(run)
        kind = "traced" if run["traced"] else "untraced"
        for cell in sorted(set(got["cells"]) | set(recorded["cells"])):
            if got["cells"].get(cell) != recorded["cells"].get(cell):
                problems.append(f"{kind} run: cell {cell} differs from "
                                f"reference.json")
        if run["counts"] and got["counts"] != recorded["counts"]:
            problems.append(f"{kind} run: stats-tree counters differ from "
                            f"reference.json")
    expected = expected_cells(workload, seed_index, reference)
    mismatch = max(golden_mismatch_frac(run_digests(run)["cells"], expected)
                   for run in runs)
    return not problems, mismatch, problems


# -- metrics -------------------------------------------------------------------


def path_total(counts: Dict[str, float], pattern: str) -> float:
    return sum(value for path, value in counts.items()
               if fnmatchcase(path, pattern))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def part_medians(runs: List[dict], field: int) -> float:
    """Sum over the parts of a run of each part's median over *runs*;
    *field* 0 is scaled CPU seconds, 1 set-up seconds.

    A part slowed by the host in one run is outvoted by the same part in
    the other runs, even if another part was slowed in those.
    """
    parts = zip(*(run["segments"] for run in runs))
    return sum(statistics.median(times[field] for times in part)
               for part in parts)


def end_to_end(runs: List[dict]) -> Tuple[Dict[str, float],
                                          Dict[str, List[float]]]:
    """The end-to-end metrics over the runs that completed, and each
    run's own whole-run values, with the ``UNSCALED`` ones, for the
    report."""
    done = [run for run in runs if "norm_cpu_s" in run]
    if not done:
        return {}, {}
    norm_cpu_s = part_medians(done, 0)
    metrics = {"norm_cpu_s": norm_cpu_s, "setup_s": part_medians(done, 1),
               "sim_insts_per_s": statistics.median(
                   r["instructions"] for r in done) / norm_cpu_s,
               "peak_rss_mb": statistics.median(
                   r["peak_rss_mb"] for r in done)}
    samples = {name: [r[name] for r in done]
               for name in ("norm_cpu_s", "setup_s", "peak_rss_mb",
                            *UNSCALED)}
    samples["sim_insts_per_s"] = [r["instructions"] / r["norm_cpu_s"]
                                  for r in done]
    return metrics, samples


def per_layer(traced: List[dict], untraced: List[dict]) -> Dict[str, float]:
    done = [run for run in traced if "norm_cpu_s" in run]
    plain = [run for run in untraced if "norm_cpu_s" in run]
    if not done or not plain:
        return {}
    metrics = {f"{layer}.self_s": statistics.median(
        r["self_s"][layer] for r in done) for layer in LAYERS + ("ext",)}
    for name, span in SPANS.items():
        metrics[name] = statistics.median(r["spans"].get(span, 0.0)
                                          for r in done)
    counts = done[0]["counts"]  # identical in every run, or not correct
    metrics["cpu.instructions"] = done[0]["instructions"]
    for name, pattern in COUNT_PATHS.items():
        metrics[name] = path_total(counts, pattern)
    for name, (hits, misses) in RATIO_PATHS.items():
        hit = path_total(counts, hits)
        metrics[name] = ratio(hit, hit + path_total(counts, misses))
    metrics["mem.prefetch.useful_ratio"] = ratio(
        path_total(counts, "system.hierarchy.l3.prefetch_hits"),
        path_total(counts, "system.hierarchy.prefetcher.issued"))
    metrics["mem.self_us_per_l1_miss"] = 1e6 * ratio(
        metrics["mem.self_s"], metrics["mem.l1.misses"])
    metrics["core.self_us_per_access"] = 1e6 * ratio(
        metrics["core.self_s"], metrics["core.reads"] + metrics["core.writes"])
    metrics["cpu.self_us_per_inst"] = 1e6 * ratio(
        metrics["cpu.self_s"], metrics["cpu.instructions"])
    # Unscaled: the sampler's cost slows the gauge's ticks as much as
    # the program, so scaling would hide it.
    metrics["trace_overhead_frac"] = (
        statistics.median(r["cpu_s"] for r in done)
        / statistics.median(r["cpu_s"] for r in plain) - 1)
    return metrics


def report_line(name: str, value: float, unit: str,
                samples: Optional[List[float]] = None) -> str:
    line = f"{name:<28} {value:>16.6g} {unit}"
    if samples is not None and len(samples) > 1:
        line += f"   (n={len(samples)}, max {max(samples):.6g})"
    return line


# -- entry points --------------------------------------------------------------


def checkout_problem(recording: bool) -> Optional[str]:
    needed = [os.path.join("src", "repro", "__init__.py")] + [
        os.path.join("results", f"figure{n}.json") for n in (8, 9, 10)]
    if not recording:
        needed.append(REFERENCE)
    missing = [path for path in needed if not os.path.isfile(path)]
    if missing:
        return ("run from the root of a repro checkout; missing: "
                + ", ".join(missing))
    return None


def record_reference() -> int:
    reference: Dict[str, dict] = {}
    for workload in WORKLOADS:
        reference[workload] = {}
        for seed_index in range(SEED_INDICES):
            run = launch(workload, seed_index, False, LIMIT_S)
            if run["failed"]:
                print(f"{workload} seed index {seed_index}: "
                      f"{run['errors']}", file=sys.stderr)
                return 1
            reference[workload][str(seed_index)] = run_digests(run)
            print(f"{workload} seed index {seed_index}: "
                  f"{run['cpu_s']:.1f} CPU s", flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    problem = checkout_problem(args.record_reference)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    # Runs load cached bytecode; compiling is a build step, not timed.
    compileall.compile_dir("src", quiet=1)
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")

    seed_index = args.seed % SEED_INDICES
    untraced, traced = measure(args.workload, seed_index, args.seconds,
                               bool(args.trace))
    runs = untraced + traced
    reference = load_json(REFERENCE)
    correct, mismatch, problems = check(args.workload, seed_index, runs,
                                        reference)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    outcomes = {"failed_frac": failed / attempted,
                "golden_mismatch_frac": mismatch}

    print(f"workload {args.workload}, seed {args.seed} (index {seed_index})"
          f", {len(untraced)} untraced + {len(traced)} traced cold runs, "
          f"engine path {runs[0].get('engine_path', 'unknown')}")
    e2e, samples = end_to_end(untraced)
    for name, value in e2e.items():
        print(report_line(name, value, END_TO_END[name], samples[name]))
    for name, unit in UNSCALED.items() if samples else ():
        print(report_line(name, statistics.median(samples[name]), unit,
                          samples[name]))
    for name, value in outcomes.items():
        print(report_line(name, value, OUTCOMES[name]))
    if args.trace:
        layers = per_layer(traced, untraced)
        for name, value in layers.items():
            print(report_line(name, value, LAYER_METRICS[name]))
        metrics = {name: value for name, value in {**layers, **outcomes}.items()
                   if name in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = e2e
        units = END_TO_END
    for line in problems:
        print(f"problem: {line}")
    print(json.dumps({
        "correct": correct and len(metrics) == len(units),
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
