"""One cold run of one benchmark workload, in a fresh interpreter.

    python3 perfbench/cold_run.py WORKLOAD SEED_INDEX [--traced]

Run it from the root of a checkout.  ``run.py`` starts one of these per
timed run, so every run starts cold: no memoised trace, no warmed
``engine.process_state`` slot, nothing imported yet.  The run uses the
program's default configuration; it arms no hook unless ``--traced``.

The last line of standard output is one JSON document:

* ``norm_cpu_s`` -- the program's CPU time from just before ``import
  repro`` to the last harness call returning, in reference seconds
  (``gauge.py``); ``setup_s`` is the part of it outside ``Core.run``,
  the only span an untraced run records.  ``cpu_s`` is the same CPU
  time unscaled, ``wall_s`` the interval in wall-clock seconds, and
  ``host_slowdown`` the median gauge tick over the reference tick;
* ``segments`` -- ``[norm_cpu_s, setup_s]`` of each part of the run:
  the imports, then each harness call in turn.  Every run of a workload
  makes the same calls, so part *k* of one run is comparable with part
  *k* of another;
* ``instructions`` -- the sum of ``CoreStats.instructions`` over every
  ``Core.run`` call; ``peak_rss_mb`` -- the process's ``ru_maxrss``;
* ``cells`` -- the simulated outputs of every cell that completed, and
  ``attempted``/``failed`` -- cells tried and cells whose harness call
  raised (a raising call returns nothing, so all its cells fail);
* ``counts`` -- every stats-tree value summed over every machine built.
  An untraced run keeps each machine's registry from its ``Core.run``
  calls; a traced run binds them through the public
  ``engine.tracing.install_sampler`` ``on_root`` hook, as
  ``obs.ProfileAccumulator`` does.  Registries hold no components, so
  keeping them does not keep machines alive;
* traced only: ``self_s`` -- self time per simulator package from a
  SIGPROF sampler; ``spans`` -- self time of each public-call span.
  Both are in reference seconds.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import gauge
from gauge import HostGauge, REFERENCE_TICK_S

#: The simulator packages host time is attributed to.  Every other
#: frame -- numpy, the standard library, this benchmark, the top-level
#: ``repro`` modules -- counts as ``ext``.
LAYERS = ("cpu", "core", "mem", "engine", "osmodel", "techniques",
          "sparse", "workloads", "eval")

#: Figure 8/9 benchmarks per workload.  Type 3 writes a few lines on many
#: pages (the copy-on-write page-copy path); Type 2 writes densely.
FORK_BENCHMARKS = {
    "fork_sparse_writes": ("astar", "Gems", "mcf", "milc", "omnet"),
    "fork_dense_writes": ("bzip2", "cactus", "lbm", "leslie3d", "soplex"),
}
WORKLOADS = tuple(FORK_BENCHMARKS) + ("spmv_locality",)
#: Cells per workload: (benchmark, policy), or (point, representation)
#: for Figure 10's 16 points.
CELLS = {**{name: 2 * len(benchmarks)
            for name, benchmarks in FORK_BENCHMARKS.items()},
         "spmv_locality": 32}

#: The seeds the committed goldens were made with: ``run_suite`` seed 0
#: (results/figure8.json, figure9.json) and ``run_figure10`` seed 7
#: (results/figure10.json).  Seed index *i* runs at base + *i*.
FORK_SEED = 0
SPMV_SEED = 7

#: SIGPROF period, in seconds of process CPU time.
SAMPLE_INTERVAL = 0.001

Cells = Dict[str, Dict[str, float]]
Span = list  # [name, start, end, parent index or None]


def fork_cells(comparisons) -> Cells:
    """One cell per (benchmark, policy): what Figures 8 and 9 plot."""
    cells = {}
    for comparison in comparisons:
        for run in (comparison.cow, comparison.oow):
            cells[f"{run.benchmark}/{run.policy}"] = {
                "cycles": run.cycles, "instructions": run.instructions,
                "cpi": run.cpi,
                "additional_memory_bytes": run.additional_memory_bytes}
    return cells


def spmv_cells(points) -> Cells:
    """One cell per (point, representation): its cycles plus the
    point's memory ratio, what Figure 10 plots."""
    cells = {}
    for point in points:
        for rep, cycles in (("csr", point.csr_cycles),
                            ("overlay", point.overlay_cycles)):
            cells[f"{point.matrix}/{rep}"] = {
                "cycles": cycles, "relative_memory": point.relative_memory}
    return cells


def harness_calls(workload: str,
                  seed_index: int) -> List[Tuple[int, Callable[[], Cells]]]:
    """The workload's public harness calls, as (cell count, call) pairs.

    The fork suite is driven one benchmark per ``run_suite`` call, so a
    raising benchmark fails only its own two cells; every cell builds
    fresh machines, so the work is the same as one call over all five.
    """
    if workload == "spmv_locality":
        from repro.eval.spmv_experiment import run_figure10
        seed = SPMV_SEED + seed_index
        # Figure 10 exactly as ``python -m repro figure10`` runs it.
        return [(CELLS[workload], lambda: spmv_cells(
            run_figure10(matrix_count=16, repeats=2, seed=seed)))]
    from repro.eval.fork_experiment import run_suite
    seed = FORK_SEED + seed_index
    return [(2, lambda name=name: fork_cells(run_suite([name], seed=seed)))
            for name in FORK_BENCHMARKS[workload]]


def run_workload(workload: str, seed_index: int,
                 mark: Callable[[], None] = lambda: None):
    """Run every harness call; returns (cells, attempted, failed, errors).

    Calls *mark* before the first harness call and after each one.
    """
    cells: Cells = {}
    attempted = failed = 0
    errors = []
    mark()
    for count, call in harness_calls(workload, seed_index):
        attempted += count
        try:
            cells.update(call())
        except Exception as exc:  # one failing call must not end the run
            failed += count
            errors.append(f"{type(exc).__name__}: {exc}")
        mark()
    return cells, attempted, failed, errors


def self_seconds(spans: List[Span]) -> Dict[str, float]:
    """Seconds each span name spent outside its child spans.

    A span's self time is its duration minus its direct children's;
    spans of one thread nest without overlapping, so those children
    cover disjoint parts of it.  Totals are summed per name.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    totals: Dict[str, float] = {}
    for span, seconds in zip(spans, own):
        totals[span[0]] = totals.get(span[0], 0.0) + seconds
    return totals


def segment_times(spans: List[Span], marks: List[float]
                  ) -> List[List[float]]:
    """``[time, setup time]`` of each part of the run that *marks* bound.

    Part 0 runs from the start of span 0 (the run) to ``marks[0]``; part
    *k* from ``marks[k - 1]`` to ``marks[k]``.  A part's setup time is
    its time outside the ``cpu.run`` spans that start in it.
    """
    bounds = [spans[0][1]] + marks
    parts = []
    for start, end in zip(bounds, bounds[1:]):
        inside = sum(e - s for name, s, e, _ in spans
                     if name == "cpu.run" and start <= s < end)
        parts.append([end - start, end - start - inside])
    return parts


class Spans:
    """Spans around public calls on the gauge's program clock, kept in
    memory.

    Span 0 is the whole run; every wrapped call records its start, end
    and enclosing span.  ``Core.run`` also ticks the gauge first, and
    yields the instruction count and the machine's stats registry.
    """

    def __init__(self, host: HostGauge) -> None:
        self.host = host
        self.spans: List[Span] = [["run", host.clock(), None, None]]
        self._open = [0]
        self.instructions = 0
        self.registries: Dict[int, object] = {}

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        spans, opened, clock = self.spans, self._open, self.host.clock

        def timed(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, opened[-1]])
            opened.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                opened.pop()
                spans[index][2] = clock()

        setattr(owner, attr, timed)

    def wrap_core_run(self, core_cls) -> None:
        self.wrap(core_cls, "run", "cpu.run")
        timed = core_cls.run

        def run(core, *args, **kwargs):
            self.host.tick()
            stats = timed(core, *args, **kwargs)
            self.instructions += stats.instructions
            scope = core.system.stats_scope
            self.registries[id(scope)] = scope
            return stats

        core_cls.run = run

    def close(self) -> float:
        """End the run span; returns its duration."""
        self.spans[0][2] = self.host.clock()
        return self.spans[0][2] - self.spans[0][1]

    def scaled(self, scale: Callable[[float], float]) -> List[Span]:
        """The spans with their times mapped through *scale*."""
        return [[name, scale(start), scale(end), parent]
                for name, start, end, parent in self.spans]


def package_of(filename: str, repro_dir: str) -> str:
    """The simulator package a source file belongs to, ``ext``, or
    ``gauge`` for the gauge's ticks, which are not the program's time."""
    if filename == gauge.__file__:
        return "gauge"
    if not filename.startswith(repro_dir):
        return "ext"
    parts = filename[len(repro_dir):].split(os.sep)
    return parts[0] if len(parts) > 1 and parts[0] in LAYERS else "ext"


class PackageSampler:
    """Statistical self-time sampler over process CPU time.

    Each SIGPROF tick charges the innermost Python frame's package.
    Native code (numpy kernels, builtins) has no frame of its own, so
    its time lands on the Python frame that called it; so does code
    generated at run time, such as a dataclass's ``__init__``, whose
    frame has no source file.
    """

    def __init__(self, repro_dir: str) -> None:
        self.repro_dir = repro_dir
        self.samples: Counter = Counter()
        self._packages: Dict[str, str] = {}

    def _tick(self, signum, frame) -> None:
        while frame is not None and frame.f_code.co_filename == "<string>":
            frame = frame.f_back
        filename = frame.f_code.co_filename if frame is not None else ""
        package = self._packages.get(filename)
        if package is None:
            package = self._packages[filename] = package_of(
                filename, self.repro_dir)
        self.samples[package] += 1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL, SAMPLE_INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def self_s(self, cpu_s: float) -> Dict[str, float]:
        """Split *cpu_s* across packages by their share of the samples
        outside the gauge."""
        total = sum(self.samples.values()) - self.samples["gauge"] or 1
        return {package: cpu_s * self.samples.get(package, 0) / total
                for package in LAYERS + ("ext",)}


def summed_counts(registries) -> Dict[str, float]:
    """Every stats-tree value, summed by dotted path over machines."""
    totals: Dict[str, float] = {}
    for registry in registries:
        for path, value in registry.flat_paths().items():
            totals[path] = totals.get(path, 0) + value
    return totals


def cold_run(workload: str, seed_index: int, traced: bool,
             root: str) -> dict:
    """One run of *workload*; see the module docstring for the result."""
    repro_dir = os.path.join(root, "src", "repro") + os.sep
    host = HostGauge()
    host.tick()
    sampler: Optional[PackageSampler] = None
    if traced:
        sampler = PackageSampler(repro_dir)
        sampler.start()
    sys.path.insert(0, os.path.join(root, "src"))
    wall_start = time.perf_counter()
    spans = Spans(host)  # opens the run span: just before ``import repro``
    import repro  # noqa: F401  (timed: part of every user's run)
    from repro.cpu.core import Core
    from repro.engine.batch import resolve_engine_mode
    spans.wrap_core_run(Core)
    roots: List[object] = []
    if traced:
        from repro.engine import tracing
        from repro.osmodel.kernel import Kernel
        from repro.sparse.spmv import REPRESENTATIONS

        class RootRegistries(tracing.CycleSampler):
            def on_root(self, component) -> None:
                if component.component_name == "system":
                    roots.append(component.stats_scope)

        tracing.install_sampler(RootRegistries())
        spans.wrap(Kernel, "mmap", "osmodel.mmap")
        spans.wrap(Kernel, "fork", "osmodel.fork")
        for rep in set(REPRESENTATIONS.values()):
            spans.wrap(rep, "build", "sparse.build")
            spans.wrap(rep, "spmv_trace", "sparse.trace")
    # An armed hook forces the scalar path; with none it is the default.
    engine_path = resolve_engine_mode("auto")
    marks: List[float] = []
    cells, attempted, failed, errors = run_workload(
        workload, seed_index, lambda: marks.append(host.clock()))
    cpu_s = spans.close()
    wall_s = time.perf_counter() - wall_start
    if sampler is not None:
        sampler.stop()
    host.tick()
    scale = host.scaler()
    scaled = spans.scaled(scale)
    result = {
        "workload": workload, "seed_index": seed_index, "traced": traced,
        "engine_path": "scalar" if traced else engine_path,
        "norm_cpu_s": scaled[0][2] - scaled[0][1], "cpu_s": cpu_s,
        "wall_s": wall_s, "host_slowdown": statistics.median(
            seconds for _, seconds in host.ticks) / REFERENCE_TICK_S,
        "instructions": spans.instructions,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted, "failed": failed, "errors": errors,
        "cells": cells,
        "counts": summed_counts(roots if traced
                                else spans.registries.values()),
    }
    if sampler is None:
        result["setup_s"] = self_seconds(scaled)["run"]
        result["segments"] = segment_times(scaled, [scale(t) for t in marks])
    else:
        result["self_s"] = sampler.self_s(result["norm_cpu_s"])
        result["spans"] = self_seconds(scaled)
    return result


def main(argv: List[str]) -> int:
    if len(argv) not in (2, 3) or argv[0] not in WORKLOADS \
            or argv[2:] not in ([], ["--traced"]):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    result = cold_run(argv[0], int(argv[1]), argv[2:] == ["--traced"],
                      os.getcwd())
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
