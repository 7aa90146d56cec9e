"""Host-performance benchmark of the simulator's tier-1 hot loops.

This is the *simulator-is-slow* gauge, not a simulated-cycle
measurement: each hot loop is timed with the host clock (best and mean
of N repeats) and the datapoints are **appended** to ``BENCH_perf.json``
at the repository root, so the file accumulates a history CI can chart
and ``python -m repro.obs compare`` can gate.

The loops cover the paths the tier-1 suite leans on hardest:

* ``remap_latency`` — the first-write critical path (COW fault, page
  copy vs overlay line move) through two full machines;
* ``fork_core_run`` — a scaled-down trace-driven core run through the
  fork suite machinery (TLB, cache hierarchy, DRAM, OMT walks);
* ``overlay_write_path`` — the framework's raw write path: translate,
  overlay lookup, hierarchy access, no core in front.

All timings are host wall clock by design; simulated time is asserted
untouched (the hot loops are deterministic under the stock seed).

Each loop is timed once, on the simulator's one execution path, and
every entry is tagged ``"engine": "scalar"`` like the history it joins.
``--gate-fork-speedup R`` makes the run fail unless the fresh
``fork_core_run`` is at least R× faster than the frozen committed
baseline entry, which is the CI perf gate.
"""

import json
import sys
import time
from pathlib import Path

from repro.eval.fork_experiment import run_benchmark
from repro.eval.remap_latency import measure_remap_latency
from repro.obs import RunManifest

DEFAULT_REPEATS = 3
#: Engine tag on every fresh entry: the one execution path.  Tagged
#: entries never become the frozen baseline (see committed_baseline).
ENGINE_PATH = "scalar"
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"


def _loop_remap_latency():
    result = measure_remap_latency()
    assert result.overlay_on_write_cycles < result.copy_on_write_cycles


def _loop_fork_core_run():
    comparison = run_benchmark("bwaves", scale=0.1)
    assert comparison.cow.cpi > 0


def _loop_overlay_write_path():
    from repro.core.framework import OverlaySystem
    system = OverlaySystem()
    system.register_address_space(1)
    system.map_page(1, vpn=0, ppn=4, writable=True)
    payload = b"\xa5" * 8
    for i in range(512):
        system.write(1, (i * 8) % 4096, payload)
        system.read(1, ((i * 8) + 2048) % 4096, 8)


HOT_LOOPS = [
    ("remap_latency", _loop_remap_latency),
    ("fork_core_run", _loop_fork_core_run),
    ("overlay_write_path", _loop_overlay_write_path),
]


def time_loop(fn, repeats: int = DEFAULT_REPEATS):
    """Per-repeat wall-clock samples of one hot loop (host time)."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()       # simlint: disable=SL001
        fn()
        samples.append(time.perf_counter()  # simlint: disable=SL001
                       - started)
    return samples


def run_perf(repeats: int = DEFAULT_REPEATS, loops=None):
    """One datapoint per hot loop, ready to append."""
    manifest = RunManifest.create("bench_perf")
    entries = []
    for name, fn in (loops or HOT_LOOPS):
        samples = time_loop(fn, repeats)
        entries.append({
            "bench": name,
            "engine": ENGINE_PATH,
            "best_seconds": round(min(samples), 6),
            "mean_seconds": round(sum(samples) / len(samples), 6),
            "repeats": len(samples),
            "python": manifest.python,
            "platform": manifest.platform,
            "started_at": manifest.started_at,
        })
    return entries


def committed_baseline(bench: str, path: Path = RESULTS_PATH):
    """``best_seconds`` of the newest *untagged* entry for *bench*.

    The untagged entries (no ``engine`` key) are the frozen history the
    gate measures against; every later entry is tagged and excluded on
    purpose, so the gate compares against the state of the repo before
    the hot-path work instead of a moving target.
    """
    if not path.exists():
        return None
    best = None
    for entry in json.loads(path.read_text())["entries"]:
        if entry["bench"] == bench and "engine" not in entry:
            best = entry["best_seconds"]
    return best


def gate_fork_speedup(entries, minimum: float,
                      baseline_path: Path = RESULTS_PATH) -> int:
    """Fail (return 1) unless fresh fork_core_run is at least *minimum*×
    faster than the committed baseline."""
    baseline = committed_baseline("fork_core_run", baseline_path)
    if baseline is None:
        print("gate: no committed fork_core_run baseline")
        return 1
    fresh = [e for e in entries if e["bench"] == "fork_core_run"]
    if not fresh:
        print("gate: no fresh fork_core_run datapoint")
        return 1
    best = min(e["best_seconds"] for e in fresh)
    speedup = baseline / best
    verdict = "pass" if speedup >= minimum else "FAIL"
    print(f"gate: fork_core_run {best:.3f}s vs committed baseline "
          f"{baseline:.3f}s = {speedup:.2f}x (need >= {minimum:.1f}x): "
          f"{verdict}")
    return 0 if speedup >= minimum else 1


def append_results(entries, path: Path = RESULTS_PATH) -> Path:
    """Append *entries* to the running history document at *path*."""
    if path.exists():
        doc = json.loads(path.read_text())
    else:
        doc = {"format": 1, "entries": []}
    doc["entries"].extend(entries)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    repeats = DEFAULT_REPEATS
    out = RESULTS_PATH
    gate_minimum = None
    i = 0
    while i < len(args):
        if args[i] == "--repeats" and i + 1 < len(args):
            repeats = int(args[i + 1])
            i += 2
        elif args[i] == "--out" and i + 1 < len(args):
            out = Path(args[i + 1])
            i += 2
        elif args[i] == "--gate-fork-speedup" and i + 1 < len(args):
            gate_minimum = float(args[i + 1])
            i += 2
        else:
            print("usage: bench_perf.py [--repeats N] [--out FILE] "
                  "[--gate-fork-speedup R]")
            return 2
    # The gate reads the *committed* history, so snapshot the baseline
    # before this run appends its own entries.
    entries = run_perf(repeats)
    width = max(len(entry["bench"]) for entry in entries)
    for entry in entries:
        print(f"{entry['bench']:<{width}}  "
              f"best {entry['best_seconds']:8.3f}s  "
              f"mean {entry['mean_seconds']:8.3f}s  "
              f"x{entry['repeats']}")
    gate_rc = 0
    if gate_minimum is not None:
        gate_rc = gate_fork_speedup(entries, gate_minimum,
                                    baseline_path=RESULTS_PATH)
    path = append_results(entries, out)
    print(f"[appended {len(entries)} datapoint(s) to {path}]")
    return gate_rc


def test_perf_entries_well_formed(tmp_path):
    """The quick loops produce positive timings and the file appends."""
    quick = [pair for pair in HOT_LOOPS if pair[0] != "fork_core_run"]
    entries = run_perf(repeats=1, loops=quick)
    assert ([(e["bench"], e["engine"]) for e in entries]
            == [(name, ENGINE_PATH) for name, _ in quick])
    assert all(e["best_seconds"] > 0 for e in entries)
    out = tmp_path / "BENCH_perf.json"
    append_results(entries, out)
    append_results(entries, out)
    doc = json.loads(out.read_text())
    assert doc["format"] == 1
    assert len(doc["entries"]) == 2 * len(quick)


def test_fork_speedup_gate(tmp_path):
    """The gate passes on a fast run, fails on a slow one."""
    history = tmp_path / "BENCH_perf.json"
    append_results([{"bench": "fork_core_run", "best_seconds": 1.0,
                     "mean_seconds": 1.0, "repeats": 3},
                    # A tagged scalar entry must not move the baseline.
                    {"bench": "fork_core_run", "engine": "scalar",
                     "best_seconds": 0.3, "mean_seconds": 0.3,
                     "repeats": 3}], history)
    assert committed_baseline("fork_core_run", history) == 1.0
    fast = [{"bench": "fork_core_run", "engine": ENGINE_PATH,
             "best_seconds": 0.25}]
    slow = [{"bench": "fork_core_run", "engine": ENGINE_PATH,
             "best_seconds": 0.5}]
    assert gate_fork_speedup(fast, 3.0, baseline_path=history) == 0
    assert gate_fork_speedup(slow, 3.0, baseline_path=history) == 1
    assert gate_fork_speedup(fast, 3.0,
                             baseline_path=tmp_path / "absent.json") == 1


if __name__ == "__main__":
    raise SystemExit(main())
