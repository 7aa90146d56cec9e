"""Self-tests for the benchmark.  Run from the repo root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import cold_run  # noqa: E402
import gauge  # noqa: E402
import run  # noqa: E402
from repro.eval import fork_experiment, spmv_experiment  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_metric_names_match_benchmark_json_and_print_with_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(cold_run.WORKLOADS)
    for name, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit)
        line = run.report_line(name, 0.125, unit, [0.125, 0.25])
        assert line.split()[:3] == [name, "0.125", unit]


def small_harnesses(monkeypatch):
    """Real harnesses at a toy size, recording the seed they receive."""
    seeds = []
    real_suite = fork_experiment.run_suite
    real_figure10 = spmv_experiment.run_figure10

    def suite(names, seed):
        seeds.append(("run_suite", seed))
        return real_suite(names, seed=seed, scale=0.02,
                          warmup_accesses=200)

    def figure10(matrix_count, repeats, seed):
        seeds.append(("run_figure10", seed))
        return real_figure10(matrix_count=2, repeats=1, rows=4,
                             cols=4096, nnz=96, seed=seed)

    monkeypatch.setattr(fork_experiment, "run_suite", suite)
    monkeypatch.setattr(spmv_experiment, "run_figure10", figure10)
    return seeds


def test_seed_index_reaches_the_harnesses_and_changes_the_digests(
        monkeypatch):
    seeds = small_harnesses(monkeypatch)
    for workload, harness, base in (
            ("fork_dense_writes", "run_suite", cold_run.FORK_SEED),
            ("spmv_locality", "run_figure10", cold_run.SPMV_SEED)):
        digests = []
        for seed_index in (0, 3):
            seeds.clear()
            cells, attempted, failed, _ = cold_run.run_workload(
                workload, seed_index)
            assert failed == 0 and cells
            assert set(seeds) == {(harness, base + seed_index)}
            digests.append(run.run_digests(
                {"cells": cells, "counts": {}})["cells"])
        assert digests[0].keys() == digests[1].keys()
        assert digests[0] != digests[1]


def test_tampered_golden_raises_golden_mismatch_frac(tmp_path):
    for name in ("figure8.json", "figure9.json", "figure10.json"):
        shutil.copy(os.path.join("results", name), tmp_path / name)
    spmv = json.loads((tmp_path / "figure10.json").read_text())
    spmv["data"]["points"][3]["overlay_cycles"] += 1
    (tmp_path / "figure10.json").write_text(json.dumps(spmv))
    memory = json.loads((tmp_path / "figure8.json").read_text())
    mcf = next(row for row in memory["data"]["benchmarks"]
               if row["benchmark"] == "mcf")
    mcf["cow"]["additional_memory_bytes"] += 4096
    (tmp_path / "figure8.json").write_text(json.dumps(memory))

    for workload, wrong in (("spmv_locality", 1 / 32),
                            ("fork_sparse_writes", 1 / 10),
                            ("fork_dense_writes", 0.0)):
        cells = run.golden_cells(workload, "results")
        assert len(cells) == run.CELLS[workload]
        assert run.golden_mismatch_frac(cells, cells) == 0.0
        tampered = run.golden_cells(workload, str(tmp_path))
        assert run.golden_mismatch_frac(cells, tampered) == wrong


def fake_comparison(name):
    runs = [SimpleNamespace(benchmark=name, policy=policy, cycles=10,
                            instructions=5, cpi=2.0,
                            additional_memory_bytes=0)
            for policy in fork_experiment.POLICIES]
    return SimpleNamespace(cow=runs[0], oow=runs[1])


def test_a_raising_cell_counts_in_failed_frac(monkeypatch):
    def suite(names, seed):
        if names == ["mcf"]:
            raise RuntimeError("mcf exploded")
        return [fake_comparison(name) for name in names]

    monkeypatch.setattr(fork_experiment, "run_suite", suite)
    cells, attempted, failed, errors = cold_run.run_workload(
        "fork_sparse_writes", 0)
    assert (attempted, failed) == (10, 2)
    assert len(cells) == 8 and "mcf/copy-on-write" not in cells
    assert errors == ["RuntimeError: mcf exploded"]


def test_a_run_that_is_killed_fails_all_its_cells():
    result = run.launch("spmv_locality", 0, False, timeout=0)
    assert result["attempted"] == result["failed"] == 32
    assert result["errors"] == ["killed after 1s"]


def test_self_seconds_on_a_synthetic_span_tree():
    spans = [["run", 0.0, 10.0, None],          # 0
             ["cpu.run", 1.0, 4.0, 0],          # 1
             ["sparse.build", 5.0, 8.0, 0],     # 2
             ["osmodel.mmap", 5.5, 6.5, 2],     # 3: inside the build
             ["cpu.run", 8.5, 9.5, 0]]          # 4
    assert cold_run.self_seconds(spans) == {
        "run": 10.0 - 3.0 - 3.0 - 1.0, "cpu.run": 4.0,
        "sparse.build": 2.0, "osmodel.mmap": 1.0}


def test_parts_of_a_run_and_their_medians():
    spans = [["run", 0.0, 10.0, None],
             ["cpu.run", 1.5, 2.5, 0],          # in the first call
             ["cpu.run", 5.0, 8.0, 0]]          # in the second call
    assert cold_run.segment_times(spans, [1.0, 4.0, 10.0]) == [
        [1.0, 1.0], [3.0, 2.0], [6.0, 3.0]]
    # Each run is slow in a different part; the part medians are not.
    runs = [{"segments": [[1.0, 1.0], [3.0, 2.0], [6.0, 3.0]]},
            {"segments": [[9.0, 9.0], [3.0, 2.0], [6.0, 3.0]]},
            {"segments": [[1.0, 1.0], [3.0, 2.0], [9.0, 6.0]]}]
    assert run.part_medians(runs, 0) == 10.0
    assert run.part_medians(runs, 1) == 6.0
    metrics, samples = run.end_to_end([
        {**r, "norm_cpu_s": sum(t for t, _ in r["segments"]),
         "cpu_s": 30.0, "wall_s": 31.0, "host_slowdown": 2.0,
         "setup_s": 0.0, "instructions": 500, "peak_rss_mb": 64.0}
        for r in runs])
    assert metrics == {"norm_cpu_s": 10.0, "setup_s": 6.0,
                       "sim_insts_per_s": 50.0, "peak_rss_mb": 64.0}
    assert samples["norm_cpu_s"] == [10.0, 18.0, 13.0]
    assert samples["host_slowdown"] == [2.0, 2.0, 2.0]


def test_gauge_leaves_its_ticks_out_and_scales_by_their_speed():
    now = [0.0]
    tick_s = iter([0.5, 1.0, 1.5])

    def work():  # a tick that takes 0.5, then 1.0, then 1.5 CPU seconds
        now[0] += next(tick_s)

    host = gauge.HostGauge(cpu_clock=lambda: now[0], work=work)
    host.tick()
    now[0] += 4.0                       # program time 0 -> 4
    host.tick()
    now[0] += 2.0                       # program time 4 -> 6
    assert host.clock() == 6.0
    host.tick()
    assert host.ticks == [(0.0, 0.5), (4.0, 1.0), (6.0, 1.5)]
    scale = host.scaler()
    ref = gauge.REFERENCE_TICK_S
    # Between ticks, the mean of their speeds; outside, the nearest one.
    assert scale(0.0) == 0.0
    assert scale(4.0) == pytest.approx(4.0 * ref / 0.75)
    assert scale(5.0) == pytest.approx(scale(4.0) + ref / 1.25)
    assert scale(8.0) == pytest.approx(scale(6.0) + 2.0 * ref / 1.5)
    assert scale(-1.0) == pytest.approx(-ref / 0.5)


def test_every_gauge_tick_does_the_same_work():
    model = gauge.CacheModel()
    for _ in range(2):
        hits, misses = model.hits, model.misses
        model.tick()
        assert (model.hits - hits, model.misses - misses) \
            == (gauge.TICK_ACCESSES, 0)


def test_samples_are_charged_to_the_innermost_frames_package():
    repro_dir = os.path.join(ROOT, "src", "repro") + os.sep
    assert cold_run.package_of(repro_dir + "mem/cache.py", repro_dir) \
        == "mem"
    assert cold_run.package_of(repro_dir + "config.py", repro_dir) == "ext"
    assert cold_run.package_of(repro_dir + "obs/trace.py", repro_dir) \
        == "ext"
    assert cold_run.package_of(json.__file__, repro_dir) == "ext"
    assert cold_run.package_of(gauge.__file__, repro_dir) == "gauge"
    sampler = cold_run.PackageSampler(repro_dir)
    caller = SimpleNamespace(
        f_code=SimpleNamespace(co_filename=repro_dir + "core/tlb.py"),
        f_back=None)
    generated = SimpleNamespace(  # e.g. a dataclass's __init__
        f_code=SimpleNamespace(co_filename="<string>"), f_back=caller)
    sampler._tick(None, generated)
    assert sampler.samples == {"core": 1}
    sampler.samples.update({"mem": 3, "gauge": 4})
    shares = sampler.self_s(2.0)
    assert shares["mem"] == 1.5 and shares["core"] == 0.5
    assert sum(shares.values()) == 2.0


def test_per_layer_metrics_from_synthetic_runs():
    counts = {"system.framework.reads": 60, "system.framework.writes": 40,
              "system.tlb0.misses": 3, "system.tlb1.misses": 4,
              "system.hierarchy.l1.misses": 50,
              "system.controller.omt_cache.cache_hits": 1,
              "system.controller.omt_cache.cache_misses": 3,
              "system.hierarchy.l3.prefetch_hits": 2,
              "system.hierarchy.prefetcher.issued": 8}
    self_s = dict.fromkeys(cold_run.LAYERS + ("ext",), 0.0)
    self_s.update(mem=0.5, core=0.25, cpu=0.125)
    traced = {"norm_cpu_s": 1.5, "cpu_s": 3.0, "instructions": 1000, "counts": counts,
              "self_s": self_s, "spans": {"cpu.run": 2.0, "run": 1.0}}
    layers = run.per_layer([traced], [{"norm_cpu_s": 1.0, "cpu_s": 2.0}])
    assert layers.keys() == run.LAYER_METRICS.keys()
    assert layers["core.tlb.misses"] == 7
    assert layers["core.omt.hit_ratio"] == 0.25
    assert layers["mem.prefetch.useful_ratio"] == 0.25
    assert layers["mem.dram.row_hit_ratio"] == 0.0
    assert layers["mem.self_us_per_l1_miss"] == 1e4
    assert layers["core.self_us_per_access"] == 2500.0
    assert layers["cpu.self_us_per_inst"] == 125.0
    assert layers["osmodel.fork_s"] == 0.0
    assert layers["trace_overhead_frac"] == 0.5
