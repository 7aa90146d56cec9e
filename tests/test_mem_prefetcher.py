"""Unit tests for the stream prefetcher (Table 2 configuration)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.prefetcher import StreamPrefetcher


def train(prefetcher, lines):
    issued = []
    for line in lines:
        issued.extend(prefetcher.on_miss(line))
    return issued


class TestTraining:
    def test_first_miss_allocates_stream(self):
        pf = StreamPrefetcher()
        assert pf.on_miss(100) == []
        assert pf.active_streams() == 1
        assert pf.stats.allocations == 1

    def test_ascending_stream_prefetches_ahead(self):
        pf = StreamPrefetcher(degree=4)
        issued = train(pf, [100, 101, 102])
        assert issued, "a confident stream must issue prefetches"
        assert all(line > 102 - pf.distance for line in issued)
        assert max(issued) <= 102 + pf.distance

    def test_descending_stream_supported(self):
        pf = StreamPrefetcher(degree=4)
        issued = train(pf, [200, 199, 198])
        assert issued
        assert all(line < 198 for line in issued)

    def test_degree_limits_prefetches_per_miss(self):
        pf = StreamPrefetcher(degree=2)
        issued_batches = [pf.on_miss(line) for line in (50, 51, 52, 53)]
        for batch in issued_batches:
            assert len(batch) <= 2

    def test_distance_limits_runahead(self):
        pf = StreamPrefetcher(degree=16, distance=8)
        issued = train(pf, list(range(300, 310)))
        assert max(issued) <= 309 + 8

    def test_random_misses_do_not_trigger(self):
        pf = StreamPrefetcher()
        issued = train(pf, [100, 5000, 90000, 42])
        assert issued == []

    def test_no_duplicate_prefetch_targets_in_stream(self):
        pf = StreamPrefetcher(degree=4)
        issued = train(pf, list(range(100, 112)))
        assert len(issued) == len(set(issued))


class TestCapacity:
    def test_stream_table_is_bounded(self):
        pf = StreamPrefetcher(entries=4)
        for base in range(0, 100000, 10000):
            pf.on_miss(base)
        assert pf.active_streams() <= 4

    def test_lru_stream_evicted(self):
        pf = StreamPrefetcher(entries=2)
        pf.on_miss(100)
        pf.on_miss(50000)
        pf.on_miss(100000)      # evicts the stream at 100
        pf.on_miss(101)         # must allocate anew
        assert pf.stats.allocations == 4

    def test_interleaved_streams_tracked_independently(self):
        pf = StreamPrefetcher(degree=4)
        issued = train(pf, [100, 9000, 101, 9001, 102, 9002])
        ahead_low = [l for l in issued if 100 < l < 200]
        ahead_high = [l for l in issued if 9000 < l < 9100]
        assert ahead_low and ahead_high


def reference_stream(streams, line, window, distance):
    """The scan on_miss used to make: the first stream whose training
    window, or whose run of up to `distance` lines ahead in its
    direction, covers the miss."""
    for stream in streams:
        delta = line - stream.last_line
        if -window <= delta <= window:
            return stream
        if stream.direction and 0 <= delta * stream.direction <= distance:
            return stream
    return None


class TestStreamMatch:
    """on_miss trains the stream the old two-test scan would pick."""

    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("window, distance", [(4, 24), (6, 2)])
    def test_range_edges(self, direction, window, distance):
        """A trained stream covers up to max(window, distance) lines
        ahead of its last miss and `window` lines behind it."""
        reach = max(window, distance)
        for ahead, trains in ((reach, True), (reach + 1, False),
                              (-window, True), (-window - 1, False)):
            pf = StreamPrefetcher(distance=distance, train_window=window)
            train(pf, [1000, 1000 + direction])
            trainings = pf.stats.trainings
            pf.on_miss(1000 + direction * (1 + ahead))
            assert (pf.stats.trainings == trainings + 1) is trains, ahead

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=80),
           st.integers(0, 3), st.integers(0, 8), st.integers(1, 6))
    def test_same_stream_as_reference_scan(self, steps, window, distance,
                                           entries):
        """Misses on a random walk, whose small steps land on the edges
        of the streams' windows and runs."""
        pf = StreamPrefetcher(entries=entries, distance=distance,
                              train_window=window)
        line = 1000
        for step in steps:
            line += step
            expected = reference_stream(pf._streams, line, window, distance)
            trainings = pf.stats.trainings
            pf.on_miss(line)
            if expected is None:
                assert pf.stats.trainings == trainings
            else:
                assert pf.stats.trainings == trainings + 1
                assert expected.lru == pf._clock
