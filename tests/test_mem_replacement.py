"""Unit tests for the LRU and DRRIP replacement policies."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.cache import SetAssociativeCache
from repro.mem.replacement import DRRIPPolicy, LRUPolicy, make_policy


class TestFactory:
    def test_known_policies(self):
        assert isinstance(make_policy("lru", 4, 2), LRUPolicy)
        assert isinstance(make_policy("DRRIP", 4, 2), DRRIPPolicy)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy("random", 4, 2)


class TestLRU:
    def test_prefers_free_way(self):
        policy = LRUPolicy(1, 4)
        assert policy.victim(0, [True, False, True, True]) == 1

    def test_evicts_least_recent(self):
        policy = LRUPolicy(1, 3)
        for way in range(3):
            policy.on_fill(0, way)
        policy.on_hit(0, 0)          # 1 is now LRU
        assert policy.victim(0, [True] * 3) == 1

    def test_sets_are_independent(self):
        policy = LRUPolicy(2, 2)
        policy.on_fill(0, 0)
        policy.on_fill(1, 1)
        policy.on_fill(0, 1)
        policy.on_fill(1, 0)
        assert policy.victim(0, [True, True]) == 0
        assert policy.victim(1, [True, True]) == 1


class TestDRRIP:
    def test_prefers_free_way(self):
        policy = DRRIPPolicy(64, 4)
        assert policy.victim(0, [False, True, True, True]) == 0

    def test_hit_promotion_protects_line(self):
        policy = DRRIPPolicy(64, 2)
        policy.on_fill(0, 0)
        policy.on_fill(0, 1)
        policy.on_hit(0, 0)  # RRPV -> 0
        assert policy.victim(0, [True, True]) == 1

    def test_victim_is_max_rrpv(self):
        policy = DRRIPPolicy(64, 4)
        for way in range(4):
            policy.on_fill(0, way)
        policy.on_hit(0, 2)
        victim = policy.victim(0, [True] * 4)
        assert victim != 2

    def test_aging_when_no_distant_line(self):
        policy = DRRIPPolicy(64, 2)
        policy.on_fill(0, 0)
        policy.on_fill(0, 1)
        policy.on_hit(0, 0)
        policy.on_hit(0, 1)
        # All RRPVs are 0; victim search must age and still terminate.
        assert policy.victim(0, [True, True]) in (0, 1)

    def test_prefetch_inserted_distant(self):
        policy = DRRIPPolicy(64, 2)
        policy.on_fill(0, 0, prefetch=True)
        policy.on_fill(0, 1, prefetch=False)
        # The prefetched line has the more distant prediction.
        assert policy.victim(0, [True, True]) == 0

    def test_set_dueling_moves_psel(self):
        policy = DRRIPPolicy(64, 4)
        start = policy._psel
        # Misses in SRRIP leader sets push PSEL up.
        srrip_leader = next(s for s, kind in policy._leader.items()
                            if kind == "srrip")
        for _ in range(10):
            policy.on_fill(srrip_leader, 0)
        assert policy._psel > start

    def test_follower_sets_follow_psel(self):
        policy = DRRIPPolicy(1024, 2)
        follower = next(s for s in range(1024) if s not in policy._leader)
        policy._psel = 0
        assert policy._policy_for(follower) == "srrip"
        policy._psel = policy._psel_max
        assert policy._policy_for(follower) == "brrip"

    def test_brrip_occasionally_inserts_long(self):
        policy = DRRIPPolicy(1024, 1)
        policy._psel = policy._psel_max  # force BRRIP for followers
        follower = next(s for s in range(1024) if s not in policy._leader)
        rrpvs = set()
        for _ in range(64):
            policy.on_fill(follower, 0)
            rrpvs.add(policy._rrpv[follower][0])
        assert DRRIPPolicy.DISTANT_RRPV in rrpvs
        assert DRRIPPolicy.LONG_RRPV in rrpvs


def reference_lru_victim(stamps):
    """The scan LRUPolicy.victim_full used to make: oldest stamp, first
    of equals."""
    best_way, best = 0, stamps[0]
    for way in range(1, len(stamps)):
        if stamps[way] < best:
            best, best_way = stamps[way], way
    return best_way


def reference_drrip_victim(rrpvs):
    """The loop DRRIPPolicy.victim_full used to run: age every way by one
    until some way reaches MAX_RRPV, then take the first such way."""
    while True:
        for way, rrpv in enumerate(rrpvs):
            if rrpv >= DRRIPPolicy.MAX_RRPV:
                return way
        for way in range(len(rrpvs)):
            rrpvs[way] += 1


# Few distinct values, so most vectors hold ties.
stamp_vectors = st.lists(st.integers(0, 4), min_size=1, max_size=16)
rrpv_vectors = st.lists(st.integers(0, DRRIPPolicy.MAX_RRPV),
                        min_size=1, max_size=16)


class TestVictimMatchesReferenceLoops:
    @settings(max_examples=200, deadline=None)
    @given(stamp_vectors)
    def test_lru_victim(self, stamps):
        policy = LRUPolicy(1, len(stamps))
        policy._last_use[0][:] = stamps
        assert policy.victim_full(0) == reference_lru_victim(stamps)

    @settings(max_examples=200, deadline=None)
    @given(stamp_vectors)
    def test_cache_fill_evicts_the_lru_victim(self, stamps):
        """SetAssociativeCache.fill inlines the LRU choice."""
        ways = len(stamps)
        cache = SetAssociativeCache("T", size_bytes=ways * 64, ways=ways)
        for tag in range(ways):
            cache.fill(tag)
        cache._policy._last_use[0][:] = stamps
        evicted = cache.fill(ways)
        assert evicted.tag == reference_lru_victim(stamps)

    @settings(max_examples=200, deadline=None)
    @given(rrpv_vectors)
    def test_drrip_victim_and_aging(self, rrpvs):
        policy = DRRIPPolicy(1, len(rrpvs))
        policy._rrpv[0][:] = rrpvs
        expected = list(rrpvs)
        assert policy.victim_full(0) == reference_drrip_victim(expected)
        assert policy._rrpv[0] == expected
