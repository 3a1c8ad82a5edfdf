"""Tests for the subentry store and the cache arrays."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CacheArray, SubentryStore


def sub(req_id):
    """A 4-byte subentry for *req_id* on port 0."""
    return (req_id, 0, 0, 4)


class TestSubentryStore:
    def test_append_and_iterate(self):
        store = SubentryStore(16, row_size=4)
        chain = store.new_chain()
        for i in range(6):
            assert store.append(chain, sub(i))
        assert list(store.chain_items(chain)) == [sub(i) for i in range(6)]
        assert len(chain) == 6
        assert chain.rows == 2  # two rows of four

    def test_rows_allocated_lazily(self):
        store = SubentryStore(16, row_size=4)
        chain = store.new_chain()
        assert store.free_rows == 4
        store.append(chain, sub("x"))
        assert store.free_rows == 3

    def test_overflow_when_no_rows(self):
        store = SubentryStore(8, row_size=4)  # 2 rows
        a, b, c = store.new_chain(), store.new_chain(), store.new_chain()
        store.append(a, sub(1))
        store.append(b, sub(2))
        assert not store.append(c, sub(3))
        assert store.stats.overflows == 1
        # The failed chain is unchanged.
        assert len(c) == 0

    def test_free_chain_recycles_rows(self):
        store = SubentryStore(8, row_size=4)
        a = store.new_chain()
        for i in range(8):
            assert store.append(a, sub(i))
        assert store.free_rows == 0
        store.free_chain(a)
        assert store.free_rows == 2
        assert store.entries_live == 0

    def test_shared_pool_across_chains(self):
        """Capacity is pooled: one hot line can take almost all rows."""
        store = SubentryStore(32, row_size=4)
        hot = store.new_chain()
        for i in range(28):
            assert store.append(hot, sub(i))
        cold = store.new_chain()
        assert store.append(cold, sub("c"))  # one row left

    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_accounting_invariant(self, chain_picks):
        """Property: live entries == sum of chain lengths, rows conserved."""
        store = SubentryStore(64, row_size=4)
        chains = [store.new_chain() for _ in range(8)]
        for pick in chain_picks:
            store.append(chains[pick], sub(pick))
        total = sum(len(c) for c in chains)
        assert store.entries_live == total
        rows_used = sum(c.rows for c in chains)
        assert store.free_rows == store.n_rows - rows_used
        for chain in chains:
            store.free_chain(chain)
        assert store.free_rows == store.n_rows


class TestCacheArray:
    def test_cacheless_never_hits(self):
        cache = CacheArray(0)
        assert not cache.present
        assert not cache.probe(1)
        cache.fill(1)
        assert not cache.probe(1)

    def test_fill_then_hit(self):
        cache = CacheArray(16)
        assert not cache.probe(5)
        cache.fill(5)
        assert cache.probe(5)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_direct_mapped_conflict(self):
        cache = CacheArray(4, assoc=1)
        cache.fill(0)
        cache.fill(4)  # same set (line % 4)
        assert not cache.probe(0)
        assert cache.probe(4)
        assert cache.stats.evictions == 1

    def test_set_associative_holds_conflicting_lines(self):
        cache = CacheArray(8, assoc=2)  # 4 sets x 2 ways
        cache.fill(0)
        cache.fill(4)
        assert cache.probe(0) and cache.probe(4)

    def test_lru_eviction_order(self):
        cache = CacheArray(2, assoc=2)  # one set, two ways
        cache.fill(10)
        cache.fill(20)
        cache.probe(10)  # 10 now MRU
        cache.fill(30)   # evicts 20
        assert cache.probe(10)
        assert not cache.probe(20)

    def test_refill_does_not_duplicate(self):
        cache = CacheArray(4)
        cache.fill(1)
        cache.fill(1)
        assert cache.occupancy == 1

    def test_from_kib(self):
        cache = CacheArray.from_kib(4)  # 4 KiB / 64 B = 64 lines
        assert cache.n_lines == 64
        assert CacheArray.from_kib(0).present is False

    def test_invalid_assoc_rejected(self):
        with pytest.raises(ValueError):
            CacheArray(10, assoc=4)

    @given(st.lists(st.integers(min_value=0, max_value=255), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_bounded(self, lines):
        cache = CacheArray(16, assoc=4)
        for line in lines:
            cache.fill(line)
        assert cache.occupancy <= 16
        for s in cache._sets:
            assert len(s) <= 4
