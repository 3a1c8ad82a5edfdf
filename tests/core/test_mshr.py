"""Tests for cuckoo and fully-associative MSHR files."""

import copy

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import AssociativeMshrFile, CuckooMshrFile
from repro.core import mshr as mshr_module
from repro.core.mshr import MshrEntry, lcg_jump

_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407


def _advance(state, n):
    """*n* single victim-way LCG draws, as ``CuckooMshrFile.insert`` makes."""
    for _ in range(n):
        state = (state * _LCG_A + _LCG_C) % (1 << 64)
    return state


def _fill_slots(mshrs, slots, next_addr):
    """Park a fresh line in each (way, slot) of *slots*; returns the next
    unused address.

    Each line sits in one of its own candidate slots, so the table stays
    a legal cuckoo layout; this reaches full and one-empty tables that
    plain inserts rarely reach at small sizes.
    """
    for way, slot in slots:
        while mshrs._slots(next_addr)[way] != slot:
            next_addr += 1
        mshrs._tables[way][slot] = MshrEntry(next_addr)
        mshrs.occupancy += 1
        next_addr += 1
    return next_addr


def _empty_slots(mshrs):
    return [(way, slot) for way, table in enumerate(mshrs._tables)
            for slot, entry in enumerate(table) if entry is None]


def _snapshot(mshrs):
    return (
        [[None if e is None else e.line_addr for e in table]
         for table in mshrs._tables],
        mshrs._victim_state,
        mshrs.occupancy,
        mshrs.stats.as_dict(),
    )


class TestCuckooMshrFile:
    def test_insert_then_lookup(self):
        mshrs = CuckooMshrFile(64)
        entry = mshrs.insert(0x123)
        assert entry is not None
        assert mshrs.lookup(0x123) is entry
        assert mshrs.occupancy == 1

    def test_lookup_missing_returns_none(self):
        mshrs = CuckooMshrFile(64)
        assert mshrs.lookup(0x42) is None

    def test_remove_frees_slot(self):
        mshrs = CuckooMshrFile(64)
        mshrs.insert(7)
        removed = mshrs.remove(7)
        assert removed.line_addr == 7
        assert mshrs.lookup(7) is None
        assert mshrs.occupancy == 0

    def test_remove_missing_raises(self):
        mshrs = CuckooMshrFile(64)
        with pytest.raises(KeyError):
            mshrs.remove(9)

    def test_fills_to_high_load_factor(self):
        """Cuckoo hashing reaches high occupancy before failing."""
        mshrs = CuckooMshrFile(1024, n_ways=4)
        inserted = 0
        for line in range(1024):
            if mshrs.insert(line) is not None:
                inserted += 1
        assert inserted / mshrs.capacity > 0.85

    def test_insert_failure_preserves_state(self):
        """A failed insert must leave every previous entry findable."""
        mshrs = CuckooMshrFile(16, n_ways=2, max_kicks=4)
        inserted = []
        line = 0
        # Fill until the first failure.
        while True:
            if mshrs.insert(line) is not None:
                inserted.append(line)
            else:
                break
            line += 1
            assert line < 10_000
        # All previously inserted lines still there, failed one absent.
        for prev in inserted:
            assert mshrs.lookup(prev) is not None
        assert mshrs.lookup(line) is None
        assert mshrs.occupancy == len(inserted)

    def test_kick_stats_recorded(self):
        mshrs = CuckooMshrFile(32, n_ways=2)
        for line in range(24):
            mshrs.insert(line)
        assert mshrs.stats.inserts <= 24
        assert mshrs.stats.peak_occupancy == mshrs.occupancy

    @given(st.lists(st.integers(min_value=0, max_value=10**6),
                    unique=True, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_behaves_like_a_set(self, lines):
        """Property: cuckoo file == python set (when inserts succeed)."""
        mshrs = CuckooMshrFile(512)
        model = set()
        for line in lines:
            if mshrs.insert(line) is not None:
                model.add(line)
        for line in lines:
            assert (mshrs.lookup(line) is not None) == (line in model)
        assert mshrs.occupancy == len(model)
        assert sorted(e.line_addr for e in mshrs.entries()) == sorted(model)

    @given(st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=0, max_value=63)),
                    max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_insert_remove_interleaving(self, ops):
        """Property: arbitrary insert/remove sequences stay consistent."""
        mshrs = CuckooMshrFile(256)
        model = set()
        for is_insert, line in ops:
            if is_insert:
                if line not in model and mshrs.insert(line) is not None:
                    model.add(line)
            elif line in model:
                mshrs.remove(line)
                model.discard(line)
        assert mshrs.occupancy == len(model)
        for line in model:
            assert mshrs.lookup(line) is not None


@st.composite
def _cuckoo_files(draw):
    """A small cuckoo file after a random insert/remove history, topped
    up to full or to exactly one empty slot on some draws."""
    n_ways = draw(st.integers(2, 4))
    capacity = draw(st.integers(8, 64))
    mshrs = CuckooMshrFile(capacity, n_ways=n_ways,
                           max_kicks=draw(st.integers(0, 32)),
                           seed=draw(st.integers(1, 1000)))
    live = []
    for is_insert, line in draw(st.lists(
            st.tuples(st.booleans(), st.integers(0, 255)), max_size=120)):
        if is_insert:
            if line not in live and mshrs.insert(line) is not None:
                live.append(line)
        elif line in live:
            mshrs.remove(line)
            live.remove(line)
    leave_empty = draw(st.sampled_from([None, 0, 1]))
    if leave_empty is not None:
        empty = draw(st.permutations(_empty_slots(mshrs)))
        _fill_slots(mshrs, empty[leave_empty:], 256)
    return mshrs


class TestDeadEnd:
    """``_dead_end`` short-cuts only attempts the plain kick walk fails.

    The reference is a deep copy whose ``_dead_end`` always answers
    False, which is the plain walk; both must end in the same state.
    """

    @staticmethod
    def _plain(mshrs):
        ref = copy.deepcopy(mshrs)
        ref._dead_end = lambda line_addr: False
        return ref

    @given(_cuckoo_files(), st.integers(0, 1 << 20))
    @settings(max_examples=200, deadline=None)
    def test_insert_matches_plain_walk(self, mshrs, offset):
        line = 1 << 30 | offset  # above every resident address
        ref = self._plain(mshrs)
        dead = mshrs._dead_end(line)
        got, want = mshrs.insert(line), ref.insert(line)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.line_addr == want.line_addr == line
        assert _snapshot(mshrs) == _snapshot(ref)
        if dead:
            assert want is None
        if got is None:
            assert mshrs.hopeless == dead

    @given(_cuckoo_files(), st.integers(0, 1 << 20), st.integers(1, 300))
    @settings(max_examples=200, deadline=None)
    def test_failing_run_matches_per_cycle_inserts(self, mshrs, offset, n):
        """``fail_hopeless(n)``, the bulk commit of a bank's slept
        retries, leaves the state that *n* plain kick walks of a proved
        dead end leave."""
        line = 1 << 30 | offset
        assume(mshrs._dead_end(line))
        proved = copy.deepcopy(mshrs)
        assert proved.insert(line) is None
        assert proved.hopeless
        ref = self._plain(mshrs)
        mshrs.fail_hopeless(n)
        for _ in range(n):
            assert ref.insert(line) is None
        # Tables as line addresses, victim state, occupancy and stats.
        assert _snapshot(mshrs) == _snapshot(ref)

    def test_full_table_is_a_dead_end(self):
        mshrs = CuckooMshrFile(16, n_ways=2)
        _fill_slots(mshrs, _empty_slots(mshrs), 0)
        assert mshrs.occupancy == mshrs.capacity
        assert mshrs._dead_end(1 << 30)

    def test_reachable_empty_slot_is_not_a_dead_end(self):
        mshrs = CuckooMshrFile(16, n_ways=2)
        way, slot = 0, mshrs._slots(1 << 30)[0]
        _fill_slots(mshrs, [s for s in _empty_slots(mshrs)
                            if s != (way, slot)], 0)
        assert not mshrs._dead_end(1 << 30)
        assert mshrs.insert(1 << 30) is not None

    def test_proven_run_commits_without_drawing(self, monkeypatch):
        """A proven dead-end insert, and a bulk commit of any number of
        them, is one PRNG jump: no victim way is drawn."""
        mshrs = CuckooMshrFile(16, n_ways=2, max_kicks=32)
        empty = _empty_slots(mshrs)
        _fill_slots(mshrs, empty[1:], 0)
        assert mshrs.occupancy == 15
        line = next(la for la in range(1 << 30, (1 << 30) + 10_000)
                    if mshrs._dead_end(la))
        calls = []
        real = mshr_module._lcg_step
        monkeypatch.setattr(
            mshr_module, "_lcg_step",
            lambda *args: calls.append(args) or real(*args))
        tables, state = _snapshot(mshrs)[0], mshrs._victim_state
        assert mshrs.insert(line) is None
        mshrs.fail_hopeless(100_000)
        assert calls == []
        assert mshrs.stats.insert_failures == 100_001
        assert mshrs._victim_state == lcg_jump(state, 100_001 * 33)
        assert _snapshot(mshrs)[0] == tables


class TestLcgJump:
    @pytest.mark.parametrize("n", [0, 1, 2, 33, 1000])
    def test_matches_single_advances(self, n):
        for seed in (0, 1, 0x9E3779B97F4A7C15, (1 << 64) - 1):
            assert lcg_jump(seed, n) == _advance(seed, n)

    @given(st.integers(0, (1 << 64) - 1), st.integers(0, 5000),
           st.integers(0, 5000))
    @settings(max_examples=100, deadline=None)
    def test_additive(self, seed, a, b):
        assert lcg_jump(lcg_jump(seed, a), b) == lcg_jump(seed, a + b)


class TestAssociativeMshrFile:
    def test_blocks_at_capacity(self):
        mshrs = AssociativeMshrFile(capacity=4)
        for line in range(4):
            assert mshrs.insert(line) is not None
        assert mshrs.insert(99) is None
        assert mshrs.stats.insert_failures == 1

    def test_remove_unblocks(self):
        mshrs = AssociativeMshrFile(capacity=2)
        mshrs.insert(1)
        mshrs.insert(2)
        assert mshrs.insert(3) is None
        mshrs.remove(1)
        assert mshrs.insert(3) is not None

    def test_paper_default_is_sixteen(self):
        mshrs = AssociativeMshrFile()
        assert mshrs.capacity == 16

    def test_load_factor(self):
        mshrs = AssociativeMshrFile(capacity=8)
        mshrs.insert(5)
        assert mshrs.load_factor == pytest.approx(1 / 8)
