"""Miss status holding register (MSHR) files.

Two implementations:

* :class:`CuckooMshrFile` -- the paper's RAM-backed file: thousands of
  entries, looked up by cuckoo hashing over d ways instead of a fully
  associative CAM, so it maps onto ordinary BRAM.  An insertion can
  fail after a bounded kick chain; the bank then stalls and retries,
  which is the paper's behaviour under extreme occupancy.  When
  :meth:`CuckooMshrFile._dead_end` proves that no retry can place the
  line until an entry is removed, the failure is reported as
  ``hopeless`` and the bank sleeps until a line returns, settling the
  retries it slept through with :meth:`CuckooMshrFile.fail_hopeless`.
* :class:`AssociativeMshrFile` -- the classic small fully-associative
  file (16 entries in the paper's traditional-cache baseline); misses
  block as soon as it fills, which is exactly why traditional
  non-blocking caches throttle irregular workloads.
"""

from dataclasses import dataclass, field

#: Victim-way LCG: ``state = state * A + C mod 2**64``, way
#: ``(state >> 33) % n_ways``.
_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def _lcg_step(state):
    """One draw of the cuckoo victim-way LCG."""
    return (state * _LCG_A + _LCG_C) & _LCG_MASK


def lcg_jump(seed, n):
    """State after *n* draws of the victim-way LCG, in O(log n).

    Binary jump-ahead (Brown's algorithm): composing the affine map
    ``x -> A*x + C`` with itself squares ``A`` and folds the offset as
    ``C -> C * (A + 1)``, so any draw count is a walk over the bits of
    *n*.  Bit-identical to *n* single advances -- this is how the
    retries a bank slept through after ``CuckooMshrFile._dead_end``
    proved them hopeless commit thousands of guaranteed failing draws
    without generating any of them.
    """
    a, c = _LCG_A, _LCG_C
    ja, jc = 1, 0  # identity map, composed up to f^n
    while n > 0:
        if n & 1:
            # Apply the current power after the accumulated jump.
            ja = (ja * a) & _LCG_MASK
            jc = (jc * a + c) & _LCG_MASK
        c = (c * (a + 1)) & _LCG_MASK
        a = (a * a) & _LCG_MASK
        n >>= 1
    return (seed * ja + jc) & _LCG_MASK


@dataclass(slots=True)
class MshrEntry:
    """State of one outstanding cache line."""

    line_addr: int
    subentry_head: object = None
    subentry_count: int = 0


@dataclass
class MshrStats:
    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    insert_failures: int = 0
    kicks: int = 0
    peak_occupancy: int = 0

    def as_dict(self):
        """JSON-safe snapshot (telemetry / report export)."""
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "inserts": self.inserts,
            "insert_failures": self.insert_failures,
            "kicks": self.kicks,
            "peak_occupancy": self.peak_occupancy,
        }


class CuckooMshrFile:
    """d-way cuckoo hash table of MSHR entries, BRAM-style.

    ``capacity`` slots are split into ``n_ways`` tables.  Lookup probes
    one slot per way; insert kicks resident entries along a bounded
    chain and reports failure (-> pipeline stall) if the chain exceeds
    ``max_kicks``, mirroring the FPGA implementation in the paper's
    prior work.
    """

    # Fault-injection hook (repro.faults.plan.FaultState); class
    # attribute so unfaulted files pay one "is None" test per insert.
    _fault = None
    # Set by every failing insert: True when _dead_end proved that no
    # retry can place the line before an entry is removed.
    hopeless = False

    def __init__(self, capacity, n_ways=4, max_kicks=16, seed=1):
        if capacity < n_ways:
            raise ValueError("capacity must be at least n_ways")
        self.n_ways = n_ways
        self.way_size = max(1, capacity // n_ways)
        self.capacity = self.way_size * n_ways
        self.max_kicks = max_kicks
        self._tables = [[None] * self.way_size for _ in range(n_ways)]
        # Odd multipliers for multiply-shift hashing, seeded deterministically.
        rng_state = seed * 2654435761 % (1 << 32) or 1
        self._multipliers = []
        for _ in range(n_ways):
            rng_state = _lcg_step(rng_state)
            self._multipliers.append((rng_state >> 16) | 1)
        self._victim_state = rng_state ^ 0x9E3779B97F4A7C15
        self.occupancy = 0
        self.stats = MshrStats()
        # Hash memo: line addresses repeat heavily (lookup + insert +
        # remove all probe the same slots, and hot lines recur across
        # the run), so the splitmix64 chain is worth caching.  Bounded
        # by the number of distinct lines touched.
        self._slot_cache = {}

    def _slots(self, line_addr):
        """The candidate slot per way for *line_addr* (cached)."""
        slots = self._slot_cache.get(line_addr)
        if slots is None:
            # splitmix64-style finalizer: full avalanche even for small,
            # sequential line addresses (a plain multiply stays too
            # linear and caps the achievable cuckoo load factor).
            mask = (1 << 64) - 1
            way_size = self.way_size
            out = []
            for multiplier in self._multipliers:
                h = (line_addr + multiplier) & mask
                h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & mask
                h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & mask
                h ^= h >> 31
                out.append(h % way_size)
            slots = tuple(out)
            self._slot_cache[line_addr] = slots
        return slots

    def lookup(self, line_addr):
        """Return the entry for *line_addr* or None."""
        self.stats.lookups += 1
        for table, slot in zip(self._tables, self._slots(line_addr)):
            entry = table[slot]
            if entry is not None and entry.line_addr == line_addr:
                self.stats.hits += 1
                return entry
        return None

    def insert(self, line_addr):
        """Allocate an entry; returns it, or None on cuckoo failure.

        The caller must have checked that no entry for *line_addr*
        exists (a lookup always precedes insertion in the bank pipeline).
        When every candidate slot is occupied and :meth:`_dead_end`
        proves that no chain can place the line, the failing attempt is
        committed without walking it (:meth:`fail_hopeless`) and
        ``hopeless`` is set; any other failure clears it.
        """
        if self._fault is not None and self._fault.mshr_blocked():
            # Forced-full window: report failure without touching table
            # or PRNG state, so the retry after the window behaves
            # exactly like a first attempt.
            self.stats.insert_failures += 1
            self.hopeless = False
            return None
        entry = MshrEntry(line_addr)
        carried = entry
        tables = self._tables
        path = []  # (way, slot) of every displacement, for exact unwind
        for kick in range(self.max_kicks + 1):
            # First look for any empty slot among the d candidate ways.
            slots = self._slots(carried.line_addr)
            placed = False
            for way, slot in enumerate(slots):
                if tables[way][slot] is None:
                    tables[way][slot] = carried
                    placed = True
                    break
            if placed:
                self.occupancy += 1
                self.stats.inserts += 1
                self.stats.kicks += kick
                if self.occupancy > self.stats.peak_occupancy:
                    self.stats.peak_occupancy = self.occupancy
                return entry
            if not kick and self._dead_end(line_addr):
                # Provably hopeless: the chain would only shuffle and
                # unwind, so commit its draws and the failure directly.
                self.fail_hopeless(1)
                self.hopeless = True
                return None
            # All full: displace a pseudo-randomly chosen victim way so
            # kick chains explore the table instead of looping.
            self._victim_state = _lcg_step(self._victim_state)
            way = (self._victim_state >> 33) % self.n_ways
            slot = slots[way]
            resident = tables[way][slot]
            tables[way][slot] = carried
            path.append((way, slot))
            carried = resident
        # Kick chain too long: unwind the displacements in reverse so the
        # table is exactly as before (hardware bounds speculative kicks
        # the same way).
        for way, slot in reversed(path):
            displaced = self._tables[way][slot]
            self._tables[way][slot] = carried
            carried = displaced
        assert carried is entry
        self.stats.insert_failures += 1
        self.hopeless = False
        return None

    def fail_hopeless(self, n):
        """Commit *n* failing inserts that :meth:`_dead_end` proved.

        Each such attempt shuffles residents and unwinds, so it leaves
        the table as it was and only advances the victim PRNG by
        ``max_kicks + 1`` draws and ``insert_failures`` by one; *n* of
        them are one ``lcg_jump``.  Exact as long as no entry is
        removed in between: removals are the only way the closure can
        gain an empty slot.
        """
        self._victim_state = lcg_jump(
            self._victim_state, n * (self.max_kicks + 1)
        )
        self.stats.insert_failures += n

    def _dead_end(self, line_addr):
        """True when no kick chain can place *line_addr*, for any draws.

        Walks the closure S of *line_addr*: S starts as {line_addr} and
        gains the resident of every candidate slot of every line in S.
        An empty candidate slot anywhere in S returns False (a full
        table is the trivial True).  Otherwise every attempt fails,
        whatever the victim draws and ``max_kicks``: a kick writes the
        carried line only into an occupied slot, so the empty slots
        stay the base table's; every carried line is in S, since it is
        either a base resident of a candidate slot of an S line or a
        line an earlier kick wrote there; and a failing attempt
        unwinds exactly, so the next one starts from the same table.
        """
        if self.occupancy >= self.capacity:
            return True
        tables = self._tables
        closure = [line_addr]
        seen = {line_addr}
        # The list grows while the loop walks it (breadth first).
        for carried in closure:
            for table, slot in zip(tables, self._slots(carried)):
                resident = table[slot]
                if resident is None:
                    return False
                addr = resident.line_addr
                if addr not in seen:
                    seen.add(addr)
                    closure.append(addr)
        return True

    def peek(self, line_addr):
        """The entry for *line_addr* or None, with no lookup/hit stats.

        For observers (telemetry), which must not bump the
        counters the bank's own lookups account for.
        """
        for table, slot in zip(self._tables, self._slots(line_addr)):
            entry = table[slot]
            if entry is not None and entry.line_addr == line_addr:
                return entry
        return None

    def remove(self, line_addr):
        """Free the entry for *line_addr* (line returned and drained)."""
        for table, slot in zip(self._tables, self._slots(line_addr)):
            entry = table[slot]
            if entry is not None and entry.line_addr == line_addr:
                table[slot] = None
                self.occupancy -= 1
                return entry
        raise KeyError(f"no MSHR for line {line_addr:#x}")

    @property
    def load_factor(self):
        return self.occupancy / self.capacity

    def entries(self):
        """All live entries (diagnostics / invariant checks)."""
        for table in self._tables:
            for entry in table:
                if entry is not None:
                    yield entry


class AssociativeMshrFile:
    """Small fully-associative MSHR file (traditional cache baseline)."""

    _fault = None  # see CuckooMshrFile._fault

    def __init__(self, capacity=16):
        if capacity < 1:
            raise ValueError("need at least one MSHR")
        self.capacity = capacity
        self._entries = {}
        self.stats = MshrStats()

    def lookup(self, line_addr):
        self.stats.lookups += 1
        entry = self._entries.get(line_addr)
        if entry is not None:
            self.stats.hits += 1
        return entry

    def insert(self, line_addr):
        """Allocate an entry, or None when the file is full (-> block)."""
        if self._fault is not None and self._fault.mshr_blocked():
            self.stats.insert_failures += 1
            return None
        if len(self._entries) >= self.capacity:
            self.stats.insert_failures += 1
            return None
        entry = MshrEntry(line_addr)
        self._entries[line_addr] = entry
        self.stats.inserts += 1
        if len(self._entries) > self.stats.peak_occupancy:
            self.stats.peak_occupancy = len(self._entries)
        return entry

    def peek(self, line_addr):
        """The entry for *line_addr* or None, with no lookup/hit stats."""
        return self._entries.get(line_addr)

    def remove(self, line_addr):
        return self._entries.pop(line_addr)

    @property
    def occupancy(self):
        return len(self._entries)

    @property
    def load_factor(self):
        return len(self._entries) / self.capacity

    def entries(self):
        return iter(list(self._entries.values()))
