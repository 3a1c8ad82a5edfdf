"""Cache arrays: the optional hit-serving structure of a MOMS bank.

The array tracks only line *presence* -- data always comes from the
functional backing store, which is safe because the accelerator's
irregular reads target arrays that are read-only within an iteration
(synchronous mode) or whose algorithms tolerate staleness
(asynchronous mode), exactly as in the paper.

A MOMS with ``n_lines=0`` has no array at all: every request takes the
miss path.  Figs. 12 and 15 show this costs a MOMS almost nothing.
"""

from dataclasses import dataclass


@dataclass
class CacheStats:
    probes: int = 0
    hits: int = 0
    fills: int = 0
    evictions: int = 0

    @property
    def hit_rate(self):
        return self.hits / self.probes if self.probes else 0.0

    def as_dict(self):
        """JSON-safe snapshot (telemetry / report export)."""
        return {
            "probes": self.probes,
            "hits": self.hits,
            "fills": self.fills,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


class CacheArray:
    """Direct-mapped or set-associative presence-only cache array."""

    def __init__(self, n_lines, assoc=1, line_bytes=64):
        if n_lines < 0:
            raise ValueError("n_lines must be >= 0")
        if n_lines and (assoc < 1 or n_lines % assoc):
            raise ValueError("n_lines must be a multiple of associativity")
        self.n_lines = n_lines
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.n_sets = n_lines // assoc if n_lines else 0
        # Per set: list of line addresses, most recently used last.
        self._sets = [[] for _ in range(self.n_sets)]
        self.stats = CacheStats()

    @property
    def present(self):
        """False for the cache-less configurations of Figs. 12 and 15."""
        return self.n_lines > 0

    def _set_of(self, line_addr):
        return line_addr % self.n_sets

    def probe(self, line_addr):
        """True on hit; updates LRU order."""
        if not self.present:
            return False
        self.stats.probes += 1
        ways = self._sets[self._set_of(line_addr)]
        if line_addr in ways:
            ways.remove(line_addr)
            ways.append(line_addr)
            self.stats.hits += 1
            return True
        return False

    def fill(self, line_addr):
        """Insert a returned line, evicting LRU within the set."""
        if not self.present:
            return
        ways = self._sets[self._set_of(line_addr)]
        if line_addr in ways:
            ways.remove(line_addr)
        elif len(ways) >= self.assoc:
            ways.pop(0)
            self.stats.evictions += 1
        ways.append(line_addr)
        self.stats.fills += 1

    @property
    def occupancy(self):
        return sum(len(ways) for ways in self._sets)

    @classmethod
    def from_kib(cls, kib, assoc=1, line_bytes=64):
        """Build from a capacity in KiB (0 KiB -> cache-less)."""
        n_lines = kib * 1024 // line_bytes
        if n_lines and assoc > 1:
            n_lines -= n_lines % assoc
        return cls(n_lines, assoc=assoc if n_lines else 1,
                   line_bytes=line_bytes)
