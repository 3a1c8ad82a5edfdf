"""Miss-optimized memory systems (MOMS) -- the paper's core contribution.

A MOMS is an extreme non-blocking cache: instead of maximizing hits with
a large data array, it tracks tens of thousands of outstanding read
misses in RAM-backed, cuckoo-hashed MSHRs with a large subentry buffer,
so that every in-flight DRAM line can serve many pending requests
("secondary misses are as good as hits for throughput").  This package
provides the MSHR file, subentry store, optional cache arrays, the bank
pipeline that combines them, multi-bank assemblies with crossbars, the
traditional non-blocking cache baseline, and the shared / private /
two-level hierarchy compositions of paper Fig. 8.
"""

from repro.core.mshr import AssociativeMshrFile, CuckooMshrFile, MshrEntry
from repro.core.subentry import SubentryStore
from repro.core.cache import CacheArray
from repro.core.bank import BankParams, MomsBank
from repro.core.hierarchy import (
    MemoryHierarchy,
    build_hierarchy,
)

__all__ = [
    "AssociativeMshrFile",
    "BankParams",
    "CacheArray",
    "CuckooMshrFile",
    "MemoryHierarchy",
    "MomsBank",
    "MshrEntry",
    "SubentryStore",
    "build_hierarchy",
]
