"""Shared numpy batch kernels for the simulator's hot structures.

The MSHR files, subentry stores, the DRAM response schedule and the
PE's decoded-edge backlog hold their state as parallel columns (plain
lists or numpy arrays) and advance it with the batch kernels below
where a whole cycle's -- or a whole fused run's -- worth of work is
available at once.  Each kernel is an elementwise transliteration of
the per-element step it batches (integer arithmetic wraps identically
mod 2**64, IEEE float64/float32 elementwise ops are bit-exact either
way); ``tests/core/test_kernels_diff.py`` checks each against that
step, and the golden corpus (``tests/golden``) pins the whole path.

numpy pays only for batches of roughly 16 elements or more, so the
components that call these kernels dispatch on batch size themselves
(DRAM accept batches, bank drain addresses, MSHR slot priming); there
is no user-visible kernel mode.
"""

_NUMPY_HELP = (
    "numpy is required by the repro core simulator: the functional "
    "memory store is a numpy byte buffer and the MOMS/DRAM/PE batch "
    "kernels operate on numpy arrays.  There is no numpy-free "
    "fallback.  Install it with `pip install numpy`."
)

try:
    import numpy as np
except ImportError as exc:  # pragma: no cover - exercised only sans numpy
    raise ImportError(_NUMPY_HELP) from exc

#: splitmix64 finalizer constants (match CuckooMshrFile._slots).
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


def splitmix64_slots(line_addrs, multipliers, way_size):
    """Cuckoo candidate slots for a batch of line addresses.

    Returns an ``(n_addrs, n_ways)`` uint64 array where row *i*, column
    *w* is the slot of ``line_addrs[i]`` in way *w* -- the batch form
    of ``CuckooMshrFile._slots``.  uint64 arithmetic wraps mod 2**64,
    which is exactly the per-line chain's ``& ((1 << 64) - 1)``
    masking, so the results are bit-identical.
    """
    addrs = np.asarray(line_addrs, dtype=np.uint64)
    mults = np.asarray(multipliers, dtype=np.uint64)
    h = addrs[:, None] + mults[None, :]
    h = (h ^ (h >> _S30)) * _MIX1
    h = (h ^ (h >> _S27)) * _MIX2
    h ^= h >> _S31
    return h % np.uint64(way_size)


#: Victim-way LCG constants (match CuckooMshrFile.insert).
_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_LCG_MASK = (1 << 64) - 1

# Cached closed-form coefficients: state_i = A**i * seed + off_i where
# off_i = C * (A**(i-1) + ... + A + 1), everything mod 2**64.  They are
# seed-independent, so one incremental growth pass (amortized over the
# process lifetime) serves every lcg_batch call.
_lcg_pows = [_LCG_A]
_lcg_offs = [_LCG_C]
_lcg_pows_np = None
_lcg_offs_np = None


def lcg_batch(seed, n):
    """States 1..n of the cuckoo victim-way LCG from *seed* (uint64).

    The batch form of ``CuckooMshrFile``'s per-kick advance
    ``state = state * A + C mod 2**64``: two elementwise uint64 ops
    over cached coefficient arrays (numpy uint64 wraps mod 2**64
    exactly like the per-kick masking), so a fused retry run can
    precompute every victim-way draw it might need in one pass.
    """
    global _lcg_pows_np, _lcg_offs_np
    if n <= 0:
        return np.empty(0, dtype=np.uint64)
    if len(_lcg_pows) < n:
        pow_i = _lcg_pows[-1]
        off_i = _lcg_offs[-1]
        for _ in range(len(_lcg_pows), n):
            pow_i = (pow_i * _LCG_A) & _LCG_MASK
            off_i = (off_i * _LCG_A + _LCG_C) & _LCG_MASK
            _lcg_pows.append(pow_i)
            _lcg_offs.append(off_i)
        _lcg_pows_np = None
    if _lcg_pows_np is None or len(_lcg_pows_np) < n:
        _lcg_pows_np = np.array(_lcg_pows, dtype=np.uint64)
        _lcg_offs_np = np.array(_lcg_offs, dtype=np.uint64)
    return _lcg_pows_np[:n] * np.uint64(seed) + _lcg_offs_np[:n]


def lcg_jump(seed, n):
    """State after *n* draws of the victim-way LCG, in O(log n).

    Binary jump-ahead (Brown's algorithm): composing the affine map
    ``x -> A*x + C`` with itself squares ``A`` and folds the offset as
    ``C -> C * (A + 1)``, so any draw count is a walk over the bits of
    *n*.  Bit-identical to *n* single advances -- this is how a fused
    retry run that ``CuckooMshrFile._dead_end`` proves hopeless commits
    thousands of guaranteed failing draws without generating any of
    them.
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


def victim_ways_batch(seed, n, n_ways):
    """Victim-way draws 1..n of the cuckoo LCG from *seed*.

    Returns ``(ways, states)``: a Python list of way indices
    (``(state >> 33) % n_ways`` per draw, matching
    ``CuckooMshrFile.insert``'s per-kick selection) and the underlying
    uint64 state array -- ``states[k-1]`` is the committed PRNG state
    after k draws, which a fused retry run writes back in one step.
    """
    states = lcg_batch(seed, n)
    ways = ((states >> np.uint64(33)) % np.uint64(n_ways)).tolist()
    return ways, states


def fifo_service_starts(next_free, services):
    """Service-start cycles for a FIFO batch on a backlogged pipe.

    Valid exactly when the pipe stays busy across the whole accept
    window (``next_free >= last accept cycle``): request *j* then
    starts at ``next_free + sum(services[:j])`` independent of its
    accept cycle, which is the per-request step
    ``start = max(now, next_free); next_free = start + service``
    collapsed into one cumulative sum.  Returns an int64 array.
    """
    svc = np.asarray(services, dtype=np.int64)
    starts = np.empty(len(svc), dtype=np.int64)
    starts[0] = 0
    np.cumsum(svc[:-1], out=starts[1:])
    starts += next_free
    return starts


def channels_of_batch(addrs, granule, n_channels):
    """Owning DRAM channel for each global byte address in *addrs*.

    The batch form of ``AddressInterleaver.channel_of``: plain integer
    array arithmetic, one numpy pass for the whole batch.
    """
    a = np.asarray(addrs, dtype=np.int64)
    return (a // granule) % n_channels

