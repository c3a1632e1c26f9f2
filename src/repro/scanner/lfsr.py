"""Linear feedback shift registers for scan-order permutation.

The paper's scanner "applies a linear feedback shift register of order
2^32 - 1 to distribute the sequence of target IP addresses", so scanned
networks see only a thin trickle of probes at any moment.  A maximal-length
LFSR of order *n* visits every value in [1, 2^n - 1] exactly once in a
pseudo-random order; the scanner picks the smallest order covering its
target space and skips out-of-range states.

The batched scan pipeline consumes the register through
:func:`permutation` (the full period materialised once into an
``array('I')`` and memoised — the walk is a pure function of ``(order,
seed, taps)``, so weekly re-scans and bench repeats pay nothing).
The scanner cuts each memoised walk once per shard range into the
column of its allowed states (:class:`repro.scanner.ipv4scan.
WalkOrder`); :class:`TargetBatchIterator` (fixed-size batches of
selected states, extracted with C-level ``compress``/``islice``) is
the same selection done batch by batch, kept as the reference the
benchmarks time the walk with.
"""

from array import array
from itertools import compress, islice

# Maximal-length Fibonacci LFSR tap masks (taps as a bitmask of the
# polynomial, excluding the x^n term), one per register width.
MAXIMAL_TAPS = {
    3: 0b110,
    4: 0b1100,
    5: 0b10100,
    6: 0b110000,
    7: 0b1100000,
    8: 0b10111000,
    9: 0b100010000,
    10: 0b1001000000,
    11: 0b10100000000,
    12: 0b111000001000,
    13: 0b1110010000000,
    14: 0b11100000000010,
    15: 0b110000000000000,
    16: 0b1101000000001000,
    17: 0b10010000000000000,
    18: 0b100000010000000000,
    19: 0b1110010000000000000,
    20: 0b10010000000000000000,
    21: 0b101000000000000000000,
    22: 0b1100000000000000000000,
    23: 0b10000100000000000000000,
    24: 0b111000010000000000000000,
    25: 0b1001000000000000000000000,
    26: 0b10000000000000000000100011,
    27: 0b100000000000000000000010011,
    28: 0b1001000000000000000000000000,
    29: 0b10100000000000000000000000000,
    30: 0b100000000000000000000000101001,
    31: 0b1001000000000000000000000000000,
    32: 0b10000000001000000000000000000011,
}


class LFSR:
    """A Fibonacci LFSR over ``order`` bits with maximal-length taps.

    Iterating yields every integer in ``[1, 2**order - 1]`` exactly once,
    starting from ``seed`` (which must be non-zero and fit the register).
    """

    def __init__(self, order, seed=1, taps=None):
        if order not in MAXIMAL_TAPS and taps is None:
            raise ValueError("no known maximal taps for order %d" % order)
        self.order = order
        self.taps = taps if taps is not None else MAXIMAL_TAPS[order]
        self.mask = (1 << order) - 1
        seed &= self.mask
        if seed == 0:
            raise ValueError("LFSR seed must be non-zero")
        self.seed = seed
        self.state = seed

    def step(self):
        """Advance one state and return it."""
        lsb = self.state & 1
        self.state >>= 1
        if lsb:
            self.state ^= self.taps
        return self.state

    def sequence(self):
        """Yield the full period: every non-zero state exactly once."""
        state = first = self.state
        taps = self.taps
        while True:
            yield state
            # step(), inlined: every scan's walk is built here.
            state = state >> 1 ^ (taps if state & 1 else 0)
            if state == first:
                return

    @property
    def period(self):
        return self.mask

    @staticmethod
    def order_for(count):
        """Smallest register order whose period covers ``count`` values."""
        order = 3
        while (1 << order) - 1 < count:
            order += 1
        return order


# The permutation memo: (order, seed, taps) -> array('I') of the full
# period.  Periods above the cap (16 MiB of states) are still built on
# demand but not retained.
_PERMUTATION_CACHE = {}
_PERMUTATION_CACHE_MAX_PERIOD = 1 << 22
_PERMUTATION_CACHE_ENTRIES = 8


def permutation(order, seed=1, taps=None, force_cache=False):
    """The full LFSR walk as a reusable ``array('I')`` of states.

    Element ``i`` is the register state after ``i`` steps from ``seed``
    (element 0 is the seed itself): exactly the visit order
    :meth:`LFSR.sequence` yields, in random-access, C-iterable form.

    ``force_cache`` memoises the walk even past the size cap: the
    sharded engine's pre-fork prewarm uses it so million-address scans
    build their (hundreds of MB) walk once and share it copy-on-write
    across every worker, instead of paying the build per process.
    """
    lfsr = LFSR(order, seed=seed, taps=taps)
    key = (order, lfsr.seed, lfsr.taps)
    cached = _PERMUTATION_CACHE.get(key)
    if cached is not None:
        return cached
    walk = array("I", lfsr.sequence())
    if force_cache or lfsr.period <= _PERMUTATION_CACHE_MAX_PERIOD:
        if len(_PERMUTATION_CACHE) >= _PERMUTATION_CACHE_ENTRIES:
            _PERMUTATION_CACHE.pop(next(iter(_PERMUTATION_CACHE)))
        _PERMUTATION_CACHE[key] = walk
    return walk


def memoised(walk):
    """Whether :func:`permutation`'s memo holds ``walk`` (this object):
    what is derived from a walk may be kept exactly as long."""
    return any(kept is walk for kept in _PERMUTATION_CACHE.values())


class TargetBatchIterator:
    """Fixed-size batches of permuted LFSR states passing a selector.

    ``selector`` is an integer-indexable mask (a ``bytearray`` of
    length ``period + 1``, indexed by state value) folding every
    per-state predicate — in-range, in-shard, not filtered — into one
    subscript.  Extraction runs entirely in C: ``compress`` pairs the
    permutation with ``map(selector.__getitem__, ...)`` and ``islice``
    chops the survivors into lists of at most ``batch_size`` states, in
    exact permutation order.  Iterating is single-shot (the underlying
    stream is consumed).
    """

    def __init__(self, walk, selector, batch_size=4096):
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        self.batch_size = batch_size
        self._stream = compress(walk, map(selector.__getitem__, walk))

    def __iter__(self):
        stream = self._stream
        size = self.batch_size
        while True:
            batch = list(islice(stream, size))
            if not batch:
                return
            yield batch
