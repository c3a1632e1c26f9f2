"""Small shared utilities."""

import zlib
from bisect import bisect_right

M64 = (1 << 64) - 1


def mix64(value):
    """splitmix64 finaliser: an evenly distributed 64-bit mix of a key.

    Packet fates, fault draws, probe identities and pacing jitter are
    pure functions of (seed, flow, occurrence) through this hash —
    independent of how concurrent flows interleave, which is what lets
    sharded scan workers reproduce a sequential scan exactly.  The
    per-datagram and per-probe draws (``Network._packet_fate``,
    ``Network._query_losses``, ``Ipv4Scanner._sweep``) inline it and say
    so.
    """
    value &= M64
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & M64
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & M64
    value ^= value >> 31
    return value


def stable_hash(*parts):
    """A process-independent hash of the given parts.

    Python's built-in ``hash`` is salted per interpreter run; simulation
    code that derives deterministic choices from names or addresses must
    use this instead so results are reproducible across runs.
    """
    text = "\x1f".join(str(part) for part in parts)
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


class PickTable:
    """A weighted pick over a fixed ``[(item, weight), ...]`` list.

    The running sums are built once; a pick is the first item whose
    running sum exceeds ``rng.random() * total`` (the last item when
    rounding puts the point at or past the last sum), by ``bisect_right``.
    ``total`` is ``sum()`` of the weights, never the last running sum:
    from Python 3.12 ``sum()`` compensates float rounding, and a drawn
    world depends on which one scales the point.
    """

    __slots__ = ("_sums", "_total", "_picks")

    def __init__(self, weighted_items):
        weighted_items = tuple(weighted_items)
        total = sum(weight for __, weight in weighted_items)
        if total <= 0 or any(weight < 0 for __, weight in weighted_items):
            raise ValueError("weights must be >= 0 with a positive sum")
        self._sums = []
        running = 0.0
        for __, weight in weighted_items:
            running += weight
            self._sums.append(running)
        self._total = total
        items = tuple(item for item, __ in weighted_items)
        self._picks = items + items[-1:]   # a point past the last sum

    def pick(self, rng):
        return self._picks[bisect_right(self._sums,
                                        rng.random() * self._total)]


def percentage(part, whole):
    """``part`` as a percentage of ``whole`` (0.0 when whole is zero)."""
    return 100.0 * part / whole if whole else 0.0


def apportion(total, weights, minimums=None):
    """Split integer ``total`` by ``weights`` with largest-remainder rounding.

    Returns a list of non-negative integers summing to ``total`` (before
    minimums), one per weight, using Hamilton's method: each share gets
    the floor of its exact quota, and the leftover units go to the
    largest fractional remainders (ties broken by position, so the split
    is deterministic).  Independent ``int(round(...))`` per share drifts
    from the total as quotas shrink; this never does.

    ``minimums`` (optional, same length) clamps each share from below
    *after* apportionment.  Clamping can push the sum above ``total`` —
    the same semantics as the per-pool ``MIN_POOL_COUNT`` floor.
    """
    if total < 0:
        raise ValueError("total must be >= 0")
    weight_sum = sum(weights)
    if weight_sum <= 0:
        raise ValueError("weights must sum to a positive value")
    quotas = [total * weight / weight_sum for weight in weights]
    counts = [int(quota) for quota in quotas]
    leftover = total - sum(counts)
    order = sorted(range(len(weights)),
                   key=lambda i: (counts[i] - quotas[i], i))
    for i in order[:leftover]:
        counts[i] += 1
    if minimums is not None:
        counts = [max(minimum, count)
                  for minimum, count in zip(minimums, counts)]
    return counts
