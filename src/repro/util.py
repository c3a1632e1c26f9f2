"""Small shared utilities."""

import math
import sys
import zlib
from array import array
from bisect import bisect_right

M64 = (1 << 64) - 1

# Values per packed int in :func:`fate_counts`: 256 KiB at 128 bits a lane.
LANE_CHUNK = 1 << 14


def mix64(value):
    """splitmix64 finaliser: an evenly distributed 64-bit mix of a key.

    Packet fates, fault draws, probe identities and pacing jitter are
    pure functions of (seed, flow, occurrence) through this hash —
    independent of how concurrent flows interleave, which is what lets
    sharded scan workers reproduce a sequential scan exactly.  The
    per-datagram and per-probe draws (``Network._packet_fate``,
    ``Ipv4Scanner._sweep``) inline it and say so; whole columns of draws
    go through :func:`fate_counts`.
    """
    value &= M64
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & M64
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & M64
    value ^= value >> 31
    return value


def fate_threshold(rate):
    """The integer form of a fate's float compare: a 64-bit draw ``d``
    has ``d < rate * (M64 + 1)`` exactly when ``d < fate_threshold(rate)``
    (both sides are exact: scaling by 2**64 only moves the exponent, and
    Python compares an int with a float exactly)."""
    return math.ceil(rate * 2.0 ** 64)


def fate_counts(values, rules, draws):
    """Column form of a chain of per-occurrence fate draws.

    Value ``i`` is drawn at occurrences ``0 .. draws[i] - 1`` (``draws``
    is a bytes-like column as long as ``values``).  A rule ``(base,
    multiplier, threshold)`` keys value ``v`` as ``key = (base ^ v *
    multiplier) & M64`` and strikes occurrence ``o`` when
    ``mix64(key ^ mix64(o + 1)) < threshold`` (:func:`fate_threshold`
    of its rate); at each occurrence the first rule that strikes claims
    it.  Returns one bytearray per rule: per value, how many of its
    occurrences that rule claimed.

    The draws run as whole-int operations over lanes: up to
    :data:`LANE_CHUNK` values packed into one int, 128 bits apart, each
    lane a 64-bit word above a 64-bit guard zone.  A right shift pulls
    the next lane's low bits into the guard zone, so every xor-shift is
    masked back to the lanes before the multiply that would carry them
    into the next lane; a lane's product fits its 128 bits.  A lane is
    below ``threshold`` when adding ``2**64 - threshold`` leaves bit 64
    clear.  Chunking keeps every temporary int at a few hundred KiB
    whatever the column's length.
    """
    columns = [bytearray(len(values)) for __ in rules]
    most = max(draws, default=0)
    lanes = {}
    for start in range(0, len(values), LANE_CHUNK):
        stop = min(start + LANE_CHUNK, len(values))
        size = stop - start
        if size not in lanes:
            lanes[size] = _lane_constants(size, rules)
        ones, mask, bases, adds = lanes[size]
        spread = array("Q", bytes(16 * size))
        spread[0::2] = array("Q", values[start:stop])
        if sys.byteorder == "big":
            spread.byteswap()
        packed = int.from_bytes(spread, "little")
        keys = [(packed * multiplier & mask) ^ base
                for base, (__, multiplier, ___) in zip(bases, rules)]
        # Each lane's draws left; a lane is live while it has one.
        gate = bytearray(16 * size)
        gate[0::16] = draws[start:stop]
        remaining = int.from_bytes(gate, "little")
        claimed = [0] * len(rules)
        for occurrence in range(most):
            live = (remaining + mask) >> 64 & ones
            if not live:
                break
            remaining -= live
            salt = mix64(occurrence + 1) * ones
            for index, (key, add) in enumerate(zip(keys, adds)):
                if add is None:         # threshold <= 0: never strikes
                    continue
                if not add:             # threshold >= 2**64: always
                    claimed[index] += live
                    break
                draw = key ^ salt
                draw = ((draw ^ draw >> 30) & mask) \
                    * 0xBF58476D1CE4E5B9 & mask
                draw = ((draw ^ draw >> 27) & mask) \
                    * 0x94D049BB133111EB & mask
                # Left unmasked: the next lane's bits land at 97 and up,
                # clear of the carry into bit 64.
                draw ^= draw >> 31
                missed = (draw + add) >> 64 & live
                claimed[index] += live ^ missed
                live = missed
        for column, total in zip(columns, claimed):
            column[start:stop] = total.to_bytes(16 * size, "little")[0::16]
    return columns


def _lane_constants(size, rules):
    """:func:`fate_counts`' constants for ``size`` lanes: a 1 and a
    64-bit mask in every lane, each rule's base in every lane, and what
    each rule adds to a draw to carry into bit 64 when the draw is not
    below its threshold (``None``: it never strikes; 0: it always
    does)."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * size, "little")
    adds = [None if threshold <= 0 else
            0 if threshold > M64 else ((1 << 64) - threshold) * ones
            for __, ___, threshold in rules]
    return (ones, ones * M64,
            [(base & M64) * ones for base, __, ___ in rules], adds)


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
