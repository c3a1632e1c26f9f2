"""Internet-wide IPv4 DNS scanning (paper §2.2).

One scan sends a single DNS A query to every address in the target space
(minus blacklist and reserved ranges), in LFSR-permuted order, with the
target address hex-encoded in the query name.  The result records, per
rcode, the set of *target* addresses that answered — attributing responses
by the encoded name, so hosts answering from a different source address
(multi-homed / DNS proxies) are both counted correctly and detected.

One sweep loop (see DESIGN.md, "One sweep loop"): every way of
probing — a full or sharded :meth:`Ipv4Scanner.scan`, an explicit
:meth:`Ipv4Scanner.scan_addresses` list, a single
:meth:`Ipv4Scanner.probe` — feeds :meth:`Ipv4Scanner._sweep` a *plan*,
an iterable of ``(hot_targets, cold_targets, cold_drops)`` tuples:

* ``scan`` cuts its range's memoised walk-order column
  (:class:`WalkOrder`: the allowed LFSR states of the range, in walk
  order, built once per walk) into fixed-size batches and asks the
  network whether cold targets — no node, no middlebox that acts on
  the probe, ~97% of the space — can be settled without the wire
  (:meth:`repro.netsim.network.Network.cold_sweep_columns`).  If so
  — retries, a fault plan and paced defenses included — the walk
  order's ranks place the network's hot positions in walk order and
  each batch's drop counts are summed off the network's drop columns;
  if not (flight recorder, dirty flow epoch, an opaque middlebox, a
  timed schedule) every target of the batch is hot.  Same loop either
  way;
* each hot target is sent under the attempt schedule
  (:func:`retry_schedule`, one attempt by default) as its question
  (:class:`repro.scanner.encoding.ProbeBatchEncoder`): the network
  settles it the way it settles a stub's question, and renders the
  payload only when the datagram takes the wire; either reply is
  read by :func:`_read_replies` (a wire reply straight off the fixed
  12-byte header);
* probe identity (txid + cache-busting label) is a pure hash of
  (scanner, scan epoch, target address) rather than a sequential
  counter, so any index subset of the target space — a shard — sends
  byte-identical probes to what a sequential full scan would send;
* :class:`ScanResult` stores observations as parallel integer columns
  and exposes the historical set API as lazy views, so shard result
  frames and checkpoint snapshots ship raw buffers, not per-IP
  containers.
"""

import bisect
from array import array
from collections import deque
from itertools import compress, count
from sys import intern

from repro.dnswire.constants import (
    RCODE_NOERROR,
    RCODE_REFUSED,
    RCODE_SERVFAIL,
)
from repro.netsim.address import (
    RESERVED_NETWORKS,
    address_positions,
    int_to_ip,
    ip_to_int,
    is_reserved,
)
from repro.scanner.encoding import ProbeBatchEncoder
from repro.scanner.lfsr import LFSR, memoised, permutation
from repro.scanner.options import BACKOFF, CHUNK_ROWS, ScanOptions
from repro.scanner.pacing import build_pacing_plan, defense_plane
from repro.util import M64, mix64


def _networks_intersect(left, right):
    """True when two CIDR prefixes share any address."""
    return ((left.base & right.mask) == right.base
            or (right.base & left.mask) == left.base)


def shard_ranges(total, shards):
    """Split ``[0, total)`` into ``shards`` contiguous, balanced ranges.

    Every index lands in exactly one range; empty trailing ranges are
    dropped (fewer indexes than shards yields fewer ranges).
    """
    if shards < 1:
        raise ValueError("shard count must be >= 1")
    size, remainder = divmod(total, shards)
    ranges = []
    start = 0
    for shard in range(shards):
        stop = start + size + (1 if shard < remainder else 0)
        if stop > start:
            ranges.append((start, stop))
        start = stop
    return ranges


class ScanTargetSpace:
    """Maps a dense index space onto a set of target prefixes.

    Substitution note: the paper permutes all 2^32 addresses; scanning the
    simulator's full IPv4 space would waste cycles on guaranteed-empty
    space, so the LFSR permutes the *allocated* universe instead — the
    same behaviour (bounded per-network probe rate) on the same
    populated prefixes.
    """

    def __init__(self, prefixes):
        self.prefixes = list(prefixes)
        self._cumulative = []
        total = 0
        for prefix in self.prefixes:
            self._cumulative.append(total)
            total += prefix.num_addresses
        self.total = total

    def int_at(self, index):
        """The 32-bit integer address ``index`` positions into the space."""
        if not 0 <= index < self.total:
            raise IndexError(index)
        slot = bisect.bisect_right(self._cumulative, index) - 1
        return self.prefixes[slot].base + (index - self._cumulative[slot])

    def ip_at(self, index):
        return int_to_ip(self.int_at(index))

    def index_of(self, value):
        """Index of the 32-bit address ``value``, or ``None`` if the
        space does not cover it."""
        for slot, prefix in enumerate(self.prefixes):
            if (value & prefix.mask) == prefix.base:
                return self._cumulative[slot] + (value - prefix.base)
        return None

    def shard_ranges(self, shards):
        """:func:`shard_ranges` over this space.  Sharding by index
        keeps each worker's targets contiguous in address space while
        the shared LFSR walk still interleaves probe *order*
        pseudo-randomly within each shard."""
        return shard_ranges(self.total, shards)

    def __len__(self):
        return self.total


# ---------------------------------------------------------------------------
# Columnar sweep support: the per-space columns every sweep subscripts,
# memoised at module level.  They are a pure function of the key (the
# space's exact prefix layout and the blacklist's exact content), so the
# memo survives scenario rebuilds — weekly campaign scans, the primary
# and the verification scanner, and forked shard workers (which inherit
# it copy-on-write after :meth:`Ipv4Scanner.prewarm`) all share one
# entry.
# ---------------------------------------------------------------------------

_COLUMNS_CACHE = {}
_CACHE_ENTRIES = 8
_WALK_ORDER_ENTRIES = 32    # per SweepColumns: (walk, index range) pairs
_UNRANKED = 0xFFFFFFFF      # WalkOrder.ranks of a state allowed refuses


class SweepColumns:
    """State-aligned columns of one (target space, blacklist) pair.

    Every column is subscripted by LFSR *state* (index + 1; slot 0 is
    an unused sentinel), so batch loops never compute ``state - 1`` in
    Python.  ``addresses`` is the target address per state (an
    ``array('I')``, built per prefix from C-level ``range`` extends),
    ``is_sorted`` whether it is ascending from slot 1 (CIDR ranges are
    then found with two bisects), ``allowed`` the mask of addresses
    the reserved ranges and the blacklist admit — equivalent to
    :meth:`TargetFilter.allows_slot` over every index.  ``loss_memo``
    belongs to the network (see :meth:`~repro.netsim.network.Network.
    cold_sweep_columns`): clock-independent drop columns (baseline
    loss, fault-plan fates) for ``addresses``.  ``walk_orders`` holds
    the :class:`WalkOrder` of each (walk, index range) scanned
    (:meth:`walk_order`).
    """

    __slots__ = ("addresses", "is_sorted", "allowed", "loss_memo",
                 "walk_orders")

    def __init__(self, target_space, blacklist):
        prefixes = target_space.prefixes
        target_filter = TargetFilter(target_space, blacklist)
        self.addresses = addresses = array("I", (0,))
        self.allowed = allowed = bytearray(1)
        for slot, prefix in enumerate(prefixes):
            values = range(prefix.base, prefix.base + prefix.num_addresses)
            addresses.extend(values)
            if target_filter.clean[slot]:
                # Clean prefixes are painted with one store; only the
                # rare dirty prefix walks its addresses.
                allowed.extend(b"\x01" * len(values))
            else:
                allowed.extend(target_filter.allows_slot(slot, value)
                               for value in values)
        for value in target_filter.blacklist_addresses:
            index = target_space.index_of(value)
            if index is not None:
                allowed[index + 1] = 0
        self.is_sorted = all(
            left.base + left.num_addresses <= right.base
            for left, right in zip(prefixes, prefixes[1:]))
        self.loss_memo = {}
        self.walk_orders = {}

    def walk_order(self, walk, start, stop):
        """The :class:`WalkOrder` of ``walk`` over ``[start, stop)``.

        Kept exactly as long as :func:`~repro.scanner.lfsr.permutation`
        keeps the walk (period up to its cap, or force-cached by
        :meth:`Ipv4Scanner.prewarm`): an uncached walk is rebuilt every
        scan, and so is its order."""
        orders = self.walk_orders
        key = (len(walk), walk[0], start, stop)
        order = orders.get(key)
        if order is None or order.walk is not walk:
            order = WalkOrder(walk, self.allowed, start, stop)
            if memoised(walk):
                for stale in [stale for stale, kept in orders.items()
                              if not memoised(kept.walk)]:
                    del orders[stale]
                if len(orders) >= _WALK_ORDER_ENTRIES:
                    orders.pop(next(iter(orders)))
                orders[key] = order
        return order


class WalkOrder:
    """The allowed states of one index range of an LFSR walk, in walk
    order: the column every week's sweep plan of that range is cut from.

    ``states`` (an ``array('I')``) holds each state of ``walk`` whose
    index (``state - 1``) lies in ``[start, stop)`` and that ``allowed``
    admits — what :class:`~repro.scanner.lfsr.TargetBatchIterator`
    yields over the same walk and selector, unbatched — and ``ranks``
    its inverse over the range: ``ranks[state - start - 1]`` is where
    ``state`` sits in ``states`` (:data:`_UNRANKED` if refused).  Only
    the network's hot positions change from week to week, and
    :meth:`plan` places them through ``ranks``.
    """

    __slots__ = ("walk", "start", "states", "ranks")

    def __init__(self, walk, allowed, start, stop):
        selector = bytearray(len(walk) + 1)
        selector[start + 1:stop + 1] = allowed[start + 1:stop + 1]
        self.walk = walk
        self.start = start
        self.states = states = array(
            "I", compress(walk, map(selector.__getitem__, walk)))
        self.ranks = ranks = array("I", (_UNRANKED,)) * (stop - start)
        # ranks[state - start - 1] = rank, for each state in one C pass.
        deque(map(ranks.__setitem__, map((-start - 1).__add__, states),
                  count()), maxlen=0)

    def plan(self, batch_size, addr_of, cold):
        """The sweep plan (:meth:`Ipv4Scanner._sweep`) of these states in
        ``batch_size`` batches: with no cold-settlement columns
        (``cold`` is ``None``) every target of a batch is hot; else, per
        batch, its hot targets (of ``cold``'s ascending hot states),
        how many settle without the wire, and per drop column how many
        of *those* targets' datagrams it claims — hot probes draw their
        own fates inside ``send_probe``.  ``addr_of`` maps a state to
        its address.
        """
        states = self.states
        bounds = range(0, len(states), batch_size)
        if cold is None:
            return ((map(addr_of, states[start:start + batch_size]), 0, ())
                    for start in bounds)
        hot, drops = cold
        # The range's hot states' places in walk order (a refused one's,
        # _UNRANKED, lies past every batch).
        low = self.start + 1
        ranks = self.ranks
        hot_at = sorted(map(ranks.__getitem__, map(
            (-low).__add__, hot[bisect.bisect_left(hot, low):
                                bisect.bisect_left(hot, low + len(ranks))])))
        columns = []
        for reason, counts in drops:
            walked = bytes(map(counts.__getitem__, states))
            columns.append((reason, counts.__getitem__,
                            [sum(walked[start:start + batch_size])
                             for start in bounds]))
        # Folded up front (the hot lists are ~3% of the space): cutting
        # each batch just before probing it lets the hot targets' wire
        # path evict the column from the CPU caches between batches.
        plan = []
        first = 0
        for batch, start in enumerate(bounds):
            last = bisect.bisect_left(hot_at, start + batch_size, first)
            hot_states = list(map(states.__getitem__, hot_at[first:last]))
            first = last
            plan.append((
                list(map(addr_of, hot_states)),
                min(batch_size, len(states) - start) - len(hot_states),
                [(reason, batch_totals[batch]
                  - sum(map(count_of, hot_states)))
                 for reason, count_of, batch_totals in columns]))
        return plan


def _sweep_columns(target_space, blacklist):
    """The memoised :class:`SweepColumns` of a space under a blacklist."""
    key = (tuple((prefix.base, prefix.mask)
                 for prefix in target_space.prefixes),
           None if blacklist is None else (
               tuple((net.base, net.mask) for net in blacklist.networks),
               tuple(sorted(blacklist.addresses))))
    columns = _COLUMNS_CACHE.get(key)
    if columns is None:
        if len(_COLUMNS_CACHE) >= _CACHE_ENTRIES:
            _COLUMNS_CACHE.pop(next(iter(_COLUMNS_CACHE)))
        columns = _COLUMNS_CACHE[key] = SweepColumns(target_space,
                                                    blacklist)
    return columns


class ScanResult:
    """Outcome of one Internet-wide scan, stored columnar.

    Observations live in three parallel columns — ``_targets``
    (``array('I')``, 32-bit target address), ``_rcodes`` (``array('B')``)
    and ``_flags`` (``array('B')``, bit 0 = the reply's source address
    differed from the target) — one row per accepted response.  The
    historical set-based API (``responders``, ``by_rcode``,
    ``divergent_sources``, the rcode properties) is preserved as lazy
    views, built once on first access and cached until the next
    mutation, so ``analysis/``, ``reporting``, and the pipeline read
    exactly what they always read.  Merging concatenates columns
    (C-level ``array.extend``); pickling — shard result frames and
    checkpoint snapshots — ships the raw column buffers in canonical
    (target, rcode, flags) sort order, making serialized bytes
    independent of probe completion order and of set-hash iteration.

    ``retransmissions`` counts retry datagrams beyond the first probe of
    each target (zero on the default single-probe path).  ``provenance``
    is filled by the sharded engine: one entry per completed work item,
    recording which shards degraded (worker retried, split, or rescued
    in-process) on the way to this merged result.

    ``suppressed`` maps ``(window_base, defense cause)`` to the number
    of targets the adaptive pacing controller skipped there (graceful
    degradation under hostile defenses): coverage deliberately not
    attempted, recorded instead of silently lost.  It is a dedicated
    mergeable structure — not provenance entries — because the forked
    engine replaces result provenance wholesale with its own
    work-item log; :attr:`degraded_shards` surfaces both.

    ``carried`` is the delta-scanning analogue (see
    :mod:`repro.scanner.delta`): ``(window_base, delta cause)`` -> the
    number of verdicts copied forward from the prior week instead of
    probed, each such row also wearing :attr:`FLAG_CARRIED` in its
    flags column.  Same contract as ``suppressed``: mergeable,
    canonically sorted in pickles, omitted entirely when empty so
    full-sweep results keep their historical bytes.
    """

    FLAG_DIVERGENT = 1
    FLAG_CARRIED = 2

    def __init__(self, timestamp):
        self.timestamp = timestamp
        self.probes_sent = 0
        self.retransmissions = 0
        self.provenance = []
        self.suppressed = {}
        self.carried = {}
        self._targets = array("I")
        self._rcodes = array("B")
        self._flags = array("B")
        self._views = None

    # -- recording ---------------------------------------------------------

    def record(self, target_ip, rcode, source_ip):
        self.record_value(ip_to_int(target_ip), rcode,
                          source_ip != target_ip)

    def record_suppressed(self, window_base, cause, count=1):
        """Count targets skipped under ``cause`` in one /16-style window."""
        key = (window_base, cause)
        self.suppressed[key] = self.suppressed.get(key, 0) + count

    def record_value(self, value, rcode, divergent):
        """Columnar recording: the target as a 32-bit int, the response
        rcode, and whether the reply source diverged from the target."""
        self._targets.append(value)
        self._rcodes.append(rcode & 0x0F)
        self._flags.append(self.FLAG_DIVERGENT if divergent else 0)
        self._views = None

    def record_carried(self, value, rcode, flags, window_base, cause):
        """Copy one prior-week row forward without probing it.

        The row keeps its original rcode and divergence flag, gains
        :attr:`FLAG_CARRIED`, and is tallied under ``(window_base,
        cause)`` in :attr:`carried` — explicit provenance for every
        verdict this result asserts but did not measure."""
        self._targets.append(value)
        self._rcodes.append(rcode)
        self._flags.append(flags | self.FLAG_CARRIED)
        key = (window_base, cause)
        self.carried[key] = self.carried.get(key, 0) + 1
        self._views = None

    def merge(self, other):
        """Fold another (disjoint shard's) result into this one."""
        self.probes_sent += other.probes_sent
        self.retransmissions += other.retransmissions
        self.provenance.extend(other.provenance)
        for key, count in other.suppressed.items():
            self.suppressed[key] = self.suppressed.get(key, 0) + count
        for key, count in other.carried.items():
            self.carried[key] = self.carried.get(key, 0) + count
        self._targets.extend(other._targets)
        self._rcodes.extend(other._rcodes)
        self._flags.extend(other._flags)
        self._views = None
        return self

    # -- streaming chunks --------------------------------------------------
    #
    # A streaming scan never holds a whole shard's columns: it detaches
    # them as raw-buffer chunks (take_chunk) that the engine ships to
    # the parent as they fill, and the final result carries only the
    # scalar tail plus the last partial columns.  Reassembly
    # (absorb_chunk per chunk, in any order) is exact: __getstate__
    # canonically row-sorts, so the reassembled result pickles
    # byte-identically to a resident one.

    def row_count(self):
        """Rows currently resident in the columns."""
        return len(self._targets)

    def take_chunk(self):
        """Detach the resident columns as a raw-bytes chunk, leaving
        the scalar fields (and future rows) in place."""
        chunk = (self._targets.tobytes(), self._rcodes.tobytes(),
                 self._flags.tobytes())
        self._targets = array("I")
        self._rcodes = array("B")
        self._flags = array("B")
        self._views = None
        return chunk

    def absorb_chunk(self, chunk):
        """Append a chunk produced by :meth:`take_chunk`."""
        targets, rcodes, flags = chunk
        self._targets.frombytes(targets)
        self._rcodes.frombytes(rcodes)
        self._flags.frombytes(flags)
        self._views = None
        return self

    # -- set views ---------------------------------------------------------

    def _view(self, which):
        views = self._views
        if views is None:
            targets = self._targets
            ips = list(map(int_to_ip, targets))
            by_rcode = {}
            for ip, rcode in zip(ips, self._rcodes):
                bucket = by_rcode.get(rcode)
                if bucket is None:
                    bucket = by_rcode[rcode] = set()
                bucket.add(ip)
            divergent = set(compress(
                ips, (flag & self.FLAG_DIVERGENT for flag in self._flags)))
            views = self._views = (set(ips), by_rcode, divergent)
        return views[which]

    def iter_rows(self):
        """Yield raw ``(target_int, rcode, flags)`` rows — the feed a
        delta scan carries forward (see :mod:`repro.scanner.delta`)."""
        return zip(self._targets, self._rcodes, self._flags)

    def canonical_columns(self):
        """The observation columns as canonically sorted raw bytes.

        Returns ``(targets, rcodes, flags)`` byte strings in (target,
        rcode, flags) row-sort order — the same canonical form
        :meth:`__getstate__` ships — so two results holding the same
        observations in any internal order yield identical buffers.
        """
        rows = sorted(zip(self._targets, self._rcodes, self._flags))
        return (array("I", (row[0] for row in rows)).tobytes(),
                array("B", (row[1] for row in rows)).tobytes(),
                array("B", (row[2] for row in rows)).tobytes())

    @property
    def responders(self):
        """All target IPs that answered (lazy set view)."""
        return self._view(0)

    @property
    def by_rcode(self):
        """rcode -> set of target IPs (lazy dict-of-sets view)."""
        return self._view(1)

    @property
    def divergent_sources(self):
        """Targets whose reply came from a different source address."""
        return self._view(2)

    @property
    def degraded_shards(self):
        """Provenance entries that did not complete on a first try,
        plus one synthesized ``status: "suppressed"`` entry per
        (window, cause) the pacing controller gave up on — every loss
        of coverage in one place."""
        degraded = [entry for entry in self.provenance
                    if entry.get("status") != "ok"]
        for (window, cause), count in sorted(self.suppressed.items()):
            degraded.append({"status": "suppressed",
                             "window": int_to_ip(window),
                             "cause": cause, "targets": count})
        return degraded

    @property
    def suppressed_targets(self):
        """Total targets skipped under defensive suppression."""
        return sum(self.suppressed.values())

    @property
    def carried_targets(self):
        """Total verdicts carried forward from a prior scan unprobed."""
        return sum(self.carried.values())

    @property
    def noerror(self):
        return self.by_rcode.get(RCODE_NOERROR, set())

    @property
    def refused(self):
        return self.by_rcode.get(RCODE_REFUSED, set())

    @property
    def servfail(self):
        return self.by_rcode.get(RCODE_SERVFAIL, set())

    def counts(self):
        """Summary dict used by the magnitude analysis (Figure 1).

        Computed straight off the integer columns (deduplicated in int
        sets) unless the string views already exist — at million-host
        scale the views cost ~50 bytes per responder in interned
        strings, the int sets a fraction of that, transiently.
        """
        if self._views is not None:
            return {
                "all": len(self.responders),
                "noerror": len(self.noerror),
                "refused": len(self.refused),
                "servfail": len(self.servfail),
            }
        responders = set()
        by_rcode = {}
        for value, rcode in zip(self._targets, self._rcodes):
            responders.add(value)
            bucket = by_rcode.get(rcode)
            if bucket is None:
                bucket = by_rcode[rcode] = set()
            bucket.add(value)
        return {
            "all": len(responders),
            "noerror": len(by_rcode.get(RCODE_NOERROR, ())),
            "refused": len(by_rcode.get(RCODE_REFUSED, ())),
            "servfail": len(by_rcode.get(RCODE_SERVFAIL, ())),
        }

    # -- serialization -----------------------------------------------------
    #
    # Shard workers pickle results back to the supervisor and the
    # checkpoint store pickles them into snapshots; both therefore ship
    # the raw column buffers (a few bytes per responder) instead of
    # per-IP string containers, and both get canonical bytes: rows are
    # emitted sorted, so any completion order serializes identically.

    def __getstate__(self):
        targets, rcodes, flags = self.canonical_columns()

        # Pickle output must depend on *values* only, never on string
        # object identity: the pickler memoizes by id, so a provenance
        # string that happens to share an object with a later key (a
        # compile-time literal) serializes shorter than an equal-but-
        # distinct string from an unpickled checkpoint.  Interning every
        # string routes all equal values through one canonical object.
        def canonical(value):
            return intern(value) if type(value) is str else value

        state = {
            "timestamp": self.timestamp,
            "probes_sent": self.probes_sent,
            "retransmissions": self.retransmissions,
            "provenance": [{intern(key): canonical(value)
                            for key, value in entry.items()}
                           for entry in self.provenance],
            "targets": targets,
            "rcodes": rcodes,
            "flags": flags,
        }
        if self.suppressed:
            # Canonical (sorted) and omitted when empty, so pickles of
            # suppression-free results keep their historical bytes.
            state["suppressed"] = tuple(sorted(
                (window, intern(cause), count)
                for (window, cause), count in self.suppressed.items()))
        if self.carried:
            # Same byte-stability contract as suppressed.
            state["carried"] = tuple(sorted(
                (window, intern(cause), count)
                for (window, cause), count in self.carried.items()))
        return state

    def __setstate__(self, state):
        self.timestamp = state["timestamp"]
        self.probes_sent = state["probes_sent"]
        self.retransmissions = state["retransmissions"]
        self.provenance = state["provenance"]
        # ``.get``: every version leaves both tallies out when empty.
        self.suppressed = {(window, cause): count for window, cause, count
                           in state.get("suppressed", ())}
        self.carried = {(window, cause): count for window, cause, count
                        in state.get("carried", ())}
        self._targets = array("I")
        self._targets.frombytes(state["targets"])
        self._rcodes = array("B")
        self._rcodes.frombytes(state["rcodes"])
        self._flags = array("B")
        self._flags.frombytes(state["flags"])
        self._views = None

    def __repr__(self):
        return "ScanResult(t=%.0f, %d responders)" % (
            self.timestamp, len(self.responders))


def retry_schedule(probe_timeout, retries, backoff=BACKOFF, rtt_floor=0.0):
    """Effective per-attempt response timeouts for one target.

    Pure function: attempt ``k`` waits ``probe_timeout * backoff**k``
    (exponential backoff), floored at ``rtt_floor`` — the deterministic
    pairwise round-trip estimate, so a far target is never timed out
    faster than its own path latency.  ``None`` entries mean "wait
    indefinitely" (no timeout configured): responses are never discarded
    as late, and a retry happens only when nothing answered at all.

    When the floor dominates even the *last* backed-off attempt, a
    per-attempt ``max()`` would flatten the whole schedule to
    ``[rtt_floor] * n`` — silently defeating exponential backoff for
    far targets with small base timeouts.  That edge re-anchors the
    exponent at the floor instead, so attempt spacing keeps widening.
    """
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if not backoff >= 1:
        raise ValueError("backoff must be >= 1 (later attempts may not "
                         "time out sooner than the first)")
    if probe_timeout is None:
        return [None] * (retries + 1)
    if retries and probe_timeout * backoff ** retries <= rtt_floor:
        return [rtt_floor * backoff ** attempt
                for attempt in range(retries + 1)]
    return [max(probe_timeout * backoff ** attempt, rtt_floor)
            for attempt in range(retries + 1)]


def merge_scan_results(timestamp, results):
    """Merge disjoint per-shard results into one :class:`ScanResult`.

    Set unions are order-insensitive and the shards partition the index
    space, so the merged result is identical to what one sequential scan
    over the whole space produces.
    """
    merged = ScanResult(timestamp)
    for result in results:
        merged.merge(result)
    return merged


class TargetFilter:
    """Precomputed reserved/blacklist membership for one target space.

    Prefixes that provably cannot intersect a reserved range or a
    blacklisted network are marked clean once, reducing the per-address
    check to (at most) one set lookup.
    """

    def __init__(self, target_space, blacklist=None):
        self.blacklist = blacklist
        blacklist_networks = list(blacklist.networks) if blacklist else []
        self.blacklist_addresses = (frozenset(blacklist.addresses)
                                    if blacklist else frozenset())
        excluded = list(RESERVED_NETWORKS) + blacklist_networks
        # One flag per prefix slot, aligned with ScanTargetSpace.prefixes.
        self.clean = [
            not any(_networks_intersect(prefix, other)
                    for other in excluded)
            for prefix in target_space.prefixes
        ]

    def allows_slot(self, slot, value):
        """Membership check given the prefix slot and integer address."""
        if self.clean[slot]:
            return value not in self.blacklist_addresses
        if is_reserved(value):
            return False
        if self.blacklist is not None and value in self.blacklist:
            return False
        return True


class Ipv4Scanner:
    """Sends one DNS A probe per target address and aggregates responses.

    ``options`` (a :class:`~repro.scanner.options.ScanOptions`) carries
    the knobs.  ``retries``/``probe_timeout``/``backoff`` configure the
    attempt schedule of every probed target: up to ``retries``
    retransmissions while unanswered, each attempt's timeout growing
    exponentially from ``probe_timeout`` but never below the target's
    own deterministic round-trip estimate (adaptive per-target
    timeout).  The defaults (``retries=0``, ``probe_timeout=None``) are
    the schedule of length one with no timeout.

    ``pacing``/``max_pps`` configure the arms-race side (see
    :mod:`repro.scanner.pacing`): adaptive pacing precomputes an AIMD
    pacing plan against the network's defense plane and declares a
    per-probe rate bucket while scanning; ``max_pps`` caps the declared
    rate (and, with pacing off, is declared as the scan's constant
    rate).  Both default off: scans against defense-free networks are
    bit-identical to before.
    """

    # The engine checks this before passing its heartbeat callback
    # (scanner doubles in tests may not accept ``on_progress``).
    supports_progress = True

    def __init__(self, network, source_ip, measurement_domain,
                 blacklist=None, source_port=31337, lfsr_seed=0xACE1,
                 perf=None, timeout_margin=1.25, options=None):
        self.network = network
        self.source_ip = source_ip
        self.measurement_domain = measurement_domain
        self.blacklist = blacklist
        self.source_port = source_port
        self.lfsr_seed = lfsr_seed
        self.perf = perf
        if not timeout_margin > 0:
            raise ValueError("timeout_margin must be > 0")
        self.timeout_margin = timeout_margin
        # Bound once: the sweep loop reads these, not the options.
        self.options = options = options or ScanOptions()
        self.retries = options.retries
        self.probe_timeout = options.probe_timeout
        self.backoff = options.backoff
        self.probe_batch = options.probe_batch
        self.pacing = options.pacing
        self.max_pps = options.max_pps
        self._encoder = ProbeBatchEncoder(measurement_domain)
        # Scanner identity folded into probe ids: the verification
        # scanner (different source) must not reuse the primary
        # scanner's query names even when probing the same target at the
        # same simulated time.
        self._identity = mix64(
            (ip_to_int(source_ip) << 17) ^ source_port ^ lfsr_seed)
        # The pacing plan: (columns, clock it was last tallied at,
        # plan).  Built when its columns or defense plane change, by
        # prewarm in the parent when sharded, so workers inherit it
        # copy-on-write; tallied once per scan.
        self._paced = None

    def _scan_epoch(self):
        """Per-scan component of probe identity (advances with the clock)."""
        return int(self.network.clock.now) & 0xFFFFFFFF

    def _walk(self, total, force_cache=False):
        """The LFSR permutation covering ``total`` targets."""
        order = LFSR.order_for(total)
        period = (1 << order) - 1
        return permutation(order, seed=(self.lfsr_seed % period) or 1,
                           force_cache=force_cache)

    # -- scans -------------------------------------------------------------

    def prewarm(self, target_space, ranges=()):
        """Build this space's scan state in the calling process.

        The sharded engine calls this in the parent before forking, with
        its shard ``ranges``, so every worker inherits the LFSR walk,
        the sweep columns, the walk order (ranks included) of its
        ``(start, stop)`` range, the pacing plan, the network's drop
        columns (:meth:`~repro.netsim.network.Network.
        sweep_drop_columns`) and the warm nodes copy-on-write.  The
        walk is force-cached even past the usual memo cap: at a
        ~38M-address space (order 26) it is a ~256 MB array that would
        otherwise be rebuilt inside every forked worker.  The pacing
        plan and the warm nodes outlive the scan: the next week's
        prewarm builds only what changed.
        """
        total = len(target_space)
        if total == 0:
            return
        walk = self._walk(total, force_cache=True)
        columns = _sweep_columns(target_space, self.blacklist)
        for start, stop in ranges:
            columns.walk_order(walk, start, stop)
        self._pacing_plan(columns)
        if self.probe_timeout is None:
            # The memoised drop columns only: which targets are hot is
            # each scanning process's to decide, at its own flow epoch.
            self.network.sweep_drop_columns(
                self.source_ip, self.source_port, 53, columns.addresses,
                columns.loss_memo, attempts=1 + self.retries)
        # Every node the scan may probe, warmed (:meth:`~repro.netsim.
        # network.Node.warm`) until one says no more fit.  No query
        # reaches it here, so a worker's copy starts as a fresh one.
        nodes = self.network.nodes_by_int
        addresses = columns.addresses
        allowed = columns.allowed
        for position in address_positions(addresses, columns.is_sorted,
                                          nodes, ()):
            if allowed[position] and not nodes[addresses[position]].warm():
                break

    def scan(self, target_space, index_range=None, on_progress=None,
             chunk_sink=None, chunk_rows=CHUNK_ROWS):
        """Scan every allowed address in the target space once.

        ``index_range`` restricts the walk to a contiguous ``(start,
        stop)`` index shard; the full LFSR permutation is still walked,
        so probe order within the shard — and every probe's bytes —
        match the sequential scan exactly.

        ``on_progress`` (no arguments) is invoked at least once per
        1024 datagrams — the engine's worker heartbeat.  ``chunk_sink``
        enables streaming results: whenever the result's resident
        columns reach ``chunk_rows`` rows at a batch boundary they are
        detached (:meth:`ScanResult.take_chunk`) and handed to the
        sink; the returned result then carries only the scalar tail
        plus the final partial columns.

        Targets come out of the range's memoised :class:`WalkOrder` in
        :attr:`probe_batch`-sized batches.  Cold targets are settled in
        bulk when the network can prove that exact (see
        :meth:`_cold_columns`); every other target takes the per-probe
        path in :meth:`_sweep`.
        """
        network = self.network
        result = ScanResult(network.clock.now)
        total = len(target_space)
        if total == 0:
            return result
        start, stop = index_range if index_range is not None else (0, total)
        columns = _sweep_columns(target_space, self.blacklist)
        order = columns.walk_order(self._walk(total), start, stop)
        pacing = self._pacing_plan(columns)
        plan = order.plan(self.probe_batch, columns.addresses.__getitem__,
                          self._cold_columns(columns, pacing))
        self._sweep(result, plan, perf=self.perf, pacing=pacing,
                    base_bucket=(int(self.max_pps)
                                 if self.max_pps is not None else None),
                    on_progress=on_progress, chunk_sink=chunk_sink,
                    chunk_rows=chunk_rows)
        return result

    def scan_addresses(self, addresses):
        """Probe an explicit address list (re-probing known resolvers)."""
        result = ScanResult(self.network.clock.now)
        blacklist = self.blacklist
        targets = [ip_to_int(target_ip) for target_ip in addresses
                   if blacklist is None or target_ip not in blacklist]
        self._sweep(result, ((targets, 0, ()),), perf=self.perf)
        return result

    def probe(self, target_ip):
        """Send one scan probe (with this scanner's attempt schedule);
        return parsed (rcode, source_ip) pairs.  A diagnostic re-probe:
        it is not tallied into :attr:`perf`."""
        replies = []
        self._sweep(ScanResult(self.network.clock.now),
                    (((ip_to_int(target_ip),), 0, ()),), replies=replies)
        return replies

    def _cold_columns(self, columns, pacing):
        """The network's cold-settlement columns for a scan of
        ``columns`` at the current clock, or ``None``: every target hot.

        The network decides (:meth:`~repro.netsim.network.Network.
        cold_sweep_columns`), told how many datagrams this scanner's
        schedule sends a silent target and which defense verdicts the
        ``pacing`` plan already drew.  A timed schedule (``probe_timeout``)
        is never asked: it floors each target's timeouts at that
        target's own round trip, which is per-target work by
        definition.
        """
        if self.probe_timeout is not None:
            return None
        return self.network.cold_sweep_columns(
            self.source_ip, self.source_port, 53, columns.addresses,
            columns.is_sorted, columns.loss_memo,
            qname_suffix=self.measurement_domain,
            attempts=1 + self.retries,
            paced=(None if pacing is None
                   else (pacing.plane, pacing.passed)))

    def _pacing_plan(self, columns):
        """The adaptive pacing plan for the scan at the current clock,
        or ``None`` when pacing is off or no defense plane is armed.

        Built over the *full* allowed space — never a shard slice — so
        every shard replays the identical AIMD recurrence; see
        :mod:`repro.scanner.pacing`.  A plan is a function of the
        ``columns`` (by identity: a changed blacklist yields new ones),
        the defense plane (by equality: the clock reaches it only
        through a box's ``active_after``) and this scanner, so it is
        rebuilt only when they change (DESIGN.md "Arms race & adaptive
        pacing" → *One plan per campaign*).  Its plan-level
        observability (window-rate histogram, signal counters) is
        tallied once per scan, by whichever process asks first.
        """
        config = self.pacing
        if config is None:
            return None
        network = self.network
        plane = defense_plane(network, self.source_ip)
        if not plane:
            return None
        now = network.clock.now
        paced = self._paced
        perf = self.perf
        if paced is None or paced[0] is not columns \
                or paced[2].plane != plane:
            addresses = columns.addresses
            walk = self._walk(len(addresses) - 1)
            defended = address_positions(
                addresses, columns.is_sorted, (),
                [cidr for __, ranges in plane for cidr in ranges])
            selector = bytearray(len(walk) + 1)
            allowed = columns.allowed
            for position in defended:
                selector[position] = allowed[position]
            paced = (columns, None, build_pacing_plan(
                plane, ip_to_int(self.source_ip), self._identity, walk,
                selector, addresses, config))
            if perf is not None:
                perf.count("pacing_plans_built")
        plan = paced[2]
        if paced[1] != now:
            paced = (columns, now, plan)
            if perf is not None:
                perf.observe_many("pacing_window_pps", plan.window_rates())
                perf.count("pacing_defense_signals", plan.signals)
                if plan.suppressed_count:
                    perf.count("pacing_suppressed_planned",
                               plan.suppressed_count)
                perf.gauge("pacing_windows", float(len(plan.windows)))
        self._paced = paced
        return plan

    def _sweep(self, result, plan, perf=None, pacing=None,
               base_bucket=None, on_progress=None, chunk_sink=None,
               chunk_rows=None, replies=None):
        """The one send/receive loop every probe goes through.

        ``plan`` yields ``(hot_targets, cold_targets, cold_drops)`` per
        batch: the target addresses to probe on the wire, how many
        further targets of the batch were settled without it — each
        stands for a full attempt schedule of datagrams — and, as
        ``(reason, count)`` pairs, how many of those datagrams were
        dropped and by what (see :meth:`~repro.netsim.network.Network.
        cold_sweep_columns`).  Each hot target gets the
        pacing verdict, one probe question, and the attempt schedule:
        every retransmission re-sends the *same* flow, so the network's
        flow-keyed fate draws give it a fresh, order-independent loss
        decision — merged shard results stay bit-identical to a
        sequential scan.  ``replies``, when given, also collects every
        accepted response as ``(rcode, source_ip)``.
        """
        network = self.network
        source_ip = self.source_ip
        source_int = ip_to_int(source_ip)
        latency_of = network.latency
        source_port = self.source_port
        # Middleboxes proven inert for this sweep are pruned from the
        # probes' path checks.
        checks = network.scan_path_checks(
            source_ip, 53, qname_suffix=self.measurement_domain)
        seed_epoch = self._identity ^ (self._scan_epoch() << 32)
        ask = self._encoder.question
        render = self._encoder.render
        send_probe = network.send_probe
        record_value = result.record_value
        record_suppressed = result.record_suppressed
        recorder = network.recorder
        retries = self.retries
        probe_timeout = self.probe_timeout
        schedule = retry_schedule(probe_timeout, retries, self.backoff)
        attempts = len(schedule)    # datagrams a silent target costs
        paced = pacing is not None or base_bucket is not None
        paced_causes = pacing.suppressed if pacing is not None else None
        paced_rates = pacing.rates.get if pacing is not None else None
        window_mask = pacing.window_mask if pacing is not None else 0
        rtts = [] if perf is not None else None
        datagrams = 0        # sent on the wire or settled in bulk
        beat_at = 1024 if on_progress is not None else float("inf")
        targets = 0          # hot targets actually probed
        bulk_targets = 0
        bulk_drops = {}
        suppressed = 0
        responses_seen = 0
        late_responses = 0
        flat_escapes = 0
        if paced:
            # Declare the scan's rate to the defense plane; per-target
            # buckets override it probe by probe under adaptive pacing.
            network.scan_rate_bucket = base_bucket
        try:
            for hot_targets, cold_targets, cold_drops in plan:
                for value in hot_targets:
                    if paced_causes is not None:
                        cause = paced_causes.get(value)
                        if cause is not None:
                            suppressed += 1
                            record_suppressed(value & window_mask, cause)
                            if recorder is not None:
                                recorder.record(network.clock.now,
                                                "suppressed", source_ip,
                                                value, cause)
                            continue
                        network.scan_rate_bucket = paced_rates(
                            value, base_bucket)
                    targets += 1
                    # Probe identity: repro.util.mix64, inlined — a
                    # pure hash of (scanner, epoch, target),
                    # independent of probe order.
                    key = (seed_epoch ^ value) & M64
                    key ^= key >> 30
                    key = (key * 0xBF58476D1CE4E5B9) & M64
                    key ^= key >> 27
                    key = (key * 0x94D049BB133111EB) & M64
                    key ^= key >> 31
                    question = ask(key, value)
                    target_ip = int_to_ip(value)
                    # The flow's deterministic round trip.
                    rtt = 2 * latency_of(source_int, value)
                    timeouts = schedule
                    if probe_timeout is not None:
                        # Adaptive floor: never time a target out faster
                        # than its own round trip.
                        rtt_floor = rtt * self.timeout_margin
                        timeouts = retry_schedule(
                            probe_timeout, retries, self.backoff, rtt_floor)
                        if retries and schedule[-1] <= rtt_floor:
                            flat_escapes += 1
                    for timeout in timeouts:
                        datagrams += 1
                        if datagrams >= beat_at:
                            on_progress()
                            beat_at += 1024
                        answered = False
                        for rcode, reply_source, latency in _read_replies(
                                send_probe(source_ip, source_port, target_ip,
                                           53, value, render, _checks=checks,
                                           question=question),
                                question[3], rtt):
                            if timeout is not None and latency > timeout:
                                late_responses += 1
                                continue
                            answered = True
                            responses_seen += 1
                            if rtts is not None:
                                rtts.append(latency)
                            record_value(value, rcode,
                                         reply_source != target_ip)
                            if replies is not None:
                                replies.append((rcode, reply_source))
                        if answered:
                            break
                datagrams += cold_targets * attempts
                while datagrams >= beat_at:
                    on_progress()
                    beat_at += 1024
                bulk_targets += cold_targets
                for reason, count in cold_drops:
                    bulk_drops[reason] = bulk_drops.get(reason, 0) + count
                if chunk_sink is not None and \
                        result.row_count() >= chunk_rows:
                    chunk_sink(result.take_chunk())
        finally:
            if paced:
                network.scan_rate_bucket = None
        bulk_sent = bulk_targets * attempts
        network.absorb_probe_sweep(bulk_sent, bulk_drops)
        retransmissions = datagrams - bulk_targets - targets
        result.probes_sent += datagrams
        result.retransmissions += retransmissions
        if perf is not None:
            perf.count("probes_sent", datagrams)
            perf.count("responses_seen", responses_seen)
            perf.count("parse_calls_avoided", responses_seen)
            for name, amount in (
                    ("probes_bulk_settled", bulk_sent),
                    ("probe_retransmissions", retransmissions),
                    ("probe_responses_late", late_responses),
                    ("pacing_suppressed_targets", suppressed),
                    ("rtt_floor_flat_schedules", flat_escapes)):
                if amount:
                    perf.count(name, amount)
            perf.observe_many("probe_rtt_seconds", rtts)


def _read_replies(sent, txid, rtt):
    """The sweep's one reply reader: ``(rcode, source ip, latency)`` of
    each reply to a probe that a scanner accepts, in arrival order.

    A datagram passes the header-peek triage — at least the 12-byte
    header, QR set, the probe's ``txid`` echoed — and is read off that
    header.  A row :meth:`~repro.netsim.network.Network.send_probe`
    settled is the same reply unrendered: its rcode is ``None`` where
    no readable header arrived (a truncated reply), and it arrives
    ``rtt``, the flow's round trip, after the probe left.
    """
    read = []
    for reply in sent:
        if type(reply) is tuple:
            if reply[2] is not None:
                read.append((reply[2], reply[4], rtt))
            continue
        raw = reply.packet.payload
        if len(raw) < 12 or not raw[2] & 0x80 \
                or (raw[0] << 8) | raw[1] != txid:
            continue
        read.append((raw[3] & 0x0F, reply.packet.src_ip, reply.latency))
    return read
