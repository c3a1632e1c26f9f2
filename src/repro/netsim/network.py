"""The simulated network core: node registry, UDP routing, TCP services.

The model is synchronous request/response: a sender hands the network a UDP
packet and receives back the list of response packets, each tagged with its
simulated one-way latency.  Middleboxes on the path may drop the query,
drop responses, or inject forged responses — forged GFW answers arrive with
lower latency than the genuine ones, reproducing the racing behaviour the
paper observed (§4.2).
"""

from operator import attrgetter

from repro.netsim.address import address_positions, ip_to_int
from repro.netsim.middlebox import (
    PATH_DROP,
    PATH_INSPECT,
    Middlebox,
)
from repro.util import M64, fate_counts, fate_threshold, mix64

# Network._packet_fate's salts, then the fault plane's: its *draws* live
# in :mod:`repro.faults`, and these only key its occurrence counters.
_SALT_QUERY_LOSS = 0x51
_SALT_RESPONSE_LOSS = 0x52
_SALT_CORRUPTION = 0x53
_SALT_TCP_LOSS = 0x54
_SALT_FAULT_QUERY = 0x55
_SALT_FAULT_TRUNC = 0x56
_SALT_FAULT_TCP = 0x57

# Bulk-scan support: entries kept per caller-owned loss memo.
_LOSS_MEMO_ENTRIES = 8


def flow_key(src_int, src_port, dst_int, dst_port):
    """The unsalted fate key of a 4-tuple (addresses as 32-bit integers):
    every packet fate hashes (seed, salt, this key, occurrence).  A TCP
    connection's key has source port 0; the sweep's ``flow_const`` has
    destination 0, its loss column adding the destination term."""
    return (src_int * 0x9E3779B1 ^ dst_int * 0x85EBCA77
            ^ src_port << 17 ^ dst_port << 1)


class UdpPacket:
    """A UDP datagram: addressing 4-tuple plus opaque payload bytes.

    ``dst_int`` optionally carries the destination as a 32-bit integer.
    Senders that already hold the integer form (the scanner generates
    targets numerically) pass it so the delivery path never has to parse
    dotted-quad text per packet; it must equal ``ip_to_int(dst_ip)``.
    """

    __slots__ = ("src_ip", "src_port", "dst_ip", "dst_port", "payload",
                 "dst_int")

    def __init__(self, src_ip, src_port, dst_ip, dst_port, payload,
                 dst_int=None):
        self.src_ip = src_ip
        self.src_port = src_port
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.payload = payload
        self.dst_int = dst_int

    def reply(self, payload, src_ip=None):
        """Build a response packet back to this packet's sender.

        ``src_ip`` lets multi-homed hosts and proxies answer from an address
        other than the one queried — the paper detects exactly this by
        encoding the target IP in the query.
        """
        return UdpPacket(
            src_ip=src_ip if src_ip is not None else self.dst_ip,
            src_port=self.dst_port,
            dst_ip=self.src_ip,
            dst_port=self.src_port,
            payload=payload,
        )

    def __repr__(self):
        return "UdpPacket(%s:%d -> %s:%d, %d bytes)" % (
            self.src_ip, self.src_port, self.dst_ip, self.dst_port,
            len(bytes(self.payload)))


class UdpResponse:
    """A response packet plus the simulated latency at which it arrives."""

    __slots__ = ("packet", "latency", "injected")

    def __init__(self, packet, latency, injected=False):
        self.packet = packet
        self.latency = latency
        self.injected = injected

    def __repr__(self):
        return "UdpResponse(%r, latency=%.4f, injected=%s)" % (
            self.packet, self.latency, self.injected)


class Node:
    """Base class for everything attached to the network.

    Subclasses override the handlers for the services they provide.  All
    handlers may issue their own queries through ``network`` (that is how
    recursive resolvers reach the authoritative hierarchy).
    """

    cache = None       # a resolver's DnsCache, read by world-state capture
    service = None     # a resolver's shared ResolutionService, likewise
    # Answer plan: ``settle(dst_port, (qname, qtype, qclass, txid),
    # client_ip, network, query)`` has handle_udp's effects on the query
    # ``query`` renders and returns its replies as (rcode or None where
    # no header is readable, rows a stub reads or None, source ip or
    # None); None, before any effect: wire.
    settle = None

    def __init__(self, ip):
        self.ip = ip

    def handle_udp(self, packet, network):
        """Handle a UDP datagram; return a payload (bytes, or what
        ``bytes()`` renders), a list of (payload, source_ip) pairs, or
        ``None`` to stay silent."""
        return None

    def tcp_ports(self):
        """Ports accepting TCP connections (for banner grabbing)."""
        return frozenset()

    def tcp_banner(self, port, network=None):
        """The greeting banner a TCP client sees on ``port``, or ``None``."""
        return None

    def handle_http(self, request, network):
        """Serve an HTTP request (a :class:`repro.websim.http.HttpRequest`);
        return an ``HttpResponse`` or ``None`` when no web service runs."""
        return None

    def tls_certificate(self, sni, network=None):
        """Return the TLS certificate presented for ``sni`` (or the default
        certificate when ``sni`` is ``None``); ``None`` = no TLS service."""
        return None

    def warm(self):
        """Make this node cheap to serve in processes forked from this
        one, without serving anything; False when there is no room to
        keep any more nodes warm.  A built node is as warm as it gets
        (a lazy one overrides this, DESIGN.md "Lazy population")."""
        return True

    def __repr__(self):
        return "%s(ip=%r)" % (type(self).__name__, self.ip)


class Network:
    """Routes packets between registered nodes, applying loss, latency,
    and middlebox policy."""

    def __init__(self, clock, seed=0, loss_rate=0.0, base_latency=0.020,
                 corruption_rate=0.0):
        self.clock = clock
        self.loss_rate = loss_rate
        # Share of delivered responses whose payload arrives damaged
        # (invalid UDP checksum in the paper's terms, §5 Completeness);
        # receivers must treat such packets as garbage and drop them.
        self.corruption_rate = corruption_rate
        self.base_latency = base_latency
        self.middleboxes = []
        self._boxes_by_kind = {}
        self._response_droppers = []
        # (box, bound path_verdict) pairs, rebuilt whenever a middlebox
        # is added; binding once keeps the per-packet verdict loop to
        # plain calls with no attribute lookups.
        self._path_checks = []
        self._nodes = {}
        # Integer-keyed mirror of the registry.  The batched scan sweep
        # finds its hot targets from these keys (cold_sweep_columns)
        # without ever materialising the dotted-quad text of addresses
        # that host nothing.
        self._nodes_by_int = {}
        self._seed = seed
        # Per-flow occurrence counters for packet-fate decisions; repeated
        # sends over the same 4-tuple get fresh draws (so loss statistics
        # hold), while each occurrence's fate stays order-independent.
        # Reset whenever simulated time moves, bounding memory to one
        # scan's worth of flows.
        self._flow_counts = {}
        self._flow_epoch = clock.now
        # Pure-function memo for the fate computation (never reset):
        # occurrence -> mixed occurrence.
        self._occurrence_mix = {}
        self._seed_high = (seed << 32) & M64
        self.udp_queries_sent = 0
        self.udp_queries_lost = 0
        self.udp_responses_corrupted = 0
        # Optional fault-injection plan (:class:`repro.faults.FaultPlan`)
        # plus counters of every fault injected or absorbed; ``None``
        # keeps every fault hook a single attribute test.
        self.faults = None
        self.fault_counters = {}
        # Optional observability instruments (:mod:`repro.obs`): a span
        # tracer and a packet flight recorder.  ``None`` means disabled,
        # and the probe hot path pays exactly one attribute test each —
        # no allocation, no call — which is what keeps the scan perf
        # gates intact with tracing off.
        self.tracer = None
        self.recorder = None
        # Declared probe rate (probes/sec bucket, int) of the scan
        # currently sending, or None for unpaced/background traffic.
        # Defensive middleboxes (:mod:`repro.netsim.defense`) key their
        # verdicts on it; the scanner publishes it before each probe so
        # defense fates stay pure functions, reproducible shard-side.
        self.scan_rate_bucket = None

    # -- registry ---------------------------------------------------------

    def register(self, node):
        """Attach a node at its IP; replaces any previous occupant."""
        self._nodes[node.ip] = node
        self._nodes_by_int[ip_to_int(node.ip)] = node

    def unregister(self, ip):
        self._nodes.pop(ip, None)
        self._nodes_by_int.pop(ip_to_int(ip), None)

    def rebind(self, node, new_ip):
        """Move a node to a new address (DHCP churn)."""
        if self._nodes.get(node.ip) is node:
            del self._nodes[node.ip]
            self._nodes_by_int.pop(ip_to_int(node.ip), None)
        node.ip = new_ip
        self._nodes[new_ip] = node
        self._nodes_by_int[ip_to_int(new_ip)] = node

    def node_at(self, ip):
        return self._nodes.get(ip)

    @property
    def node_count(self):
        return len(self._nodes)

    @property
    def nodes_by_int(self):
        """The registered nodes by integer address (read-only)."""
        return self._nodes_by_int

    def middleboxes_of(self, kind):
        """The registered middleboxes that are ``kind`` instances, in
        registration order (kept until the next :meth:`add_middlebox`)."""
        boxes = self._boxes_by_kind.get(kind)
        if boxes is None:
            boxes = self._boxes_by_kind[kind] = [
                box for box in self.middleboxes if isinstance(box, kind)]
        return boxes

    def add_middlebox(self, middlebox):
        """Put a :class:`Middlebox` on every path (else ``TypeError``)."""
        if not isinstance(middlebox, Middlebox):
            raise TypeError("add_middlebox takes a Middlebox, not %s"
                            % type(middlebox).__name__)
        self.middleboxes.append(middlebox)
        self._boxes_by_kind = {}
        self._path_checks = [(box, box.path_verdict)
                             for box in self.middleboxes]
        # drops_response cannot be classified per path (it may depend on
        # the response packet), so boxes that override it are consulted
        # for every delivered reply; the rest are skipped entirely.
        self._response_droppers = [
            box for box in self.middleboxes
            if type(box).drops_response is not Middlebox.drops_response]

    # -- latency / loss ---------------------------------------------------

    def latency(self, src_int, dst_int):
        """Deterministic one-way latency between two 32-bit addresses:
        base plus a hash-derived jitter."""
        mix = (src_int * 2654435761 ^ dst_int) & 0xFFFFFFFF
        return self.base_latency + (mix % 1000) / 1000.0 * 0.180

    def install_faults(self, plan):
        """Activate a :class:`repro.faults.FaultPlan` on this network."""
        self.faults = plan
        return plan

    def count_fault(self, name, amount=1):
        """Record one injected/absorbed fault under ``name``."""
        counters = self.fault_counters
        counters[name] = counters.get(name, 0) + amount

    def _occurrence(self, key):
        """Occurrence index of one salted flow key this scan epoch: the
        one place the flow counters advance, cleared once the clock has
        moved."""
        now = self.clock.now
        if now != self._flow_epoch:
            self._flow_counts.clear()
            self._flow_epoch = now
        occurrence = self._flow_counts.get(key, 0)
        self._flow_counts[key] = occurrence + 1
        return occurrence

    def flow_state(self):
        """``(flow counts, epoch)`` as the next send reads them: empty
        once the clock has left the epoch, since that send clears them."""
        live = self._flow_epoch == self.clock.now
        return dict(self._flow_counts) if live else {}, self._flow_epoch

    def restore_flow_state(self, counts, epoch):
        """Reinstate a :meth:`flow_state` capture."""
        self._flow_counts = dict(counts)
        self._flow_epoch = epoch

    def _tcp_connect(self, src_ip, dst_ip, port, timeout):
        """Fault hook for one TCP connect; False = failed (hung past
        ``timeout``).  A stall shorter than the caller's patience is
        absorbed (the connect eventually completes)."""
        faults = self.faults
        if faults is None or faults.profile.tcp_hang_rate <= 0:
            return True
        base = flow_key(ip_to_int(src_ip), 0, ip_to_int(dst_ip), port)
        occurrence = self._occurrence(_SALT_FAULT_TCP ^ base)
        stall = faults.tcp_stall_seconds(base, occurrence)
        if stall <= 0.0:
            return True
        if timeout is not None and stall >= timeout:
            self.count_fault("tcp_hang")
            return False
        self.count_fault("tcp_stall_absorbed")
        return True

    def _packet_fate(self, salt, rate, base):
        """Order-independent fate of one packet of the flow keyed
        ``base`` (:func:`flow_key`): query, response or TCP loss, or
        corruption, as ``salt`` says; True = it strikes.

        The draw is a pure hash of (seed, salt, flow 4-tuple, occurrence
        index of that flow since time last advanced) — NOT a shared
        sequential RNG.  Any interleaving of distinct flows therefore
        yields identical per-packet fates, the property the sharded scan
        engine relies on for bit-identical merged results.
        """
        # repro.util.mix64, inlined: every datagram draws here.
        key = salt ^ base
        occurrence = self._occurrence(key)
        mixed = self._occurrence_mix.get(occurrence)
        if mixed is None:
            mixed = mix64(occurrence + 1)
            self._occurrence_mix[occurrence] = mixed
        draw = (self._seed_high ^ key ^ mixed) & M64
        draw ^= draw >> 30
        draw = (draw * 0xBF58476D1CE4E5B9) & M64
        draw ^= draw >> 27
        draw = (draw * 0x94D049BB133111EB) & M64
        draw ^= draw >> 31
        return draw < rate * (M64 + 1)

    # -- batched scan sweep ------------------------------------------------
    #
    # The scan sweep (:meth:`repro.scanner.ipv4scan.Ipv4Scanner.scan`)
    # settles targets that host no node and meet no middlebox with
    # integer set/array operations; only the rare interesting target
    # pays the full wire path.  Whether that is *exact* — and which
    # targets are cold, and how many of their datagrams baseline loss
    # and the fault plan drop — is decided here, in one place, from the
    # same registry, the same interest classification the per-packet
    # verdicts use, and the same flow-keyed draws bit for bit.

    def scan_interest(self, src_ip, dst_port, qname_suffix=None,
                      besides=()):
        """Destinations any middlebox (``besides`` those listed) may
        affect for ``(src_ip, dst_port)`` at the current clock, as a
        list of ``(base, mask)`` ranges.

        ``qname_suffix`` tells payload-inspecting boxes what every probe
        in the sweep queries under (the scanner's measurement domain),
        letting an injector that only reacts to censored names rule
        itself out.  Returns ``None`` when any middlebox cannot
        enumerate its interest (a source-inside-injector path, a box
        keeping the base class's answer).  Verdicts are pure functions
        of the addressing tuple and the clock, and the simulated clock
        never advances inside one scan, so ranges gathered at scan start
        stay valid for the whole sweep.
        """
        ranges = []
        for box in self.middleboxes:
            if box in besides:
                continue
            box_ranges = box.scan_interest(src_ip, dst_port, self,
                                           qname_suffix=qname_suffix)
            if box_ranges is None:
                return None
            ranges.extend(box_ranges)
        return ranges

    def scan_path_checks(self, src_ip, dst_port, qname_suffix=None):
        """The subset of per-packet path checks a sweep's probes need.

        A middlebox whose :meth:`~repro.netsim.middlebox.Middlebox.
        scan_interest` answers ``[]`` has promised it affects *no*
        destination for this (source, port, qname suffix) at the
        current clock — its verdict/inspect calls on the sweep's own
        probes are pure overhead, so they are pruned.  Boxes answering
        ranges or ``None`` are kept.  The pruned list applies ONLY to
        the scanner-sourced probe sends (via ``send_probe``'s
        ``_checks``); any nested traffic a probed node generates (a
        forwarder relaying upstream) still runs the full check list,
        because the sweep promise covers only the scanner's packets.
        """
        return [(box, check) for box, check in self._path_checks
                if box.scan_interest(src_ip, dst_port, self,
                                     qname_suffix=qname_suffix) != []]

    def cold_sweep_columns(self, src_ip, src_port, dst_port, addresses,
                           addresses_sorted, loss_memo, qname_suffix=None,
                           attempts=1, paced=None):
        """Decide whether a sweep's cold probes can skip the wire.

        ``addresses`` is the sweep's address column (``addresses_sorted``
        when globally ascending) and ``attempts`` how many datagrams the
        sweep sends a target that never answers.  Returns ``None`` when
        bulk settlement cannot be proven exact — a flight recorder is
        installed (every probe must be seen), a same-clock scan already
        drew packet fates (the drop columns below start at each flow's
        *first* occurrence), or a middlebox cannot enumerate its
        interest — and the caller then sends every probe through
        :meth:`send_probe`.

        Otherwise returns ``(hot, drops)``.  ``hot`` lists, ascending,
        the positions ``i`` whose address hosts a node or a middlebox
        may act on its probe (full wire path).  ``paced``, the
        ``(plane, passed)`` of the sweep's pacing plan, takes the boxes
        of that defense plane out of the second clause wherever
        ``passed[i]`` says the plan already drew their verdict at the
        rate it will declare — none covers the address but one, and
        that one lets the probe through.

        A cold target never answers, so its only observable effects in
        :meth:`send_probe` are ``attempts`` ``udp_queries_sent``
        increments and, per attempt, the baseline loss draw followed —
        for the attempts that survive it — by the fault plan's query
        fate, every one a pure hash of (seed, flow, occurrence).
        ``drops`` lists them as ``(reason, counts)`` pairs aligned with
        ``addresses``: how many of the address's attempts ``reason``
        drops (``None`` = baseline loss, else the fault counter name).
        The caller folds them per batch and reports the totals through
        :meth:`absorb_probe_sweep`.

        ``loss_memo`` is a dict the caller keeps *for this exact address
        column*: drop counts that depend on neither the clock nor any
        mutable state are kept there, so weekly re-scans reuse them for
        free.
        """
        if self.flow_state()[0]:
            return None
        plane, passed = paced if paced is not None else ((), None)
        # A box's pass verdicts hold wherever *it* says it may act, so
        # only boxes whose interest is the ranges the plan paced over
        # are taken out of the generic interest below.
        settled = [
            (box, ranges) for box, ranges in plane
            if box.scan_interest(src_ip, dst_port, self,
                                 qname_suffix=qname_suffix) == ranges]
        interest = self.scan_interest(
            src_ip, dst_port, qname_suffix=qname_suffix,
            besides=[box for box, __ in settled])
        drops = None if interest is None else self.sweep_drop_columns(
            src_ip, src_port, dst_port, addresses, loss_memo, attempts)
        if drops is None:
            return None
        hot = set(address_positions(addresses, addresses_sorted,
                                    self._nodes_by_int, interest))
        if settled:
            hot.update(position for position in address_positions(
                addresses, addresses_sorted, (),
                [cidr for __, ranges in settled for cidr in ranges])
                if not passed[position])
        return sorted(hot), drops

    def sweep_drop_columns(self, src_ip, src_port, dst_port, addresses,
                           loss_memo, attempts=1):
        """:meth:`cold_sweep_columns`' ``drops`` alone, without the hot
        set, or ``None`` where bulk settlement is never exact: a flight
        recorder sees every probe, and a drop count must fit a byte."""
        if self.recorder is not None or attempts > 255:
            return None
        flow_const = flow_key(ip_to_int(src_ip), src_port, 0, dst_port)

        def remember(key, build):
            """``loss_memo``, scoped to this network, flow and schedule."""
            key = (self._seed_high, self.loss_rate, flow_const,
                   attempts) + key
            column = loss_memo.get(key)
            if column is None:
                if len(loss_memo) >= _LOSS_MEMO_ENTRIES:
                    loss_memo.pop(next(iter(loss_memo)))
                column = loss_memo[key] = build()
            return column

        drops = []
        lost = None
        if self.loss_rate > 0:
            lost = remember((), lambda: self._query_losses(
                _SALT_QUERY_LOSS ^ flow_const, addresses, attempts))
            drops.append((None, lost))
        if self.faults is not None:
            # The fault occurrence only advances on attempts that
            # survived baseline loss: that many draws per address.
            if lost is None:
                draws = bytes((attempts,)) * len(addresses)
            else:
                draws = lost.translate(bytes(
                    max(attempts - count, 0) for count in range(256)))
            drops.extend(self.faults.query_fate_columns(
                flow_const, addresses, draws, self.clock.now,
                remember).items())
        return drops

    def _query_losses(self, flow_const, addresses, attempts):
        """Per address, how many of a flow's first ``attempts`` queries
        are lost: bit-identical to the draws :meth:`send_probe`
        computes, because they *are* the same pure hash of (seed, salt,
        flow, occurrence), drawn a column at a time."""
        lost, = fate_counts(
            addresses, [(self._seed_high ^ flow_const, 0x85EBCA77,
                         fate_threshold(self.loss_rate))],
            bytes((attempts,)) * len(addresses))
        return lost

    def absorb_probe_sweep(self, sent, drops):
        """Fold bulk-settled probes into the traffic counters: ``sent``
        datagrams, of which ``drops`` (``{reason: count}``, keyed like
        :meth:`cold_sweep_columns`' drop columns) never arrived."""
        self.udp_queries_sent += sent
        for reason, count in drops.items():
            self.udp_queries_lost += count
            if reason is not None and count:
                self.count_fault(reason, count)

    # -- UDP --------------------------------------------------------------

    def send_udp(self, packet, rendered=True):
        """Deliver a UDP packet; return responses sorted by arrival time,
        each payload bytes — or, with ``rendered`` false, as the node
        returned it unless the path read its bytes (corruption, faults)."""
        dst_int = packet.dst_int
        if dst_int is None:
            dst_int = ip_to_int(packet.dst_ip)
        return self._datagram(
            self._flow(packet.src_ip, packet.src_port, packet.dst_ip,
                       packet.dst_port, dst_int),
            self._path_checks, None, packet.payload, packet, rendered)

    def send_probe(self, src_ip, src_port, dst_ip, dst_port, dst_int,
                   payload, _checks=None, question=None):
        """Wire-level delivery fast path: :meth:`send_udp` semantics with
        the addressing passed as scalars (``dst_int`` must equal
        ``ip_to_int(dst_ip)``).

        The :class:`UdpPacket` is only materialised when something needs
        it — a PATH_INSPECT middlebox or a node at the destination.  For
        the overwhelmingly common scan case (a probe to an address that
        hosts nothing and concerns no middlebox) no packet object is
        built at all.  ``_checks`` substitutes a pre-filtered path-check
        list (see :meth:`scan_path_checks`) for this one send; nested
        sends triggered by the destination node are unaffected.

        With the probe's ``question`` (``(qname, qtype, qclass,
        txid)``), ``payload`` is the function that renders it, and the
        datagram settles where :meth:`_datagram` says: its replies are
        then the rows of :meth:`_settled`, and no payload is rendered
        unless the datagram takes the wire.
        """
        return self._datagram(
            self._flow(src_ip, src_port, dst_ip, dst_port, dst_int),
            self._path_checks if _checks is None else _checks, None,
            payload, None, True, question)

    def send_many(self, src_ip, src_port, dst_ip, dst_port, questions,
                  query):
        """For each ``(qname, qtype, qclass, txid)`` of ``questions``, in
        order, what :meth:`send_udp` returns for ``UdpPacket(src_ip,
        src_port, dst_ip, dst_port, query(question))`` unrendered, or
        the rows a stub reads off it where :meth:`_datagram` settles the
        question.  Worked out once: the :meth:`_flow`, and which boxes
        answer ``PATH_IGNORE`` to the first datagram (the rest skip
        only those)."""
        flow = self._flow(src_ip, src_port, dst_ip, dst_port,
                          ip_to_int(dst_ip))
        checks, kept = self._path_checks, []
        answers = []
        for question in questions:
            answers.append(self._datagram(flow, checks, kept, query, None,
                                          False, question))
            if kept is not None:
                checks, kept = kept, None
        return answers

    def relay(self, src_ip, src_port, dst_ip, dst_port, question, query):
        """The first reply a relay at ``(src_ip, src_port)`` gets passing
        a stub's ``question`` on to ``dst_ip``: a :meth:`send_many` row,
        or :meth:`send_udp`'s first response; ``None`` if none comes."""
        flow = self._flow(src_ip, src_port, dst_ip, dst_port,
                          ip_to_int(dst_ip))
        replies = self._datagram(flow, self._path_checks, None, query,
                                 None, True, question)
        return replies[0] if replies else None

    def _flow(self, src_ip, src_port, dst_ip, dst_port, dst_int):
        """``(src_ip, src_port, dst_ip, dst_port, dst_int, node, query
        key, reply key, round trip)``: the unsalted flow keys of the query
        and of its reply (``None`` on a path that draws no fate), and no
        round trip without a node."""
        src_int = ip_to_int(src_ip)
        node = self._nodes.get(dst_ip)
        fated = (self.loss_rate > 0 or self.corruption_rate > 0
                 or self.faults is not None)
        return (src_ip, src_port, dst_ip, dst_port, dst_int, node,
                flow_key(src_int, src_port, dst_int, dst_port)
                if fated else None,
                flow_key(dst_int, dst_port, src_int, src_port)
                if fated else None,
                None if node is None else self.latency(src_int, dst_int) * 2)

    def _datagram(self, flow, checks, kept, payload, packet, render,
                  question=None):
        """One datagram of ``flow``, the body of :meth:`send_udp`,
        :meth:`send_probe` and :meth:`send_many`: runs ``checks``, adding
        to the list ``kept`` (if given) those not answering
        ``PATH_IGNORE``.

        With a ``question``, ``payload`` is the function that renders it,
        called only if the datagram must take the wire: a flight recorder
        must see it, a box reads replies, corruption needs bytes, a box
        on the path acts on the question, or the node has no answer plan
        (:attr:`Node.settle`) or its plan declines.  This is the one
        place that decides.  Otherwise it settles: the same fates in the
        same order, the plan's effects those of ``handle_udp``, rows
        (:meth:`_settled`) and no packet built."""
        (src_ip, src_port, dst_ip, dst_port, dst_int, node, base,
         reply_base, rtt) = flow
        self.udp_queries_sent += 1
        # Flight recorder: event kinds/causes per repro.obs.flight.  One
        # attribute load + None test when disabled.
        recorder = self.recorder
        if recorder is not None:
            recorder.record(self.clock.now, "sent", src_ip, dst_int)
        if question is not None and (
                recorder is not None or self._response_droppers
                or self.corruption_rate > 0):
            payload, question = payload(question), None
        # Per-packet middlebox triage: each box classifies the (src, dst
        # int, port) path and only PATH_INSPECT boxes see the payload.
        # Verdicts are integer arithmetic, so for the common case no box
        # ever touches the packet.
        dropped = False
        drop_cause = None
        responses = None
        for entry in checks:
            box, check = entry
            verdict = check(src_ip, dst_int, dst_port, self)
            if verdict == PATH_DROP:
                # First dropping box wins attribution: defensive boxes
                # declare a ``defense:*`` drop_cause; plain boxes fall
                # back to the generic cause below.
                if recorder is not None and not dropped:
                    drop_cause = box.drop_cause
                dropped = True
                if kept is not None:
                    kept.append(entry)
                continue
            if verdict != PATH_INSPECT:
                continue
            if kept is not None:
                kept.append(entry)
            if question is not None:
                if not box.acts_on(question):
                    continue
                payload, question = payload(question), None
            if packet is None:
                packet = UdpPacket(src_ip, src_port, dst_ip, dst_port,
                                   payload, dst_int)
            injected = box.inject_responses(packet, self)
            if injected:
                if responses is None:
                    responses = list(injected)
                else:
                    responses.extend(injected)
            if box.drops_query(packet, self):
                if recorder is not None and not dropped:
                    drop_cause = box.drop_cause
                dropped = True
        loss_rate = self.loss_rate
        delivered = not dropped
        if dropped and recorder is not None:
            recorder.record(self.clock.now, "lost", src_ip, dst_int,
                            drop_cause or "middlebox_drop")
        if delivered and loss_rate > 0 and self._packet_fate(
                _SALT_QUERY_LOSS, loss_rate, base):
            delivered = False
            if recorder is not None:
                recorder.record(self.clock.now, "lost", src_ip, dst_int,
                                "baseline_loss")
        faults = self.faults
        if delivered and faults is not None:
            # Injected query fate (burst loss / rate limiting / extra
            # loss): flow-keyed like the baseline draw, with its own
            # occurrence counter so fault and loss draws never alias.
            now = self.clock.now
            reason = faults.query_fate(base, dst_int, self._occurrence(
                _SALT_FAULT_QUERY ^ base), now)
            if reason is not None:
                self.count_fault(reason)
                delivered = False
                if recorder is not None:
                    recorder.record(now, "lost", src_ip, dst_int,
                                    "fault:" + reason)
        if not delivered:
            self.udp_queries_lost += 1
        elif node is not None:
            if question is not None:
                plan = node.settle
                replies = None if plan is None else plan(
                    dst_port, question, src_ip, self, payload)
                if replies is not None:
                    return self._settled(flow, question, replies)
                payload = payload(question)
            if packet is None:
                packet = UdpPacket(src_ip, src_port, dst_ip, dst_port,
                                   payload, dst_int)
            result = node.handle_udp(packet, self)
            for reply in self._normalize_replies(packet, result, render):
                # A reply from the queried endpoint has the flow's reply
                # key; one from elsewhere (a divergent answer source)
                # computes its own.
                key = reply_base
                if key is not None and (
                        reply.src_ip is not dst_ip
                        or reply.dst_ip is not src_ip
                        or reply.src_port != dst_port
                        or reply.dst_port != src_port):
                    key = flow_key(ip_to_int(reply.src_ip), reply.src_port,
                                   ip_to_int(reply.dst_ip), reply.dst_port)
                if loss_rate > 0 and self._packet_fate(
                        _SALT_RESPONSE_LOSS, loss_rate, key):
                    self.udp_queries_lost += 1
                    if recorder is not None:
                        recorder.record(self.clock.now, "response_lost",
                                        src_ip, dst_int, "response_loss")
                    continue
                if self._response_droppers:
                    dropper = None
                    for box in self._response_droppers:
                        if box.drops_response(packet, reply, self):
                            dropper = box
                            break
                    if dropper is not None:
                        if recorder is not None:
                            recorder.record(
                                self.clock.now, "response_lost",
                                src_ip, dst_int,
                                dropper.drop_cause or "middlebox_drop")
                        continue
                if self.corruption_rate > 0 and self._packet_fate(
                        _SALT_CORRUPTION, self.corruption_rate, key):
                    reply = UdpPacket(
                        reply.src_ip, reply.src_port, reply.dst_ip,
                        reply.dst_port,
                        self._corrupt(bytes(reply.payload)))
                    self.udp_responses_corrupted += 1
                    if recorder is not None:
                        recorder.record(self.clock.now, "corrupted",
                                        src_ip, dst_int, "corruption")
                if faults is not None and self._truncates(key):
                    # Truncated below the 12-byte DNS header: receivers
                    # must discard it as garbage.
                    reply = UdpPacket(reply.src_ip, reply.src_port,
                                      reply.dst_ip, reply.dst_port,
                                      bytes(reply.payload)[:8])
                    if recorder is not None:
                        recorder.record(self.clock.now, "truncated",
                                        src_ip, dst_int,
                                        "fault:truncated_response")
                if responses is None:
                    responses = []
                responses.append(UdpResponse(reply, rtt))
                if recorder is not None:
                    recorder.record(self.clock.now, "answered", src_ip,
                                    dst_int, None, rtt)
        if responses is None:
            return []
        # Injected (forged) responses racing a genuine answer at the exact
        # same latency must keep winning: explicit injected-first
        # tie-break, then a stable sort by arrival time.
        if len(responses) > 1:
            responses.sort(key=attrgetter("injected"), reverse=True)
            responses.sort(key=attrgetter("latency"))
        return responses

    def _settled(self, flow, question, replies):
        """The rows of a settled question's ``replies`` past the fates its
        wire twin draws: response loss, then truncation, which leaves a
        reply nobody reads — not even its header (rcode and records
        ``None``)."""
        (src_ip, src_port, dst_ip, dst_port, __, __, __, reply_base,
         __) = flow
        loss_rate = self.loss_rate
        rows = []
        for rcode, records, source in replies:
            key = reply_base
            if source is None:
                source = dst_ip
            elif key is not None:
                key = flow_key(ip_to_int(source), dst_port,
                               ip_to_int(src_ip), src_port)
            if loss_rate > 0 and self._packet_fate(
                    _SALT_RESPONSE_LOSS, loss_rate, key):
                self.udp_queries_lost += 1
                continue
            if self.faults is not None and self._truncates(key):
                rcode = records = None
            rows.append((question[3], question[0], rcode, records, source,
                         False))
        return rows

    def _truncates(self, key):
        """The fault plan's (counted) truncation fate of a reply."""
        faults = self.faults
        if faults.profile.truncation_rate <= 0 or not \
                faults.truncates_response(key, self._occurrence(
                    _SALT_FAULT_TRUNC ^ key)):
            return False
        self.count_fault("truncated_response")
        return True

    def _corrupt(self, payload):
        """Damage a payload beyond parseability (truncate + bit noise)."""
        if not payload:
            return b"\xff"
        cut = max(1, len(payload) // 3)
        noise = bytes((b ^ 0xA5) & 0xFF for b in payload[:cut])
        return noise[: max(1, cut - 2)]

    @staticmethod
    def _normalize_replies(packet, result, render):
        """Accept the handler's flexible return shapes (see Node),
        rendering each payload to bytes when ``render``."""
        if result is None:
            return []
        if not isinstance(result, list):
            return [packet.reply(bytes(result) if render else result)]
        replies = []
        for item in result:
            if isinstance(item, UdpPacket):
                replies.append(item)
            else:
                payload, source_ip = item
                replies.append(packet.reply(
                    bytes(payload) if render else payload, src_ip=source_ip))
        return replies

    # -- TCP-based services ----------------------------------------------

    def tcp_banner(self, src_ip, dst_ip, port, timeout=None):
        """Connect and read the service banner; ``None`` when closed/lost
        (or when a fault-injected stall exceeds ``timeout``)."""
        loss_rate = self.loss_rate
        if loss_rate > 0 and self._packet_fate(
                _SALT_TCP_LOSS, loss_rate,
                flow_key(ip_to_int(src_ip), 0, ip_to_int(dst_ip), port)):
            return None
        if not self._tcp_connect(src_ip, dst_ip, port, timeout):
            return None
        node = self._nodes.get(dst_ip)
        if node is None or port not in node.tcp_ports():
            return None
        return node.tcp_banner(port, network=self)

    def http_request(self, src_ip, dst_ip, request, timeout=None):
        """Issue an HTTP request to ``dst_ip``; ``None`` when no service
        (or when a fault-injected stall exceeds ``timeout``)."""
        port = 443 if request.scheme == "https" else 80
        if not self._tcp_connect(src_ip, dst_ip, port, timeout):
            return None
        node = self._nodes.get(dst_ip)
        if node is None:
            return None
        request.client_ip = src_ip
        return node.handle_http(request, self)

    def tls_handshake(self, src_ip, dst_ip, sni=None, timeout=None):
        """Fetch the TLS certificate ``dst_ip`` presents for ``sni``."""
        if not self._tcp_connect(src_ip, dst_ip, 443, timeout):
            return None
        node = self._nodes.get(dst_ip)
        if node is None:
            return None
        return node.tls_certificate(sni, network=self)

    def __repr__(self):
        return "Network(%d nodes, %d middleboxes)" % (
            len(self._nodes), len(self.middleboxes))
