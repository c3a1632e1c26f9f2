"""The simulated network core: node registry, UDP routing, TCP services.

The model is synchronous request/response: a sender hands the network a UDP
packet and receives back the list of response packets, each tagged with its
simulated one-way latency.  Middleboxes on the path may drop the query,
drop responses, or inject forged responses — forged GFW answers arrive with
lower latency than the genuine ones, reproducing the racing behaviour the
paper observed (§4.2).
"""

from operator import attrgetter

from repro.netsim.address import ip_to_int, paint_ranges
from repro.netsim.middlebox import (
    PATH_DROP,
    PATH_INSPECT,
    Middlebox,
)
from repro.util import M64, mix64

_SALT_QUERY_LOSS = 0x51
_SALT_RESPONSE_LOSS = 0x52
_SALT_CORRUPTION = 0x53
# Occurrence-counter salts for the flow-keyed TCP loss draw and the
# fault-injection plane (the fault *draws* themselves live in
# :mod:`repro.faults`; these only key the per-flow occurrence counters
# so fault draws never share a counter with baseline loss draws).
_SALT_TCP_LOSS = 0x54
_SALT_FAULT_QUERY = 0x55
_SALT_FAULT_TRUNC = 0x56
_SALT_FAULT_TCP = 0x57

# Bulk-scan support: entries kept per caller-owned loss memo.
_LOSS_MEMO_ENTRIES = 8


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

    def reply(self, payload, src_ip=None, src_port=None):
        """Build a response packet back to this packet's sender.

        ``src_ip`` lets multi-homed hosts and proxies answer from an address
        other than the one queried — the paper detects exactly this by
        encoding the target IP in the query.
        """
        return UdpPacket(
            src_ip=src_ip if src_ip is not None else self.dst_ip,
            src_port=src_port if src_port is not None else self.dst_port,
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
        # (box, bound path_verdict or None) pairs, rebuilt whenever a
        # middlebox is added; binding once keeps the per-packet verdict
        # loop to plain calls with no attribute lookups.
        self._path_checks = []
        self._nodes = {}
        # Integer-keyed mirror of the registry.  The batched scan sweep
        # triages a whole batch of numeric targets against this (one C
        # set/dict operation per batch) without ever materialising the
        # dotted-quad text of addresses that host nothing.
        self._nodes_by_int = {}
        self._seed = seed
        # Per-flow occurrence counters for packet-fate decisions; repeated
        # sends over the same 4-tuple get fresh draws (so loss statistics
        # hold), while each occurrence's fate stays order-independent.
        # Reset whenever simulated time moves, bounding memory to one
        # scan's worth of flows.
        self._flow_counts = {}
        self._flow_epoch = clock.now
        # Pure-function memos for the fate computation (never reset):
        # 4-tuple -> unsalted flow key, occurrence -> mixed occurrence.
        self._flow_key_cache = {}
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

    def middleboxes_of(self, kind):
        """The registered middleboxes that are ``kind`` instances, in
        registration order (kept until the next :meth:`add_middlebox`)."""
        boxes = self._boxes_by_kind.get(kind)
        if boxes is None:
            boxes = self._boxes_by_kind[kind] = [
                box for box in self.middleboxes if isinstance(box, kind)]
        return boxes

    def add_middlebox(self, middlebox):
        self.middleboxes.append(middlebox)
        self._boxes_by_kind = {}
        # Boxes without a path_verdict (duck-typed test doubles) are
        # conservatively inspected for every packet.
        self._path_checks = [
            (box, getattr(box, "path_verdict", None))
            for box in self.middleboxes]
        # drops_response cannot be classified per path (it may depend on
        # the response packet), so boxes that override it are consulted
        # for every delivered reply; the rest are skipped entirely.
        self._response_droppers = [
            box for box in self.middleboxes
            if not isinstance(box, Middlebox)
            or type(box).drops_response is not Middlebox.drops_response]

    # -- latency / loss ---------------------------------------------------

    def latency_between(self, src_ip, dst_ip):
        """Deterministic pairwise latency: base plus a hash-derived jitter."""
        mix = (ip_to_int(src_ip) * 2654435761 ^ ip_to_int(dst_ip)) & 0xFFFFFFFF
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
        """Occurrence index of one salted flow key this scan epoch."""
        if self.clock.now != self._flow_epoch:
            self._flow_counts.clear()
            self._flow_epoch = self.clock.now
        occurrence = self._flow_counts.get(key, 0)
        self._flow_counts[key] = occurrence + 1
        return occurrence

    def _tcp_lost(self, src_ip, dst_ip, port):
        """Flow-keyed loss draw for connection-oriented services (TCP).

        Same contract as :meth:`_packet_fate`: a pure hash of (seed,
        flow, occurrence), so connection outcomes are independent of how
        pipeline fetches interleave — not a shared sequential RNG.
        """
        loss_rate = self.loss_rate
        if loss_rate <= 0:
            return False
        key = _SALT_TCP_LOSS ^ (
            ip_to_int(src_ip) * 0x9E3779B1 ^ ip_to_int(dst_ip) * 0x85EBCA77
            ^ port << 1)
        occurrence = self._occurrence(key)
        draw = mix64(self._seed_high ^ key ^ mix64(occurrence + 1))
        return draw < loss_rate * (M64 + 1)

    def _tcp_connect(self, src_ip, dst_ip, port, timeout):
        """Fault hook for one TCP connect; False = failed (hung past
        ``timeout``).  A stall shorter than the caller's patience is
        absorbed (the connect eventually completes)."""
        faults = self.faults
        if faults is None or faults.profile.tcp_hang_rate <= 0:
            return True
        base = (ip_to_int(src_ip) * 0x9E3779B1
                ^ ip_to_int(dst_ip) * 0x85EBCA77 ^ port << 1)
        occurrence = self._occurrence(_SALT_FAULT_TCP ^ base)
        stall = faults.tcp_stall_seconds(base, occurrence)
        if stall <= 0.0:
            return True
        if timeout is not None and stall >= timeout:
            self.count_fault("tcp_hang")
            return False
        self.count_fault("tcp_stall_absorbed")
        return True

    def _packet_fate(self, salt, rate, packet):
        """Order-independent delivery decision for one UDP packet.

        The draw is a pure hash of (seed, salt, flow 4-tuple, occurrence
        index of that flow since time last advanced) — NOT a shared
        sequential RNG.  Any interleaving of distinct flows therefore
        yields identical per-packet fates, the property the sharded scan
        engine relies on for bit-identical merged results.
        """
        if self.clock.now != self._flow_epoch:
            self._flow_counts.clear()
            self._flow_epoch = self.clock.now
        dst_int = packet.dst_int
        if dst_int is not None:
            # Integer addressing available: compute the flow key directly,
            # skipping both text parsing and the string-tuple memo.
            base = (ip_to_int(packet.src_ip) * 0x9E3779B1
                    ^ dst_int * 0x85EBCA77
                    ^ packet.src_port << 17 ^ packet.dst_port << 1)
        else:
            flow = (packet.src_ip, packet.dst_ip,
                    packet.src_port, packet.dst_port)
            base = self._flow_key_cache.get(flow)
            if base is None:
                base = (ip_to_int(packet.src_ip) * 0x9E3779B1
                        ^ ip_to_int(packet.dst_ip) * 0x85EBCA77
                        ^ packet.src_port << 17 ^ packet.dst_port << 1)
                if len(self._flow_key_cache) < 1 << 20:
                    self._flow_key_cache[flow] = base
        key = salt ^ base
        occurrence = self._flow_counts.get(key, 0)
        self._flow_counts[key] = occurrence + 1
        mixed = self._occurrence_mix.get(occurrence)
        if mixed is None:
            mixed = mix64(occurrence + 1)
            self._occurrence_mix[occurrence] = mixed
        draw = mix64(self._seed_high ^ key ^ mixed)
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
        enumerate its interest (duck-typed doubles, source-inside-
        injector paths).  Verdicts are pure functions of the addressing
        tuple and the clock, and the simulated clock never advances
        inside one scan, so ranges gathered at scan start stay valid
        for the whole sweep.
        """
        ranges = []
        for box in self.middleboxes:
            if box in besides:
                continue
            probe = getattr(box, "scan_interest", None)
            if probe is None:
                return None
            box_ranges = probe(src_ip, dst_port, self,
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
        checks = []
        for box, check in self._path_checks:
            probe = getattr(box, "scan_interest", None)
            if probe is None or probe(src_ip, dst_port, self,
                                      qname_suffix=qname_suffix) != []:
                checks.append((box, check))
        return checks

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

        Otherwise returns ``(hot, drops)``.  ``hot[i]`` is 1 where the
        address hosts a node or a middlebox may act on its probe (full
        wire path).  ``paced``, the ``(plane, passed)`` of the sweep's
        pacing plan, takes the boxes of that defense plane out of the
        second clause wherever ``passed[i]`` says the plan already drew
        their verdict at the rate it will declare — none covers the
        address but one, and that one lets the probe through.

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
        if self.recorder is not None or attempts > 255:
            return None
        if self.clock.now != self._flow_epoch:
            self._flow_counts.clear()
            self._flow_epoch = self.clock.now
        if self._flow_counts:
            return None
        plane, passed = paced if paced is not None else ((), None)
        # A box's pass verdicts hold wherever *it* says it may act, so
        # only boxes whose interest is the ranges the plan paced over
        # are taken out of the generic interest below.
        settled = [
            (box, ranges) for box, ranges in plane
            if getattr(box, "scan_interest", None) is not None
            and box.scan_interest(src_ip, dst_port, self,
                                  qname_suffix=qname_suffix) == ranges]
        interest = self.scan_interest(
            src_ip, dst_port, qname_suffix=qname_suffix,
            besides=[box for box, __ in settled])
        if interest is None:
            return None
        hot = bytearray(map(self._nodes_by_int.__contains__, addresses))
        paint_ranges(hot, addresses, addresses_sorted, interest)
        if settled:
            defended = bytearray(len(addresses))
            for __, ranges in settled:
                paint_ranges(defended, addresses, addresses_sorted, ranges)
            hot = bytearray((
                int.from_bytes(hot, "big")
                | (int.from_bytes(defended, "big")
                   & ~int.from_bytes(passed, "big"))
            ).to_bytes(len(hot), "big"))
        flow_const = (ip_to_int(src_ip) * 0x9E3779B1
                      ^ src_port << 17 ^ dst_port << 1)

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
        return hot, drops

    def _query_losses(self, flow_const, addresses, attempts):
        """Per address, how many of a flow's first ``attempts`` queries
        are lost: bit-identical to the draws :meth:`send_probe`
        computes, because they *are* the same pure hash of (seed, salt,
        flow, occurrence)."""
        scaled_rate = self.loss_rate * (M64 + 1)
        seed_high = self._seed_high
        occurrences = [mix64(occurrence + 1)
                       for occurrence in range(attempts)]
        lost = bytearray(len(addresses))
        for position, value in enumerate(addresses):
            key = seed_high ^ flow_const ^ value * 0x85EBCA77
            for mixed in occurrences:
                # repro.util.mix64, inlined; the key matches
                # send_probe's query-loss key exactly.
                draw = (key ^ mixed) & M64
                draw ^= draw >> 30
                draw = (draw * 0xBF58476D1CE4E5B9) & M64
                draw ^= draw >> 27
                draw = (draw * 0x94D049BB133111EB) & M64
                draw ^= draw >> 31
                if draw < scaled_rate:
                    lost[position] += 1
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
        return self.send_probe(packet.src_ip, packet.src_port,
                               packet.dst_ip, packet.dst_port, dst_int,
                               packet.payload, _packet=packet,
                               _render=rendered)

    def send_probe(self, src_ip, src_port, dst_ip, dst_port, dst_int,
                   payload, _packet=None, _checks=None, _render=True):
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
        """
        self.udp_queries_sent += 1
        # Flight recorder: event kinds/causes per repro.obs.flight.  One
        # attribute load + None test when disabled.
        recorder = self.recorder
        if recorder is not None:
            recorder.record(self.clock.now, "sent", src_ip, dst_int)
        # Per-packet middlebox triage: each box classifies the (src, dst
        # int, port) path and only PATH_INSPECT boxes see the payload.
        # Verdicts are integer arithmetic, so for the common case no box
        # ever touches the packet.
        packet = _packet
        dropped = False
        drop_cause = None
        responses = None
        for box, check in (self._path_checks if _checks is None
                           else _checks):
            if check is not None:
                verdict = check(src_ip, dst_int, dst_port, self)
                if verdict == PATH_DROP:
                    # First dropping box wins attribution: defensive
                    # boxes expose a ``defense:*`` drop_cause; plain
                    # boxes fall back to the generic cause below.
                    if recorder is not None and not dropped:
                        drop_cause = getattr(box, "drop_cause", None)
                    dropped = True
                    continue
                if verdict != PATH_INSPECT:
                    continue
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
                    drop_cause = getattr(box, "drop_cause", None)
                dropped = True
        loss_rate = self.loss_rate
        delivered = not dropped
        if dropped and recorder is not None:
            recorder.record(self.clock.now, "lost", src_ip, dst_int,
                            drop_cause or "middlebox_drop")
        if delivered and loss_rate > 0:
            # Query-loss fate: _packet_fate with _SALT_QUERY_LOSS and
            # repro.util.mix64, inlined — one draw per probe is the
            # hottest fate decision, so it skips the call overhead.
            now = self.clock.now
            if now != self._flow_epoch:
                self._flow_counts.clear()
                self._flow_epoch = now
            key = _SALT_QUERY_LOSS ^ (
                ip_to_int(src_ip) * 0x9E3779B1 ^ dst_int * 0x85EBCA77
                ^ src_port << 17 ^ dst_port << 1)
            occurrence = self._flow_counts.get(key, 0)
            self._flow_counts[key] = occurrence + 1
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
            delivered = draw >= loss_rate * (M64 + 1)
            if not delivered and recorder is not None:
                recorder.record(now, "lost", src_ip, dst_int,
                                "baseline_loss")
        faults = self.faults
        if delivered and faults is not None:
            # Injected query fate (burst loss / rate limiting / extra
            # loss): flow-keyed like the baseline draw, with its own
            # occurrence counter so fault and loss draws never alias.
            now = self.clock.now
            if now != self._flow_epoch:
                self._flow_counts.clear()
                self._flow_epoch = now
            base = (ip_to_int(src_ip) * 0x9E3779B1 ^ dst_int * 0x85EBCA77
                    ^ src_port << 17 ^ dst_port << 1)
            fault_key = _SALT_FAULT_QUERY ^ base
            occurrence = self._flow_counts.get(fault_key, 0)
            self._flow_counts[fault_key] = occurrence + 1
            reason = faults.query_fate(base, dst_int, occurrence, now)
            if reason is not None:
                self.count_fault(reason)
                delivered = False
                if recorder is not None:
                    recorder.record(now, "lost", src_ip, dst_int,
                                    "fault:" + reason)
        if delivered:
            node = self._nodes.get(dst_ip)
            if node is not None:
                if packet is None:
                    packet = UdpPacket(src_ip, src_port, dst_ip, dst_port,
                                       payload, dst_int)
                result = node.handle_udp(packet, self)
                base = self.latency_between(src_ip, dst_ip)
                for reply in self._normalize_replies(packet, result,
                                                     _render):
                    if loss_rate > 0 and self._packet_fate(
                            _SALT_RESPONSE_LOSS, loss_rate, reply):
                        self.udp_queries_lost += 1
                        if recorder is not None:
                            recorder.record(self.clock.now,
                                            "response_lost", src_ip,
                                            dst_int, "response_loss")
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
                                    getattr(dropper, "drop_cause", None)
                                    or "middlebox_drop")
                            continue
                    if self.corruption_rate > 0 and self._packet_fate(
                            _SALT_CORRUPTION, self.corruption_rate, reply):
                        reply = UdpPacket(
                            reply.src_ip, reply.src_port, reply.dst_ip,
                            reply.dst_port,
                            self._corrupt(bytes(reply.payload)))
                        self.udp_responses_corrupted += 1
                        if recorder is not None:
                            recorder.record(self.clock.now, "corrupted",
                                            src_ip, dst_int, "corruption")
                    if faults is not None and \
                            faults.profile.truncation_rate > 0:
                        reply_base = (
                            ip_to_int(reply.src_ip) * 0x9E3779B1
                            ^ ip_to_int(reply.dst_ip) * 0x85EBCA77
                            ^ reply.src_port << 17 ^ reply.dst_port << 1)
                        reply_occurrence = self._occurrence(
                            _SALT_FAULT_TRUNC ^ reply_base)
                        if faults.truncates_response(reply_base,
                                                     reply_occurrence):
                            # Truncated below the 12-byte DNS header:
                            # receivers must discard it as garbage.
                            reply = UdpPacket(
                                reply.src_ip, reply.src_port,
                                reply.dst_ip, reply.dst_port,
                                bytes(reply.payload)[:8])
                            self.count_fault("truncated_response")
                            if recorder is not None:
                                recorder.record(
                                    self.clock.now, "truncated", src_ip,
                                    dst_int, "fault:truncated_response")
                    if responses is None:
                        responses = []
                    responses.append(UdpResponse(reply, base * 2))
                    if recorder is not None:
                        recorder.record(self.clock.now, "answered",
                                        src_ip, dst_int, None, base * 2)
        else:
            self.udp_queries_lost += 1
        if responses is None:
            return []
        # Injected (forged) responses racing a genuine answer at the exact
        # same latency must keep winning: explicit injected-first
        # tie-break, then a stable sort by arrival time.
        if len(responses) > 1:
            responses.sort(key=attrgetter("injected"), reverse=True)
            responses.sort(key=attrgetter("latency"))
        return responses

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
        if self._tcp_lost(src_ip, dst_ip, port):
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
        port = 443 if getattr(request, "scheme", "http") == "https" else 80
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
