"""Reference implementations the hot paths are checked against.

Each is the direct transcription the production code replaced: slow,
obviously right, and never imported from ``src/``.  The study kernel
tests compare against the first three input by input, and
``tests/test_reporting.py`` swaps all three in for a whole study and
requires a byte-equal report; ``tests/scanner/test_sweep_lattice.py``
holds every configuration of the IPv4 sweep to :func:`reference_sweep`,
and ``tests/scanner/test_walk_order.py`` the sweep's planner to
:func:`bulk_plan` over :func:`dense_hot_column`;
``tests/resolvers/test_cache.py`` holds the self-pruning ``DnsCache`` to
:class:`NeverPrunedCache`;
``tests/core/test_clustering.py`` holds NN-chain clustering to
:func:`pair_scan_cluster`; ``tests/resolvers/test_wire_path.py`` holds
the resolver's wire path to :class:`MessageResolverNode`, and
``tests/dnswire/test_client.py`` the stub client to :func:`message_ask`
and :func:`message_ask_many`, and ``tests/test_reporting.py`` swaps the
latter in for a whole study; ``tests/resolvers/test_settled.py`` holds
the questions ``ask_many`` settles by answer class to :func:`ask_each`;
``tests/test_util.py`` holds ``PickTable`` to :func:`weighted_choice`,
and ``tests/core/test_diffcluster.py`` the diff stage's similarity to
:func:`difflib_quick_ratio`; ``tests/netsim/test_fate_oracle.py`` holds
every packet fate of the network to :class:`FateOracle`.
:func:`message_fields` and
:func:`row_fields` are what "the same message" and "the same row" mean
in those comparisons.
"""

import difflib
from collections import Counter

from repro.authdns.resolution import IterativeResolver
from repro.core.clustering import (
    Cluster,
    Dendrogram,
    _distance_matrix,
    _lance_williams,
    hierarchical_cluster,
)
from repro.core.distance import jaccard_distance
from repro.dnswire import Message
from repro.dnswire.constants import (CLASS_CH, CLASS_IN, QTYPE_A, QTYPE_NS,
                                     QTYPE_PTR, QTYPE_TXT, RCODE_NOERROR,
                                     RCODE_NOTIMP, RCODE_REFUSED,
                                     RCODE_SERVFAIL)
from repro.dnswire.client import ask
from repro.dnswire.message import HEADER_STRUCT, peek_header
from repro.dnswire.name import NameCompressor, normalize_name
from repro.dnswire.records import ResourceRecord
from repro.dnswire.wire import message_row
from repro.netsim.address import int_to_ip, ip_to_int
from repro.netsim.network import UdpPacket
from repro.resolvers.cache import CacheActivityModel
from repro.resolvers.resolver import (MODE_REFUSED, MODE_SERVFAIL,
                                      MODE_SILENT, HonestResult,
                                      ResolverNode)
from repro.resolvers.software import (HIDDEN_VERSION_STRINGS, STYLE_ERROR,
                                      STYLE_HIDDEN, STYLE_NO_VERSION)
from repro.scanner.ipv4scan import ScanResult, TargetFilter
from repro.scanner.lfsr import LFSR
from repro.scanner.pacing import (build_pacing_plan, defense_plane,
                                  normalize_pacing)


def weighted_choice(rng, weighted_items):
    """Pick from ``[(item, weight), ...]``: one loop over the running
    sums per pick (what ``repro.util.PickTable`` replaced)."""
    total = sum(weight for __, weight in weighted_items)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    point = rng.random() * total
    cumulative = 0.0
    for item, weight in weighted_items:
        cumulative += weight
        if point < cumulative:
            return item
    return weighted_items[-1][0]


def difflib_quick_ratio(a, b):
    """difflib's upper bound on the similarity of two strings."""
    return difflib.SequenceMatcher(a=a, b=b, autojunk=False).quick_ratio()


def dp_edit_distance(seq_a, seq_b, cap=None):
    """Levenshtein distance by the classic two-row dynamic program."""
    if cap is not None:
        seq_a = seq_a[:cap]
        seq_b = seq_b[:cap]
    if seq_a == seq_b:
        return 0
    if not seq_a:
        return len(seq_b)
    if not seq_b:
        return len(seq_a)
    if len(seq_a) < len(seq_b):
        seq_a, seq_b = seq_b, seq_a
    previous = list(range(len(seq_b) + 1))
    for i, item_a in enumerate(seq_a, 1):
        current = [i]
        for j, item_b in enumerate(seq_b, 1):
            cost = 0 if item_a == item_b else 1
            current.append(min(previous[j] + 1,
                               current[j - 1] + 1,
                               previous[j - 1] + cost))
        previous = current
    return previous[-1]


def signed_multiset(profile):
    """A diff profile's added and removed tags as one ``Counter``."""
    combined = Counter()
    for name, count in profile.added.items():
        combined["+%s" % name] = count
    for name, count in profile.removed.items():
        combined["-%s" % name] = count
    return combined


def pairwise_diff_cluster(diff_profiles, threshold=0.5):
    """``diff_cluster`` with a fresh ``Counter`` Jaccard for every pair."""
    def distance(profile_a, profile_b):
        return jaccard_distance(signed_multiset(profile_a),
                                signed_multiset(profile_b))

    return hierarchical_cluster(diff_profiles, distance, threshold,
                                linkage="average")


def pair_scan_cluster(items, distance_fn, threshold, linkage="average"):
    """``hierarchical_cluster`` by pair-scan: rescan all active pairs for
    the global minimum before every merge, O(n³)."""
    dendrogram = Dendrogram()
    members = _agglomerate_pair_scan(
        len(items), _distance_matrix(items, distance_fn), threshold,
        linkage, dendrogram)
    clusters = [Cluster(indices, [items[index] for index in indices])
                for __, indices in sorted(members.items())]
    return clusters, dendrogram


def _agglomerate_pair_scan(n, distance, threshold, linkage, dendrogram):
    """Merge the globally closest pair until it exceeds the threshold."""
    active = set(range(n))
    members = {i: [i] for i in range(n)}
    while len(active) > 1:
        best = None
        best_pair = None
        active_list = sorted(active)
        for index_a, i in enumerate(active_list):
            row = distance[i]
            for j in active_list[index_a + 1:]:
                d = row[j]
                if best is None or d < best:
                    best = d
                    best_pair = (i, j)
        if best is None or best > threshold:
            break
        i, j = best_pair
        size_i = len(members[i])
        size_j = len(members[j])
        # Lance-Williams update of distances from the merged cluster
        # (stored under index i) to every other active cluster.
        for k in active:
            if k in (i, j):
                continue
            updated = _lance_williams(linkage, size_i, size_j,
                                      distance[i][k], distance[j][k])
            distance[i][k] = updated
            distance[k][i] = updated
        members[i] = members[i] + members[j]
        del members[j]
        active.remove(j)
        dendrogram.record(i, j, best, len(members[i]))
    return members


# -- the stub exchange through Message objects ------------------------------

def message_fields(message):
    """Every field of ``message``: the header's flags, the question, and
    each record's name, type, class, TTL and rdata class and attributes
    (``ResourceRecord.__eq__`` ignores the TTL and the owner's case)."""
    return (vars(message.header),
            [(question.name, question.qtype, question.qclass)
             for question in message.questions],
            [[(record.name, record.rtype, record.rclass, record.ttl,
               type(record.data), vars(record.data)) for record in section]
             for section in (message.answers, message.authorities,
                             message.additionals)])


def row_fields(row):
    """Every field of a ``(txid, name, rcode, records[, source ip,
    injected])`` row: each record's type, TTL and rdata class and
    attributes."""
    return row[:3] + ([(rtype, ttl, type(data), vars(data))
                       for rtype, ttl, data in row[3]],) + row[4:]


def message_ask(network, source_ip, source_port, server_ip, qname, txid,
                qtype=QTYPE_A, qclass=CLASS_IN, rd=True):
    """``repro.dnswire.client.ask`` as a ``Message`` round trip: build
    the query object and encode it, parse every datagram, then judge."""
    query = Message.query(qname, qtype=qtype, qclass=qclass, txid=txid,
                          rd=rd)
    packet = UdpPacket(source_ip, source_port, server_ip, 53,
                       query.to_wire())
    accepted = []
    for response in network.send_udp(packet):
        try:
            message = Message.from_wire(response.packet.payload)
        except ValueError:
            continue
        if message.header.qr and message.header.txid == txid:
            accepted.append((message, response))
    return accepted


def message_ask_many(network, source_ip, source_port, server_ip, questions,
                     qtype=QTYPE_A, qclass=CLASS_IN, rd=True):
    """``repro.dnswire.client.ask_many`` as one :func:`message_ask` per
    question — a ``send_udp`` and a full parse per datagram — with each
    row read off the parsed ``Message`` and its response."""
    return [[(message.header.txid,
              message.question.name if message.question else qname,
              message.rcode,
              [(record.rtype, record.ttl, record.data)
               for record in message.answers], response.packet.src_ip,
              response.injected)
             for message, response in message_ask(
                 network, source_ip, source_port, server_ip, qname, txid,
                 qtype=qtype, qclass=qclass, rd=rd)]
            for qname, txid in questions]


def ask_each(network, source_ip, source_port, server_ip, questions,
             qtype=QTYPE_A, qclass=CLASS_IN, rd=True):
    """``repro.dnswire.client.ask_many`` as one ``ask`` per question —
    every datagram on the wire through ``send_udp``, nothing settled by
    class — with each accepted ``Message`` read as its row."""
    rows = []
    for qname, txid in questions:
        accepted = []
        for message, response in ask(network, source_ip, source_port,
                                     server_ip, qname, txid, qtype=qtype,
                                     qclass=qclass, rd=rd):
            row = message_row(message)
            accepted.append((row[0], qname if row[1] is None else row[1],
                             row[2], row[3], response.packet.src_ip,
                             response.injected))
        rows.append(accepted)
    return rows


class MessageResolverNode(ResolverNode):
    """``ResolverNode`` answering through ``Message`` objects: parse the
    query, build the response message, encode it.  Same constructor,
    same state; only the wire work differs from the production node."""

    def handle_udp(self, packet, network):
        if packet.dst_port != 53:
            return None
        faults = getattr(network, "faults", None)
        if faults is not None and faults.resolver_offline(
                ip_to_int(self.ip), network.clock.now):
            network.count_fault("resolver_flap")
            return None
        try:
            query = Message.from_wire(packet.payload)
        except ValueError:
            return None
        if query.header.qr or query.question is None:
            return None
        self.query_count += 1
        if self.forward_to is not None \
                and query.question.qclass == CLASS_IN \
                and query.question.qtype != QTYPE_NS:
            return self._forward(packet, network)
        response = self.respond(query, network, client_ip=packet.src_ip)
        if response is None:
            return None
        payload = response.to_wire()
        if self.answer_source_ip is not None:
            return [(payload, self.answer_source_ip)]
        return payload

    def respond(self, query, network, client_ip=None):
        question = query.question
        if question.qclass == CLASS_CH and question.qtype == QTYPE_TXT:
            return self._chaos_response(query)
        if self.response_mode == MODE_SILENT:
            return None
        if not self._client_allowed(client_ip):
            return query.make_response(rcode=RCODE_REFUSED, ra=False)
        if self.response_mode == MODE_REFUSED:
            return query.make_response(rcode=RCODE_REFUSED, ra=False)
        if self.response_mode == MODE_SERVFAIL:
            return query.make_response(rcode=RCODE_SERVFAIL)
        if question.qclass != CLASS_IN:
            return query.make_response(rcode=RCODE_NOTIMP)
        if question.qtype == QTYPE_A:
            return self._a_response(query, network)
        if question.qtype == QTYPE_NS:
            return self._ns_response(query, network)
        if question.qtype == QTYPE_PTR:
            return self._ptr_response(query, network)
        return query.make_response(rcode=RCODE_NOTIMP)

    def _a_response(self, query, network):
        qname = query.question.name
        for behavior in self.behaviors:
            answer = behavior.answer(self, qname, network)
            if answer is not None:
                return self._build_from_behavior(query, answer)
        honest = self.resolve_honest(qname, network)
        response = query.make_response(rcode=honest.rcode)
        for address in honest.addresses:
            response.answers.append(
                ResourceRecord.a(qname, address, ttl=honest.ttl))
        response.answers.extend(honest.extra_records)
        return response

    def _build_from_behavior(self, query, answer):
        response = query.make_response(rcode=answer.rcode)
        qname = query.question.name
        if answer.ns_only:
            apex = ".".join(normalize_name(qname).split(".")[-2:])
            response.answers.append(
                ResourceRecord.ns(qname, "ns1.%s" % apex, ttl=answer.ttl))
            return response
        if answer.empty:
            return response
        for address in answer.addresses:
            response.answers.append(
                ResourceRecord.a(qname, address, ttl=answer.ttl))
        return response

    def resolve_honest(self, qname, network):
        """Every cached record copied through ``with_ttl``, then sorted
        into two lists."""
        if self.service is None:
            return HonestResult(RCODE_SERVFAIL)
        name = normalize_name(qname)
        now = network.clock.now
        cached = self.cache.lookup(name, QTYPE_A, now)
        if cached is not None:
            cached = [record.with_ttl(cached[1]) for record in cached[0]]
            return HonestResult(
                RCODE_NOERROR,
                [record.data.address for record in cached
                 if record.rtype == QTYPE_A],
                cached[0].ttl if cached else 300,
                extra_records=[record for record in cached
                               if record.rtype != QTYPE_A])
        result = self.service.resolve_for(network, self, name)
        if result.rcode == RCODE_NOERROR and result.addresses:
            self.cache.put(
                name, QTYPE_A,
                [ResourceRecord.a(name, a, ttl=result.ttl)
                 for a in result.addresses] + list(result.extra_records),
                now, ttl=result.ttl)
        return result

    def _ns_response(self, query, network):
        tld = normalize_name(query.question.name)
        observable = self.activity.observable_ttl(tld, network.clock.now)
        if self.activity.style == CacheActivityModel.STYLE_UNREACHABLE:
            return None
        if observable == "silent":
            return None
        response = query.make_response()
        if observable is None or observable == "empty":
            return response
        for host in ("a.nic.%s" % tld, "b.nic.%s" % tld):
            response.answers.append(
                ResourceRecord.ns(query.question.name, host,
                                  ttl=int(observable)))
        return response

    def _ptr_response(self, query, network):
        if self.service is None:
            return query.make_response(rcode=RCODE_SERVFAIL)
        resolver = IterativeResolver(self.service.root_ips, self.ip)
        result = resolver.resolve(network, query.question.name, QTYPE_PTR)
        response = query.make_response(rcode=result.rcode)
        response.answers.extend(result.records)
        return response

    def _chaos_response(self, query):
        qname = normalize_name(query.question.name)
        if qname not in ("version.bind", "version.server"):
            return query.make_response(rcode=RCODE_NOTIMP)
        if self.chaos_style == STYLE_ERROR:
            rcode = RCODE_REFUSED if self._hidden_rng.random() < 0.7 \
                else RCODE_SERVFAIL
            return query.make_response(rcode=rcode)
        if self.chaos_style == STYLE_NO_VERSION:
            return query.make_response()
        response = query.make_response()
        if self.chaos_style == STYLE_HIDDEN:
            text = HIDDEN_VERSION_STRINGS[
                self._hidden_rng.randrange(len(HIDDEN_VERSION_STRINGS))]
        else:
            text = (self.software.version_string if self.software
                    else "unknown")
        response.answers.append(
            ResourceRecord.txt(query.question.name, [text]))
        return response


def compressor_only_to_wire(message):
    """``Message.to_wire`` with every name sent through one
    :class:`NameCompressor`, the first included."""
    compressor = NameCompressor()
    out = bytearray(HEADER_STRUCT.pack(
        message.header.txid, message.header.flags_word(),
        len(message.questions), len(message.answers),
        len(message.authorities), len(message.additionals)))
    for section in (message.questions, message.answers,
                    message.authorities, message.additionals):
        for entry in section:
            out += entry.to_wire(compressor.encode(entry.name, len(out)))
    return bytes(out)


def cache_facts(entries):
    """The facts a resolver cache's ``entries`` (``DnsCache._entries``
    or ``live()``) hold, per key: the records the stored answer stands
    for, each as (owner name, rtype, class, TTL, rdata repr), then the
    entry's ``stored_at`` and TTL.  A resolver stores the
    :class:`HonestResult` it was given, which stands for the key's A
    records at the result's TTL, then its extra records;
    :class:`MessageResolverNode` stores those records themselves."""
    facts = {}
    for key, (stored, stored_at, ttl) in entries.items():
        if isinstance(stored, HonestResult):
            stored = [ResourceRecord.a(key[0], address, ttl=stored.ttl)
                      for address in stored.addresses] \
                + list(stored.extra_records)
        facts[key] = ([(record.name, record.rtype, record.rclass,
                        record.ttl, repr(record.data))
                       for record in stored], stored_at, ttl)
    return facts


class NeverPrunedCache:
    """``DnsCache`` as it was before it pruned: an expired entry stays
    until a ``lookup`` of its key or an eviction at capacity removes it.
    Evictions take the entry closest to expiry, ties to the smaller
    key."""

    def __init__(self, max_entries):
        self.entries = {}   # (name, qtype) -> (result, stored_at, ttl)
        self.max_entries = max_entries

    def put(self, name, qtype, result, now, ttl):
        key = (name.lower(), qtype)
        entries = self.entries
        if key not in entries and len(entries) >= self.max_entries:
            del entries[min(entries, key=lambda k: (entries[k][1]
                                                    + entries[k][2], k))]
        entries[key] = (result, now, ttl)

    def lookup(self, name, qtype, now):
        key = (name.lower(), qtype)
        entry = self.entries.get(key)
        if entry is None:
            return None
        result, stored_at, ttl = entry
        if stored_at + ttl <= now:
            del self.entries[key]
            return None
        return result, int(ttl - (now - stored_at))

    def live(self, now):
        """The entries not expired at ``now``, without dropping any."""
        return {key: entry for key, entry in self.entries.items()
                if entry[1] + entry[2] > now}


# -- packet fates, as the network first wrote them --------------------------

_M64 = (1 << 64) - 1


def splitmix64(value):
    value &= _M64
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & _M64
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & _M64
    value ^= value >> 31
    return value


_SALT_QUERY_LOSS = 0x51
_SALT_RESPONSE_LOSS = 0x52
_SALT_CORRUPTION = 0x53
_SALT_TCP_LOSS = 0x54
_SALT_FAULT_QUERY = 0x55
_SALT_FAULT_TRUNC = 0x56
_SALT_FAULT_TCP = 0x57


def four_tuple_hash(src_ip, src_port, dst_ip, dst_port):
    """The unsalted fate key of a flow, from its dotted quads (a TCP
    connection's source port is 0)."""
    return (ip_to_int(src_ip) * 0x9E3779B1 ^ ip_to_int(dst_ip) * 0x85EBCA77
            ^ src_port << 17 ^ dst_port << 1)


class FateOracle:
    """Every packet fate a ``Network(clock, seed, loss_rate)`` with
    ``corruption_rate`` and the fault plan ``plan`` (or ``None``) draws,
    written out: one occurrence counter per (salt, flow key), restarted
    whenever the clock reads another time, and one splitmix64 draw of
    (seed, salt, key, occurrence) per fate.  The fault plan's own draws
    are :class:`repro.faults.FaultPlan`'s; this holds only their keys
    and occurrences."""

    def __init__(self, clock, seed, loss_rate, corruption_rate, plan):
        self.clock = clock
        self.seed = seed
        self.loss_rate = loss_rate
        self.corruption_rate = corruption_rate
        self.plan = plan
        self.counts = {}
        self.epoch = None

    def occurrence(self, salt, key):
        """How many times (salt, key) was drawn at this clock reading."""
        if self.clock.now != self.epoch:
            self.counts = {}
            self.epoch = self.clock.now
        occurrence = self.counts.get((salt, key), 0)
        self.counts[(salt, key)] = occurrence + 1
        return occurrence

    def strikes(self, salt, key, rate):
        """One baseline fate at ``rate`` (no draw at rate 0)."""
        if rate <= 0:
            return False
        occurrence = self.occurrence(salt, key)
        draw = splitmix64((self.seed << 32) ^ salt ^ key
                          ^ splitmix64(occurrence + 1))
        return draw < rate * 2 ** 64

    def query(self, src_ip, src_port, dst_ip, dst_port):
        """The fate of one query datagram: ``None`` (delivered),
        ``"loss"`` (baseline loss) or the fault plan's reason.  The
        fault occurrence counts only the sends baseline loss spared."""
        key = four_tuple_hash(src_ip, src_port, dst_ip, dst_port)
        if self.strikes(_SALT_QUERY_LOSS, key, self.loss_rate):
            return "loss"
        if self.plan is None:
            return None
        return self.plan.query_fate(
            key, ip_to_int(dst_ip), self.occurrence(_SALT_FAULT_QUERY, key),
            self.clock.now)

    def reply(self, src_ip, src_port, dst_ip, dst_port):
        """``(lost, corrupted, truncated)`` of one reply datagram."""
        key = four_tuple_hash(src_ip, src_port, dst_ip, dst_port)
        if self.strikes(_SALT_RESPONSE_LOSS, key, self.loss_rate):
            return True, False, False
        corrupted = self.strikes(_SALT_CORRUPTION, key,
                                 self.corruption_rate)
        plan = self.plan
        truncated = (plan is not None and plan.profile.truncation_rate > 0
                     and plan.truncates_response(
                         key, self.occurrence(_SALT_FAULT_TRUNC, key)))
        return False, corrupted, truncated

    def connect(self, src_ip, dst_ip, port, timeout):
        """What one TCP connect meets: ``"loss"``, ``"tcp_hang"``,
        ``"tcp_stall_absorbed"`` or ``None``."""
        key = four_tuple_hash(src_ip, 0, dst_ip, port)
        if self.strikes(_SALT_TCP_LOSS, key, self.loss_rate):
            return "loss"
        plan = self.plan
        if plan is None or plan.profile.tcp_hang_rate <= 0:
            return None
        stall = plan.tcp_stall_seconds(
            key, self.occurrence(_SALT_FAULT_TCP, key))
        if stall <= 0:
            return None
        if timeout is not None and stall >= timeout:
            return "tcp_hang"
        return "tcp_stall_absorbed"


# -- the IPv4 sweep, one target at a time ----------------------------------


def dense_hot_column(addresses, nodes, interest, paced=None):
    """``Network.cold_sweep_columns``' hot set as one flag per address:
    1 where the address hosts one of ``nodes``, falls inside an
    ``interest`` range, or — ``paced`` being the ``(ranges, passed)`` of
    the defense boxes the pacing plan settled — inside one of those
    ranges where ``passed`` does not say the plan let the probe
    through.  Slot 0, the column's sentinel, is never hot."""
    def inside(value, ranges):
        return any(value & mask == base for base, mask in ranges)

    settled, passed = paced if paced is not None else ((), None)
    return bytearray(
        position > 0 and (value in nodes or inside(value, interest)
                          or inside(value, settled)
                          and not passed[position])
        for position, value in enumerate(addresses))


def bulk_plan(batches, addr_of, hot, drops):
    """The sweep plan of ``batches`` of LFSR states (a
    ``TargetBatchIterator``) against the network's cold-settlement
    columns, one batch at a time: per batch, the hot targets, the number
    of targets settled without the wire, and per drop column how many of
    those targets' datagrams it claims."""
    hot_of = hot.__getitem__
    drops = [(reason, counts.__getitem__) for reason, counts in drops]
    for batch in batches:
        hot_states = [state for state in batch if hot_of(state)]
        yield ([addr_of(state) for state in hot_states],
               len(batch) - len(hot_states),
               [(reason, sum(map(count_of, batch))
                 - sum(map(count_of, hot_states)))
                for reason, count_of in drops])


def reference_sweep(network, source_ip, measurement_domain, target_space,
                    blacklist=None, source_port=31337, lfsr_seed=0xACE1,
                    retries=0, probe_timeout=None, backoff=2.0,
                    timeout_margin=1.25, pacing=None, perf=None):
    """``Ipv4Scanner.scan`` over the full space, by the book.

    Steps a plain :class:`LFSR`, maps each state through
    ``ScanTargetSpace.int_at`` and ``TargetFilter.allows_slot``, builds
    every query with ``Message.query(...).to_wire()`` and pays one
    ``send_probe`` per attempt, on the wire: no batches, no columns, no
    bulk settlement, no settled questions.  The pacing decisions come
    from the (separately tested) plan builder, fed per-target inputs
    computed here.  Returns the :class:`ScanResult`; ``perf`` gets the
    accepted replies' round trips (``probe_rtt_seconds``) and the late
    ones' count (``probe_responses_late``).
    """
    rtts = []
    late = 0
    result = ScanResult(network.clock.now)
    total = len(target_space)
    if total == 0:
        return result
    order = LFSR.order_for(total)
    states = list(LFSR(order, seed=(lfsr_seed % ((1 << order) - 1))
                       or 1).sequence())
    target_filter = TargetFilter(target_space, blacklist)

    def allowed_address(state):
        """The address behind an LFSR state, or ``None`` (out of range,
        reserved, blacklisted)."""
        if state > total:
            return None
        value = target_space.int_at(state - 1)
        slot = next(slot for slot, prefix
                    in enumerate(target_space.prefixes)
                    if prefix.contains_int(value))
        return value if target_filter.allows_slot(slot, value) else None

    identity = splitmix64((ip_to_int(source_ip) << 17) ^ source_port
                          ^ lfsr_seed)
    epoch = int(network.clock.now) & 0xFFFFFFFF
    config = normalize_pacing(pacing)
    plan = None
    plane = defense_plane(network, source_ip) if config is not None else []
    if plane:
        addresses = [0] * (max(states) + 1)
        defended = [0] * (max(states) + 1)
        for state in states:
            value = allowed_address(state)
            if value is not None:
                addresses[state] = value
                defended[state] = int(any(
                    value & mask == base
                    for __, ranges in plane for base, mask in ranges))
        plan = build_pacing_plan(plane, ip_to_int(source_ip), identity,
                                 states, defended, addresses, config)
    recorder = network.recorder
    try:
        for state in states:
            value = allowed_address(state)
            if value is None:
                continue
            if plan is not None:
                cause = plan.suppressed.get(value)
                if cause is not None:
                    result.record_suppressed(value & plan.window_mask,
                                             cause)
                    if recorder is not None:
                        recorder.record(network.clock.now, "suppressed",
                                        source_ip, value, cause)
                    continue
                network.scan_rate_bucket = plan.rates.get(value)
            key = splitmix64(identity ^ (epoch << 32) ^ value)
            txid = key & 0xFFFF
            payload = Message.query(
                "r%x.%08x.%s" % (key >> 16 & 0xFFFFFF, value,
                                 measurement_domain), txid=txid).to_wire()
            target_ip = int_to_ip(value)
            timeouts = [None] * (retries + 1)
            if probe_timeout is not None:
                # Network's deterministic latency, written out.
                mix = (ip_to_int(source_ip) * 2654435761 ^ value) \
                    & 0xFFFFFFFF
                floor = 2 * (network.base_latency
                             + (mix % 1000) / 1000.0 * 0.180) \
                    * timeout_margin
                anchor = (floor if retries and
                          probe_timeout * backoff ** retries <= floor
                          else probe_timeout)
                timeouts = [max(anchor * backoff ** attempt, floor)
                            for attempt in range(retries + 1)]
            for attempt, timeout in enumerate(timeouts):
                result.probes_sent += 1
                result.retransmissions += bool(attempt)
                answered = False
                for response in network.send_probe(
                        source_ip, source_port, target_ip, 53, value,
                        payload):
                    header = peek_header(response.packet.payload)
                    if header is None or not header[1] \
                            or header[0] != txid:
                        continue
                    if timeout is not None and response.latency > timeout:
                        late += 1
                        continue
                    answered = True
                    rtts.append(response.latency)
                    result.record(target_ip, header[2],
                                  response.packet.src_ip)
                if answered:
                    break
    finally:
        network.scan_rate_bucket = None
    if perf is not None:
        perf.observe_many("probe_rtt_seconds", rtts)
        if late:
            perf.count("probe_responses_late", late)
    return result
