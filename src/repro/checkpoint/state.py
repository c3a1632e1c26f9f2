"""World-state capture and restore for bit-identical resume.

A resumed run rebuilds the simulated world from its seed, replays
completed units of work from the checkpoint, and *fast-forwards* the
deterministic state machines (churn, clock) instead of re-scanning.
What cannot be replayed by construction — the simulated clock, the
network's cumulative traffic and fault counters, the perf registry — is
captured alongside every committed unit and restored verbatim, so the
continuation is indistinguishable from an uninterrupted run.

A capture holds only what a later unit can read, by each owner's
liveness rule (:meth:`DnsCache.live`, :meth:`Network.flow_state`): a
week commit, taken after the clock advanced a week, carries its clock
and counters, not the expired caches of every resolver it touched.

The churn model is never serialized: its RNG draws happen only during
world construction and ``step()``, both of which the resumed process
re-executes identically.  Instead a digest of its observable state is
recorded so resume can *prove* the fast-forward converged on the same
world, refusing to continue from a diverged one.
"""

import hashlib

from repro.checkpoint.ledger import net_counters
from repro.checkpoint.store import CheckpointError
from repro.dnswire.constants import QTYPE_A, RCODE_NOERROR
from repro.resolvers.resolver import HonestResult


def _dns_cache_sites(network):
    """Enumerate the world's DNS caches in a rebuild-stable order.

    Yields ``(key, holder)`` pairs: per-resolver :class:`DnsCache`
    instances (keyed by node IP) and the shared
    :class:`ResolutionService` backends the population points at
    (deduplicated by identity, keyed by discovery order — which is
    stable because a rebuilt world registers the same nodes).
    """
    nodes = network._nodes
    seen_services = set()
    for ip in sorted(nodes):
        node = nodes[ip]
        cache = node.cache
        if cache is not None:
            yield ("node", ip), cache
        service = node.service
        if service is not None and id(service) not in seen_services:
            yield ("service", len(seen_services)), service
            seen_services.add(id(service))


def capture_dns_caches(network):
    """Snapshot the live entries of every non-empty node cache, and
    each shared service's caches (they never expire) and trusted txid
    (it picks the source port of every hierarchy query, which keys the
    per-flow packet-fate draws downstream).  Warm caches are cross-unit
    state: a resumed run without them would re-walk the hierarchy and
    diverge the traffic counts."""
    now = network.clock.now
    captured = {}
    for key, holder in _dns_cache_sites(network):
        if key[0] == "node":
            entries = holder.live(now)
            if entries:
                captured[key] = {"entries": entries}
        else:
            captured[key] = {"names": dict(holder._cache),
                             "suffixes": dict(holder._suffix_cache),
                             "full_resolutions": holder.full_resolutions,
                             "trusted_txid": holder._trusted._txid}
    return captured


def _cached_result(records, ttl):
    """The :class:`HonestResult` an entry's ``records`` were built from:
    the A records' addresses, the rest as extra records."""
    return HonestResult(
        RCODE_NOERROR,
        [record.data.address for record in records
         if record.rtype == QTYPE_A], ttl,
        [record for record in records if record.rtype != QTYPE_A])


def restore_dns_caches(network, captured):
    """Install captured cache contents into a freshly rebuilt world; a
    node cache the capture leaves out is empty."""
    for key, holder in _dns_cache_sites(network):
        state = captured.get(key)
        if key[0] == "node":
            # (Hit/miss counters an older capture carries are ignored;
            # its entries hold the records built from each result.)
            entries = state["entries"] if state else {}
            holder.replace({
                entry: (value if isinstance(value, HonestResult)
                        else _cached_result(value, ttl), stored_at, ttl)
                for entry, (value, stored_at, ttl) in entries.items()})
        elif state is not None:
            holder._cache = dict(state["names"])
            holder._suffix_cache = dict(state["suffixes"])
            holder.full_resolutions = state["full_resolutions"]
            holder._trusted._txid = state["trusted_txid"]


def capture_world_state(network, perf=None):
    """Snapshot the cross-unit mutable state at a commit boundary."""
    # Per-flow occurrence counters: packet-fate draws are keyed by
    # (flow, occurrence), so a resumed run must continue from the same
    # occurrence numbers while the clock still reads the same time.
    flow_counts, flow_epoch = network.flow_state()
    state = {
        "clock": network.clock.now,
        "net_counters": net_counters(network),
        "fault_counters": dict(network.fault_counters),
        "flow_counts": flow_counts,
        "flow_epoch": flow_epoch,
        "dns_caches": capture_dns_caches(network),
        "perf": perf.snapshot() if perf is not None else None,
    }
    if network.tracer is not None:
        # Durable trace context: a resumed run adopts the interrupted
        # run's trace id (and continues its span sequence) so the
        # stitched trace reads as one campaign.
        state["trace"] = network.tracer.context()
    return state


def restore_world_state(network, perf, state):
    """Restore a captured snapshot into a freshly rebuilt world.

    The clock may only move forward: a recorded time behind the current
    simulated time means the checkpoint belongs to a different run
    shape, and continuing would silently diverge.
    """
    recorded = state["clock"]
    if recorded < network.clock.now:
        raise CheckpointError(
            "checkpointed clock %.1f is behind the rebuilt world's "
            "%.1f; refusing to resume" % (recorded, network.clock.now))
    network.clock.now = float(recorded)
    for name, value in state["net_counters"].items():
        setattr(network, name, value)
    network.fault_counters.clear()
    network.fault_counters.update(state["fault_counters"])
    network.restore_flow_state(state["flow_counts"], state["flow_epoch"])
    restore_dns_caches(network, state["dns_caches"])
    if perf is not None and state["perf"] is not None:
        perf.restore(state["perf"])
    # ``.get``: every version writes ``trace`` only from a traced run
    # (the fixtures are untraced, and lack it).
    if network.tracer is not None and state.get("trace") is not None:
        network.tracer.adopt(state["trace"])


def churn_digest(churn):
    """A stable fingerprint of the churn model's observable state.

    Folds in the RNG position, the rebind/offline tallies, and the
    per-host (address, online) assignment — everything a diverged
    fast-forward would perturb.
    """
    digest = hashlib.sha256()
    digest.update(repr(churn._rng.getstate()).encode("utf-8"))
    digest.update(("|%d|%d|" % (churn.rebind_count,
                                churn.offline_count)).encode("utf-8"))
    for host in churn.hosts():
        digest.update(("%s,%d;" % (host.node.ip,
                                   1 if host.online else 0))
                      .encode("utf-8"))
    return digest.hexdigest()[:24]
