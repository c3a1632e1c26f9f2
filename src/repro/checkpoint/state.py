"""World-state capture and restore for bit-identical resume.

A resumed run rebuilds the simulated world from its seed, replays
completed units of work from the checkpoint, and *fast-forwards* the
deterministic state machines (churn, clock) instead of re-scanning.
What cannot be replayed by construction — the simulated clock, the
network's cumulative traffic and fault counters, the perf registry — is
captured alongside every committed unit and restored verbatim, so the
continuation is indistinguishable from an uninterrupted run.

The churn model is never serialized: its RNG draws happen only during
world construction and ``step()``, both of which the resumed process
re-executes identically.  Instead a digest of its observable state is
recorded so resume can *prove* the fast-forward converged on the same
world, refusing to continue from a diverged one.
"""

import hashlib

from repro.checkpoint.ledger import NET_COUNTERS
from repro.checkpoint.store import CheckpointError


def _dns_cache_sites(network):
    """Enumerate the world's DNS caches in a rebuild-stable order.

    Yields ``(key, holder)`` pairs: per-resolver :class:`DnsCache`
    instances (keyed by node IP) and the shared
    :class:`ResolutionService` backends the population points at
    (deduplicated by identity, keyed by discovery order — which is
    stable because a rebuilt world registers the same nodes).  Warm
    caches are real cross-unit state: an in-process scan that skips a
    restored week would otherwise re-walk the hierarchy for names the
    uninterrupted run had already cached, diverging the traffic counts.
    """
    nodes = getattr(network, "_nodes", None)
    if not nodes:
        return
    seen_services = set()
    service_index = 0
    for ip in sorted(nodes):
        node = nodes[ip]
        cache = getattr(node, "cache", None)
        if cache is not None and hasattr(cache, "_entries"):
            yield ("node", ip), cache
        service = getattr(node, "service", None)
        if service is not None and hasattr(service, "_suffix_cache") \
                and id(service) not in seen_services:
            seen_services.add(id(service))
            yield ("service", service_index), service
            service_index += 1


def capture_dns_caches(network):
    """Snapshot every resolver/service DNS cache in the world."""
    captured = {}
    for key, holder in _dns_cache_sites(network):
        if key[0] == "node":
            captured[key] = {"entries": dict(holder._entries)}
        else:
            # The trusted resolver's txid is sequential state too: it
            # picks the source port of every hierarchy query, which keys
            # the per-flow packet-fate draws downstream.
            trusted = getattr(holder, "_trusted", None)
            captured[key] = {"names": dict(holder._cache),
                             "suffixes": dict(holder._suffix_cache),
                             "full_resolutions": holder.full_resolutions,
                             "trusted_txid": getattr(trusted, "_txid",
                                                     None)}
    return captured


def restore_dns_caches(network, captured):
    """Install captured cache contents into a freshly rebuilt world."""
    if not captured:
        return
    for key, holder in _dns_cache_sites(network):
        state = captured.get(key)
        if state is None:
            continue
        if key[0] == "node":
            holder._entries.clear()
            # (Hit/miss counters an older capture carries are ignored.)
            holder._entries.update(state["entries"])
        else:
            holder._cache.clear()
            holder._cache.update(state["names"])
            holder._suffix_cache.clear()
            holder._suffix_cache.update(state["suffixes"])
            holder.full_resolutions = state["full_resolutions"]
            trusted = getattr(holder, "_trusted", None)
            if trusted is not None and state.get("trusted_txid") is not None:
                trusted._txid = state["trusted_txid"]


def capture_world_state(network, perf=None):
    """Snapshot the cross-unit mutable state at a commit boundary."""
    state = {
        "clock": network.clock.now,
        "net_counters": {name: getattr(network, name, 0)
                         for name in NET_COUNTERS},
        "fault_counters": dict(getattr(network, "fault_counters", None)
                               or {}),
        # Per-flow occurrence counters: packet-fate draws are keyed by
        # (flow, occurrence), so a resumed run must continue from the
        # same occurrence numbers or every repeated send over a flow the
        # restored units already used would re-draw earlier fates.
        "flow_counts": dict(getattr(network, "_flow_counts", None) or {}),
        "flow_epoch": getattr(network, "_flow_epoch", None),
        "dns_caches": capture_dns_caches(network),
        "perf": perf.snapshot() if perf is not None else None,
    }
    tracer = getattr(network, "tracer", None)
    if tracer is not None:
        # Durable trace context: a resumed run adopts the interrupted
        # run's trace id (and continues its span sequence) so the
        # stitched trace reads as one campaign.
        state["trace"] = tracer.context()
    return state


def restore_world_state(network, perf, state):
    """Restore a captured snapshot into a freshly rebuilt world.

    The clock may only move forward: a recorded time behind the current
    simulated time means the checkpoint belongs to a different run
    shape, and continuing would silently diverge.
    """
    if state is None:
        return
    recorded = state.get("clock")
    if recorded is not None:
        if recorded < network.clock.now:
            raise CheckpointError(
                "checkpointed clock %.1f is behind the rebuilt world's "
                "%.1f; refusing to resume" % (recorded,
                                              network.clock.now))
        network.clock.now = float(recorded)
    for name, value in (state.get("net_counters") or {}).items():
        setattr(network, name, value)
    fault_counters = getattr(network, "fault_counters", None)
    if fault_counters is not None:
        recorded_faults = state.get("fault_counters")
        if recorded_faults is not None:
            fault_counters.clear()
            fault_counters.update(recorded_faults)
    flow_counts = getattr(network, "_flow_counts", None)
    if flow_counts is not None and state.get("flow_counts") is not None:
        flow_counts.clear()
        flow_counts.update(state["flow_counts"])
        if state.get("flow_epoch") is not None:
            network._flow_epoch = state["flow_epoch"]
    restore_dns_caches(network, state.get("dns_caches"))
    if perf is not None and state.get("perf") is not None:
        perf.restore(state["perf"])
    tracer = getattr(network, "tracer", None)
    if tracer is not None and state.get("trace") is not None:
        tracer.adopt(state["trace"])


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
