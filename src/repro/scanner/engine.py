"""Sharded parallel scan engine with worker supervision.

Splits a :class:`~repro.scanner.ipv4scan.ScanTargetSpace` into N
contiguous index shards and drives each through a fork-based worker
process.  ``os.fork`` gives every worker a copy-on-write view of the
fully built scenario — no scenario rebuild, no pickling of the world,
just the per-shard :class:`ScanResult` coming back over a pipe.

Determinism contract (verified by ``tests/scanner/test_engine.py``):
the merged result is **identical** to a sequential single-process scan
of the same space — same ``counts()``, same ``responders``, same
``divergent_sources``, same ``probes_sent`` — for any shard count.
Three properties make this hold:

* probe identity is a pure hash of (scanner, scan epoch, target), so a
  worker scanning indexes [k, m) emits byte-identical packets to the
  ones a full scan would emit for those targets;
* packet fates (loss/corruption/injected faults) are keyed per flow +
  occurrence, not drawn from a shared sequential RNG, so fates cannot
  depend on how workers interleave sends
  (:meth:`repro.netsim.network.Network._packet_fate`);
* shard results are merged with set unions over disjoint target sets,
  which is order-insensitive.

Because those properties also make a *repeated* shard scan reproduce
the exact bytes and fates of the first attempt, worker failure recovery
is cheap and safe.  The fork/pipe/recovery machinery lives in
:class:`ShardSupervisor`, which is scanner-agnostic: it drives any
``run_range((start, stop), on_progress, chunk_sink)`` callable over
contiguous index ranges, so the IPv4 scan (:class:`ScanEngine`) and the per-domain
scan (:class:`repro.scanner.domainengine.DomainScanEngine`) share one
supervision implementation.  The supervisor watches its workers over
the result pipe — workers stream single-byte heartbeats while scanning
and ship their result as one length-prefixed frame — and reacts to
failures with escalating, narrow recovery:

1. a worker that dies on its first attempt is retried once (fresh fork
   of the same shard);
2. a second death splits the shard in half and retries both halves;
3. a death after splitting falls back to scanning just that index range
   in-process — never the whole space.

A worker that stops heartbeating for ``heartbeat_timeout`` seconds is
killed and treated as dead (hang recovery; requires a scanner with
``supports_progress``).  Every completed work item is recorded in the
merged result's ``provenance`` so degraded shards are visible to the
analysis layer, and all recovery events increment ``repro.perf``
counters (``worker_deaths``, ``shard_retries``, ``shard_splits``,
``shard_failures``, ``workers_hung``).

Workers cannot write back into the parent (fork semantics), so parent-
side state the scan would have advanced — network traffic and fault
counters, warm resolver caches — is reconciled explicitly: every work
item runs inside a :class:`repro.checkpoint.Ledger` whose delta rides
back in the result frame (and is the shard's checkpoint payload), while
cache warm-ups are deliberately dropped (the next scan replays the identical resolutions
from the identical pre-fork state, so dropped warm-ups cannot change
any later result).  One observable consequence: every worker re-warms
the resolution suffix cache in its own copy, so the *traffic* counters
report a few more queries than a sequential scan (one warm-up per extra
worker) even though the scan results are identical.

When ``shards <= 1`` or the platform lacks ``os.fork`` (non-POSIX), the
engines transparently scan in-process.
"""

import os
import pickle
import select
import signal
import time
from collections import deque
from contextlib import contextmanager

from repro.checkpoint import NULL_SCOPE, Ledger, apply_delta
from repro.obs.trace import span
from repro.perf import sample_ru_maxrss_kb
from repro.scanner.ipv4scan import merge_scan_results
from repro.scanner.options import ScanOptions

# Pipe protocol: workers stream _HEARTBEAT bytes while scanning, zero
# or more _CHUNK frames (streamed column chunks, which the parent keeps
# still pickled until the result lands), then one _RESULT frame.
# Frames are tag + 4-byte big-endian length + pickled payload;
# heartbeats are single bytes that may appear between (never inside)
# frames.
_HEARTBEAT = b"\x01"
_RESULT = b"\x02"
_CHUNK = b"\x03"
_HEARTBEAT_BYTE = _HEARTBEAT[0]
_RESULT_BYTE = _RESULT[0]
_CHUNK_BYTE = _CHUNK[0]

# Exit code of a worker killed by an injected fault (worker_dies).
_FAULT_EXIT = 23


def _absorb_result_chunks(result, chunks):
    """Reassemble a streamed :class:`ScanResult` from its tail + chunks."""
    for chunk in chunks:
        result.absorb_chunk(chunk)
    return result


def _write_all(fd, data):
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class _Worker:
    """Parent-side state of one live worker process.

    ``feed`` is an incremental frame parser, not a byte scan: chunk and
    result payloads are arbitrary pickle bytes and may contain the tag
    values, so frames must be walked by their length prefixes.  Complete
    ``_CHUNK`` frames of the current attempt are kept, still pickled, in
    ``chunks`` until the result frame lands; a worker that dies takes
    them with it.
    """

    __slots__ = ("pid", "fd", "item", "heartbeats", "last_beat",
                 "buffer", "payload", "chunks")

    def __init__(self, pid, fd, item, now):
        self.pid = pid
        self.fd = fd
        self.item = item              # (start, stop, origin, attempt)
        self.heartbeats = 0
        self.last_beat = now
        self.buffer = bytearray()     # unparsed pipe bytes
        self.payload = None           # _RESULT payload bytes, once seen
        self.chunks = []              # _CHUNK payload bytes, in order

    def feed(self, data, now):
        """Consume pipe bytes: heartbeats, chunk frames, result frame."""
        self.last_beat = now
        buffer = self.buffer
        buffer.extend(data)
        pos = 0
        end = len(buffer)
        while pos < end:
            tag = buffer[pos]
            if tag == _HEARTBEAT_BYTE:
                self.heartbeats += 1
                pos += 1
                continue
            if tag not in (_RESULT_BYTE, _CHUNK_BYTE):
                # Corrupt stream (torn write); stop parsing — the frame
                # never completes and the worker takes the death path.
                break
            if pos + 5 > end:
                break                 # header not yet complete
            need = int.from_bytes(buffer[pos + 1:pos + 5], "big")
            if pos + 5 + need > end:
                break                 # payload not yet complete
            payload = bytes(buffer[pos + 5:pos + 5 + need])
            if tag == _CHUNK_BYTE:
                self.chunks.append(payload)
            else:
                self.payload = payload
            pos += 5 + need
        del buffer[:pos]

    def shard_payload(self):
        """The unpickled result dict, or ``None`` if the result frame
        never completed (worker died mid-write)."""
        if self.payload is None:
            return None
        try:
            return pickle.loads(self.payload)
        except Exception:
            return None


class ShardSupervisor:
    """Fork/COW worker supervision over contiguous index ranges.

    ``run_range((start, stop), on_progress, chunk_sink)`` is the unit of
    work: it is executed inside a forked worker (with a heartbeat
    callback when the scanner ``supports_progress``) or in-process for a
    last-resort rescue, and must return a picklable per-shard result.
    The supervisor owns spawning, the heartbeat/result pipe protocol,
    hang detection, escalating death recovery, and the reconciliation of
    what each worker did to its copy of the world back into the parent —
    every work item runs inside a :class:`repro.checkpoint.Ledger`
    (``perf_host`` is the ledger's host: the object whose ``perf``
    registry the work writes to).

    ``reassemble`` enables result streaming: the worker's ``chunk_sink``
    ships fixed-size result chunks over the pipe as ``_CHUNK`` frames as
    they fill, so the worker never holds a whole shard's rows.  The
    parent keeps the frames as they arrived and, when the worker's final
    frame lands, ``reassemble(tail_result, chunks_iter)`` folds them
    back into the shard result *before* it enters the success path, so
    checkpoint commits, provenance, and merging see exactly the result a
    non-streaming worker would have shipped.  A dead worker's chunks are
    dropped with it (the retry re-emits them), and in-process rescues
    stay resident — they never stream.
    """

    def __init__(self, network, run_range, perf=None,
                 heartbeat_timeout=None, supports_progress=False,
                 perf_host=None, reassemble=None):
        self.network = network
        self.run_range = run_range
        self.perf = perf
        self.supports_progress = supports_progress
        self.heartbeat_timeout = (heartbeat_timeout
                                  if supports_progress else None)
        self.perf_host = perf_host
        self.reassemble = reassemble

    def _count(self, name, amount=1):
        if self.perf is not None:
            self.perf.count(name, amount)

    def run(self, ranges, origins, on_item_done):
        """Supervise workers over ``ranges``; returns the provenance,
        one entry per completed work item.

        ``on_item_done(item, payload, entry)`` fires after each completed
        work item with a self-contained, picklable payload (the result,
        its ledger delta, its provenance entry) and is the only way
        results leave the supervisor — it never accumulates them.
        ``entry["mode"]`` is ``"worker"`` or ``"in-process"``, so the
        caller knows which results already mutated parent state.  The
        hook may raise to abort the run (the checkpoint crash plane
        does) — active workers are reaped first.

        ``origins`` names each range's global shard index — a
        checkpointed resume runs only the not-yet-committed ranges but
        must keep their original indices so per-origin fault draws
        (``worker_dies``) and provenance stay identical to a full run.
        """
        plan = self.network.faults
        heartbeat_timeout = self.heartbeat_timeout
        pending = deque((start, stop, origin, 0)
                        for origin, (start, stop) in zip(origins, ranges))
        active = {}                     # read fd -> _Worker
        provenance = []
        rescues = []                    # items for in-process fallback
        rescued_origins = set()
        # Worker deltas, applied to the parent in sorted item order
        # after the run — completion order varies, the trace must not.
        landed = []

        try:
            while pending or active:
                while pending:
                    worker = self._spawn(pending.popleft(), plan)
                    active[worker.fd] = worker
                wait = 0.05 if heartbeat_timeout is not None else None
                ready, __, __unused = select.select(list(active), [], [],
                                                    wait)
                now = time.monotonic()
                for fd in ready:
                    worker = active[fd]
                    data = os.read(fd, 1 << 16)
                    if data:
                        worker.feed(data, now)
                        continue
                    # EOF: the worker finished or died.
                    del active[fd]
                    os.close(fd)
                    os.waitpid(worker.pid, 0)
                    if worker.heartbeats:
                        self._count("heartbeats_seen", worker.heartbeats)
                    shard = worker.shard_payload()
                    if shard is None:
                        self._on_death(worker.item, pending, rescues,
                                       rescued_origins)
                    else:
                        self._on_success(worker, shard, provenance,
                                         landed, on_item_done)
                if heartbeat_timeout is not None:
                    for worker in list(active.values()):
                        if now - worker.last_beat > heartbeat_timeout:
                            # Hung worker: no heartbeat within budget.
                            # Kill it; the pipe EOF routes it through
                            # _on_death.
                            self._count("workers_hung")
                            worker.last_beat = now
                            try:
                                os.kill(worker.pid, signal.SIGKILL)
                            except ProcessLookupError:
                                pass

            # In-process fallback, narrowed to just the failed index
            # ranges: probe identity and packet fates are position-
            # independent, so the late retry still produces exactly the
            # bytes and fates the worker would have.
            for item in sorted(rescues):
                self._rescue(item, provenance, on_item_done)
        except BaseException:
            # Abort (an injected crash from the commit hook, ^C, ...):
            # reap every live worker so no zombies outlive the run.
            for worker in active.values():
                try:
                    os.kill(worker.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                try:
                    os.close(worker.fd)
                except OSError:
                    pass
                try:
                    os.waitpid(worker.pid, 0)
                except ChildProcessError:
                    pass
            raise

        landed.sort(key=lambda entry: entry[0])
        for __key, origin, delta in landed:
            apply_delta(self.network, self.perf, delta, origin)
        return provenance

    def _spawn(self, item, plan):
        """Fork one worker for a work item; returns its parent-side state."""
        start, stop, origin, attempt = item
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            # Worker: run one shard of the COW-shared scenario and
            # ship the result back; never return into the caller.
            os.close(read_fd)
            status = 0
            try:
                if plan is not None and plan.worker_dies(origin, attempt):
                    # Injected worker death (chaos testing): die before
                    # any work, as a crashed process would.
                    os._exit(_FAULT_EXIT)
                on_progress = None
                if self.supports_progress:
                    def on_progress():
                        os.write(write_fd, _HEARTBEAT)
                chunk_sink = None
                if self.reassemble is not None:
                    def chunk_sink(chunk):
                        data = pickle.dumps(
                            chunk, protocol=pickle.HIGHEST_PROTOCOL)
                        _write_all(write_fd, _CHUNK
                                   + len(data).to_bytes(4, "big") + data)
                payload = pickle.dumps(
                    self._run_shard((start, stop), on_progress,
                                    origin, attempt, chunk_sink),
                    protocol=pickle.HIGHEST_PROTOCOL)
                _write_all(write_fd, _RESULT
                           + len(payload).to_bytes(4, "big") + payload)
            except BaseException:
                status = 1
            finally:
                # Skip atexit/buffer teardown of the forked
                # interpreter; only the pipe payload matters.
                os._exit(status)
        os.close(write_fd)
        return _Worker(pid, read_fd, item, time.monotonic())

    def _on_death(self, item, pending, rescues, rescued_origins):
        """Escalating recovery: retry, then split, then in-process."""
        start, stop, origin, attempt = item
        self._count("worker_deaths")
        if attempt == 0:
            self._count("shard_retries")
            pending.append((start, stop, origin, 1))
        elif attempt == 1 and stop - start > 1:
            self._count("shard_splits")
            middle = (start + stop) // 2
            pending.append((start, middle, origin, 2))
            pending.append((middle, stop, origin, 2))
        else:
            # Repeated deaths: rescue this narrow range in-process.
            # ``shard_failures`` counts once per original shard needing
            # rescue (the pre-supervision contract).
            if origin not in rescued_origins:
                rescued_origins.add(origin)
                self._count("shard_failures")
            rescues.append(item)

    def _on_success(self, worker, shard, provenance, landed, on_item_done):
        start, stop, origin, attempt = item = worker.item
        result = shard.pop("result")    # what is left is the ledger delta
        if worker.chunks:
            # Chunks are unpickled lazily, in emission order; the
            # reassembled result is canonically equal to what a
            # non-streaming worker would have shipped (column results
            # sort rows on serialisation, so chunk boundaries leave no
            # trace).
            result = self.reassemble(result, map(pickle.loads,
                                                 worker.chunks))
        status = ("ok" if attempt == 0
                  else "retried" if attempt == 1 else "split")
        entry = {"shard": origin, "start": start, "stop": stop,
                 "mode": "worker", "attempt": attempt, "status": status}
        provenance.append(entry)
        landed.append(((start, stop, attempt), origin, shard))
        on_item_done(item, dict(shard, result=result,
                                provenance=[dict(entry)]), entry)

    def _rescue(self, item, provenance, on_item_done):
        """Run one failed range in-process.

        Unlike a worker, a rescue mutates the live parent world (and
        traces into the parent's instruments), so of its ledger delta
        only the perf registry is still owed to the parent; the whole
        delta goes into the commit payload, as a worker's does.
        """
        start, stop, origin, attempt = item
        network = self.network
        ledger = Ledger(network, self.perf_host)
        with span(network, "shard", origin=origin, attempt=attempt,
                  start=start, stop=stop, mode="in-process"):
            result = self.run_range((start, stop), None)
        delta = ledger.delta()
        apply_delta(network, self.perf, delta, origin, in_process=True)
        entry = {"shard": origin, "start": start, "stop": stop,
                 "mode": "in-process", "attempt": attempt,
                 "status": "rescued"}
        provenance.append(entry)
        on_item_done(item, dict(delta, result=result,
                                provenance=[dict(entry)]), entry)

    def _run_shard(self, index_range, on_progress, origin, attempt,
                   chunk_sink):
        """Executed inside a worker: one shard run inside a ledger."""
        network = self.network
        # Shard-local instruments: re-namespace the inherited tracer
        # (span ids stay unique across every worker of every supervised
        # scan in the process — the prefix carries the parent's active
        # span id, which is unique per scan, plus origin, attempt, *and*
        # range start, because both halves of a split shard share origin
        # and attempt) and clear the inherited flight ring, so only
        # shard-local spans and events ride back over the result pipe.
        tracer = network.tracer
        if tracer is not None:
            tracer.rebase("%s.w%d.%d.%d:" % (tracer.active_span_id or "",
                                             origin, attempt,
                                             index_range[0]))
        if network.recorder is not None:
            network.recorder.reset()
        ledger = Ledger(network, self.perf_host)
        rss_before = sample_ru_maxrss_kb()
        with span(network, "shard", origin=origin, attempt=attempt,
                  start=index_range[0], stop=index_range[1], mode="worker"):
            result = self.run_range(index_range, on_progress, chunk_sink)
        shard = ledger.delta(shard_local=True)
        worker_perf = shard["perf"]
        if worker_perf is not None:
            # Kernel high-water marks, merged with "max" policy so the
            # parent registry reports the worst worker of the scan.  A
            # forked child *inherits* the parent's ru_maxrss high-water
            # mark, so the absolute peak mostly restates the pre-fork
            # footprint (world + walk + columns, all shared
            # copy-on-write); the growth delta is the worker's own
            # private allocation — the number bench_scale gates on.
            worker_perf.declare_gauge("worker_peak_rss_kb", "max")
            worker_perf.gauge("worker_peak_rss_kb", sample_ru_maxrss_kb())
            worker_perf.declare_gauge("worker_rss_growth_kb", "max")
            worker_perf.gauge("worker_rss_growth_kb",
                              max(0, sample_ru_maxrss_kb() - rss_before))
        shard["result"] = result
        return shard


class ShardedEngine:
    """What the IPv4 and the domain scan engine share: the options they
    obey and the one forked driver, :meth:`_run_sharded`.

    ``options.stream_results`` bounds worker memory: workers flush their
    results every ``options.chunk_rows`` rows as pipe frames, which the
    parent holds until the shard completes and then folds back into its
    result.  The outcome is byte-identical to a resident run —
    streaming changes *where* rows live during the scan, never what
    they are.  An engine streams iff it passes ``_run_sharded`` a
    reassembler; in-process rescues always run resident.
    ``heartbeat_timeout`` kills workers silent for that many wall-clock
    seconds (needs a scanner with ``supports_progress``); ``None``
    disables.
    """

    def __init__(self, scanner, options=None, perf=None,
                 heartbeat_timeout=None):
        self.scanner = scanner
        # Held apart from the scanner: a stand-in scanner swapped in
        # later (the pipeline's degradation tests) need not carry one.
        self.network = scanner.network
        self.options = options or ScanOptions()
        self.perf = perf
        self.heartbeat_timeout = heartbeat_timeout

    @property
    def can_fork(self):
        return hasattr(os, "fork")

    @contextmanager
    def _measured(self, timer, counter):
        """Account one whole scan (in-process or forked) to ``perf``:
        its wall time, its count, and the ``fault_*`` deltas of every
        fault the plan injected or the scan absorbed meanwhile."""
        start = time.perf_counter()
        ledger = Ledger(self.network)
        yield
        if self.perf is not None:
            self.perf.record_seconds(timer, time.perf_counter() - start)
            self.perf.count(counter)
            for name, amount in ledger.fault_delta().items():
                self.perf.count("fault_" + name, amount)

    def _run_sharded(self, scan, ranges, checkpoint, reassemble, deliver):
        """Drive ``scan(index_range=..., ...)`` over ``ranges`` in forked
        workers; returns the run's sorted provenance.

        Every shard result goes to ``deliver(item, result, mode)`` as it
        lands; ``reassemble(tail, chunks)`` folds a streamed shard's
        chunks back first (``None``: this engine's results stay
        resident whatever ``options.stream_results`` says).  The shard
        is the one *asynchronous* unit of work: shards ``checkpoint``
        already holds are restored up front
        (mode ``"restored"``, their ledger delta re-applied) instead of
        run, and each newly completed one is committed before it is
        delivered — but only items covering a *full* original range (a
        split half or narrowed rescue is not independently restorable;
        its origin reruns whole on resume, reproducing the identical
        escalation path from the same fault draws).  After each commit
        the crash plane gets its shot at the ``shard`` boundary.
        """
        scanner = self.scanner
        options = self.options

        def run_range(index_range, on_progress, chunk_sink=None):
            kwargs = {"index_range": index_range}
            if on_progress is not None:
                kwargs["on_progress"] = on_progress
            if chunk_sink is not None:
                kwargs["chunk_sink"] = chunk_sink
                kwargs["chunk_rows"] = options.chunk_rows
            return scan(**kwargs)

        live_ranges, live_origins, provenance = [], [], []
        for origin, (start, stop) in enumerate(ranges):
            record = checkpoint.restore(("shard", origin, start, stop))
            if record is None:
                live_ranges.append((start, stop))
                live_origins.append(origin)
                continue
            # Replaying the shard's delta (instead of re-scanning) keeps
            # a resumed run's counters — and its trace — identical to an
            # uninterrupted one.
            payload = record["payload"]
            apply_delta(scanner.network, self.perf, payload, origin)
            provenance.extend(payload["provenance"])
            deliver((start, stop, origin, 0), payload["result"], "restored")

        def on_item_done(item, payload, entry):
            start, stop, origin, __attempt = item
            if (start, stop) == tuple(ranges[origin]):
                checkpoint.commit(("shard", origin, start, stop), payload)
            checkpoint.maybe_crash("shard", (origin,))
            deliver(item, payload["result"], entry["mode"])

        supervisor = ShardSupervisor(
            scanner.network, run_range, perf=self.perf,
            heartbeat_timeout=self.heartbeat_timeout,
            supports_progress=scanner.supports_progress,
            perf_host=scanner,
            reassemble=reassemble if options.stream_results else None)
        provenance += supervisor.run(live_ranges, live_origins,
                                     on_item_done)
        # Completion order varies run to run; sorted provenance keeps
        # same-seed runs bit-identical.
        provenance.sort(key=lambda e: (e["start"], e["stop"],
                                       e["attempt"]))
        return provenance

    def __repr__(self):
        return "%s(shards=%d, fork=%s)" % (
            type(self).__name__, self.options.shards, self.can_fork)


class ScanEngine(ShardedEngine):
    """Runs Internet-wide scans, optionally sharded across processes."""

    def __init__(self, scanner, options=None, perf=None,
                 heartbeat_timeout=None):
        super().__init__(scanner, options, perf, heartbeat_timeout)
        if perf is not None and scanner.perf is None:
            scanner.perf = perf

    def scan(self, target_space, checkpoint=None):
        """Scan the whole target space; returns one merged ScanResult.

        ``checkpoint``, when given, is a :class:`repro.checkpoint`
        scope: completed shards are committed as they merge and a
        resumed scan restores them instead of re-scanning.  (A
        single-process scan has no sub-scan units; its enclosing
        campaign week is the unit of durability.)
        """
        ranges = target_space.shard_ranges(self.options.shards)
        with self._measured("scan_wall", "scans_run"), \
                span(self.network, "scan", shards=len(ranges)):
            if len(ranges) <= 1 or not self.can_fork:
                result = self.scanner.scan(target_space)
            else:
                result = self._scan_forked(target_space, ranges,
                                           checkpoint or NULL_SCOPE)
        return result

    def _scan_forked(self, target_space, ranges, checkpoint):
        scanner = self.scanner
        # Build the LFSR walk, the sweep columns, each shard range's
        # walk order and this scan's pacing plan *before* forking so
        # every worker inherits them copy-on-write instead of paying an
        # O(targets) build per process (and so the plan's counters are
        # tallied once, here, not once per shard or never).
        scanner.prewarm(target_space, ranges)
        shards = []
        provenance = self._run_sharded(
            lambda **kwargs: scanner.scan(target_space, **kwargs),
            ranges, checkpoint, _absorb_result_chunks,
            lambda item, result, mode: shards.append((item[0], result)))
        shards.sort(key=lambda entry: entry[0])
        merged = merge_scan_results(scanner.network.clock.now,
                                    [result for __, result in shards])
        merged.provenance = provenance
        return merged
