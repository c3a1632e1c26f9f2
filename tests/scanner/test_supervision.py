"""Worker supervision: death recovery, narrow rescans, hung-worker kill."""

import os
import pickle
import tempfile
import time

import pytest

from repro.faults import FaultPlan, FaultProfile
from repro.inetmodel import PrefixAllocator
from repro.netsim import SimClock
from repro.perf import PerfRegistry
from repro.scanner import ScanEngine, ScanOptions, ScanTargetSpace
from repro.scanner.ipv4scan import ScanResult
from repro.scanner.options import CHUNK_ROWS


class FakeNetwork:
    def __init__(self):
        self.clock = SimClock()
        self.udp_queries_sent = 0
        self.udp_queries_lost = 0
        self.udp_responses_corrupted = 0
        self.faults = None
        self.fault_counters = {}
        self.tracer = None
        self.recorder = None

    def install_faults(self, plan):
        self.faults = plan
        return plan


class FakeScanner:
    """Deterministic scanner double: 'responds' on every third index."""

    supports_progress = False

    def __init__(self):
        self.network = FakeNetwork()
        self.perf = None
        self.scan_calls = []          # (start, stop) of every scan issued

    def prewarm(self, target_space):
        """Nothing to build before the fork."""

    def scan(self, target_space, index_range=None):
        start, stop = (index_range if index_range is not None
                       else (0, len(target_space)))
        self.scan_calls.append((start, stop))
        result = ScanResult(self.network.clock.now)
        for index in range(start, stop):
            result.probes_sent += 1
            self.network.udp_queries_sent += 1
            if index % 3 == 0:
                ip = target_space.ip_at(index)
                result.record(ip, index % 2, ip)
        return result


def fake_space():
    return ScanTargetSpace([PrefixAllocator().allocate(24)])


def install_kills(scanner, kills):
    scanner.network.install_faults(
        FaultPlan(FaultProfile(kill_shards=kills), seed=1))


class TestDeathRecovery:
    def test_single_death_retried_same_range(self):
        scanner = FakeScanner()
        install_kills(scanner, {1: 1})   # shard 1's first worker dies
        sequential = FakeScanner().scan(fake_space())
        perf = PerfRegistry()
        engine = ScanEngine(scanner, options=ScanOptions(shards=3), perf=perf)
        result = engine.scan(fake_space())
        assert result.responders == sequential.responders
        assert result.probes_sent == sequential.probes_sent
        assert perf.counter("worker_deaths") == 1
        assert perf.counter("shard_retries") == 1
        assert perf.counter("shard_splits") == 0
        assert perf.counter("shard_failures") == 0
        # The retry ran in a fresh worker, not in the parent process.
        assert scanner.scan_calls == []

    def test_second_death_splits_shard(self):
        scanner = FakeScanner()
        install_kills(scanner, {0: 2})
        sequential = FakeScanner().scan(fake_space())
        perf = PerfRegistry()
        engine = ScanEngine(scanner, options=ScanOptions(shards=2), perf=perf)
        result = engine.scan(fake_space())
        assert result.responders == sequential.responders
        assert result.probes_sent == sequential.probes_sent
        assert perf.counter("worker_deaths") == 2
        assert perf.counter("shard_retries") == 1
        assert perf.counter("shard_splits") == 1
        assert perf.counter("shard_failures") == 0
        halves = [e for e in result.provenance if e["status"] == "split"]
        assert len(halves) == 2
        assert all(e["shard"] == 0 for e in halves)

    def test_persistent_deaths_rescued_narrowly(self):
        """A shard whose workers always die falls back to an in-process
        scan of just its own index range — never the whole space."""
        scanner = FakeScanner()
        install_kills(scanner, {2: 99})
        space = fake_space()
        sequential = FakeScanner().scan(space)
        ranges = space.shard_ranges(3)
        perf = PerfRegistry()
        engine = ScanEngine(scanner, options=ScanOptions(shards=3), perf=perf)
        result = engine.scan(space)
        assert result.responders == sequential.responders
        assert result.probes_sent == sequential.probes_sent
        # Retry + two split halves all died: 4 deaths, one rescue origin.
        assert perf.counter("worker_deaths") == 4
        assert perf.counter("shard_failures") == 1
        # The parent only ever scanned inside the dead shard's range —
        # the narrow-rescan regression pin.
        start, stop = ranges[2]
        assert scanner.scan_calls
        for called_start, called_stop in scanner.scan_calls:
            assert start <= called_start < called_stop <= stop
        covered = sorted(scanner.scan_calls)
        assert covered[0][0] == start and covered[-1][1] == stop
        rescued = [e for e in result.provenance
                   if e["status"] == "rescued"]
        assert rescued and all(e["mode"] == "in-process" for e in rescued)

    def test_provenance_records_every_work_item(self):
        scanner = FakeScanner()
        install_kills(scanner, {0: 1})
        engine = ScanEngine(scanner, options=ScanOptions(shards=3))
        result = engine.scan(fake_space())
        assert len(result.provenance) == 3
        statuses = sorted(e["status"] for e in result.provenance)
        assert statuses == ["ok", "ok", "retried"]
        assert len(result.degraded_shards) == 1
        assert result.degraded_shards[0]["shard"] == 0

    def test_clean_run_provenance_all_ok(self):
        engine = ScanEngine(FakeScanner(), options=ScanOptions(shards=4))
        result = engine.scan(fake_space())
        assert len(result.provenance) == 4
        assert all(e["status"] == "ok" for e in result.provenance)
        assert result.degraded_shards == []

    def test_fault_counters_ride_back_from_workers(self):
        scanner = FakeScanner()
        scanner.network.install_faults(
            FaultPlan(FaultProfile(kill_shards={1: 1}), seed=1))

        class CountingScanner(FakeScanner):
            def scan(self, target_space, index_range=None):
                self.network.fault_counters["synthetic"] = \
                    self.network.fault_counters.get("synthetic", 0) + 1
                return FakeScanner.scan(self, target_space, index_range)

        counting = CountingScanner()
        counting.network = scanner.network
        perf = PerfRegistry()
        engine = ScanEngine(counting, options=ScanOptions(shards=3),
                            perf=perf)
        engine.scan(fake_space())
        # One per completed worker (the killed worker died pre-scan, its
        # retry counted once).
        assert scanner.network.fault_counters["synthetic"] == 3
        assert perf.counter("fault_synthetic") == 3


class RecordingScope:
    """Checkpoint-scope double: keeps what the shard unit commits."""

    def __init__(self):
        self.committed = {}

    def restore(self, key):
        return None

    def commit(self, key, payload, state=None):
        self.committed[key] = payload

    def maybe_crash(self, kind, key):
        pass


class TimedScanner(FakeScanner):
    """Times its scans into whatever registry it currently holds."""

    def scan(self, target_space, index_range=None):
        with self.perf.stage("fake_scan"):
            return FakeScanner.scan(self, target_space, index_range)


class TestRescuedShardCommit:
    def test_rescued_shard_commits_what_a_worker_shard_commits(self):
        # Four one-index shards; shard 2's worker dies on both attempts
        # and a one-index range cannot split, so it is rescued
        # in-process — as a full original range, hence committed.
        space = ScanTargetSpace([PrefixAllocator().allocate(30)])
        assert space.shard_ranges(4)[2] == (2, 3)
        scanner = TimedScanner()
        install_kills(scanner, {2: 99})
        perf = PerfRegistry()
        scope = RecordingScope()
        engine = ScanEngine(scanner, options=ScanOptions(shards=4),
                            perf=perf)
        result = engine.scan(space, checkpoint=scope)
        assert [e["status"] for e in result.provenance] == \
            ["ok", "ok", "rescued", "ok"]
        worker = scope.committed[("shard", 0, 0, 1)]
        rescued = scope.committed[("shard", 2, 2, 3)]
        assert sorted(rescued) == sorted(worker)
        assert rescued["wall_seconds"] > 0
        assert rescued["perf"].timers["fake_scan"][1] == 1
        assert rescued["net_counters"]["udp_queries_sent"] == 1
        # The parent's registry got the rescue's numbers exactly once,
        # and the scanner got its own registry back.
        assert perf.timers["fake_scan"][1] == 4
        assert perf.timers["shard_wall"][1] == 4
        assert scanner.perf is perf


class ChunkingScanner(FakeScanner):
    """Streams: flushes its resident rows to ``chunk_sink`` whenever
    they reach ``chunk_rows``.  With a ``death_marker`` path, the first
    worker to claim it ships what it holds as one more chunk ten
    indexes in, then dies — a death with chunks already on the pipe."""

    def __init__(self, death_marker=None):
        super().__init__()
        self.death_marker = death_marker

    def _claims_death(self):
        try:
            os.close(os.open(self.death_marker,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return False
        return True

    def scan(self, target_space, index_range=None, chunk_sink=None,
             chunk_rows=None):
        start, stop = (index_range if index_range is not None
                       else (0, len(target_space)))
        result = ScanResult(self.network.clock.now)
        for index in range(start, stop):
            result.probes_sent += 1
            self.network.udp_queries_sent += 1
            if index % 3 == 0:
                ip = target_space.ip_at(index)
                result.record(ip, index % 2, ip)
            if chunk_sink is None:
                continue
            if result.row_count() >= chunk_rows:
                chunk_sink(result.take_chunk())
            if self.death_marker is not None and index == start + 9 \
                    and self._claims_death():
                chunk_sink(result.take_chunk())
                os._exit(1)
        return result


def streamed_engine(scanner, perf=None, chunk_rows=CHUNK_ROWS):
    return ScanEngine(scanner, perf=perf, options=ScanOptions(
        shards=2, stream_results=True, chunk_rows=chunk_rows))


class TestStreamedChunks:
    @pytest.mark.parametrize("chunk_rows", [1, 257, CHUNK_ROWS])
    def test_dead_attempts_chunks_are_dropped(self, tmp_path, chunk_rows):
        sequential = FakeScanner().scan(fake_space())
        perf = PerfRegistry()
        scanner = ChunkingScanner(str(tmp_path / "died"))
        result = streamed_engine(scanner, perf, chunk_rows).scan(
            fake_space())
        assert perf.counter("worker_deaths") == 1
        assert perf.counter("shard_retries") == 1
        # Every row once: the dead attempt's chunks did not survive it.
        assert result.row_count() == sequential.row_count()
        assert sorted(result.iter_rows()) == sorted(sequential.iter_rows())
        assert result.probes_sent == sequential.probes_sent

    def test_streaming_touches_no_disk(self, monkeypatch):
        resident = ScanEngine(ChunkingScanner(),
                              options=ScanOptions(shards=2)).scan(
                                  fake_space())

        def no_disk(*args, **kwargs):
            raise AssertionError("a streamed scan went to disk")

        monkeypatch.setattr(tempfile, "mkdtemp", no_disk)
        monkeypatch.setattr(os, "fsync", no_disk)
        streamed = streamed_engine(ChunkingScanner(), chunk_rows=8).scan(
            fake_space())
        assert streamed.row_count() > 8
        assert pickle.dumps(streamed) == pickle.dumps(resident)


class SlowScanner(FakeScanner):
    """Heartbeats once, then hangs (in the worker only) until killed."""

    supports_progress = True

    def __init__(self, parent_pid):
        super().__init__()
        self.parent_pid = parent_pid

    def scan(self, target_space, index_range=None, on_progress=None):
        if os.getpid() != self.parent_pid and index_range == (0, 64):
            if on_progress is not None:
                on_progress()
            time.sleep(60)
        return FakeScanner.scan(self, target_space, index_range)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestHungWorkers:
    def test_hung_worker_killed_and_recovered(self):
        space = ScanTargetSpace([PrefixAllocator().allocate(25)])
        assert space.shard_ranges(2)[0] == (0, 64)
        sequential = FakeScanner().scan(space)
        perf = PerfRegistry()
        scanner = SlowScanner(os.getpid())
        engine = ScanEngine(scanner, options=ScanOptions(shards=2),
                            perf=perf, heartbeat_timeout=0.5)
        started = time.monotonic()
        result = engine.scan(space)
        assert time.monotonic() - started < 30
        assert perf.counter("workers_hung") >= 1
        assert perf.counter("worker_deaths") >= 1
        assert result.responders == sequential.responders
        assert result.probes_sent == sequential.probes_sent

    def test_heartbeats_observed(self):
        perf = PerfRegistry()
        scanner = SlowScanner(os.getpid())
        engine = ScanEngine(scanner, options=ScanOptions(shards=2),
                            perf=perf, heartbeat_timeout=0.5)
        engine.scan(ScanTargetSpace([PrefixAllocator().allocate(25)]))
        assert perf.counter("heartbeats_seen") >= 1
