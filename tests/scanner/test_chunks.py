"""Streamed-chunk lifecycle of :class:`ScanResult`.

The streaming scan detaches columns as raw-bytes chunks
(:meth:`take_chunk`), ships them to the parent, and folds them back
(:meth:`absorb_chunk`) before the normal shard :meth:`merge`.  These
tests pin the invariants that path leans on: zero-row chunks are
harmless, reassembly order is invisible (canonical pickling), and the
empty-``suppressed`` byte-compatibility of result pickles survives any
combination of chunking and merging.
"""

import pickle

from repro.scanner.ipv4scan import ScanResult


def _result(timestamp, rows, probes=0, suppressed=()):
    result = ScanResult(timestamp)
    result.probes_sent = probes
    for value, rcode, divergent in rows:
        result.record_value(value, rcode, divergent)
    for window, cause, count in suppressed:
        result.record_suppressed(window, cause, count)
    return result


ROWS = [(0x0A000001, 0, False), (0x0A000002, 5, True),
        (0xC0A80101, 2, False), (0x08080808, 0, False)]


class TestChunkRoundtrip:
    def test_take_chunk_leaves_scalars_in_place(self):
        result = _result(9.0, ROWS, probes=10)
        chunk = result.take_chunk()
        assert result.row_count() == 0
        assert result.probes_sent == 10
        restored = ScanResult(9.0)
        restored.probes_sent = 10
        restored.absorb_chunk(chunk)
        assert pickle.dumps(restored) == pickle.dumps(
            _result(9.0, ROWS, probes=10))

    def test_zero_row_chunk_is_a_noop(self):
        empty_chunk = ScanResult(3.0).take_chunk()
        assert empty_chunk == (b"", b"", b"")
        result = _result(3.0, ROWS)
        result.absorb_chunk(empty_chunk)
        assert pickle.dumps(result) == pickle.dumps(_result(3.0, ROWS))

    def test_reassembly_order_is_invisible(self):
        # Chunks absorbed out of emission order still pickle to the
        # canonical bytes — __getstate__ row-sorts.
        first = _result(1.0, ROWS[:2]).take_chunk()
        second = _result(1.0, ROWS[2:]).take_chunk()
        forward = ScanResult(1.0)
        forward.absorb_chunk(first)
        forward.absorb_chunk(second)
        backward = ScanResult(1.0)
        backward.absorb_chunk(second)
        backward.absorb_chunk(first)
        assert pickle.dumps(forward) == pickle.dumps(backward)


class TestMergeWithChunks:
    def test_empty_suppressed_omitted_after_chunked_merge(self):
        # The empty-dict byte-compat contract: results that saw no
        # suppression pickle without a "suppressed" key, even after
        # their columns travelled as chunks (including zero-row ones)
        # and the shards were merged.
        left = ScanResult(7.0)
        left.absorb_chunk(_result(7.0, ROWS[:2]).take_chunk())
        left.absorb_chunk(ScanResult(7.0).take_chunk())     # zero rows
        right = ScanResult(7.0)
        right.absorb_chunk(_result(7.0, ROWS[2:]).take_chunk())
        merged = left.merge(right)
        assert merged.suppressed == {}
        state = merged.__getstate__()
        assert "suppressed" not in state
        assert pickle.dumps(merged) == pickle.dumps(_result(7.0, ROWS))

    def test_suppression_counts_survive_chunked_merge(self):
        # Suppression tallies live outside the columns, so chunking
        # must not touch them and merge must still add them up.
        left = _result(2.0, ROWS[:1],
                       suppressed=[(0x0A000000, "rate-defense", 3)])
        left.absorb_chunk(left.take_chunk())        # round-trip columns
        right = _result(2.0, ROWS[1:],
                        suppressed=[(0x0A000000, "rate-defense", 2),
                                    (0xC0A80000, "blackhole", 1)])
        merged = left.merge(right)
        assert merged.suppressed == {(0x0A000000, "rate-defense"): 5,
                                     (0xC0A80000, "blackhole"): 1}
        direct = _result(2.0, ROWS,
                         suppressed=[(0x0A000000, "rate-defense", 5),
                                     (0xC0A80000, "blackhole", 1)])
        assert pickle.dumps(merged) == pickle.dumps(direct)
        # And the degraded-shards view synthesizes both causes.
        causes = {entry["cause"] for entry in merged.degraded_shards}
        assert causes == {"rate-defense", "blackhole"}

    def test_merge_of_zero_row_streamed_shard(self):
        # A shard whose every row left via chunks merges as zero rows
        # without disturbing counters or byte-compat of the other side.
        full = _result(4.0, ROWS, probes=8)
        drained = _result(4.0, ROWS[:2], probes=5)
        drained.take_chunk()                        # chunk never returns
        assert drained.row_count() == 0
        merged = full.merge(drained)
        assert merged.probes_sent == 13
        assert merged.row_count() == len(ROWS)
        assert "suppressed" not in merged.__getstate__()
