"""ResolverStore: columnar records, generation swaps, bounded residency."""

import json
import os

import pytest

from repro.netsim.address import ip_to_int
from repro.observatory import ObservatoryError, ResolverStore
from repro.scanner import ScanResult

FLAG_CARRIED = ScanResult.FLAG_CARRIED


def make_week(targets):
    """A week's ScanResult: one NOERROR row per target."""
    result = ScanResult(0.0)
    for value in targets:
        result.record_value(value, 0, False)
    result.probes_sent = len(targets)
    return result


def responders(result):
    return sorted(value for value, __, __ in result.iter_rows())


def populate(store):
    a, b, c = (ip_to_int(ip) for ip in
               ("10.0.0.1", "10.0.0.2", "192.168.7.9"))
    for week, alive in enumerate(([a, b, c], [a, c], [a])):
        for value in alive:
            store.observe(value, week, 0, 0)
        store.put_week(week, make_week(alive))
    store.observe(b, 1, 5, FLAG_CARRIED)     # late REFUSED sighting
    store.locate(a, "US", "ARIN", 64500)
    store.locate(c, "DE", "RIPE", 64501)
    store.set_software(a, "bind", "9.8.1")
    store.set_device(c, "router", "linux", "tp-link")
    store.add_verdict(c, "MALICIOUS", "phishing")
    store.add_verdict(c, "ADS", None)
    return a, b, c


class TestRecords:
    def test_point_lookup_round_trips_every_column(self):
        store = ResolverStore()
        a, b, c = populate(store)
        record = store.record("10.0.0.1")
        assert record["first_week"] == 0 and record["last_week"] == 2
        assert record["weeks_seen"] == [0, 1, 2]
        assert (record["country"], record["rir"]) == ("US", "ARIN")
        assert record["asn"] == 64500
        assert record["software"] == {"outcome": "bind",
                                      "version": "9.8.1"}
        assert record["verdict"] == "CLEAN"
        late = store.record(b)
        assert late["last_rcode"] == 5
        assert late["flags"] & FLAG_CARRIED
        flagged = store.record("192.168.7.9")
        assert flagged["verdict"] == "MANIPULATING"
        assert flagged["labels"] == ["ADS/", "MALICIOUS/phishing"]
        assert flagged["device"]["vendor"] == "tp-link"

    def test_unknown_resolver_is_none(self):
        store = ResolverStore()
        populate(store)
        assert store.record("1.2.3.4") is None

    def test_rows_where_filters_compose(self):
        store = ResolverStore()
        populate(store)
        assert store.rows_where(country="US") == ["10.0.0.1"]
        assert store.rows_where(rir="RIPE") == ["192.168.7.9"]
        assert store.rows_where(asn=64500) == ["10.0.0.1"]
        assert store.rows_where(verdict_label="MALICIOUS") \
            == ["192.168.7.9"]
        assert store.rows_where(country="US", asn=64501) == []

    def test_verdict_fold_order_never_changes_the_digest(self):
        one, two = ResolverStore(), ResolverStore()
        value = ip_to_int("10.0.0.1")
        for store, order in ((one, ("A", "B", "C")),
                             (two, ("C", "A", "B"))):
            store.observe(value, 0, 0, 0)
            store.put_week(0, make_week([value]))
            for label in order:
                store.add_verdict(value, label, "x")
        assert one.digest() == two.digest()


class TestPersistence:
    def test_save_open_round_trip(self, tmp_path):
        store = ResolverStore(str(tmp_path / "store"))
        populate(store)
        generation = store.save()
        assert generation == 1
        reopened = ResolverStore.open(str(tmp_path / "store"))
        assert reopened.digest() == store.digest()
        assert reopened.record("192.168.7.9") \
            == store.record("192.168.7.9")
        assert reopened.weeks() == [0, 1, 2]
        assert [w for w in reopened.weeks()
                if responders(reopened.week(w))
                == responders(store.week(w))] == [0, 1, 2]

    def test_open_missing_store_is_a_clear_error(self, tmp_path):
        with pytest.raises(ObservatoryError):
            ResolverStore.open(str(tmp_path / "nothing"))

    def test_format_1_store_is_refused_with_the_fix(self, tmp_path):
        directory = str(tmp_path / "store")
        store = ResolverStore(directory)
        populate(store)
        store.save()
        manifest_path = os.path.join(directory, "MANIFEST.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["format"] = 1
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        for opener in (ResolverStore.open, ResolverStore.open_or_create):
            with pytest.raises(ObservatoryError) as exc:
                opener(directory)
            message = str(exc.value)
            assert "format 1" in message and "re-ingest" in message
            assert "\n" not in message

    def test_generation_swap_prunes_old_and_links_unchanged(self,
                                                            tmp_path):
        store = ResolverStore(str(tmp_path / "store"))
        populate(store)
        store.save()
        # Fold one new week; old week files are carried into gen-2.
        value = ip_to_int("10.9.9.9")
        store.observe(value, 3, 0, 0)
        store.put_week(3, make_week([value]))
        assert store.save() == 2
        names = sorted(os.listdir(tmp_path / "store"))
        assert names == ["MANIFEST.json", "gen-00000002"]
        reopened = ResolverStore.open(str(tmp_path / "store"))
        assert reopened.weeks() == [0, 1, 2, 3]
        assert reopened.digest() == store.digest()

    def test_bookkeeping_never_taints_the_content_digest(self,
                                                         tmp_path):
        one = ResolverStore(str(tmp_path / "one"))
        two = ResolverStore(str(tmp_path / "two"))
        populate(one)
        populate(two)
        two.cursors["feed-cafecafe"] = 17
        two.ingested["campaign/week/0"] = "deadbeef"
        assert one.digest() == two.digest()


class TestResidency:
    def test_week_cache_bounds_resident_weeks(self, tmp_path):
        store = ResolverStore(str(tmp_path / "store"), week_cache=2)
        values = [ip_to_int("10.0.0.%d" % octet)
                  for octet in range(1, 6)]
        for week, value in enumerate(values):
            store.observe(value, week, 0, 0)
            store.put_week(week, make_week([value]))
        # All dirty: nothing evictable yet.
        assert sorted(store._weeks) == [0, 1, 2, 3, 4]
        store.save()
        assert len(store._weeks) <= 2
        # Evicted weeks lazy-load from the generation on demand.
        assert responders(store.week(0)) == [values[0]]
        assert len(store._weeks) <= 2

    def test_week_cache_must_be_positive(self):
        with pytest.raises(ValueError):
            ResolverStore(week_cache=0)
