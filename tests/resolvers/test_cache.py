"""Tests for the DNS cache and the cache-activity model."""

from hypothesis import given, strategies as st

from repro.checkpoint.state import capture_dns_caches, restore_dns_caches
from repro.dnswire.records import ResourceRecord
from repro.resolvers import ResolverNode
from repro.resolvers.cache import CacheActivityModel, DnsCache
from tests.conftest import MiniWorld


def a_records(name="x.example", address="1.2.3.4", ttl=100):
    return [ResourceRecord.a(name, address, ttl=ttl)]


class TestDnsCache:
    def test_hit_before_expiry(self):
        cache = DnsCache()
        cache.put("x.example", 1, a_records(ttl=100), now=0)
        records = cache.get("x.example", 1, now=50)
        assert records is not None
        assert records[0].ttl == 50
        stored, ttl = cache.lookup("x.example", 1, now=60)
        assert (stored[0].ttl, stored[0].data.address, ttl) \
            == (100, "1.2.3.4", 40)

    def test_miss_after_expiry(self):
        cache = DnsCache()
        cache.put("x.example", 1, a_records(ttl=100), now=0)
        assert cache.lookup("x.example", 1, now=150) is None
        assert len(cache) == 0
        assert cache.get("x.example", 1, now=150) is None

    def test_case_insensitive_keys(self):
        cache = DnsCache()
        cache.put("X.Example", 1, a_records(), now=0)
        assert cache.get("x.example", 1, now=1) is not None

    def test_explicit_ttl_overrides(self):
        cache = DnsCache()
        cache.put("x.example", 1, a_records(ttl=100), now=0, ttl=10)
        assert cache.get("x.example", 1, now=50) is None

    def test_eviction_at_capacity(self):
        cache = DnsCache(max_entries=3)
        for i in range(4):
            cache.put("d%d.example" % i, 1, a_records(ttl=100 + i), now=0)
        assert len(cache) == 3
        # The entry closest to expiry (d0, ttl=100) was evicted.
        assert cache.get("d0.example", 1, now=1) is None

    def test_refresh_at_capacity_does_not_evict(self):
        # Re-putting an existing key when the cache is full must not
        # evict a victim (regression: the eviction check ran before the
        # existing-key check, shrinking the cache on every refresh).
        cache = DnsCache(max_entries=3)
        for i in range(3):
            cache.put("d%d.example" % i, 1, a_records(ttl=100 + i), now=0)
        cache.put("d0.example", 1, a_records(ttl=500), now=0)
        assert len(cache) == 3
        for i in range(3):
            assert cache.get("d%d.example" % i, 1, now=1) is not None

    def test_refresh_is_case_insensitive_at_capacity(self):
        cache = DnsCache(max_entries=2)
        cache.put("a.example", 1, a_records(ttl=100), now=0)
        cache.put("b.example", 1, a_records(ttl=200), now=0)
        cache.put("A.Example", 1, a_records(ttl=300), now=0)
        assert len(cache) == 2
        assert cache.get("b.example", 1, now=1) is not None

    def test_flush(self):
        cache = DnsCache()
        cache.put("x.example", 1, a_records(), now=0)
        cache.flush()
        assert len(cache) == 0

    @given(st.integers(min_value=1, max_value=1000),
           st.integers(min_value=0, max_value=2000))
    def test_ttl_decay_property(self, ttl, elapsed):
        cache = DnsCache()
        cache.put("x.example", 1, a_records(ttl=ttl), now=0)
        records = cache.get("x.example", 1, now=elapsed)
        if elapsed >= ttl:
            assert records is None
        else:
            assert records[0].ttl == ttl - elapsed


class TestActivityModel:
    def test_normal_cycle(self):
        model = CacheActivityModel(
            CacheActivityModel.STYLE_NORMAL,
            tld_patterns={"com": (100.0, 0.0)}, ttl=1000)
        # Inside the cached window the TTL decays...
        assert model.observable_ttl("com", 0) == 1000
        assert model.observable_ttl("com", 400) == 600
        # ...then the entry is gone during the gap...
        assert model.observable_ttl("com", 1050) is None
        # ...and reappears at full TTL after a client lookup.
        assert model.observable_ttl("com", 1150) == 950

    def test_unpatterned_tld_never_cached(self):
        model = CacheActivityModel(
            CacheActivityModel.STYLE_NORMAL,
            tld_patterns={"com": (100.0, 0.0)}, ttl=1000)
        assert model.observable_ttl("de", 0) is None

    def test_idle_never_readded(self):
        model = CacheActivityModel(
            CacheActivityModel.STYLE_IDLE,
            tld_patterns={"com": (0.0, 0.0)}, ttl=1000)
        assert model.observable_ttl("com", 100) == 900
        assert model.observable_ttl("com", 2000) is None
        assert model.observable_ttl("com", 9999) is None

    def test_static_ttl(self):
        model = CacheActivityModel(CacheActivityModel.STYLE_STATIC_TTL,
                                   ttl=777)
        assert model.observable_ttl("com", 0) == 777
        assert model.observable_ttl("com", 99999) == 777

    def test_zero_ttl(self):
        model = CacheActivityModel(CacheActivityModel.STYLE_ZERO_TTL)
        assert model.observable_ttl("com", 123) == 0

    def test_empty_style(self):
        model = CacheActivityModel(CacheActivityModel.STYLE_EMPTY)
        assert model.observable_ttl("com", 0) == "empty"

    def test_single_then_silent(self):
        model = CacheActivityModel(CacheActivityModel.STYLE_SINGLE,
                                   ttl=500)
        assert model.observable_ttl("com", 0) == 500
        assert model.observable_ttl("com", 100) == "silent"
        assert model.observable_ttl("de", 100) == 500

    def test_unreachable(self):
        model = CacheActivityModel(CacheActivityModel.STYLE_UNREACHABLE)
        assert model.observable_ttl("com", 0) is None

    def test_resetting_stays_high(self):
        model = CacheActivityModel(
            CacheActivityModel.STYLE_RESETTING,
            tld_patterns={"com": (10.0, 0.0)}, ttl=1000)
        for t in range(0, 5000, 137):
            value = model.observable_ttl("com", t)
            assert value >= 750

    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_normal_ttl_bounds_property(self, t):
        model = CacheActivityModel(
            CacheActivityModel.STYLE_NORMAL,
            tld_patterns={"com": (500.0, 123.0)}, ttl=1000)
        value = model.observable_ttl("com", t)
        assert value is None or 0 <= value <= 1000


def test_restores_a_capture_that_carries_hit_counters():
    """Checkpoints written while ``DnsCache`` still counted hits and
    misses carry both counters; a resume restores the entries and
    ignores them."""
    def world():
        mini = MiniWorld()
        node = ResolverNode(mini.infra.address_at(42000),
                            resolution_service=mini.service)
        mini.network.register(node)
        return mini, node

    crashed, node = world()
    node.cache.put("x.example", 1, a_records(), now=0)
    captured = capture_dns_caches(crashed.network)
    captured[("node", node.ip)].update(hits=3, misses=4)
    resumed, fresh = world()
    restore_dns_caches(resumed.network, captured)
    assert fresh.cache.lookup("x.example", 1, now=10) \
        == (node.cache.lookup("x.example", 1, now=10)[0], 90)
    assert not hasattr(fresh.cache, "hits")
