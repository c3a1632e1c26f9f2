"""Tests for the DNS cache and the cache-activity model."""

from hypothesis import example, given, settings, strategies as st

from repro.checkpoint.state import capture_dns_caches, restore_dns_caches
from repro.dnswire.constants import RCODE_NOERROR
from repro.resolvers import ResolverNode
from repro.resolvers.cache import CacheActivityModel, DnsCache
from repro.resolvers.resolver import HonestResult
from tests.conftest import MiniWorld
from tests.oracles import NeverPrunedCache


def answer(address="1.2.3.4", ttl=100):
    return HonestResult(RCODE_NOERROR, [address], ttl=ttl)


def put(cache, name, result, now):
    cache.put(name, 1, result, now, result.ttl)


class TestDnsCache:
    def test_hit_before_expiry(self):
        cache, stored = DnsCache(), answer(ttl=100)
        put(cache, "x.example", stored, now=0)
        assert cache.lookup("x.example", 1, now=50) == (stored, 50)
        result, ttl = cache.lookup("x.example", 1, now=60)
        assert (result.ttl, result.addresses, ttl) == (100, ["1.2.3.4"], 40)

    def test_miss_after_expiry(self):
        cache = DnsCache()
        put(cache, "x.example", answer(ttl=100), now=0)
        assert cache.lookup("x.example", 1, now=150) is None
        assert len(cache) == 0
        assert cache.lookup("x.example", 1, now=150) is None

    def test_case_insensitive_keys(self):
        cache = DnsCache()
        put(cache, "X.Example", answer(), now=0)
        assert cache.lookup("x.example", 1, now=1) is not None

    def test_explicit_ttl_overrides(self):
        cache = DnsCache()
        cache.put("x.example", 1, answer(ttl=100), 0, 10)
        assert cache.lookup("x.example", 1, now=50) is None

    def test_eviction_at_capacity(self):
        cache = DnsCache(max_entries=3)
        for i in range(4):
            put(cache, "d%d.example" % i, answer(ttl=100 + i), now=0)
        assert len(cache) == 3
        # The entry closest to expiry (d0, ttl=100) was evicted.
        assert cache.lookup("d0.example", 1, now=1) is None

    def test_refresh_at_capacity_does_not_evict(self):
        # Re-putting an existing key when the cache is full must not
        # evict a victim (regression: the eviction check ran before the
        # existing-key check, shrinking the cache on every refresh).
        cache = DnsCache(max_entries=3)
        for i in range(3):
            put(cache, "d%d.example" % i, answer(ttl=100 + i), now=0)
        put(cache, "d0.example", answer(ttl=500), now=0)
        assert len(cache) == 3
        for i in range(3):
            assert cache.lookup("d%d.example" % i, 1, now=1) is not None

    def test_refresh_is_case_insensitive_at_capacity(self):
        cache = DnsCache(max_entries=2)
        put(cache, "a.example", answer(ttl=100), now=0)
        put(cache, "b.example", answer(ttl=200), now=0)
        put(cache, "A.Example", answer(ttl=300), now=0)
        assert len(cache) == 2
        assert cache.lookup("b.example", 1, now=1) is not None

    @given(st.integers(min_value=1, max_value=1000),
           st.integers(min_value=0, max_value=2000))
    def test_ttl_decay_property(self, ttl, elapsed):
        cache, stored = DnsCache(), answer(ttl=ttl)
        put(cache, "x.example", stored, now=0)
        entry = cache.lookup("x.example", 1, now=elapsed)
        if elapsed >= ttl:
            assert entry is None
        else:
            assert entry == (stored, ttl - elapsed)


# One step of a cache's life: store one of a few names with one of two
# TTLs (so refreshes and expiry ties happen), store a run of names at
# once (so the cache doubles and prunes itself), read one back, let time
# pass, or prune.
CACHE_STEPS = st.one_of(
    st.tuples(st.just("put"), st.integers(0, 2), st.sampled_from([5, 8])),
    st.tuples(st.just("burst"), st.integers(0, 6), st.integers(1, 6),
              st.sampled_from([5, 8])),
    st.tuples(st.just("lookup"), st.integers(0, 11)),
    st.tuples(st.just("advance"),
              st.one_of(st.integers(0, 10),
                        st.floats(0, 10, allow_nan=False))),
    st.just(("prune",)))


def live_entries(cache, now):
    return {key: entry for key, entry in cache._entries.items()
            if entry[1] + entry[2] > now}


class TestPruning:
    """``DnsCache`` drops expired entries — as ``put`` grows it, and in
    ``live`` — from a cache that keeps being used; nothing it can be
    asked afterwards may differ from a cache that never drops one
    (:class:`tests.oracles.NeverPrunedCache`), capacity evictions
    included."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8), st.lists(CACHE_STEPS, max_size=60))
    # d1 expires and is pruned, then stored again after d2 with the same
    # expiry: the twin still holds d1 in its old place, so an eviction
    # that broke ties by store order would pick d1 there and d2 here.
    @example(2, [("put", 1, 5), ("advance", 6), ("prune",), ("put", 2, 5),
                 ("put", 1, 5), ("put", 0, 5), ("lookup", 1)])
    # Two runs of names a TTL apart: the second one's puts prune the
    # first, and a capacity of 8 evicts among what is left.
    @example(8, [("burst", 0, 6, 5), ("advance", 5), ("burst", 3, 6, 8),
                 ("lookup", 0), ("lookup", 8), ("burst", 6, 6, 5),
                 ("lookup", 3)])
    def test_pruned_cache_matches_its_unpruned_twin(self, capacity,
                                                   steps):
        twin = NeverPrunedCache(max_entries=capacity)
        pruned = DnsCache(max_entries=capacity)
        now = 0
        for step in steps:
            if step[0] in ("put", "burst"):
                names = (step[1],) if step[0] == "put" \
                    else range(step[1], step[1] + step[2])
                for index in names:
                    name = "d%d.example" % index
                    stored = answer(ttl=step[-1])
                    twin.put(name, 1, stored, now, step[-1])
                    put(pruned, name, stored, now)
            elif step[0] == "lookup":
                name = "d%d.example" % step[1]
                assert pruned.lookup(name, 1, now) \
                    == twin.lookup(name, 1, now)
            elif step[0] == "advance":
                now += step[1]
            else:
                assert pruned.live(now) == twin.live(now)
            assert live_entries(pruned, now) == twin.live(now)

    def test_put_forgets_expired_probe_names(self):
        # One unique name a week, each expired by the next: the cache
        # holds the newest and at most one expired entry, where a cache
        # that never prunes holds every week's.
        cache, twin = DnsCache(), NeverPrunedCache(max_entries=10000)
        for week in range(50):
            name = "r%x.scan.example" % week
            stored = answer(ttl=300)
            put(cache, name, stored, now=week * 604800)
            twin.put(name, 1, stored, week * 604800, 300)
        assert len(cache) <= 2
        assert len(twin.entries) == 50
        assert live_entries(cache, 49 * 604800) == twin.live(49 * 604800)

    def test_put_prunes_only_what_has_expired(self, monkeypatch):
        # The first put into an empty cache keeps its entry: no prune.
        # Weekly probe names expire within the week, so a prune runs
        # every other week, each dropping what expired since the last.
        dropped = []
        prune = DnsCache._prune

        def counted(cache, now):
            before = len(cache)
            prune(cache, now)
            dropped.append(before - len(cache))

        monkeypatch.setattr(DnsCache, "_prune", counted)
        cache = DnsCache()
        put(cache, "first.example", answer(ttl=300), now=0)
        assert dropped == []
        for week in range(1, 50):
            put(cache, "r%x.scan.example" % week, answer(ttl=300),
                now=week * 604800)
        assert len(dropped) == 25
        assert all(count >= 1 for count in dropped)
        # Nothing expired yet: a cache that doubled still keeps it all.
        fresh = DnsCache()
        for index in range(8):
            put(fresh, "d%d.example" % index, answer(ttl=300), now=index)
        assert len(dropped) == 25 and len(fresh) == 8

    def test_live_drops_expired_entries_in_place(self):
        cache = DnsCache()
        put(cache, "old.example", answer(ttl=10), now=0)
        put(cache, "new.example", answer(ttl=100), now=0)
        assert list(cache.live(10)) == [("new.example", 1)]
        assert len(cache) == 1

    def test_eviction_does_not_depend_on_store_order(self):
        # A refresh keeps its key's place in the dict; the same entries
        # stored in another order must still lose the same victim.
        first, second = DnsCache(max_entries=2), DnsCache(max_entries=2)
        stored = answer(ttl=10)
        for cache, names in ((first, "ab"), (second, "ba")):
            for name in names:
                put(cache, name + ".example", stored, now=0)
            put(cache, "c.example", stored, now=0)
        assert first.live(0) == second.live(0)


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
    put(node.cache, "x.example", answer(), now=0)
    captured = capture_dns_caches(crashed.network)
    captured[("node", node.ip)].update(hits=3, misses=4)
    resumed, fresh = world()
    restore_dns_caches(resumed.network, captured)
    assert fresh.cache.lookup("x.example", 1, now=10) \
        == (node.cache.lookup("x.example", 1, now=10)[0], 90)
    assert not hasattr(fresh.cache, "hits")
