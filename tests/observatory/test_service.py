"""HTTP/JSON API: every route answers what the query plane answers."""

import json
import urllib.error
import urllib.request

import pytest

from repro.observatory import (
    Observatory,
    ObservatoryServer,
    ResolverStore,
    ingest_checkpoint,
)
from repro.perf import PerfRegistry

from tests.observatory.conftest import FakeGeo


@pytest.fixture(scope="module")
def served(campaign_checkpoint, tmp_path_factory):
    directory, __, campaign = campaign_checkpoint
    store = ResolverStore(
        str(tmp_path_factory.mktemp("observatory-http") / "store"))
    ingest_checkpoint(store, str(directory), geo=FakeGeo())
    observatory = Observatory(store, perf=PerfRegistry())
    server = ObservatoryServer(observatory, port=0).start()
    yield server, observatory, campaign
    server.stop()


def get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as resp:
        return json.loads(resp.read())


class TestRoutes:
    def test_healthz(self, served):
        server, observatory, __ = served
        body = get(server, "/healthz")
        assert body["ok"] is True
        assert body["generation"] == observatory.store.generation

    def test_stats_carries_query_counters(self, served):
        server, observatory, __ = served
        body = get(server, "/stats")
        assert body["resolvers"] == len(observatory.store)
        assert body["weeks"] == 3
        assert body["queries_served"] >= 0

    def test_resolver_matches_direct_lookup(self, served):
        server, observatory, campaign = served
        ip = sorted(campaign.snapshots[0].result.responders)[0]
        assert get(server, "/resolver/" + ip) == observatory.lookup(ip)

    def test_unknown_resolver_is_404(self, served):
        server, __, __ = served
        with pytest.raises(urllib.error.HTTPError) as error:
            get(server, "/resolver/203.0.113.254")
        assert error.value.code == 404

    def test_rankings_match_query_plane(self, served):
        server, observatory, __ = served
        body = get(server, "/rankings/countries?top=3")
        rows, share = observatory.country_rankings(top=3)
        assert body == json.loads(json.dumps(
            {"rows": rows, "top_share": share}))
        rirs = get(server, "/rankings/rirs")
        assert rirs["rows"] == json.loads(
            json.dumps(observatory.rir_rankings()))

    def test_survival_matches_query_plane(self, served):
        server, observatory, __ = served
        body = get(server, "/survival")
        assert body["curve"] == [[week, pct] for week, pct
                                 in observatory.survival()]

    def test_timeline_route(self, served):
        server, __, campaign = served
        ip = sorted(campaign.snapshots[0].result.responders)[0]
        base = ip.rsplit(".", 1)[0] + ".0"
        body = get(server, "/timeline/%s/24" % base)
        assert body["prefix"] == "%s/24" % base
        assert [row["week"] for row in body["rows"]] == [0, 1, 2]

    def test_bad_prefix_is_400(self, served):
        server, __, __ = served
        with pytest.raises(urllib.error.HTTPError) as error:
            get(server, "/timeline/nonsense/24")
        assert error.value.code == 400

    def test_unknown_route_is_404(self, served):
        server, __, __ = served
        with pytest.raises(urllib.error.HTTPError) as error:
            get(server, "/no/such/thing")
        assert error.value.code == 404

    def test_queries_served_counter_moves(self, served):
        server, observatory, campaign = served
        ip = sorted(campaign.snapshots[0].result.responders)[0]
        before = observatory.perf.counter("observatory_queries_served")
        get(server, "/resolver/" + ip)
        assert observatory.perf.counter("observatory_queries_served") \
            == before + 1

    @pytest.mark.parametrize("top", ["-3", "0", "ten"])
    def test_top_must_be_a_positive_integer(self, served, top):
        server, __, __ = served
        with pytest.raises(urllib.error.HTTPError) as error:
            get(server, "/rankings/countries?top=" + top)
        assert error.value.code == 400
        assert "error" in json.loads(error.value.read())
