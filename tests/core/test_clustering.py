"""Tests for agglomerative hierarchical clustering."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clustering import (
    Cluster,
    cluster_deduplicated,
    hierarchical_cluster,
)
from tests.oracles import pair_scan_cluster


def scalar_distance(a, b):
    return abs(a - b)


class TestBasics:
    def test_empty(self):
        clusters, dendrogram = hierarchical_cluster([], scalar_distance,
                                                    1.0)
        assert clusters == []
        assert len(dendrogram) == 0

    def test_singleton(self):
        clusters, __ = hierarchical_cluster([5], scalar_distance, 1.0)
        assert len(clusters) == 1
        assert clusters[0].items == [5]

    def test_two_groups(self):
        items = [0.0, 0.1, 0.2, 10.0, 10.1]
        clusters, __ = hierarchical_cluster(items, scalar_distance, 1.0)
        assert len(clusters) == 2
        sizes = sorted(len(c) for c in clusters)
        assert sizes == [2, 3]

    def test_threshold_zero_keeps_singletons(self):
        clusters, __ = hierarchical_cluster([1, 2, 3], scalar_distance,
                                            -1.0)
        assert len(clusters) == 3

    def test_huge_threshold_single_cluster(self):
        clusters, __ = hierarchical_cluster([1, 5, 9], scalar_distance,
                                            100.0)
        assert len(clusters) == 1
        assert sorted(clusters[0].items) == [1, 5, 9]

    def test_unknown_linkage_rejected(self):
        with pytest.raises(ValueError):
            hierarchical_cluster([1], scalar_distance, 1.0,
                                 linkage="median")

    def test_dendrogram_records_merges(self):
        __, dendrogram = hierarchical_cluster([0.0, 0.1, 10.0],
                                              scalar_distance, 100.0)
        assert len(dendrogram) == 2
        distances = [merge[2] for merge in dendrogram.merges]
        assert distances[0] <= distances[1]

    def test_cluster_representative(self):
        cluster = Cluster([0, 1], ["a", "b"])
        assert cluster.representative() == "a"
        assert list(cluster) == ["a", "b"]


class TestAverageLinkageExactness:
    def test_upgma_matches_brute_force(self):
        # After merging {0.0, 1.0}, average distance to 5.0 must be 4.5.
        items = [0.0, 1.0, 5.0]
        __, dendrogram = hierarchical_cluster(items, scalar_distance,
                                              100.0)
        assert dendrogram.merges[0][2] == 1.0
        assert dendrogram.merges[1][2] == pytest.approx(4.5)

    def test_weighted_average_with_uneven_sizes(self):
        # Merge {0, 0} first (distance 0), then {0,0,3}: avg to 10 is
        # (10+10+7)/3 = 9.
        items = [0.0, 0.0, 3.0, 10.0]
        __, dendrogram = hierarchical_cluster(items, scalar_distance,
                                              100.0)
        final = dendrogram.merges[-1][2]
        assert final == pytest.approx(9.0)

    def test_single_linkage(self):
        items = [0.0, 2.0, 3.9]
        clusters, __ = hierarchical_cluster(items, scalar_distance, 2.0,
                                            linkage="single")
        # Chaining: 0-2 (d=2), then cluster-3.9 at min(1.9) merges too.
        assert len(clusters) == 1

    def test_complete_linkage(self):
        items = [0.0, 2.0, 3.9]
        clusters, __ = hierarchical_cluster(items, scalar_distance, 2.0,
                                            linkage="complete")
        # Complete linkage: cluster{0,2} to 3.9 is max(3.9,1.9)=3.9 > 2.
        assert len(clusters) == 2

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=100,
                              allow_nan=False), min_size=2, max_size=12),
           st.floats(min_value=0.1, max_value=50))
    def test_property_clusters_partition_items(self, values, threshold):
        clusters, __ = hierarchical_cluster(values, scalar_distance,
                                            threshold)
        indices = sorted(i for cluster in clusters
                         for i in cluster.indices)
        assert indices == list(range(len(values)))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=100,
                              allow_nan=False), min_size=2, max_size=10))
    def test_property_merge_distances_below_threshold(self, values):
        threshold = 5.0
        __, dendrogram = hierarchical_cluster(values, scalar_distance,
                                              threshold)
        assert all(distance <= threshold
                   for __, __, distance, __ in dendrogram.merges)


class TestNnChainEquivalence:
    """NN-chain must reproduce the pair-scan oracle's output exactly."""

    def both(self, values, threshold, linkage="average"):
        chain = hierarchical_cluster(values, scalar_distance, threshold,
                                     linkage=linkage)
        scan = pair_scan_cluster(values, scalar_distance, threshold,
                                 linkage=linkage)
        return chain, scan

    def assert_equivalent(self, chain, scan):
        chain_clusters, chain_dendrogram = chain
        scan_clusters, scan_dendrogram = scan
        assert [frozenset(c.indices) for c in chain_clusters] \
            == [frozenset(c.indices) for c in scan_clusters]
        # Merge order is sorted-by-distance in both; distances can only
        # differ by float accumulation order in tied averages.
        assert [merge[2] for merge in chain_dendrogram.merges] \
            == pytest.approx([merge[2]
                              for merge in scan_dendrogram.merges])

    def test_small_example_identical_history(self):
        chain, scan = self.both([0.0, 0.1, 0.2, 10.0, 10.1, 50.0], 1.0)
        self.assert_equivalent(chain, scan)
        assert chain[1].merges == scan[1].merges

    def test_threshold_boundary_merge_kept(self):
        # A merge at exactly the threshold is accepted by the oracle;
        # the chain must agree.
        chain, scan = self.both([0.0, 1.0, 10.0], 1.0)
        self.assert_equivalent(chain, scan)
        assert len(chain[1]) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=100,
                              allow_nan=False), min_size=2, max_size=14),
           st.floats(min_value=0.1, max_value=60),
           st.sampled_from(["average", "single", "complete"]))
    def test_property_matches_pair_scan(self, values, threshold,
                                        linkage):
        chain, scan = self.both(values, threshold, linkage=linkage)
        self.assert_equivalent(chain, scan)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_property_random_fixtures_full_tree(self, seed):
        import random
        rng = random.Random(seed)
        values = [round(rng.uniform(0, 100), 3)
                  for __ in range(rng.randint(2, 20))]
        chain, scan = self.both(values, 1000.0)
        self.assert_equivalent(chain, scan)
        # Full agglomeration: both record exactly n - 1 merges.
        assert len(chain[1]) == len(values) - 1


class TestDeduplication:
    def test_duplicates_collapse_and_expand(self):
        keyed = [("a", 1.0), ("a", 1.0), ("b", 50.0), ("a", 1.0)]
        calls = []

        def counting_distance(x, y):
            calls.append((x, y))
            return abs(x - y)

        clusters, __ = cluster_deduplicated(keyed, counting_distance, 5.0)
        # Only one distance computed: between the two unique values.
        assert len(calls) == 1
        sizes = sorted(len(c) for c in clusters)
        assert sizes == [1, 3]

    def test_indices_preserved(self):
        keyed = [("a", 1.0), ("b", 50.0), ("a", 1.0)]
        clusters, __ = cluster_deduplicated(keyed, scalar_distance, 5.0)
        by_size = {len(c): c for c in clusters}
        assert by_size[2].indices == [0, 2]
        assert by_size[1].indices == [1]

    def test_merging_of_near_duplicates(self):
        keyed = [("a", 1.0), ("b", 1.4), ("c", 99.0)]
        clusters, __ = cluster_deduplicated(keyed, scalar_distance, 1.0)
        assert sorted(len(c) for c in clusters) == [1, 2]


class TestDendrogramRendering:
    def test_render_empty(self):
        from repro.core.clustering import Dendrogram, render_dendrogram
        assert render_dendrogram(Dendrogram()) == "(no merges)"

    def test_render_merges_with_labels(self):
        from repro.core.clustering import render_dendrogram
        __, dendrogram = hierarchical_cluster(
            [0.0, 0.1, 5.0], scalar_distance, 100.0)
        text = render_dendrogram(dendrogram, labels={0: "errors",
                                                     2: "parking"})
        lines = text.split("\n")
        assert lines[0].startswith("merge")
        assert len(lines) == 3  # header + two merges
        assert "errors" in text
        assert "parking" in text
        assert "#" in text

    def test_render_bar_scales_with_distance(self):
        from repro.core.clustering import render_dendrogram
        __, dendrogram = hierarchical_cluster(
            [0.0, 0.1, 50.0], scalar_distance, 100.0)
        lines = render_dendrogram(dendrogram).split("\n")[1:]
        first_bar = lines[0].count("#")
        last_bar = lines[-1].count("#")
        assert last_bar > first_bar
