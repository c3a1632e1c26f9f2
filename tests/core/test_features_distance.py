"""Tests for HTML feature extraction and the seven-feature distance."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distance import (
    FeatureCache,
    PageDistance,
    edit_distance,
    jaccard_distance,
    length_difference,
    normalized_edit_distance,
)
from repro.core.features import extract_features
from collections import Counter

from tests.oracles import dp_edit_distance

SIMPLE = ("<html><head><title>Hello World</title>"
          "<script src=\"/app.js\"></script></head>"
          "<body><h1>Hi</h1><p>text</p>"
          "<a href=\"/next\">go</a><img src=\"/pic.png\">"
          "<script>var x = 1;</script></body></html>")


class TestFeatureExtraction:
    def test_title(self):
        assert extract_features(SIMPLE).title == "Hello World"

    def test_tag_multiset(self):
        profile = extract_features(SIMPLE)
        assert profile.tag_multiset["script"] == 2
        assert profile.tag_multiset["p"] == 1
        assert "body" in profile.tag_multiset

    def test_tag_sequence_ordered(self):
        profile = extract_features("<html><body><p></p><div></div></body>"
                                   "</html>")
        second = extract_features("<html><body><div></div><p></p></body>"
                                  "</html>")
        assert Counter(profile.tag_sequence) == Counter(
            second.tag_sequence)
        assert profile.tag_sequence != second.tag_sequence

    def test_javascript_collected(self):
        assert "var x = 1;" in extract_features(SIMPLE).javascript

    def test_resources_and_links(self):
        profile = extract_features(SIMPLE)
        assert profile.resources["/pic.png"] == 1
        assert profile.resources["/app.js"] == 1
        assert profile.links["/next"] == 1

    def test_empty_body(self):
        profile = extract_features("")
        assert profile.length == 0
        assert profile.title == ""
        assert not profile.tag_sequence

    def test_none_body(self):
        assert extract_features(None).length == 0

    def test_sequence_capped(self):
        body = "<p></p>" * 1000
        profile = extract_features(body, max_sequence=100)
        assert len(profile.tag_sequence) == 100


class TestPrimitiveDistances:
    def test_jaccard_identity(self):
        counter = Counter("aabbc")
        assert jaccard_distance(counter, counter) == 0.0

    def test_jaccard_disjoint(self):
        assert jaccard_distance(Counter("aa"), Counter("bb")) == 1.0

    def test_jaccard_empty(self):
        assert jaccard_distance(Counter(), Counter()) == 0.0
        assert jaccard_distance(Counter("a"), Counter()) == 1.0

    def test_jaccard_multiset_counts_matter(self):
        assert jaccard_distance(Counter("aa"), Counter("a")) == 0.5

    def test_edit_distance_basics(self):
        assert edit_distance("kitten", "sitting") == 3
        assert edit_distance("", "abc") == 3
        assert edit_distance("abc", "abc") == 0
        assert edit_distance((1, 2, 3), (1, 3)) == 1

    def test_edit_distance_cap(self):
        assert edit_distance("a" * 100, "b" * 100, cap=10) == 10

    def test_normalized_edit_range(self):
        assert normalized_edit_distance("abc", "abc") == 0.0
        assert normalized_edit_distance("abc", "xyz") == 1.0
        assert 0 < normalized_edit_distance("abc", "abd") < 1

    def test_length_difference(self):
        assert length_difference(100, 100) == 0.0
        assert length_difference(0, 100) == 1.0
        assert length_difference(0, 0) == 0.0

    @given(st.text(max_size=25), st.text(max_size=25),
           st.text(max_size=25))
    @settings(max_examples=50)
    def test_edit_distance_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= \
            edit_distance(a, b) + edit_distance(b, c)

    @given(st.text(max_size=30), st.text(max_size=30))
    @settings(max_examples=50)
    def test_edit_distance_symmetric(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)


class TestEditDistanceAgainstDp:
    """The bit-parallel kernel must agree with the two-row dynamic
    program on every input: it replaced it on the study's hot path."""

    # Around the 30- and 64-bit word sizes an integer column could get
    # wrong, and past the 600 cap the page distance applies.
    LENGTHS = (0, 1, 2, 29, 30, 31, 63, 64, 65, 127, 128, 129, 601, 650)

    @staticmethod
    def _related(rng, length, alphabet):
        """A random sequence and an edited copy of it (realistic input:
        page variants share most of their content)."""
        base = [rng.choice(alphabet) for __ in range(length)]
        edited = list(base)
        for __ in range(rng.randrange(0, 8)):
            position = rng.randrange(0, len(edited) + 1)
            action = rng.randrange(3)
            if action == 0:
                edited.insert(position, rng.choice(alphabet))
            elif edited and action == 1:
                del edited[min(position, len(edited) - 1)]
            elif edited:
                edited[min(position, len(edited) - 1)] = \
                    rng.choice(alphabet)
        return base, edited

    @pytest.mark.parametrize("length", LENGTHS)
    def test_strings_at_boundary_lengths(self, length):
        rng = random.Random(length)
        for alphabet in ("ab", "abcdefghij <>/=\"\u00e9\u4e2d"):
            base, edited = self._related(rng, length, alphabet)
            left, right = "".join(base), "".join(edited)
            noise = "".join(rng.choice(alphabet) for __ in range(length))
            for a, b in ((left, right), (right, left), (left, noise),
                         (left, left[::-1]), (left, "")):
                for cap in (None, 600, 64, 63, 1):
                    assert edit_distance(a, b, cap=cap) \
                        == dp_edit_distance(a, b, cap=cap), (a, b, cap)

    @pytest.mark.parametrize("length", LENGTHS)
    def test_tag_tuples_at_boundary_lengths(self, length):
        rng = random.Random(1000 + length)
        tags = ("html", "head", "body", "div", "script", "a", "img", "p")
        base, edited = self._related(rng, length, tags)
        left, right = tuple(base), tuple(edited)
        for a, b in ((left, right), (right, left), (left, left[::-1]),
                     (left, ()), (left, right[:length // 2])):
            for cap in (None, 600, 64):
                assert edit_distance(a, b, cap=cap) \
                    == dp_edit_distance(a, b, cap=cap)

    @given(st.text(alphabet="abc", max_size=80),
           st.text(alphabet="abc", max_size=80),
           st.one_of(st.none(), st.integers(min_value=0, max_value=90)))
    @settings(max_examples=300, deadline=None)
    def test_small_alphabet_strings(self, a, b, cap):
        assert edit_distance(a, b, cap=cap) \
            == dp_edit_distance(a, b, cap=cap)

    @given(st.text(max_size=70), st.text(max_size=70))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text(self, a, b):
        assert edit_distance(a, b) == dp_edit_distance(a, b)

    @given(st.lists(st.sampled_from(("div", "p", "a", "script")),
                    max_size=70),
           st.lists(st.sampled_from(("div", "p", "a", "span")),
                    max_size=70),
           st.one_of(st.none(), st.integers(min_value=0, max_value=70)))
    @settings(max_examples=200, deadline=None)
    def test_tuples(self, a, b, cap):
        assert edit_distance(tuple(a), tuple(b), cap=cap) \
            == dp_edit_distance(tuple(a), tuple(b), cap=cap)

    def test_page_distance_unchanged(self, monkeypatch):
        """The seven-feature distance is the same float either way."""
        from repro.core import distance as distance_module
        pages = [SIMPLE,
                 SIMPLE.replace("<h1>Hi</h1>", "<h2>Hi</h2><div></div>"),
                 SIMPLE.replace("var x = 1;", "var y = 2; alert(y);"),
                 "<html><title>Other</title><body><p>x</p></body></html>",
                 ""]
        profiles = [extract_features(page) for page in pages]
        kernel = [PageDistance()(a, b) for a in profiles for b in profiles]
        monkeypatch.setattr(distance_module, "edit_distance",
                            dp_edit_distance)
        assert kernel == [PageDistance()(a, b)
                          for a in profiles for b in profiles]


class TestPageDistance:
    def test_identity_is_zero(self):
        distance = PageDistance()
        profile = extract_features(SIMPLE)
        assert distance(profile, profile) == 0.0

    def test_symmetric(self):
        distance = PageDistance()
        left = extract_features(SIMPLE)
        right = extract_features("<html><title>Other</title><body>"
                                 "<div>x</div></body></html>")
        assert distance(left, right) == pytest.approx(
            distance(right, left))

    def test_range(self):
        distance = PageDistance()
        left = extract_features(SIMPLE)
        right = extract_features("<table><tr><td>1</td></tr></table>")
        assert 0.0 <= distance(left, right) <= 1.0

    def test_similar_pages_closer_than_different(self):
        distance = PageDistance()
        base = extract_features(SIMPLE)
        near = extract_features(SIMPLE.replace("text", "texts"))
        far = extract_features("<html><title>404</title><body><h1>Not "
                               "Found</h1></body></html>")
        assert distance(base, near) < distance(base, far)

    def test_seven_features(self):
        distance = PageDistance()
        features = distance.feature_distances(extract_features(SIMPLE),
                                              extract_features(SIMPLE))
        assert set(features) == set(PageDistance.FEATURE_NAMES)
        assert len(features) == 7

    def test_custom_weights(self):
        title_only = PageDistance(weights={"title": 1.0})
        left = extract_features("<title>AAA</title><p>x</p>")
        right = extract_features("<title>AAA</title><div>y</div>")
        assert title_only(left, right) == 0.0

    def test_unknown_weight_rejected(self):
        with pytest.raises(ValueError):
            PageDistance(weights={"bogus": 1.0})

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            PageDistance(weights={"title": 0.0})


class TestFeatureCache:
    def test_one_profile_per_body(self):
        cache = FeatureCache()
        first = cache.profile_of(SIMPLE)
        second = cache.profile_of(SIMPLE)
        # Same OBJECT: profile identity is the distance memo's key.
        assert first is second
        assert cache.extractions == 1
        assert cache.hits == 1
        assert len(cache) == 1

    def test_distinct_bodies_distinct_profiles(self):
        cache = FeatureCache()
        a = cache.profile_of("<title>A</title>")
        b = cache.profile_of("<title>B</title>")
        assert a is not b
        assert len(cache) == 2

    def test_perf_counters_mirrored(self):
        from repro.perf import PerfRegistry
        perf = PerfRegistry()
        cache = FeatureCache(perf=perf)
        cache.profile_of(SIMPLE)
        cache.profile_of(SIMPLE)
        assert perf.counter("feature_extractions") == 1
        assert perf.counter("feature_cache_hits") == 1

    def test_custom_extractor(self):
        cache = FeatureCache(extractor=len)
        assert cache.profile_of("abcd") == 4
        assert cache.hit_rate() == 0.0
        cache.profile_of("abcd")
        assert cache.hit_rate() == 0.5
