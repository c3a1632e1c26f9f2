"""The custom page-distance function: seven normalized features of equal
weight (paper §3.6, coarse-grained clustering).

1. body-length difference (coarse similarity),
2. Jaccard distance over the HTML-tag multiset,
3. edit distance over the normalized opening-tag sequence (structure),
4. edit distance over the ``<title>`` text,
5. edit distance over all JavaScript code,
6. Jaccard distance over embedded resources (``src=``),
7. Jaccard distance over outgoing links (``href=``).
"""


def jaccard_distance(multiset_a, multiset_b):
    """Jaccard distance for multisets: 1 - |A ∩ B| / |A ∪ B|.

    Both arguments are ``collections.Counter``; two empty multisets are
    identical (distance 0).
    """
    if not multiset_a and not multiset_b:
        return 0.0
    intersection = sum((multiset_a & multiset_b).values())
    union = sum((multiset_a | multiset_b).values())
    if union == 0:
        return 0.0
    return 1.0 - intersection / union


def edit_distance(seq_a, seq_b, cap=None):
    """Levenshtein distance between two sequences (strings or tuples of
    hashable items).

    ``cap`` optionally truncates inputs for bounded cost.  Bit-parallel
    (Myers 1999, in Hyyrö's 2003 formulation): one column of the
    dynamic-programming matrix is held as two integers whose bit ``i``
    says whether row ``i`` is one more (``plus``) or one less
    (``minus``) than row ``i - 1``; a column step is a dozen
    whole-integer operations instead of ``len(seq_a)`` cell updates, and
    Python integers are as wide as the longer sequence.  Exact: the
    bottom-row delta it accumulates is the same matrix's, cell for cell.
    """
    if cap is not None:
        seq_a = seq_a[:cap]
        seq_b = seq_b[:cap]
    if seq_a == seq_b:
        return 0
    if not seq_a:
        return len(seq_b)
    if not seq_b:
        return len(seq_a)
    if len(seq_a) < len(seq_b):
        seq_a, seq_b = seq_b, seq_a
    # The longer sequence runs down the column (wide integers are
    # cheap), the shorter one across it (interpreter steps are not).
    rows = len(seq_a)
    positions = {}          # item -> bit set of its rows in seq_a
    bit = 1
    for item in seq_a:
        positions[item] = positions.get(item, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    plus = mask             # column 0 is 0, 1, 2, ...: every step +1
    minus = 0
    distance = rows
    for item in seq_b:
        match = positions.get(item, 0)
        diagonal = (((match & plus) + plus) ^ plus) | match | minus
        right_plus = minus | ~(diagonal | plus)
        right_minus = plus & diagonal
        if right_plus & last:
            distance += 1
        elif right_minus & last:
            distance -= 1
        # Row 0 of every column is one more than the column before.
        right_plus = (right_plus << 1) | 1
        right_minus <<= 1
        plus = (right_minus | ~(diagonal | right_plus)) & mask
        minus = right_plus & diagonal & mask
    return distance


def normalized_edit_distance(seq_a, seq_b, cap=None):
    """Edit distance scaled into [0, 1] by the longer sequence."""
    longest = max(len(seq_a), len(seq_b))
    if longest == 0:
        return 0.0
    if cap is not None:
        longest = min(longest, cap)
    return min(1.0, edit_distance(seq_a, seq_b, cap=cap) / longest)


def length_difference(length_a, length_b):
    """Relative body-length difference in [0, 1]."""
    longest = max(length_a, length_b)
    if longest == 0:
        return 0.0
    return abs(length_a - length_b) / longest


class PageDistance:
    """Callable combining the seven features with equal weights.

    Instances are picklable and reusable; ``__call__`` takes two
    :class:`repro.core.features.PageProfile` objects and returns a
    distance in [0, 1].
    """

    FEATURE_NAMES = ("length", "tags", "structure", "title", "javascript",
                     "resources", "links")

    def __init__(self, weights=None, text_cap=600):
        if weights is None:
            weights = {name: 1.0 for name in self.FEATURE_NAMES}
        unknown = set(weights) - set(self.FEATURE_NAMES)
        if unknown:
            raise ValueError("unknown distance features: %s" % sorted(unknown))
        self.weights = {name: float(weights.get(name, 0.0))
                        for name in self.FEATURE_NAMES}
        total = sum(self.weights.values())
        if total <= 0:
            raise ValueError("at least one feature weight must be positive")
        self.total_weight = total
        self.text_cap = text_cap

    def feature_distances(self, profile_a, profile_b):
        """The seven per-feature distances as a dict (for inspection)."""
        cap = self.text_cap
        return {
            "length": length_difference(profile_a.length, profile_b.length),
            "tags": jaccard_distance(profile_a.tag_multiset,
                                     profile_b.tag_multiset),
            "structure": normalized_edit_distance(profile_a.tag_sequence,
                                                  profile_b.tag_sequence,
                                                  cap=cap),
            "title": normalized_edit_distance(profile_a.title,
                                              profile_b.title, cap=cap),
            "javascript": normalized_edit_distance(profile_a.javascript,
                                                   profile_b.javascript,
                                                   cap=cap),
            "resources": jaccard_distance(profile_a.resources,
                                          profile_b.resources),
            "links": jaccard_distance(profile_a.links, profile_b.links),
        }

    def __call__(self, profile_a, profile_b):
        distances = self.feature_distances(profile_a, profile_b)
        return sum(self.weights[name] * value
                   for name, value in distances.items()) / self.total_weight


class FeatureCache:
    """Body-keyed memo of extracted :class:`PageProfile` objects.

    Guarantees one profile object per distinct body, which avoids
    re-parsing identical pages (the overwhelmingly common case across
    resolvers).  Counters mirror into ``perf`` as
    ``feature_extractions`` / ``feature_cache_hits``.
    """

    def __init__(self, extractor=None, perf=None):
        if extractor is None:
            from repro.core.features import extract_features
            extractor = extract_features
        self.extractor = extractor
        self.perf = perf
        self._profiles = {}
        self.extractions = 0
        self.hits = 0

    def profile_of(self, body):
        profile = self._profiles.get(body)
        if profile is not None:
            self.hits += 1
            if self.perf is not None:
                self.perf.count("feature_cache_hits")
            return profile
        profile = self.extractor(body)
        self.extractions += 1
        if self.perf is not None:
            self.perf.count("feature_extractions")
        self._profiles[body] = profile
        return profile

    def hit_rate(self):
        total = self.extractions + self.hits
        return self.hits / total if total else 0.0

    def __len__(self):
        return len(self._profiles)
