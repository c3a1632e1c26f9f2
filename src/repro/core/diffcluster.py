"""Fine-grained clustering of page *modifications* (paper §3.6).

The coarse clustering tolerates small HTML changes — exactly the changes
an adversary makes when injecting JavaScript or swapping a form action on
an otherwise-original page.  This pass diffs each unknown response against
the most similar ground-truth representation of the requested site,
reduces the diff to multisets of added and removed HTML tags, and clusters
responses by the Jaccard distance of those modification sets: responses
with the *same kind of modification* group together regardless of which
site was modified.
"""

import difflib
import re
from collections import Counter

from repro.core.clustering import cluster_matrix
from repro.core.distance import jaccard_distance

_TAG_WITH_ATTRS_RE = re.compile(r"<([a-zA-Z][a-zA-Z0-9]*)\b[^>]*>")


def _tag_tokens(html):
    """The page as a list of opening-tag tokens (with their full text)."""
    return [(match.group(1).lower(), match.group(0))
            for match in _TAG_WITH_ATTRS_RE.finditer(html or "")]


def tag_diff(unknown_html, ground_truth_html):
    """Tags added to / removed from the ground truth, as multisets.

    Uses :mod:`difflib` over the full tag-token streams (the ``diff``
    utility of the paper, applied to markup), then collapses each side of
    the diff to a tag-name multiset — "the smaller these sets, the fewer
    modifications were done to the website".
    """
    unknown_tokens = _tag_tokens(unknown_html)
    truth_tokens = _tag_tokens(ground_truth_html)
    matcher = difflib.SequenceMatcher(
        a=[token for __, token in truth_tokens],
        b=[token for __, token in unknown_tokens],
        autojunk=False)
    added = Counter()
    removed = Counter()
    for op, truth_lo, truth_hi, unknown_lo, unknown_hi in \
            matcher.get_opcodes():
        if op in ("delete", "replace"):
            removed.update(name for name, __
                           in truth_tokens[truth_lo:truth_hi])
        if op in ("insert", "replace"):
            added.update(name for name, __
                         in unknown_tokens[unknown_lo:unknown_hi])
    return added, removed


class DiffProfile:
    """The modification fingerprint of one unknown response."""

    __slots__ = ("capture", "added", "removed", "similarity_to_truth",
                 "signature")

    def __init__(self, capture, added, removed, similarity_to_truth):
        self.capture = capture
        self.added = added
        self.removed = removed
        self.similarity_to_truth = similarity_to_truth
        # Added and removed tags as one multiset with signed markers,
        # fixed here because clustering compares every pair of profiles
        # and few of them differ: hashable, so equal modifications are
        # recognised as such, and sorted, so equal ones pickle equally.
        self.signature = tuple(sorted(
            [("+%s" % name, count) for name, count in added.items()
             if count > 0]
            + [("-%s" % name, count) for name, count in removed.items()
               if count > 0]))

    @property
    def modification_size(self):
        return sum(self.added.values()) + sum(self.removed.values())

    def combined_multiset(self):
        """The signed multiset as a ``Counter``."""
        return Counter(dict(self.signature))

    def __repr__(self):
        return "DiffProfile(+%d/-%d tags)" % (
            sum(self.added.values()), sum(self.removed.values()))


def quick_ratio(counts_a, counts_b):
    """difflib's ``quick_ratio`` of two strings from their character
    ``Counter``s: matching characters over the mean length, the same
    float ``SequenceMatcher(a=..., b=...).quick_ratio()`` returns."""
    length = sum(counts_a.values()) + sum(counts_b.values())
    if not length:
        return 1.0
    return 2 * sum((counts_a & counts_b).values()) / length


def build_diff_profile(capture, ground_truth_bodies, truth_counts=None):
    """Diff one capture against its best-matching ground truth.

    ``ground_truth_bodies`` is a list of legitimate HTML representations
    of the same requested domain; when several exist (CDN variants), the
    one most similar to the capture is selected.  ``truth_counts`` maps a
    body to its character counts: a caller that diffs many captures
    passes one dict, so that each body is counted once.
    """
    if not ground_truth_bodies:
        raise ValueError("need at least one ground-truth representation")
    if truth_counts is None:
        truth_counts = {}
    page_counts = None
    best_body = None
    best_score = None
    for body in ground_truth_bodies:
        if body == capture.body:
            score = 0.0
        else:
            if page_counts is None:
                page_counts = Counter((capture.body or "")[:4000])
            if body not in truth_counts:
                truth_counts[body] = Counter(body[:4000])
            score = 1.0 - quick_ratio(truth_counts[body], page_counts)
        if best_score is None or score < best_score:
            best_score = score
            best_body = body
    added, removed = tag_diff(capture.body, best_body)
    return DiffProfile(capture, added, removed, 1.0 - (best_score or 0.0))


def diff_cluster(diff_profiles, threshold=0.5):
    """Cluster modification fingerprints by Jaccard distance.

    Responses whose tag-level modifications resemble each other (e.g. the
    same injected ``<script>``/banner ``<div>`` across different sites)
    end up in one cluster.
    """
    # Many responses, few kinds of modification: the Jaccard distance
    # is computed once per pair of signatures, and each profile's row
    # of the matrix is read from its signature's row.  All profiles
    # still enter the clustering, so the average-linkage weights are
    # those of the full set.
    slot_of = {}
    slots = [slot_of.setdefault(profile.signature, len(slot_of))
             for profile in diff_profiles]
    # Each signature's signed multiset, as ``combined_multiset`` builds it.
    multisets = [Counter(dict(signature)) for signature in slot_of]
    table = [[jaccard_distance(a, b) for b in multisets] for a in multisets]
    matrix = [[row[other] for other in slots]
              for row in (table[slot] for slot in slots)]
    return cluster_matrix(diff_profiles, matrix, threshold,
                          linkage="average")
