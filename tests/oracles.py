"""Reference implementations the study hot-path kernels are checked
against.

Each is the direct transcription the production kernel replaced: slow,
obviously right, and never imported from ``src/``.  The kernel tests
compare against them input by input, and ``tests/test_reporting.py``
swaps all three in for a whole study and requires a byte-equal report.
"""

from collections import Counter

from repro.core.clustering import hierarchical_cluster
from repro.core.distance import jaccard_distance
from repro.dnswire.message import HEADER_STRUCT
from repro.dnswire.name import NameCompressor


def dp_edit_distance(seq_a, seq_b, cap=None):
    """Levenshtein distance by the classic two-row dynamic program."""
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
    previous = list(range(len(seq_b) + 1))
    for i, item_a in enumerate(seq_a, 1):
        current = [i]
        for j, item_b in enumerate(seq_b, 1):
            cost = 0 if item_a == item_b else 1
            current.append(min(previous[j] + 1,
                               current[j - 1] + 1,
                               previous[j - 1] + cost))
        previous = current
    return previous[-1]


def signed_multiset(profile):
    """A diff profile's added and removed tags as one ``Counter``."""
    combined = Counter()
    for name, count in profile.added.items():
        combined["+%s" % name] = count
    for name, count in profile.removed.items():
        combined["-%s" % name] = count
    return combined


def pairwise_diff_cluster(diff_profiles, threshold=0.5):
    """``diff_cluster`` with a fresh ``Counter`` Jaccard for every pair."""
    def distance(profile_a, profile_b):
        return jaccard_distance(signed_multiset(profile_a),
                                signed_multiset(profile_b))

    return hierarchical_cluster(diff_profiles, distance, threshold,
                                linkage="average")


def compressor_only_to_wire(message):
    """``Message.to_wire`` with every name sent through one
    :class:`NameCompressor`, the first included."""
    compressor = NameCompressor()
    out = bytearray(HEADER_STRUCT.pack(
        message.header.txid, message.header.flags_word(),
        len(message.questions), len(message.answers),
        len(message.authorities), len(message.additionals)))
    for section in (message.questions, message.answers,
                    message.authorities, message.additionals):
        for entry in section:
            out += entry.to_wire(compressor.encode(entry.name, len(out)))
    return bytes(out)
