"""Agglomerative hierarchical clustering with average linkage (paper §3.6).

Classic bottom-up agglomeration: every item starts as its own cluster and
the closest pair merges until the closest distance exceeds the threshold.
Average linkage (UPGMA) is maintained exactly via the Lance-Williams
update, so the merge history — returned as a dendrogram — reflects true
mean pairwise distances, which is what lets an analyst inspect how groups
formed (the paper's stated reason for choosing hierarchical clustering).

The history is produced by the nearest-neighbor-chain algorithm: walk
chains of nearest neighbors until a reciprocal pair is found and merge
it.  For reducible linkages — average, single, and complete all are —
reciprocal nearest neighbors remain reciprocal under later merges, so
the merge *tree* is identical to always merging the globally closest
pair; only the discovery order differs.  O(n²) total after the distance
matrix.  The direct transcription — rescan all active pairs for the
global minimum before every merge, O(n³) — is the oracle
(``tests/oracles.pair_scan_cluster``) the equivalence property tests
compare against.

Because reducible linkages are monotone (a merged cluster is never
closer to a bystander than the nearer of its parts was), sorting the
NN-chain merges by distance yields the same bottom-up order the
pair-scan discovers, and cutting at the threshold keeps a prefix of
that order.
"""


class Cluster:
    """A final cluster: member indices plus the items themselves."""

    def __init__(self, indices, items):
        self.indices = list(indices)
        self.items = list(items)

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.items)

    def representative(self):
        """The first member, used as the cluster's exemplar for labeling."""
        return self.items[0]

    def __repr__(self):
        return "Cluster(%d items)" % len(self.indices)


class Dendrogram:
    """Merge history: (cluster_a, cluster_b, distance, new_size) rows, in
    merge order — the inspectable record hierarchical clustering offers."""

    def __init__(self):
        self.merges = []

    def record(self, left, right, distance, size):
        self.merges.append((left, right, distance, size))

    def __len__(self):
        return len(self.merges)


def _distance_matrix(items, distance_fn):
    n = len(items)
    distance = [[0.0] * n for __ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = distance_fn(items[i], items[j])
            distance[i][j] = d
            distance[j][i] = d
    return distance


def _lance_williams(linkage, size_i, size_j, d_ik, d_jk):
    """Distance from the merge of clusters i and j to bystander k."""
    if linkage == "average":
        return (size_i * d_ik + size_j * d_jk) / (size_i + size_j)
    if linkage == "single":
        return min(d_ik, d_jk)
    return max(d_ik, d_jk)  # complete


def hierarchical_cluster(items, distance_fn, threshold, linkage="average"):
    """Cluster ``items`` bottom-up; returns ``(clusters, dendrogram)``.

    ``distance_fn(a, b)`` must be symmetric and non-negative.  ``linkage``
    selects how inter-cluster distance is updated after a merge:
    ``average`` (UPGMA, the paper's choice), ``single``, or ``complete``.
    Merging stops when the smallest inter-cluster distance exceeds
    ``threshold``.
    """
    return cluster_matrix(items, _distance_matrix(items, distance_fn),
                          threshold, linkage)


def cluster_matrix(items, distance, threshold, linkage="average"):
    """:func:`hierarchical_cluster` over a ready distance matrix:
    ``distance[i][j]`` for items ``i`` and ``j``, one list per row (the
    merges overwrite it)."""
    if linkage not in ("average", "single", "complete"):
        raise ValueError("unknown linkage %r" % linkage)
    n = len(items)
    dendrogram = Dendrogram()
    if n == 0:
        return [], dendrogram
    if n == 1:
        return [Cluster([0], [items[0]])], dendrogram
    members = _agglomerate_nn_chain(n, distance, threshold, linkage,
                                    dendrogram)
    clusters = [Cluster(indices, [items[index] for index in indices])
                for __, indices in sorted(members.items())]
    return clusters, dendrogram


def _agglomerate_nn_chain(n, distance, threshold, linkage, dendrogram):
    """Nearest-neighbor-chain agglomeration, O(n²).

    Builds the *complete* merge tree first — following chains of nearest
    neighbors costs O(n) per merge instead of rescanning all pairs —
    then sorts the merges by distance (valid because reducible linkages
    are monotone: every parent merge is at least as distant as its
    children) and replays the prefix at or below the threshold.  The
    replayed history is exactly what a pair-scan would record.
    """
    alive = [True] * n
    size = [1] * n
    raw_merges = []                  # (kept index, dropped index, distance)
    stack = []
    next_seed = 0
    remaining = n
    while remaining > 1:
        if not stack:
            while not alive[next_seed]:
                next_seed += 1
            stack.append(next_seed)
        top = stack[-1]
        prev = stack[-2] if len(stack) >= 2 else -1
        row = distance[top]
        best = None
        best_j = -1
        for j in range(n):
            if not alive[j] or j == top:
                continue
            d = row[j]
            if best is None or d < best:
                best = d
                best_j = j
            elif d == best and j == prev:
                # On ties prefer the previous chain element: reciprocity
                # must be detected or the chain would oscillate.
                best_j = j
        if best_j != prev:
            stack.append(best_j)
            continue
        # Reciprocal nearest neighbors: merge under the smaller index,
        # exactly as a pair-scan would.
        stack.pop()
        stack.pop()
        i, j = (top, prev) if top < prev else (prev, top)
        for k in range(n):
            if not alive[k] or k in (i, j):
                continue
            updated = _lance_williams(linkage, size[i], size[j],
                                      distance[i][k], distance[j][k])
            distance[i][k] = updated
            distance[k][i] = updated
        alive[j] = False
        size[i] += size[j]
        raw_merges.append((i, j, best))
        remaining -= 1

    members = {i: [i] for i in range(n)}
    # Stable sort: equal-distance merges keep chain order, which already
    # has children before parents, so the replay below stays bottom-up.
    for i, j, d in sorted(raw_merges, key=lambda merge: merge[2]):
        if d > threshold:
            break
        members[i] = members[i] + members[j]
        del members[j]
        dendrogram.record(i, j, d, len(members[i]))
    return members


def render_dendrogram(dendrogram, labels=None, width=40):
    """ASCII rendering of the merge history — the paper's reason for
    choosing hierarchical clustering is that an analyst can inspect how
    groups formed; this makes the inspection printable.

    ``labels`` optionally maps original item indices to display names.
    One line per merge, indented by merge distance.
    """
    if not dendrogram.merges:
        return "(no merges)"
    max_distance = max(distance for __, __, distance, __
                       in dendrogram.merges) or 1.0
    lines = ["merge  dist   size  clusters"]
    for step, (left, right, distance, size) in enumerate(
            dendrogram.merges):
        bar = "#" * max(1, int(width * distance / max_distance))
        left_name = (labels or {}).get(left, "c%d" % left)
        right_name = (labels or {}).get(right, "c%d" % right)
        lines.append("%5d  %.3f %5d  %s + %s  %s"
                     % (step, distance, size, left_name, right_name,
                        bar))
    return "\n".join(lines)


def cluster_deduplicated(keys_items, distance_fn, threshold,
                         linkage="average"):
    """Cluster with exact-duplicate collapsing.

    ``keys_items`` is a list of ``(dedup_key, item)``; items sharing a key
    are clustered once and re-expanded afterwards.  HTTP responses are
    overwhelmingly byte-identical across resolvers (censorship landing
    pages, parking lots), so this is the difference between clustering
    hundreds of profiles and clustering millions.
    """
    first_index_for_key = {}
    groups = {}
    for index, (key, item) in enumerate(keys_items):
        if key not in first_index_for_key:
            first_index_for_key[key] = len(groups)
            groups[key] = []
        groups[key].append(index)
    unique_items = [None] * len(groups)
    group_indices = [None] * len(groups)
    for key, indices in groups.items():
        slot = first_index_for_key[key]
        unique_items[slot] = keys_items[indices[0]][1]
        group_indices[slot] = indices
    clusters, dendrogram = hierarchical_cluster(
        unique_items, distance_fn, threshold, linkage=linkage)
    expanded = []
    for cluster in clusters:
        all_indices = []
        for unique_index in cluster.indices:
            all_indices.extend(group_indices[unique_index])
        all_indices.sort()
        expanded.append(Cluster(
            all_indices, [keys_items[index][1] for index in all_indices]))
    return expanded, dendrogram
