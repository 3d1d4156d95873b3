"""Agglomerative hierarchical cluster analysis (HCA), from scratch.

The paper applies HCA twice:

* to *workloads*, described by their vectors of HW PMC event rates, yielding
  the cluster designations of Fig. 3 ("workloads of the same cluster exhibit
  similar MPEs");
* to *events* (HW PMCs in Fig. 5, gem5 statistics in Section IV-C),
  using correlation distance, yielding the event groups (Clusters A/B/C)
  whose shared behaviour identifies error sources.

Average linkage over a Lance-Williams-updated distance matrix; O(n^3) in the
number of items, which is ample for 65 workloads or a few hundred events.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Merge:
    """One agglomeration step: clusters ``a`` and ``b`` join at ``height``."""

    a: int
    b: int
    height: float
    size: int


@dataclass(frozen=True)
class Dendrogram:
    """The full merge tree.

    Leaf ids are ``0..n-1``; internal nodes are ``n, n+1, ...`` in merge
    order, as in the usual linkage-matrix convention.
    """

    n_leaves: int
    merges: tuple[Merge, ...]

    def cut(self, n_clusters: int) -> list[int]:
        """Cut the tree into ``n_clusters`` flat clusters.

        Returns a raw cluster id per leaf (ids are arbitrary; use
        :func:`hierarchical_clustering` for stable 1-based numbering).

        Raises:
            ValueError: If ``n_clusters`` is outside ``[1, n_leaves]``.
        """
        n = self.n_leaves
        if not 1 <= n_clusters <= n:
            raise ValueError(f"n_clusters must be in [1, {n}], got {n_clusters}")
        parent = list(range(n + len(self.merges)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        # Apply merges until the requested number of clusters remains.
        remaining = n
        for step, merge in enumerate(self.merges):
            if remaining <= n_clusters:
                break
            node = n + step
            parent[find(merge.a)] = node
            parent[find(merge.b)] = node
            remaining -= 1
        return [find(i) for i in range(n)]

    def cut_height(self, height: float) -> list[int]:
        """Cut at a merge-height threshold instead of a cluster count."""
        n_clusters = self.n_leaves
        for merge in self.merges:
            if merge.height <= height:
                n_clusters -= 1
        return self.cut(max(n_clusters, 1))


@dataclass(frozen=True)
class ClusterResult:
    """Flat clustering of named items.

    Attributes:
        item_names: Items in input order.
        labels: 1-based cluster id per item, numbered by first appearance in
            input order (matching how the paper labels Fig. 3 clusters).
        dendrogram: The underlying merge tree.
    """

    item_names: tuple[str, ...]
    labels: tuple[int, ...]
    dendrogram: Dendrogram

    @property
    def n_clusters(self) -> int:
        return max(self.labels) if self.labels else 0

    def members(self, cluster: int) -> list[str]:
        """Item names belonging to a 1-based cluster id."""
        return [
            name for name, label in zip(self.item_names, self.labels) if label == cluster
        ]

    def cluster_of(self, name: str) -> int:
        """Cluster id of one item.

        Raises:
            KeyError: If the item is unknown.
        """
        try:
            index = self.item_names.index(name)
        except ValueError as exc:
            raise KeyError(f"unknown item {name!r}") from exc
        return self.labels[index]

    def as_dict(self) -> dict[int, list[str]]:
        """Mapping of cluster id to member names."""
        return {c: self.members(c) for c in range(1, self.n_clusters + 1)}

    def sizes(self) -> dict[int, int]:
        """Member count per cluster."""
        return {c: len(self.members(c)) for c in range(1, self.n_clusters + 1)}


def trivial_clustering(item_names: list[str] | tuple[str, ...]) -> ClusterResult:
    """Degenerate single-cluster result for fewer than two items.

    HCA needs at least two items to merge; degraded collection campaigns
    can legitimately leave zero or one surviving workload, and the caller
    then needs a structurally valid (if trivial) :class:`ClusterResult`
    rather than a crash.  Every item lands in cluster 1.
    """
    names = tuple(item_names)
    return ClusterResult(
        item_names=names,
        labels=tuple(1 for _ in names),
        dendrogram=Dendrogram(n_leaves=len(names), merges=()),
    )


def _distance_matrix(data: np.ndarray, metric: str, standardise: bool) -> np.ndarray:
    if metric == "euclidean":
        work = data.copy()
        if standardise:
            std = work.std(axis=0)
            std[std == 0] = 1.0
            work = (work - work.mean(axis=0)) / std
        diff = work[:, None, :] - work[None, :, :]
        return np.sqrt((diff**2).sum(axis=2))
    if metric == "correlation":
        centred = data - data.mean(axis=1, keepdims=True)
        norms = np.sqrt((centred**2).sum(axis=1))
        norms[norms == 0] = 1.0
        corr = (centred @ centred.T) / np.outer(norms, norms)
        return 1.0 - np.clip(corr, -1.0, 1.0)
    raise ValueError(f"unknown metric {metric!r}; use 'euclidean' or 'correlation'")


def linkage_average(distance: np.ndarray) -> Dendrogram:
    """Average-linkage agglomeration of a symmetric distance matrix.

    Raises:
        ValueError: For non-square input.
    """
    distance = np.asarray(distance, dtype=float)
    if distance.ndim != 2 or distance.shape[0] != distance.shape[1]:
        raise ValueError("distance matrix must be square")
    n = distance.shape[0]
    if n == 0:
        raise ValueError("empty distance matrix")

    # Active cluster bookkeeping: index in the working matrix -> node id.
    work = distance.copy().astype(float)
    np.fill_diagonal(work, np.inf)
    node_ids = list(range(n))
    sizes = [1] * n
    merges: list[Merge] = []

    for step in range(n - 1):
        flat = int(np.argmin(work))
        i, j = divmod(flat, work.shape[0])
        if i > j:
            i, j = j, i
        height = float(work[i, j])
        ni, nj = sizes[i], sizes[j]
        merged_size = ni + nj
        merges.append(Merge(node_ids[i], node_ids[j], height, merged_size))

        # Lance-Williams update for average linkage into row/col i.
        new_row = (ni * work[i, :] + nj * work[j, :]) / merged_size
        work[i, :] = new_row
        work[:, i] = new_row
        work[i, i] = np.inf
        # Remove row/col j.
        work = np.delete(np.delete(work, j, axis=0), j, axis=1)
        node_ids[i] = n + step
        sizes[i] = merged_size
        del node_ids[j]
        del sizes[j]

    return Dendrogram(n_leaves=n, merges=tuple(merges))


def hierarchical_clustering(
    data: np.ndarray,
    item_names: list[str] | tuple[str, ...],
    n_clusters: int,
    metric: str = "euclidean",
    standardise: bool = True,
) -> ClusterResult:
    """Cluster named items described by feature rows.

    Args:
        data: ``(n_items, n_features)`` matrix; one row per item.
        item_names: Name per row.
        n_clusters: Number of flat clusters to cut.
        metric: ``"euclidean"`` (workload clustering over standardised PMC
            rates) or ``"correlation"`` (event clustering, distance
            ``1 - r``).
        standardise: Z-score features before euclidean distances.

    Raises:
        ValueError: On shape/name mismatches.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError("data must be 2-D (items x features)")
    if data.shape[0] != len(item_names):
        raise ValueError(
            f"{data.shape[0]} rows but {len(item_names)} item names"
        )
    distance = _distance_matrix(data, metric, standardise)
    dendrogram = linkage_average(distance)
    raw = dendrogram.cut(min(n_clusters, len(item_names)))

    # Renumber clusters 1..k by first appearance in input order.
    mapping: dict[int, int] = {}
    labels = []
    for raw_label in raw:
        if raw_label not in mapping:
            mapping[raw_label] = len(mapping) + 1
        labels.append(mapping[raw_label])

    return ClusterResult(
        item_names=tuple(item_names),
        labels=tuple(labels),
        dendrogram=dendrogram,
    )
