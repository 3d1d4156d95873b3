"""Tests for the from-scratch hierarchical clustering."""

import numpy as np
import pytest

from repro.core.stats.cluster import (
    Dendrogram,
    hierarchical_clustering,
    linkage_average,
)


def blobs(seed=0):
    """Three well-separated 2-D blobs of 5 points each."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]])
    points = np.concatenate(
        [center + rng.normal(0, 0.5, size=(5, 2)) for center in centers]
    )
    names = [f"p{i}" for i in range(15)]
    return points, names


class TestLinkage:
    def test_merge_count(self):
        distance = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 5.0], [5.0, 5.0, 0.0]])
        dendrogram = linkage_average(distance)
        assert dendrogram.n_leaves == 3
        assert len(dendrogram.merges) == 2

    def test_closest_pair_merges_first(self):
        distance = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 5.0], [5.0, 5.0, 0.0]])
        first = linkage_average(distance).merges[0]
        assert {first.a, first.b} == {0, 1}
        assert first.height == 1.0

    def test_average_linkage_height(self):
        distance = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 6.0], [4.0, 6.0, 0.0]])
        second = linkage_average(distance).merges[1]
        assert second.height == pytest.approx(5.0)  # mean of 4 and 6

    def test_heights_monotone_for_metric_data(self):
        points, names = blobs()
        diff = points[:, None, :] - points[None, :, :]
        distance = np.sqrt((diff**2).sum(axis=2))
        heights = [m.height for m in linkage_average(distance).merges]
        assert heights == sorted(heights)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            linkage_average(np.ones((2, 3)))


class TestCut:
    def test_cut_recovers_blobs(self):
        points, names = blobs()
        result = hierarchical_clustering(points, names, n_clusters=3,
                                         standardise=False)
        assert result.n_clusters == 3
        # Each blob of five points lands in one cluster.
        for start in (0, 5, 10):
            labels = {result.labels[i] for i in range(start, start + 5)}
            assert len(labels) == 1

    def test_cut_one_cluster(self):
        points, names = blobs()
        result = hierarchical_clustering(points, names, n_clusters=1)
        assert set(result.labels) == {1}

    def test_cut_n_equals_items(self):
        points, names = blobs()
        result = hierarchical_clustering(points, names, n_clusters=15)
        assert result.n_clusters == 15

    def test_invalid_cut(self):
        dendrogram = Dendrogram(3, ())
        with pytest.raises(ValueError):
            dendrogram.cut(0)

    def test_cut_height(self):
        points, names = blobs()
        diff = points[:, None, :] - points[None, :, :]
        distance = np.sqrt((diff**2).sum(axis=2))
        dendrogram = linkage_average(distance)
        labels = dendrogram.cut_height(5.0)  # inside-blob merges only
        assert len(set(labels)) == 3


class TestClusterResult:
    def test_labels_numbered_by_first_appearance(self):
        points, names = blobs()
        result = hierarchical_clustering(points, names, n_clusters=3,
                                         standardise=False)
        assert result.labels[0] == 1
        seen = []
        for label in result.labels:
            if label not in seen:
                seen.append(label)
        assert seen == sorted(seen)

    def test_members_partition_items(self):
        points, names = blobs()
        result = hierarchical_clustering(points, names, n_clusters=3)
        all_members = [m for c in range(1, 4) for m in result.members(c)]
        assert sorted(all_members) == sorted(names)

    def test_cluster_of(self):
        points, names = blobs()
        result = hierarchical_clustering(points, names, n_clusters=3)
        assert result.cluster_of("p0") == result.labels[0]
        with pytest.raises(KeyError):
            result.cluster_of("nope")

    def test_sizes(self):
        points, names = blobs()
        result = hierarchical_clustering(points, names, n_clusters=3,
                                         standardise=False)
        assert sorted(result.sizes().values()) == [5, 5, 5]

    def test_as_dict(self):
        points, names = blobs()
        result = hierarchical_clustering(points, names, n_clusters=3)
        assert set(result.as_dict()) == {1, 2, 3}


class TestCorrelationMetric:
    def test_correlated_series_cluster_together(self):
        rng = np.random.default_rng(2)
        base_a = rng.normal(size=40)
        base_b = rng.normal(size=40)
        data = np.vstack([
            base_a, base_a * 3 + 0.01 * rng.normal(size=40),
            base_b, 2 * base_b + 0.01 * rng.normal(size=40),
        ])
        result = hierarchical_clustering(
            data, ["a1", "a2", "b1", "b2"], n_clusters=2, metric="correlation"
        )
        assert result.cluster_of("a1") == result.cluster_of("a2")
        assert result.cluster_of("a1") != result.cluster_of("b1")

    def test_anticorrelated_far_apart(self):
        # distance 1 - r: anti-correlated pairs are the farthest.
        rng = np.random.default_rng(4)
        base = rng.normal(size=40)
        data = np.vstack([base, -base, base + 0.01 * rng.normal(size=40)])
        result = hierarchical_clustering(
            data, ["x", "anti", "near"], n_clusters=2, metric="correlation"
        )
        assert result.cluster_of("x") == result.cluster_of("near")
        assert result.cluster_of("anti") != result.cluster_of("x")

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            hierarchical_clustering(np.ones((3, 2)), ["a", "b", "c"], 2,
                                    metric="cosine")


class TestInputValidation:
    def test_name_count_mismatch(self):
        with pytest.raises(ValueError):
            hierarchical_clustering(np.ones((3, 2)), ["a", "b"], 2)

    def test_1d_data_rejected(self):
        with pytest.raises(ValueError):
            hierarchical_clustering(np.ones(3), ["a", "b", "c"], 2)


class TestTrivialClustering:
    def test_single_item_is_one_cluster(self):
        from repro.core.stats.cluster import trivial_clustering

        result = trivial_clustering(["only"])
        assert result.item_names == ("only",)
        assert result.labels == (1,)
        assert result.dendrogram.merges == ()

    def test_empty_input_is_tolerated(self):
        from repro.core.stats.cluster import trivial_clustering

        result = trivial_clustering([])
        assert result.item_names == ()
        assert result.labels == ()


class TestPermutationInvariance:
    @staticmethod
    def partition(result):
        return {frozenset(result.members(c)) for c in range(1, result.n_clusters + 1)}

    @pytest.mark.parametrize("standardise", [True, False])
    def test_item_order_does_not_change_the_clusters(self, standardise):
        points, names = blobs()
        base = hierarchical_clustering(points, names, n_clusters=3,
                                       standardise=standardise)
        for seed in range(5):
            order = np.random.default_rng(seed).permutation(len(names))
            moved = hierarchical_clustering(
                points[order], [names[i] for i in order], n_clusters=3,
                standardise=standardise,
            )
            assert self.partition(moved) == self.partition(base)

    def test_correlation_metric_ignores_item_order(self):
        rng = np.random.default_rng(3)
        shapes = rng.normal(size=(3, 40))
        series = np.concatenate(
            [shape + rng.normal(0, 0.1, size=(4, 40)) for shape in shapes]
        )
        names = [f"e{i}" for i in range(12)]
        base = hierarchical_clustering(series, names, n_clusters=3,
                                       metric="correlation")
        assert len(self.partition(base)) == 3
        for seed in range(5):
            order = np.random.default_rng(seed).permutation(len(names))
            moved = hierarchical_clustering(
                series[order], [names[i] for i in order], n_clusters=3,
                metric="correlation",
            )
            assert self.partition(moved) == self.partition(base)
