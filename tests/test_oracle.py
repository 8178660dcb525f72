import itertools

import numpy as np
import pytest

from nosubkm.geometry import centroid, kmeans_cost
from nosubkm.oracle import lloyd_kmeans, optimal_kmeans


def brute_force_cost(points, k):
    """Oracle-of-the-oracle: score every raw assignment vector at centroids."""
    best = float("inf")
    n = len(points)
    for assign in itertools.product(range(k), repeat=n):
        cost = 0.0
        for cid in range(k):
            part = [points[i] for i in range(n) if assign[i] == cid]
            if part:
                cost += kmeans_cost(part, [centroid(part)])
        best = min(best, cost)
    return best


class TestOptimalKMeans:
    def test_three_points_two_clusters(self):
        result = optimal_kmeans([(0.0,), (1.0,), (5.0,)], 2)
        assert result.cost == pytest.approx(0.5)
        assert result.assignment == [0, 0, 1]

    def test_k_at_least_distinct_points(self):
        pts = [(0.0,), (0.0,), (3.0,), (7.0,)]
        assert optimal_kmeans(pts, 3).cost == 0.0

    def test_matches_raw_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            pts = [tuple(rng.uniform(0, 5, size=2)) for _ in range(8)]
            expected = brute_force_cost(pts, 2)
            assert optimal_kmeans(pts, 2).cost == pytest.approx(expected, rel=1e-9)

    def test_matches_raw_enumeration_k3(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            pts = [tuple(rng.uniform(0, 5, size=2)) for _ in range(6)]
            expected = brute_force_cost(pts, 3)
            assert optimal_kmeans(pts, 3).cost == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(23)
        pts = [tuple(rng.uniform(0, 5, size=2)) for _ in range(9)]
        costs = [optimal_kmeans(pts, k).cost for k in (1, 2, 3)]
        assert costs[0] >= costs[1] >= costs[2]

    def test_over_limit_refuses(self):
        pts = [(float(i),) for i in range(15)]
        with pytest.raises(ValueError, match="lloyd_kmeans"):
            optimal_kmeans(pts, 2)

    @pytest.mark.parametrize("k", [1, 2])
    def test_mixed_dimensions_raise(self, k):
        with pytest.raises(ValueError, match="dimension"):
            optimal_kmeans([(0.0, 1.0), (2.0,)], k)

    def test_cost_consistency_invariant(self):
        rng = np.random.default_rng(24)
        pts = [tuple(rng.uniform(0, 5, size=2)) for _ in range(8)]
        result = optimal_kmeans(pts, 3)
        recomputed = 0.0
        for cid, center in enumerate(result.centers):
            members = [p for p, a in zip(pts, result.assignment) if a == cid]
            assert centroid(members) == pytest.approx(center)
            recomputed += kmeans_cost(members, [center])
        assert result.cost == pytest.approx(recomputed, rel=1e-9)

    def test_k1_closed_form(self):
        rng = np.random.default_rng(25)
        pts = [tuple(rng.uniform(0, 5, size=3)) for _ in range(30)]
        assert optimal_kmeans(pts, 1).cost == pytest.approx(
            kmeans_cost(pts, [centroid(pts)])
        )


class TestLloydKMeans:
    def test_k1_is_centroid_cost(self):
        rng = np.random.default_rng(31)
        pts = [tuple(rng.uniform(0, 5, size=2)) for _ in range(12)]
        result = lloyd_kmeans(pts, 1, restarts=3, seed=0)
        assert result.cost == pytest.approx(kmeans_cost(pts, [centroid(pts)]))

    def test_duplicate_groups_reach_zero(self):
        pts = [(0.0, 0.0)] * 4 + [(5.0, 5.0)] * 4 + [(9.0, 0.0)] * 4
        assert lloyd_kmeans(pts, 3, restarts=5, seed=1).cost == pytest.approx(0.0)

    def test_never_beats_optimal_and_usually_matches(self):
        rng = np.random.default_rng(32)
        matched = 0
        for trial in range(100):
            pts = [tuple(rng.uniform(0, 10, size=2)) for _ in range(10)]
            opt = optimal_kmeans(pts, 2).cost
            heur = lloyd_kmeans(pts, 2, restarts=20, seed=trial).cost
            assert heur >= opt - 1e-9 * max(opt, 1.0)
            if heur <= opt * (1 + 1e-9) + 1e-12:
                matched += 1
        assert matched >= 90

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(33)
        pts = [tuple(rng.uniform(0, 10, size=2)) for _ in range(25)]
        a = lloyd_kmeans(pts, 3, restarts=10, seed=7)
        b = lloyd_kmeans(pts, 3, restarts=10, seed=7)
        assert a.cost == b.cost and a.assignment == b.assignment

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            lloyd_kmeans([(0.0,)], 2)

    def test_no_restarts_refused(self):
        with pytest.raises(ValueError, match="restarts"):
            lloyd_kmeans([(0.0,), (1.0,)], 1, restarts=0)

    def test_seeding_once_no_mass_is_left(self):
        # two locations for three seeds: the third is drawn uniformly
        assert lloyd_kmeans([(1.0,)] * 4 + [(2.0,)], 3).cost == 0.0

