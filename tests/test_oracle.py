import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nosubkm import geometry, oracle
from nosubkm.geometry import centroid, kmeans_cost, nearest_sq
from nosubkm.harness import TrialSpec, gen_dataset, run_trial, save_points
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


def reference_lloyd(points, k, restarts=20, seed=0):
    """lloyd_kmeans with its first labels from `nearest_sq` at the seeds and
    its centroid step written as one boolean mask and one numpy mean per
    cluster: the reference for the seeding's labels and the bincount step.
    The first labels come from geometry's `nearest_sq`, which
    `recording_nearest_sq` does not record, as lloyd_kmeans makes no call
    there."""
    X = np.asarray(points, dtype=np.float64)
    best = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        centers, _ = oracle._seed_centers(X, k, rng)
        labels, _ = nearest_sq(X, centers)
        for _ in range(200):
            for j in range(k):
                members = X[labels == j]
                if len(members):
                    centers[j] = members.mean(axis=0)
            new_labels, d2 = oracle.nearest_sq(X, centers)
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        cost = float(d2.sum())
        if best is None or cost < best[0]:
            best = (cost, labels)
    return oracle._clustering_from_assignment(points, [int(a) for a in best[1]])


def reference_seed_centers(X, k, rng):
    """`_seed_centers` with each center's squared distances taken from a
    one-center `nearest_sq`: the reference for its one `_sum_sq` pass."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = nearest_sq(X, centers[:1])[1]
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            cdf = np.cumsum(d2 / total)
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        else:
            idx = rng.integers(n)
        centers[j] = X[idx]
        d2 = np.minimum(d2, nearest_sq(X, centers[j : j + 1])[1])
    return centers


def per_cluster_clustering(points, assignment):
    """The scoring one cluster at a time: the `centroid` of each cluster's
    points, and `nearest_sq` from its points to it; the reference for the
    one-pass scoring."""
    used = sorted(set(assignment))
    labels = [used.index(a) for a in assignment]
    clusters = [[p for p, c in zip(points, labels) if c == cid] for cid in range(len(used))]
    centers = [centroid(c) for c in clusters]
    cost = math.fsum(
        d2
        for c, ctr in zip(clusters, centers)
        for d2 in nearest_sq(np.asarray(c), np.asarray([ctr]))[1].tolist()
    )
    return oracle.Clustering(assignment=labels, centers=centers, cost=cost)


def recording_nearest_sq(monkeypatch):
    """Make the oracle's nearest_sq record a copy of its centers and labels
    at every call; returns the list the calls are appended to."""
    calls = []

    def record(X, C):
        labels, d2 = nearest_sq(X, C)
        calls.append((C.copy(), labels))
        return labels, d2

    monkeypatch.setattr(oracle, "nearest_sq", record)
    return calls


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

    def test_k_that_is_not_an_int(self):
        with pytest.raises(ValueError, match="k must be an int, got 2.5"):
            optimal_kmeans([(0.0,), (1.0,), (5.0,)], 2.5)

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


def canonical_assignments(n, k):
    """Every assignment of n points to at most k parts, each part first
    used in order: one per partition."""
    def grow(prefix, used):
        if len(prefix) == n:
            yield prefix
            return
        for part in range(min(used + 1, k)):
            yield from grow(prefix + [part], max(used, part + 1))

    return grow([], 0)


def exact_part_cost(points, members):
    """The k-means cost of one part in exact rational arithmetic."""
    total = Fraction(0)
    for column in zip(*[[Fraction(v) for v in points[i]] for i in members]):
        mean = sum(column) / len(column)
        total += sum((v - mean) ** 2 for v in column)
    return total


def exact_cost(points, assignment, part_cost=None):
    """The k-means cost of an assignment in exact rational arithmetic;
    part_cost(members) may stand in for exact_part_cost on these points."""
    part_cost = part_cost or functools.partial(exact_part_cost, points)
    parts = {}
    for i, a in enumerate(assignment):
        parts.setdefault(a, []).append(i)
    return sum(part_cost(tuple(m)) for m in parts.values())


def translated_set(rng, offset):
    """Up to 8 points in d = 1 or 2 around two centers, each row's spread
    1e-3 or 1 at random, every coordinate moved by offset."""
    n = int(rng.integers(3, 9))
    d = int(rng.integers(1, 3))
    centers = rng.uniform(-5, 5, size=(2, d))
    spreads = rng.choice([1e-3, 1.0], size=(n, 1))
    rows = centers[rng.integers(0, 2, size=n)] + spreads * rng.normal(size=(n, d))
    return [tuple(row) for row in (rows + offset).tolist()]


# Coordinates on a grid of eighths, so that adding any offset below 1e14
# is exact and a translated set has exactly the untranslated differences.
eighths = st.integers(-512, 512).map(lambda v: v / 8)


@st.composite
def grid_sets(draw):
    d = draw(st.integers(1, 2))
    points = draw(st.lists(st.tuples(*[eighths] * d), min_size=2, max_size=9))
    return points, draw(st.integers(2, 3))


class TestTranslation:
    # optimal_kmeans scores each part by its pairwise squared distances,
    # whose coordinate differences are taken before squaring. The sum of
    # squares minus the squared sum over the count, which it used before,
    # cancels once the points lie far from the origin: at offset 1e8 it
    # chose a partition above the optimum on almost every such set.

    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e6, 1e8, 1e10])
    def test_chosen_partition_is_optimal_in_exact_arithmetic(self, offset):
        # Tolerance: each part's score has a relative rounding error of a
        # few dozen ulps (d squares, at most 36 pair sums, one division),
        # so a partition within 1e-12 of the optimum may tie with it.
        rng = np.random.default_rng(int(offset) % 1000 + 40)
        for _ in range(25):
            points = translated_set(rng, offset)
            for k in (2, 3):
                part_cost = functools.cache(functools.partial(exact_part_cost, points))
                best = min(
                    exact_cost(points, a, part_cost)
                    for a in canonical_assignments(len(points), k)
                )
                chosen = exact_cost(points, optimal_kmeans(points, k).assignment)
                assert chosen <= best * (1 + Fraction(1, 10**12)), (offset, k, points)

    @settings(max_examples=100, deadline=None)
    @given(grid_sets(), st.sampled_from([1e3, 1e6, 1e8, 1e10, -1e10]))
    def test_assignment_does_not_change_under_translation(self, case, offset):
        points, k = case
        moved = [tuple(v + offset for v in p) for p in points]
        assert optimal_kmeans(moved, k).assignment == optimal_kmeans(points, k).assignment

    def test_translated_trial_reports_the_untranslated_cost(self, tmp_path):
        # Two unit-spread clusters 5 apart, read by run_trial from a file.
        # The coordinates are multiples of 2**-20, so adding 1e8 is exact.
        # At this seed the old part score reported 40.81 at 1e8, not 11.26.
        rng = np.random.default_rng(0)
        base = np.concatenate([rng.normal(0, 1, size=(5, 2)), rng.normal(5, 1, size=(5, 2))])
        base = np.round(base * 2**20) / 2**20
        costs = []
        for offset in (0.0, 1e8):
            path = tmp_path / f"points_{offset:g}.csv"
            save_points([tuple(r) for r in (base + offset).tolist()], path)
            report, _ = run_trial(TrialSpec(k=2, input_path=str(path), oracle="exact"))
            assert report.oracle_exact
            costs.append(report.oracle_cost)
        assert costs[1] == pytest.approx(costs[0], rel=1e-9)


def is_canonical(assignment):
    """Whether each part is first used in order: 0, then 1, and so on."""
    firsts = list(dict.fromkeys(assignment))
    return firsts == list(range(len(firsts)))


class TestSubsetProgram:
    # optimal_kmeans splits off one part per layer: the last layer reads the
    # whole set, and each of the k - 2 layers before it is one pass over
    # the split table of the points after the first.

    def test_equal_gaps_tie_to_the_first_part_in_mask_order(self):
        # Four points with equal gaps at k = 3: the three partitions of one
        # adjacent pair and two single points all cost 1/2, exactly. At each
        # layer the first part in mask order, the lowest point alone, wins,
        # so the pair is the last two points.
        points = [(0.0,), (1.0,), (2.0,), (3.0,)]
        result = optimal_kmeans(points, 3)
        assert result.assignment == [0, 1, 2, 2]
        assert is_canonical(result.assignment)
        assert result.cost == 0.5

    def test_square_corners_tie_to_the_first_part_in_mask_order(self):
        # The pairs {0, 1} | {2, 3} and {0, 2} | {1, 3} both cost 1; the
        # part {0, 1}, mask 3, comes before {0, 2}, mask 5.
        points = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        result = optimal_kmeans(points, 2)
        assert result.assignment == [0, 0, 1, 1]
        assert is_canonical(result.assignment)
        assert result.cost == 1.0

    @pytest.mark.parametrize("k", [4, 5])
    def test_deeper_layers_match_exact_arithmetic(self, k):
        # Two and three passes over the split table. The sets: Gaussian
        # rows, rows drawn from few locations (duplicates), and rows from
        # fewer distinct locations than k, whose optimum is 0.
        rng = np.random.default_rng(60 + k)
        cases = []
        for trial in range(4):
            d = 1 + trial % 3
            cases.append([tuple(rng.normal(0, 5, size=d)) for _ in range(int(rng.integers(k, 9)))])
            locations = rng.normal(0, 5, size=(k + 1, d))
            cases.append([tuple(locations[i]) for i in rng.integers(0, k + 1, size=8)])
        cases.append([(0.0, 1.0)] * 3 + [(2.0, 0.5)] * 3 + [(-1.0, 4.0)] * 2)
        cases.append([(1.0,), (1.0,), (1.0,), (1.0,)])
        for points in cases:
            part_cost = functools.cache(functools.partial(exact_part_cost, points))
            best = min(
                exact_cost(points, a, part_cost)
                for a in canonical_assignments(len(points), k)
            )
            result = optimal_kmeans(points, k)
            assert len(set(result.assignment)) <= k and is_canonical(result.assignment)
            chosen = exact_cost(points, result.assignment)
            assert chosen <= best * (1 + Fraction(1, 10**12)), (k, points)
            assert result.cost == pytest.approx(float(best), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize(
        "n, k, budget",
        [(14, 2, 2560 << 10), (11, 3, 512 << 10), (10, 5, 512 << 10)],
    )
    def test_one_call_at_the_limit_within_budget(self, n, k, budget):
        # At n = 14 and k = 2 the subset tables take about 2.3 MB: the
        # links, 2**14 rows of 15 (the last the count), and the pair sums
        # and scores, 2**14 each. At k >= 3 the split table (about 126 kB)
        # is built inside the measured call, and each pass takes at most
        # _FOLD_CHUNK masks at a time; one pass over all 29,524 splits
        # would hold about 470 kB of temporaries.
        assert n == oracle.EXACT_LIMITS.get(k, 10)
        rng = np.random.default_rng(5)
        points = [tuple(rng.normal(0, 10, size=2)) for _ in range(n)]
        optimal_kmeans(points[:5], k)  # numpy's lazily loaded helpers
        geometry._splits.cache_clear()
        tracemalloc.start()
        try:
            optimal_kmeans(points, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget

    def test_two_parts_need_no_split_table(self):
        rng = np.random.default_rng(6)
        points = [tuple(rng.normal(0, 10, size=2)) for _ in range(14)]
        geometry._splits.cache_clear()
        optimal_kmeans(points, 2)
        assert geometry._splits.cache_info().currsize == 0


class TestScoring:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 60),
        d=st.integers(1, 5),
        ids=st.integers(1, 8),
        scale=st.sampled_from([1e-8, 1.0, 1e8]),
        shift=st.sampled_from([0.0, 1e3, -1e6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_pass_equals_per_cluster(self, n, d, ids, scale, shift, seed):
        # ids spaced by 3, so some are unused and the rest are relabelled
        rng = np.random.default_rng(seed)
        points = [tuple(p) for p in (rng.normal(size=(n, d)) * scale + shift).tolist()]
        assignment = (3 * rng.integers(0, ids, size=n)).tolist()
        expected = per_cluster_clustering(points, assignment)
        assert oracle._clustering_from_assignment(points, assignment) == expected
        assert oracle._clustering_from_assignment(np.asarray(points), np.asarray(assignment)) == expected


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

    @pytest.mark.parametrize(
        "k, restarts, message",
        [(2.0, 1, "k must be an int, got 2.0"), (2, 1.0, "restarts must be an int, got 1.0")],
    )
    def test_counts_that_are_not_ints_refused(self, k, restarts, message):
        with pytest.raises(ValueError, match=message):
            lloyd_kmeans([(0.0,), (1.0,), (5.0,)], k, restarts=restarts)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_centroid_step_has_the_per_cluster_mean_bits(self, monkeypatch, d):
        # overlapping clusters, so each restart runs several centroid steps
        points = gen_dataset(
            "gaussian_mixture",
            {"n": 500, "k": 5, "d": d, "spread": 4.0, "separation": 10.0},
            seed=d,
        )
        calls = recording_nearest_sq(monkeypatch)
        result = lloyd_kmeans(points, 5, restarts=4, seed=d)
        reference_calls = recording_nearest_sq(monkeypatch)
        expected = reference_lloyd(points, 5, restarts=4, seed=d)
        assert result.assignment == expected.assignment
        assert result.cost == expected.cost
        # every center of every step, not only the chosen restart's labels;
        # every call with all 5 centers follows a step
        assert len(calls) == len(reference_calls)
        assert sum(len(c) == 5 for c, _ in calls) > 4 * 5
        for (c, _), (c_ref, _) in zip(calls, reference_calls):
            assert np.array_equal(c, c_ref)

    def test_empty_cluster_keeps_its_center(self, monkeypatch):
        # Seeded at -2, 0 and 2 on a line, the middle cluster takes -0.9 and
        # 0.9, whose mean is 0; the outer centers move to -1.2 and 1.2 and
        # then take both, so the middle cluster is empty from the second step.
        points = [(-1.2, 0.0)] * 4 + [(-0.9, 0.0), (0.9, 0.0)] + [(1.2, 0.0)] * 4
        seeds = np.array([[-2.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
        first, _ = nearest_sq(np.array(points), seeds)
        monkeypatch.setattr(
            oracle, "_seed_centers", lambda X, k, rng: (seeds.copy(), first.copy())
        )
        calls = recording_nearest_sq(monkeypatch)
        result = lloyd_kmeans(points, 3, restarts=1)
        # the patched seeding labels the points; the first two calls are Lloyd's steps
        (emptied, second), (kept, _) = calls[:2]
        assert 1 in first and 1 not in second
        assert emptied[1].tolist() == kept[1].tolist() == [0.0, 0.0]
        assert result.assignment == [0] * 5 + [1] * 5
        assert result == reference_lloyd(points, 3, restarts=1)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(20, 300),
        d=st.integers(2, 5),
        k=st.integers(1, 12),
        rounded=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_column_layout_keeps_the_reference_bits(self, n, d, k, rounded, seed):
        # Rounded coordinates put points at equal distances from two centers.
        rng = np.random.default_rng(seed)
        X = rng.normal(0.0, 5.0, size=(n, d))
        points = [tuple(p) for p in (np.round(X) if rounded else X).tolist()]
        expected = reference_lloyd(points, k, restarts=3, seed=seed)
        assert lloyd_kmeans(points, k, restarts=3, seed=seed) == expected
        assert lloyd_kmeans(np.asarray(points), k, restarts=3, seed=seed) == expected

    # n on both sides of the row count from which nearest_sq sums
    # center-major, c - x in place of x - c.
    @pytest.mark.parametrize("d", range(1, 6))
    @pytest.mark.parametrize(
        "n", [40, geometry._CENTER_MAJOR_MIN_ROWS - 1, geometry._CENTER_MAJOR_MIN_ROWS, 2000]
    )
    @pytest.mark.parametrize("rounded", [False, True])
    def test_seeding_has_the_nearest_sq_bits(self, d, n, rounded):
        # Rounded coordinates repeat points and tie distances; in d = 1 they
        # take fewer than 12 values, so the last seeds find no mass left.
        rng = np.random.default_rng(100 * d + n)
        X = rng.normal(0.0, 3.0, size=(n, d)) * 1e3 - 7e5
        X = np.asfortranarray(np.round(X / 3e3) if rounded else X)
        for c in X[:3]:
            assert np.array_equal(oracle._sq_to(X, c), nearest_sq(X, c[None, :])[1])
        for r, k in enumerate([1, 2, 5, 12]):
            seeded, labels = oracle._seed_centers(X, k, np.random.default_rng([d, r]))
            expected = reference_seed_centers(X, k, np.random.default_rng([d, r]))
            assert np.array_equal(seeded, expected)
            assert np.array_equal(labels, nearest_sq(X, expected)[0])

    def test_seeding_once_no_mass_is_left(self):
        # two locations for three seeds: the third is drawn uniformly
        assert lloyd_kmeans([(1.0,)] * 4 + [(2.0,)], 3).cost == 0.0

