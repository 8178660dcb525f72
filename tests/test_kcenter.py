import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nosubkm.cluster import ClusterConfig, OnlineClusterer
from nosubkm.geometry import dist
from nosubkm.kcenter import AugmentedCenter, KCenterSketch
from nosubkm.oracle import optimal_kmeans


def reference_insert(Z, P, k, x):
    """Straight-line transcription of the witness-radius update, kept
    independent of the library implementation. Z is a list of [point, count]
    pairs; P is 0.0 until k+1 distinct points have arrived."""
    nearest = min(range(len(Z)), key=lambda i: dist(Z[i][0], x))
    if dist(Z[nearest][0], x) <= 2 * P:
        Z[nearest][1] += 1
        return Z, P
    Z.append([x, 1])
    while len(Z) > k:
        P = max(P, min(dist(a[0], b[0]) for a, b in itertools.combinations(Z, 2)))
        kept = []
        for z, m in Z:
            if not kept:
                kept.append([z, m])
                continue
            j = min(range(len(kept)), key=lambda q: dist(kept[q][0], z))
            if dist(kept[j][0], z) > 2 * P:
                kept.append([z, m])
            else:
                kept[j][1] += m
        Z = kept
    return Z, P


def reference_init(points, k):
    """The first k points with exact duplicates counted once; P undefined."""
    Z = []
    for p in points[:k]:
        match = [pair for pair in Z if pair[0] == p]
        if match:
            match[0][1] += 1
        else:
            Z.append([p, 1])
    return Z, 0.0


class TestInit:
    def test_two_points(self):
        # k distinct points witness nothing (any k points cost 0): P stays
        # undefined until a (k+1)-th distinct point arrives.
        sketch = KCenterSketch([(0.0,), (10.0,)], 2)
        assert [(c.center, c.count) for c in sketch.centers] == [((0.0,), 1), ((10.0,), 1)]
        assert sketch.radius == 0.0

    def test_duplicates_excluded_from_radius(self):
        # The duplicate is absorbed, not kept as a zero-gap witness; P is
        # set later by the gap among k+1 distinct points.
        sketch = KCenterSketch([(0.0,), (0.0,), (5.0,)], 3)
        assert [(c.center, c.count) for c in sketch.centers] == [((0.0,), 2), ((5.0,), 1)]
        assert sketch.radius == 0.0
        sketch.insert((20.0,))
        sketch.insert((45.0,))
        assert [(c.center, c.count) for c in sketch.centers] == [
            ((0.0,), 3), ((20.0,), 1), ((45.0,), 1)
        ]
        assert sketch.radius == 5.0

    def test_all_coincident_is_degenerate(self):
        sketch = KCenterSketch([(7.0,), (7.0,)], 2)
        assert sketch.radius == 0.0

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            KCenterSketch([(0.0,)], 2)


class TestInsert:
    def test_absorb(self):
        sketch = KCenterSketch([(0.0,), (10.0,)], 2)
        sketch.insert((1.0,))  # third distinct point: P = 1, 1 folds into 0
        assert sketch.radius == 1.0
        sketch.insert((11.0,))  # within 2P of 10
        assert [(c.center, c.count) for c in sketch.centers] == [((0.0,), 2), ((10.0,), 2)]
        assert sketch.radius == 1.0

    def test_overflow_merges_and_doubles(self):
        # The overflow raises P to the witness gap among the k+1 centers
        # (10, more than twice the old P = 1), then folds at 2P.
        sketch = KCenterSketch([(0.0,), (10.0,)], 2)
        sketch.insert((1.0,))
        sketch.insert((11.0,))
        sketch.insert((100.0,))
        assert [(c.center, c.count) for c in sketch.centers] == [((0.0,), 4), ((100.0,), 1)]
        assert sketch.radius == 10.0

    def test_exact_duplicate_absorbs(self):
        sketch = KCenterSketch([(0.0,), (10.0,)], 2)
        before = sketch.radius
        sketch.insert((10.0,))
        assert sketch.centers[1].count == 2
        assert sketch.radius == before

    def test_degenerate_recovers_on_first_distinct(self):
        # Recovers on the first arrival that makes k+1 distinct points.
        sketch = KCenterSketch([(7.0,), (7.0,)], 2)
        sketch.insert((7.0,))
        assert sketch.radius == 0.0
        sketch.insert((9.0,))
        assert sketch.radius == 0.0
        assert [(c.center, c.count) for c in sketch.centers] == [((7.0,), 3), ((9.0,), 1)]
        sketch.insert((12.0,))
        assert sketch.radius == 2.0
        assert [(c.center, c.count) for c in sketch.centers] == [((7.0,), 4), ((12.0,), 1)]

    def test_matches_reference_on_random_streams(self):
        rng = np.random.default_rng(41)
        for trial in range(30):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(k + 1, 80))
            d = int(rng.integers(1, 4))
            scale = 10 ** int(rng.integers(0, 4))
            pts = [tuple(rng.uniform(0, scale, size=d)) for _ in range(n)]
            sketch = KCenterSketch(pts[:k], k)
            Z, P = reference_init(pts, k)
            for x in pts[k:]:
                sketch.insert(x)
                Z, P = reference_insert(Z, P, k, x)
                assert sketch.radius == P
                assert [(c.center, c.count) for c in sketch.centers] == [
                    (z, m) for z, m in Z
                ]


class TestQueries:
    def test_min_center_gap(self):
        sketch = KCenterSketch([(0.0,), (10.0,)], 2)
        assert sketch.min_center_gap() == 10.0

    def test_min_center_gap_three(self):
        sketch = KCenterSketch([(0.0,), (4.0,), (100.0,)], 3)
        assert sketch.min_center_gap() == 4.0

    def test_min_center_gap_singleton(self):
        sketch = KCenterSketch([(0.0,)], 1)
        assert sketch.min_center_gap() == math.inf

    def test_nearest_center(self):
        sketch = KCenterSketch([(0.0,), (10.0,)], 2)
        center, d = sketch.nearest_center((3.0,))
        assert center.center == (0.0,) and d == 3.0

    def test_nearest_tie_breaks_to_earlier_birth(self):
        sketch = KCenterSketch([(0.0,), (10.0,)], 2)
        center, d = sketch.nearest_center((5.0,))
        assert center.birth == 1 and d == 5.0

    def test_nearest_exact_match(self):
        sketch = KCenterSketch([(0.0,), (10.0,)], 2)
        center, d = sketch.nearest_center((10.0,))
        assert center.center == (10.0,) and d == 0.0


def sketch_state(sketch):
    return (
        sketch.t,
        sketch.radius,
        sketch._gap,
        [(c.center, c.count, c.birth) for c in sketch.centers],
    )


# A few repeated values give exact duplicates; a wide range forces merges.
stream_value = st.one_of(st.sampled_from([0.0, 1.0, 3.0]), st.floats(-1e4, 1e4))


class TestGapCache:
    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 5),
        dim=st.integers(1, 2),
        values=st.lists(stream_value, min_size=12, max_size=80),
    )
    def test_matches_recomputation_after_every_insert(self, k, dim, values):
        pts = [tuple(values[i : i + dim]) for i in range(0, len(values) - dim + 1, dim)]
        sketch = KCenterSketch(pts[:k], k)
        # check() compares the cached gap with a recomputed one
        sketch.min_center_gap()
        sketch.check()
        for x in pts[k:]:
            sketch.insert(x)
            sketch.min_center_gap()
            sketch.check()

    def test_streams_exercise_merges_and_duplicates(self):
        rng = np.random.default_rng(46)
        merges = duplicates = 0
        for trial in range(20):
            k = int(rng.integers(2, 5))
            pool = rng.uniform(0, 10 ** rng.integers(1, 4), size=(15, 2))
            pts = [tuple(pool[i]) for i in rng.integers(0, 15, size=100)]
            sketch = KCenterSketch(pts[:k], k)
            for x in pts[k:]:
                radius, centers = sketch.radius, [c.center for c in sketch.centers]
                sketch.insert(x)
                merges += sketch.radius != radius
                duplicates += x in centers
                sketch.min_center_gap()
                sketch.check()
        assert merges > 10 and duplicates > 100


class TestRejectsInvalidInsert:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(stream_value, min_size=3, max_size=30),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
        fill_cache=st.booleans(),
    )
    def test_non_finite_leaves_sketch_unchanged(self, values, bad, fill_cache):
        pts = [(v,) for v in values]
        sketch = KCenterSketch(pts[:2], 2)
        for x in pts[2:]:
            sketch.insert(x)
        if fill_cache:
            sketch.min_center_gap()
        before = sketch_state(sketch)
        with pytest.raises(ValueError):
            sketch.insert((bad,))
        assert sketch_state(sketch) == before

    @pytest.mark.parametrize("big", [1e160, -1e101])
    def test_huge_coordinate_leaves_sketch_unchanged(self, big):
        sketch = KCenterSketch([(0.0,), (10.0,)], 2)
        sketch.insert((3.0,))
        before = sketch_state(sketch)
        with pytest.raises(ValueError, match="beyond"):
            sketch.insert((big,))
        assert sketch_state(sketch) == before

    def test_dimension_mismatch_leaves_sketch_unchanged(self):
        sketch = KCenterSketch([(0.0,), (10.0,)], 2)
        before = sketch_state(sketch)
        with pytest.raises(ValueError):
            sketch.insert((1.0, 2.0))
        assert sketch_state(sketch) == before


class TestInvariants:
    def test_size_counts_radius_coverage(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            k = int(rng.integers(2, 6))
            pts = [tuple(rng.uniform(0, 1000, size=2)) for _ in range(120)]
            sketch = KCenterSketch(pts[:k], k)
            prev_radius = sketch.radius
            for t in range(k + 1, len(pts) + 1):
                sketch.insert(pts[t - 1])
                sketch.check(pts[:t])
                assert sketch.radius >= prev_radius
                prev_radius = sketch.radius

    def test_spread_witnesses_exist_after_first_merge(self):
        # Once P is defined, some k+1 stream points are pairwise >= P apart:
        # the k+1 centers whose minimum gap last set it. (During warm-up,
        # before k+1 distinct arrivals, P is 0 and nothing is checked.)
        rng = np.random.default_rng(43)
        k = 2
        found_checks = 0
        for trial in range(40):
            pts = [tuple(rng.uniform(0, 100, size=2)) for _ in range(20)]
            sketch = KCenterSketch(pts[:k], k)
            init_radius = sketch.radius
            for t in range(k + 1, 21):
                sketch.insert(pts[t - 1])
                if sketch.radius == init_radius:
                    continue
                found_checks += 1
                target = sketch.radius
                witnesses = any(
                    all(
                        dist(a, b) >= target - 1e-9 * target
                        for a, b in itertools.combinations(combo, 2)
                    )
                    for combo in itertools.combinations(pts[:t], k + 1)
                )
                assert witnesses, f"no k+1 witnesses at t={t}"
        assert found_checks > 50

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 4),
        growth=st.floats(1.0, 2.5),
        signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=2, max_size=50),
        values=st.lists(stream_value, min_size=2, max_size=50),
        slow=st.booleans(),
    )
    def test_folds_more_than_double_and_cover_within_4p(
        self, k, growth, signs, values, slow
    ):
        # Streams whose gaps grow slowly (ratio near 1) are the risky case
        # for coverage: it holds only because P more than doubles per fold.
        if slow:
            pts = [(s * growth**i,) for i, s in enumerate(signs)]
        else:
            pts = [tuple(values[i : i + 2]) for i in range(0, len(values) - 1, 2)]
        assume(len(pts) >= k)
        sketch = KCenterSketch(pts[:k], k)
        for t in range(k, len(pts) + 1):
            if t > k:
                prev = sketch.radius
                sketch.insert(pts[t - 1])
                assert sketch.radius == prev or sketch.radius > 2.0 * prev
            sketch.check(pts[:t])

    def test_optimal_cost_sandwich_attainable(self):
        # Upper half always: the centers cover every prefix point within 4P,
        # so the optimal k-means cost of the prefix is at most 16 t P^2.
        # Lower half once P is defined: the k+1 witnesses pairwise >= P put
        # two points in one optimal cluster, so the optimal cost is at least
        # P^2/2. This checks P^2/8; acceptance criterion 4 checks P^2/2.
        rng = np.random.default_rng(44)
        k = 2
        post_merge_checks = 0
        for trial in range(25):
            pts = [tuple(rng.uniform(0, 50, size=2)) for _ in range(12)]
            sketch = KCenterSketch(pts[:k], k)
            init_radius = sketch.radius
            for t in range(k + 1, 13):
                sketch.insert(pts[t - 1])
                opt = optimal_kmeans(pts[:t], k).cost
                bound = 16.0 * t * sketch.radius**2
                assert opt <= bound * (1 + 1e-9)
                if sketch.radius != init_radius:
                    post_merge_checks += 1
                    assert opt >= sketch.radius**2 / 8.0 * (1 - 1e-9)
        assert post_merge_checks > 30

    def test_deterministic(self):
        rng = np.random.default_rng(45)
        pts = [tuple(rng.uniform(0, 10, size=3)) for _ in range(60)]
        a = KCenterSketch(pts[:3], 3)
        b = KCenterSketch(pts[:3], 3)
        for x in pts[3:]:
            a.insert(x)
            b.insert(x)
        assert a.radius == b.radius
        assert [(c.center, c.count, c.birth) for c in a.centers] == [
            (c.center, c.count, c.birth) for c in b.centers
        ]


class TestSeparatedCounts:
    def test_counts_match_optimal_sizes_when_separated(self):
        # Two tight groups far apart, first two arrivals from one group: the
        # gap/radius hypothesis holds at the end and counts are exact.
        pts = (
            [(0.0,), (1.0,)]
            + [(0.5,), (0.2,)]
            + [(1000.0,), (1000.4,), (1000.9,)]
        )
        k = 2
        sketch = KCenterSketch(pts[:k], k)
        for x in pts[k:]:
            sketch.insert(x)
        t = len(pts)
        assert sketch.min_center_gap() > 4 * (t + 2) * sketch.radius
        counts = sorted(c.count for c in sketch.centers)
        opt = optimal_kmeans(pts, k)
        assert counts == sorted(opt.assignment.count(c) for c in range(len(opt.centers)))


class TestClustererSketch:
    # The clusterer inserts each arrival with `_insert`, which skips the
    # point check its caller made; its sketch is the one `insert` builds.
    @pytest.mark.parametrize("by_run", [False, True])
    @pytest.mark.parametrize("d", [1, 2])
    def test_equals_a_sketch_fed_by_insert(self, by_run, d):
        # wide scales fold the sketch many times; 1,500 arrivals open
        # windows on the _run path
        rng = np.random.default_rng(60 + d)
        pts = [tuple(rng.uniform(0, 10 ** rng.integers(0, 4), size=d)) for _ in range(1500)]
        clusterer = OnlineClusterer(ClusterConfig(k=3, seed=2))
        if by_run:
            clusterer._run(pts)
        else:
            for x in pts:
                clusterer.process(x)
        sketch = KCenterSketch(pts[:3], 3)
        folds = 0
        for x in pts[3:]:
            radius = sketch.radius
            sketch.insert(x)
            folds += sketch.radius != radius
        assert folds >= 3
        # t, P and every center's point, count and birth; not the gap
        # cache, which only a min_center_gap call fills
        got, expected = sketch_state(clusterer.sketch), sketch_state(sketch)
        assert got[:2] + got[3:] == expected[:2] + expected[3:]


def live_sketch():
    """A sketch after several folds with its gap cached, and its prefix."""
    rng = np.random.default_rng(47)
    pts = [tuple(rng.uniform(0, 10 ** rng.integers(0, 4), size=2)) for _ in range(80)]
    sketch = KCenterSketch(pts[:3], 3)
    for x in pts[3:]:
        sketch.insert(x)
    sketch.min_center_gap()
    return sketch, pts


def swap_births(sketch):
    first, second = sketch.centers[:2]
    first.birth, second.birth = second.birth, first.birth


class TestCheck:
    def test_passes_on_a_live_sketch(self):
        sketch, pts = live_sketch()
        assert sketch.radius > 0.0 and len(sketch) == 3
        sketch.check(pts)

    # Each mutation breaks one invariant of a live sketch.
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda s: s.centers.append(AugmentedCenter((1e9, 1e9), 0, s.t)), "more than k"),
            (lambda s: setattr(s.centers[1], "count", s.centers[1].count + 1), "counts sum"),
            (swap_births, "births"),
            (lambda s: setattr(s.centers[-1], "birth", s.t + 1), "births"),
            (lambda s: setattr(s.centers[0], "birth", 0), "births"),
            (lambda s: setattr(s, "_gap", math.nextafter(s._gap, math.inf)), "cached gap"),
            (lambda s: setattr(s, "radius", s.min_center_gap() / 2.0), "above 2P"),
            (lambda s: setattr(s, "radius", s.radius / 4.0), "beyond 4P"),
        ],
    )
    def test_raises_on_a_broken_invariant(self, mutate, message):
        sketch, pts = live_sketch()
        mutate(sketch)
        with pytest.raises(AssertionError, match=message):
            sketch.check(pts)

    def test_prefix_of_another_length_is_an_error(self):
        sketch, pts = live_sketch()
        with pytest.raises(ValueError):
            sketch.check(pts[:-1])
