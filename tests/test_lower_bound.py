import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nosubkm
from nosubkm import geometry, lower_bound
from nosubkm.geometry import EXACT_PARTITION_LIMIT, _greedy_partition_diameter, diameter, dist
from nosubkm.lower_bound import (
    SequenceOverflowError,
    adversarial_order,
    gen_alpha_k_sequence,
    is_alpha_k_sequence,
    lower_estimate,
    lower_exact,
    lower_greedy,
)

POINTS_0_1_7_50 = [(0.0,), (1.0,), (7.0,), (50.0,)]


class TestCertification:
    def test_up_to_k_distinct_points_always_qualify(self):
        pts = [(3.0,), (8.0,)]
        assert is_alpha_k_sequence(pts, [0, 1], 100.0, 2)
        assert is_alpha_k_sequence(pts, [1, 0], 2.0, 3)

    def test_hand_checked_accept(self):
        # step 3 needs d > sqrt(27) * 1 ~ 5.196 (7 qualifies at 6);
        # step 4 needs d > 6 * 7 = 42 (50 qualifies at 43)
        assert is_alpha_k_sequence(POINTS_0_1_7_50, [0, 1, 2, 3], 9.0, 2)

    def test_hand_checked_reject(self):
        pts = [(0.0,), (1.0,), (7.0,), (43.0,)]
        # step 4: min distance 36 <= 42
        assert not is_alpha_k_sequence(pts, [0, 1, 2, 3], 9.0, 2)
        assert is_alpha_k_sequence(pts, [0, 1, 2], 9.0, 2)

    def test_duplicate_value_rejected(self):
        pts = [(2.0,), (2.0,)]
        assert not is_alpha_k_sequence(pts, [0, 1], 9.0, 2)

    def test_repeated_index_is_error(self):
        with pytest.raises(ValueError):
            is_alpha_k_sequence(POINTS_0_1_7_50, [0, 0, 1], 9.0, 2)

    def test_alpha_must_exceed_one(self):
        with pytest.raises(ValueError):
            is_alpha_k_sequence(POINTS_0_1_7_50, [0, 1], 1.0, 2)

    @pytest.mark.parametrize("alpha", [math.nan, -math.inf, 1.0])
    def test_alpha_that_is_not_above_one_is_rejected_everywhere(self, alpha):
        # The order fails at alpha = 9; a NaN alpha used to certify it.
        pts = [(0.0,), (1.0,), (7.0,), (43.0,)]
        with pytest.raises(ValueError, match="alpha"):
            is_alpha_k_sequence(pts, [0, 1, 2, 3], alpha, 2)
        for search in (lower_exact, lower_greedy):
            with pytest.raises(ValueError, match="alpha"):
                search(pts, alpha, 2)

    def test_infinite_alpha_is_rejected(self):
        # A duplicate after one point would meet a threshold of inf * 0 = NaN.
        pts = [(2.0,), (2.0,)]
        with pytest.raises(ValueError, match="alpha"):
            is_alpha_k_sequence(pts, [0, 1], math.inf, 2)
        with pytest.raises(ValueError, match="alpha"):
            gen_alpha_k_sequence(2, math.inf, 3)
        for search in (lower_exact, lower_greedy):
            with pytest.raises(ValueError, match="alpha"):
                search(pts, math.inf, 2)

    def test_strictness_at_equality(self):
        # distance exactly equal to the threshold must fail
        pts = [(0.0,), (1.0,), (1.0 + math.sqrt(27),)]
        assert not is_alpha_k_sequence(pts, [0, 1, 2], 9.0, 2)


class TestLowerExact:
    def test_k_distinct_points(self):
        assert len(lower_exact([(0.0,), (4.0,)], 9.0, 2)) == 2

    def test_hand_built_instance(self):
        seq = lower_exact(POINTS_0_1_7_50, 9.0, 2)
        assert len(seq) == 4
        assert is_alpha_k_sequence(POINTS_0_1_7_50, seq, 9.0, 2)

    def test_all_duplicates(self):
        pts = [(5.0,)] * 6
        assert len(lower_exact(pts, 9.0, 2)) == 1

    def test_over_limit_refuses(self):
        pts = [(float(i),) for i in range(11)]
        with pytest.raises(ValueError, match="lower_greedy"):
            lower_exact(pts, 9.0, 2)

    def test_certified_output(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            pts = [tuple(rng.uniform(0, 100, size=1)) for _ in range(7)]
            seq = lower_exact(pts, 9.0, 2)
            assert is_alpha_k_sequence(pts, seq, 9.0, 2)

    def test_brute_force_cross_check(self):
        # independent oracle: try every ordered arrangement of every subset
        import itertools

        def brute(points, alpha, k):
            best = 0
            n = len(points)
            for size in range(1, n + 1):
                for subset in itertools.combinations(range(n), size):
                    for order in itertools.permutations(subset):
                        try:
                            ok = is_alpha_k_sequence(points, list(order), alpha, k)
                        except ValueError:
                            ok = False
                        if ok:
                            best = max(best, size)
                            break
                    if best == size:
                        break
            return best

        rng = np.random.default_rng(62)
        for _ in range(8):
            pts = [tuple(rng.uniform(0, 40, size=1)) for _ in range(6)]
            assert len(lower_exact(pts, 9.0, 2)) == brute(pts, 9.0, 2)
        for _ in range(4):
            pts = [tuple(rng.uniform(0, 40, size=2)) for _ in range(5)]
            assert len(lower_exact(pts, 4.0, 3)) == brute(pts, 4.0, 3)


class TestLowerGreedy:
    def test_always_certified(self):
        rng = np.random.default_rng(63)
        for _ in range(30):
            n = int(rng.integers(1, 15))
            pts = [tuple(rng.uniform(0, 1000, size=2)) for _ in range(n)]
            seq = lower_greedy(pts, 9.0, 2)
            assert is_alpha_k_sequence(pts, seq, 9.0, 2)

    def test_never_exceeds_exact(self):
        rng = np.random.default_rng(64)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            pts = [tuple(rng.uniform(0, 100, size=1)) for _ in range(n)]
            assert len(lower_greedy(pts, 9.0, 2)) <= len(lower_exact(pts, 9.0, 2))

    def test_recovers_generated_sequence(self):
        pts = gen_alpha_k_sequence(2, 9.0, 8, seed=3)
        shuffled = [pts[i] for i in np.random.default_rng(0).permutation(len(pts))]
        assert len(lower_greedy(shuffled, 9.0, 2)) >= 2

    def test_empty(self):
        assert lower_greedy([], 9.0, 2) == ()


class TestOneCenter:
    # At k = 1 the threshold past the first point is infinite, so no
    # sequence is longer than one point.
    def test_two_distinct_points_do_not_certify(self):
        assert not is_alpha_k_sequence([(0.0,), (5.0,)], [0, 1], 9.0, 1)

    def test_searches_stop_at_the_first_point(self):
        pts = [(0.0,), (1.0,), (7.0,), (50.0,)]
        assert lower_exact(pts, 9.0, 1) == (0,)
        assert lower_greedy(pts, 9.0, 1) == (0,)

    def test_estimate_beyond_the_search_limit(self):
        pts = [(float(3**i),) for i in range(12)]
        assert lower_estimate(pts, 9.0, 1) == ((0,), False)


class TestAdversarialOrder:
    def test_identity_when_already_certified(self):
        sequence = lower_estimate(POINTS_0_1_7_50, 9.0, 2)[0]
        assert adversarial_order(POINTS_0_1_7_50, sequence) == [0, 1, 2, 3]

    def test_shuffled_instance_restored_as_prefix(self):
        rng = np.random.default_rng(65)
        for _ in range(10):
            perm = rng.permutation(4)
            shuffled = [POINTS_0_1_7_50[i] for i in perm]
            order = adversarial_order(shuffled, lower_estimate(shuffled, 9.0, 2)[0])
            assert sorted(order) == [0, 1, 2, 3]
            assert is_alpha_k_sequence(shuffled, order[:4], 9.0, 2)

    def test_prefix_certifies_in_general(self):
        rng = np.random.default_rng(66)
        for _ in range(15):
            n = int(rng.integers(3, 9))
            pts = [tuple(rng.uniform(0, 500, size=1)) for _ in range(n)]
            order = adversarial_order(pts, lower_estimate(pts, 9.0, 2)[0])
            assert sorted(order) == list(range(n))
            length = len(lower_exact(pts, 9.0, 2))
            assert is_alpha_k_sequence(pts, order[:length], 9.0, 2)

    def test_large_instance_uses_greedy(self):
        rng = np.random.default_rng(67)
        pts = [tuple(rng.uniform(0, 100, size=2)) for _ in range(60)]
        order = adversarial_order(pts, lower_estimate(pts, 9.0, 2)[0])
        assert sorted(order) == list(range(60))


class TestGenerator:
    def test_output_certified(self):
        for seed in range(5):
            pts = gen_alpha_k_sequence(2, 9.0, 9, seed=seed)
            assert is_alpha_k_sequence(pts, list(range(len(pts))), 9.0, 2)

    def test_k3_output_certified(self):
        pts = gen_alpha_k_sequence(3, 4.0, 8, seed=1)
        assert is_alpha_k_sequence(pts, list(range(len(pts))), 4.0, 3)

    def test_length_equals_k(self):
        pts = gen_alpha_k_sequence(3, 9.0, 3, seed=0)
        assert pts == [(0.0,), (1.0,), (2.0,)]

    def test_growth_shape(self):
        pts = gen_alpha_k_sequence(2, 9.0, 4, margin=1.0000001, seed=0)
        coords = [p[0] for p in pts]
        # ~ (0, 1, 1 + sqrt(27), ...): the same growth as the 0,1,7,50 family
        assert coords[2] == pytest.approx(1 + math.sqrt(27), rel=0.5)
        assert coords[3] == pytest.approx(coords[2] * 7, rel=0.5)

    def test_overflow_reports_achievable_length(self):
        with pytest.raises(SequenceOverflowError) as info:
            gen_alpha_k_sequence(2, 9.0, 400, seed=0)
        assert 10 < info.value.achievable < 400

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gen_alpha_k_sequence(1, 9.0, 5)
        with pytest.raises(ValueError):
            gen_alpha_k_sequence(2, 9.0, 1)
        with pytest.raises(ValueError):
            gen_alpha_k_sequence(2, 9.0, 5, margin=0.9)

    @pytest.mark.parametrize("margin", [math.nan, math.inf])
    def test_non_finite_margin_refused(self, margin):
        with pytest.raises(ValueError, match="margin"):
            gen_alpha_k_sequence(2, 9.0, 5, margin=margin)


# Reference: the subset search and the exact fold diameter as they were
# written on point tuples, before both moved onto one table of distances.
# lower_exact and l_fold_diameter must give the same values, bit for bit.


def reference_partition_diameter(points, l):
    n = len(points)
    best = _greedy_partition_diameter(points, l)
    parts = []
    part_diam = []

    def recurse(i, cur_max):
        nonlocal best
        if cur_max >= best:
            return
        if i == n:
            best = cur_max
            return
        for pi in range(len(parts)):
            grown = max(part_diam[pi], max(dist(points[i], points[j]) for j in parts[pi]))
            if grown < best:
                parts[pi].append(i)
                old = part_diam[pi]
                part_diam[pi] = grown
                recurse(i + 1, max(cur_max, grown))
                part_diam[pi] = old
                parts[pi].pop()
        if len(parts) < l:
            parts.append([i])
            part_diam.append(0.0)
            recurse(i + 1, cur_max)
            parts.pop()
            part_diam.pop()

    recurse(0, 0.0)
    return best


def reference_fold_diameter(points, l):
    if len(points) <= l:
        return 0.0
    if l == 1:
        return diameter(points)
    if len(points) <= EXACT_PARTITION_LIMIT:
        return reference_partition_diameter(points, l)
    return _greedy_partition_diameter(points, l)


def reference_lower_exact(points, alpha, k):
    def threshold(prefix, position):
        if k < 2:
            return math.inf if prefix else 0.0
        if len(prefix) < k:
            return 0.0
        return math.sqrt(position * alpha) * reference_fold_diameter(prefix, k - 1)

    n = len(points)
    assert n <= lower_bound.EXACT_SEARCH_LIMIT
    if n == 0:
        return ()
    parent = {1 << i: None for i in range(n)}
    frontier = sorted(parent)
    best_mask = frontier[0]
    while frontier:
        next_frontier = []
        for mask in frontier:
            members = [j for j in range(n) if mask >> j & 1]
            prefix = [points[j] for j in members]
            bar = threshold(prefix, len(members) + 1)
            for j in range(n):
                if mask >> j & 1:
                    continue
                grown = mask | (1 << j)
                if grown in parent:
                    continue
                if min(dist(points[j], p) for p in prefix) > bar:
                    parent[grown] = (mask, j)
                    next_frontier.append(grown)
        if next_frontier:
            best_mask = next_frontier[0]
        frontier = sorted(next_frontier)
    order = []
    mask = best_mask
    while parent[mask] is not None:
        prev, j = parent[mask]
        order.append(j)
        mask = prev
    order.append(mask.bit_length() - 1)
    order.reverse()
    return tuple(order)


# Coordinates from a small grid with super-exponential steps mixed in, so that
# instances have exact duplicates, tied distances and long spread sequences.
grid_coord = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 7.0, 8.0, 50.0, 51.0, 400.0, 3000.0, 25000.0])


@st.composite
def instances(draw, max_size=9):
    dim = draw(st.integers(1, 2))
    pts = draw(st.lists(st.tuples(*[grid_coord] * dim), min_size=0, max_size=max_size))
    return pts, draw(st.sampled_from([1.5, 4.0, 9.0])), draw(st.integers(1, 4))


class TestReferenceEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(instances())
    def test_lower_exact_matches_reference(self, case):
        pts, alpha, k = case
        assert lower_exact(pts, alpha, k) == reference_lower_exact(pts, alpha, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_generated_instances_match_reference(self, k, dim):
        rng = np.random.default_rng(100 * k + dim)
        for trial in range(6):
            n = int(rng.integers(4, 11))
            if trial % 3 == 0:
                # a shuffled spread sequence, so the sequences are long
                line = gen_alpha_k_sequence(max(k, 2), 4.0, n, seed=trial)
                pts = [p + (0.0,) * (dim - 1) for p in line]
                pts = [pts[i] for i in rng.permutation(n)]
            else:
                pts = [tuple(rng.normal(0, 10, size=dim)) for _ in range(n)]
                if trial % 3 == 2:
                    pts[-1] = pts[0]  # an exact duplicate
            expected = reference_lower_exact(pts, 4.0, k)
            assert lower_exact(pts, 4.0, k) == expected
            assert is_alpha_k_sequence(pts, expected, 4.0, k)

    def test_subset_whose_fold_diameter_does_not_grow(self):
        # k=3: a unit equilateral triangle has 2-fold diameter 1, and so has
        # the triangle plus one far point. The fifth point must pass against
        # that 4-point subset although its fold diameter equals its parent's.
        h = math.sqrt(3) / 2
        pts = [(0.0, 0.0), (1.0, 0.0), (0.5, h), (-3.0, 0.0), (5.0, 0.0)]
        seq = lower_exact(pts, 1.5, 3)
        assert len(seq) == 5
        assert seq == reference_lower_exact(pts, 1.5, 3)

    def test_mixed_dimensions_raise(self):
        with pytest.raises(ValueError, match="dimension"):
            lower_exact([(0.0,), (1.0, 2.0), (3.0,)], 9.0, 2)
        with pytest.raises(ValueError, match="dimension"):
            lower_exact([(0.0, 1.0), (1.0, 2.0), (3.0,)], 9.0, 1)

    @settings(max_examples=150, deadline=None)
    @given(instances(max_size=14), st.integers(1, 4))
    def test_l_fold_diameter_matches_reference(self, case, l):
        pts, _, _ = case
        if pts:
            assert geometry.l_fold_diameter(pts, l) == reference_fold_diameter(pts, l)

    def test_l_fold_diameter_matches_reference_on_random_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 15))
            dim = int(rng.integers(1, 4))
            pts = [tuple(rng.normal(0, 5, size=dim)) for _ in range(n)]
            for l in (1, 2, 3, 4):
                assert geometry.l_fold_diameter(pts, l) == reference_fold_diameter(pts, l)

    @pytest.mark.parametrize("m", [11, 12])
    def test_l_fold_diameter_matches_reference_at_the_limit(self, m):
        # The cases above rarely reach 11 or 12 points, where the inner
        # layers split the subsets of 10 and 11 points.
        assert m <= EXACT_PARTITION_LIMIT
        rng = np.random.default_rng(40 + m)
        sets = [
            [tuple(rng.normal(0, 10, size=2)) for _ in range(m)],
            [tuple(rng.normal(0, 10, size=3)) for _ in range(m)],
            # duplicates and tied distances
            [tuple(rng.choice([0.0, 1.0, 5.0], size=2)) for _ in range(m)],
            # two and three distinct points, fewer than most l
            [(float(i % 2),) for i in range(m)],
            [(float(i % 3), 1.0) for i in rng.permutation(m)],
            # equal gaps, in order and shuffled
            [(3.0 * i,) for i in range(m)],
            [(0.5 * i, 0.0) for i in rng.permutation(m)],
        ]
        for pts in sets:
            for l in range(2, 7):
                expected = reference_partition_diameter(pts, l)
                assert geometry.l_fold_diameter(pts, l) == expected, (pts, l)


class TestSubsetTables:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_ten_points_match_reference(self, k):
        # The hypothesis case stops at 9 points. At k = 5 and 6 the fold
        # table takes three and four passes over the split table.
        rng = np.random.default_rng(300 + k)
        for trial in range(6):
            dim = 1 + trial % 3
            if trial % 3 == 0:
                line = gen_alpha_k_sequence(k, 1.5, 10, seed=trial)
                pts = [p + (0.0,) * (dim - 1) for p in line]
                pts = [pts[i] for i in rng.permutation(10)]
            elif trial % 3 == 1:
                # grid values: duplicates and tied distances
                pts = [tuple(rng.choice([0.0, 1.0, 2.0, 7.0, 50.0], size=dim)) for _ in range(10)]
            else:
                pts = [tuple(rng.normal(0, 10, size=dim)) for _ in range(10)]
            for alpha in (1.5, 4.0):
                expected = reference_lower_exact(pts, alpha, k)
                assert lower_exact(pts, alpha, k) == expected, (trial, alpha)

    def test_fold_table_matches_partition_search(self):
        rng = np.random.default_rng(17)
        pts = [tuple(rng.normal(0, 10, size=2)) for _ in range(8)]
        table = np.array(geometry.distance_table(pts))
        diam = np.array([
            max((table[i, j] for i in members for j in members), default=0.0)
            for members in ([j for j in range(8) if mask >> j & 1] for mask in range(1 << 8))
        ])
        fold = diam
        for l in range(2, 6):
            fold = geometry.min_over_splits(diam, fold, np.maximum)
            for mask in range(1, 1 << 8):
                members = [pts[j] for j in range(8) if mask >> j & 1]
                assert fold[mask] == reference_fold_diameter(members, l), (l, mask)

    def test_one_call_within_budget(self):
        # The split table (about 126 kB) is built inside the measured call.
        # Its fold pass takes at most _FOLD_CHUNK masks at a time; one pass
        # over all 29,524 splits would hold about 700 kB of temporaries.
        rng = np.random.default_rng(5)
        pts = [tuple(rng.normal(0, 10, size=2)) for _ in range(10)]
        lower_exact(pts[:5], 9.0, 4)  # numpy's lazily loaded helpers
        geometry._splits.cache_clear()
        tracemalloc.start()
        try:
            lower_exact(pts, 9.0, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 512 << 10

    def test_twelve_point_fold_within_budget(self):
        # At 12 points and l = 3 the inner layers split the subsets of 11
        # points, so the call builds the 11-point split table (88,573
        # splits, 371 kB kept, 903 kB at the peak of its build). The call
        # measured 936 kB (Python 3.11.7, numpy 2.4.6).
        rng = np.random.default_rng(5)
        pts = [tuple(rng.normal(0, 10, size=2)) for _ in range(12)]
        geometry.l_fold_diameter(pts[:11], 3)  # numpy's lazily loaded helpers
        geometry._splits.cache_clear()
        tracemalloc.start()
        try:
            geometry.l_fold_diameter(pts, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20

    def test_two_part_fold_needs_no_split_table(self):
        rng = np.random.default_rng(6)
        pts = [tuple(rng.normal(0, 10, size=2)) for _ in range(EXACT_PARTITION_LIMIT)]
        geometry._splits.cache_clear()
        geometry.l_fold_diameter(pts, 2)
        assert geometry._splits.cache_info().currsize == 0

    def test_small_fold_builds_the_table_it_needs(self):
        # Five points at l = 4 split the subsets of the last four points
        # only, so the 4-point table (40 splits) is the one built.
        rng = np.random.default_rng(7)
        pts = [tuple(rng.normal(0, 10, size=2)) for _ in range(5)]
        geometry._splits.cache_clear()
        geometry.l_fold_diameter(pts, 4)
        info = geometry._splits.cache_info()
        assert info.currsize == 1
        geometry._splits(4)
        assert geometry._splits.cache_info().hits == info.hits + 1

    def test_import_builds_no_table(self):
        script = (
            "import nosubkm\nfrom nosubkm import geometry\n"
            "print(geometry._splits.cache_info().currsize)"
        )
        src = str(Path(nosubkm.__file__).parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "0\n"


class TestLowerEstimate:
    def test_every_subset_the_exact_search_scores_has_an_exact_fold_diameter(self):
        # lower_exact's fold table is exact on every subset; the certifier's
        # l_fold_diameter is exact only up to EXACT_PARTITION_LIMIT points.
        # So the two agree on every subset the search scores, and every
        # sequence it returns certifies.
        assert lower_bound.EXACT_SEARCH_LIMIT <= EXACT_PARTITION_LIMIT

    def test_exact_up_to_the_search_limit(self):
        rng = np.random.default_rng(12)
        pts = [tuple(rng.uniform(0, 100, size=1)) for _ in range(lower_bound.EXACT_SEARCH_LIMIT)]
        assert lower_estimate(pts, 9.0, 2) == (lower_exact(pts, 9.0, 2), True)

    def test_greedy_beyond_it(self):
        rng = np.random.default_rng(13)
        pts = [tuple(rng.uniform(0, 100, size=1)) for _ in range(lower_bound.EXACT_SEARCH_LIMIT + 1)]
        assert lower_estimate(pts, 9.0, 2) == (lower_greedy(pts, 9.0, 2), False)
