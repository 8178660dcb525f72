"""Acceptance suite: one test per exit criterion, printing one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Criteria 4 and 6 both rest on one lower bound on the sketch radius,
optimal prefix cost >= P^2/2 (criterion 6's ceiling R <= OPT/(12 k ln(k+10))
reduces to it, because R = P^2/(24 k ln(k+10))). The sketch earns it by
setting P to the minimum gap among k+1 distinct centers, the witnesses, and
leaving P at 0 until there are k+1. At t = k+1 the prefix is the witnesses
themselves and the bound is an equality in exact arithmetic, so both
criteria compare the lower-bound side with a relative slack of 1e-12: it
absorbs rounding of that tie (measured at under 2 ulps) and nothing else.
"""

import math

import numpy as np
import pytest

from nosubkm.geometry import dist
from nosubkm.harness import TrialSpec, materialize_stream, run_experiment, run_trial
from nosubkm.kcenter import KCenterSketch
from nosubkm.lower_bound import is_alpha_k_sequence, lower_exact, lower_greedy
from nosubkm.oracle import optimal_kmeans


def _announce(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {detail} -> {status}")


def _mixed_spec(index: int, seed: int) -> TrialSpec:
    """One entry of the criterion-1 ensemble: n <= 12, k = 2, d in {1, 2},
    three generators crossed with three orderings."""
    generator = ("uniform_box", "gaussian_mixture", "alpha_k_sequence")[index % 3]
    ordering = ("given", "shuffled", "adversarial")[(index // 3) % 3]
    d = 1 + (index // 9) % 2
    n = 6 + index % 7  # 6..12
    if generator == "uniform_box":
        params = {"n": n, "d": d, "side": 1.0}
    elif generator == "gaussian_mixture":
        params = {"n": n, "k": 2, "d": d, "spread": 0.3, "separation": 25.0}
    else:
        params = {"k": 2, "alpha": 9.0, "length": max(n, 4)}
    return TrialSpec(
        k=2,
        generator=generator,
        gen_params=params,
        ordering=ordering,
        alpha=9.0,
        seed=seed,
        oracle="exact",
    )


@pytest.fixture(scope="module")
def mixed_trials():
    """540 seeded trials on the mixed small-instance ensemble."""
    rng = np.random.default_rng(2024)
    runs = []
    for index in range(540):
        spec = _mixed_spec(index, int(rng.integers(0, 2**63)))
        report, decisions = run_trial(spec)
        runs.append((spec, report, decisions))
    return runs


@pytest.fixture(scope="module")
def sequence_trials():
    """200 runs on generated spread sequences of length 10, sequence order."""
    runs = []
    for trial in range(200):
        spec = TrialSpec(
            k=2,
            generator="alpha_k_sequence",
            gen_params={"k": 2, "alpha": 9.0, "length": 10},
            ordering="given",
            seed=trial,
            oracle="exact",
        )
        report, decisions = run_trial(spec)
        runs.append((spec, report, decisions))
    return runs


def test_criterion_1_approximation(mixed_trials):
    within = sum(report.within_nine for _, report, _ in mixed_trials)
    fraction = within / len(mixed_trials)
    ok = fraction >= 0.90
    _announce(
        1,
        "approximation within 9x (exact oracle)",
        ok,
        f"{within}/{len(mixed_trials)} trials = {fraction:.3f} (need >= 0.90)",
    )
    assert ok


def test_criterion_2_auxiliary_memory(mixed_trials, sequence_trials):
    peaks = [r.peak_aux_points for _, r, _ in mixed_trials + sequence_trials]
    worst = max(peaks)
    ok = all(p <= 2 for p in peaks)  # every trial here runs k = 2
    _announce(
        2,
        "auxiliary points never exceed k",
        ok,
        f"max peak over {len(peaks)} trials = {worst} (k = 2)",
    )
    assert ok


def test_criterion_3_sketch_stream_guarantees():
    rng = np.random.default_rng(31)
    n = 500
    failures = 0
    checked = 0
    for stream_idx in range(1000):
        k = (2, 5, 10)[stream_idx % 3]
        d = (1, 2, 5)[(stream_idx // 3) % 3]
        scale = 10.0 ** (stream_idx % 4)
        raw = rng.uniform(0.0, scale, size=(n, d))
        pts = [tuple(row) for row in raw]
        sketch = KCenterSketch(pts[:k], k)
        prev_radius = sketch.radius
        signature = (sketch.radius, tuple(c.birth for c in sketch.centers))
        cover = 0.0  # the first k points are the centers themselves
        for t in range(k + 1, n + 1):
            x = pts[t - 1]
            sketch.insert(x)
            new_signature = (sketch.radius, tuple(c.birth for c in sketch.centers))
            if new_signature == signature:
                cover = max(cover, min(dist(x, c.center) for c in sketch.centers))
            else:
                centers = np.asarray([c.center for c in sketch.centers])
                prefix = raw[:t]
                d2 = ((prefix[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
                cover = float(np.sqrt(d2.min(axis=1)).max())
                signature = new_signature
            checked += 1
            if not (
                len(sketch) <= k
                and sum(c.count for c in sketch.centers) == t
                and sketch.radius >= prev_radius
                and cover <= 4.0 * sketch.radius
            ):
                failures += 1
            prev_radius = sketch.radius
    ok = failures == 0
    _announce(
        3,
        "sketch size/coverage/counts/radius per insert",
        ok,
        f"{failures} failures over {checked} inserts on 1000 streams",
    )
    assert ok


def test_criterion_4_sketch_cost_sandwich():
    # The stated bound P^2/2 <= optimal <= 16 t P^2 on every prefix. The
    # lower half carries the 1e-12 tie slack (see module docstring).
    rng = np.random.default_rng(41)
    k = 2
    lower_violations = 0
    upper_violations = 0
    prefixes = 0
    for stream_idx in range(200):
        if stream_idx % 2 == 0:
            pts = [tuple(rng.uniform(0, 1, size=2)) for _ in range(12)]
        else:
            centers = rng.uniform(0, 25, size=(2, 2))
            pts = [
                tuple(centers[int(rng.integers(0, 2))] + rng.normal(0, 0.3, size=2))
                for _ in range(12)
            ]
        sketch = KCenterSketch(pts[:k], k)
        for t in range(k + 1, 13):
            sketch.insert(pts[t - 1])
            opt = optimal_kmeans(pts[:t], k).cost
            prefixes += 1
            if sketch.radius**2 / 2.0 > opt * (1 + 1e-12):
                lower_violations += 1
            if opt > 16.0 * t * sketch.radius**2:
                upper_violations += 1
    ok = lower_violations == 0 and upper_violations == 0
    _announce(
        4,
        "radius-squared sandwich on every prefix",
        ok,
        f"lower-bound violations {lower_violations}, upper-bound violations "
        f"{upper_violations}, over {prefixes} prefixes (200 streams)",
    )
    assert ok, (
        "P^2/2 <= optimal needs k+1 prefix points pairwise >= P apart; "
        "optimal <= 16 t P^2 needs every prefix point within 4P of a center"
    )


def test_criterion_5_separated_count_equivalence():
    rng = np.random.default_rng(51)
    failures = 0
    for instance in range(100):
        k = 2 if instance % 2 == 0 else 3
        d = 1 + instance % 2
        limit = 14 if k == 2 else 11
        while True:
            sizes = [int(rng.integers(2, 5))] + [
                int(rng.integers(1, 5)) for _ in range(k - 1)
            ]
            if sum(sizes) <= limit:
                break
        offsets = [
            [tuple(rng.uniform(0, 0.5, size=d)) for _ in range(size)]
            for size in sizes
        ]

        gap = 10.0
        for _ in range(25):
            clusters = [
                [tuple(j * gap + o if axis == 0 else o for axis, o in enumerate(off))
                 for off in offsets[j]]
                for j in range(k)
            ]
            # two points of cluster 0 first (makes the initial radius small),
            # then one opener per other cluster, then the rest shuffled
            stream = clusters[0][:2] + [c[0] for c in clusters[1:]]
            rest = clusters[0][2:] + [p for c in clusters[1:] for p in c[1:]]
            stream += [rest[i] for i in rng.permutation(len(rest))]
            sketch = KCenterSketch(stream[:k], k)
            for x in stream[k:]:
                sketch.insert(x)
            t = len(stream)
            if sketch.min_center_gap() > 4.0 * (t + 2) * sketch.radius:
                break
            gap *= 4.0
        else:
            failures += 1
            continue

        opt = optimal_kmeans(stream, k)
        point_cluster = {tuple(p): opt.assignment[i] for i, p in enumerate(stream)}
        matched_ids = set()
        for c in sketch.centers:
            cid = point_cluster[tuple(c.center)]
            matched_ids.add(cid)
            members = [p for p, a in zip(stream, opt.assignment) if a == cid]
            if c.count != len(members):
                failures += 1
                break
            if any(dist(p, c.center) > 4.0 * sketch.radius for p in members):
                failures += 1
                break
        else:
            if matched_ids != set(range(k)):
                failures += 1
    ok = failures == 0
    _announce(
        5,
        "separated sketch counts equal optimal cluster sizes",
        ok,
        f"{failures} failures over 100 constructed instances",
    )
    assert ok


def test_criterion_6_selection_threshold_bound(mixed_trials):
    # The stated ceiling: a run violates when its threshold R_t ever exceeds
    # optimal(X_t) / (12 k ln(k+10)), up to the 1e-12 tie slack (see module
    # docstring). R is raised from the sketch radius, so this holds when
    # P^2/2 <= optimal(X_t) does and R does not double past it.
    violating_runs = 0
    for spec, _, decisions in mixed_trials:
        stream = materialize_stream(spec)
        k = spec.k
        ceiling_scale = 12.0 * k * math.log(k + 10)
        violated = False
        for t in range(k, len(stream) + 1):
            opt = optimal_kmeans(stream[:t], k).cost
            if decisions[t - 1].threshold_after > opt / ceiling_scale * (1 + 1e-12):
                violated = True
                break
        violating_runs += violated
    fraction = violating_runs / len(mixed_trials)
    ok = fraction <= 0.05
    _announce(
        6,
        "selection threshold stays under the oracle ceiling",
        ok,
        f"{violating_runs}/{len(mixed_trials)} runs violated = {fraction:.3f} "
        f"(need <= 0.05)",
    )
    assert ok, (
        "R exceeds the oracle ceiling: either the sketch radius broke "
        "P^2/2 <= optimal, or the doubling rule pushed R past it"
    )


def test_criterion_7_adversarial_sequences(sequence_trials):
    forced = 0
    approx_ok = 0
    for _, report, _ in sequence_trials:
        took_most = report.centers_selected >= 9
        if took_most or not report.within_nine:
            forced += 1
        approx_ok += report.within_nine
    n = len(sequence_trials)
    frac_forced = forced / n
    frac_approx = approx_ok / n
    ok = frac_forced >= 0.90 and frac_approx >= 0.90
    _announce(
        7,
        "spread sequences force near-total selection",
        ok,
        f"selected>=9-or-overshot {frac_forced:.3f}, within-9x {frac_approx:.3f} "
        f"(both need >= 0.90, {n} trials)",
    )
    assert ok


def test_criterion_8_lower_bound_tooling():
    rng = np.random.default_rng(81)
    failures = 0
    for instance in range(200):
        n = int(rng.integers(2, 10))
        d = 1 + instance % 2
        pts = [tuple(rng.uniform(0, 200, size=d)) for _ in range(n)]
        exact = lower_exact(pts, 9.0, 2)
        greedy = lower_greedy(pts, 9.0, 2)
        if len(greedy) > len(exact):
            failures += 1
        if not is_alpha_k_sequence(pts, exact, 9.0, 2):
            failures += 1
        if not is_alpha_k_sequence(pts, greedy, 9.0, 2):
            failures += 1
    hand_built = [(0.0,), (1.0,), (7.0,), (50.0,)]
    hand_ok = len(lower_exact(hand_built, 9.0, 2)) == 4
    ok = failures == 0 and hand_ok
    _announce(
        8,
        "greedy <= exact, certified, hand-built length 4",
        ok,
        f"{failures} failures over 200 instances; hand-built ok: {hand_ok}",
    )
    assert ok


def test_criterion_9_determinism(tmp_path):
    spec = TrialSpec(
        k=2,
        generator="gaussian_mixture",
        gen_params={"n": 12, "k": 2, "d": 2, "spread": 0.4, "separation": 20.0},
        ordering="shuffled",
        seed=99,
        oracle="exact",
    )
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    run_experiment(spec, trials=10, out_path=first, out_format="json")
    run_experiment(spec, trials=10, out_path=second, out_format="json")
    identical = first.read_bytes() == second.read_bytes()
    _announce(
        9,
        "same master seed reproduces byte-identical reports",
        identical,
        f"{first.stat().st_size} bytes compared",
    )
    assert identical
