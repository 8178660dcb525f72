"""Pinned decision streams: SHA-256 digests of Decision tuples plus the report.

The digests were recorded with the witness-radius sketch and checked equal
on the tree before any per-arrival optimisation of the selector, sketch or
scoring. The two exact-oracle digests were recorded before the exact
lower-bound search moved onto a table of distances, and before the
adversarial ordering shared its search with the trial's lower estimate.
The d=5 Lloyd digest was recorded while nearest_sq still reduced a
row-by-center-by-dimension difference block. The d=3 doubling digest was
recorded while the nearest-selected query and the final scoring still
scanned every selected center. The d=1 Lloyd digest was recorded while
Lloyd's centroid step still took each cluster's numpy mean.
The trials scored against Lloyd or the adversarial exact oracle
also pin a companion digest: the same decisions and record without
`oracle_cost` and `ratio`. A change to how the oracle cost is rounded
moves only the full digest; one that also moves the companion changes
something else. Their full digests were re-recorded when every cost
became a `math.fsum` (each oracle cost and ratio moved by one ulp), with
the companions unchanged.
A change that moves one of them changes a decision, a probability,
a threshold or a report value for a fixed seed, and has to say why in
CHANGES.md.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np

from nosubkm import geometry, harness
from nosubkm.cluster import ClusterConfig, OnlineClusterer
from nosubkm.lower_bound import gen_alpha_k_sequence, is_alpha_k_sequence, lower_greedy


def digest(decisions, record) -> str:
    h = hashlib.sha256()
    for d in decisions:
        h.update(
            repr(
                (d.index, d.processing, d.selected, d.probability, d.threshold_after, d.aux_points)
            ).encode()
        )
    h.update(json.dumps(record, sort_keys=True).encode())
    return h.hexdigest()


def without_oracle_cost(record) -> dict:
    return {key: value for key, value in record.items() if key not in ("oracle_cost", "ratio")}


def run_stream(spec, config):
    clusterer = OnlineClusterer(config)
    decisions = [clusterer.process(x) for x in harness.materialize_stream(spec)]
    return clusterer, decisions


def clusterer_record(clusterer) -> dict:
    return {
        "centers_selected": len(clusterer.selected_points),
        "final_threshold": clusterer.threshold,
        "threshold_raises": clusterer.counters.raises,
        "threshold_doublings": clusterer.counters.doublings,
        "sketch_radius": clusterer.sketch.radius,
        "sketch_counts": [c.count for c in clusterer.sketch.centers],
    }


def test_full_sketch_stream():
    # Shaped like the sparse_stream benchmark workload, at n=2k: the sketch
    # stays full at k=20 and |S| grows past the pure-Python scoring branch.
    seed = harness.trial_seeds(1, 1)[0]
    spec = harness.TrialSpec(
        k=20,
        generator="gaussian_mixture",
        gen_params={"n": 2000, "k": 20, "d": 1, "spread": 0.01, "separation": 1000.0},
        ordering="shuffled",
        seed=seed,
    )
    clusterer, decisions = run_stream(spec, ClusterConfig(k=20, seed=seed))
    assert len(clusterer.selected_points) > 16
    assert digest(decisions, clusterer_record(clusterer)) == (
        "2b6ad3b781b89c75150deba7c2ca6be8c21fb4cdda69bf64906143da593231c8"
    )


def test_doubling_stream_three_dimensions():
    # A small c_double makes R double 11 times (after 2 raises) in d=3, so
    # the selected set is rebuilt around each new R and the query looks at
    # a 3x3x3 block of neighbours once |S| exceeds 27.
    spec = harness.TrialSpec(
        k=3,
        generator="gaussian_mixture",
        gen_params={"n": 3000, "k": 3, "d": 3, "spread": 1.0, "separation": 30.0},
        ordering="shuffled",
        seed=11,
    )
    clusterer, decisions = run_stream(spec, ClusterConfig(k=3, c_double=0.2, seed=11))
    assert clusterer.counters.doublings > 0
    assert len(clusterer.selected_points) > 27
    assert digest(decisions, clusterer_record(clusterer)) == (
        "bbc6c3a458f770b5672003e52e6b59ea57b39218a99d4d19796514b78a7f79d1"
    )


def test_lloyd_trial():
    # ~450 centers in d=2: the final scoring runs on the grid, whose 3 passes
    # (one per cell column) stay within what a scan of the centers costs.
    spec = harness.TrialSpec(
        k=5,
        generator="gaussian_mixture",
        gen_params={"n": 600, "k": 5, "d": 2},
        ordering="shuffled",
        oracle="lloyd",
        seed=7,
    )
    report, decisions = harness.run_trial(spec)
    assert 3 <= report.centers_selected * 2 // geometry._BATCH_ROWS_PER_PASS
    assert digest(decisions, report.to_record()) == (
        "db486d130dd05c939cffe89b57e44bd2897fe58e1cb943c8464fe8fd42d712c4"
    )
    assert digest(decisions, without_oracle_cost(report.to_record())) == (
        "fdfe57de28f4b7072b0848a666c7a90e9758b992af2a598ff2053835a95354a7"
    )


def test_lloyd_trial_five_dimensions():
    # d=5 on the nearest_sq kernel: the grid's 3**4 passes outnumber what a
    # scan of 500 centers costs, so the whole final scoring (1500 rows x 500
    # centers) falls back to nearest_sq, split into row chunks; Lloyd's
    # assignment (5 centers) is not. Type 2 takes nearly every arrival here,
    # so the per-arrival nearest-selected query stays on its pure-Python
    # branch.
    spec = harness.TrialSpec(
        k=5,
        generator="gaussian_mixture",
        gen_params={"n": 1500, "k": 5, "d": 5, "spread": 0.01, "separation": 1000.0},
        ordering="shuffled",
        oracle="lloyd",
        seed=7,
    )
    report, decisions = harness.run_trial(spec)
    assert report.centers_selected > 16
    assert 3**4 > report.centers_selected * 5 // geometry._BATCH_ROWS_PER_PASS
    assert report.achieved_cost > 0.0
    assert digest(decisions, report.to_record()) == (
        "574d30dfc152e4885bb55773ca4c780f56154c49f2659f3cabb012d8f9160dea"
    )
    assert digest(decisions, without_oracle_cost(report.to_record())) == (
        "edb31fa29727a6c246720e3548260f4b665d37333e3961f9096446cb7301c810"
    )


def test_lloyd_trial_one_dimension():
    # d=1, where a per-cluster numpy mean sums pairwise and a bincount sum
    # runs left to right: at this seed 10 of the 20 restart costs differ by
    # an ulp between the two, but the chosen restart and its final labels,
    # from which the reported oracle cost is computed, do not.
    spec = harness.TrialSpec(
        k=3,
        generator="gaussian_mixture",
        gen_params={"n": 1500, "k": 3, "d": 1, "spread": 2.0, "separation": 10.0},
        ordering="shuffled",
        oracle="lloyd",
        seed=2,
    )
    report, decisions = harness.run_trial(spec)
    assert digest(decisions, report.to_record()) == (
        "db6f4ebd136865128f763910ce2b9d4b7167f609fdeb224c9425bad4d75908c8"
    )
    assert digest(decisions, without_oracle_cost(report.to_record())) == (
        "574b80bd402201db5488921619e4606ff657a3bcfb88682e2967751e60cf8d91"
    )


def test_alpha_k_sequence_trial_with_type2():
    spec = harness.TrialSpec(
        k=2,
        generator="alpha_k_sequence",
        gen_params={"k": 2, "length": 12},
        ordering="shuffled",
        seed=1,
    )
    report, decisions = harness.run_trial(spec)
    assert sum(d.processing == "type2" for d in decisions) > 0
    assert digest(decisions, report.to_record()) == (
        "937e9b782d641846f9b735567b93bcc212710c1bd5fb894eeb2d0176098a336b"
    )


def test_exact_adversarial_mixture_trial():
    # The exact_small n=10 family: the adversarial order and the lower
    # estimate both come from the exact spread-sequence search. The stream
    # joins the record so the order itself is pinned, not only its effects.
    spec = harness.TrialSpec(
        k=3,
        generator="gaussian_mixture",
        gen_params={"n": 10, "k": 3},
        ordering="adversarial",
        oracle="exact",
        seed=1,
    )
    report, decisions = harness.run_trial(spec)
    assert report.lower_exact and report.lower_estimate > spec.k
    record = {**report.to_record(), "stream": harness.materialize_stream(spec)}
    assert digest(decisions, record) == (
        "112ce160e47f2dd7ac645e1f38af9bd798fee09bb71bbc23c61f346f01d55f81"
    )
    assert digest(decisions, without_oracle_cost(record)) == (
        "b7c3b0a8cd2f3a4302d8f8b5a7644070bc73d80163fbbae25b631f7e6a3df5c7"
    )


def test_exact_alpha_k_sequence_trial():
    # The exact_small spread-sequence family: length 10 is small enough for
    # the exact lower-bound search, and type 2 fires.
    spec = harness.TrialSpec(
        k=2,
        generator="alpha_k_sequence",
        gen_params={"k": 2, "length": 10},
        ordering="shuffled",
        oracle="exact",
        seed=1,
    )
    report, decisions = harness.run_trial(spec)
    assert report.lower_exact and report.lower_estimate == 10
    assert sum(d.processing == "type2" for d in decisions) > 0
    assert digest(decisions, report.to_record()) == (
        "d982df966138a08f318c2285c101dac9929bef480243e5b945c546eaeccd46aa"
    )


# The three instance families of the exact_small benchmark workload, cycled
# over the trial seeds of a master seed as that workload cycles them.
EXACT_FAMILIES = [
    dict(k=3, generator="gaussian_mixture", gen_params={"n": 10, "k": 3}, ordering="adversarial"),
    dict(k=3, generator="gaussian_mixture", gen_params={"n": 11, "k": 3}, ordering="adversarial"),
    dict(k=2, generator="alpha_k_sequence", gen_params={"k": 2, "length": 10}, ordering="shuffled"),
]


def exact_searches_digest(master_seed: int, trials: int) -> str:
    """SHA-256 of the two exact searches' answers on every trial input: the
    lower estimate of the dataset and of the ordered stream, and the exact
    oracle's assignment and cost on the stream."""
    h = hashlib.sha256()
    for i, seed in enumerate(harness.trial_seeds(master_seed, trials)):
        family = EXACT_FAMILIES[i % len(EXACT_FAMILIES)]
        spec = harness.TrialSpec(oracle="exact", seed=seed, **family)
        stream = harness.materialize_stream(spec)
        for points in (harness.materialize_stream(replace(spec, ordering="given")), stream):
            seq, exact = harness.lower_estimate(points, spec.alpha, spec.k)
            h.update(repr((seq, exact)).encode())
        best = harness.optimal_kmeans(stream, spec.k)
        h.update(repr((best.assignment, best.cost)).encode())
    return h.hexdigest()


def test_exact_searches_on_exact_small_inputs():
    # A companion to the exact_small decision digest: it pins what the
    # lower-bound search and the exact oracle answer on the workload's 60
    # inputs at masters 1 and 7, apart from the selector's decisions.
    assert exact_searches_digest(1, 60) == (
        "2c386f756cb271eaaf507b3b32cbe07c09e4c5c35faa903d255dce55e1317d44"
    )
    assert exact_searches_digest(7, 60) == (
        "b52d85dd932d9798207374db94986a8c368cfb343fc9ce9e0c3731f4e00c674f"
    )


# Spread sequences at k = 3, 4 and 5, long enough that their certification
# thresholds prefixes of 11 and 12 points, where the (k-1)-fold diameter is
# still an exact partition search, and longer ones, where it is greedy.
FOLD_SEQUENCES = [(3, 4.0, 20), (4, 2.0, 18), (5, 1.5, 16)]


def fold_searches_digest() -> str:
    """SHA-256 of the sequences' coordinates, of `is_alpha_k_sequence` on
    their given order and on orders shuffled from position 0, 6, 10, 11 and
    12 on, and of `lower_greedy`'s order on the set in each of those orders."""
    h = hashlib.sha256()
    rng = np.random.default_rng(19)
    for k, alpha, length in FOLD_SEQUENCES:
        for seed in range(2):
            points = gen_alpha_k_sequence(k, alpha, length, seed=seed)
            h.update(repr(points).encode())
            orders = [list(range(length))]
            for start in (0, 6, 10, 11, 12):
                tail = list(range(start, length))
                rng.shuffle(tail)
                orders.append(list(range(start)) + tail)
            for order in orders:
                certified = is_alpha_k_sequence(points, order, alpha, k)
                greedy = lower_greedy([points[i] for i in order], alpha, k)
                h.update(repr((certified, greedy)).encode())
    return h.hexdigest()


def test_fold_searches_on_long_spread_sequences():
    # The other pins read folds of at most two parts on at most 11 points.
    # This one pins answers that read folds of two to four parts on up to
    # 19 points, past EXACT_PARTITION_LIMIT.
    assert fold_searches_digest() == (
        "f8d5e75f2914767d17e705511471eaac2c6b7499f01325fd4ae33844ad140aeb"
    )
