"""Pinned decision streams: SHA-256 digests of Decision tuples plus the report.

The digests were recorded with the witness-radius sketch and checked equal
on the tree before any per-arrival optimisation of the selector, sketch or
scoring. The two exact-oracle digests were recorded before the exact
lower-bound search moved onto a table of distances, and before the
adversarial ordering shared its search with the trial's lower estimate.
The d=5 Lloyd digest was recorded while nearest_sq still reduced a
row-by-center-by-dimension difference block. The d=3 doubling digest was
recorded while the nearest-selected query and the final scoring still
scanned every selected center.
The three trials scored against Lloyd or the adversarial exact oracle
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

from nosubkm import harness
from nosubkm.cluster import ClusterConfig, OnlineClusterer


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
    # 600 points x ~500 centers takes the numpy branch of both the
    # per-arrival nearest-selected query and the final scoring.
    spec = harness.TrialSpec(
        k=5,
        generator="gaussian_mixture",
        gen_params={"n": 600, "k": 5, "d": 2},
        ordering="shuffled",
        oracle="lloyd",
        seed=7,
    )
    report, decisions = harness.run_trial(spec)
    assert report.n * report.centers_selected >= 10_000
    assert digest(decisions, report.to_record()) == (
        "db486d130dd05c939cffe89b57e44bd2897fe58e1cb943c8464fe8fd42d712c4"
    )
    assert digest(decisions, without_oracle_cost(report.to_record())) == (
        "fdfe57de28f4b7072b0848a666c7a90e9758b992af2a598ff2053835a95354a7"
    )


def test_lloyd_trial_five_dimensions():
    # d=5 on the nearest_sq kernel: the final scoring (1500 rows x 500
    # centers) is split into row chunks, Lloyd's assignment (5 centers) is
    # not. Type 2 takes nearly every arrival here, so the per-arrival
    # nearest-selected query stays on its pure-Python branch.
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
    assert report.n * report.centers_selected >= 10_000
    assert report.achieved_cost > 0.0
    assert digest(decisions, report.to_record()) == (
        "574d30dfc152e4885bb55773ca4c780f56154c49f2659f3cabb012d8f9160dea"
    )
    assert digest(decisions, without_oracle_cost(report.to_record())) == (
        "edb31fa29727a6c246720e3548260f4b665d37333e3961f9096446cb7301c810"
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
