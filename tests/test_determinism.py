"""Pinned decision streams: SHA-256 digests of Decision tuples plus the report.

The digests were recorded with the witness-radius sketch and checked equal
on the tree before any per-arrival optimisation of the selector, sketch or
scoring. The two exact-oracle digests were recorded before the exact
lower-bound search moved onto a table of distances, and before the
adversarial ordering shared its search with the trial's lower estimate.
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
    stream = harness.materialize_stream(spec)
    clusterer = OnlineClusterer(ClusterConfig(k=20, seed=seed))
    decisions = [clusterer.process(x) for x in stream]
    assert len(clusterer.selected_points) > 16
    record = {
        "centers_selected": len(clusterer.selected_points),
        "final_threshold": clusterer.threshold,
        "threshold_raises": clusterer.counters.raises,
        "threshold_doublings": clusterer.counters.doublings,
        "sketch_radius": clusterer.sketch.radius,
        "sketch_counts": [c.count for c in clusterer.sketch.centers],
    }
    assert digest(decisions, record) == (
        "2b6ad3b781b89c75150deba7c2ca6be8c21fb4cdda69bf64906143da593231c8"
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
        "bd0ec9931a36d5182987b7a8923f38ff2cf534efac4138d010d3007e09271324"
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
        "8759912c1b8ce2f5c1d7066d6cba544bf050a385c7739ba1c625bf3699faaacc"
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
