"""Pinned decision streams: SHA-256 digests of Decision tuples plus the report.

The digests were recorded before any per-arrival optimisation of the
selector, sketch or scoring. A change that moves one of them changes a
decision, a probability, a threshold or a report value for a fixed seed,
and has to say why in CHANGES.md.
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
        "77201befb5c264e0c366ba7b88a199c01be8703a6031d94df4a7b50dbba3d23c"
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
        "d6255fbaa22e9d87d5354e792bb70d9a731c95d3cf347da3739a7c0335633b73"
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
        "434632172a839cacb6b831d07064fd8b7a8fa9983fe2177c3711280aa8a0e0a7"
    )
