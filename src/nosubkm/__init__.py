"""Streaming no-substitution k-means clustering and its benchmark harness.

`kmeans_cost` and `centroid` are not called inside the package. They stay
as the reference definitions that the faster code matches to the bit: a
trial's achieved cost is `kmeans_cost(stream, centers)`, and each oracle
center is the `centroid` of its part. The tests compare against both.
"""

from .cluster import ClusterConfig, Decision, OnlineClusterer, step_uniform
from .geometry import (
    Point,
    centroid,
    dist,
    kmeans_cost,
    l_fold_diameter,
)
from .harness import RunReport, TrialSpec, gen_dataset, load_points, run_experiment, run_trial
from .kcenter import AugmentedCenter, KCenterSketch
from .lower_bound import (
    SequenceOverflowError,
    adversarial_order,
    gen_alpha_k_sequence,
    is_alpha_k_sequence,
    lower_exact,
    lower_greedy,
)
from .oracle import Clustering, lloyd_kmeans, optimal_kmeans

__version__ = "0.1.0"

__all__ = [
    "AugmentedCenter",
    "ClusterConfig",
    "Clustering",
    "Decision",
    "KCenterSketch",
    "OnlineClusterer",
    "Point",
    "RunReport",
    "SequenceOverflowError",
    "TrialSpec",
    "adversarial_order",
    "centroid",
    "dist",
    "gen_alpha_k_sequence",
    "gen_dataset",
    "is_alpha_k_sequence",
    "kmeans_cost",
    "l_fold_diameter",
    "lloyd_kmeans",
    "load_points",
    "lower_exact",
    "lower_greedy",
    "optimal_kmeans",
    "run_experiment",
    "run_trial",
    "step_uniform",
]
