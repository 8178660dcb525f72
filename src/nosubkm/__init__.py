"""Streaming no-substitution k-means clustering and its benchmark harness."""

from .cluster import ClusterConfig, Decision, OnlineClusterer, step_uniform
from .geometry import (
    FoldDiameter,
    Point,
    center_shift_residual,
    centroid,
    dist,
    kmeans_cost,
    l_fold_diameter,
)
from .harness import RunReport, TrialSpec, gen_dataset, load_points, run_experiment, run_trial
from .kcenter import AugmentedCenter, KCenterSketch
from .lower_bound import (
    AlphaKSequence,
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
    "AlphaKSequence",
    "AugmentedCenter",
    "ClusterConfig",
    "Clustering",
    "Decision",
    "FoldDiameter",
    "KCenterSketch",
    "OnlineClusterer",
    "Point",
    "RunReport",
    "SequenceOverflowError",
    "TrialSpec",
    "adversarial_order",
    "center_shift_residual",
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
