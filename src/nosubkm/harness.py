"""Experiment engine: datasets, stream ordering, trials, JSON/CSV reports.

A trial streams one ordered dataset through a fresh clusterer, then scores
the final centers against the whole dataset and against an optimal-cost
oracle (exact brute force, or Lloyd labeled as heuristic). Experiments run
many seeded trials and aggregate.

Everything is deterministic given the trial/master seed. Reports carry
no wall-clock timings, so identical seeds reproduce byte-identical files.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .cluster import ClusterConfig, Decision, OnlineClusterer
from .geometry import Point, check_point, grid_nearest_sq
# lower_exact and lower_greedy are not called here but stay importable from
# this module: the benchmark's traced run wraps them under these names too.
from .lower_bound import (  # noqa: F401
    adversarial_order,
    gen_alpha_k_sequence,
    lower_estimate,
    lower_exact,
    lower_greedy,
    _validate_alpha_k,
)
from .oracle import lloyd_kmeans, optimal_kmeans

RATIO_ZERO_COST = "zero-cost"  # oracle and achieved cost both zero
RATIO_INFINITE = "infinite"  # oracle zero, achieved positive

ORDERINGS = ("given", "shuffled", "adversarial")
ORACLES = ("exact", "lloyd")
REPORT_FORMATS = ("json", "csv")

# Sub-seed domains, mixed with the trial seed to derive independent streams.
_SEED_DATASET = 0
_SEED_ORDER = 1
_SEED_ALGORITHM = 2
_SEED_LLOYD = 3


class ParseError(ValueError):
    pass


def load_points(path: str | Path) -> list[Point]:
    """Read a headerless CSV of one point per row, constant dimension."""
    points: list[Point] = []
    dim: int | None = None
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            try:
                coords = tuple(float(cell) for cell in row)
                check_point(coords)
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
            if dim is None:
                dim = len(coords)
            elif len(coords) != dim:
                raise ParseError(
                    f"{path}: line {lineno}: expected {dim} values, got {len(coords)}"
                )
            points.append(coords)
    if not points:
        raise ParseError(f"{path}: no data rows")
    return points


def save_points(points: Sequence[Point], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for p in points:
            writer.writerow([repr(float(c)) for c in p])


def gen_dataset(kind: str, params: dict, seed: int) -> list[Point]:
    """Deterministic synthetic dataset of the given kind."""
    return _generator(kind, params)(seed=seed, **params)


def _generator(kind: str, params: dict):
    """The generator of this kind, once it is known to take these params.

    Raises ValueError for an unknown kind, a parameter the generator does
    not take, a missing parameter that has no default, or a count that is
    not an int.
    """
    if kind not in GENERATORS:
        raise ValueError(f"unknown generator {kind!r}; choose from {tuple(GENERATORS)}")
    known, required = _PARAMETERS[kind]
    for name, value in params.items():
        if name not in known:
            raise ValueError(f"{kind} takes no parameter {name!r}; choose from {sorted(known)}")
        if name in _COUNTS and not isinstance(value, numbers.Integral):
            raise ValueError(f"{kind} parameter {name!r} must be an int, got {value!r}")
    missing = sorted(required - params.keys())
    if missing:
        raise ValueError(f"{kind} is missing required parameters {missing}")
    return GENERATORS[kind]


def _parameter_names(generate) -> tuple[frozenset[str], frozenset[str]]:
    """A generator's parameter names but seed, and those without a default."""
    parameters = inspect.signature(generate).parameters
    known = frozenset(parameters.keys() - {"seed"})
    required = frozenset(
        name for name in known if parameters[name].default is inspect.Parameter.empty
    )
    return known, required


def _gen_gaussian_mixture(
    n: int,
    k: int,
    d: int = 2,
    spread: float = 1.0,
    separation: float = 20.0,
    seed: int = 0,
) -> list[Point]:
    if n < 1 or k < 1 or d < 1:
        raise ValueError("n, k, and d must be positive")
    if not (0 <= spread < math.inf and 0 < separation < math.inf):
        raise ValueError("spread must be >= 0 and separation > 0, both finite")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, separation, size=(k, d))
    comps = rng.integers(0, k, size=n)
    pts = centers[comps] + rng.normal(0.0, spread, size=(n, d))
    return _checked_points(pts)


def _gen_uniform_box(n: int, d: int = 2, side: float = 1.0, seed: int = 0) -> list[Point]:
    if n < 1 or d < 1 or not 0 < side < math.inf:
        raise ValueError("n and d must be positive, side > 0 and finite")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, side, size=(n, d))
    return _checked_points(pts)


def _checked_points(pts: np.ndarray) -> list[Point]:
    """The rows of pts as checked points, converted in one `tolist` call."""
    points = [tuple(row) for row in pts.tolist()]
    for p in points:
        check_point(p)
    return points


def _gen_sequence(
    k: int, length: int, alpha: float = 9.0, margin: float = 1.05, seed: int = 0
) -> list[Point]:
    return gen_alpha_k_sequence(k, alpha, length, margin=margin, seed=seed)


GENERATORS = {
    "gaussian_mixture": _gen_gaussian_mixture,
    "uniform_box": _gen_uniform_box,
    "alpha_k_sequence": _gen_sequence,
}
_COUNTS = ("n", "k", "d", "length")  # generator parameters that must be ints
_PARAMETERS = {kind: _parameter_names(generate) for kind, generate in GENERATORS.items()}


@dataclass(frozen=True)
class TrialSpec:
    k: int
    input_path: str | None = None
    generator: str | None = None
    gen_params: dict = field(default_factory=dict)
    ordering: str = "given"
    alpha: float = 9.0
    mode: str = "full"
    seed: int = 0
    oracle: str = "exact"
    lloyd_restarts: int = 20
    bootstrap: int | None = None

    def __post_init__(self):
        # k, bootstrap and mode go through the selector's own validator
        self.cluster_config()
        if (self.input_path is None) == (self.generator is None):
            raise ValueError("provide exactly one of input_path or generator")
        if self.generator is not None:
            _generator(self.generator, self.gen_params)
        if self.ordering not in ORDERINGS:
            raise ValueError(f"ordering must be one of {ORDERINGS}")
        if self.oracle not in ORACLES:
            raise ValueError(f"oracle must be one of {ORACLES}")
        # every trial runs lower_estimate at this alpha, whatever the ordering
        _validate_alpha_k(self.alpha, self.k)
        if self.lloyd_restarts < 1:
            raise ValueError("lloyd_restarts must be >= 1")

    def cluster_config(self) -> ClusterConfig:
        """The selector's configuration, seeded from this spec's seed."""
        return ClusterConfig(
            k=self.k,
            bootstrap=self.bootstrap,
            mode=self.mode,
            seed=_sub_seed(self.seed, _SEED_ALGORITHM),
        )


@dataclass
class RunReport:
    n: int
    k: int
    centers_selected: int
    bootstrap_selections: int
    type1_selections: int
    type2_selections: int
    peak_aux_points: int
    achieved_cost: float
    oracle_cost: float
    oracle_exact: bool
    ratio: float | str
    within_nine: bool
    lower_estimate: int
    lower_exact: bool
    final_threshold: float
    threshold_raises: int
    threshold_doublings: int
    seed: int

    def to_record(self) -> dict:
        """Flat mapping for report files."""
        return asdict(self)


def _sub_seed(seed: int, domain: int) -> int:
    return int(np.random.SeedSequence([seed, domain]).generate_state(1, np.uint64)[0])


def materialize_stream(spec: TrialSpec) -> list[Point]:
    """Load or generate the dataset, then apply the ordering policy."""
    return _materialize(spec)[0]


def _materialize(spec: TrialSpec) -> tuple[list[Point], tuple[int, bool] | None]:
    """The ordered stream, plus the stream's lower estimate (length, exact)
    when the ordering already found it."""
    if spec.input_path is not None:
        points = load_points(spec.input_path)
    else:
        points = gen_dataset(spec.generator, spec.gen_params, _sub_seed(spec.seed, _SEED_DATASET))

    if spec.ordering == "given":
        return points, None
    if spec.ordering == "shuffled":
        rng = np.random.default_rng([spec.seed, _SEED_ORDER])
        return [points[i] for i in rng.permutation(len(points))], None
    seq, exact = lower_estimate(points, spec.alpha, spec.k)
    order = adversarial_order(points, seq)
    # An exact length depends only on the point set; a greedy one depends on
    # the order, so the stream gets its own estimate.
    return [points[i] for i in order], (len(seq), True) if exact else None


def run_trial(spec: TrialSpec) -> tuple[RunReport, list[Decision]]:
    """Stream one dataset through a fresh clusterer and score the result.

    The achieved cost is `kmeans_cost(stream, centers)` to the bit: the
    `math.fsum` of `nearest_sq`'s distances, found on the √R grid. The
    stream becomes an array once, which the oracle, the selector and the
    scoring share.
    """
    stream, lower = _materialize(spec)
    n = len(stream)
    X = np.asarray(stream, dtype=np.float64)

    # The oracle reads only the stream, so it may refuse one before any arrival.
    oracle_exact = spec.oracle == "exact"
    if oracle_exact:
        oracle_cost = optimal_kmeans(stream, spec.k).cost
    else:
        oracle_cost = lloyd_kmeans(
            X, spec.k, restarts=spec.lloyd_restarts, seed=_sub_seed(spec.seed, _SEED_LLOYD)
        ).cost

    clusterer = OnlineClusterer(spec.cluster_config())
    decisions = clusterer._run(stream, X)  # the stream was checked when it was made

    # A type-1 reject was within sqrt(R) of a center when it arrived, and
    # neither S nor R shrinks, so the grid of the final R finds every
    # point's distance but the type-2 rejects', which fall back to a scan.
    achieved = math.fsum(
        grid_nearest_sq(X, clusterer.selected_rows, clusterer.threshold).tolist()
    )

    ratio: float | str
    if oracle_cost > 0.0:
        ratio = achieved / oracle_cost
        within = achieved <= 9.0 * oracle_cost
    else:
        ratio = RATIO_ZERO_COST if achieved == 0.0 else RATIO_INFINITE
        within = achieved == 0.0

    if lower is None:
        seq, exact = lower_estimate(stream, spec.alpha, spec.k)
        lower = (len(seq), exact)

    by_type = {"bootstrap": 0, "type1": 0, "type2": 0}
    for d in decisions:
        if d.selected:
            by_type[d.processing] += 1

    report = RunReport(
        n=n,
        k=spec.k,
        centers_selected=len(clusterer.selected_indices),
        bootstrap_selections=by_type["bootstrap"],
        type1_selections=by_type["type1"],
        type2_selections=by_type["type2"],
        peak_aux_points=max((d.aux_points for d in decisions), default=0),
        achieved_cost=achieved,
        oracle_cost=oracle_cost,
        oracle_exact=oracle_exact,
        ratio=ratio,
        within_nine=within,
        lower_estimate=lower[0],
        lower_exact=lower[1],
        final_threshold=clusterer.threshold,
        threshold_raises=clusterer.counters.raises,
        threshold_doublings=clusterer.counters.doublings,
        seed=spec.seed,
    )
    return report, decisions


def trial_seeds(master_seed: int, trials: int) -> list[int]:
    state = np.random.SeedSequence(master_seed).generate_state(trials, np.uint64)
    return [int(s) for s in state]


def run_experiment(
    spec: TrialSpec,
    trials: int = 1,
    out_path: str | Path | None = None,
    out_format: str = "json",
) -> dict:
    """Run seeded trials, optionally write a report file, return the summary.

    JSON output holds the trial records plus an aggregate block; CSV holds
    the trial table only (the aggregate is returned, and the CLI prints it
    when the report goes to a file).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if out_format not in REPORT_FORMATS:
        raise ValueError(f"out_format must be one of {REPORT_FORMATS}")

    reports: list[RunReport] = []
    for trial_seed in trial_seeds(spec.seed, trials):
        report, _ = run_trial(replace(spec, seed=trial_seed))
        reports.append(report)

    aggregate = summarize(reports)
    result = {
        "master_seed": spec.seed,
        "trials": [r.to_record() for r in reports],
        "aggregate": aggregate,
    }
    if out_path is not None:
        write_report(result, out_path, out_format)
    return result


def summarize(reports: Sequence[RunReport]) -> dict:
    ratios = sorted(r.ratio for r in reports if isinstance(r.ratio, float))
    lowers = [r.lower_estimate for r in reports]
    centers = [r.centers_selected for r in reports]
    return {
        "trials": len(reports),
        "mean_ratio": _mean(ratios),
        "median_ratio": _quantile(ratios, 0.5),
        "p90_ratio": _quantile(ratios, 0.9),
        "fraction_within_nine": sum(r.within_nine for r in reports) / len(reports),
        "mean_centers_selected": _mean([float(c) for c in centers]),
        "max_peak_aux_points": max(r.peak_aux_points for r in reports),
        "mean_centers_over_lower": _mean(
            [c / l for c, l in zip(centers, lowers) if l > 0]
        ),
    }


def _mean(values: Sequence[float]) -> float | None:
    return math.fsum(values) / len(values) if values else None


def _quantile(sorted_values: Sequence[float], q: float) -> float | None:
    if not sorted_values:
        return None
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def write_report(result: dict, out_path: str | Path, out_format: str) -> None:
    with open(out_path, "w", newline="") as fh:
        fh.write(report_text(result, out_format))


def report_text(result: dict, out_format: str) -> str:
    """A report file's text: the whole result as JSON, or the trial table
    as CSV."""
    if out_format == "json":
        return json.dumps(result, indent=2, sort_keys=True) + "\n"
    records = result["trials"]
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(records[0].keys()))
    writer.writeheader()
    writer.writerows(records)
    return out.getvalue()
