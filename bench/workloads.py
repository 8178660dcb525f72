"""The benchmark's workloads and the worker process that runs one of them.

Each workload is a closed loop: one caller in one single-threaded process
makes its next call only after the previous one returns. A repeat runs the
workload's whole fixed input once (one streaming pass, or one cycle over a
fixed list of trials); every repeat in one process gets the same inputs, so
every repeat must give the same decision digest.

Run as a script this module is the worker that `run.py` starts:

    python3 bench/workloads.py --workload sparse_stream --seed 1 --seconds 30 --trace 0

It prints READY once its inputs are built, then one JSON line of results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ContextManager, Sequence

import numpy as np

from nosubkm import cluster, geometry, harness, kcenter, lower_bound

from spans import SETUP_TRACE, Target, Tracer

SIZES = {
    "full": {
        "sparse_stream": {"n": 20_000},
        "lloyd_trial": {"n": 4_000, "trials": 8},
        "exact_small": {"trials": 60},
    },
    "tiny": {
        "sparse_stream": {"n": 2_000},
        "lloyd_trial": {"n": 600, "trials": 2},
        "exact_small": {"trials": 3},
    },
}

# Every lookup site of every entry point the traced run wraps.
TARGETS = [
    Target(harness, "run_trial", "harness.run_trial"),
    Target(harness, "materialize_stream", "harness.materialize_stream"),
    Target(cluster.OnlineClusterer, "process", "cluster.process"),
    Target(cluster, "step_uniform", "cluster.step_uniform"),
    Target(kcenter.KCenterSketch, "insert", "kcenter.insert", watch="radius"),
    Target(kcenter.KCenterSketch, "nearest_center", "kcenter.nearest_center"),
    Target(kcenter.KCenterSketch, "min_center_gap", "kcenter.min_center_gap"),
    Target(harness, "lloyd_kmeans", "oracle.lloyd_kmeans"),
    Target(harness, "optimal_kmeans", "oracle.optimal_kmeans"),
    Target(harness, "lower_exact", "lower_bound.lower_exact"),
    Target(lower_bound, "lower_exact", "lower_bound.lower_exact"),
    Target(harness, "lower_greedy", "lower_bound.lower_greedy"),
    Target(lower_bound, "lower_greedy", "lower_bound.lower_greedy"),
    Target(harness, "adversarial_order", "lower_bound.adversarial_order"),
    Target(lower_bound, "is_alpha_k_sequence", "lower_bound.is_alpha_k_sequence"),
    Target(lower_bound, "l_fold_diameter", "geometry.l_fold_diameter"),
    Target(geometry, "l_fold_diameter", "geometry.l_fold_diameter"),
]
LAYERS = list(dict.fromkeys(t.layer for t in TARGETS))

# scope(trace_id) wraps one pass or one trial: a tracer's trace, or nothing.
Scope = Callable[[int], ContextManager]


@dataclass
class Repeat:
    """What one repeat measured and checked."""

    wall_s: float
    call_s: array  # latency of each closed-loop call, NaN where a trial raised
    digest: str
    attempted: int
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    selected: int = 0
    type1_steps: int = 0
    type2_steps: int = 0
    non_bootstrap_selected: int = 0


def decision_digest(decisions: Sequence[cluster.Decision], record: dict) -> bytes:
    h = hashlib.sha256()
    for d in decisions:
        h.update(
            repr((d.index, d.processing, d.selected, d.probability, d.threshold_after, d.aux_points)).encode()
        )
    h.update(json.dumps(record, sort_keys=True).encode())
    return h.digest()


def numpy_cost(points: Sequence[geometry.Point], centers: Sequence[geometry.Point]) -> float:
    """k-means cost of `points` at `centers`, recomputed with plain numpy."""
    X = np.asarray(points, dtype=np.float64)
    C = np.asarray(centers, dtype=np.float64)
    partials = []
    for start in range(0, len(X), 2048):
        chunk = X[start : start + 2048]
        partials.append(math.fsum(((chunk[:, None, :] - C[None, :, :]) ** 2).sum(axis=2).min(axis=1)))
    return math.fsum(partials)


def stream_problems(
    stream: Sequence[geometry.Point],
    decisions: Sequence[cluster.Decision],
    centers: Sequence[geometry.Point],
    by_type: dict[str, int],
    peak_aux: int,
    k: int,
) -> list[str]:
    """The no-substitution output checks shared by passes and trials."""
    problems = []
    if [d.index for d in decisions] != list(range(1, len(stream) + 1)):
        problems.append("decision indices are not 1..n in order")
    elif list(centers) != [stream[d.index - 1] for d in decisions if d.selected]:
        problems.append("selected centers differ from the stream points at the selected indices")
    if sum(by_type.values()) != len(centers):
        problems.append(f"bootstrap+type1+type2 selections {by_type} != {len(centers)} centers")
    if peak_aux > k:
        problems.append(f"peak_aux_points {peak_aux} > k={k}")
    return problems


def _tally(repeat: Repeat, decisions: Sequence[cluster.Decision]) -> dict[str, int]:
    by_type = {"bootstrap": 0, "type1": 0, "type2": 0}
    for d in decisions:
        if d.processing == "type1":
            repeat.type1_steps += 1
        elif d.processing == "type2":
            repeat.type2_steps += 1
        if d.selected:
            by_type[d.processing] += 1
    repeat.selected += sum(by_type.values())
    repeat.non_bootstrap_selected += by_type["type1"] + by_type["type2"]
    return by_type


class SparseStream:
    """One pre-generated stream fed through a fresh OnlineClusterer per pass."""

    call = "OnlineClusterer.process"
    k = 20

    def __init__(self, seed: int, n: int):
        self.seed = harness.trial_seeds(seed, 1)[0]
        spec = harness.TrialSpec(
            k=self.k,
            generator="gaussian_mixture",
            gen_params={"n": n, "k": self.k, "d": 1, "spread": 0.01, "separation": 1000.0},
            ordering="shuffled",
            seed=self.seed,
        )
        self.stream = harness.materialize_stream(spec)
        self.shape = f"gaussian_mixture n={n} k={self.k} d=1 spread=0.01 separation=1000 shuffled"

    def repeat(self, scope: Scope, next_id: Callable[[], int]) -> Repeat:
        clusterer = cluster.OnlineClusterer(cluster.ClusterConfig(k=self.k, seed=self.seed))
        call_s = array("d")
        decisions = []
        clock = time.perf_counter
        with scope(next_id()):
            began = clock()
            for x in self.stream:
                t0 = clock()
                decisions.append(clusterer.process(x))
                call_s.append(clock() - t0)
            wall_s = clock() - began
        centers = clusterer.finalize()
        record = {
            "centers_selected": len(centers),
            "final_threshold": clusterer.threshold,
            "threshold_raises": clusterer.counters.raises,
            "threshold_doublings": clusterer.counters.doublings,
            "sketch_radius": clusterer.sketch.radius,
        }
        out = Repeat(wall_s, call_s, decision_digest(decisions, record).hex(), attempted=1)
        by_type = _tally(out, decisions)
        peak_aux = max(d.aux_points for d in decisions)
        out.problems = stream_problems(self.stream, decisions, centers, by_type, peak_aux, self.k)
        out.failed = int(bool(out.problems))
        return out


class TrialCycle:
    """A fixed list of `run_trial` specs, run in order once per repeat."""

    call = "harness.run_trial"

    def __init__(self, specs: list[harness.TrialSpec], shape: str):
        self.specs = specs
        self.shape = shape
        self._streams: dict[int, list[geometry.Point]] = {}

    def _stream(self, i: int) -> list[geometry.Point]:
        if i not in self._streams:
            self._streams[i] = harness.materialize_stream(self.specs[i])
        return self._streams[i]

    def repeat(self, scope: Scope, next_id: Callable[[], int]) -> Repeat:
        digest = hashlib.sha256()
        out = Repeat(0.0, array("d"), "", attempted=0)
        clock = time.perf_counter
        for i, spec in enumerate(self.specs):
            out.attempted += 1
            elapsed = math.nan
            try:
                with scope(next_id()):
                    t0 = clock()
                    report, decisions = harness.run_trial(spec)
                    elapsed = clock() - t0
                problems = self._check(i, report, decisions, out)
                digest.update(decision_digest(decisions, report.to_record()))
            except Exception:
                problems = [f"trial {i} raised:\n{traceback.format_exc()}"]
            out.call_s.append(elapsed)
            out.problems += problems
            out.failed += int(bool(problems))
        out.wall_s = math.fsum(out.call_s)
        out.digest = digest.hexdigest()
        return out

    def _check(self, i: int, report: harness.RunReport, decisions, out: Repeat) -> list[str]:
        spec, stream = self.specs[i], self._stream(i)
        centers = [stream[d.index - 1] for d in decisions if d.selected and 0 < d.index <= len(stream)]
        by_type = _tally(out, decisions)
        problems = stream_problems(stream, decisions, centers, by_type, report.peak_aux_points, spec.k)
        reported = {
            "bootstrap": report.bootstrap_selections,
            "type1": report.type1_selections,
            "type2": report.type2_selections,
        }
        if reported != by_type or report.centers_selected != len(centers):
            problems.append(f"report counts {reported} disagree with the decisions {by_type}")
        if report.peak_aux_points != max(d.aux_points for d in decisions):
            problems.append("report peak_aux_points disagrees with the decisions")
        cost = numpy_cost(stream, centers)
        if not math.isclose(cost, report.achieved_cost, rel_tol=1e-9):
            problems.append(f"achieved_cost {report.achieved_cost!r} != recomputed {cost!r}")
        return [f"trial {i}: {p}" for p in problems]


def lloyd_trial(seed: int, n: int, trials: int) -> TrialCycle:
    specs = [
        harness.TrialSpec(
            k=5,
            generator="gaussian_mixture",
            gen_params={"n": n, "k": 5, "d": 2},
            ordering="shuffled",
            oracle="lloyd",
            seed=s,
        )
        for s in harness.trial_seeds(seed, trials)
    ]
    shape = f"{trials} x run_trial(gaussian_mixture n={n} k=5 d=2, shuffled, lloyd oracle)"
    return TrialCycle(specs, shape)


# The three tiny-instance families exact_small cycles through.
EXACT_FAMILIES = [
    {"k": 3, "generator": "gaussian_mixture", "gen_params": {"n": 10, "k": 3}, "ordering": "adversarial"},
    {"k": 3, "generator": "gaussian_mixture", "gen_params": {"n": 11, "k": 3}, "ordering": "adversarial"},
    {"k": 2, "generator": "alpha_k_sequence", "gen_params": {"k": 2, "length": 10}, "ordering": "shuffled"},
]


def exact_small(seed: int, trials: int) -> TrialCycle:
    specs = [
        harness.TrialSpec(oracle="exact", seed=s, **EXACT_FAMILIES[i % len(EXACT_FAMILIES)])
        for i, s in enumerate(harness.trial_seeds(seed, trials))
    ]
    shape = (
        f"{trials} x run_trial(exact oracle), cycling gaussian_mixture n=10 k=3 adversarial, "
        "gaussian_mixture n=11 k=3 adversarial, alpha_k_sequence k=2 length=10 shuffled"
    )
    return TrialCycle(specs, shape)


def build(name: str, seed: int, size: str):
    params = SIZES[size][name]
    if name == "sparse_stream":
        return SparseStream(seed, **params)
    if name == "lloyd_trial":
        return lloyd_trial(seed, **params)
    return exact_small(seed, **params)


def quantile(values, q: float) -> float:
    return float(np.nanquantile(np.asarray(values, dtype=np.float64), q))


class Phase:
    """Repeats of one workload, run until about `seconds` have passed."""

    def __init__(self, workload, seconds: float, scope: Scope, next_id: Callable[[], int]):
        self.repeats: list[Repeat] = []
        began = time.perf_counter()
        while True:
            try:
                self.repeats.append(workload.repeat(scope, next_id))
            except Exception:
                failed = Repeat(math.nan, array("d"), "raised", attempted=1, failed=1)
                failed.problems.append(f"repeat raised:\n{traceback.format_exc()}")
                self.repeats.append(failed)
            elapsed = time.perf_counter() - began
            if elapsed + 0.5 * elapsed / len(self.repeats) >= seconds:
                break

    @property
    def wall_s(self) -> float:
        """Median wall time of one repeat."""
        return statistics.median(r.wall_s for r in self.repeats)

    def all_calls_s(self) -> np.ndarray:
        return np.concatenate([np.frombuffer(r.call_s) for r in self.repeats if len(r.call_s)])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["sparse_stream", "lloyd_trial", "exact_small"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args(argv)

    workload = build(args.workload, args.seed, args.size)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    ids = iter(range(SETUP_TRACE + 1, 1 << 62))
    next_id = ids.__next__
    untraced_scope = lambda _id: contextlib.nullcontext()
    budget = args.seconds / 2 if args.trace else args.seconds
    plain = Phase(workload, budget, untraced_scope, next_id)
    phases = [plain]
    result = {"shape": workload.shape, "call": workload.call}

    if args.trace:
        tracer = Tracer()
        tracer.install(TARGETS)
        try:
            with tracer.trace(SETUP_TRACE):
                workload = build(args.workload, args.seed, args.size)
            traced = Phase(workload, budget, tracer.trace, next_id)
        finally:
            tracer.restore()
        phases.append(traced)
        if args.spans_out is not None:
            tracer.write(args.spans_out)
        result["layers"] = layer_metrics(tracer, traced, plain)

    repeats = [r for p in phases for r in p.repeats]
    digests = sorted({r.digest for r in repeats})
    problems = [p for r in repeats for p in r.problems]
    if len(digests) > 1:
        problems.append(f"repeats gave {len(digests)} different decision digests")
    calls_ms = plain.all_calls_s() * 1e3
    result.update(
        attempted=sum(r.attempted for r in repeats),
        failed=sum(r.failed for r in repeats) + (len(digests) > 1),
        problems=problems,
        decision_digest=digests[0],
        repeats=len(plain.repeats),
        calls=len(calls_ms),
        wall_s=plain.wall_s,
        # Mean over every call of the run. The host's speed shifts between
        # levels for seconds at a time; the mean moves in proportion to the
        # time spent at each, where a median over calls or over short
        # repeats jumps from one level to the other.
        call_ms=float(np.nanmean(calls_ms)),
        call_ms_p50=quantile(calls_ms, 0.5),
        call_ms_p90=quantile(calls_ms, 0.9),
        call_ms_p99=quantile(calls_ms, 0.99),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        numpy=np.__version__,
    )
    print(json.dumps(result), flush=True)
    return 0


def layer_metrics(tracer: Tracer, traced: Phase, plain: Phase) -> dict[str, float]:
    """Per-layer figures for one traced set-up plus one repeat."""
    stats = tracer.stats(repeats=len(traced.repeats))
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = stats[layer].calls
        metrics[f"{layer}.self_s"] = stats[layer].self_s
    process_us = stats["cluster.process"].durations_s * 1e6
    for q in ("p50", "p99"):
        metrics[f"cluster.process.us.{q}"] = quantile(process_us, int(q[1:]) / 100) if len(process_us) else 0.0
    metrics["kcenter.merges"] = stats["kcenter.insert"].changed
    r = len(traced.repeats)
    steps = sum(x.type1_steps + x.type2_steps for x in traced.repeats) / r
    metrics["cluster.selected"] = sum(x.selected for x in traced.repeats) / r
    metrics["cluster.type1_steps"] = sum(x.type1_steps for x in traced.repeats) / r
    metrics["cluster.type2_steps"] = sum(x.type2_steps for x in traced.repeats) / r
    metrics["cluster.accept_ratio"] = (
        sum(x.non_bootstrap_selected for x in traced.repeats) / r / steps if steps else 0.0
    )
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    return metrics


if __name__ == "__main__":
    sys.exit(main())
