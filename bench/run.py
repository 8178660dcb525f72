"""Benchmark entry point: run one workload in fresh worker processes.

    python3 bench/run.py --workload sparse_stream [--seed 1] [--seconds 30] [--trace 0|1]

Set-up time is measured from each worker's start to its first timed call
(interpreter start, imports, input generation), over several fresh
processes; the workload itself runs in the last of them. The last line of
standard output is one JSON object: correct, attempted, failed and the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else None

WORKLOADS = ("sparse_stream", "lloyd_trial", "exact_small")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
SETUP_SAMPLES = 9
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
# Wall-clock limit for one worker; the whole benchmark must end within 180 s.
WORKER_TIMEOUT_S = 170


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    return env


def start_worker(args, extra: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with its set-up time (start to READY)."""
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        *extra,
    ]
    began = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - began
    if line.strip() != "READY":
        stop(proc, deadline)
        raise RuntimeError(f"worker failed during set-up (exit code {proc.returncode})")
    return proc, setup_s


def stop(proc: subprocess.Popen, deadline: float) -> str:
    """Collect the rest of the worker's output and wait for it to end."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past its time limit and was killed")
    return out


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metric_specs(kind: str) -> list[dict]:
    if BENCHMARK is None:
        raise RuntimeError("BENCHMARK.json not found next to the benchmark directory")
    return BENCHMARK[kind]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full", help="tiny is for the smoke test")
    args = ap.parse_args(argv)

    if not (SRC / "nosubkm" / "__init__.py").is_file():
        print(f"error: no nosubkm sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + WORKER_TIMEOUT_S

    try:
        setup = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, seconds = start_worker(args, ["--setup-only"], deadline)
            stop(proc, deadline)
            setup.append(seconds)
        spans = ROOT / ".benchout" / f"spans-{args.workload}-s{args.seed}.npz"
        proc, seconds = start_worker(args, ["--spans-out", str(spans)], deadline)
        setup.append(seconds)
        out = stop(proc, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(lines[-1])

    measured = {
        "setup_s": statistics.median(setup),
        "call_ms": res["call_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  size {args.size}")
    print(f"shape    {res['shape']}")
    print(
        f"host     python {platform.python_version()}  numpy {res['numpy']}  "
        f"nproc {os.cpu_count()}  cpu {cpu_model()}"
    )
    print(f"loop     closed, 1 caller; {res['calls']} calls of {res['call']} in {res['repeats']} repeats")
    for problem in res["problems"]:
        print(f"FAILED   {problem}")
    if args.trace:
        print("end-to-end rows come from the untraced half; peak_rss_mb includes the spans held in memory")
    print(f"{'metric':<40} {'value':>14}  unit")
    for spec in metric_specs("end_to_end"):
        print(f"{spec['name']:<40} {measured[spec['name']]:>14.6g}  {spec['unit']}")
    print("not gated:")
    print(f"{'wall_s':<40} {res['wall_s']:>14.6g}  s")
    print(f"{'call_ms.p50':<40} {res['call_ms_p50']:>14.6g}  ms")
    # a tail is shown only where at least ten calls lie beyond it
    for q, min_calls in (("p90", 100), ("p99", 1000)):
        if res["calls"] >= min_calls:
            print(f"{'call_ms.' + q:<40} {res['call_ms_' + q]:>14.6g}  ms")
    print(f"{'failed_frac':<40} {failed / attempted:>14.6g}  ratio")
    print(f"{'decision_digest':<40} {res['decision_digest']}")

    if args.trace:
        layers = res["layers"]
        print(f"per-layer, one traced set-up plus one repeat; spans in {spans.relative_to(ROOT)}")
        for spec in metric_specs("per_layer"):
            print(f"{spec['name']:<40} {layers[spec['name']]:>14.6g}  {spec['unit']}")
        chosen = layers
        kind = "per_layer"
    else:
        chosen = measured
        kind = "end_to_end"
    metrics = {s["name"]: {"value": chosen[s["name"]], "unit": s["unit"]} for s in metric_specs(kind)}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
