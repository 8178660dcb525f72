"""Command-line interface: run experiments, emit datasets, estimate bounds."""

from __future__ import annotations

import argparse
import json
import sys

from .cluster import MODES
from .harness import (
    GENERATORS,
    ORACLES,
    ORDERINGS,
    TrialSpec,
    gen_dataset,
    load_points,
    run_experiment,
    save_points,
)
from .lower_bound import lower_estimate


def parse_gen_params(text: str | None) -> dict:
    """Parse "k=2,n=60,spread=0.5" into a dict with numeric coercion."""
    params: dict = {}
    if not text:
        return params
    for item in text.split(","):
        if "=" not in item:
            raise argparse.ArgumentTypeError(f"bad generator parameter {item!r}")
        key, raw = item.split("=", 1)
        try:
            value: object = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        params[key.strip()] = value
    return params


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nosubkm",
        description="Streaming no-substitution k-means benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="CSV dataset, one point per row, no header")
    source.add_argument("--gen", choices=GENERATORS, help="synthetic dataset kind")
    run.add_argument("--gen-params", default=None, help="K=V,... generator parameters")
    run.add_argument("--k", type=int, required=True)
    run.add_argument("--order", choices=ORDERINGS, default="given")
    run.add_argument("--alpha", type=float, default=9.0)
    run.add_argument("--mode", choices=MODES, default="full")
    run.add_argument("--trials", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--oracle", choices=ORACLES, default="exact")
    run.add_argument("--lloyd-restarts", type=int, default=20)
    run.add_argument("--bootstrap", type=int, default=None)
    run.add_argument("--out", default=None, help="report path (stdout if omitted)")
    run.add_argument("--format", choices=("json", "csv"), default="json")

    gen = sub.add_parser("gen", help="emit a synthetic dataset to CSV")
    gen.add_argument("--kind", choices=GENERATORS, required=True)
    gen.add_argument("--gen-params", default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    lower = sub.add_parser("lower", help="estimate the selection lower bound of a file")
    lower.add_argument("--input", required=True)
    lower.add_argument("--k", type=int, required=True)
    lower.add_argument("--alpha", type=float, default=9.0)
    return parser


def cmd_run(args: argparse.Namespace) -> int:
    spec = TrialSpec(
        k=args.k,
        input_path=args.input,
        generator=args.gen,
        gen_params=parse_gen_params(args.gen_params),
        ordering=args.order,
        alpha=args.alpha,
        mode=args.mode,
        seed=args.seed,
        oracle=args.oracle,
        lloyd_restarts=args.lloyd_restarts,
        bootstrap=args.bootstrap,
    )
    result = run_experiment(spec, args.trials, out_path=args.out, out_format=args.format)
    if args.out is None:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(json.dumps(result["aggregate"], indent=2, sort_keys=True))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    points = gen_dataset(args.kind, parse_gen_params(args.gen_params), args.seed)
    save_points(points, args.out)
    print(f"wrote {len(points)} points to {args.out}")
    return 0


def cmd_lower(args: argparse.Namespace) -> int:
    points = load_points(args.input)
    seq, exact = lower_estimate(points, args.alpha, args.k)
    print(
        json.dumps(
            {"length": len(seq), "exact": exact, "indices": list(seq.indices)},
            sort_keys=True,
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "gen":
        return cmd_gen(args)
    if args.command == "lower":
        return cmd_lower(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
