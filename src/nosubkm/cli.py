"""Command-line interface: run experiments, emit datasets, estimate bounds."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .cluster import MODES
from .harness import (
    GENERATORS,
    ORACLES,
    ORDERINGS,
    REPORT_FORMATS,
    TrialSpec,
    gen_dataset,
    load_points,
    report_text,
    run_experiment,
    save_points,
)
from .lower_bound import SequenceOverflowError, lower_estimate


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

    # An omitted option is absent from the namespace, so TrialSpec and
    # run_experiment supply its default; each dest is the name it fills.
    run = sub.add_parser("run", help="run one experiment", argument_default=argparse.SUPPRESS)
    run.set_defaults(func=cmd_run, error=run.error)
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--input", dest="input_path", metavar="INPUT",
        help="CSV dataset, one point per row, no header",
    )
    source.add_argument(
        "--gen", dest="generator", choices=GENERATORS, help="synthetic dataset kind"
    )
    run.add_argument(
        "--gen-params", type=parse_gen_params, metavar="GEN_PARAMS",
        help="K=V,... generator parameters",
    )
    run.add_argument("--k", type=int, required=True)
    run.add_argument("--order", dest="ordering", choices=ORDERINGS)
    run.add_argument("--alpha", type=float)
    run.add_argument("--mode", choices=MODES)
    run.add_argument("--trials", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--oracle", choices=ORACLES)
    run.add_argument("--lloyd-restarts", type=int)
    run.add_argument("--bootstrap", type=int)
    run.add_argument(
        "--out", dest="out_path", metavar="OUT", help="report path (stdout if omitted)"
    )
    run.add_argument("--format", dest="out_format", choices=REPORT_FORMATS)

    gen = sub.add_parser("gen", help="emit a synthetic dataset to CSV")
    gen.set_defaults(func=cmd_gen, error=gen.error)
    gen.add_argument("--kind", choices=GENERATORS, required=True)
    gen.add_argument("--gen-params", type=parse_gen_params, default={})
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    lower = sub.add_parser("lower", help="estimate the selection lower bound of a file")
    lower.set_defaults(func=cmd_lower, error=lower.error)
    lower.add_argument("--input", required=True)
    lower.add_argument("--k", type=int, required=True)
    lower.add_argument("--alpha", type=float, default=TrialSpec.alpha)
    return parser


def cmd_run(args: argparse.Namespace) -> int:
    # What is left once the spec's fields and the dispatch entries are
    # taken out is run_experiment's trials, out_path and out_format.
    # An invalid spec, an unreadable input or an instance the oracle
    # refuses is a usage error (exit 2), as a malformed option is.
    given = dict(vars(args))
    del given["command"], given["func"], given["error"]
    try:
        spec = TrialSpec(
            **{f.name: given.pop(f.name) for f in fields(TrialSpec) if f.name in given}
        )
    except ValueError as exc:
        args.error(str(exc))
    try:
        result = run_experiment(spec, **given)
    except (OSError, ValueError, SequenceOverflowError) as exc:
        args.error(str(exc))
    if "out_path" in given:
        print(json.dumps(result["aggregate"], indent=2, sort_keys=True))
    else:
        sys.stdout.write(report_text(result, given.get("out_format", "json")))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        points = gen_dataset(args.kind, args.gen_params, args.seed)
        save_points(points, args.out)
    except (OSError, ValueError, SequenceOverflowError) as exc:
        args.error(str(exc))
    print(f"wrote {len(points)} points to {args.out}")
    return 0


def cmd_lower(args: argparse.Namespace) -> int:
    try:
        seq, exact = lower_estimate(load_points(args.input), args.alpha, args.k)
    except (OSError, ValueError) as exc:
        args.error(str(exc))
    print(
        json.dumps(
            {"length": len(seq), "exact": exact, "indices": list(seq)},
            sort_keys=True,
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
