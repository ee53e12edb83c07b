"""Command-line front end.

Subcommands: curate, train, sweep, boundary, collapse. Exit codes are
0 on success, 2 for configuration problems (bad flags, bad config
files or values, paths that cannot be read or written, sizes too large
to allocate), 3 for numerical failures: non-finite losses or forwards.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .autodiff import NumericalError
from .config import ConfigError, load_config
from .data import class_profile, curate_exponential, load_csv, save_csv
from .diagnostics import boundary_grid, check_bounds, collapse_report, jsonify
from .harness import SWEEP_AXES, run_all_seeds, run_sweep, _write_json
from .models import load_checkpoint, mlp_predict, named_to_mlp


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: main only reads it."""
    parser = argparse.ArgumentParser(prog="skewtrain")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curate", help="subsample a CSV to an exponential class profile")
    p.add_argument("--in", dest="in_path", required=True, help="input CSV")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--label-col", default="label")
    p.add_argument("--ratio", type=float, required=True, help="target min/max class ratio in (0, 1]")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="run all seeds of one experiment config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="results directory")

    p = sub.add_parser("sweep", help="vary one axis of an experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--baseline", default=None, help="baseline value (defaults per axis)")
    p.add_argument("--improvement-mode", default=None, dest="improvement_mode")

    p = sub.add_parser("boundary", help="decision-boundary grid from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--bounds", default="-5,5,-5,5", help="x_min,x_max,y_min,y_max")
    p.add_argument("--raw", action="store_true", help="use raw weights instead of the EMA copy")
    p.add_argument("--out", required=True, help="output CSV")

    p = sub.add_parser("collapse", help="collapse statistics for a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="CSV with the evaluation samples")
    p.add_argument("--label-col", default="label")
    p.add_argument("--out", default=None, help="output JSON (default: stdout)")

    return parser


def _load_model(args):
    named, meta = load_checkpoint(args.checkpoint)
    prefix = "mlp" if getattr(args, "raw", False) else "ema.mlp"
    try:
        return named_to_mlp(named, meta.get("mlp_sizes"), prefix)
    except ValueError as exc:
        raise ValueError(f"{args.checkpoint}: {exc}") from None


def _cmd_curate(args) -> int:
    dataset = load_csv(args.in_path, args.label_col)
    curated = curate_exponential(dataset, args.ratio, args.seed)
    save_csv(args.out, curated, label_col=args.label_col)
    profile = class_profile(curated)
    print(f"wrote {curated.n} rows over {profile.num_classes} classes to {args.out}")
    print(f"class counts: {profile.counts.tolist()} (ratio {profile.imbalance_ratio:.4g})")
    return 0


def _cmd_train(args) -> int:
    config = load_config(args.config)
    agg = run_all_seeds(config, out_dir=args.out)
    overall = agg.aggregates["overall"]
    minority = agg.aggregates["minority"]
    print(f"config {agg.config_hash}: {len(agg.results)} seeds")
    print(f"overall  {overall.mean:.4f} +/- {overall.stderr:.4f}")
    print(f"minority {minority.mean:.4f} +/- {minority.stderr:.4f}")
    print(f"results in {Path(args.out) / agg.config_hash}")
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    # run_sweep casts the strings to the axis type and rejects an empty list.
    values = [s.strip() for s in args.values.split(",") if s.strip()]
    result = run_sweep(
        config, args.axis, values,
        out_dir=args.out, baseline=args.baseline, improvement_mode=args.improvement_mode,
    )
    print(f"sweep over {args.axis}: baseline {result.baseline} ({result.improvement_mode})")
    for row in result.rows:
        overall = row.aggregates["overall"]
        minority = row.aggregates["minority"]
        print(
            f"  {row.value:>12}  overall {overall.mean:.4f} +/- {overall.stderr:.4f}"
            f"  minority {minority.mean:.4f} +/- {minority.stderr:.4f}"
            f"  improvement {row.percent_improvement:+.4f}"
        )
    print(f"improvement variance {result.improvement_variance:.6g}")
    print(f"tables in {args.out}")
    return 0


def _cmd_boundary(args) -> int:
    mlp = _load_model(args)
    if mlp.layer_sizes[0] != 2:
        raise ConfigError(f"{args.checkpoint}: boundary grids need a 2-d input model, "
                          f"got d_in={mlp.layer_sizes[0]}")
    try:
        bounds = tuple(float(s) for s in args.bounds.split(","))
        if len(bounds) != 4:
            raise ValueError("must be x_min,x_max,y_min,y_max")
        check_bounds(bounds)
    except ValueError as exc:
        raise ConfigError(f"--bounds {args.bounds!r}: {exc}") from None
    grid = boundary_grid(mlp, bounds, args.resolution)
    grid.to_csv(args.out)
    labels = np.unique(grid.labels).tolist()
    print(f"wrote {args.resolution}x{args.resolution} grid to {args.out} (labels present: {labels})")
    return 0


def _cmd_collapse(args) -> int:
    mlp = _load_model(args)
    dataset = load_csv(args.data, args.label_col)
    if dataset.d != mlp.layer_sizes[0]:
        raise ConfigError(f"{args.data} has {dataset.d} features; {args.checkpoint} takes "
                          f"d_in={mlp.layer_sizes[0]}")
    k, width = dataset.num_classes, mlp.layer_sizes[-1]
    if not 2 <= k <= width:
        # One class has no CDNV pair, and a class past the output width
        # is one the model cannot predict.
        raise ConfigError(f"{args.data} has {k} classes; collapse needs at least 2 and at most "
                          f"the checkpoint's {width} outputs")
    profile = class_profile(dataset)
    preds, _, feats = mlp_predict(mlp, dataset.X)
    report = collapse_report(feats, dataset.y, preds, profile)
    if args.out:
        _write_json(args.out, report)
        print(f"wrote collapse report to {args.out}")
    else:
        print(json.dumps(jsonify(report), indent=2))
    return 0


_COMMANDS = {
    "curate": _cmd_curate,
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "boundary": _cmd_boundary,
    "collapse": _cmd_collapse,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a bad flag and 0 after --help
        return exc.code
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: {args.command} needs more memory than it can allocate ({exc})",
              file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
