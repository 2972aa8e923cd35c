"""Command line interface.

Subcommands:
  sample           realize one graph and dump points, edges, and paths as JSON
                   (for k <= 3 the points are the anchors' neighbours)
  run              run an experiment from a JSON config file
  preset           run a named built-in experiment
  validate-margin  truncation-bias check for a preset or config file
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ReplicationError, ValidationError
from .experiments import (
    PRESET_NAMES,
    _write_json,
    config_from_dict,
    config_to_dict,
    load_config,
    params_to_dict,
    preset_config,
    run_experiment,
    validate_margin,
    write_margin_csv,
    write_margin_json,
)
from .model import ConnectionSpec, ModelParams, region_for
from .paths import khop_paths
from .sampler import sample_realization


def _connection_from_args(args) -> ConnectionSpec:
    if args.kind == "rayleigh":
        return ConnectionSpec.rayleigh(beta=args.beta, eta=args.eta)
    if args.kind == "hard-disk":
        return ConnectionSpec.hard_disk(args.r0)
    if not args.table:
        raise ValidationError("--table is required for a tabulated connection")
    return ConnectionSpec.tabulated(json.loads(args.table))


def _cmd_sample(args) -> int:
    spec = _connection_from_args(args)
    params = ModelParams(
        rho=args.rho,
        connection=spec,
        anchor_distance=args.anchor_distance,
        k=args.k,
        margin=args.margin,
    )
    g = sample_realization(params, args.seed, args.replication)
    paths = khop_paths(g, args.k).tolist()
    # k <= 3 draws the anchors' neighbours in the whole plane, with no box
    region = None
    if args.k >= 4:
        box = region_for(params)
        region = {"min": [box.min_corner.x, box.min_corner.y], "max": [box.max_corner.x, box.max_corner.y]}
    payload = {
        "params": params_to_dict(params),
        "seed": args.seed,
        "replication": args.replication,
        "region": region,
        "points": g.points.tolist(),
        "edges": g.edges().tolist(),
        "k": args.k,
        "path_count": len(paths),
        "paths": paths,
    }
    if args.out:
        _write_json(args.out, payload)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _apply_overrides(config, args):
    d = config_to_dict(config)
    if args.seed is not None:
        d["seed"] = args.seed
    if args.replications is not None:
        d["replications"] = args.replications
    if args.out is not None:
        d["outputs"] = args.out
    if args.strict:
        d["strict_numerics"] = True
    return config_from_dict(d)


def _cmd_run(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    reports = run_experiment(config, threads=args.threads)
    print(f"wrote {len(reports)} grid point(s) to {config.outputs}/{config.name}.csv|.json")
    return 0


def _cmd_preset(args) -> int:
    config = _apply_overrides(
        preset_config(args.name, outputs="results", anchor_distance=args.anchor_distance), args
    )
    reports = run_experiment(config, threads=args.threads)
    print(f"wrote {len(reports)} grid point(s) to {config.outputs}/{config.name}.csv|.json")
    return 0


def _cmd_validate_margin(args) -> int:
    source = load_config(args.config) if args.preset is None else preset_config(args.preset, outputs="results")
    config = _apply_overrides(source, args)
    checks = validate_margin(config, replications=args.replications, threads=args.threads)
    os.makedirs(config.outputs, exist_ok=True)
    base = os.path.join(config.outputs, config.name + "_margin")
    write_margin_csv(base + ".csv", config, checks)
    write_margin_json(base + ".json", config, checks)
    flagged = [c.grid_index for c in checks if c.flagged]
    if flagged:
        print(f"flagged grid points (truncation bias suspected): {flagged}")
    else:
        print("no truncation bias detected")
    print(f"wrote {base}.csv|.json")
    return 0


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--replications", type=int, default=None, help="replication count override")
    parser.add_argument("--threads", type=int, default=1, help="worker processes (at most the usable CPUs)")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--strict", action="store_true", help="turn numeric warnings into errors")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcmpaths",
        description="Hop-count path statistics for random connection models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="dump one realization as JSON")
    p_sample.add_argument("--rho", type=float, default=1.0)
    p_sample.add_argument("--kind", choices=["rayleigh", "hard-disk", "tabulated"], default="rayleigh")
    p_sample.add_argument("--beta", type=float, default=1.0)
    p_sample.add_argument("--eta", type=float, default=2.0)
    p_sample.add_argument("--r0", type=float, default=1.0)
    p_sample.add_argument("--table", type=str, default=None, help="JSON list of [distance, probability]")
    p_sample.add_argument("--anchor-distance", type=float, default=1.0)
    p_sample.add_argument("--k", type=int, default=3)
    p_sample.add_argument("--margin", type=float, default=None)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--replication", type=int, default=0)
    p_sample.add_argument("--out", type=str, default=None, help="output file (default stdout)")
    p_sample.set_defaults(func=_cmd_sample)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config file")
    p_run.add_argument("config", type=str, help="path to JSON experiment config")
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_preset = sub.add_parser("preset", help="run a named built-in experiment")
    p_preset.add_argument("name", choices=list(PRESET_NAMES))
    p_preset.add_argument(
        "--anchor-distance", type=float, default=None, help="fixed anchor separation (fig-mean-var sweeps it)"
    )
    _add_common(p_preset)
    p_preset.set_defaults(func=_cmd_preset)

    p_margin = sub.add_parser("validate-margin", help="truncation-bias check")
    source = p_margin.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=str, default=None)
    source.add_argument("--preset", type=str, default=None, choices=list(PRESET_NAMES))
    _add_common(p_margin)
    p_margin.set_defaults(func=_cmd_validate_margin)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a worker pool forks all of its workers at once
        cpus = _usable_cpus()
        if getattr(args, "threads", 1) > cpus:
            raise ValidationError(f"threads: must be at most the {cpus} usable CPUs, got {args.threads}")
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReplicationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
