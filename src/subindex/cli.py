"""Command-line interface.

Subcommands:

- classify: read a direction-set JSON file and report criticality, polar
  region variant, soul, and sub-index.
- torus-table: counts of critical points by sub-index on the centered torus.
- torus-classify: classify one torus point (optionally with a custom base).
- torus-connectivity: sublevel connectivity report across a level gap.
- flow-verify: run the arrival and cutoff-flow inequality suites.
- jacobi-index: table of diverging index-form values for the cutoff field.
- jacobi-verify: run the Jacobi invariant suite and report pass/fail.

This module only parses arguments and writes reports; the suites live in
:func:`subindex.flows.flow_verify` and :func:`subindex.jacobi.invariant_checks`.
Reports are written atomically (temp file then rename) and are byte-stable
for a fixed configuration, including the seed. Exit status is 0 when every
contracted check in the requested run passes, 1 on a failed check, 2 on a
usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import flows, jacobi
from .convexity import classification_report, sub_index_to_json
from .directions import DirectionSet
from .errors import InternalInconsistencyError, SubindexError, UnsupportedConfigurationError
from .torus import TorusDistanceField

SCHEMA_VERSION = "1"


def _write_report(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_point(text: str) -> np.ndarray:
    try:
        point = np.array([float(part) for part in text.split(",")])
    except ValueError:
        raise ValueError(f"cannot parse coordinates from {text!r}")
    if not np.all(np.isfinite(point)):
        raise ValueError(f"coordinates must be finite, got {text!r}")
    return point


# --------------------------------------------------------------------------
# subcommand handlers: each takes the parsed arguments and returns
# (report, passed, (csv header, csv rows) or None)
# --------------------------------------------------------------------------


def _cmd_classify(args):
    try:
        with open(args.input) as fh:
            dirset = DirectionSet.from_json(fh.read())
    except (OSError, ValueError, OverflowError) as exc:  # OverflowError: an integer past the float range
        raise ValueError(f"cannot read direction set from {args.input}: {exc}")
    return classification_report(dirset), True, None


def _cmd_torus_table(args):
    table = TorusDistanceField(args.dim).betti_table()
    report = {
        "dim": args.dim,
        "counts": {str(k): v for k, v in table.items()},
        "total": int(sum(table.values())),
    }
    return report, True, (["lambda", "count"], [[k, v] for k, v in sorted(table.items())])


def _cmd_torus_classify(args):
    point = _parse_point(args.point)
    if point.shape[0] != args.dim:
        raise ValueError("--point must have --dim coordinates")
    base = None
    if args.base:
        base = [_parse_point(p) for p in args.base.split(";")]
        if any(b.shape[0] != args.dim for b in base):
            raise ValueError("base points must each have --dim coordinates")
    tie_tol = {} if args.tol is None else {"tie_tol": args.tol}
    torus = TorusDistanceField(args.dim, base, **tie_tol)
    record = torus.classify_point(point)
    report = {
        "dim": args.dim,
        "point": [float(v) for v in np.mod(point, 1.0)],
        "level": float(torus.distance(point)),
        "critical": record is not None,
        "sub_index": None,
        "directions": None,
    }
    if record is not None:
        report["sub_index"] = sub_index_to_json(record.sub_index)
        report["directions"] = [[float(v) for v in d] for d in record.directions]
    return report, True, None


def _cmd_torus_connectivity(args):
    report = TorusDistanceField(args.dim).sublevel_connectivity(level=args.level, eps=args.eps, grid=args.grid)
    report["dim"] = args.dim
    return report, bool(report["all_outer_meet_inner"]), None


def _cmd_flow_verify(args):
    tol = 1e-12 if args.tol is None else args.tol
    report, trajectories = flows.flow_verify(
        args.dim, args.radius, args.samples, args.seed, tol, args.emit_trajectories is not None
    )
    if trajectories is not None:
        _write_report(trajectories, args.emit_trajectories)
    return report, report["passed"], None


def _cmd_jacobi_index(args):
    if not 0 < args.eps_min <= args.eps_max:
        raise ValueError("need 0 < eps-min <= eps-max")
    eps_values = [args.eps_max]
    while eps_values[-1] * 0.5 >= args.eps_min * (1 - 1e-12):
        eps_values.append(eps_values[-1] * 0.5)
    geo = jacobi.ModelGeodesic(curvature=args.curvature, length=args.length, frame_dim=1)
    try:
        values = jacobi.index_divergence(geo, [1.0], eps_values)
    except InternalInconsistencyError as exc:
        # the two index-form routes part below some width, and --eps-min sets the smallest
        raise ValueError(f"--eps-min {args.eps_min!r} is too small: {exc}")
    except SubindexError as exc:
        raise ValueError(str(exc))
    rows = [[float(e), float(v)] for e, v in zip(eps_values, values)]
    decreasing = bool(np.all(np.diff(values) < 0))
    report = {
        "curvature": args.curvature,
        "length": args.length,
        "rows": [{"eps": e, "index_value": v} for e, v in rows],
        "strictly_decreasing": decreasing,
    }
    return report, decreasing, (["eps", "index_value"], rows)


def _cmd_jacobi_verify(args):
    checks = jacobi.invariant_checks(args.seed)
    passed = all(c["passed"] for c in checks)
    return {"seed": args.seed, "checks": checks, "passed": passed}, passed, None


# --------------------------------------------------------------------------
# argument parsing and dispatch
# --------------------------------------------------------------------------


@functools.cache  # building it takes about 25 times as long as one parse
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subindex",
        description="criticality, sub-index, flow, and index-form verification tools",
    )
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    report.add_argument("--out", default=None, help="write the report to this path (atomic)")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=None, help="override the command's main tolerance")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="seed for all random sampling")

    sub = parser.add_subparsers(dest="command", required=True)

    # the parents' actions are shared by every subparser, so no subparser may
    # change their defaults; a command's own default goes in its handler
    def command(name, handler, help, *parents, table=False):
        p = sub.add_parser(name, parents=[report, *parents], help=help)
        p.set_defaults(handler=handler, table=table)
        return p

    p = command("classify", _cmd_classify, "classify a direction set from JSON")
    p.add_argument("--input", required=True, help="path to a direction-set JSON file")

    p = command("torus-table", _cmd_torus_table, "critical point counts by sub-index", table=True)
    p.add_argument("--dim", type=int, required=True)

    p = command("torus-classify", _cmd_torus_classify, "classify one torus point", tol)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--base", default=None, help="semicolon-separated base points (default: center)")

    p = command("torus-connectivity", _cmd_torus_connectivity, "sublevel connectivity across a gap")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--level", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--grid", type=int, required=True)

    p = command("flow-verify", _cmd_flow_verify, "arrival and cutoff-flow inequality suites", tol, seed)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--emit-trajectories", default=None, dest="emit_trajectories", help="CSV path for sampled trajectories")

    p = command("jacobi-index", _cmd_jacobi_index, "diverging index values of the cutoff field", table=True)
    p.add_argument("--curvature", type=float, required=True)
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--eps-min", type=float, default=2e-4, dest="eps_min")
    p.add_argument("--eps-max", type=float, default=0.2, dest="eps_max")

    command("jacobi-verify", _cmd_jacobi_verify, "run the Jacobi invariant suite", seed)

    return parser


def _check_args(args):
    """Usage errors the parser misses: a non-finite float, a negative seed, an
    output path that cannot be written, or CSV for a report that is not a table."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if getattr(args, "seed", 0) < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    for path in (args.out, getattr(args, "emit_trajectories", None)):
        if path is None:
            continue
        if not path or os.path.isdir(path):
            raise ValueError(f"output path {path!r} is empty or a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ValueError(f"directory of {path!r} does not exist")
    if args.fmt == "csv" and not args.table:
        raise ValueError(f"{args.command} has no CSV table; use --format json")


def main(argv=None) -> int:
    """Run one subcommand; returns the process exit status.

    A ValueError means the arguments were out of a function's domain, so it
    is reported as a usage error (exit 2), as is an unsupported
    configuration; any other library failure exits 1.
    """
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        report, passed, csv_table = args.handler(args)
    except (ValueError, UnsupportedConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SubindexError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.fmt == "csv":
        header, rows = csv_table
        text = "".join(
            ",".join(repr(c) if isinstance(c, float) else str(c) for c in row) + "\n" for row in [header, *rows]
        )
    else:
        report["schema_version"] = SCHEMA_VERSION
        text = json.dumps(report, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
    _write_report(text, args.out)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
