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
from dataclasses import dataclass, field

import numpy as np

from . import jacobi
from .convexity import classification_report, sub_index_to_json
from .directions import DirectionSet, min_angles_to_set, row_norms
from .errors import SubindexError, UnsupportedConfigurationError
from .flows import (
    align_soul,
    arrival_bounds_many,
    bump_flow_trajectory,
    cutoff_linear_flow,
    drift_length,
    terminal_cap_angle_bound,
)
from .torus import TorusDistanceField, _check_connectivity_grid, _check_enumeration_dim

SCHEMA_VERSION = "1"

# Bound on the floats flow-verify holds: samples x (dim + 64) for the sample
# stack and the 64-point path of each arrival bound, plus 8 per value of the
# 10 x 40 x dim trajectory values written as text. At the bound peak RSS
# stays under 512 MB: 0.39 GB at most on 2 vCPUs with py3.11 and numpy 2.4.
_MAX_FLOW_ENTRIES = 8_000_000


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    tol: float | None = None
    seed: int = 0
    fmt: str = "json"
    out: str | None = None
    options: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# report rendering
# --------------------------------------------------------------------------


def _render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def _render_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(c) if isinstance(c, float) else str(c) for c in row))
    return "\n".join(lines) + "\n"


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
        raise UsageError(f"cannot parse coordinates from {text!r}")
    if not np.all(np.isfinite(point)):
        raise UsageError(f"coordinates must be finite, got {text!r}")
    return point


# --------------------------------------------------------------------------
# subcommand handlers: each returns (payload, passed, csv header+rows or None)
# --------------------------------------------------------------------------


def _cmd_classify(cfg: RunConfig):
    path = cfg.options["input"]
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read direction set from {path}: {exc}")
    try:
        dirset = DirectionSet.from_json(text)
    except ValueError as exc:
        raise UsageError(f"cannot read direction set from {path}: {exc}")
    if cfg.tol is not None:
        dirset = DirectionSet(dim=dirset.dim, directions=dirset.directions, tolerance=cfg.tol)
    report = classification_report(dirset)
    report["schema_version"] = SCHEMA_VERSION
    return report, True, None


def _torus_field(cfg: RunConfig, dim: int, base_text: str | None = None) -> TorusDistanceField:
    base = None
    if base_text:
        base = np.array([_parse_point(p) for p in base_text.split(";")])
        if base.shape[1] != dim:
            raise UsageError("base points must match --dim")
    kwargs = {"dim": dim}
    if base is not None:
        kwargs["base"] = base
    if cfg.tol is not None:
        kwargs["tie_tol"] = cfg.tol
    return TorusDistanceField(**kwargs)


def _cmd_torus_table(cfg: RunConfig):
    dim = cfg.options["dim"]
    _check_enumeration_dim(dim)
    table = _torus_field(cfg, dim).betti_table(scan_resolution=cfg.options.get("grid"))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "dim": dim,
        "counts": {str(k): v for k, v in table.items()},
        "total": int(sum(table.values())),
    }
    rows = [[k, v] for k, v in sorted(table.items())]
    return payload, True, (["lambda", "count"], rows)


def _cmd_torus_classify(cfg: RunConfig):
    dim = cfg.options["dim"]
    point = _parse_point(cfg.options["point"])
    if point.shape[0] != dim:
        raise UsageError("--point must have --dim coordinates")
    torus = _torus_field(cfg, dim, cfg.options.get("base"))
    record = torus.classify_point(point)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "dim": dim,
        "point": [float(v) for v in np.mod(point, 1.0)],
        "level": float(torus.distance(point)),
        "critical": record is not None,
        "sub_index": None,
        "directions": None,
    }
    if record is not None:
        payload["sub_index"] = sub_index_to_json(record.sub_index)
        payload["directions"] = [[float(v) for v in d] for d in record.directions]
    return payload, True, None


def _cmd_torus_connectivity(cfg: RunConfig):
    dim = cfg.options["dim"]
    _check_connectivity_grid(dim, cfg.options["grid"])
    torus = _torus_field(cfg, dim)
    report = torus.sublevel_connectivity(
        level=cfg.options["level"], eps=cfg.options["eps"], grid=cfg.options["grid"]
    )
    report["schema_version"] = SCHEMA_VERSION
    report["dim"] = dim
    return report, bool(report["all_outer_meet_inner"]), None


def _ball_samples(rng: np.random.Generator, count: int, dim: int, radius: float) -> np.ndarray:
    raw = rng.standard_normal((count, dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radii = radius * rng.random(count) ** (1.0 / dim)
    return raw / norms * radii[:, None]


def _cmd_flow_verify(cfg: RunConfig):
    dim = cfg.options["dim"]
    radius = cfg.options["radius"]
    samples = cfg.options["samples"]
    if dim < 2:
        raise UsageError("flow-verify needs --dim >= 2")
    if radius <= 0:
        raise UsageError("--radius must be positive")
    if samples < 1:
        raise UsageError("--samples must be at least 1")
    trajectories_path = cfg.options.get("emit_trajectories")
    entries = samples * (dim + 64) + (8 * 400 * dim if trajectories_path else 0)
    if entries > _MAX_FLOW_ENTRIES:
        raise UnsupportedConfigurationError(
            f"flow-verify holds {entries} floats for --samples {samples} at --dim {dim}; "
            f"the limit is {_MAX_FLOW_ENTRIES}"
        )
    slack_tol = cfg.tol if cfg.tol is not None else 1e-12
    rng = np.random.default_rng(cfg.seed)
    drift = drift_length(radius)
    suites: dict[str, dict] = {}

    def record(name: str, slacks: np.ndarray, tol: float):
        slacks = np.asarray(slacks, dtype=float)
        suites[name] = {
            "violations": int(np.count_nonzero(slacks < -tol)),
            "worst_slack": float(slacks.min()) if slacks.size else 0.0,
        }

    ys = _ball_samples(rng, samples, dim, radius)
    ys = ys[np.linalg.norm(ys, axis=1) > 1e-9]
    _, _, _, s_cos, s_path, s_exit = arrival_bounds_many(ys, radius)
    record("arrive_cos", s_cos, slack_tol)
    record("arrive_path", s_path, slack_tol)
    record("arrive_exit", s_exit, slack_tol)

    # identity outside the bump support: the flow must return its input
    # byte-for-byte, so the slack here is a plain sup distance.
    outside = _ball_samples(rng, min(samples, 200), dim, radius)
    shell = 2.0 * radius + np.linalg.norm(outside, axis=1)
    outside = outside / np.linalg.norm(outside, axis=1, keepdims=True) * shell[:, None]
    moved = np.max(np.abs(cutoff_linear_flow(outside, 1.0, radius) - outside), axis=1)
    record("omega_identity", -moved, 0.0)

    inner_count = min(samples, 1000)
    inner = _ball_samples(rng, inner_count, dim, radius)
    inner = inner[np.linalg.norm(inner, axis=1) > 1e-9]
    arrivals = cutoff_linear_flow(inner, 1.0, radius)
    exit_slack = np.linalg.norm(arrivals, axis=1) - drift
    record("omega_exit", exit_slack + 1e-8, 0.0)

    if dim <= 3:
        canonical = np.zeros((3, dim))
        canonical[0, 0] = 1.0
        canonical[1, 0] = -1.0
        canonical[2, 1] = 1.0
        _, aligned = align_soul(DirectionSet(dim=dim, directions=canonical))
        bound = terminal_cap_angle_bound(aligned)
        norms = row_norms(arrivals)
        away = norms > 1e-9
        angles = min_angles_to_set(arrivals[away] / norms[away, None], aligned)
        record("omega_angle", bound.value - angles + 1e-9, 0.0)
        angle_note = {"cap_bound": float(bound.value), "mesh_slack": float(bound.mesh_slack)}
    else:
        angle_note = {"skipped": "cap-angle certification covers dimensions 2 and 3"}

    if trajectories_path:
        lines = [",".join(["t"] + [f"x{i + 1}" for i in range(dim)])]
        probe = _ball_samples(rng, 5, dim, radius)
        ring = probe / np.linalg.norm(probe, axis=1, keepdims=True) * (1.6 * radius)
        for y in np.vstack([probe, ring]):
            ts, points = bump_flow_trajectory(y, drift + max(0.0, y[0]), radius, steps=40)
            for t, x in zip(ts, points):
                lines.append(",".join([repr(float(t))] + [repr(float(v)) for v in x]))
        _write_report("\n".join(lines) + "\n", trajectories_path)

    passed = all(entry["violations"] == 0 for entry in suites.values())
    payload = {
        "schema_version": SCHEMA_VERSION,
        "dim": dim,
        "radius": radius,
        "samples": samples,
        "seed": cfg.seed,
        "drift_length": float(drift),
        "suites": suites,
        "angle_certificate": angle_note,
        "passed": passed,
    }
    return payload, passed, None


def _dyadic_eps(eps_min: float, eps_max: float) -> list[float]:
    if not 0 < eps_min <= eps_max:
        raise UsageError("need 0 < eps-min <= eps-max")
    out = []
    eps = eps_max
    while eps >= eps_min * (1 - 1e-12):
        out.append(eps)
        eps *= 0.5
    return out


def _cmd_jacobi_index(cfg: RunConfig):
    kappa = cfg.options["curvature"]
    length = cfg.options["length"]
    if kappa <= 0:
        raise UsageError("the cutoff construction needs positive curvature")
    geo = jacobi.ModelGeodesic(curvature=kappa, length=length, frame_dim=1)
    eps_values = _dyadic_eps(cfg.options["eps_min"], cfg.options["eps_max"])
    try:
        values = jacobi.index_divergence(geo, [1.0], eps_values)
    except SubindexError as exc:
        raise UsageError(str(exc))
    rows = [[float(e), float(v)] for e, v in zip(eps_values, values)]
    decreasing = bool(np.all(np.diff(values) < 0))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "curvature": kappa,
        "length": length,
        "rows": [{"eps": e, "index_value": v} for e, v in rows],
        "strictly_decreasing": decreasing,
    }
    return payload, decreasing, (["eps", "index_value"], rows)


def _jacobi_checks(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []

    def add(name: str, passed: bool, detail: str):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    f = jacobi.solve_boundary_jacobi(jacobi.ModelGeodesic(0.0, 1.0, 1), [1.0])
    ts = np.linspace(0, 1, 9)
    err = float(np.max(np.abs(f.value(ts)[:, 0] - (1 - ts))))
    add("boundary_field_flat_line", err < 1e-12, f"max deviation from 1-t: {err:.3e}")

    fs = jacobi.solve_boundary_jacobi(jacobi.ModelGeodesic(1.0, math.pi / 2, 1), [1.0])
    err = float(np.max(np.abs(fs.value(ts)[:, 0] - np.cos(ts))))
    add("boundary_field_sphere_cosine", err < 1e-12, f"max deviation from cos t: {err:.3e}")

    try:
        jacobi.solve_boundary_jacobi(jacobi.ModelGeodesic(1.0, math.pi, 1), [1.0])
        add("conjugate_rejection", False, "no error at a conjugate endpoint")
    except jacobi.NoSolutionError:
        add("conjugate_rejection", True, "NoSolutionError raised at the conjugate endpoint")

    ok = True
    for kappa in (-1.0, 0.0, 1.0):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        fld = jacobi.JacobiField(kappa=kappa, a=a, b=b)
        deriv = jacobi.JacobiField(kappa=kappa, a=b, b=-kappa * a)
        second = jacobi.JacobiField(kappa=kappa, a=-kappa * a, b=-kappa * b)
        tprobe = rng.random(5) * 2
        ok &= bool(np.allclose(fld.derivative(tprobe), deriv.value(tprobe), atol=0))
        ok &= bool(np.allclose(second.value(tprobe), -kappa * fld.value(tprobe), atol=0))
    add("jacobi_equation_coefficients", ok, "J'' + kappa J = 0 at coefficient level")

    worst = 0.0
    for kappa in (-1.0, 0.0, 1.0):
        for _ in range(20):
            p = jacobi.JacobiField(kappa=kappa, a=rng.standard_normal(2), b=rng.standard_normal(2))
            n = jacobi.JacobiField(kappa=kappa, a=rng.standard_normal(2), b=rng.standard_normal(2))
            vals = jacobi.lagrange_wronskian(p, n, np.linspace(0, 2.5, 11))
            worst = max(worst, float(np.ptp(vals)))
    add("lagrange_identity_constant", worst < 1e-10, f"max wronskian spread: {worst:.3e}")

    conj = jacobi.ModelGeodesic(1.0, math.pi, 3)
    kernel = jacobi.vanishing_family(conj)
    dots = [float(np.abs(p.value(0.0) @ n.derivative(0.0)).max()) for p in kernel for n in kernel]
    add(
        "kernel_orthogonality",
        all(d == 0.0 for d in dots) and not jacobi.boundary_family(conj),
        "fields vanishing at both ends start at the origin; boundary family empty",
    )

    worst = 0.0
    for kappa in (-1.0, 0.0, 1.0):
        geo = jacobi.ModelGeodesic(kappa, 2.0, 2)
        for _ in range(25):
            brk = float(rng.uniform(0.4, 1.6))
            v = _random_piecewise(rng, kappa, brk, 2.0)
            w = _random_piecewise(rng, kappa, brk, 2.0)
            quad = jacobi.index_form_quadrature(geo, v, w)
            bdry = jacobi.index_form_boundary(v, w)
            worst = max(worst, abs(quad - bdry))
    add("index_form_cross_check", worst < 1e-8, f"max route disagreement: {worst:.3e}")

    geo_pi = jacobi.ModelGeodesic(1.0, math.pi, 1)
    v = jacobi.cutoff_field(geo_pi, [1.0], 0.1)
    jump = float(np.linalg.norm(v.fields[0].value(0.1) - v.fields[1].value(0.1)))
    start = float(np.linalg.norm(v.value(0.0) - np.array([1.0])))
    add("cutoff_continuity", jump == 0.0 and start < 1e-12, f"junction jump {jump:.1e}, start offset {start:.1e}")

    eps = 0.1
    oracle = -math.cos(eps) / math.sin(eps) - math.sin(eps) + math.tan(eps / 2) * (math.cos(eps) - 1)
    got = float(jacobi.index_divergence(geo_pi, [1.0], [eps])[0])
    add("index_divergence_oracle", abs(got - oracle) < 1e-6, f"value {got:.9f} vs closed form {oracle:.9f}")

    seq = jacobi.index_divergence(geo_pi, [1.0], [2.0**-k for k in range(3, 13)])
    add(
        "index_divergence_monotone",
        bool(np.all(np.diff(seq) < 0) and seq[-1] < -1e3),
        f"final value {seq[-1]:.1f}",
    )

    b_flat = jacobi.boundary_norm_bound(jacobi.ModelGeodesic(0.0, 2.0, 1))
    add("boundary_norm_flat", abs(b_flat - 1.0) < 1e-9, f"flat bound {b_flat:.6f} (affine fields peak at the ends)")

    b_sph = jacobi.boundary_norm_bound(jacobi.ModelGeodesic(1.0, math.pi, 1))
    add("boundary_norm_sphere", abs(b_sph - math.sqrt(2)) < 1e-4, f"bound {b_sph:.6f} vs pinned sqrt(2)")

    _, excess = jacobi.second_variation_check(0.0, 1.0, 2 * math.pi / 3)
    add("second_variation_flat", bool(np.all(excess[-3:] <= 1e-6)), f"tail excess {excess[-1]:.3e}")
    model, _ = jacobi.second_variation_check(0.0, 1.0, math.pi / 3)
    expect = math.sin(math.pi / 3) ** 2 / 1.0
    add("flat_quadratic_coefficient", abs(model.h - expect) < 1e-12, f"h {model.h:.12f} vs sin^2(theta)/c0")

    _, excess = jacobi.second_variation_check(1.0, math.pi / 2, math.pi / 2)
    add("second_variation_sphere_perp", bool(np.all(np.abs(excess) <= 1e-6)), f"max |excess| {np.max(np.abs(excess)):.3e}")

    theta = 1.1
    tsmall = np.array([2.0**-k for k in range(6, 13)])
    lead = (jacobi.model_distance(1.0, 1.2, theta, tsmall) - 1.2) / tsmall + math.cos(theta)
    add(
        "first_order_leading_term",
        bool(np.all(np.abs(lead) <= 2.0 * tsmall)),
        f"residual/t stays bounded: max ratio {np.max(np.abs(lead) / tsmall):.3f}",
    )

    try:
        jacobi.second_variation_check(1.0, math.pi, 0.3)
        add("conjugate_model_rejection", False, "no error for the conjugate model")
    except jacobi.NoSolutionError:
        add("conjugate_model_rejection", True, "conjugate model refers to the divergence path")

    return checks


def _random_piecewise(rng: np.random.Generator, kappa: float, brk: float, length: float):
    f0 = jacobi.JacobiField(kappa=kappa, a=rng.standard_normal(2), b=rng.standard_normal(2))
    mid = f0.value(brk)
    target = rng.standard_normal(2)
    f1 = jacobi.JacobiField.from_two_point(kappa, brk, mid, length, target)
    return jacobi.PiecewiseJacobi(breaks=np.array([0.0, brk, length]), fields=(f0, f1))


def _cmd_jacobi_verify(cfg: RunConfig):
    checks = _jacobi_checks(cfg.seed)
    passed = all(c["passed"] for c in checks)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        "checks": checks,
        "passed": passed,
    }
    return payload, passed, None


# --------------------------------------------------------------------------
# argument parsing and dispatch
# --------------------------------------------------------------------------


@functools.cache  # building it takes about 25 times as long as one parse
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subindex",
        description="criticality, sub-index, flow, and index-form verification tools",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None, help="override the command's main tolerance")
    common.add_argument("--seed", type=int, default=0, help="seed for all random sampling")
    common.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    common.add_argument("--out", default=None, help="write the report to this path (atomic)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common], help="classify a direction set from JSON")
    p.add_argument("--input", required=True, help="path to a direction-set JSON file")

    p = sub.add_parser("torus-table", parents=[common], help="critical point counts by sub-index")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--grid", type=int, default=None, help="regularity scan resolution per axis")

    p = sub.add_parser("torus-classify", parents=[common], help="classify one torus point")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--base", default=None, help="semicolon-separated base points (default: center)")

    p = sub.add_parser("torus-connectivity", parents=[common], help="sublevel connectivity across a gap")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--level", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--grid", type=int, required=True)

    p = sub.add_parser("flow-verify", parents=[common], help="arrival and cutoff-flow inequality suites")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--emit-trajectories", default=None, dest="emit_trajectories", help="CSV path for sampled trajectories")

    p = sub.add_parser("jacobi-index", parents=[common], help="diverging index values of the cutoff field")
    p.add_argument("--curvature", type=float, required=True)
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--eps-min", type=float, default=2e-4, dest="eps_min")
    p.add_argument("--eps-max", type=float, default=0.2, dest="eps_max")

    sub.add_parser("jacobi-verify", parents=[common], help="run the Jacobi invariant suite")

    return parser


_HANDLERS = {
    "classify": _cmd_classify,
    "torus-table": _cmd_torus_table,
    "torus-classify": _cmd_torus_classify,
    "torus-connectivity": _cmd_torus_connectivity,
    "flow-verify": _cmd_flow_verify,
    "jacobi-index": _cmd_jacobi_index,
    "jacobi-verify": _cmd_jacobi_verify,
}

_GLOBAL_KEYS = {"command", "tol", "seed", "fmt", "out"}


def _check_out_path(path: str | None):
    if path and os.path.isdir(path):
        raise UsageError(f"output path {path!r} is a directory")
    if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise UsageError(f"directory of {path!r} does not exist")


def _check_finite(config: RunConfig):
    for name, value in [("tol", config.tol), *config.options.items()]:
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"--{name.replace('_', '-')} must be finite, got {value}")


def run(config: RunConfig) -> int:
    """Dispatch a parsed configuration; returns the process exit status.

    A library ValueError means the arguments were out of the function's
    domain, so it is reported as a usage error, as is an unsupported
    configuration.
    """
    handler = _HANDLERS[config.command]
    try:
        _check_finite(config)
        _check_out_path(config.out)
        _check_out_path(config.options.get("emit_trajectories"))
        payload, passed, table = handler(config)
    except (UsageError, ValueError, UnsupportedConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SubindexError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if config.fmt == "csv":
        if table is None:
            print(f"error: {config.command} has no CSV table; use --format json", file=sys.stderr)
            return 2
        text = _render_csv(*table)
    else:
        text = _render_json(payload)
    _write_report(text, config.out)
    return 0 if passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fields = vars(args)
    config = RunConfig(
        command=fields["command"],
        tol=fields.get("tol"),
        seed=fields.get("seed", 0),
        fmt=fields.get("fmt", "json"),
        out=fields.get("out"),
        options={k: v for k, v in fields.items() if k not in _GLOBAL_KEYS},
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
