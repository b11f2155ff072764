"""The four benchmark workloads: inputs from a seed, truth from construction.

Every input is built so that its correct output is known from how it was
built, never from the classifier under test:

- direction sets are assembled from a regular simplex in a random subspace
  plus extra rows placed on a known side of a known hyperplane, which fixes
  the criticality flag, the polar-region variant, its span and the sub-index;
- generated rows are at least MIN_CHORD apart, so deduplication must keep
  every row (see ``known_defects`` for duplicate and near-parallel rows);
- torus points have every coordinate in {0, 1/2} (critical, sub-index = the
  number of zeros) or at least one coordinate well inside (0, 1/2) or
  (1/2, 1) (regular), and single-point sublevel sets are star-shaped about
  the base, hence connected on any grid that contains the base point;
- the flow and Jacobi suites report ``passed`` themselves, and the index
  values at curvature 1 and length pi are checked against a closed form.

A workload is a list of operations run in order; one pass over the list is
the unit that ``wall_s`` times. ``size="tiny"`` shrinks every list for the
benchmark's self-test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import subindex.cli
import subindex.convexity
import subindex.directions
import subindex.errors
import subindex.torus

# rows on the far side of a hyperplane keep at least this cosine from it, which
# keeps every LP margin many orders of magnitude away from the (1e-9, 1e-7) band
SIDE_COS = 0.2
MIN_CHORD = 1e-4  # generated rows are at least this far apart
SOUL_SLACK = 1e-9


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


# --------------------------------------------------------------------------
# direction sets with known classification
# --------------------------------------------------------------------------


def _unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _frame(rng, n, k):
    """k random orthonormal columns in R^n."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q[:, :k]


def _simplex(k):
    """k + 1 unit vectors in R^k summing to zero (a regular simplex)."""
    centered = np.eye(k + 1) - 1.0 / (k + 1)
    _, _, vt = np.linalg.svd(centered)
    pts = centered @ vt[:k].T
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _perp_unit(rng, w):
    t = rng.standard_normal(w.shape[0])
    t -= (t @ w) * w
    return t / np.linalg.norm(t)


def _side_row(rng, w, sign):
    """A unit row whose cosine with w is sign * c, c in [SIDE_COS, 1]."""
    c = rng.uniform(SIDE_COS, 1.0)
    return sign * c * w + math.sqrt(1.0 - c * c) * _perp_unit(rng, w)


def _fill(rows, total, draw):
    """Append draw() until there are ``total`` rows at least MIN_CHORD apart."""
    out = np.empty((total, len(rows[0])))
    count = len(rows)
    out[:count] = rows
    while count < total:
        cand = draw()
        if np.linalg.norm(out[:count] - cand, axis=1).min() > MIN_CHORD:
            out[count] = cand
            count += 1
    return out


def build_set(rng, variant: str, n: int, k: int, m: int):
    """(rows, truth) for a set of m distinct unit rows in R^n.

    k is the dimension of the simplex's subspace for the two variants that
    need one; truth holds the expected report fields.
    """
    if variant == "regular":
        w = _unit(rng, n)
        if n == 1:
            rows = -w[None, :]
        else:
            rows = _fill([_side_row(rng, w, -1.0)], m, lambda: _side_row(rng, w, -1.0))
        truth = {"critical": False, "variant": None, "span_dim": None, "sub_index": None}
    elif variant == "empty":
        base = _simplex(n) @ _frame(rng, n, n).T
        rows = _fill(base, m, lambda: _unit(rng, n))
        truth = {"critical": True, "variant": "empty", "span_dim": None, "sub_index": n}
    elif variant == "great_subsphere":
        basis = _frame(rng, n, k)
        base = _simplex(k) @ basis.T
        rows = _fill(base, m, lambda: basis @ _unit(rng, k)) if k > 1 else base
        truth = {"critical": True, "variant": "great_subsphere", "span_dim": n - k, "sub_index": k}
    elif variant == "with_boundary":
        frame = _frame(rng, n, k + 1)
        w = frame[:, k]
        base = _simplex(k) @ frame[:, :k].T
        # every extra row has u . w >= SIDE_COS > 0, so no convex representation
        # of 0 puts weight on it: 0 lies on the relative boundary of the hull
        rows = _fill(list(base) + [_side_row(rng, w, 1.0)], m, lambda: _side_row(rng, w, 1.0))
        truth = {"critical": True, "variant": "with_boundary", "span_dim": None, "sub_index": "inf"}
    else:
        raise ValueError(variant)
    rows = rows[rng.permutation(len(rows))]
    return rows, truth


def _rotated_copy(rng, rows, src, lo, hi):
    """rows[src] turned by an angle in [lo, hi] toward another row of the set.

    Turning inside the plane of two rows keeps every constraint the set was
    built with (its subspace, and the side of the hyperplane each row is on).
    """
    u = rows[src]
    while True:
        v = rows[int(rng.integers(len(rows)))]
        t = v - (v @ u) * u
        norm = np.linalg.norm(t)
        if norm > 1e-3:
            break
    theta = rng.uniform(lo, hi)
    return math.cos(theta) * u + math.sin(theta) * (t / norm)


def known_defects(seed: int) -> dict:
    """Reproduce two defects of the classifier found when this benchmark was built.

    Both kinds of input are kept out of the timed operations, which would
    otherwise fail, and are counted on every run instead:

    - ``dedup``: exact copies and copies turned by 1e-10..5e-9 rad must
      collapse to one row (angle below DEDUP_ANGLE = 1e-8), but some do not:
      arccos of a dot product that rounds to 1 - 2**-53 reads 1.49e-8;
    - ``soul_precision``: boundary-variant sets with rows 1e-7..1e-6 rad
      apart, all distinct and all far from the ambiguity band, are sometimes
      refused with InternalInconsistencyError because the soul found by the
      LP misses the polar cone by more than the 1e-9 it is checked to.
    """
    rng = np.random.default_rng([seed, 9])
    pairs = {"pairs": 200, "exact_kept_twice": 0, "turned_kept_twice": 0}
    for i in range(pairs["pairs"]):
        u = _unit(rng, 3 + i % 6)
        rows = np.array([u, _unit(rng, u.shape[0])])
        for key, copy in (("exact_kept_twice", u.copy()),
                          ("turned_kept_twice", _rotated_copy(rng, rows, 0, 1e-10, 5e-9))):
            pairs[key] += len(subindex.directions.DirectionSet.from_vectors(np.array([u, copy]))) != 1
    souls = {"sets": 40, "refused": 0}
    for i in range(souls["sets"]):
        n = 3 + i % 6
        rows, _ = build_set(rng, "with_boundary", n, 1 + (5 * i) % (n - 1), 16)
        copies = [_rotated_copy(rng, rows, src, 1e-7, 1e-6) for src in rng.choice(16, size=8, replace=False)]
        dirset = subindex.directions.DirectionSet.from_vectors(np.vstack([rows, copies]))
        try:
            subindex.convexity.classification_report(dirset)
        except subindex.errors.SubindexError:
            souls["refused"] += 1
    return {"dedup": pairs, "soul_precision": souls}


VARIANTS = ("regular", "empty", "great_subsphere", "with_boundary")


def _subspace_dim(variant, n, i):
    """Simplex subspace dimension of the i-th set (fixed, not seeded)."""
    if variant in ("great_subsphere", "with_boundary"):
        return 1 + (5 * i) % (n - 1)
    return 0


def _row_range(variant, n, k, top):
    """Smallest and largest row count a variant allows; S^0 has only two points."""
    if variant == "regular":
        return (1, 1) if n == 1 else (2, top)
    if variant == "empty":
        return (2, 2) if n == 1 else (n + 1, top)
    if variant == "great_subsphere":
        return (2, 2) if k == 1 else (k + 1, top)
    return k + 2, top


def stream_schedule(count: int):
    """(variant, n, k, m) for the small-set stream: dims 1-6, m <= 24, no duplicates."""
    specs = []
    for i in range(count):
        n = 1 + i % 6
        variant = VARIANTS[(i // 6) % 4]
        if n == 1:  # a line has no proper subspace to put a simplex in
            variant = "empty" if variant == "great_subsphere" else variant
            variant = "regular" if variant == "with_boundary" else variant
        k = _subspace_dim(variant, n, i // 6)
        lo, hi = _row_range(variant, n, k, 24)
        specs.append((variant, n, k, lo + (7 * i) % (hi - lo + 1)))
    return specs


def wide_schedule(count: int):
    """(variant, n, k, m) for wide sets: dims 3-8, m = 64..256 distinct rows.

    Twelve consecutive sets cover every dim twice, every variant three times
    and every size three times.
    """
    sizes = (64, 128, 192, 256)
    specs = []
    for i in range(count):
        n = 3 + i % 6
        variant = VARIANTS[i % 4]
        k = _subspace_dim(variant, n, i)
        if variant == "great_subsphere":
            k = 2 + (5 * i) % (n - 2)  # a line holds only two distinct rows
        specs.append((variant, n, k, sizes[(i + i // 4) % 4]))
    return specs


@dataclass
class Case:
    rows: np.ndarray
    truth: dict


def classify_cases(rng, specs) -> list[Case]:
    cases = []
    for variant, n, k, m in specs:
        rows, truth = build_set(rng, variant, n, k, m)
        truth = dict(truth, rows_kept=m)
        cases.append(Case(rows, truth))
    return cases


def check_report(case: Case, dirset, report: dict):
    truth = case.truth
    expect(len(dirset) == truth["rows_kept"], f"rows_kept {len(dirset)} != {truth['rows_kept']}")
    for key in ("critical", "variant", "span_dim", "sub_index"):
        expect(report[key] == truth[key], f"{key} {report[key]!r} != {truth[key]!r}")
    if truth["variant"] == "with_boundary":
        soul = np.asarray(report["soul"], dtype=float)
        expect(abs(np.linalg.norm(soul) - 1.0) <= 1e-12, "soul is not a unit vector")
        slack = float((dirset.directions @ soul).max())
        expect(slack <= SOUL_SLACK, f"soul leaves the polar cone (u . soul = {slack:.3e})")
    else:
        expect(report["soul"] is None, "unexpected soul")


# --------------------------------------------------------------------------
# workload objects
# --------------------------------------------------------------------------


@dataclass
class Outcome:
    """Result of one operation: failure message (or None), digest bytes, report bytes."""

    error: str | None
    digest: bytes = b""
    report_bytes: int = 0


def _classify_op(case: Case):
    def op():
        dirset = subindex.directions.DirectionSet.from_vectors(case.rows)
        report = subindex.convexity.classification_report(dirset)
        return dirset, report

    return op


def _classify_check(case: Case, result) -> Outcome:
    dirset, report = result
    check_report(case, dirset, report)
    return Outcome(None, json.dumps(report, sort_keys=True).encode())


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _cli_op(argv, out):
    def op():
        return subindex.cli.main(argv + ["--out", out])

    return op


def _cli_check(out, check, extra=()):
    def verify(code) -> Outcome:
        expect(code == 0, f"exit status {code}")
        data = _read(out)
        report = json.loads(data)
        check(report)
        blobs = [data] + [_read(p) for p in extra]
        for blob in blobs[1:]:
            check_trajectories(blob)
        return Outcome(None, b"".join(blobs), sum(len(b) for b in blobs))

    return verify


@dataclass
class Op:
    """A timed call and the untimed check of its result."""

    label: str
    call: object
    verify: object


def classify_workload(seed: int, size: str, wide: bool, corrupt: bool) -> list[Op]:
    rng = np.random.default_rng([seed, 1 if wide else 0])
    if wide:
        specs = wide_schedule(4 if size == "tiny" else 12)
    else:
        specs = stream_schedule(20 if size == "tiny" else 300)
    cases = classify_cases(rng, specs)
    if corrupt:
        cases[0].truth["critical"] = not cases[0].truth["critical"]
    return [
        Op(f"{v}/n{n}/m{m}", _classify_op(c), lambda r, c=c: _classify_check(c, r))
        for (v, n, _k, m), c in zip(specs, cases)
    ]


def _torus_table_truth(dim):
    def check(report):
        want = {str(lam): math.comb(dim, lam) for lam in range(1, dim + 1)}
        expect(report["counts"] == want, f"counts {report['counts']} != {want}")
        expect(report["total"] == 2**dim - 1, "total is not 2^n - 1")

    return check


def _connectivity_truth(report):
    expect(report["outer_components"] == 1, f"outer components {report['outer_components']}")
    expect(report["inner_components"] == 1, f"inner components {report['inner_components']}")
    expect(report["components_meeting_inner"] == 1, "outer component misses the inner set")
    expect(report["all_outer_meet_inner"] is True, "all_outer_meet_inner is false")
    expect(report["counts_equal"] is True, "counts_equal is false")


def _torus_point_truth(point):
    zeros = sum(1 for x in point if x == 0.0)
    generic = [x for x in point if x not in (0.0, 0.5)]
    critical = not generic
    level = math.sqrt(0.25 * zeros + sum((0.5 - x) ** 2 for x in generic))

    def check(report):
        expect(report["critical"] is critical, f"critical {report['critical']} != {critical}")
        expect(abs(report["level"] - level) <= 1e-12, f"level {report['level']} != {level}")
        if critical:
            expect(report["sub_index"] == zeros, f"sub_index {report['sub_index']} != {zeros}")
            expect(len(report["directions"]) == 2**zeros, "wrong number of directions")
        else:
            expect(report["sub_index"] is None and report["directions"] is None, "regular point classified")

    return check


def _torus_points(rng, count):
    """Random torus points of fixed dims and kinds; coordinates from the seed.

    Three in four are generic (regular, as almost every point is); the rest
    are critical (coordinates in {0, 1/2}) or mixed (one generic coordinate
    among zeros and halves, hence regular).
    """
    kinds = ("regular", "regular", "regular", "regular", "regular", "regular", "critical", "mixed")
    points = []
    for i in range(count):
        dim = 2 + i % 6
        kind = kinds[(i // 6) % len(kinds)]
        generic = np.where(rng.random(dim) < 0.5, rng.uniform(0.05, 0.45, dim), rng.uniform(0.55, 0.95, dim))
        halves = rng.random(dim) < 0.5
        if kind == "critical":
            coords = np.where(halves, 0.5, 0.0)
            coords[int(rng.integers(dim))] = 0.0  # never the base point
        elif kind == "regular":
            coords = generic
        else:
            coords = np.where(halves, 0.5, 0.0)
            coords[int(rng.integers(dim))] = generic[0]
        points.append([float(x) for x in coords])
    return points


def torus_workload(seed: int, size: str, work: str, corrupt: bool) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    tiny = size == "tiny"
    ops = []

    def add(label, argv, check):
        out = os.path.join(work, f"{len(ops):03d}.json")
        ops.append(Op(label, _cli_op(argv, out), _cli_check(out, check)))

    for dim in range(1, (3 if tiny else 6) + 1):
        truth_dim = dim + 1 if corrupt and dim == 1 else dim
        add(f"torus-table/{dim}", ["torus-table", "--dim", str(dim)], _torus_table_truth(truth_dim))
    connectivity = [(2, 40, 0.5, 0.1), (3, 20, 0.6, 0.2)] if tiny else [
        (2, 400, 0.5, 0.05),  # critical level: the two saddles at distance 1/2
        (2, 400, 0.6, 0.05),  # regular level
        (3, 80, math.sqrt(0.5), 0.06),  # critical level of the sub-index-2 points
    ]
    for dim, grid, level, eps in connectivity:
        argv = ["torus-connectivity", "--dim", str(dim), "--grid", str(grid), "--level", repr(level), "--eps", repr(eps)]
        add(f"torus-connectivity/{dim}/{grid}", argv, _connectivity_truth)
    origin_dim = 4 if tiny else 8
    points = [[0.0] * origin_dim] + _torus_points(rng, 8 if tiny else 48)
    for point in points:
        argv = ["torus-classify", "--dim", str(len(point)), "--point", ",".join(repr(x) for x in point)]
        add(f"torus-classify/{len(point)}", argv, _torus_point_truth(point))
    return ops


def check_trajectories(blob: bytes):
    """Ten trajectories of 40 rows each, every row as wide as the header."""
    lines = blob.decode().splitlines()
    header = lines[0].split(",")
    expect(header[0] == "t" and len(header) >= 3, "bad trajectory header")
    expect(len(lines) == 1 + 10 * 40, f"{len(lines) - 1} trajectory rows, expected 400")
    expect(all(len(line.split(",")) == len(header) for line in lines[1:]), "ragged trajectory rows")


def _flow_truth(dim, samples):
    def check(report):
        expect(report["passed"] is True, f"flow suites failed: {report['suites']}")
        expect(all(s["violations"] == 0 for s in report["suites"].values()), "suite violations")
        expect(report["dim"] == dim and report["samples"] == samples, "report echoes wrong inputs")
        expect(("cap_bound" in report["angle_certificate"]) == (dim <= 3), "angle certificate coverage")

    return check


def _jacobi_verify_truth(report):
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    expect(report["passed"] is True and not failed, f"jacobi checks failed: {failed}")


def index_oracle(eps: float) -> float:
    """I(V_eps, V_eps) for the cutoff field at curvature 1 and length pi."""
    return -math.cos(eps) / math.sin(eps) - math.sin(eps) + math.tan(eps / 2) * (math.cos(eps) - 1)


def _jacobi_index_truth(kappa: float):
    """Check against the closed form, which holds at curvature 1 (other kappa: corrupted truth)."""

    def check(report):
        _check_index_rows(report, kappa)

    return check


def _check_index_rows(report, kappa):
    rows = report["rows"]
    want = [0.2 * 0.5**k for k in range(10)]
    expect(len(rows) == len(want), f"{len(rows)} eps rows, expected {len(want)}")
    for row, eps in zip(rows, want):
        expect(abs(row["eps"] - eps) <= 1e-15, f"eps {row['eps']} != {eps}")
        oracle = index_oracle(eps) * kappa
        expect(abs(row["index_value"] - oracle) <= 1e-6 * max(1.0, abs(oracle)), f"index {row['index_value']} != {oracle}")
    expect(report["strictly_decreasing"] is True, "index values do not decrease")


def verify_workload(seed: int, size: str, work: str, corrupt: bool) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    tiny = size == "tiny"
    seeds = [int(s) for s in rng.integers(0, 2**31, 1 if tiny else 2)]
    samples = 200 if tiny else 10_000
    ops = []

    def add(label, argv, check, extra=()):
        out = os.path.join(work, f"{len(ops):03d}.json")
        ops.append(Op(label, _cli_op(argv, out), _cli_check(out, check, extra)))

    for s in seeds:
        for dim in ((2,) if tiny else (2, 3, 5)):
            radius = round(float(rng.uniform(0.5, 2.0)), 3)
            traj = os.path.join(work, f"{len(ops):03d}.csv")
            argv = ["flow-verify", "--dim", str(dim), "--radius", repr(radius), "--samples", str(samples),
                    "--seed", str(s), "--emit-trajectories", traj]
            add(f"flow-verify/{dim}", argv, _flow_truth(dim, samples), (traj,))
        add("jacobi-verify", ["jacobi-verify", "--seed", str(s)], _jacobi_verify_truth)
    add("jacobi-index", ["jacobi-index", "--curvature", "1", "--length", repr(math.pi)],
        _jacobi_index_truth(2.0 if corrupt else 1.0))
    return ops


def build(name: str, seed: int, size: str, work: str, corrupt: bool = False) -> list[Op]:
    """The operation list of a workload; ``corrupt`` falsifies one expected value."""
    if name == "classify-stream":
        return classify_workload(seed, size, False, corrupt)
    if name == "classify-wide":
        return classify_workload(seed, size, True, corrupt)
    if name == "torus-ground-truth":
        return torus_workload(seed, size, work, corrupt)
    if name == "verify-suites":
        return verify_workload(seed, size, work, corrupt)
    raise ValueError(f"unknown workload {name!r}")


def setup(name: str, work: str):
    """The workload's fixed objects plus one small call of its kind.

    The call pays for lazy initialisation (first LP, first ODE solve) so that
    it lands in ``setup_s`` and not in the first timed operation.
    """
    if name.startswith("classify"):
        dirset = subindex.directions.DirectionSet.from_vectors([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        return subindex.convexity.classification_report(dirset)
    parser = subindex.cli.build_parser()
    out = os.path.join(work, "setup.json")
    if name == "torus-ground-truth":
        fields = [subindex.torus.TorusDistanceField(dim) for dim in range(1, 9)]
        subindex.cli.main(["torus-classify", "--dim", "2", "--point", "0,0.5", "--out", out])
        return parser, fields
    subindex.cli.main(["flow-verify", "--dim", "2", "--radius", "1", "--samples", "10",
                       "--emit-trajectories", out + ".csv", "--out", out])
    return parser


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(len(outcome.digest).to_bytes(8, "little"))
        h.update(outcome.digest)
    return h.hexdigest()
