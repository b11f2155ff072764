"""Command-line interface: dispatch, formats, determinism, exit codes."""

from __future__ import annotations

import io
import json
import math
import os
import pathlib
import tempfile
import time
import tracemalloc
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from subindex.cli import build_parser, main
from subindex.directions import DirectionSet
from subindex.errors import InternalInconsistencyError
from subindex.torus import TorusDistanceField


@pytest.fixture()
def dirs_file(tmp_path):
    ds = DirectionSet.from_vectors(np.array([[1.0, 0, 0], [-1.0, 0, 0]]))
    path = tmp_path / "dirs.json"
    path.write_text(ds.to_json())
    return str(path)


def test_classify_antipodal_pair(dirs_file, capsys):
    code = main(["classify", "--input", dirs_file])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["critical"] is True
    assert out["sub_index"] == 1
    assert out["variant"] == "great_subsphere"
    assert out["schema_version"] == "1"


def test_classify_missing_file_is_usage_error(capsys):
    code = main(["classify", "--input", "/definitely/not/here.json"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_classify_reads_plain_object_file(tmp_path, capsys):
    # hand-written file in the documented format, not produced by to_json()
    path = tmp_path / "plain.json"
    path.write_text('{"dim": 2, "directions": [[0.0, 1.0]]}\n')
    code = main(["classify", "--input", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["critical"] is False


def test_classify_malformed_content_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json at all")
    code = main(["classify", "--input", str(path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_torus_table_dim3_counts(capsys):
    code = main(["torus-table", "--dim", "3"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["counts"] == {"1": 3, "2": 3, "3": 1}
    assert out["total"] == 7


def test_torus_table_csv_format(capsys):
    code = main(["torus-table", "--dim", "2", "--format", "csv"])
    text = capsys.readouterr().out
    assert code == 0
    assert text == "lambda,count\n1,2\n2,1\n"


def test_csv_rejected_where_no_table(dirs_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--input", dirs_file, "--format", "csv"])
    assert exc.value.code == 2


def test_torus_classify_edge_center(capsys):
    code = main(["torus-classify", "--dim", "2", "--point", "0.5,0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["critical"] is True
    assert out["sub_index"] == 1
    assert out["level"] == pytest.approx(0.5)


def test_torus_classify_regular_point(capsys):
    code = main(["torus-classify", "--dim", "2", "--point", "0.3,0.1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["critical"] is False
    assert out["sub_index"] is None
    assert out["directions"] is None


def test_torus_classify_refuses_an_undecided_tie(tmp_path, capsys):
    """At the point (5.0002e-10, 0.2) the translates at -1/2 and 1/2 on the
    first axis differ by 1.0001e-9 in squared distance, just past the tie
    tolerance 1e-9, so a surrounding up-set would be a guess: exit 1, one
    message, no report."""
    out = tmp_path / "report.json"
    code = main(["torus-classify", "--dim", "2", "--point", "5.0002e-10,0.2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("AmbiguousClassificationError: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.rglob("*")) == []


def test_torus_classify_with_custom_base(capsys):
    code = main(
        ["torus-classify", "--dim", "2", "--point", "0.25,0.25", "--base", "0.75,0.75;0.75,0.25"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["level"] == pytest.approx(0.5)


def test_torus_classify_dimension_mismatch(capsys):
    code = main(["torus-classify", "--dim", "3", "--point", "0.5,0"])
    assert code == 2


def test_torus_classify_names_a_ragged_base(capsys):
    code = main(["torus-classify", "--dim", "2", "--point", "0.5,0.5", "--base", "0.1,0.2;0.3"])
    assert code == 2
    assert capsys.readouterr().err == "error: base points must each have --dim coordinates\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["flow-verify", "--dim", "2", "--radius", "1", "--samples", "5", "--seed", "-3"],
        ["jacobi-verify", "--seed", "-3"],
    ],
)
def test_a_negative_seed_is_named(argv, capsys):
    code = main(argv)
    assert code == 2
    assert capsys.readouterr().err == "error: --seed must be nonnegative, got -3\n"


def test_torus_connectivity_critical_level(capsys):
    code = main(
        ["torus-connectivity", "--dim", "2", "--level", "0.5", "--eps", "0.05", "--grid", "150"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["all_outer_meet_inner"] is True


def test_torus_connectivity_eps_guard(capsys):
    code = main(
        ["torus-connectivity", "--dim", "2", "--level", "0.3", "--eps", "0.001", "--grid", "50"]
    )
    assert code == 2


def test_flow_verify_passes_and_reports(capsys):
    code = main(["flow-verify", "--dim", "2", "--radius", "1", "--samples", "500", "--seed", "5"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["passed"] is True
    for name in ("arrive_cos", "arrive_path", "arrive_exit", "omega_identity", "omega_exit"):
        assert out["suites"][name]["violations"] == 0
    assert "cap_bound" in out["angle_certificate"]


def test_flow_verify_skips_angle_suite_in_high_dimension(capsys):
    code = main(["flow-verify", "--dim", "5", "--radius", "1", "--samples", "300"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "skipped" in out["angle_certificate"]
    assert "omega_angle" not in out["suites"]


def test_flow_verify_reports_are_byte_identical(tmp_path):
    args = ["flow-verify", "--dim", "2", "--radius", "1", "--samples", "400", "--seed", "11"]
    for run in "ab":
        out, traj = str(tmp_path / f"{run}.json"), str(tmp_path / f"{run}.csv")
        assert main(args + ["--out", out, "--emit-trajectories", traj]) == 0
    for suffix in ("json", "csv"):
        assert (tmp_path / f"a.{suffix}").read_bytes() == (tmp_path / f"b.{suffix}").read_bytes()


def test_out_files_are_written_atomically(tmp_path):
    out = str(tmp_path / "report.json")
    assert main(["torus-table", "--dim", "2", "--out", out]) == 0
    assert json.loads(open(out).read())["counts"] == {"1": 2, "2": 1}
    leftovers = [f for f in os.listdir(tmp_path) if f != "report.json"]
    assert leftovers == []


@pytest.mark.parametrize("fails", ["mkstemp", "replace"])
@pytest.mark.parametrize(
    "argv",
    [
        ["torus-table", "--dim", "2", "--out", "{tmp}/report.json"],
        ["flow-verify", "--dim", "2", "--radius", "1", "--samples", "5", "--emit-trajectories", "{tmp}/t.csv"],
    ],
)
def test_a_report_the_file_system_refuses_is_a_usage_error(argv, fails, tmp_path, monkeypatch, capsys):
    """A report path that passes the argument checks but cannot be written
    exits 2 with one error line naming it, and leaves no temp file."""
    argv = [a.format(tmp=tmp_path) for a in argv]

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    with monkeypatch.context() as patch:
        patch.setattr(tempfile if fails == "mkstemp" else os, fails, refuse)
        code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: cannot write {argv[-1]!r}: [Errno 13] Permission denied\n"
    assert list(tmp_path.rglob("*")) == []


def test_emit_trajectories_csv(tmp_path, capsys):
    traj = str(tmp_path / "traj.csv")
    code = main(
        [
            "flow-verify", "--dim", "3", "--radius", "1", "--samples", "200",
            "--emit-trajectories", traj,
        ]
    )
    capsys.readouterr()
    assert code == 0
    lines = open(traj).read().splitlines()
    assert lines[0] == "t,x1,x2,x3"
    assert len(lines) > 10
    first = [float(v) for v in lines[1].split(",")]
    assert len(first) == 4


def test_jacobi_index_csv_is_decreasing(capsys):
    code = main(
        [
            "jacobi-index", "--curvature", "1", "--length", str(math.pi),
            "--eps-min", "0.02", "--eps-max", "0.2", "--format", "csv",
        ]
    )
    text = capsys.readouterr().out
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "eps,index_value"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values, reverse=True)
    assert len(values) == 4


def test_jacobi_index_rejects_flat_curvature(capsys):
    code = main(["jacobi-index", "--curvature", "0", "--length", "1"])
    assert code == 2


def test_jacobi_index_rejects_non_conjugate_length(capsys):
    code = main(["jacobi-index", "--curvature", "1", "--length", "1.0"])
    assert code == 2


@pytest.mark.parametrize("curvature", [1e-8, 1e-10])
def test_jacobi_index_accepts_the_first_conjugate_time_at_small_curvature(curvature, capsys):
    """sn(kappa, pi / sqrt(kappa)) scales as 1/sqrt(kappa), so the endpoint
    test reads sin(sqrt(kappa) * length) instead. At the default widths the
    two index-form routes agree to about 1e-6 of the value at this length."""
    length = repr(math.pi / math.sqrt(curvature))
    argv = ["jacobi-index", "--curvature", repr(curvature), "--length", length]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["strictly_decreasing"] is True


def test_jacobi_index_names_eps_min_when_the_index_form_routes_part(capsys):
    """Halving from 0.2 passes at the width 7.5e-10; --eps-min 3e-10 adds the
    width 3.7e-10, where quadrature and boundary terms differ by more than
    1e-5 of the value. At curvature 1e-300 the routes part at the first
    width. The error line names the option that sets the smallest width."""
    argv = ["jacobi-index", "--curvature", "1", "--length", "3.141592653589793"]
    assert main(argv + ["--eps-min", "7e-10"]) == 0
    capsys.readouterr()
    assert main(argv + ["--eps-min", "3e-10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --eps-min 3e-10 is too small: ") and err.count("\n") == 1
    assert main(["jacobi-index", "--curvature", "1e-300", "--length", "3.141592653589793e150"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --eps-min 0.0002 is too small: ") and err.count("\n") == 1


def test_jacobi_verify_all_checks_pass(capsys):
    code = main(["jacobi-verify"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["passed"] is True
    assert out["schema_version"] == "1"
    names = [c["name"] for c in out["checks"]]
    assert "index_divergence_oracle" in names
    assert "index_form_cross_check" in names
    assert all(c["passed"] for c in out["checks"])


@pytest.mark.parametrize(
    "argv",
    [
        ["torus-table", "--dim", "0"],
        ["jacobi-index", "--curvature", "1", "--length", "0"],
        ["torus-classify", "--dim", "2", "--point", "0.5,0.5"],
        ["torus-classify", "--dim", "2", "--point", "nan,0.1"],
        ["torus-classify", "--dim", "2", "--point", "0.1,inf"],
        ["torus-table", "--dim", "1", "--out", "{missing}/x.json"],
        ["torus-table", "--dim", "1", "--out", "{tmp}"],
        ["flow-verify", "--dim", "2", "--radius", "1", "--samples", "0"],
        ["flow-verify", "--dim", "2", "--radius", "1", "--samples", "-5"],
        ["flow-verify", "--dim", "2", "--radius", "1", "--samples", "5",
         "--emit-trajectories", "{missing}/t.csv"],
        ["jacobi-index", "--curvature", "1", "--length", "3.141592653589793",
         "--eps-max", "inf"],
        # sin(sqrt(kappa) * length) would overflow: refused without a warning
        ["jacobi-index", "--curvature", "1e308", "--length", "1e308"],
        ["jacobi-index", "--curvature", "nan", "--length", "3.141592653589793"],
        ["torus-connectivity", "--dim", "2", "--grid", "50", "--level", "nan", "--eps", "0.1"],
        ["torus-connectivity", "--dim", "2", "--grid", "50", "--level", "0.5", "--eps", "nan"],
        ["flow-verify", "--dim", "2", "--radius", "nan", "--samples", "5"],
        ["torus-table", "--dim", "9"],
        # just past the memory ceilings: refused before anything is allocated
        ["flow-verify", "--dim", "2", "--radius", "1", "--samples", "800001"],
        ["flow-verify", "--dim", "2500", "--radius", "1", "--samples", "1",
         "--emit-trajectories", "{tmp}/t.csv"],
        ["torus-connectivity", "--dim", "2", "--grid", "1291", "--level", "0.5", "--eps", "0.05"],
        ["torus-connectivity", "--dim", "3", "--grid", "108", "--level", "0.7", "--eps", "0.1"],
        ["torus-connectivity", "--dim", "40", "--grid", "1000000000", "--level", "1", "--eps", "1"],
        ["flow-verify", "--dim", "1", "--radius", "1", "--samples", "50"],
        # the radius refusal comes before the trajectories are written
        ["flow-verify", "--dim", "2", "--radius", "1e-4", "--samples", "5",
         "--emit-trajectories", "{tmp}/t.csv"],
        ["torus-table", "--dim", "1", "--out", ""],
        ["flow-verify", "--dim", "2", "--radius", "1", "--samples", "5", "--emit-trajectories", ""],
        # radii outside [1e-3, 1e100]: below it the suites checked nothing (or
        # wrote NaN) and passed, above it the shell norms overflow
        ["flow-verify", "--dim", "3", "--radius", "1e-300", "--samples", "300"],
        ["flow-verify", "--dim", "3", "--radius", "1e-10", "--samples", "300"],
        ["flow-verify", "--dim", "3", "--radius", "1e-4", "--samples", "300"],
        ["flow-verify", "--dim", "3", "--radius", "1e160", "--samples", "300"],
        ["torus-classify", "--dim", "2", "--point", "0.1,0.2", "--base", "0.5,nan"],
        # halving from 0.2 reaches the width 3.7e-10, where the index-form routes part
        ["jacobi-index", "--curvature", "1", "--length", "3.141592653589793", "--eps-min", "3e-10"],
        # an empty base is refused as " " and ";" are, not read as the centred base
        ["torus-classify", "--dim", "2", "--point", "0.1,0.2", "--base", ""],
        # the trajectories would overwrite the report: nothing is written
        ["flow-verify", "--dim", "2", "--radius", "1", "--samples", "5",
         "--out", "{tmp}/r.json", "--emit-trajectories", "{tmp}/r.json"],
        ["flow-verify", "--dim", "2", "--radius", "1", "--samples", "5",
         "--out", "{tmp}/r.json", "--emit-trajectories", "{tmp}/./r.json"],
    ],
)
def test_bad_input_is_usage_error_without_traceback(argv, tmp_path, capsys):
    missing = tmp_path / "missing"
    out = tmp_path / "report.json"
    argv = [a.format(missing=missing, tmp=tmp_path) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(out)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert list(tmp_path.rglob("*")) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["torus-table", "--dim", "2", "--seed", "1"],
        ["torus-table", "--dim", "2", "--grid", "0"],
        ["torus-table", "--dim", "2", "--grid", "2"],
        ["torus-table", "--dim", "1", "--tol", "0.1"],
        ["classify", "--input", "{dirs}", "--seed", "0"],
        ["jacobi-index", "--curvature", "1", "--length", "3.141592653589793", "--tol", "1e-3"],
        ["jacobi-index", "--curvature", "1", "--length", "3.141592653589793", "--tol", "-5", "--seed", "3"],
        ["torus-connectivity", "--dim", "2", "--level", "0.5", "--eps", "0.05", "--grid", "50", "--tol", "1e-9"],
        ["classify", "--input", "{dirs}", "--tol", "1e-12"],
    ],
)
def test_subcommands_refuse_flags_they_do_not_read(argv, dirs_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main([a.format(dirs=dirs_file) for a in argv] + ["--out", str(out)])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["torus-classify", "--dim", "2", "--point", "0.1,0.5", "--tol", "1e-9"],
        ["torus-classify", "--dim", "2", "--point", "0.1,0.5", "--tol", "0.3"],
        ["flow-verify", "--dim", "2", "--radius", "1", "--samples", "5", "--tol", "1e-12"],
        ["classify", "--input", "{dirs}", "--format", "json"],
        ["torus-classify", "--dim", "2", "--point", "0.1,0.5", "--format", "json"],
        ["torus-connectivity", "--dim", "2", "--level", "0.5", "--eps", "0.05", "--grid", "50", "--format", "json"],
        ["flow-verify", "--dim", "2", "--radius", "1", "--samples", "5", "--format", "json"],
        ["jacobi-verify", "--format", "json"],
    ],
    ids=lambda argv: f"{argv[0]} {argv[-2]} {argv[-1]}",
)
def test_tol_anywhere_and_format_off_a_table_are_usage_errors(argv, dirs_file, tmp_path):
    """The code owns the tie tolerance and the arrival allowance, and only
    torus-table and jacobi-index have a format to choose: each of these is a
    usage error with one ``error:`` line that leaves a stale --out as it was."""
    out = tmp_path / "report.out"
    out.write_bytes(_STALE)
    code, err, files = _run_in(str(tmp_path), [a.format(dirs=dirs_file) for a in argv] + ["--out", str(out)])
    assert code == 2
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
    assert files["report.out"] == _STALE


def test_classify_keeps_the_file_tolerance_without_tol(tmp_path, capsys):
    rows = [[1.0 + 1e-9, 0.0, 0.0], [-1.0, 0.0, 0.0]]
    path = tmp_path / "loose.json"
    path.write_text(json.dumps({"dim": 3, "directions": rows, "tol": 1e-6}))
    assert main(["classify", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["sub_index"] == 1


@pytest.mark.parametrize("tol", ["NaN", "Infinity", "-Infinity"])
def test_classify_refuses_a_non_finite_file_tolerance(tol, tmp_path, capsys):
    # a NaN tolerance used to switch the unit-length check off
    path = tmp_path / "dirs.json"
    path.write_text('{"dim": 2, "directions": [[5.0, 0.0], [-0.1, 0.0]], "tol": %s}' % tol)
    out = tmp_path / "report.json"
    assert main(["classify", "--input", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("dim", [14, 64])
def test_torus_classify_refuses_the_origin_past_the_up_set_ceiling(dim, tmp_path, capsys):
    out = tmp_path / "report.json"
    start = time.perf_counter()
    code = main(["torus-classify", "--dim", str(dim), "--point", ",".join(["0"] * dim), "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def _readme_commands() -> list[list[str]]:
    """argv of each `subindex ...` line in the README's Command line sh block."""
    import pathlib
    import shlex

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("subindex ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_examples_run(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ds = DirectionSet.from_vectors(np.array([[1.0, 0, 0], [-1.0, 0, 0]]))
    (tmp_path / "directions.json").write_text(ds.to_json())
    assert main(argv + ["--out", "report.out"]) == 0
    assert (tmp_path / "report.out").stat().st_size > 0


def test_readme_library_quick_start_runs():
    """The README's python block runs and its commented claims hold."""
    import pathlib

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert '# report["critical"] is True, report["sub_index"] == 1' in block
    assert "# {1: 2, 2: 1}" in block
    namespace: dict = {}
    with redirect_stdout(io.StringIO()) as printed:
        exec(block, namespace)
    assert namespace["report"]["critical"] is True
    assert namespace["report"]["sub_index"] == 1
    assert namespace["field"].betti_table() == {1: 2, 2: 1}
    assert printed.getvalue().endswith("{1: 2, 2: 1}\n")


def test_readme_command_table_matches_the_parser():
    """Each row of the README's command table lists the options the parser
    gives that subcommand, less --help and --out, and shows in
    bold exactly the required ones."""
    import argparse
    import pathlib
    import re

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            name, _, options = (cell.strip() for cell in line.strip("|").split("|"))
            documented[name.strip("`")] = (
                set(re.findall(r"`(--[a-z-]+)`", options)),
                set(re.findall(r"\*\*`(--[a-z-]+)`\*\*", options)),
            )
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {}
    for name, parser in subparsers.choices.items():
        actions = [a for a in parser._actions if not {"--help", "--out"} & set(a.option_strings)]
        parsed[name] = (
            {opt for a in actions for opt in a.option_strings},
            {opt for a in actions if a.required for opt in a.option_strings},
        )
    assert documented == parsed


class _Admitted(Exception):
    pass


def test_memory_ceilings_admit_the_benchmark_sizes(tmp_path, monkeypatch):
    traj = str(tmp_path / "t.csv")
    args = ["flow-verify", "--dim", "5", "--radius", "1.3", "--samples", "10000",
            "--emit-trajectories", traj, "--out", str(tmp_path / "f.json")]
    assert main(args) == 0

    # the connectivity ceiling is checked before the grid is evaluated
    def admitted(self, grid):
        raise _Admitted(grid)

    monkeypatch.setattr(TorusDistanceField, "_grid_distances", admitted)
    for dim, grid in ((2, 400), (3, 80)):
        with pytest.raises(_Admitted):
            main(["torus-connectivity", "--dim", str(dim), "--grid", str(grid),
                  "--level", "0.5", "--eps", "0.1"])


@pytest.mark.parametrize(
    "argv",
    [
        ["torus-table", "--dim", "10000000"],
        ["torus-connectivity", "--dim", "10000000", "--grid", "2", "--level", "1", "--eps", "1"],
    ],
)
def test_oversized_torus_runs_are_refused_before_allocating(argv, capsys):
    # the base of a dim-10^7 field alone would take 80 MB
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert peak < 4.0


def test_a_boundary_set_past_the_soul_ceiling_is_refused_before_a_soul_lp(tmp_path, capsys, monkeypatch):
    """The soul LPs build dense m x m Gram blocks, so peak RSS grows as m^2:
    a boundary-variant set one row past their ceiling exits 2 with one
    ``error:`` line, and no soul LP is solved."""
    from subindex import convexity, lp

    def no_soul(*args, **kwargs):
        raise AssertionError("a soul LP was solved")

    monkeypatch.setattr(lp, "soul_margin_lp", no_soul)
    monkeypatch.setattr(lp, "soul_feasibility_lp", no_soul)
    n, m = 6, convexity._MAX_SOUL_ROWS + 1
    # +-e_1 and rows with a positive second coordinate: a polar region with boundary
    extra = np.random.default_rng(0).standard_normal((m - 2, n))
    extra[:, 1] = np.abs(extra[:, 1]) + 0.05
    rows = np.vstack([np.eye(n)[:1], -np.eye(n)[:1], extra])
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps({"dim": n, "directions": rows.tolist()}))
    code = main(["classify", "--input", str(path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {m} directions, the soul LPs' limit is {m - 1}\n"


def test_enumeration_refuses_an_uncertified_scan_coordinate_before_classifying(monkeypatch):
    """Were ``TIE_TOL`` 1, the offsets -1 and 0 would tie at every coordinate
    up to 1/2, so the dim-8 scan's two windows would meet and no coordinate
    off {0, 1/2} would be certified: its invariant fails before any LP."""
    from subindex import lp, torus

    def no_solve(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(lp, "_solve", no_solve)
    monkeypatch.setattr(torus, "TIE_TOL", 1.0)
    message = r"at the tie tolerance 1\.0 the scan's windows around 0 \(0\.5000000000005\) and 1/2 \(1\.7320\d+e-06\) meet"
    with pytest.raises(InternalInconsistencyError, match=message):
        TorusDistanceField(8).enumerate_critical_points()


@pytest.mark.parametrize("radius", ["1e-3", "1e100"])
def test_flow_verify_runs_clean_at_the_radius_bounds(radius, tmp_path, capsys):
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["flow-verify", "--dim", "3", "--radius", radius, "--samples", "300", "--out", str(out)])
    assert code == 0 and capsys.readouterr().err == ""
    assert json.loads(out.read_text())["passed"] is True


@pytest.mark.parametrize("text, field", [
    ('{"dim": 2.7, "directions": [[1, 0], [-1, 0]]}', "'dim'"),
    ('{"dim": true, "directions": [[1], [-1]]}', "'dim'"),
    ('{"dim": "2", "directions": [[1, 0], [-1, 0]]}', "'dim'"),
    ('{"directions": [[1, 0], [-1, 0]]}', "'dim'"),
    ('{"dim": 2, "directions": [[1, 0], [-1, 0]], "tol": true}', "'tol'"),
    ('{"dim": 2, "directions": [[1, 0], [-1, 0]], "tol": "1e-9"}', "'tol'"),
    ('{"dim": 2, "directions": [["1", "0"], ["-1", "0"]]}', "'directions'"),
    ('{"dim": 2, "directions": [[true, false], [false, true]]}', "'directions'"),
    ('{"dim": 2, "directions": [1, 0]}', "'directions'"),
    ('[[1, 0], [-1, 0]]', "JSON object"),
])
def test_classify_refuses_malformed_fields(text, field, tmp_path, capsys):
    path = tmp_path / "dirs.json"
    path.write_text(text)
    assert main(["classify", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err


def test_classify_refuses_json_nested_past_the_recursion_limit(tmp_path, capsys):
    # json.loads raises RecursionError here, which used to end in a traceback
    path = tmp_path / "dirs.json"
    path.write_text("[" * 100000 + "]" * 100000)
    out = tmp_path / "report.json"
    assert main(["classify", "--input", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_no_module_reaches_into_another_modules_private_names():
    """Each decision stays with its owner module: no package module imports a
    sibling's ``_``-prefixed name or reads one off a sibling it imported."""
    import ast
    import pathlib

    import subindex

    found = []
    for path in sorted(pathlib.Path(subindex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("subindex")):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        found.append(f"{path.name}: from {node.module} import {alias.name}")
                    elif node.module in (None, "subindex"):
                        siblings.add(alias.asname or alias.name)
        found += [
            f"{path.name}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in siblings and node.attr.startswith("_")
        ]
    assert found == []


# definitions that no package code reaches but that stay, each with its reason
_REACHED_FROM_OUTSIDE = {
    "directions.DirectionSet.from_vectors": "perfbench builds its direction sets with it",
    "directions.DirectionSet.to_json": "writes the classify input format that from_json reads back",
    "convexity.sub_index": "the README's one-call API for the paper's invariant",
    "flows.BumpProfile.__call__": "the public cutoff profile f, whose reciprocal the flow integrates",
    # the suites and index_divergence run the stacked forms of these
    "jacobi.JacobiField.from_two_point": "the public one-row form of _two_point",
    "jacobi.index_form": "the public one-pair form of the index-form kernel, with the route check",
    "jacobi.lagrange_wronskian": "the public one-pair form of _wronskian",
}


def _mentions(root, modules) -> Counter:
    """Reads under ``root``: each loaded name and each ``module.name`` read off
    a sibling module in ``modules`` under its name, each attribute under
    ``.attr``, and ``Cls.__call__`` for each call of a name that a function
    there binds to ``Cls(...)`` or ``Cls.make(...)``."""
    import ast

    nodes = list(ast.walk(root))
    found = Counter(n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    attributes = [n for n in nodes if isinstance(n, ast.Attribute)]
    found.update(
        n.attr for n in attributes
        if isinstance(n.ctx, ast.Load) and isinstance(n.value, ast.Name) and n.value.id in modules
    )
    found.update(f".{n.attr}" for n in attributes)
    for scope in (n for n in nodes if isinstance(n, ast.FunctionDef)):
        bound = {}
        for n in ast.walk(scope):
            if isinstance(n, ast.Assign) and isinstance(n.value, ast.Call):
                func = n.value.func
                cls = func.value if isinstance(func, ast.Attribute) else func
                bound.update((t.id, getattr(cls, "id", "")) for t in n.targets if isinstance(t, ast.Name))
        found.update(
            f"{bound[n.func.id]}.__call__"
            for n in ast.walk(scope)
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) in bound
        )
    return found


def test_every_library_definition_is_reached_by_the_package():
    """Each module-level function and class, and each method but the dunders
    other than ``__call__``, is read in ``src/subindex`` outside its own
    definition and ``__init__.py``, or is listed in ``_REACHED_FROM_OUTSIDE``.
    A module-level name counts as read where it is loaded or read off its
    module; a field or a parameter of the same name does not.
    Reference routes and paper witnesses that only tests use live in
    ``tests/oracles.py``."""
    import ast
    import pathlib

    import subindex

    package = pathlib.Path(subindex.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py")) if path.stem != "__init__"}
    total = sum((_mentions(tree, trees) for tree in trees.values()), Counter())
    unreached = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(node.name, node.name, node)]
            if isinstance(node, ast.ClassDef):
                members += [
                    (f"{node.name}.{m.name}", f"{node.name}.__call__" if m.name == "__call__" else f".{m.name}", m)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and (m.name == "__call__" or not m.name.startswith("__"))
                ]
            unreached += [f"{module}.{name}" for name, key, d in members if total[key] == _mentions(d, trees)[key]]
    assert sorted(unreached) == sorted(_REACHED_FROM_OUTSIDE)


def test_importing_the_package_and_cli_leaves_out_unused_scipy_parts(tmp_path):
    """Neither ``import subindex`` nor ``import subindex.cli`` runs scipy.optimize's
    package (HiGHS is loaded from its file) or imports scipy.integrate, sparse,
    ndimage or linalg. A flow run with trajectories still leaves scipy.integrate
    out; a connectivity run in the same process then imports what it needs."""
    import pathlib
    import subprocess
    import sys
    import textwrap

    import subindex

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(pathlib.Path(subindex.__file__).resolve().parents[1]), env.get("PYTHONPATH")) if p
    )
    code = textwrap.dedent("""
        import sys
        heavy = ("scipy.optimize", "scipy.integrate", "scipy.sparse", "scipy.ndimage", "scipy.linalg")

        def loaded():
            return sorted(m for m in heavy if m in sys.modules)

        import subindex
        print(loaded())
        import subindex.cli
        print(loaded())
        tmp = sys.argv[1]
        print(subindex.cli.main(["flow-verify", "--dim", "2", "--radius", "1", "--samples", "50",
                                 "--out", tmp + "/flow.json", "--emit-trajectories", tmp + "/t.csv"]))
        print("scipy.integrate" in sys.modules)
        print(subindex.cli.main(["torus-connectivity", "--dim", "2", "--level", "0.5", "--eps", "0.05",
                                 "--grid", "150", "--out", tmp + "/conn.json"]))
        print(all(m in sys.modules for m in ("scipy.ndimage", "scipy.sparse")))
    """)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "0", "False", "0", "True"]
    assert len((tmp_path / "t.csv").read_text().splitlines()) > 10


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2


def test_console_entry_point_installed():
    """The declared `subindex` script runs as its own process and exits 0.

    The `[project.scripts]` target is always run in a subprocess the way the
    installer's wrapper runs it, so the check holds from a plain checkout.
    When a `subindex` script is installed on PATH it is run as well, after
    checking that its installed metadata names the same target.
    """
    import importlib
    import importlib.metadata
    import pathlib
    import shutil
    import subprocess
    import sys

    import subindex

    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["subindex"]
    module_name, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module_name), attr) is main

    args = ["torus-table", "--dim", "1"]

    def check(proc):
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["counts"] == {"1": 1}

    package_root = str(pathlib.Path(subindex.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    wrapper = (
        "import sys, importlib; "
        f"sys.exit(getattr(importlib.import_module({module_name!r}), {attr!r})())"
    )
    check(
        subprocess.run(
            [sys.executable, "-c", wrapper, *args],
            capture_output=True,
            text=True,
            env=env,
        )
    )

    exe = shutil.which("subindex")
    if exe is not None:
        installed = importlib.metadata.entry_points(
            group="console_scripts", name="subindex"
        )
        assert [ep.value for ep in installed] == [target]
        check(subprocess.run([exe, *args], capture_output=True, text=True))


_BAD_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "x", ""])


def _commands(bad: bool):
    """Small argv of every subcommand; with ``bad``, values may also be
    malformed, non-finite, out of domain or just past a memory ceiling."""

    def number(lo, hi, bad_lo=None, bad_hi=None):
        good = st.floats(lo, hi).map(repr)
        if not bad:
            return good
        wide = st.floats(lo if bad_lo is None else bad_lo, hi if bad_hi is None else bad_hi)
        return st.one_of(good, wide.map(repr), _BAD_NUMBERS)

    def integer(lo, hi, bad_lo, bad_hi, *past):
        if not bad:
            return st.integers(lo, hi).map(str)
        return st.one_of(st.integers(bad_lo, bad_hi).map(str), st.sampled_from(["x", "1.5", *past]))

    def point(dim):
        coord = st.one_of(st.sampled_from(["0", "0.25", "0.5", "0.75"]), number(0.0, 1.0, -1.0, 2.0))
        sizes = (dim - 1, dim + 1) if bad else (dim, dim)
        return st.lists(coord, min_size=max(1, sizes[0]), max_size=sizes[1]).map(",".join)

    unit_rows = st.builds(
        lambda dim, seed, m: np.random.default_rng(seed).standard_normal((m, dim)),
        st.integers(1, 4), st.integers(0, 2**31 - 1), st.integers(1, 5),
    ).map(lambda a: {"dim": a.shape[1], "directions": (a / np.linalg.norm(a, axis=1, keepdims=True)).tolist()})
    antipodal = unit_rows.map(lambda d: {**d, "directions": d["directions"] + [[-v for v in d["directions"][0]]]})
    files = [unit_rows, antipodal]
    if bad:
        files += [
            st.builds(
                lambda dim, rows: {"dim": dim, "directions": rows},
                st.integers(0, 3),
                st.lists(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=3), max_size=3),
            ),
            st.sampled_from(["", "{", "[]", '{"dim": "a", "directions": [[1]]}', '{"dim": 2}',
                             '{"dim": 2, "directions": [[1, 0]], "tol": "x"}']),
        ]
    return st.one_of(
        st.tuples(st.just("classify"), st.fixed_dictionaries({"--input": st.one_of(*files)})),
        st.tuples(st.just("torus-table"), st.fixed_dictionaries({"--dim": integer(1, 3, -1, 3, "9", "12")})),
        st.integers(1, 3).flatmap(lambda dim: st.tuples(st.just("torus-classify"), st.fixed_dictionaries(
            {"--dim": st.just(str(dim)), "--point": point(dim)},
            optional={"--base": st.one_of(point(dim), st.sampled_from(["", " ", ";"])) if bad else point(dim)},
        ))),
        st.tuples(st.just("torus-connectivity"), st.fixed_dictionaries({
            "--dim": integer(1, 3, 0, 3, "40"),
            "--grid": integer(10, 30, -1, 30, "1291", "108", "1000000000"),
            "--level": number(0.0, 1.0, -0.5, 1.5),
            "--eps": number(0.2, 1.0, -0.1, 1.0),
        })),
        st.tuples(st.just("flow-verify"), st.fixed_dictionaries(
            {
                "--dim": integer(2, 5, -1, 5),
                "--radius": number(0.05, 3.0, -1.0, 3.0),
                "--samples": integer(1, 60, -1, 60, "800001", "2000000"),
            },
            # the report's own path is refused, and leaves the report as it was
            optional={"--emit-trajectories": st.sampled_from(["{tmp}/t.csv", "{tmp}/report.out"] if bad else ["{tmp}/t.csv"])},
        )),
        st.floats(0.2, 2.0).flatmap(lambda kappa: st.tuples(st.just("jacobi-index"), st.fixed_dictionaries(
            {"--curvature": st.just(repr(kappa)), "--length": st.just(repr(math.pi / math.sqrt(kappa)))}
            if not bad else {"--curvature": number(-1.0, 2.0), "--length": number(0.0, 7.0)},
            optional={"--eps-min": number(1e-3, 0.05), "--eps-max": number(0.05, 0.3)},
        ))),
        st.tuples(st.just("jacobi-verify"), st.fixed_dictionaries({}, optional={"--seed": integer(0, 99, -5, 99)})),
    )


def _verdict_failed(text: str) -> bool:
    """Whether a written report records a failed check."""
    if text.startswith("eps,"):  # the jacobi-index table
        values = [float(line.split(",")[1]) for line in text.splitlines()[1:]]
        return not all(a > b for a, b in zip(values, values[1:]))
    report = json.loads(text)
    return any(report.get(key) is False for key in ("passed", "all_outer_meet_inner", "strictly_decreasing"))


def _run_in(tmp: str, argv: list[str]) -> tuple[int, str, dict]:
    """Exit code, stderr and the bytes of every file under ``tmp`` after ``main(argv)``."""
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the argv
            code = exc.code
    files = {path.name: path.read_bytes() for path in sorted(pathlib.Path(tmp).rglob("*"))}
    return code, stderr.getvalue(), files


_STALE = b"a report from an earlier run\n"


@settings(deadline=None, max_examples=80)
@given(
    bad=st.booleans(),
    data=st.data(),
)
def test_any_argv_exits_0_1_or_2_without_traceback(bad, data):
    """Every argv ends in exit 0, 1 or 2 and never in an uncaught exception.
    2 prints one ``error:`` line and leaves an existing --out file as it was;
    1 only for a failed check (the report says so) or a refused ambiguous
    case; and a second run of an argv that exits 0 or 1 writes the same bytes."""
    name, options = data.draw(_commands(bad))
    # only the two table commands take --format
    formats = [["--format", "json"], ["--format", "csv"]] if name in ("torus-table", "jacobi-index") else [[]]
    fmt, extra, drop = data.draw(st.sampled_from(formats)), [], False
    if bad:
        extra = data.draw(st.sampled_from([[], ["--bogus"], ["--seed", "x"], *([["--format", "xml"]] if fmt else [])]))
        drop = data.draw(st.booleans())
    with tempfile.TemporaryDirectory() as tmp:
        if name == "classify":
            data = options["--input"]
            path = os.path.join(tmp, "dirs.json")
            with open(path, "w") as fh:
                fh.write(data if isinstance(data, str) else json.dumps(data))
            options = {"--input": path}
        argv = [name]
        for flag, value in options.items():
            argv += [flag, value.format(tmp=tmp)]
        if drop and len(argv) > 1:
            argv = argv[:-2]
        out_path = os.path.join(tmp, "report.out")
        with open(out_path, "wb") as fh:
            fh.write(_STALE)
        argv += [*fmt, "--out", out_path, *extra]
        code, err, files = _run_in(tmp, argv)
        event(f"{name} exit {code}")
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err
        report = files["report.out"]
        if code == 2:
            assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]], (argv, err)
            assert report == _STALE, argv
            return
        if code == 1:
            written = report != _STALE and _verdict_failed(report.decode())
            assert written or err.startswith("AmbiguousClassificationError:"), (argv, err)
        assert _run_in(tmp, argv) == (code, err, files), argv
