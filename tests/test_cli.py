"""Command line interface tests: values, files, exit codes, determinism."""
import json
import math
import subprocess
import sys

import pytest

from jetmin import cli
from jetmin.analysis import ConcavityReport, scan_G
from jetmin.errors import NumericalError
from jetmin.problems import (
    eps_bump_problem,
    load_problem,
    problem_from_dict,
    save_problem,
    single_point_problem,
    two_point_problem,
)


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "jetmin.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture()
def single_file(tmp_path):
    path = tmp_path / "single.json"
    save_problem(single_point_problem(), path)
    return str(path)


@pytest.fixture()
def equality_file(tmp_path):
    path = tmp_path / "appendix_eq.json"
    save_problem(two_point_problem(-1.0 / 3.0), path)
    return str(path)


def test_green_values(capsys):
    assert cli.main(["green", "--z0", "0.5", "--z", "0"]) == 0
    assert capsys.readouterr().out == "-0.693147\n"
    assert cli.main(["green", "--z0", "0", "--z", "0.25", "0.5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["-1.386294", "-0.693147"]


def test_capacity_values(capsys):
    assert cli.main(["capacity", "--z0", "0.5"]) == 0
    assert capsys.readouterr().out == "1.333333\n"
    assert cli.main(["capacity", "--z0", "0"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_usage_errors_exit_4():
    assert run_cli(["bogus"]).returncode == 4
    assert run_cli(["green", "--z0", "nope", "--z", "0"]).returncode == 4
    assert run_cli(["scan"]).returncode == 4


def test_missing_file_exits_4(capsys):
    assert cli.main(["scan", "/nonexistent/problem.json"]) == 4
    assert cli.main(["suita", "/nonexistent/problem.json"]) == 4


def test_invalid_problem_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"marked": []}')
    assert cli.main(["scan", str(bad)]) == 4
    bad.write_text('{"domain": {"kind": "bogus", "map_coeffs": [1, 0, 0, 1]},'
                   ' "marked": [{"location": [0, 0]}]}')
    assert cli.main(["suita", str(bad)]) == 4
    # malformed numeric fields: typed errors, never a traceback
    point = {"location": [0, 0]}
    cases = [
        {"numerics": {"N": None}},
        {"numerics": {"N": "abc"}},
        {"numerics": {"N": 24.7}},
        {"numerics": {"N": True}},
        {"numerics": {"r_count": [5]}},
        {"numerics": {"tolerance": "x"}},
        {"numerics": {"mesh": {"levels": None}}},
        {"numerics": {"mesh": {"levels": 3}}},
        {"numerics": {"mesh": None}},
        {"marked": [dict(point, jet_order=None)]},
        {"marked": [dict(point, green_weight=None)]},
        {"marked": [dict(point, jet_order=1.5)]},
        {"marked": [{"location": [None, 0]}]},
        {"marked": [{"green_weight": 1}]},
        {"marked": [5]},
        {"gain": {"kind": "constant", "value": None}},
        {"gain": {"kind": "tabulated", "grid_t": None, "grid_c": [1, 1]}},
        {"psi_extra": [[0.1]]},
        {"phi": {"zeros": [[[0, 0], None]]}},
    ]
    for case in cases:
        bad.write_text(json.dumps({"marked": [point], **case}))
        assert cli.main(["suita", str(bad)]) == 4, case
        assert "bad input" in capsys.readouterr().err


def test_import_loads_no_scipy():
    code = ("import sys, jetmin, jetmin.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_scan_single_point(tmp_path, single_file, capsys):
    out_json = tmp_path / "scan.json"
    out_csv = tmp_path / "scan.csv"
    prefix = str(tmp_path / "plot")
    code = cli.main(
        [
            "scan",
            single_file,
            "--r-count",
            "7",
            "--out-json",
            str(out_json),
            "--out-csv",
            str(out_csv),
            "--emit-plot-data",
            prefix,
        ]
    )
    assert code == 0
    rep = json.loads(out_json.read_text())["report"]
    assert rep["is_linear"] is True
    assert abs(rep["slope"] - 2 * math.pi) < 1e-4
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "r,t,G,second_difference"
    assert len(lines) == 8
    # endpoints carry no second difference
    assert lines[1].endswith(",") and lines[7].endswith(",")
    assert len(lines[2].split(",")) == 4
    g_dat = (tmp_path / "plot_G.dat").read_text().splitlines()
    assert g_dat[0] == "# r G"
    assert len(g_dat) == 8
    d2_dat = (tmp_path / "plot_d2.dat").read_text().splitlines()
    assert len(d2_dat) == 6
    # report embeds the fully resolved problem
    prob = json.loads(out_json.read_text())["problem"]
    assert prob["numerics"]["N"] == 12
    assert prob["numerics"]["mesh"]["angular"] > 0


def test_scan_stdout_and_violation_gate(single_file, capsys):
    assert cli.main(["scan", single_file, "--r-count", "5"]) == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rep["max_violation"] <= rep["violation_threshold"]
    # the report carries the library's own verdict threshold
    lib = scan_G(load_problem(single_file), r_count=5)
    assert rep["violation_threshold"] == lib.violation_threshold


def test_scan_concavity_violation_exits_3(monkeypatch, single_file, capsys):
    fake = ConcavityReport(
        r_grid=(0.1, 0.2, 0.3, 0.4, 0.5),
        t_grid=(2.3, 1.6, 1.2, 0.9, 0.7),
        g_values=(1.0, 2.0, 4.0, 8.0, 16.0),
        second_differences=(1.0, 2.0, 4.0),
        max_violation=4.0,
        violation_threshold=1e-8,
        is_linear=False,
        slope=1.0,
        intercept=0.0,
        residual=0.5,
        max_quad_error=1e-9,
    )
    monkeypatch.setattr(cli, "scan_G", lambda p, r_count=None: fake)
    assert cli.main(["scan", single_file]) == 3
    assert "concavity" in capsys.readouterr().err


def test_scan_solver_failure_exits_2(monkeypatch, single_file, capsys):
    def boom(p, r_count=None):
        raise NumericalError("solver failed at r = 0.5")

    monkeypatch.setattr(cli, "scan_G", boom)
    assert cli.main(["scan", single_file]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_suita_equality_report(equality_file, capsys):
    assert cli.main(["suita", equality_file]) == 0
    out = json.loads(capsys.readouterr().out)
    rep = out["report"]
    assert rep["equality"] is True
    assert abs(rep["bound"] - 6 * math.pi) < 1e-10
    assert abs(rep["gap"]) <= rep["equality_tolerance"]
    crit = rep["criterion"]
    assert crit["all_hold"] is True
    assert crit["witnesses"] == [[-1.0, 0.0], [-1.0, 0.0]]


def test_suita_bound_violation_exits_3(monkeypatch, equality_file, capsys):
    from jetmin.analysis import SuitaReport, criterion_check

    def fake(problem):
        return SuitaReport(
            bound=1.0,
            c_omega_f=2.0,
            gap=-1.0,
            equality=False,
            criterion=criterion_check(problem),
            quad_error=1e-12,
            equality_tolerance=1e-8,
        )

    monkeypatch.setattr(cli, "suita_compare", fake)
    assert cli.main(["suita", equality_file]) == 3
    assert "exceeds the upper bound" in capsys.readouterr().err


def test_byte_identical_reports(tmp_path):
    path = tmp_path / "p.json"
    save_problem(two_point_problem(0.4), path)
    r1 = run_cli(["suita", str(path)])
    r2 = run_cli(["suita", str(path)])
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
    bump = tmp_path / "bump.json"
    save_problem(eps_bump_problem(0.1), bump)
    s1 = run_cli(["scan", str(bump), "--r-count", "5"])
    s2 = run_cli(["scan", str(bump), "--r-count", "5"])
    assert s1.returncode == 0
    assert s1.stdout == s2.stdout


def test_bump_scan_not_linear(tmp_path, capsys):
    path = tmp_path / "bump.json"
    save_problem(eps_bump_problem(0.1), path)
    assert cli.main(["scan", str(path), "--r-count", "6"]) == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rep["is_linear"] is False
    assert rep["residual"] > 1e-3


def test_appendix_reproduces_targets(capsys, tmp_path):
    out_json = tmp_path / "appendix.json"
    assert cli.main(["appendix", "--out-json", str(out_json)]) == 0
    text = capsys.readouterr().out
    assert text.count("checks pass") == 4
    assert "FAIL" not in text
    cases = json.loads(out_json.read_text())["cases"]
    assert [c["label"] for c in cases] == ["-1/3", "1/4", "1", "-1"]
    assert [c["equality"] for c in cases] == [True, False, False, False]
    for c in cases:
        assert c["checks_passed"] is True


def test_verify_lemmas(tmp_path, capsys):
    p = problem_from_dict(
        {
            "marked": [
                {"location": [0.2, 0.0], "green_weight": 3.0},
                {"location": [-0.3, 0.1], "green_weight": 3.0},
            ]
        }
    )
    path = tmp_path / "mass.json"
    save_problem(p, path)
    assert cli.main(["verify-lemmas", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rep["passed"] is True
    assert rep["mass"]["relative_error"] <= 1e-3
    assert [o["beta_degree"] for o in rep["orthogonality"]] == [0, 1, 2, 3]
    assert all(o["residual"] <= 1e-6 for o in rep["orthogonality"])


def test_verify_lemmas_rejects_small_weights(single_file, capsys):
    assert cli.main(["verify-lemmas", single_file]) == 4
    assert "p > 2" in capsys.readouterr().err


def test_verify_lemmas_rejects_negative_beta_max(tmp_path, capsys):
    p = problem_from_dict(
        {"marked": [{"location": [0.2, 0.0], "green_weight": 3.0}]}
    )
    path = tmp_path / "mass.json"
    save_problem(p, path)
    assert cli.main(["verify-lemmas", str(path), "--beta-max", "-2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--beta-max" in captured.err
