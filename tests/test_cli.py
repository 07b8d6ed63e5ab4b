"""Command line interface tests: values, files, exit codes, determinism."""
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import jetmin
from jetmin import cli
from jetmin.analysis import ConcavityReport, scan_G
from jetmin.errors import NumericalError
from jetmin.geometry import green_disc
from jetmin.problems import (
    Numerics,
    eps_bump_problem,
    load_problem,
    problem_from_dict,
    save_problem,
    single_point_problem,
    two_point_problem,
)


# child interpreters import the same jetmin as the tests, installed or not
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(jetmin.__file__)))
CHILD_ENV = {**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))}


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "jetmin.cli", *args],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
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


def test_green_takes_negative_complex_values(capsys):
    # argparse reads "-0.2-0.1j" as an option unless the parser knows better
    z0, zs = 0.3 + 0.2j, (0, 0.5, -0.2 - 0.1j)
    assert cli.main(["green", "--z0", "0.3+0.2j", "--z", "0", "0.5", "-0.2-0.1j"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [cli._plain(green_disc(z, z0)) for z in zs]
    assert cli.main(["green", "--z0", "-0.3-0.2j", "--z", "-0.5j"]) == 0
    assert capsys.readouterr().out == cli._plain(green_disc(-0.5j, -0.3 - 0.2j)) + "\n"
    with pytest.raises(SystemExit) as exc:
        cli.main(["green", "--z0", "0.3", "--z", "0", "-x"])
    assert exc.value.code == 4
    assert "unrecognized arguments: -x" in capsys.readouterr().err


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
        {"gain": {"kind": "constant", "value": 2, "rate": 0.5}},
        {"gain": {"kind": "tabulated", "grid_t": [0, 1], "grid_c": [1, 1], "value": 1}},
        {"numerics": [24]},
        {"phi": [1]},
        {"gain": None},
        {"domain": 3},
    ]
    for case in cases:
        bad.write_text(json.dumps({"marked": [point], **case}))
        assert cli.main(["suita", str(bad)]) == 4, case
        assert "bad input" in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("block,key", [("marked", "jet_coeff"), ("marked", "coord_scale"),
                                       ("phi", "leading"), ("phi", "u_coeffs")])
def test_non_finite_fields_exit_4(tmp_path, capsys, block, key, value):
    point = {"location": [0.1, 0.05]}
    entry = [[0, 0], [value, 0]] if key == "u_coeffs" else [value, 0]
    problem = {"marked": [point], "numerics": {"N": 6}}
    if block == "marked":
        problem["marked"] = [dict(point, **{key: entry})]
    else:
        problem["phi"] = {key: entry}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(problem))
    for command in ("suita", "scan"):
        assert cli.main([command, str(path)]) == 4, command
        assert "must be finite" in capsys.readouterr().err


def test_two_level_mesh_at_the_coarse_floors_exits_4(tmp_path, capsys):
    # every count at its half-resolution floor: the coarse mesh is the fine
    # one, and the error estimate would read 0 (G is 1.3e-4 relative off the
    # default mesh's, under an equality tolerance of 2.2e-8 relative)
    ring = [{"location": [0.7 * math.cos(k * math.pi / 3), 0.7 * math.sin(k * math.pi / 3)]}
            for k in range(6)]
    floors = {"angular": 32, "radial": 40, "patch_angular": 16, "patch_radial": 16}
    problem = {"marked": ring, "gain": {"kind": "exponential", "rate": 0.5},
               "numerics": {"N": 24, "mesh": dict(floors, levels=2)}}
    path = tmp_path / "floors.json"
    path.write_text(json.dumps(problem))
    assert cli.main(["suita", str(path)]) == 4
    err = capsys.readouterr().err
    assert "half-resolution floors" in err and "levels: 1" in err
    problem["numerics"]["mesh"]["levels"] = 1
    path.write_text(json.dumps(problem))
    assert cli.main(["suita", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["quad_error"] == 0


def test_steep_tabulated_gain_exits_4(tmp_path, capsys):
    gain = {"kind": "tabulated", "grid_t": [0, 5, 5.001, 10],
            "grid_c": [1, 1, math.exp(0.005), math.exp(0.005)]}
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({"marked": [{"location": [0, 0]}], "gain": gain}))
    assert cli.main(["scan", str(path)]) == 4
    assert "not admissible" in capsys.readouterr().err


def _point(x, p=1.0, coeff=1.0):
    return {"location": [x, 0], "green_weight": p, "jet_coeff": [coeff, 0]}


# inputs at the edge of the numerics, on N = 12 and 5 scan levels unless set
LOWEST_N = {"N": 0, "r_count": 5}
RATE_09 = {"kind": "exponential", "rate": 0.9}
EDGE_CASES = {
    "circle-1e-4": {"marked": [_point(0.9999)]},
    "circle-1e-6": {"marked": [_point(0.999999)]},
    "apart-1e-9": {"marked": [_point(0.3), _point(0.3 + 1e-9)]},
    "apart-1e-13": {"marked": [_point(0.3), _point(0.3 + 1e-13)]},
    "rate-0.999": {"marked": [_point(0.3)], "gain": {"kind": "exponential", "rate": 0.999}},
    "rate-0.999-u": {"marked": [_point(0.3)], "gain": {"kind": "exponential", "rate": 0.999},
                     "phi": {"u_coeffs": [[0, 0], [0.1, 0]]}},
    "rate-0.9": {"marked": [_point(0.3)], "gain": RATE_09, "numerics": {"N": 12}},
    "pair-rate-0.9": {"marked": [_point(0.3), _point(-0.3)], "gain": RATE_09,
                      "numerics": {"N": 12}},
    "lowest-N": {"marked": [_point(0.3)], "numerics": LOWEST_N},
    "zero-jets-N0": {"marked": [_point(0.3, coeff=0.0)], "numerics": LOWEST_N},
    "p-1.5": {"marked": [_point(0.3, p=1.5)]},
    "p-2.5-at-0.99": {"marked": [_point(0.99, p=2.5)]},
    "p-2.5-at-0.9999": {"marked": [_point(0.9999, p=2.5)]},
}
# the settled exit codes.  One point is solved in the chart that puts it at
# 0, so every one-point case is pinned (exit 4 on verify-lemmas is p <= 2).
# Without u the Gram there is closed-form at every level, so the scan of
# rate 0.999 (t up to 1792) gets exact values; with a u term it stays on
# quadrature, where no node falls in its deepest level (exit 2).
# Two points 1e-9 apart wait on an error budget for G (ROADMAP item 3), and
# the pair at +-0.3 under rate 0.9, which exits 2 at t = 28.9 with a
# constraint residual of 1.5e-8, on a basis for deep multi-point levels
# (ROADMAP item 9).
_ONE_POINT_EXITS = {
    "circle-1e-4": (0, 0, 4), "circle-1e-6": (0, 0, 4), "rate-0.999": (0, 0, 4),
    "rate-0.999-u": (0, 2, 4),
    "rate-0.9": (0, 0, 4), "lowest-N": (0, 0, 4), "zero-jets-N0": (0, 0, 4),
    "p-1.5": (0, 0, 4), "p-2.5-at-0.99": (0, 0, 0), "p-2.5-at-0.9999": (0, 0, 0),
}
EDGE_EXITS = {
    ("apart-1e-13", "suita"): 4, ("apart-1e-13", "scan"): 4, ("apart-1e-13", "verify-lemmas"): 4,
    **{(case, command): code for case, codes in _ONE_POINT_EXITS.items()
       for command, code in zip(("suita", "scan", "verify-lemmas"), codes)},
}


def _no_constant(name):
    raise ValueError(f"{name} in a report")


@pytest.mark.parametrize("command", ["suita", "scan", "verify-lemmas"])
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_inputs_end_in_a_documented_exit(tmp_path, capsys, case, command):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"numerics": {"N": 12, "r_count": 5}, **EDGE_CASES[case]}))
    code = cli.main([command, str(path)])
    out = capsys.readouterr()
    assert code in (0, 2, 3, 4)
    assert code == EDGE_EXITS.get((case, command), code)
    if code:
        assert out.err.startswith("jetmin: ")
    if code in (0, 3):
        json.loads(out.out, parse_constant=_no_constant)
    if (case, command) == ("rate-0.999-u", "scan"):
        assert "no quadrature node" in out.err


@pytest.mark.parametrize("phi", [{"u_coeffs": [[-400, 0]]}, {"leading": [1e-300, 0]},
                                 {"leading": [1e300, 0]}],
                         ids=["u", "leading", "leading-underflow"])
@pytest.mark.parametrize("command", ["suita", "scan"])
def test_overflowing_weight_exits_2(tmp_path, command, phi):
    # e^{-phi} overflows on the region, or underflows everywhere (1e-600, so
    # G and the bound would both read 0): a typed numerical failure, no warnings
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"marked": [{"location": [0.2, 0]}], "phi": phi,
                                "numerics": {"N": 8}}))
    out = run_cli([command, str(path)])
    assert out.returncode == 2
    assert out.stderr.startswith("jetmin: numerical failure")
    assert "Traceback" not in out.stderr


def test_divergent_weight_at_the_point_exits_2(tmp_path, capsys):
    # a divisor zero of order 3 at the only point, p = 1: the integrand
    # exponent there is 2 - 6 = -4, which the jet data do not cancel
    path = tmp_path / "divergent.json"
    path.write_text(json.dumps({"marked": [{"location": [0.3, 0]}],
                                "phi": {"zeros": [[[0.3, 0], 3]]}, "numerics": {"N": 6}}))
    assert cli.main(["suita", str(path)]) == 2
    assert "exponent -4 diverges" in capsys.readouterr().err


def test_scan_level_without_nodes_exits_2(tmp_path):
    # rate -> 1 puts the scan grid at t ~ 6e5 to 3e7, where {psi < -t} is a
    # disc of pseudo-hyperbolic radius e^{-t/2} about the point: with a u
    # term the Gram comes from quadrature, and no node falls in that disc
    problem = {"marked": [{"location": [0.2, 0]}],
               "gain": {"kind": "exponential", "rate": 0.9999999},
               "numerics": {"N": 8}}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({**problem, "phi": {"u_coeffs": [[0, 0], [0.1, 0]]}}))
    out = run_cli(["scan", str(path)])
    assert out.returncode == 2
    assert out.stderr.startswith("jetmin: numerical failure")
    assert "no quadrature node" in out.stderr
    assert "Traceback" not in out.stderr
    assert out.stdout == ""
    # without u every level is a centered disc in the point's chart, whose
    # Gram is closed-form: G = 2 pi (1 - 0.04)^2 r exactly at every level
    path.write_text(json.dumps(problem))
    out = run_cli(["scan", str(path)])
    assert out.returncode == 0, out.stderr
    rep = json.loads(out.stdout)["report"]
    assert min(rep["t_grid"]) > 5e5 and rep["is_linear"] and rep["max_quad_error"] == 0
    for r, g in zip(rep["r_grid"], rep["g_values"]):
        assert g == pytest.approx(2 * math.pi * 0.96**2 * r, rel=1e-14)


def test_scan_deep_levels_of_a_steep_gain(tmp_path):
    # rate 0.8 puts the grid at t up to 14.5: levels of radius about e^{-t/2}
    # around the point, inside the first uniform sample of every ray from it
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({"marked": [{"location": [0.3, 0]}],
                                "gain": {"kind": "exponential", "rate": 0.8},
                                "numerics": {"N": 12}}))
    out = run_cli(["scan", str(path)])
    assert out.returncode == 0, out.stderr
    rep = json.loads(out.stdout)["report"]
    assert rep["is_linear"]
    assert max(rep["t_grid"]) > 14


def test_scan_with_a_knot_past_708(tmp_path):
    # c = 1 on [0, 1000]: c(t) e^{-t} is 0 in floats at the last knot, but
    # h^-1(r) = log(1/r) on the whole grid
    gain = {"kind": "tabulated", "grid_t": [0, 1000], "grid_c": [1, 1]}
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"marked": [{"location": [0, 0]}], "gain": gain,
                                "numerics": {"N": 8, "r_count": 5}}))
    out = run_cli(["scan", str(path)])
    assert out.returncode == 0, out.stderr
    rep = json.loads(out.stdout)["report"]
    for r, t in zip(rep["r_grid"], rep["t_grid"]):
        assert t == pytest.approx(-math.log(r), rel=1e-15)
    assert rep["is_linear"]


def test_import_loads_no_scipy():
    code = ("import sys, jetmin, jetmin.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=CHILD_ENV)
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


def test_scan_r_count_override_is_recorded(tmp_path, capsys):
    path = tmp_path / "p.json"
    save_problem(single_point_problem(Numerics(N=12, r_count=5)), path)
    assert cli.main(["scan", str(path), "--r-count", "6"]) == 0
    text = capsys.readouterr().out
    out = json.loads(text)
    assert out["problem"]["numerics"]["r_count"] == len(out["report"]["r_grid"]) == 6
    # the embedded problem alone reproduces the report
    embedded = tmp_path / "embedded.json"
    embedded.write_text(json.dumps(out["problem"]))
    assert cli.main(["scan", str(embedded)]) == 0
    assert capsys.readouterr().out == text
    assert cli.main(["scan", str(path), "--r-count", "4"]) == 4
    assert "r_count" in capsys.readouterr().err


def test_scan_stdout_and_violation_gate(single_file, capsys):
    assert cli.main(["scan", single_file, "--r-count", "5"]) == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rep["max_violation"] <= rep["violation_threshold"]
    # the report carries the library's own verdict threshold
    p = load_problem(single_file)
    lib = scan_G(replace(p, numerics=replace(p.numerics, r_count=5)))
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
    monkeypatch.setattr(cli, "scan_G", lambda p: fake)
    assert cli.main(["scan", single_file]) == 3
    assert "concavity" in capsys.readouterr().err


def test_scan_solver_failure_exits_2(monkeypatch, single_file, capsys):
    def boom(p):
        raise NumericalError("solver failed at r = 0.5")

    monkeypatch.setattr(cli, "scan_G", boom)
    assert cli.main(["scan", single_file]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_out_of_memory_exits_2(monkeypatch, equality_file, capsys):
    # a stand-in that raises at once: no input here really allocates
    def no_memory(problem):
        raise MemoryError

    monkeypatch.setattr(cli, "suita_compare", no_memory)
    assert cli.main(["suita", equality_file]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: out of memory" in err
    assert "Traceback" not in err


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


def suita_report(tmp_path, capsys, problem, name):
    path = tmp_path / name
    save_problem(problem_from_dict(problem), path)
    assert cli.main(["suita", str(path)]) == 0
    return json.loads(capsys.readouterr().out)["report"]


def test_suita_on_a_moebius_image_reads_the_disc_problem(tmp_path, capsys):
    # the equality case a = -1/3 moved by T, each point with coord_scale
    # 1/T'(zeta): both files take the closed-form Gram in disc coordinates
    def pair(z):
        return [complex(z).real, complex(z).imag]

    T = (2.0, 0.3, 0.1, 1.2)
    a, b, c, d = T
    marked = [(0j, 2.0, 1, 1.0), (0.5 + 0j, 1.0, 0, -1.0 / 3.0)]
    disc = {"marked": [{"location": pair(z), "green_weight": p, "jet_order": k,
                        "jet_coeff": pair(f)} for z, p, k, f in marked]}
    moved = {"domain": {"kind": "moebius_image", "map_coeffs": [pair(v) for v in T]},
             "marked": [{"location": pair((a * z + b) / (c * z + d)), "green_weight": p,
                         "jet_order": k, "jet_coeff": pair(f),
                         "coord_scale": pair((c * z + d) ** 2 / (a * d - b * c))}
                        for z, p, k, f in marked]}
    rep_disc = suita_report(tmp_path, capsys, disc, "disc.json")
    rep_moved = suita_report(tmp_path, capsys, moved, "moved.json")
    for rep in (rep_disc, rep_moved):
        assert rep["quad_error"] == 0.0
        assert rep["equality"] is True
    for key in ("c_omega_f", "bound"):
        assert abs(rep_moved[key] - rep_disc[key]) <= 1e-12 * rep_disc[key]
    assert abs(rep_moved["gap"] - rep_disc["gap"]) <= 1e-12 * rep_disc["bound"]


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


def test_suita_minimum_above_the_bound_is_no_equality(tmp_path, capsys):
    # +-0.99 with order-0 jets of value 1: at N = 40 the truncated minimum
    # 0.02401 lies far above the bound 0.004977 (gap -0.0190).  Equality
    # needs |gap| within the tolerance, so the report says false, as the
    # criterion does, and the excess exits 3
    path = tmp_path / "pm099.json"
    path.write_text(json.dumps({"marked": [{"location": [0.99, 0]}, {"location": [-0.99, 0]}],
                                "numerics": {"N": 40}}))
    assert cli.main(["suita", str(path)]) == 3
    out = capsys.readouterr()
    assert "exceeds the upper bound" in out.err
    rep = json.loads(out.out)["report"]
    assert rep["bound"] == pytest.approx(4.976911e-3, rel=1e-6)
    assert rep["c_omega_f"] == pytest.approx(0.02401, rel=1e-3)
    assert rep["gap"] < -rep["equality_tolerance"]
    assert rep["equality"] is False
    assert rep["criterion"]["all_hold"] is False


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


@pytest.mark.parametrize("flag,value", [("--mass-tol", "-1"), ("--orth-tol", "nan"),
                                        ("--orth-tol", "-1e-9"), ("--mass-tol", "inf")])
def test_verify_lemmas_rejects_bad_tolerances(tmp_path, capsys, monkeypatch, flag, value):
    # rejected as bad input before any quadrature runs
    def no_work(*args, **kwargs):
        raise AssertionError("lemma integrals computed for a bad tolerance")

    monkeypatch.setattr(cli, "lemma_integrals", no_work)
    p = problem_from_dict(
        {"marked": [{"location": [0.2, 0.0], "green_weight": 3.0}]}
    )
    path = tmp_path / "mass.json"
    save_problem(p, path)
    assert cli.main(["verify-lemmas", str(path), f"{flag}={value}"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


def test_verify_lemmas_builds_one_region(tmp_path, capsys, monkeypatch):
    from jetmin import quadrature

    calls = []
    build = quadrature.build_region

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(quadrature, "build_region", counted)
    p = problem_from_dict(
        {"marked": [{"location": [0.2, 0.0], "green_weight": 3.0}]}
    )
    path = tmp_path / "mass.json"
    save_problem(p, path)
    assert cli.main(["verify-lemmas", str(path), "--beta-max", "3"]) == 0
    assert len(calls) == 1
    rep = json.loads(capsys.readouterr().out)["report"]
    assert [o["beta_degree"] for o in rep["orthogonality"]] == [0, 1, 2, 3]


def lemma_problem(points, T=None, psi_extra=()):
    """Problem dict with a marked point of Green weight p per (disc point,
    p), moved by the Moebius map T = (a, b, c, d) with coord_scale 1/T'."""
    def pair(z):
        return [complex(z).real, complex(z).imag]

    dom = {"kind": "unit_disc"}
    if T is not None:
        dom = {"kind": "moebius_image", "map_coeffs": [pair(v) for v in T]}
    marked = []
    for zeta, p in points:
        loc, scale = zeta, 1.0
        if T is not None:
            a, b, c, d = T
            loc, scale = (a * zeta + b) / (c * zeta + d), (c * zeta + d) ** 2 / (a * d - b * c)
        marked.append({"location": pair(loc), "green_weight": p, "coord_scale": pair(scale)})
    return {"domain": dom, "marked": marked, "psi_extra": [[pair(z), c] for z, c in psi_extra]}


def verify_lemmas_report(tmp_path, capsys, problem):
    path = tmp_path / "lemmas.json"
    save_problem(problem_from_dict(problem), path)
    assert cli.main(["verify-lemmas", str(path)]) == 0
    return json.loads(capsys.readouterr().out)["report"]


@pytest.mark.parametrize("points,T", [
    (((0.2 + 0j, 3.0), (-0.3 + 0.1j, 3.0)), (0.9, 0.5 + 0.2j, 0.3, 1.0)),
    # the first point lands at |z| = 1.57, outside the unit disc
    (((0.785 + 0j, 3.0), (-0.2 + 0.1j, 2.5)), (2.0, 0.0, 0.0, 1.0)),
])
def test_verify_lemmas_works_in_disc_coordinates(tmp_path, capsys, points, T):
    disc = verify_lemmas_report(tmp_path, capsys, lemma_problem(points))
    moved = verify_lemmas_report(tmp_path, capsys, lemma_problem(points, T))
    assert moved["passed"] is True
    assert moved["mass"]["expected"] == disc["mass"]["expected"]
    assert abs(moved["mass"]["value"] - disc["mass"]["value"]) <= 1e-12 * disc["mass"]["value"]
    for o_moved, o_disc in zip(moved["orthogonality"], disc["orthogonality"]):
        assert abs(o_moved["residual"] - o_disc["residual"]) <= 1e-12


def test_verify_lemmas_merges_extra_psi_mass_at_a_marked_point(tmp_path, capsys):
    extra = verify_lemmas_report(
        tmp_path, capsys, lemma_problem(((0.2 + 0j, 3.0),), psi_extra=((0.2 + 0j, 1.0),)))
    merged = verify_lemmas_report(tmp_path, capsys, lemma_problem(((0.2 + 0j, 3.5),)))
    assert extra["passed"] is True
    assert extra["mass"]["expected"] == pytest.approx(2 * math.pi * 3.5, rel=1e-15)
    assert abs(extra["mass"]["value"] - merged["mass"]["value"]) <= 1e-12 * merged["mass"]["value"]
