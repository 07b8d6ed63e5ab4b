"""Command line front end: problem files in, deterministic reports out.

Every JSON report embeds the fully resolved problem (all defaults written
out), so a report alone reproduces the run.  Exit codes: 0 success, 2
numerical failure, 3 theorem violation (a bug sentinel, since the checked
statements are proved), 4 bad input.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from .analysis import lemma_integrals, scan_G, suita_compare, verify_mass, verify_orthogonality
from .errors import BadInputError, NumericalError, TheoremViolationError
from .geometry import UNIT_DISC, MarkedPoint, green_disc, log_capacity
from .problems import (
    Numerics,
    dump_json,
    json_value,
    load_problem,
    problem_to_dict,
    two_point_problem,
)
from .weights import WeightKernel

EXIT_OK = 0
EXIT_NUMERICAL = 2
EXIT_VIOLATION = 3
EXIT_BAD_INPUT = 4

APPENDIX_VALUES = (-1.0 / 3.0, 0.25, 1.0, -1.0)
APPENDIX_LABELS = ("-1/3", "1/4", "1", "-1")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2 for
    numerics, so remap to the bad-input code."""

    def error(self, message):
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")

    def _parse_optional(self, arg_string):
        # argparse takes "-0.2" for a value but "-0.2-0.1j" for an option
        if _is_complex(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _is_complex(text: str) -> bool:
    try:
        complex(text)
    except ValueError:
        return False
    return True


def _complex_arg(text: str) -> complex:
    try:
        return complex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}")


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _plain(x: float) -> str:
    """Fixed 6-decimal value with trailing zeros stripped."""
    s = f"{float(x):.6f}"
    return s.rstrip("0").rstrip(".") if "." in s else s


def _emit(text: str, path) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_dict(rep) -> dict:
    """A report as JSON (problems.json_value); its criterion report, if it
    has one, gains ``all_hold``."""
    out = json_value(rep)
    if "criterion" in out:
        out["criterion"]["all_hold"] = rep.criterion.all_hold
    return out


# -- commands ----------------------------------------------------------------

def cmd_green(args) -> int:
    for z in args.z:
        sys.stdout.write(_plain(green_disc(z, args.z0)) + "\n")
    return EXIT_OK


def cmd_capacity(args) -> int:
    pt = MarkedPoint(args.z0)
    sys.stdout.write(_plain(log_capacity(UNIT_DISC, pt)) + "\n")
    return EXIT_OK


def cmd_scan(args) -> int:
    p = load_problem(args.problem)
    if args.r_count is not None:
        p = replace(p, numerics=replace(p.numerics, r_count=args.r_count))
    rep = scan_G(p)
    payload = {"command": "scan", "problem": problem_to_dict(p), "report": _report_dict(rep)}
    _emit(dump_json(payload), args.out_json)
    if args.out_csv:
        _write_scan_csv(rep, args.out_csv)
    if args.emit_plot_data:
        _write_plot_data(rep, args.emit_plot_data)
    if rep.max_violation > rep.violation_threshold:
        raise TheoremViolationError(
            f"concavity violated: second difference {rep.max_violation:.3e} "
            f"exceeds {rep.violation_threshold:.3e}"
        )
    return EXIT_OK


def _write_scan_csv(rep, path) -> None:
    n = len(rep.r_grid)
    lines = ["r,t,G,second_difference\n"]
    for i in range(n):
        d2 = _g17(rep.second_differences[i - 1]) if 1 <= i <= n - 2 else ""
        lines.append(
            f"{_g17(rep.r_grid[i])},{_g17(rep.t_grid[i])},"
            f"{_g17(rep.g_values[i])},{d2}\n"
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)


def _write_plot_data(rep, prefix) -> None:
    with open(f"{prefix}_G.dat", "w", encoding="utf-8") as fh:
        fh.write("# r G\n")
        for r, g in zip(rep.r_grid, rep.g_values):
            fh.write(f"{_g17(r)} {_g17(g)}\n")
    with open(f"{prefix}_d2.dat", "w", encoding="utf-8") as fh:
        fh.write("# r second_difference\n")
        for r, d in zip(rep.r_grid[1:-1], rep.second_differences):
            fh.write(f"{_g17(r)} {_g17(d)}\n")


def cmd_suita(args) -> int:
    p = load_problem(args.problem)
    rep = suita_compare(p)
    payload = {"command": "suita", "problem": problem_to_dict(p), "report": _report_dict(rep)}
    _emit(dump_json(payload), args.out_json)
    if rep.gap < -rep.equality_tolerance:
        raise TheoremViolationError(
            f"minimal integral {rep.c_omega_f:.12g} exceeds the upper bound "
            f"{rep.bound:.12g} beyond tolerance"
        )
    return EXIT_OK


def _appendix_case(a: float, label: str) -> dict:
    rep = suita_compare(two_point_problem(a, numerics=Numerics(N=64)))
    c_target = 36 * math.pi / 5 * abs(a - 0.5) ** 2 + math.pi
    bound_target = 4 * math.pi + 18 * abs(a) ** 2 * math.pi
    gap_target = 6 * math.pi / 5 * abs(3 * a + 1) ** 2
    is_eq_case = abs(3 * a + 1) < 1e-12
    checks = [
        abs(rep.c_omega_f - c_target) <= 1e-8 * c_target,
        abs(rep.bound - bound_target) <= 1e-10 * bound_target,
        (
            abs(rep.gap) <= rep.equality_tolerance
            if is_eq_case
            else abs(rep.gap - gap_target) <= 1e-6 * gap_target
        ),
        rep.equality == is_eq_case,
        rep.criterion.all_hold == is_eq_case,
    ]
    return {
        "a": a,
        "label": label,
        "c_computed": rep.c_omega_f,
        "c_target": c_target,
        "bound_computed": rep.bound,
        "bound_target": bound_target,
        "gap_computed": rep.gap,
        "gap_target": gap_target,
        "criterion_flags": list(rep.criterion.flags),
        "witnesses": json_value(rep.criterion.witnesses),
        "equality": rep.equality,
        "checks_passed": all(checks),
    }


def cmd_appendix(args) -> int:
    cases = [_appendix_case(a, lab) for a, lab in zip(APPENDIX_VALUES, APPENDIX_LABELS)]
    if args.out_json:
        _emit(dump_json({"command": "appendix", "cases": cases}), args.out_json)
    lines = []
    for c in cases:
        flags = " ".join(
            f"{name}={'T' if v else 'F'}"
            for name, v in zip(
                ("psi_pure", "harmonic", "characters", "ratios"), c["criterion_flags"]
            )
        )
        lines.append(f"a = {c['label']}")
        lines.append(
            f"  minimum   {c['c_computed']:<22.15g} target {c['c_target']:<22.15g}"
            f" rel {_rel(c['c_computed'], c['c_target']):.1e}"
        )
        lines.append(
            f"  bound     {c['bound_computed']:<22.15g} target {c['bound_target']:<22.15g}"
            f" rel {_rel(c['bound_computed'], c['bound_target']):.1e}"
        )
        lines.append(
            f"  gap       {c['gap_computed']:<22.15g} target {c['gap_target']:<22.15g}"
        )
        lines.append(f"  criterion {flags}")
        lines.append(
            f"  equality  {c['equality']}   checks {'pass' if c['checks_passed'] else 'FAIL'}"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    if not all(c["checks_passed"] for c in cases):
        raise TheoremViolationError("closed-form targets not reproduced")
    return EXIT_OK


def _rel(x: float, y: float) -> float:
    return abs(x - y) / abs(y) if y != 0 else abs(x - y)


def cmd_verify_lemmas(args) -> int:
    if args.beta_max < 0:
        raise BadInputError(f"--beta-max must be >= 0, got {args.beta_max}")
    for flag, tol in (("--mass-tol", args.mass_tol), ("--orth-tol", args.orth_tol)):
        if not (math.isfinite(tol) and tol >= 0):
            raise BadInputError(f"{flag} must be finite and >= 0, got {tol}")
    p = load_problem(args.problem)
    kernel = WeightKernel(p.domain, p.weights)
    expected = 2 * math.pi * sum(mass for _loc, mass, _m in p.weights.points)
    integrals = lemma_integrals(kernel, args.beta_max, p.numerics.mesh)
    mass = verify_mass(kernel, integrals=integrals)
    mass_rel = abs(mass - expected) / expected
    orth = [
        {
            "beta_degree": d,
            "residual": verify_orthogonality(kernel, d, integrals=integrals),
            "tolerance": args.orth_tol,
        }
        for d in range(args.beta_max + 1)
    ]
    passed = mass_rel <= args.mass_tol and all(
        o["residual"] <= o["tolerance"] for o in orth
    )
    payload = {
        "command": "verify_lemmas",
        "problem": problem_to_dict(p),
        "report": {
            "mass": {
                "value": mass,
                "expected": expected,
                "relative_error": mass_rel,
                "tolerance": args.mass_tol,
            },
            "orthogonality": orth,
            "passed": passed,
        },
    }
    _emit(dump_json(payload), args.out_json)
    if not passed:
        raise TheoremViolationError(
            f"identity violated: mass relative error {mass_rel:.3e}, "
            f"max orthogonality residual {max(o['residual'] for o in orth):.3e}"
        )
    return EXIT_OK


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jetmin",
        description="Minimal weighted L2 integrals of holomorphic forms "
        "with jet conditions: scans, bound comparisons, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("green", help="evaluate the disc Green function")
    g.add_argument("--z0", type=_complex_arg, required=True, help="pole location")
    g.add_argument(
        "--z", type=_complex_arg, required=True, nargs="+", help="evaluation points"
    )
    g.set_defaults(func=cmd_green)

    c = sub.add_parser("capacity", help="logarithmic capacity at a point")
    c.add_argument("--z0", type=_complex_arg, required=True, help="point location")
    c.set_defaults(func=cmd_capacity)

    s = sub.add_parser("scan", help="sample G(h^-1(r)) and test concavity/linearity")
    s.add_argument("problem", help="problem JSON file")
    s.add_argument("--r-count", type=int, default=None, help="override grid size")
    s.add_argument("--out-json", default=None, help="report path (default stdout)")
    s.add_argument("--out-csv", default=None, help="write r,t,G,second_difference CSV")
    s.add_argument(
        "--emit-plot-data",
        default=None,
        metavar="PREFIX",
        help="write PREFIX_G.dat and PREFIX_d2.dat gnuplot files",
    )
    s.set_defaults(func=cmd_scan)

    u = sub.add_parser("suita", help="minimal integral vs the optimal-jets bound")
    u.add_argument("problem", help="problem JSON file")
    u.add_argument("--out-json", default=None, help="report path (default stdout)")
    u.set_defaults(func=cmd_suita)

    a = sub.add_parser(
        "appendix", help="two-point closed-form family vs analytic targets"
    )
    a.add_argument("--out-json", default=None, help="also write a JSON report")
    a.set_defaults(func=cmd_appendix)

    v = sub.add_parser(
        "verify-lemmas", help="mass and orthogonality identities for the psi data"
    )
    v.add_argument("problem", help="problem JSON file")
    v.add_argument("--beta-max", type=int, default=3, help="largest test degree")
    v.add_argument("--mass-tol", type=float, default=1e-3)
    v.add_argument("--orth-tol", type=float, default=1e-6)
    v.add_argument("--out-json", default=None, help="report path (default stdout)")
    v.set_defaults(func=cmd_verify_lemmas)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TheoremViolationError as exc:
        sys.stderr.write(f"jetmin: theorem violation: {exc}\n")
        return EXIT_VIOLATION
    except (BadInputError, OSError) as exc:
        sys.stderr.write(f"jetmin: bad input: {exc}\n")
        return EXIT_BAD_INPUT
    except NumericalError as exc:
        sys.stderr.write(f"jetmin: numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except MemoryError:
        sys.stderr.write("jetmin: numerical failure: out of memory; reduce N or the mesh counts\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
