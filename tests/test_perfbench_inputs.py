"""The benchmark's scan inputs take the Gram path their names promise.

perfbench/gen.py uses the standard library only, so it is loaded by path.
Its one-point scan items are transported single points, which the library
solves in closed form at every level; the multi-point items are the ones
that exercise the sublevel quadrature.  A change in which path an item
takes changes what the scan workload measures.
"""
import importlib.util
from pathlib import Path

import pytest

import jetmin.solver as solver
from jetmin.analysis import scan_G
from jetmin.problems import load_problem

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


class QuadratureReached(Exception):
    pass


@pytest.mark.parametrize("seed", range(4))
def test_scan_items_take_the_expected_gram_path(tmp_path, monkeypatch, seed):
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    closed_form = []
    reduction = solver.analytic_reduction

    def spy(*args):
        diag = reduction(*args)
        closed_form.append(diag is not None)
        return diag

    def refuse(*args, **kwargs):
        raise QuadratureReached

    monkeypatch.setattr(solver, "analytic_reduction", spy)
    monkeypatch.setattr(solver, "gram_reduced", refuse)
    for item in gen.generate("scan", seed, str(tmp_path)):
        problem = load_problem(item["paths"][0])
        one_point = len(problem.weights.marked) == 1
        assert one_point == (item["reference"] is not None), item["name"]
        closed_form.clear()
        if one_point:
            scan_G(problem)
        else:
            with pytest.raises(QuadratureReached):
                scan_G(problem)
        assert closed_form == [one_point] * problem.numerics.r_count, item["name"]
