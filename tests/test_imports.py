"""Each entry point loads only the layers it runs.

Every check runs in a fresh interpreter, since the test session itself has
imported every submodule long before."""
import json
import os
import subprocess
import sys

import pytest

import jetmin
from jetmin.problems import save_problem, two_point_problem

# child interpreters import the same jetmin as the tests, installed or not
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(jetmin.__file__)))
CHILD_ENV = {**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))}

PROBLEM_LAYERS = {"errors", "gain", "geometry", "mesh", "problems", "series", "weights"}
# the analysis stack that cli imports, without the quadrature engine
CLI_LAYERS = PROBLEM_LAYERS | {"analysis", "cli", "forms", "solver"}


def loaded_after(code, *args):
    """The jetmin submodules loaded once ``code`` ran in a fresh interpreter
    (stdout silenced), with ``args`` as sys.argv[1:]."""
    script = ("import contextlib, io, json, sys\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              + "".join(f"    {line}\n" for line in code.splitlines())
              + "print(json.dumps(sorted(m for m in sys.modules if m.startswith('jetmin'))))\n")
    out = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                         env=CHILD_ENV, check=True).stdout
    names = json.loads(out.splitlines()[-1])
    assert names[0] == "jetmin"
    return {name.removeprefix("jetmin.") for name in names[1:]}


@pytest.fixture()
def closed_form_file(tmp_path):
    # the equality case a = -1/3 on the unit disc: its Gram is closed form
    path = tmp_path / "two_point.json"
    save_problem(two_point_problem(-1.0 / 3.0), path)
    return str(path)


def test_import_loads_no_submodule():
    assert loaded_after("import jetmin") == set()


def test_load_problem_loads_only_the_problem_layers(closed_form_file):
    code = "import jetmin\njetmin.load_problem(sys.argv[1])"
    assert loaded_after(code, closed_form_file) == PROBLEM_LAYERS


def test_closed_form_suita_loads_no_quadrature(closed_form_file):
    code = "from jetmin import cli\nassert cli.main(['suita', sys.argv[1]]) == 0"
    assert loaded_after(code, closed_form_file) == CLI_LAYERS


def test_capacity_loads_no_quadrature():
    code = "from jetmin import cli\nassert cli.main(['capacity', '--z0', '0.3']) == 0"
    assert loaded_after(code) == CLI_LAYERS


def test_quadrature_loads_with_the_first_quadrature_run(closed_form_file):
    # t = 0 has a closed form on this input, t = 0.5 does not
    code = ("import jetmin\n"
            "p = jetmin.load_problem(sys.argv[1])\n"
            "jetmin.minimal_integral(p.domain, p.weights, p.gain, 0.0, N=4)\n"
            "assert 'jetmin.quadrature' not in sys.modules\n"
            "jetmin.minimal_integral(p.domain, p.weights, p.gain, 0.5, N=4)")
    assert loaded_after(code, closed_form_file) == PROBLEM_LAYERS | {"forms", "quadrature",
                                                                     "solver"}


def test_every_public_name_resolves():
    code = ("import jetmin\n"
            "missing = [n for n in jetmin.__all__ if getattr(jetmin, n, None) is None]\n"
            "assert not missing, missing\n"
            "assert set(jetmin.__all__) <= set(dir(jetmin))\n"
            "ns = {}\n"
            "exec('from jetmin import *', ns)\n"
            "assert set(jetmin.__all__) <= set(ns), set(jetmin.__all__) - set(ns)\n"
            "assert not hasattr(jetmin, 'no_such_name')")
    layers = loaded_after(code)
    assert "quadrature" not in layers
    assert layers == CLI_LAYERS - {"cli"}


def test_dir_lists_the_public_names_before_they_load():
    code = "import jetmin\nassert set(jetmin.__all__) <= set(dir(jetmin))"
    assert loaded_after(code) == set()


def test_mesh_classes_are_one_class_under_every_name():
    from jetmin import mesh, quadrature

    assert jetmin.QuadratureConfig is mesh.QuadratureConfig is quadrature.QuadratureConfig
    assert mesh.PatchSpec is quadrature.PatchSpec
