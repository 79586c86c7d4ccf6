"""What importing and running the CLI loads.

``import mkbary.cli`` loads numpy, the scipy top-level package and scipy's
HiGHS extension only; a job after the first loads no module at all; and
the extension module is the one scipy's own LP front end uses, whichever
of the two is imported first.  Each check runs in a fresh interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy.optimize", "scipy.sparse", "scipy.spatial", "scipy.linalg")


def _run(script: str, *args: str) -> str:
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env={"PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_heavy_scipy_package():
    out = _run("import json, sys\n"
               "import mkbary.cli\n"
               "print(json.dumps(sorted(sys.modules)))\n")
    loaded = set(json.loads(out))
    assert "scipy.optimize._highspy._core" in loaded
    assert [name for name in HEAVY if name in loaded] == []


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def test_jobs_after_the_first_load_no_module(tmp_path):
    plane = {"kind": "euclidean", "dim": 2}
    mu = {"space": plane, "atoms": [[0.0, 0.0], [1.0, 0.5], [0.25, 1.0]],
          "weights": [0.2, 0.3, 0.5]}
    nu = {"space": plane, "atoms": [[0.5, 0.5], [1.0, 1.0]], "weights": [0.6, 0.4]}
    inputs = [{"measure": mu, "lambda": 1.0}, {"measure": nu, "lambda": 2.0}]
    cost = {"kind": "norm_power", "p": 2}
    grid = {"kind": "grid", "box": [[0.0, 0.0], [1.0, 1.0]], "shape": [3, 3]}
    warm = ["transport", _write(tmp_path / "mu.json", mu), _write(tmp_path / "nu.json", nu),
            _write(tmp_path / "cost.json", cost), "--out-dir", str(tmp_path / "warm")]
    jobs = [
        ["verify", "convexity", "--config",
         _write(tmp_path / "convexity.json", {"count": 3, "seed": 1}),
         "--out-dir", str(tmp_path / "convexity")],
        ["barycenter", _write(tmp_path / "fixed.json",
                              {"inputs": inputs, "constraint": grid, "cost": cost}),
         "--method", "fixed", "--out-dir", str(tmp_path / "fixed")],
        ["barycenter", _write(tmp_path / "free.json",
                              {"inputs": inputs, "constraint": {"kind": "free", "k": 2},
                               "cost": cost}),
         "--method", "free", "--out-dir", str(tmp_path / "free")],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from mkbary.cli import main\n"
        "argvs = json.loads(sys.argv[1])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(argvs[0]) == 0\n"
        "    before = set(sys.modules)\n"
        "    for argv in argvs[1:]:\n"
        "        assert main(argv) in (0, 1), argv\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    assert json.loads(_run(script, json.dumps([warm] + jobs))) == []


_SAME_SOLVE = (
    "import numpy as np\n"
    "from scipy.optimize import linprog\n"
    "from mkbary import lp\n"
    "from mkbary.transport import _marginal_columns\n"
    "assert sys.modules['scipy.optimize._highspy._core'] is lp._highs\n"
    "rng = np.random.default_rng(3)\n"
    "c = rng.uniform(size=12)\n"
    "rhs = np.concatenate([rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(4))[:-1]])\n"
    "A = _marginal_columns([(3, 4)], np.arange(12))\n"
    "got = lp.solve(c, A, rhs)\n"
    "from scipy.sparse import csc_array\n"
    "ref = linprog(c, A_eq=csc_array((A.data, A.indices, A.indptr), shape=A.shape), b_eq=rhs,\n"
    "              bounds=(0, None), method='highs',\n"
    "              options={'primal_feasibility_tolerance': lp.FEASIBILITY_TOL,\n"
    "                       'dual_feasibility_tolerance': lp.FEASIBILITY_TOL})\n"
    "assert ref.status == got.status == 0\n"
    "assert got.x.tobytes() == ref.x.tobytes()\n"
    "assert got.duals.tobytes() == ref.eqlin.marginals.tobytes()\n"
    "assert got.fun == ref.fun and got.nit == ref.nit\n"
    "assert sys.modules['scipy.optimize._highspy._highs_wrapper']._h is lp._highs\n"
    "print('same')\n"
)


def test_kernel_and_linprog_share_one_highs_module_mkbary_first():
    assert _run("import sys\nimport mkbary.cli\n" + _SAME_SOLVE).strip() == "same"


def test_kernel_and_linprog_share_one_highs_module_scipy_first():
    assert _run("import sys\nimport scipy.optimize\nimport mkbary.cli\n"
                + _SAME_SOLVE).strip() == "same"


def test_missing_extension_is_an_import_error(tmp_path):
    # a scipy whose folder holds no HiGHS extension: no fallback import
    out = _run("import sys\n"
               "import scipy\n"
               f"scipy.__file__ = {str(tmp_path / 'scipy' / '__init__.py')!r}\n"
               "try:\n"
               "    import mkbary\n"
               "except ImportError as exc:\n"
               "    print('raised', exc)\n"
               "assert 'scipy.optimize' not in sys.modules\n"
               "assert 'scipy.optimize._highspy._core' not in sys.modules\n")
    assert out.startswith("raised scipy ") and "has no HiGHS extension" in out
