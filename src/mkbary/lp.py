"""The one LP kernel: every linear program of the package runs in a ``Model``.

``Model(c, A, rhs)`` holds the LP min c.x subject to A x = rhs and x >= 0,
with A a ``CSC`` matrix, and keeps it between runs: ``set_costs``,
``fix_to_zero`` and ``add_columns`` change it, and the next ``run`` starts
from the last basis, or from a ``basis()`` saved from another model of the
same system.  A model started from such a basis, or grown by
``add_columns``, runs primal simplex: its start is primal feasible.  The
kernel alone decides what happens when a warm run is not optimal: it warns
once on the ``mkbary`` logger and runs the same model once more cold, with
the options and no basis, as a new model's first run; only that run's
status reaches the caller.  ``basic_columns()`` names the columns of the
last run's basis, which is how a caller proves its optimal face is one
vertex.
``solve(c, A, rhs)`` is one cold run of a new model.  Both call the HiGHS
solver that scipy bundles directly
(``scipy.optimize._highspy._core._Highs``), a private scipy binding, so the
scipy floor in ``pyproject.toml`` is a version this kernel was tested on.
The options are those scipy's own LP front end sets for
``method="highs"``: presolve on, dual simplex, output off and the
feasibility tolerances ``FEASIBILITY_TOL``; HiGHS keeps its defaults for
everything else, so a cold run's x, row duals and objective are
bit-identical to the front end's.  What the kernel skips is the front
end's per-call work: input cleaning, option checking and the bound
marginals.

The extension is loaded from its file, not through ``import
scipy.optimize``: that package's ``__init__`` costs about half a second,
more than most CLI runs spend solving.  It is registered in ``sys.modules``
under its own name, so scipy, if imported later, reuses the same module.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import sys
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import scipy

_CORE = "scipy.optimize._highspy._core"

log = logging.getLogger("mkbary")


def _load_core():
    """scipy's HiGHS extension module, loaded once and shared with scipy.

    Raises ImportError when this scipy has no such extension file.
    """
    if _CORE in sys.modules:
        return sys.modules[_CORE]
    folder = Path(scipy.__file__).parent / "optimize" / "_highspy"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_core{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(f"scipy {scipy.__version__} has no HiGHS extension in {folder}")
    spec = importlib.util.spec_from_file_location(_CORE, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_CORE] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_CORE]
        raise
    return module


_highs = _load_core()

# HiGHS's primal and dual feasibility tolerance
FEASIBILITY_TOL = 1e-10

_OPTIONS = _highs.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.simplex_strategy = int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
_OPTIONS.primal_feasibility_tolerance = FEASIBILITY_TOL
_OPTIONS.dual_feasibility_tolerance = FEASIBILITY_TOL
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False

_PRIMAL = int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal)

_COLWISE = int(_highs.MatrixFormat.kColwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)
_MODEL = _highs.HighsModelStatus
# scipy's LP status codes: 0 optimal, 1 limit reached, 2 infeasible,
# 3 unbounded, 4 anything else
_STATUS = {_MODEL.kOptimal: 0, _MODEL.kTimeLimit: 1, _MODEL.kIterationLimit: 1,
           _MODEL.kInfeasible: 2, _MODEL.kModelError: 2, _MODEL.kUnbounded: 3}


class CSC(NamedTuple):
    """A compressed-sparse-column matrix, the layout HiGHS reads.

    Column j holds ``data[indptr[j]:indptr[j + 1]]`` in the rows
    ``indices[indptr[j]:indptr[j + 1]]``.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """A^T y, each column summed from zero in stored order."""
        n = self.shape[1]
        col = np.repeat(np.arange(n), np.diff(self.indptr))
        return np.bincount(col, weights=self.data * y[self.indices], minlength=n)


class Solution(NamedTuple):
    """One solve: ``status`` in scipy's LP codes and the HiGHS model status
    as ``message``; x, row duals and objective are None unless status is 0."""

    status: int
    message: str
    x: Optional[np.ndarray]
    duals: Optional[np.ndarray]
    fun: Optional[float]
    nit: int


def _check_costs(c: np.ndarray) -> None:
    # HiGHS itself would report an LP with such costs optimal
    if not np.isfinite(c).all():
        raise ValueError("LP costs must be finite")


class Model:
    """min c.x subject to A x = rhs, x >= 0, kept in one HiGHS object between runs.

    A run after ``set_costs``, ``fix_to_zero`` or ``add_columns`` starts
    from the last run's basis, skipping presolve, so an LP that differs from
    the last one only in its costs, column bounds or a few new columns
    usually needs few iterations.  ``start``,
    the ``basis()`` of a model of the same A and rhs, makes the first run
    start from that basis too, by primal simplex: only the costs differ
    from the model the basis came from, so it is primal feasible.  A warm
    run may stop at another optimal vertex than a cold one.  A warm run
    that is not optimal is re-run cold once (see ``run``), and later runs
    start from that run's basis.  ``basic_columns`` reads the last run's
    basic columns from the solver's own basis index.

    Raises ValueError on a cost that is not finite, here, in ``set_costs``
    or in ``add_columns``, as scipy's front end does.
    """

    def __init__(self, c: np.ndarray, A: CSC, rhs: np.ndarray, start=None):
        _check_costs(c)
        n, m = len(c), len(rhs)
        self._n, self._m = n, m
        self._highs = _highs._Highs()
        self._highs.passOptions(_OPTIONS)
        self._loaded = self._highs.passModel(
            n, m, A.nnz, _COLWISE, _MINIMIZE, 0.0, c, np.zeros(n), np.full(n, np.inf), rhs,
            rhs, A.indptr.astype(np.int32, copy=False), A.indices.astype(np.int32, copy=False),
            A.data, np.zeros(n, dtype=np.int32),
        ) != _highs.HighsStatus.kError
        # whether the next run starts from a basis
        self._warm = start is not None
        if start is not None:
            self._highs.setBasis(start)
            self._highs.setOptionValue("simplex_strategy", _PRIMAL)

    def run(self) -> Solution:
        """Solve the LP as it stands; x, duals and objective only when optimal.

        A run that starts from a basis and ends not optimal is run once
        more cold: one warning on the ``mkbary`` logger, the kernel options
        restored (dual simplex, presolve) and the basis cleared.  That run
        gives what a new model of the same LP would, and its status is the
        one returned.
        """
        highs = self._highs
        if not self._loaded:
            return Solution(2, highs.modelStatusToString(_MODEL.kModelError), None, None, None, 0)
        res = self._run_once()
        if res.status != 0 and self._warm:
            log.warning("LP of %d rows and %d columns: warm run not optimal (%s); "
                        "re-running it cold", self._m, self._n, res.message)
            highs.passOptions(_OPTIONS)
            highs.clearSolver()
            res = self._run_once()
        self._warm = True
        return res

    def _run_once(self) -> Solution:
        """One HiGHS run of the loaded model, from its basis if it has one."""
        highs = self._highs
        highs.run()
        model = highs.getModelStatus()
        info = highs.getInfo()
        status = _STATUS.get(model, 4)
        if status != 0:
            return Solution(status, highs.modelStatusToString(model), None, None, None,
                            info.simplex_iteration_count)
        sol = highs.getSolution()
        return Solution(0, highs.modelStatusToString(model), np.array(sol.col_value),
                        np.array(sol.row_dual), info.objective_function_value,
                        info.simplex_iteration_count)

    def basis(self):
        """A copy of the last run's basis: a few bytes per row and column,
        where the model itself holds about a kilobyte per column."""
        return self._highs.getBasis()

    def basic_columns(self) -> np.ndarray:
        """The indices of the columns in the last run's basis, unordered.

        HiGHS lists the basic variables as one int32 array, rows as negative
        entries; reading it costs microseconds, where scanning
        ``basis().col_status`` builds a status object per column.  Empty
        when HiGHS holds no basis, as before a model's first run.
        """
        status, basic = self._highs.getBasicVariables()
        if status == _highs.HighsStatus.kError:
            return np.empty(0, dtype=np.int32)
        return basic[basic >= 0]

    def set_costs(self, c: np.ndarray) -> None:
        """Replace every column's cost by ``c``."""
        _check_costs(c)
        if len(c) != self._n:
            raise ValueError(f"{len(c)} costs for {self._n} columns")
        self._highs.changeColsCost(self._n, np.arange(self._n, dtype=np.int32), c)

    def add_columns(self, c: np.ndarray, A: CSC) -> None:
        """Append the columns of A, with costs ``c`` and bounds [0, inf).

        They enter nonbasic at 0, so the last basis stays primal feasible,
        and from here on every run of the model is primal simplex, which
        starts from that basis where dual simplex would first have to
        regain dual feasibility.
        """
        _check_costs(c)
        k = len(c)
        if A.shape != (self._m, k):
            raise ValueError(f"a {A.shape[0]} x {A.shape[1]} column block with {k} costs "
                             f"for a model of {self._m} rows")
        if self._highs.addCols(k, c, np.zeros(k), np.full(k, np.inf), A.nnz,
                               A.indptr[:-1].astype(np.int32, copy=False),
                               A.indices.astype(np.int32, copy=False),
                               A.data) == _highs.HighsStatus.kError:
            raise ValueError("HiGHS rejected the column block")
        self._highs.setOptionValue("simplex_strategy", _PRIMAL)
        self._n += k

    def fix_to_zero(self, cols) -> None:
        """Bound the columns ``cols`` to 0 and release every other column to [0, inf)."""
        upper = np.full(self._n, np.inf)
        upper[cols] = 0.0
        self._highs.changeColsBounds(self._n, np.arange(self._n, dtype=np.int32),
                                     np.zeros(self._n), upper)


def solve(c: np.ndarray, A: CSC, rhs: np.ndarray) -> Solution:
    """min c.x subject to A x = rhs, x >= 0, by one cold HiGHS run.

    Raises ValueError on a cost that is not finite.
    """
    return Model(c, A, rhs).run()
