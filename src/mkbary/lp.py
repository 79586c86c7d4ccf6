"""The one LP kernel: every linear program of the package goes through ``solve``.

``solve(c, A, rhs)`` minimizes c.x subject to A x = rhs and x >= 0, with A
a ``CSC`` matrix.  It calls the HiGHS solver that scipy bundles directly
(``scipy.optimize._highspy._core._Highs``), a private scipy binding, so the
scipy floor in ``pyproject.toml`` is a version this kernel was tested on.
The options are those scipy's own LP front end sets for
``method="highs"``: presolve on, dual simplex, output off and the
feasibility tolerances ``FEASIBILITY_TOL``; HiGHS keeps its defaults for
everything else, so x, the row duals and the objective are bit-identical
to the front end's.  What the kernel skips is the front end's per-call
work: input cleaning, option checking and the bound marginals.

The extension is loaded from its file, not through ``import
scipy.optimize``: that package's ``__init__`` costs about half a second,
more than most CLI runs spend solving.  It is registered in ``sys.modules``
under its own name, so scipy, if imported later, reuses the same module.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import scipy

_CORE = "scipy.optimize._highspy._core"


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

    def columns(self, cols: np.ndarray) -> "CSC":
        """The columns ``cols``, in that order, with their entries in stored order."""
        start = self.indptr[cols]
        counts = self.indptr[cols + 1] - start
        indptr = np.zeros(len(cols) + 1, dtype=self.indptr.dtype)
        np.cumsum(counts, out=indptr[1:])
        take = np.arange(indptr[-1]) + np.repeat(start - indptr[:-1], counts)
        return CSC(self.data[take], self.indices[take], indptr, (self.shape[0], len(cols)))

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


def solve(c: np.ndarray, A: CSC, rhs: np.ndarray) -> Solution:
    """min c.x subject to A x = rhs, x >= 0, by one HiGHS run.

    Raises ValueError on a cost that is not finite, as scipy's front end does:
    HiGHS itself would report such an LP optimal.
    """
    if not np.isfinite(c).all():
        raise ValueError("LP costs must be finite")
    n, m = len(c), len(rhs)
    highs = _highs._Highs()
    highs.passOptions(_OPTIONS)
    loaded = highs.passModel(
        n, m, A.nnz, _COLWISE, _MINIMIZE, 0.0, c, np.zeros(n), np.full(n, np.inf), rhs, rhs,
        A.indptr.astype(np.int32, copy=False), A.indices.astype(np.int32, copy=False),
        A.data, np.zeros(n, dtype=np.int32),
    )
    if loaded == _highs.HighsStatus.kError:
        return Solution(2, highs.modelStatusToString(_MODEL.kModelError), None, None, None, 0)
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


def block_diag(blocks) -> CSC:
    """Block-diagonal stack of CSC matrices, in order."""
    row_off = np.cumsum([0] + [B.shape[0] for B in blocks])
    nnz_off = np.cumsum([0] + [B.nnz for B in blocks])
    data = np.concatenate([B.data for B in blocks])
    indices = np.concatenate([B.indices + r for B, r in zip(blocks, row_off)])
    indptr = np.concatenate([[0]] + [B.indptr[1:] + z for B, z in zip(blocks, nnz_off)])
    return CSC(data, indices, indptr, (int(row_off[-1]), sum(B.shape[1] for B in blocks)))
