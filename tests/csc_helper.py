"""Conversion of the LP kernel's matrices to scipy, for checks against scipy."""

from scipy.sparse import csc_array


def to_scipy(A) -> csc_array:
    """The ``mkbary.lp.CSC`` matrix A as a scipy ``csc_array`` over the same arrays."""
    return csc_array((A.data, A.indices, A.indptr), shape=A.shape)
