"""Symmetric-matrix utilities: svec/smat and the PSD projection.

``svec`` packs the upper triangle of a symmetric matrix into a vector with
off-diagonal entries scaled by sqrt(2), so Frobenius inner products become
plain dot products — the coordinate system the ADMM SDP solver's affine
projection works in.

These functions convert a solve's inputs and outputs once; the ADMM
iterations themselves run in :mod:`repro.batchsolve.kernels`, which keeps
its own cached triangle indices.  :func:`project_psd` and :func:`is_psd`
are dense reference implementations.
"""

from __future__ import annotations

import functools
import math
from typing import Tuple

import numpy as np

_SQRT2 = math.sqrt(2.0)


def svec_dim(n: int) -> int:
    """Length of the svec of an ``n x n`` symmetric matrix."""
    return n * (n + 1) // 2


@functools.lru_cache(maxsize=None)
def svec_indices(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row/column indices of the packed upper triangle, in svec order.

    Cached per order; the arrays are read-only.
    """
    rows, cols = np.triu_indices(n)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def svec(matrix: np.ndarray) -> np.ndarray:
    """Pack a symmetric matrix into its svec (isometric) representation."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected square matrix, got shape {m.shape}")
    n = m.shape[0]
    rows, cols = svec_indices(n)
    out = m[rows, cols].copy()
    out[rows != cols] *= _SQRT2
    return out


def smat(vector: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`svec`."""
    v = np.asarray(vector, dtype=np.float64)
    if v.shape != (svec_dim(n),):
        raise ValueError(f"expected length {svec_dim(n)}, got {v.shape}")
    rows, cols = svec_indices(n)
    m = np.zeros((n, n), dtype=np.float64)
    vals = v.copy()
    off = rows != cols
    vals[off] /= _SQRT2
    m[rows, cols] = vals
    m[cols, rows] = vals
    return m


def entry_svec_index(n: int, i: int, j: int) -> int:
    """Position of entry (i, j) (i <= j after swap) within the svec."""
    if i > j:
        i, j = j, i
    if not 0 <= i <= j < n:
        raise IndexError(f"({i}, {j}) outside {n}x{n}")
    # Entries are laid out row-major over the upper triangle.
    return i * n - i * (i - 1) // 2 + (j - i)


def project_psd(matrix: np.ndarray) -> np.ndarray:
    """Euclidean (Frobenius) projection onto the PSD cone.

    Symmetrizes the input, then clips negative eigenvalues to zero.
    """
    m = np.asarray(matrix, dtype=np.float64)
    sym = (m + m.T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    if vals[0] >= 0:
        return sym
    clipped = np.clip(vals, 0.0, None)
    return (vecs * clipped) @ vecs.T


def is_psd(matrix: np.ndarray, tol: float = 1e-8) -> bool:
    """True when the symmetric part of ``matrix`` is PSD up to ``tol``."""
    sym = (matrix + matrix.T) / 2.0
    vals = np.linalg.eigvalsh(sym)
    return bool(vals[0] >= -tol)
