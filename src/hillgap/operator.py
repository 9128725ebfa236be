"""Truncated operator assembly: T = A^m + B(v) on the odd-mode window.

The odd-mode window is {2k-1 : -K+1 <= k <= K}, a symmetric lattice of
dimension 2K that keeps every resonant pair +-(2n-1) with n <= K fully
inside.  Matrices are dense; Toeplitz-aware algorithms are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seqspace import FourierSequence

__all__ = [
    "TruncatedOperator",
    "modes",
    "unperturbed_eigenvalues",
    "center",
    "contour_radius",
    "resonant_rows",
    "build_B",
    "build_T",
]

MAX_HALF_WINDOW = 1024


def modes(K: int) -> np.ndarray:
    """Odd modes 2k-1 for k in [-K+1, K], ascending; length 2K."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    return 2 * np.arange(-K + 1, K + 1) - 1


def unperturbed_eigenvalues(m: int, K: int) -> np.ndarray:
    """Diagonal of A^m over the window: center(m, n) at both modes +-(2n-1),
    so it is mirror-symmetric at every m."""
    half = np.array([center(m, n) for n in range(1, K + 1)])
    return np.concatenate((half[::-1], half))


def center(m: int, n: int) -> float:
    """Center (2n-1)^{2m} pi^{2m} of the n-th pair: the double eigenvalue of
    A^m on the resonant modes +-(2n-1), as the exact integer (2n-1)^{2m}
    rounded once, times pi^{2m}."""
    return float(int(2 * n - 1) ** (2 * m)) * math.pi ** (2 * m)


def contour_radius(m: int, n: int) -> float:
    """Radius (2n-1)^m of the Riesz contour around center(m, n), which is
    also the default pairing-disc radius."""
    return float(2 * n - 1) ** m


def resonant_rows(K: int, n: int) -> tuple[int, int]:
    """Window rows of the resonant modes -(2n-1) and 2n-1."""
    return K - n, K + n - 1


@dataclass(frozen=True)
class TruncatedOperator:
    m: int
    K: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = 2 * self.K
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match window dimension {dim}"
            )
        self.matrix.setflags(write=False)


def _convolution(v: FourierSequence, m: int, K: int) -> np.ndarray:
    """B(v) over the window K, checked as build_B is, as a read-only view with
    entry (i, j) = v(p_i - p_j): each row is a window of the reversed table
    v.at(d) at d = -(4K-2), ..., 4K-2, so the view holds O(K) memory.  Adding
    +0.0 to the table turns -0.0 into +0.0 the way the zeros of A^m do, so
    build_T's matrix is bit for bit the sum A^m + B(v)."""
    _check_build_args(m, K)
    table = v.at(np.arange(2 - 4 * K, 4 * K - 1, 2)) + 0.0
    return np.lib.stride_tricks.sliding_window_view(table[::-1], 2 * K)[::-1]


def build_B(v: FourierSequence, m: int, K: int) -> TruncatedOperator:
    """The convolution operator B(v), Toeplitz along the odd lattice:
    entry (2k-1, 2j-1) = v(2k-2j)."""
    return TruncatedOperator(m, K, _convolution(v, m, K).copy())


def build_T(v: FourierSequence, m: int, K: int) -> TruncatedOperator:
    """T = A^m + B(v), with the diagonal of A^m added onto B(v) in place."""
    mat = _convolution(v, m, K).copy()
    mat.flat[:: 2 * K + 1] += unperturbed_eigenvalues(m, K)
    return TruncatedOperator(m, K, mat)


def _check_build_args(m: int, K: int):
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 1 <= K <= MAX_HALF_WINDOW:
        raise ValueError(f"K must lie in [1, {MAX_HALF_WINDOW}], got {K}")
