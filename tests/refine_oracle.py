"""Per-pair reference for the batched pair refinement.

Center-shifted Rayleigh-Ritz on the span of one pair's two eigenvectors,
with its own full product T w, one pair at a time: the route that
eigensolver._pair_offsets runs for all pairs at once.  The tests check the
batch against it, and bench/pair_solve_cost.py times the two.
"""

import numpy as np

from hillgap.eigensolver import SPAN_REL_TOL, lexicographic_order
from hillgap.operator import center, resonant_rows


def reference_offsets(eigs, n, idx, radius):
    """Offsets from center(m, n) of the pair eigs.values[idx], ordered
    lexicographically, and whether the refinement declined (raw offsets kept)."""
    c = center(eigs.op.m, n)
    idx = idx[lexicographic_order(eigs.values[idx])]
    raw = eigs.values[idx] - c
    w, r = np.linalg.qr(eigs.vectors[:, eigs.order[idx]])
    if abs(r[1, 1]) <= SPAN_REL_TOL * abs(r[0, 0]):
        return raw, True
    mat = eigs.op.matrix
    resonant = list(resonant_rows(eigs.op.K, n))
    tw = mat @ w - c * w
    shifted = mat[resonant]
    shifted[[0, 1], resonant] -= c
    tw[resonant] = shifted @ w
    h = w.conj().T @ tw
    h_scale = np.max(np.abs(h)) or 1.0
    if np.max(np.abs(h - h.conj().T)) <= 1e-13 * h_scale:
        local = np.linalg.eigvalsh((h + h.conj().T) / 2.0).astype(complex)
    else:
        local = np.linalg.eigvals(h)
        local = local[lexicographic_order(local)]
    if np.max(np.abs(local - raw)) > 0.25 * radius:
        return raw, True
    return local, False
