#!/usr/bin/env python3
"""Truncated spectra: the operator T = A^m + B(v) on the odd-mode window.

The free operator A^m is diagonal with entries (2k-1)^{2m} pi^{2m}, each
eigenvalue double; the potential couples the modes through the Toeplitz
matrix B(v)(2k-1, 2j-1) = v(2k-2j).
"""

import math

import numpy as np

from hillgap import (
    FourierSequence,
    build_T,
    compute_pair_table,
    converge_truncation,
)

PI2 = math.pi**2

# =============================================================================
# With v = 0 the spectrum is exactly the double sequence (2n-1)^{2m} pi^{2m}.

free = np.sort(np.linalg.eigvals(build_T(FourierSequence({}), 1, 8).matrix).real)
print("free spectrum head:", np.round(free[:4] / PI2, 10), "x pi^2")

# =============================================================================
# The classic first gap: V(x) = 2 cos(2 pi x) has v(+-2) = 1, and the first
# semi-periodic pair sits near pi^2 -+ 1.

v = FourierSequence({2: 1.0, -2: 1.0})
op = build_T(v, 1, 64)
eigs = np.sort(np.linalg.eigvals(op.matrix).real)
print("first pair:", eigs[0], eigs[1])
print("pi^2 -+ 1 :", PI2 - 1, PI2 + 1)

# The trace identity: the eigenvalue sum equals the matrix trace (all
# diagonal entries of B are v(0)), here relative to ||T||_F.

print("trace defect:", abs(eigs.sum() - np.trace(op.matrix).real) / np.linalg.norm(op.matrix))

# =============================================================================
# Each pair is read from the 2 x 2 block its two resonant modes keep once
# the rest of the window is decoupled from them, in the frame of its center
# c, which resolves pair splittings far below one ulp of c.  Each row keeps
# tau - c and gamma; the offsets d_lo, d_hi derive from them.

table = compute_pair_table(v, 1, 64)
for r in table.rows[:5]:
    print(f"n={r.n}: tau-c = {r.d_tau.real:+.6e}   gamma = {abs(r.gamma):.3e}")

# =============================================================================
# Truncation control: double the window from 32 until every pair's
# truncation bar, the pull of the modes past the window read off the same
# solve, is below 1e-9; each window is solved once.

K_final, table = converge_truncation(v, 1, n_max=8, K=32)
print("converged window K =", K_final,
      "| all rows converged:", all(r.converged for r in table.rows))
print("windows solved:", table.windows, "| stopped:", table.stop)
