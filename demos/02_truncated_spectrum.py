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
    eigenvalues,
)

PI2 = math.pi**2

# =============================================================================
# With v = 0 the spectrum is exactly the double sequence (2n-1)^{2m} pi^{2m}.

free = eigenvalues(build_T(FourierSequence.zero(), 1, 8))
print("free spectrum head:", np.round(free.values[:4].real / PI2, 10), "x pi^2")

# =============================================================================
# The classic first gap: V(x) = 2 cos(2 pi x) has v(+-2) = 1, and the first
# semi-periodic pair sits near pi^2 -+ 1.

v = FourierSequence.make("even", {2: 1.0, -2: 1.0})
eigs = eigenvalues(build_T(v, 1, 64))
print("first pair:", eigs.values[0].real, eigs.values[1].real)
print("pi^2 -+ 1 :", PI2 - 1, PI2 + 1)

# The trace identity holds for every solve: the eigenvalue sum equals the
# matrix trace (all diagonal entries of B are v(0)).  The solve reports the
# defect relative to ||T||_F.

print("trace defect:", eigs.trace_defect)

# =============================================================================
# Each pair is read from the 2 x 2 block its two resonant modes keep once
# the rest of the window is decoupled from them, in the frame of its center
# c, which resolves pair splittings far below one ulp of c.  Each row keeps
# tau - c and gamma; the offsets d_lo, d_hi derive from them.

table = compute_pair_table(v, 1, 64)
for r in table.rows[:5]:
    print(f"n={r.n}: tau-c = {r.d_tau.real:+.6e}   gamma = {abs(r.gamma):.3e}")

# =============================================================================
# Truncation control: double the window until the reported pairs stop moving.

K_final, table = converge_truncation(v, 1, n_max=8, tol=1e-9)
print("converged window K =", K_final,
      "| all rows converged:", all(r.converged for r in table.rows))
