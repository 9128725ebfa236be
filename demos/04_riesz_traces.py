#!/usr/bin/env python3
"""Riesz projectors by contour quadrature, and every quantity two ways.

The contour around index n is the circle of radius (2n-1)^m at the center
(2n-1)^{2m} pi^{2m}; trapezoidal quadrature on it is spectrally accurate.
Each check pits the quadrature route against an independent one: the pair
mean against the eigensolver, the correction values against the second-order
truncation of the eigensolver's 2 x 2 resonant block.
"""

import math

import numpy as np

from hillgap import (
    ContourSpec,
    FourierSequence,
    build_T,
    correction_values,
    low_block,
    normalize_zero_mode,
    q0_closed_form,
    q0_matrix,
    pair_eigenvalues,
    riesz_projector,
    script_S_2x2,
)

# coefficients on both residue classes mod 4, so the second-order
# correction below is nonzero (a potential supported on indices = 2 mod 4
# alone can never reach the resonant index 4n-2 with a two-step sum)
v_raw = FourierSequence({2: 0.6, -2: 0.6, 4: 0.5, -4: 0.5, 6: 0.4, -6: 0.4})
v, shift = normalize_zero_mode(v_raw)
m, K, n = 1, 64, 3
# the certified low block of T for the pairs n <= 16: the contours read
# their poles, and the pair table its rows, from it by two separate routes
low = low_block(build_T(v, m, K), 16)

# =============================================================================
# The projector enters only through its traces: Tr P = 2 (the pair) and
# Tr((T - center) P) = 2 (tau - center), with the node-halving defect of
# both as the quadrature tolerance.

contour = ContourSpec(n=n, m=m, nodes=64)
pair = riesz_projector(low, contour)
print("Tr P              =", pair.tr_p)
print("Tr((T - center) P) =", pair.tr_q)
print("quad tol           =", pair.quad_tol)

# =============================================================================
# The pair mean via traces agrees with the disc-paired eigenvalues.

table = pair_eigenvalues(low, n_max=16)
print("tau (trace route)      =", pair.tau)
print("tau (eigensolver route) =", table.row(n).tau)
print("|tau (trace) - tau (table)| =", abs(pair.tau - table.row(n).tau))

# =============================================================================
# The first-order window matrix collapses to two corner entries in closed
# form, on the rows of the resonant modes 2n - 1 and -(2n - 1), the only
# ones that hold a pole; the quadrature of those rows reproduces it
# entrywise.

q0 = q0_matrix(v, m, n, K)
print("max |Q0 - closed form| =", np.max(np.abs(q0 - q0_closed_form(v, m, n, K))))

# =============================================================================
# The second-order resonant block carries the correction values on its
# off-diagonal; the pair mechanism's 2 x 2 block, truncated at second order,
# gives the same two numbers.

s2 = script_S_2x2(v, m, n, K)
(l_plus,), (l_minus,) = correction_values(v, m, [n])
print("correction l+ (contour) =", s2[0, 1], " (pair block) =", l_plus)
print("correction l- (contour) =", s2[1, 0], " (pair block) =", l_minus)
