#!/usr/bin/env python3
"""Potentials: the even-lattice sequence, its weighted norms, the zero-mode
split and the seeded rough potentials of the paper's class.

A potential v has Fourier coefficients v(2k) on the even lattice; the
semi-periodic eigenvectors live on the odd modes 2k-1, as numpy arrays over
the operator window, so the sequence type holds potentials only.
"""

import math

from hillgap import FourierSequence, normalize_zero_mode, rough_potential, weighted_norm

# =============================================================================
# A potential is a finite coefficient map on the even lattice; every other
# index is implicitly zero.  An odd index is refused.

v = FourierSequence({2: 1.0, -2: 1.0})  # V = 2 cos(2 pi x)
print("v(2)  =", v(2))
print("v(40) =", v(40), "(implicit zero)")
try:
    FourierSequence({3: 1.0})
except ValueError as exc:
    print("odd index refused:", exc)

# The weighted norm uses <k> = 1 + |k|; s = 0 is the plain l2 norm.

print("||v||_{h^0}  =", weighted_norm(v, 0.0))
print("||v||_{h^1}  =", weighted_norm(v, 1.0), "= 3 sqrt(2) =", 3 * math.sqrt(2))

# =============================================================================
# A constant in the potential only shifts the spectrum; downstream code works
# on the zero-mode-normalized sequence and re-adds the constant at the end.

raw = FourierSequence({0: 5.0, 2: 1.0, -2: 1.0})
v0, c = normalize_zero_mode(raw)
print("removed constant:", c, "| v0(0) =", v0(0))

# =============================================================================
# Rough potentials of the class h^{-m alpha}: moduli (1 + 2k)^{m alpha - 0.55}
# with random phases, rescaled to the requested norm exactly and reproducible
# bit for bit from the seed.  hermitian=True makes the potential real-valued.

rough = rough_potential(m=1, alpha=0.5, support=64, radius=1.0, seed=42)
print("rough ||v||_{h^{-1/2}} =", weighted_norm(rough, -0.5))
assert dict(rough.coeffs) == dict(rough_potential(1, 0.5, 64, 1.0, 42).coeffs)

real = rough_potential(m=1, alpha=0.0, support=16, seed=3, hermitian=True)
assert all(real(-k) == real(k).conjugate() for k in real.coeffs)
print("hermitian rough potential: v(-2) = conj v(2) =", real(-2))
