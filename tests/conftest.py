import functools

import mpmath as mp
import pytest


@functools.lru_cache(maxsize=None)
def _mp_eigenvalues(coeffs, m, K, dps):
    v = dict(coeffs)
    with mp.workdps(dps):
        p = [2 * k - 1 for k in range(-K + 1, K + 1)]
        t = mp.matrix(2 * K, 2 * K)
        for i, pi in enumerate(p):
            for j, pj in enumerate(p):
                t[i, j] = mp.mpc(v.get(pi - pj, 0))
            t[i, i] += (pi * mp.pi) ** (2 * m)
        return tuple(mp.eig(t, left=False, right=False))


def _mpmath_pair(coeffs, m, K, n, dps=30):
    ev = _mp_eigenvalues(tuple(sorted(coeffs.items())), m, K, dps)
    with mp.workdps(dps):
        c = ((2 * n - 1) * mp.pi) ** (2 * m)
        lo, hi = sorted(ev, key=lambda z: abs(z - c))[:2]
        return complex((lo + hi) / 2 - c), complex(hi - lo)


@pytest.fixture(scope="session")
def mpmath_pair():
    """(tau_n - center(m, n), gamma_n) of the window-K operator with Fourier
    coefficients coeffs, from a dps-digit mpmath eigensolve of the exact
    matrix: the diagonal (2k-1)^{2m} pi^{2m} is not rounded to binary64, and
    the pair (the two eigenvalues nearest the center, gamma = hi - lo) is
    measured from the center in the working precision.  Called as
    mpmath_pair(coeffs, m, K, n, dps=30); eigensolves are cached."""
    return _mpmath_pair
