import functools

import mpmath as mp
import numpy as np
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


def _feshbach_pair(coeffs, m, K, n, guesses, dps=40):
    v = {k: mp.mpc(x) for k, x in coeffs.items() if k != 0 and x != 0}
    with mp.workdps(dps):
        p = [2 * k - 1 for k in range(-K + 1, K + 1)]
        c = ((2 * n - 1) * mp.pi) ** (2 * m)
        res = [i for i, q in enumerate(p) if abs(q) == 2 * n - 1]
        rest = [i for i, q in enumerate(p) if abs(q) != 2 * n - 1]
        shift = {i: (p[i] * mp.pi) ** (2 * m) - c for i in rest}
        coupled = {i: [(j, v[p[i] - p[j]]) for j in rest if p[i] - p[j] in v] for i in rest}

        def entry(i, j):
            return v.get(p[i] - p[j], mp.mpc(0))

        def reduced(d):
            # x = (d - A_QQ)^{-1} A_QP by Jacobi sweeps on the dominant diagonal
            x = {i: [mp.mpc(0), mp.mpc(0)] for i in rest}
            for _ in range(100):
                y = {
                    i: [(entry(i, b) + mp.fsum(a * x[j][col] for j, a in coupled[i])) / (d - shift[i])
                        for col, b in enumerate(res)]
                    for i in rest
                }
                step = max(abs(y[i][col] - x[i][col]) for i in rest for col in (0, 1))
                x = y
                if step < mp.mpf(10) ** (5 - dps):
                    break
            else:
                raise RuntimeError("Jacobi sweeps did not converge")
            f = mp.matrix([[entry(a, b) + mp.fsum(entry(a, i) * x[i][col] for i in rest)
                            for col, b in enumerate(res)] for a in res])
            return mp.eig(f, left=False, right=False)

        out = []
        for guess in guesses:
            d = mp.mpc(guess)
            for _ in range(6):
                d, prev = min(reduced(d), key=lambda z: abs(z - d)), d
                if abs(d - prev) < mp.mpf(10) ** (10 - dps):
                    break
            out.append(complex(d))
        return tuple(out)


@pytest.fixture(scope="session")
def feshbach_pair():
    """The eigenvalues of the window-K operator nearest center(m, n), as
    offsets d from the center, for windows too large for mpmath_pair's dense
    eigensolve.  With A = T - c, the resonant modes P = {+-(2n-1)} and the
    rest Q, each offset solves d in eig(F(d)),
    F(d) = A_PP + A_PQ (d - A_QQ)^{-1} A_QP; A_QQ is diagonally dominant for
    m >= 2, so Jacobi sweeps give (d - A_QQ)^{-1} A_QP, and d is the fixed
    point started from each guess (one per offset).  The diagonal
    (2k-1)^{2m} pi^{2m} is not rounded to binary64.  Called as
    feshbach_pair(coeffs, m, K, n, guesses, dps=40)."""
    return _feshbach_pair


@pytest.fixture
def inv_calls(monkeypatch):
    """Shapes of the np.linalg.inv calls made while the test runs."""
    calls, inv = [], np.linalg.inv

    def counted(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return calls
