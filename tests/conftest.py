import functools
import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from hillgap.eigensolver import CONVERGENCE_TOL, ORDER_TOL_SCALE, EigenPairTable
from hillgap.operator import TruncatedOperator, unperturbed_eigenvalues
from hillgap.seqspace import FourierSequence


def build_A(m, K):
    """The diagonal free operator A^m on the odd-mode window."""
    return TruncatedOperator(m, K, np.diag(unperturbed_eigenvalues(m, K)).astype(complex))


def reflect_seq(a):
    """Index reflection k -> -k."""
    return FourierSequence({-k: v for k, v in a.coeffs.items()})


def conjugate_seq(a):
    """The conjugate sequence k -> conj(a(-k))."""
    return FourierSequence({-k: v.conjugate() for k, v in a.coeffs.items()})


def with_entry(a, k, value):
    """a with its coefficient at k set to value."""
    return FourierSequence({**a.coeffs, k: value})


def lex_sorted(values):
    """values by ascending real part, real parts that tie within
    ORDER_TOL_SCALE (1 + |lambda|) by imaginary part: the order in which a
    pair row reports its two ends."""
    vals = sorted(np.asarray(values, dtype=complex).tolist(), key=lambda z: z.real)
    out, i = [], 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and vals[j].real - vals[j - 1].real <= ORDER_TOL_SCALE * (1 + abs(vals[j])):
            j += 1
        out += sorted(vals[i:j], key=lambda z: z.imag)
        i = j
    return np.array(out, dtype=complex)


def window_spectrum(op):
    """All 2K eigenvalues of the window, lex_sorted, from one np.linalg.eigvals
    of T: a reference spectrum that shares no code with the low block or the
    pair route."""
    return lex_sorted(np.linalg.eigvals(op.matrix))


def mark_converged(table: EigenPairTable, reference: EigenPairTable) -> EigenPairTable:
    """Flag each row of table converged when the offsets of the same pair
    in reference (the table at another window) lie within CONVERGENCE_TOL.
    Rows missing from reference are unconverged.  Pairs are compared as
    sets: the lexicographic label assignment of a near-degenerate pair may
    flip between windows without the values themselves moving."""
    rows = []
    for r in table.rows:
        try:
            p = reference.row(r.n)
        except KeyError:
            rows.append(replace(r, converged=False))
            continue
        direct = max(abs(r.d_lo - p.d_lo), abs(r.d_hi - p.d_hi))
        crossed = max(abs(r.d_lo - p.d_hi), abs(r.d_hi - p.d_lo))
        rows.append(replace(r, converged=bool(min(direct, crossed) < CONVERGENCE_TOL)))
    return replace(table, rows=tuple(rows), flagged=dict(table.flagged))


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


def _feshbach_gap(coeffs, m, K, n, dps=80):
    """(tau_n - center(m, n), gamma_n) of the window-K operator, in the
    working precision, each end of the pair solved on its own.

    With A = T - c, P = {+-(2n-1)} and the rest Q,
    F(d) = A_PP + A_PQ (d - A_QQ)^{-1} A_QP, and the ends are the fixed
    points d = f(d) -+ sqrt(e(d)^2 + F12 F21), f and e the mean and half
    difference of F's diagonal, found by the secant method from d = 0.
    (d - A_QQ)^{-1} A_QP comes from Gaussian elimination on the band of
    A_QQ, without pivoting: its diagonal dominates.  gamma = hi - lo is
    taken in the working precision, so a gap far below one ulp of the ends
    keeps its digits."""
    v = {k: mp.mpc(x) for k, x in coeffs.items() if k != 0 and x != 0}
    width = max((abs(k) // 2 for k in v), default=0) + 1  # band of A_QQ, P's rows taken out
    with mp.workdps(dps):
        q = 2 * n - 1
        p = [2 * k - 1 for k in range(-K + 1, K + 1) if abs(2 * k - 1) != q]
        c = (q * mp.pi) ** (2 * m)
        diag = [(x * mp.pi) ** (2 * m) - c for x in p]
        band = [{j: -v[p[i] - p[j]] for j in range(max(0, i - width), min(len(p), i + width + 1))
                 if p[i] - p[j] in v} for i in range(len(p))]
        cols = [[v.get(x + q, mp.mpc(0)), v.get(x - q, mp.mpc(0))] for x in p]  # A_QP

        def feshbach(d):
            rows = [{**r, i: d - diag[i]} for i, r in enumerate(band)]
            rhs = [list(r) for r in cols]
            for k in range(len(p)):
                for i in range(k + 1, min(len(p), k + width + 1)):
                    if k in rows[i]:
                        f = rows[i].pop(k) / rows[k][k]
                        for j, a in rows[k].items():
                            if j > k:
                                rows[i][j] = rows[i].get(j, 0) - f * a
                        rhs[i] = [x - f * y for x, y in zip(rhs[i], rhs[k])]
            x = [None] * len(p)
            for k in reversed(range(len(p))):
                acc = rhs[k]
                for j, a in rows[k].items():
                    if j > k:
                        acc = [s - a * y for s, y in zip(acc, x[j])]
                x[k] = [s / rows[k][k] for s in acc]
            # F over the modes (-(2n-1), 2n-1); v(0) = 0 is left out of v
            return [[v.get(a - b, mp.mpc(0)) + mp.fsum(v.get(a - x, 0) * y[col] for x, y in zip(p, x))
                     for col, b in enumerate((-q, q))] for a in (-q, q)]

        def residual(d, sign):
            f = feshbach(d)
            e = (f[0][0] - f[1][1]) / 2
            return (f[0][0] + f[1][1]) / 2 + sign * mp.sqrt(e * e + f[0][1] * f[1][0]) - d

        ends = []
        for sign in (-1, 1):
            d0, g0 = mp.mpc(0), residual(mp.mpc(0), sign)
            d1 = d0 + g0
            for _ in range(30):
                g1 = residual(d1, sign)
                if abs(g1) <= mp.mpf(10) ** (5 - dps):
                    break
                d0, d1, g0 = d1, d1 - g1 * (d1 - d0) / (g1 - g0), g1
            else:
                raise RuntimeError("secant iteration did not converge")
            ends.append(d1)
        return complex((ends[0] + ends[1]) / 2), complex(ends[1] - ends[0])


@pytest.fixture(scope="session")
def feshbach_gap():
    """(tau_n - center(m, n), gamma_n) of the window-K operator with Fourier
    coefficients coeffs from a dps-digit two-end Feshbach solve
    (_feshbach_gap): unlike feshbach_pair, which rounds each end to
    binary64, it resolves a gap far below one ulp of tau - c.  Called as
    feshbach_gap(coeffs, m, K, n, dps=80)."""
    return _feshbach_gap


@pytest.fixture
def inv_calls(monkeypatch):
    """Shapes of the np.linalg.inv calls made while the test runs."""
    calls, inv = [], np.linalg.inv

    def counted(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return calls


def l_direct(v, m, n):
    """Residue oracle for the correction values (l_+, l_-) at +-2(2n-1),
    both from one pass over the potential's support:
    l_+ = (1/pi^{2m}) sum_j v(2n-2j) v(2n+2j-2) / ((2n-1)^{2m} - (2j-1)^{2m})
    over odd modes 2j-1 != +-(2n-1), and l_- the same sum with v reflected
    through the origin, v(2j-2n) v(2-2n-2j).  n may be an array of indices;
    the values then take its shape, all from one pass.

    The denominator factors as ((2n-1)^m - (2j-1)^m)((2n-1)^m + (2j-1)^m),
    so this is the odd-lattice form of the quadratic correction sequence.
    Each is the exact integer (2n-1)^{2m} - (2j-1)^{2m}, rounded once.  The
    package reads the same values as the second-order truncation of its
    pair block (eigensolver.correction_values); this sum shares no code
    with it.
    """
    if v(0) != 0:
        raise ValueError("the correction sequence requires v(0) = 0")
    ns = np.asarray(n, dtype=int)
    half = max(map(abs, v.coeffs), default=0) // 2
    coef = np.array([v(2 * k) for k in range(-half, half + 1)])

    def at(k):  # v(2k), zero outside the support
        inside = np.abs(k) <= half
        return np.where(inside, coef[np.where(inside, k + half, 0)], 0.0)

    t = np.arange(-half, half + 1)  # j - n
    q = 2 * ns.reshape(-1, 1) - 1
    p = q + 2 * t
    den = (q.astype(object) ** (2 * m) - p.astype(object) ** (2 * m)).astype(float)
    den[(p == q) | (p == -q)] = math.inf  # the resonant modes are left out
    plus = np.sum(at(-t) * at(q + t) / den, axis=1) / math.pi ** (2 * m)
    minus = np.sum(at(t) * at(-q - t) / den, axis=1) / math.pi ** (2 * m)
    return plus.reshape(ns.shape)[()], minus.reshape(ns.shape)[()]
