"""Dense spectra of the truncated operators and eigenvalue-pair extraction.

A caller that reads only the pairs n <= n_max takes low_block(op, n_max): it
cuts the window at the modes |p| <= P (L), P from 2 n_max - 1 doubling until
an a-priori contraction and separation certificate holds (at most the whole
window), and decouples the rest (H) by the graph [I; X] of the solution X of
the Riccati equation T_HL + T_HH X = X (T_LL + T_LH X), a fixed point over
the exact gaps mu_h - mu_l.  The low block B_L is free of the diagonal of
A^m and in a mirror form that keeps the window's J T J = T^T (J: p -> -p);
every eigenvalue left of complete_below is one of its, and reading a disc or
contour that reaches it raises SolverError.

Each pair is read from B_L by the same reduction one level down: its modes
+-(2n-1) are decoupled from the rest, all pairs by one batched fixed point,
tau - c = tr G / 2 of the 2 x 2 block G_n left over, and gamma comes from the
mirror identity F11 = F22 of the pair's Feshbach block (_pair_split), with no
step that subtracts two numbers the size of tau - c.  Pairs the gaps do not
certify are listed as unrefined and read from the smallest certified band
|p| <= 2k - 1, by one shift-invert of it at each pair's center.  riesz.py
shift-inverts such a band, or a contour's own two modes split off by
_decouple, and never calls _pair_split; localization.py reads its discs
through the pair rows.  Nothing eigendecomposes the window: the only
eigenvalue solves are eigvals of a shift-inverted band (_shift_poles) and,
in localization.py, of the band that holds the cone.

A window's converged flags come from _truncation_bars, read off the same
solve: the first-order Schur term of the modes past the window that B(v)
couples to it, on each pair's block, through the pair's basis lifted from
the low block.  converge_truncation doubles the window until every row's
bar is below CONVERGENCE_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .seqspace import FourierSequence, normalize_zero_mode
from .operator import (
    MAX_HALF_WINDOW, TruncatedOperator, _convolution, build_T, center, contour_radius, modes,
    resonant_rows, unperturbed_eigenvalues,
)

__all__ = [
    "SolverError",
    "ContourCollisionError",
    "PairingConfigError",
    "EigenPairRow",
    "EigenPairTable",
    "low_block",
    "pair_eigenvalues",
    "compute_pair_table",
    "converge_truncation",
    "correction_values",
    "localization_radius",
]

ORDER_TOL_SCALE = 1e-9
HERMITIAN_REL_TOL = 1e-12
CONVERGENCE_TOL = 1e-9
BAR_SAFETY = 2.0  # the truncation bar is this many times the first-order displacement
BLOCK = 16  # rows or columns per slab in the passes that avoid dense temporaries
RICCATI_RATE = 0.5  # a-priori contraction factor of the fixed point that a cut must certify
RICCATI_TOL = 1e-14  # relative fixed-point step at which X has settled
RICCATI_MAX_STEPS = 64  # at the rate RICCATI_RATE, 47 steps take an error of ||X|| below RICCATI_TOL


class SolverError(RuntimeError):
    """Eigensolver failure or a failed numerical certificate."""


class ContourCollisionError(RuntimeError):
    """An eigenvalue sits (numerically) on the quadrature contour."""

    def __init__(self, message, offending=None):
        super().__init__(message)
        self.offending = offending


class PairingConfigError(ValueError):
    """Pairing discs overlap or the window is too small for the request."""


@dataclass(frozen=True)
class LowBlock:
    """The window of op cut at the modes |p| <= 2j - 1 (all of it when
    j = K): matrix is the center-free low block B_L left once the modes
    above are decoupled (_decouple), beta >= ||B_L||_2, and every eigenvalue
    of T left of complete_below is one of the block's.  hermitian says T is
    Hermitian up to the scale of B(v); hop is _hop of T; lift is the cut's
    (X, E^{-1/2}) from _decouple (None at the whole window)."""

    op: TruncatedOperator
    matrix: np.ndarray
    beta: float
    hermitian: bool
    complete_below: float
    hop: int
    lift: tuple | None = None

    def __post_init__(self):
        self.matrix.setflags(write=False)

    def certifies(self, band: tuple[int, int], c: float, reach: float) -> bool:
        j = len(self.matrix) // 2
        return _cut_certified(self.matrix, self.op.m, j, band, self.beta, c, reach)


def _structure(mat: np.ndarray, mu: np.ndarray) -> tuple[float, bool]:
    """beta and whether T is Hermitian, from one pass over T in row slabs.

    beta = sqrt(||B||_1 ||B||_inf) >= ||B||_2 for B = T - diag(mu), from the
    largest column and row sums of |B|; at most ||v||_l1 over the window,
    and not finite when an entry of T is not.
    The Hermitian test weighs the asymmetry against the off-diagonal scale,
    that of B(v): the diagonal of A^m grows like (4K)^{2m} and would hide a
    non-Hermitian potential."""
    rows = np.empty(len(mat))
    cols = np.zeros(len(mat))
    diag = np.abs(mat.diagonal() - mu)
    scale = asym = 0.0
    for i in range(0, len(mat), BLOCK):
        slab = mat[i : i + BLOCK]
        asym = max(asym, float(np.max(np.abs(slab - mat[:, i : i + BLOCK].conj().T))))
        mag = np.abs(slab)
        np.fill_diagonal(mag[:, i:], 0.0)
        scale = max(scale, float(np.max(mag)))
        np.fill_diagonal(mag[:, i:], diag[i : i + BLOCK])
        rows[i : i + BLOCK] = mag.sum(axis=1)
        cols += mag.sum(axis=0)
    beta = math.sqrt(float(np.max(rows)) * float(np.max(cols)))
    return beta, asym <= HERMITIAN_REL_TOL * (scale or 1.0)


def _band(K: int, band: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the modes q_lo <= |p| <= q_hi (L) for band = (q_lo, q_hi) and
    of the rest of the window (H), each in window order."""
    q = np.abs(modes(K))
    inside = (q >= band[0]) & (q <= band[1])
    return np.flatnonzero(inside), np.flatnonzero(~inside)


def _cut_certified(
    mat: np.ndarray, m: int, K: int, band: tuple[int, int], beta: float, c: float, reach: float
) -> bool:
    """A-priori certificate for decoupling the modes q_lo <= |p| <= q_hi (L)
    from the rest of the window (H) by _decouple.

    With delta = min |mu_h - mu_l|, from the exact integers at the edges of
    the band, b = beta / delta and e = ||T_HL||_F / delta, the fixed point
    maps the ball ||X||_F <= r = 2e / (1 - 2b) into itself when
    4 b e <= (1 - 2b)^2, with Lipschitz factor 2b (1 + r); that factor must
    be at most RICCATI_RATE, and the disc of radius reach around c must stay
    clear of the high block's Bauer-Fike discs, of radius beta (1 + r) around
    the nearest unperturbed eigenvalues outside the band."""
    q_lo, q_hi = band
    delta = float((q_hi + 2) ** (2 * m) - q_hi ** (2 * m)) * math.pi ** (2 * m)
    if q_lo > 1:
        delta = min(delta, float(q_lo ** (2 * m) - (q_lo - 2) ** (2 * m)) * math.pi ** (2 * m))
    low, high = _band(K, band)
    b = beta / delta
    e = np.linalg.norm(mat[:, low][high]) / delta
    if 2.0 * b >= 1.0 or 4.0 * b * e > (1.0 - 2.0 * b) ** 2:
        return False
    r = 2.0 * e / (1.0 - 2.0 * b)
    above = center(m, (q_hi + 3) // 2) - beta * (1.0 + r)
    below = center(m, (q_lo - 1) // 2) + beta * (1.0 + r) if q_lo > 1 else -math.inf
    return 2.0 * b * (1.0 + r) <= RICCATI_RATE and below < c - reach and c + reach < above


def _gaps(m: int, p_high: np.ndarray, p_low: np.ndarray) -> np.ndarray:
    """mu_h - mu_l from the exact integer p_h^{2m} - p_l^{2m}, factored as
    (p_h^2 - p_l^2) sum_i p_h^{2i} p_l^{2(m-1-i)}: the first factor is exact
    and the sum has positive terms only, so each gap is rounded at its own
    scale, not at that of mu_h."""
    h2 = (p_high.astype(float) ** 2)[:, None]
    l2 = (p_low.astype(float) ** 2)[None, :]
    total = sum(h2**i * l2 ** (m - 1 - i) for i in range(m))
    return (h2 - l2) * total * math.pi ** (2 * m)


def _hop(mat: np.ndarray) -> int:
    """Largest index distance (at least 1) the Toeplitz coupling of mat spans."""
    return 1 + max(int(np.flatnonzero(a[1:]).max(initial=0)) for a in (mat[0], mat[:, 0]))


def _fixed_point(update, z: np.ndarray, span: int, what: str):
    """z <- update(z) on a (rows, groups, columns) array for at least span
    steps, then until each group's step is at most RICCATI_TOL of its norm
    (or zero); z, the last step norms and the steps, or SolverError.  The norm alone
    stops before the long chains of a finite-support B(v) arrive, far below
    it yet carrying a whole gap: span, twice the steps the longest chain
    that matters takes to arrive, lets each settle at its own scale."""
    span = min(span, RICCATI_MAX_STEPS)
    for count in range(1, RICCATI_MAX_STEPS + 1):
        new = update(z)
        # squared Frobenius norm of each group's step and of its iterate, over the real view
        step2, size2 = (np.einsum("ijk,ijk->j", a.view(float), a.view(float)) for a in (new - z, new))
        z = new
        if np.all(step2 <= RICCATI_TOL**2 * size2) and (count >= span or not step2.any()):
            return z, np.sqrt(step2), count
    raise SolverError(f"{what} did not settle in {RICCATI_MAX_STEPS} steps")


def _decouple(mat: np.ndarray, m: int, K: int, band: tuple[int, int], mu: np.ndarray, beta: float):
    """Split the window into the modes q_lo <= |p| <= q_hi (L) and the rest
    (H), each in window order, and return the center-free low block, rho
    and the lift (X, E^{-1/2}) below, by reference (None when H is empty);
    mu is the diagonal of A^m (zero for a matrix that is already
    center-free) and beta bounds ||B||_2.

    X solves T_HL + T_HH X = X (T_LL + T_LH X), so [I; X] spans the low
    invariant subspace; it is the _fixed_point
    X <- -(T_HL + B_HH X - X (B_LL + T_LH X)) / (mu_h - mu_l), B = T - diag(mu).
    The high block D_H + B_HH - X T_LH has its eigenvalues within
    rho = beta (1 + ||X||_F + step) of D_H (Bauer-Fike); at the certified
    rate <= 1/2 the last step bounds the distance to the exact X.  The block
    is the mirror form E^{1/2} (T_LL + T_LH X) E^{-1/2}, E = I + W X,
    W = J X^T J ([I W] spans the left invariant subspace): it keeps
    J T J = T^T, so a pair's Feshbach block read from it has F11 = F22,
    and [I; X] E^{-1/2} lifts its vectors to the window (_lift).
    E^{-1/2} is a binomial series and diag(mu_L)'s commutator is taken over
    the exact gaps: products only, so small entries keep their scale."""
    low, high = _band(K, band)
    p = modes(K)
    gaps = _gaps(m, p[high], p[low])
    t_hl = mat[np.ix_(high, low)]
    t_lh = mat[np.ix_(low, high)]
    b_hh = mat[np.ix_(high, high)]
    b_hh.flat[:: len(high) + 1] -= mu[high]
    b_ll = mat[np.ix_(low, low)] - np.diag(mu[low])

    def riccati(rows, rest):  # the fixed point's step on the rows of X, the others held
        t_l, t_h, b_h, g = t_lh[:, rows], t_hl[rows] + rest, b_hh[rows][:, rows], gaps[rows]
        live, s = t_l.any(axis=0), len(g) // 2  # the rows of X that T_LH reads; H's two sides
        s = 0 if b_h[:s, s:].any() or b_h[s:, :s].any() else s  # apart, unless B_HH couples them
        return lambda z: ((z[:, 0] @ (b_ll + t_l[:, live] @ z[live, 0]) - t_h - np.concatenate(
            [b_h[:s, :s] @ z[:s, 0], b_h[s:, s:] @ z[s:, 0]])) / g)[:, None]

    what = f"Riccati fixed point for the modes {band[0]} <= |p| <= {band[1]}"
    x, last, count = _fixed_point(riccati(slice(None), 0.0), (-t_hl / gaps)[:, None], 0, what)
    x = x[:, 0]
    rho = beta * (1.0 + float(np.linalg.norm(x)) + float(last[0]))
    if not len(high):
        return b_ll, rho, None
    # rows within two hops of L carry the chains across the band into T_LH X: they run on
    near = np.any(t_hl != 0, axis=1) | np.any(t_lh != 0, axis=0)
    near |= np.any(b_hh[:, near] != 0, axis=1)
    span = 2 * -(-(band[1] + 1) // _hop(mat))
    if span > count:
        step = riccati(near, b_hh[near][:, ~near] @ x[~near])
        x[near] = _fixed_point(step, x[near][:, None], span - count, what)[0][:, 0]
    n = x[::-1, ::-1].T @ x  # W X
    inv_root, term = np.eye(len(n), dtype=complex) - n / 2, -n / 2
    for k in range(2, RICCATI_MAX_STEPS + 1):  # (I + N)^{-1/2}
        term = (0.5 - k) / k * (term @ n)
        inv_root = inv_root + term
        if np.linalg.norm(term) <= np.finfo(float).eps * np.linalg.norm(n):
            break
    else:
        raise SolverError(f"the mirror form of the modes |p| <= {band[1]} did not converge")
    root = inv_root + n @ inv_root
    block = (root @ (b_ll + t_lh @ x) - root * _gaps(m, p[low], p[low])) @ inv_root
    return block, rho, (x, inv_root)


def _grown_cut(mat, m, K, mu, beta, k, c, reach) -> tuple[int, np.ndarray, float, tuple | None]:
    """k, the center-free block of the modes |p| <= 2k - 1 of mat, its rho
    and its lift: the cut starts at k and doubles (up to the whole window K)
    until _cut_certified holds for the disc of radius reach around c, and
    _decouple splits it off."""
    while k < K and not _cut_certified(mat, m, K, (1, 2 * k - 1), beta, c, reach):
        k = min(2 * k, K)
    # at the whole window H is empty: X has no rows and rho = beta
    return k, *_decouple(mat, m, K, (1, 2 * k - 1), mu, beta)


def _lift(lift: tuple | None, K: int, u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The window rows `rows` of [I; X] E^{-1/2} u, the lift to the window K
    of the columns u (2j, c) of the block that _decouple cut at
    |p| <= 2j - 1, lift = (X, E^{-1/2}) (None: the block is the window)."""
    if lift is None:
        return u[rows]
    x, inv_root = lift
    j = len(u) // 2
    w = inv_root @ u
    out = np.empty((len(rows), u.shape[1]), dtype=complex)
    inside = (rows >= K - j) & (rows < K + j)  # the modes |p| <= 2j - 1
    out[inside] = w[rows[inside] - (K - j)]
    high = rows[~inside]  # X's rows are the window's without those
    out[~inside] = x[np.where(high < K - j, high, high - 2 * j)] @ w
    return out


def _cut_block(op: TruncatedOperator, n_max: int, reach: float) -> LowBlock:
    """The low block of the cut |p| <= P, P from 2 n_max - 1 doubling by
    _grown_cut until it certifies the disc of radius reach around
    center(m, n_max); its rho bounds B_L."""
    mat, m, K = op.matrix, op.m, op.K
    mu = unperturbed_eigenvalues(m, K)
    beta, hermitian = _structure(mat, mu)
    if not math.isfinite(beta):
        raise ValueError("operator matrix carries non-finite entries")
    j, low, rho, lift = _grown_cut(mat, m, K, mu, beta, min(n_max, K), center(m, n_max), reach)
    complete_below = center(m, j + 1) - rho if j < K else math.inf
    return LowBlock(op, low, rho, hermitian, complete_below, _hop(mat), lift)


def low_block(op: TruncatedOperator, n_max: int) -> LowBlock:
    """The certified low block for the pairs n <= n_max, cut for the contour
    of n_max; an n_max >= K takes the whole window (complete_below infinite)."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return _cut_block(op, n_max, contour_radius(op.m, n_max))


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

def localization_radius(m: int, alpha: float, C: float, R: float, n: int) -> float:
    """Localization disc radius 3^m sqrt(2) C R (2n-1)^{m alpha}."""
    return 3.0**m * math.sqrt(2.0) * C * R * float(2 * n - 1) ** (m * alpha)


@dataclass(frozen=True)
class EigenPairRow:
    """One pair as d_tau = tau - center(m, n) and gamma = lambda_hi -
    lambda_lo in the zero-mode-normalized frame, next to the zero mode v0
    split off before the solve; d_lo, d_hi and the absolute values derive
    from them, and gamma (_pair_split) keeps its digits below ulp(d_tau).
    bar is the truncation bar that set converged (_truncation_bars), None
    on a table read without bars."""

    n: int
    center: float
    d_tau: complex
    gamma: complex
    v0: complex
    converged: bool
    bar: float | None = None

    def _absolute(self, d: complex) -> complex:
        lam = self.center + d
        return lam + self.v0 if self.v0 else lam

    @property
    def d_lo(self) -> complex:
        return self.d_tau - self.gamma / 2.0

    @property
    def d_hi(self) -> complex:
        return self.d_tau + self.gamma / 2.0

    @property
    def lambda_lo(self) -> complex:
        return self._absolute(self.d_lo)

    @property
    def lambda_hi(self) -> complex:
        return self._absolute(self.d_hi)

    @property
    def tau(self) -> complex:
        return self._absolute(self.d_tau)


@dataclass(frozen=True)
class EigenPairTable:
    m: int
    K: int
    rows: tuple[EigenPairRow, ...]
    flagged: dict[int, int] = field(default_factory=dict)
    unrefined: tuple[int, ...] = ()  # rows read from the grown band, not their own 2 x 2 block
    windows: tuple[int, ...] = ()  # every window converge_truncation solved, in order
    stop: str | None = None  # why converge_truncation stopped: "converged" or "cap"

    def row(self, n: int) -> EigenPairRow:
        for r in self.rows:
            if r.n == n:
                return r
        raise KeyError(f"no paired row for n = {n}")


def _pair_frame(b: np.ndarray, m: int, ns: np.ndarray):
    """For all n in ns: the rows (N, 2) of the modes -(2n-1), 2n-1 (P) of
    the center-free block b, the gaps mu_r - c_n (2j, N, 1), infinite on the
    rows P so that they stay zero, and the columns B_RP (2j, N, 2)."""
    j = len(b) // 2
    rows = np.stack(resonant_rows(j, ns), axis=1)
    gaps = _gaps(m, modes(j), 2 * ns - 1)
    gaps[rows, np.arange(len(ns))[:, None]] = np.inf
    return rows, gaps[:, :, None], np.ascontiguousarray(b[:, rows])


def _settle_pairs(b: np.ndarray, m: int, ns: np.ndarray, span: int):
    """The 2 x 2 blocks G_n = B_PP + B_PR Z_n (N, 2, 2) the modes +-(2n-1)
    (P) of the center-free block b keep once the rest (R) is decoupled, Z
    (2j, N, 2): B_RP + (D_R - c_n + B_RR) Z = Z G_n by the _fixed_point
    Z <- (Z G - B_RP - B_RR Z) / (mu_r - c_n) from -B_RP / (mu_r - c_n), at
    which G_n is the second-order truncation (correction_values), and the _pair_frame."""
    rows, gaps, cols = _pair_frame(b, m, ns)
    pick = np.arange(len(ns))[:, None]
    b_pp = cols[rows, pick]

    def step(z):
        bz = (b @ z.reshape(len(b), -1)).reshape(z.shape)
        zg = z.transpose(1, 0, 2) @ (b_pp + bz[rows, pick])  # Z G per pair
        return (zg.transpose(1, 0, 2) - cols - bz) / gaps

    z = _fixed_point(step, -cols / gaps, span, f"Riccati fixed point for the pairs n <= {max(ns)}")[0]
    return b_pp + b[rows] @ z.transpose(1, 0, 2), z, (rows, gaps, cols)


def _oriented(d: np.ndarray, s: np.ndarray) -> np.ndarray:
    """gamma = +-s, signed so that d -+ gamma / 2 come in lexicographic
    order: by real part, and by imaginary part where the real parts tie
    within ORDER_TOL_SCALE (1 + |d| + |gamma| / 2)."""
    tie = np.abs(s.real) <= ORDER_TOL_SCALE * (1.0 + np.abs(d) + np.abs(s) / 2.0)
    major, minor = np.where(tie, s.imag, s.real), np.where(tie, s.real, s.imag)
    return np.where((major < 0) | ((major == 0) & (minor < 0)), -s, s)


def _pair_split(b: np.ndarray, m: int, ns: np.ndarray, hop: int, hermitian: bool):
    """tau - c = tr G / 2 (_settle_pairs) and gamma of each pair of the
    center-free block b, then G and Z by reference.  With A = D + b - c,
    R(d) = (d - A_QQ)^{-1} and F(d) = A_PP + A_PQ R(d) A_QP, J T J = T^T
    makes F11 = F22, so the ends solve d_+- = F11(d_+-) +- s(d_+-),
    s = sqrt(F12) sqrt(F21) (no underflow, one branch at both ends), and
    the resolvent identity gives
    gamma = (s(d_+) + s(d_-)) / (1 + h), h = [A_PQ R(d_+) R(d_-) A_QP]_11:
    no step subtracts two numbers the size of tau - c.  F is read at the
    ends d -+ sqrt(tr^2 G / 4 - det G), good to one ulp of tau - c.  A
    Hermitian T has real pairs: the real part of d and the modulus of gamma."""
    span = 2 * -(-(2 * int(ns.max()) - 1) // hop)  # twice the steps of the top pair's chain
    g, z0, (rows, gaps, cols) = _settle_pairs(b, m, ns, span)
    d = (g[:, 0, 0] + g[:, 1, 1]) / 2.0
    half = np.sqrt((g[:, 0, 0] - g[:, 1, 1]) ** 2 + 4.0 * g[:, 0, 1] * g[:, 1, 0]) / 2.0
    rhs, shifted = np.tile(cols, 2), gaps - (d[:, None] + np.stack([half, -half], axis=1)).repeat(2, 1)
    # from Z of G: R(d_+-) A_QP differs from it by Z (G - d_+-) / gaps
    z = _fixed_point(lambda z: -(rhs + (b @ z.reshape(len(b), -1)).reshape(z.shape)) / shifted,
                     np.tile(z0, 2), span, "pair resolvent")[0]
    f = rhs[rows, np.arange(len(ns))[:, None]] + b[rows] @ z.transpose(1, 0, 2)  # F at both ends
    s = [np.sqrt(f[:, 0, 1 + e]) * np.sqrt(f[:, 1, e]) for e in (0, 2)]
    s[1] = np.where((s[1] * s[0].conj()).real < 0.0, -s[1], s[1])
    # h, with A_PQ R(d_+) = (J R(d_+) A_QP J_P)^T by the mirror identity: no third solve
    gamma = (s[0] + s[1]) / (1.0 + np.einsum("rn,rn->n", z[::-1, :, 1], z[:, :, 2]))
    if hermitian:
        return d.real + 0j, np.abs(gamma) + 0j, g, z0
    return d, _oriented(d, gamma), g, z0


def correction_values(v: FourierSequence, m: int, ns) -> tuple[np.ndarray, np.ndarray]:
    """(l_+, l_-) at +-2(2n-1) for each n in ns: the off-diagonal of
    -B_PR B_RP / (mu_r - c_n), the second-order term of G_n at the start of
    _settle_pairs, over the window j that holds every chain
    +-(2n-1) -> p -> -+(2n-1), |p| <= v.reach - (2n-1).  B(v) is a view of
    the table v.at(d) (operator._convolution), of which only the rows B_PR
    and columns B_RP are copied: memory O(N j), not O(j^2)."""
    ns = np.asarray(ns, dtype=int).reshape(-1)
    b = _convolution(v, m, max(int(ns.max(initial=1)), v.reach // 2))
    rows, gaps, cols = _pair_frame(b, m, ns)
    l2 = 0.0 - b[rows] @ (cols / gaps).transpose(1, 0, 2)  # 0 - x: a zero imaginary part is +0
    return l2[:, 1, 0], l2[:, 0, 1]


def _certified_band(low: LowBlock, k: int, edge: float) -> tuple[np.ndarray, tuple | None]:
    """The center-free band |p| <= 2k' - 1 of the low block and its lift, k'
    the first of k, 2k, ... whose cut _grown_cut certifies with everything
    left of edge inside it."""
    j = len(low.matrix) // 2
    _, band, _, lift = _grown_cut(low.matrix, low.op.m, j, np.zeros(2 * j), low.beta, k, edge, 0.0)
    return band, lift


def _shift_poles(band: np.ndarray, mu: np.ndarray, c: float, r: float):
    """Offsets from c of all the eigenvalues of the center-free band, whose
    modes carry the diagonal mu of A^m, as 2ir - 1 / nu over the eigenvalues
    nu of M = (c + 2ir - T)^{-1}, and M.  M is inverted in the center-free
    frame, diag((c - mu) + 2ir) - band, so partial pivoting keeps the graded
    diagonal, and the poles near c, the largest nu, are accurate at the
    scale of r.  SolverError when LAPACK fails."""
    shift = 2j * r
    try:
        inv = np.linalg.inv(np.diag((c - mu) + shift) - band)
        return shift - 1.0 / np.linalg.eigvals(inv), inv
    except np.linalg.LinAlgError as exc:  # singular shift or QR non-convergence
        raise SolverError(f"band shift-invert failed: {exc}") from exc


def _grown_band(low: LowBlock, ns: np.ndarray, c: np.ndarray, radii: np.ndarray):
    """tau - c, gamma and the offsets inside each disc of the refused pairs
    ns, from one _certified_band (from max(ns), every refused disc left of
    the rest) whose poles _shift_poles reads at each pair's own center,
    paired by disc membership; also each pair's 2 x 2 block and right basis
    in the low block as _pair_rows has them: two steps of the shift-inverse
    M from the pair's modes P, scaled to the identity on P and lifted from
    the band."""
    band, lift = _certified_band(low, int(ns.max()), float(np.max(c + radii)))
    k, j = len(band) // 2, len(low.matrix) // 2
    mu = unperturbed_eigenvalues(low.op.m, k)
    d, s, found = np.zeros(len(ns), complex), np.zeros(len(ns), complex), []
    g = np.zeros((len(ns), 2, 2), complex)
    u = np.zeros((2 * j, len(ns), 2), complex)
    for i, (n, cn, r) in enumerate(zip(ns, c, radii)):
        delta, inv = _shift_poles(band, mu, cn, r)
        if low.hermitian:
            delta = delta.real
        found.append(delta[np.abs(delta) < r])
        if len(found[i]) == 2:
            d[i], s[i] = (found[i][0] + found[i][1]) / 2.0, found[i][1] - found[i][0]
        rows = list(resonant_rows(k, n))
        x = inv @ inv[:, rows]
        x = x @ np.linalg.inv(x[rows])
        g[i], u[:, i] = band[rows] @ x, _lift(lift, j, x, np.arange(2 * j))
    return d, _oriented(d, s), found, g, u


def _pair_rows(low: LowBlock, ns: np.ndarray, radii: np.ndarray):
    """tau - c, gamma and the offsets lambda - c inside the disc of radius
    radii[i] around center(m, ns[i]), and the ns read from the grown band:
    a pair whose modes low.certifies apart from the rest of the block is
    read by _pair_split, offsets d -+ gamma / 2; the rest by _grown_band.
    Also each pair's 2 x 2 block G (N, 2, 2) and its right basis e_P + Z in
    the low block (2j, N, 2) for _truncation_bars."""
    m = low.op.m
    c = np.array([center(m, n) for n in ns])
    ok = np.array([low.certifies((2 * n - 1,) * 2, cn, r) for n, cn, r in zip(ns, c, radii)], bool)
    d, gamma = np.zeros(len(ns), complex), np.zeros(len(ns), complex)
    g = np.zeros((len(ns), 2, 2), complex)
    u = np.zeros((len(low.matrix), len(ns), 2), complex)
    if ok.any():
        d[ok], gamma[ok], g[ok], u[:, ok] = _pair_split(low.matrix, m, ns[ok], low.hop, low.hermitian)
        for col, row in enumerate(resonant_rows(len(low.matrix) // 2, ns[ok])):
            u[row, np.flatnonzero(ok), col] = 1.0  # Z is zero on P
    ends = d[:, None] + np.array([-0.5, 0.5]) * gamma[:, None]
    found = [e[np.abs(e) < r] for e, r in zip(ends, radii)]
    if not ok.all():
        d[~ok], gamma[~ok], band, g[~ok], u[:, ~ok] = _grown_band(low, ns[~ok], c[~ok], radii[~ok])
        for i, delta in zip(np.flatnonzero(~ok), band):
            found[i] = delta
    return d, gamma, found, tuple(int(n) for n in ns[~ok]), g, u


def _pair_table(low: LowBlock, radius_rule, n_max: int):
    """The table of the pairs n <= n_max of a low block, each pair's 2 x 2
    block G (N, 2, 2) and its right basis in the low block (2j, N, 2) for
    _truncation_bars.  A disc of radius radius_rule(m, n) around center(m, n) holding exactly two
    eigenvalues (_pair_rows) becomes a row without zero mode, anything else
    is flagged with its count.  A disc that reaches low.complete_below, past
    which the solve left eigenvalues out, raises SolverError."""
    m, K = low.op.m, low.op.K
    if K < 4 * n_max:
        raise PairingConfigError(
            f"window K = {K} too small for n_max = {n_max} (need K >= 4 n_max)"
        )
    for n in range(1, n_max):
        if center(m, n + 1) - center(m, n) <= radius_rule(m, n) + radius_rule(m, n + 1):
            raise PairingConfigError(f"pairing discs for n = {n} and n = {n + 1} overlap")
    ns = range(1, n_max + 1)
    radii = [float(radius_rule(m, n)) for n in ns]
    for n, r in zip(ns, radii):
        if center(m, n) + r >= low.complete_below:
            raise SolverError(
                f"pairing disc n = {n} reaches {low.complete_below:.17g}, "
                "past which the solve left eigenvalues out"
            )
    d, gamma, found, grown, g, u = _pair_rows(low, np.array(ns), np.array(radii))
    rows = tuple(
        EigenPairRow(n, center(m, n), complex(d[n - 1]), complex(gamma[n - 1]), 0j, False)
        for n in ns if len(found[n - 1]) == 2
    )
    flagged = {n: len(found[n - 1]) for n in ns if len(found[n - 1]) != 2}
    unrefined = tuple(n for n in grown if n not in flagged)
    return EigenPairTable(m, K, rows, flagged, unrefined=unrefined), g, u


def pair_eigenvalues(low: LowBlock, n_max: int) -> EigenPairTable:
    """Pair table n <= n_max of a low block, each pair read in the disc of
    radius contour_radius(m, n) (_pair_table)."""
    return _pair_table(low, contour_radius, n_max)[0]


def compute_pair_table(
    v: FourierSequence,
    m: int,
    K: int,
    radius_rule=contour_radius,
    n_max: int | None = None,
    bars: bool = False,
) -> EigenPairTable:
    """Spectrum pipeline: split off the zero mode, cut the truncated
    operator for the pairs n <= n_max (default K/4, the trusted quarter of
    the window) and read each pair from the low block, with no
    eigendecomposition of it; the rows carry the zero mode.  With bars,
    _truncation_bars sets the converged flags."""
    v_norm, v0 = normalize_zero_mode(v)
    if n_max is None:
        n_max = K // 4
    low = low_block(build_T(v_norm, m, K), n_max)
    table, g, u = _pair_table(low, radius_rule, n_max)
    if bars:
        table = _truncation_bars(table, v_norm, low, g, u)
    return replace(table, rows=tuple(replace(r, v0=v0) for r in table.rows))


def _displacement(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """How far the eigenvalues t +- sqrt(w) of each 2 x 2 block g (N, 2, 2)
    move when dg is added, the larger of the two.  The moves are formed from
    dg alone, with no difference of two eigenvalues, so a move far below
    their ulp keeps its digits; the moved root takes the branch nearest the
    old one, and a degenerate pair moves by sqrt(dw)."""
    a, da = (g[:, 0, 0] - g[:, 1, 1]) / 2.0, (dg[:, 0, 0] - dg[:, 1, 1]) / 2.0
    dw = da * (2.0 * a + da) + dg[:, 0, 1] * g[:, 1, 0] + (g[:, 0, 1] + dg[:, 0, 1]) * dg[:, 1, 0]
    w = a * a + g[:, 0, 1] * g[:, 1, 0]
    root, moved = np.sqrt(w), np.sqrt(w + dw)
    total = root + np.where((moved * root.conj()).real < 0.0, -moved, moved)
    dr = np.divide(dw, total, out=np.zeros_like(dw), where=total != 0)
    dt = (dg[:, 0, 0] + dg[:, 1, 1]) / 2.0
    return np.maximum(np.abs(dt + dr), np.abs(dt - dr))


def _outer_modes(K: int, keys: np.ndarray) -> np.ndarray:
    """The modes o > 2K - 1 past the window K that B(v), supported on the
    sorted keys, couples to it both ways: o = p + k and -o = p' + k' for
    window modes p, p' and keys k > 0 > k'.  A key k reaches the modes
    max(2K + 1, |k| - 2K + 1) <= |o| <= 2K - 1 + |k|, at most 2K of them."""
    def reach(ks):  # sorted, each mode once (np.unique would import numpy.ma)
        o = np.sort(np.concatenate(
            [np.arange(max(2 * K + 1, k - 2 * K + 1), 2 * K + k, 2) for k in ks] + [keys[:0]]))
        return o[np.diff(o, prepend=-1) > 0]

    both = np.sort(np.concatenate([reach(keys[keys > 0]), reach(-keys[keys < 0])]))
    return both[1:][both[1:] == both[:-1]]


def _truncation_bars(table: EigenPairTable, v: FourierSequence, low: LowBlock,
                     g: np.ndarray, u: np.ndarray) -> EigenPairTable:
    """Each row of a table that _pair_table made from the low
    block low, with G and the right bases u it returned, with its truncation
    bar and converged when the bar is below CONVERGENCE_TOL; v is the
    potential of the window, zero mode split off.

    B(v) couples the window K to the modes O past it (_outer_modes).  Their
    first-order Schur term on a pair's block is
    dG = Y^T T_WO (c - D_O)^{-1} T_OW X, from the right basis X of the pair
    (its basis in the low block, lifted through the cut by _lift) and the
    left basis Y = J X J_P that J T J = T^T gives, so that
    Y^T T_WO = J_P (T_OW X)^T J_O.  T_OW is read by v.at in slabs of O,
    each holding its mirror, so memory stays bounded however far v.reach
    lies.  The Neumann factor
    1 / (1 - ||v||_l1 / (mu_{2K+1} - c)) stands for the orders it leaves
    out, the chains among the modes past the window (infinite bar when
    ||v||_l1 reaches the gap, or when v reaches past 2^62, where the modes
    leave the int64 range).  The bar is BAR_SAFETY times how far the two
    eigenvalues of G + dG lie from those of G (_displacement): an estimate,
    not a proof, whose factor keeps it above the row's move to a window
    that holds every mode it reads on the inputs the tests measure."""
    m, K = low.op.m, low.op.K
    ns = np.array([r.n for r in table.rows], dtype=int)
    reach, bars = v.reach, np.zeros(len(ns))
    if reach >= 2**62:  # its modes leave the int64 range: no bar can be read
        bars[:] = np.inf
    elif reach and len(ns):
        g, p, outer = g[ns - 1], modes(K), _outer_modes(K, v.indices)
        top = np.flatnonzero(np.abs(p) > 2 * K - 1 - reach)  # the rows that reach past the window
        x = _lift(low.lift, K, u[:, ns - 1].reshape(len(u), -1), top)
        dg = np.zeros((len(ns), 2, 2), complex)
        step = max(1, 2**16 // len(top))  # a slab's T_OW holds about 2^17 entries
        for i in range(0, len(outer), step):
            o = np.concatenate([-outer[i : i + step][::-1], outer[i : i + step]])  # row -o mirrors o
            t_ow = v.at(o[:, None] - p[top])  # v(o - p)
            live = t_ow.any(axis=0)
            q = (t_ow[:, live] @ x[live]).reshape(len(o), len(ns), 2)
            dg -= np.einsum("ona,onb->nab", q[::-1, :, ::-1], q / _gaps(m, o, 2 * ns - 1)[:, :, None])
        dist = _gaps(m, np.array([2 * K + 1]), 2 * ns - 1)[0]  # mu_{2K+1} - c_n
        l1 = float(np.abs(v.at(v.indices)).sum())  # in the indices' order
        bars[:] = np.inf
        ok = dist > l1
        bars[ok] = BAR_SAFETY * _displacement(g[ok], dg[ok] * (dist / (dist - l1))[ok, None, None])
    rows = tuple(replace(r, converged=bool(b < CONVERGENCE_TOL), bar=float(b))
                 for r, b in zip(table.rows, bars))
    return replace(table, rows=rows)


def converge_truncation(v: FourierSequence, m: int, n_max: int, K: int) -> tuple[int, EigenPairTable]:
    """Double the window from the caller's K, one solve with bars each,
    until every paired eigenvalue with n <= n_max has its truncation bar
    below CONVERGENCE_TOL, or the next window would pass MAX_HALF_WINDOW.
    The final window and its table, which records the windows solved and
    why the doubling stopped ("converged" or "cap")."""
    windows = []
    while True:
        table = compute_pair_table(v, m, K, n_max=n_max, bars=True)
        windows.append(K)
        converged = bool(table.rows) and all(r.converged for r in table.rows)
        if converged or 2 * K > MAX_HALF_WINDOW:
            break
        K = 2 * K
    return K, replace(table, windows=tuple(windows), stop="converged" if converged else "cap")
