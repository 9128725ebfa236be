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
_decouple, and never calls _pair_split; localization_report reads its discs
through the pair rows.  Only eigenvalues() eigendecomposes the whole window
(symmetrically when T is Hermitian), certified by its residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .seqspace import FourierSequence, normalize_zero_mode
from .operator import (
    MAX_HALF_WINDOW,
    TruncatedOperator,
    build_B,
    build_T,
    center,
    contour_radius,
    modes,
    resonant_rows,
    unperturbed_eigenvalues,
)

__all__ = [
    "SolverError",
    "PairingConfigError",
    "EigenList",
    "EigenPairRow",
    "EigenPairTable",
    "lexicographic_order",
    "low_block",
    "eigenvalues",
    "pair_eigenvalues",
    "compute_pair_table",
    "mark_converged",
    "confirm_window",
    "converge_truncation",
    "correction_values",
    "LocalizationReport",
    "localization_report",
    "localization_radius",
]

ORDER_TOL_SCALE = 1e-9
RESIDUAL_TOL = 1e-8
HERMITIAN_REL_TOL = 1e-12
CONVERGENCE_TOL = 1e-9
BLOCK = 16  # rows or columns per slab in the passes that avoid dense temporaries
RICCATI_RATE = 0.5  # a-priori contraction factor of the fixed point that a cut must certify
RICCATI_TOL = 1e-14  # relative fixed-point step at which X has settled
RICCATI_MAX_STEPS = 64  # at the rate RICCATI_RATE, 47 steps take an error of ||X|| below RICCATI_TOL


class SolverError(RuntimeError):
    """Eigensolver failure or a failed numerical certificate."""


class PairingConfigError(ValueError):
    """Pairing discs overlap or the window is too small for the request."""


def lexicographic_order(values, tol_scale: float = ORDER_TOL_SCALE) -> np.ndarray:
    """Permutation that sorts values by ascending real part; ties (within
    tol_scale*(1+|lambda|)) are ordered by imaginary part."""
    vals = np.asarray(values, dtype=complex)
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    i, n = 0, len(vals)
    while i < n:
        j = i + 1
        while j < n and (
            vals[j].real - vals[j - 1].real <= tol_scale * (1.0 + abs(vals[j]))
        ):
            j += 1
        if j - i > 1:
            order[i:j] = order[i:j][np.argsort(vals[i:j].imag, kind="stable")]
        i = j
    return order


@dataclass(frozen=True)
class LowBlock:
    """The window of op cut at the modes |p| <= 2j - 1 (all of it when
    j = K): matrix is the center-free low block B_L left once the modes
    above are decoupled (_decouple), beta >= ||B_L||_2, and every eigenvalue
    of T left of complete_below is one of the block's.  hermitian says T is
    Hermitian up to the scale of B(v); hop is _hop of T."""

    op: TruncatedOperator
    matrix: np.ndarray
    beta: float
    hermitian: bool
    complete_below: float
    hop: int

    def __post_init__(self):
        self.matrix.setflags(write=False)

    def certifies(self, band: tuple[int, int], c: float, reach: float) -> bool:
        j = len(self.matrix) // 2
        return _cut_certified(self.matrix, self.op.m, j, band, self.beta, c, reach)


@dataclass(frozen=True)
class EigenList(LowBlock):
    """The whole window as a low block, with all 2K eigenvalues of T, with
    multiplicity, lexicographically ordered and certified by residual_max."""

    values: np.ndarray
    trace_defect: float
    residual_max: float

    def __post_init__(self):
        super().__post_init__()
        self.values.setflags(write=False)


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


def _residual_max(mat: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> float:
    """Largest ||T v_j - lambda_j v_j|| / ||v_j||."""
    worst = 0.0
    for j in range(0, len(values), BLOCK):
        v = vectors[:, j : j + BLOCK]
        res = np.linalg.norm(mat @ v - v * values[j : j + BLOCK], axis=0)
        worst = max(worst, float(np.max(res / np.linalg.norm(v, axis=0))))
    return worst


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
    (H), each in window order, and return the center-free low block and
    rho; mu is the diagonal of A^m (zero for a matrix that is already
    center-free) and beta bounds ||B||_2.

    X solves T_HL + T_HH X = X (T_LL + T_LH X), so [I; X] spans the low
    invariant subspace; it is the _fixed_point
    X <- -(T_HL + B_HH X - X (B_LL + T_LH X)) / (mu_h - mu_l), B = T - diag(mu).
    The high block D_H + B_HH - X T_LH has its eigenvalues within
    rho = beta (1 + ||X||_F + step) of D_H (Bauer-Fike); at the certified
    rate <= 1/2 the last step bounds the distance to the exact X.  The block
    is the mirror form E^{1/2} (T_LL + T_LH X) E^{-1/2}, E = I + W X,
    W = J X^T J ([I W] spans the left invariant subspace): it keeps
    J T J = T^T, so a pair's Feshbach block read from it has F11 = F22.
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
        return b_ll, rho
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
    return (root @ (b_ll + t_lh @ x) - root * _gaps(m, p[low], p[low])) @ inv_root, rho


def _grown_cut(mat, m, K, mu, beta, k, c, reach) -> tuple[int, np.ndarray, float]:
    """k, the center-free block of the modes |p| <= 2k - 1 of mat and its rho:
    the cut starts at k and doubles (up to the whole window K) until
    _cut_certified holds for the disc of radius reach around c, and
    _decouple splits it off."""
    while k < K and not _cut_certified(mat, m, K, (1, 2 * k - 1), beta, c, reach):
        k = min(2 * k, K)
    # at the whole window H is empty: X has no rows and rho = beta
    return k, *_decouple(mat, m, K, (1, 2 * k - 1), mu, beta)


def _cut_block(op: TruncatedOperator, n_max: int, reach: float) -> LowBlock:
    """The low block of the cut |p| <= P, P from 2 n_max - 1 doubling by
    _grown_cut until it certifies the disc of radius reach around
    center(m, n_max); its rho bounds B_L."""
    mat, m, K = op.matrix, op.m, op.K
    mu = unperturbed_eigenvalues(m, K)
    beta, hermitian = _structure(mat, mu)
    if not math.isfinite(beta):
        raise ValueError("operator matrix carries non-finite entries")
    j, low, rho = _grown_cut(mat, m, K, mu, beta, min(n_max, K), center(m, n_max), reach)
    complete_below = center(m, j + 1) - rho if j < K else math.inf
    return LowBlock(op, low, rho, hermitian, complete_below, _hop(mat))


def low_block(op: TruncatedOperator, n_max: int) -> LowBlock:
    """The certified low block for the pairs n <= n_max, cut for the contour
    of n_max; an n_max >= K takes the whole window (complete_below infinite)."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return _cut_block(op, n_max, contour_radius(op.m, n_max))


def eigenvalues(op: TruncatedOperator) -> EigenList:
    """All 2K eigenvalues of the window, with multiplicity, from one
    eigendecomposition of T, the symmetric one of its Hermitian part when T
    is Hermitian.  SolverError when the largest residual of an eigenvector
    against T, relative to ||T||_F, exceeds RESIDUAL_TOL.
    """
    low = low_block(op, op.K)
    mat = low.matrix + np.diag(unperturbed_eigenvalues(op.m, op.K))
    try:
        if low.hermitian:
            vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2.0)
        else:
            vals, vecs = np.linalg.eig(mat)
    except np.linalg.LinAlgError as exc:  # QR non-convergence
        raise SolverError(f"eigen decomposition failed: {exc}") from exc
    scale = float(np.linalg.norm(op.matrix)) or 1.0
    residual_max = _residual_max(op.matrix, vals, vecs) / scale
    if residual_max > RESIDUAL_TOL:
        raise SolverError(f"eigenvalue residual {residual_max:.3e} exceeds {RESIDUAL_TOL}")
    vals = vals[lexicographic_order(vals)].astype(complex)
    trace_defect = float(abs(vals.sum() - np.trace(mat)) / scale)
    return EigenList(
        **vars(low), values=vals, trace_defect=trace_defect, residual_max=residual_max
    )


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
    from them, and gamma (_pair_split) keeps its digits below ulp(d_tau)."""

    n: int
    center: float
    d_tau: complex
    gamma: complex
    v0: complex
    disc_radius_used: float
    converged: bool

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
    confirm_K: int | None = None  # the window the converged flags were compared against
    unrefined: tuple[int, ...] = ()  # rows read from the grown band, not their own 2 x 2 block

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
    """gamma = +-s, signed so that d -+ gamma / 2 come in the order that
    lexicographic_order gives the pair: by real part, and by imaginary part
    where the real parts tie within ORDER_TOL_SCALE."""
    tie = np.abs(s.real) <= ORDER_TOL_SCALE * (1.0 + np.abs(d) + np.abs(s) / 2.0)
    major, minor = np.where(tie, s.imag, s.real), np.where(tie, s.real, s.imag)
    return np.where((major < 0) | ((major == 0) & (minor < 0)), -s, s)


def _pair_split(b: np.ndarray, m: int, ns: np.ndarray, hop: int, hermitian: bool):
    """tau - c = tr G / 2 (_settle_pairs) and gamma of each pair of the
    center-free block b.  With A = D + b - c, R(d) = (d - A_QQ)^{-1} and
    F(d) = A_PP + A_PQ R(d) A_QP, J T J = T^T makes F11 = F22, so the ends
    solve d_+- = F11(d_+-) +- s(d_+-), s = sqrt(F12) sqrt(F21) (no
    underflow, one branch at both ends), and the resolvent identity gives
    gamma = (s(d_+) + s(d_-)) / (1 + h), h = [A_PQ R(d_+) R(d_-) A_QP]_11:
    no step subtracts two numbers the size of tau - c.  F is read at the
    ends d -+ sqrt(tr^2 G / 4 - det G), good to one ulp of tau - c.  A
    Hermitian T has real pairs: the real part of d and the modulus of gamma."""
    span = 2 * -(-(2 * int(ns.max()) - 1) // hop)  # twice the steps of the top pair's chain
    g, z, (rows, gaps, cols) = _settle_pairs(b, m, ns, span)
    d = (g[:, 0, 0] + g[:, 1, 1]) / 2.0
    half = np.sqrt((g[:, 0, 0] - g[:, 1, 1]) ** 2 + 4.0 * g[:, 0, 1] * g[:, 1, 0]) / 2.0
    rhs, shifted = np.tile(cols, 2), gaps - (d[:, None] + np.stack([half, -half], axis=1)).repeat(2, 1)
    # from Z of G: R(d_+-) A_QP differs from it by Z (G - d_+-) / gaps
    z = _fixed_point(lambda z: -(rhs + (b @ z.reshape(len(b), -1)).reshape(z.shape)) / shifted,
                     np.tile(z, 2), span, "pair resolvent")[0]
    f = rhs[rows, np.arange(len(ns))[:, None]] + b[rows] @ z.transpose(1, 0, 2)  # F at both ends
    s = [np.sqrt(f[:, 0, 1 + e]) * np.sqrt(f[:, 1, e]) for e in (0, 2)]
    s[1] = np.where((s[1] * s[0].conj()).real < 0.0, -s[1], s[1])
    # h, with A_PQ R(d_+) = (J R(d_+) A_QP J_P)^T by the mirror identity: no third solve
    gamma = (s[0] + s[1]) / (1.0 + np.einsum("rn,rn->n", z[::-1, :, 1], z[:, :, 2]))
    if hermitian:
        return d.real + 0j, np.abs(gamma) + 0j
    return d, _oriented(d, gamma)


def correction_values(v: FourierSequence, m: int, ns) -> tuple[np.ndarray, np.ndarray]:
    """(l_+, l_-) at +-2(2n-1) for each n in ns: the off-diagonal of
    -B_PR B_RP / (mu_r - c_n), the second-order term of G_n at the start of
    _settle_pairs, on B(v) over the window that holds every chain
    +-(2n-1) -> p -> -+(2n-1), |p| <= S - (2n-1) for the support S of v."""
    ns = np.asarray(ns, dtype=int).reshape(-1)
    b = build_B(v, m, max(int(ns.max(initial=1)), max(map(abs, v.support()), default=0) // 2)).matrix
    rows, gaps, cols = _pair_frame(b, m, ns)
    l2 = 0.0 - b[rows] @ (cols / gaps).transpose(1, 0, 2)  # 0 - x: a zero imaginary part is +0
    return l2[:, 1, 0], l2[:, 0, 1]


def _certified_band(low: LowBlock, k: int, edge: float) -> np.ndarray:
    """The center-free band |p| <= 2k' - 1 of the low block, k' the first of
    k, 2k, ... whose cut _grown_cut certifies with everything left of edge
    inside it."""
    j = len(low.matrix) // 2
    return _grown_cut(low.matrix, low.op.m, j, np.zeros(2 * j), low.beta, k, edge, 0.0)[1]


def _shift_poles(band: np.ndarray, mu: np.ndarray, c: float, r: float) -> np.ndarray:
    """Offsets from c of all the eigenvalues of the center-free band, whose
    modes carry the diagonal mu of A^m, as 2ir - 1 / nu over the eigenvalues
    nu of M = (c + 2ir - T)^{-1}.  M is inverted in the center-free frame,
    diag((c - mu) + 2ir) - band, so partial pivoting keeps the graded
    diagonal, and the poles near c, the largest nu, are accurate at the
    scale of r.  SolverError when LAPACK fails."""
    shift = 2j * r
    try:
        return shift - 1.0 / np.linalg.eigvals(np.linalg.inv(np.diag((c - mu) + shift) - band))
    except np.linalg.LinAlgError as exc:  # singular shift or QR non-convergence
        raise SolverError(f"band shift-invert failed: {exc}") from exc


def _grown_band(low: LowBlock, ns: np.ndarray, c: np.ndarray, radii: np.ndarray):
    """tau - c, gamma and the offsets inside each disc of the refused pairs
    ns, from one _certified_band (from max(ns), every refused disc left of
    the rest) whose poles _shift_poles reads at each pair's own center,
    paired by disc membership."""
    band = _certified_band(low, int(ns.max()), float(np.max(c + radii)))
    mu = unperturbed_eigenvalues(low.op.m, len(band) // 2)
    d, s, found = np.zeros(len(ns), complex), np.zeros(len(ns), complex), []
    for i, (cn, r) in enumerate(zip(c, radii)):
        delta = _shift_poles(band, mu, cn, r)
        if low.hermitian:
            delta = delta.real
        found.append(delta[np.abs(delta) < r])
        if len(found[i]) == 2:
            d[i], s[i] = (found[i][0] + found[i][1]) / 2.0, found[i][1] - found[i][0]
    return d, _oriented(d, s), found


def _pair_rows(low: LowBlock, ns: np.ndarray, radii: np.ndarray):
    """tau - c, gamma and the offsets lambda - c inside the disc of radius
    radii[i] around center(m, ns[i]), and the ns read from the grown band:
    a pair whose modes low.certifies apart from the rest of the block is
    read by _pair_split, offsets d -+ gamma / 2; the rest by _grown_band."""
    m = low.op.m
    c = np.array([center(m, n) for n in ns])
    ok = np.array([low.certifies((2 * n - 1,) * 2, cn, r) for n, cn, r in zip(ns, c, radii)], bool)
    d, gamma = np.zeros(len(ns), complex), np.zeros(len(ns), complex)
    if ok.any():
        d[ok], gamma[ok] = _pair_split(low.matrix, m, ns[ok], low.hop, low.hermitian)
    ends = d[:, None] + np.array([-0.5, 0.5]) * gamma[:, None]
    found = [e[np.abs(e) < r] for e, r in zip(ends, radii)]
    if not ok.all():
        d[~ok], gamma[~ok], band = _grown_band(low, ns[~ok], c[~ok], radii[~ok])
        for i, delta in zip(np.flatnonzero(~ok), band):
            found[i] = delta
    return d, gamma, found, tuple(int(n) for n in ns[~ok])


def pair_eigenvalues(
    low: LowBlock, radius_rule=contour_radius, n_max: int | None = None
) -> EigenPairTable:
    """Pair table n <= n_max (default K/4, the trusted quarter of the
    window) of a low block, such as an EigenList.  A disc of radius
    radius_rule(m, n) around center(m, n) holding exactly two eigenvalues
    (_pair_rows) becomes a row without zero mode, anything else is flagged
    with its count.  A disc that reaches low.complete_below, past which the
    solve left eigenvalues out, raises SolverError.
    """
    m, K = low.op.m, low.op.K
    if n_max is None:
        n_max = K // 4
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
    d, gamma, found, grown = _pair_rows(low, np.array(ns), np.array(radii))
    rows = tuple(
        EigenPairRow(n, center(m, n), complex(d[n - 1]), complex(gamma[n - 1]), 0j, r, False)
        for n, r in zip(ns, radii) if len(found[n - 1]) == 2
    )
    flagged = {n: len(found[n - 1]) for n in ns if len(found[n - 1]) != 2}
    unrefined = tuple(n for n in grown if n not in flagged)
    return EigenPairTable(m, K, rows, flagged, unrefined=unrefined)


def compute_pair_table(
    v: FourierSequence,
    m: int,
    K: int,
    radius_rule=contour_radius,
    n_max: int | None = None,
) -> EigenPairTable:
    """Spectrum pipeline: split off the zero mode, cut the truncated
    operator for the pairs n <= n_max (default K/4) and read each pair from
    the low block, with no eigendecomposition of it; the rows carry the zero
    mode."""
    v_norm, v0 = normalize_zero_mode(v)
    if n_max is None:
        n_max = K // 4
    table = pair_eigenvalues(low_block(build_T(v_norm, m, K), n_max), radius_rule, n_max=n_max)
    return replace(table, rows=tuple(replace(r, v0=v0) for r in table.rows))


def mark_converged(
    table: EigenPairTable, reference: EigenPairTable, tol: float = CONVERGENCE_TOL
) -> EigenPairTable:
    """Flag each row of table converged when the offsets of the same pair
    in reference (the table at another window) lie within tol.  Rows
    missing from reference are unconverged, and the result records the
    reference window as confirm_K.  Pairs are compared as sets:
    the lexicographic label assignment of a near-degenerate pair may flip
    between windows without the values themselves moving."""
    rows = []
    for r in table.rows:
        try:
            p = reference.row(r.n)
        except KeyError:
            rows.append(replace(r, converged=False))
            continue
        direct = max(abs(r.d_lo - p.d_lo), abs(r.d_hi - p.d_hi))
        crossed = max(abs(r.d_lo - p.d_hi), abs(r.d_hi - p.d_lo))
        rows.append(replace(r, converged=bool(min(direct, crossed) < tol)))
    return replace(table, rows=tuple(rows), flagged=dict(table.flagged), confirm_K=reference.K)


def confirm_window(v: FourierSequence, K: int) -> int:
    """Window whose pair table confirms that of window K.  With S the largest
    |k| in the support of v, B(v) couples the modes |p| <= 2K - 1 directly
    only to modes |q| <= 2K - 1 + S, all of which lie in the window K + S/2
    (the zero mode couples nothing, so the window grows by at least one);
    the doubled window 2K caps it."""
    S = max((abs(k) for k in v.support()), default=0)
    return min(2 * K, K + max(S // 2, 1))


def converge_truncation(
    v: FourierSequence,
    m: int,
    n_max: int,
    tol: float = CONVERGENCE_TOL,
    K_start: int | None = None,
    K_cap: int = MAX_HALF_WINDOW,
) -> tuple[int, EigenPairTable]:
    """Double the window until every paired eigenvalue with n <= n_max moves
    less than tol between consecutive windows; rows still moving when the
    window cap is reached stay flagged unconverged."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    K = K_start if K_start is not None else max(32, 4 * n_max)
    if K < 4 * n_max:
        raise PairingConfigError(f"K_start = {K} too small for n_max = {n_max}")

    table = compute_pair_table(v, m, K, n_max=n_max)
    while 2 * K <= K_cap:
        K = 2 * K
        finer = compute_pair_table(v, m, K, n_max=n_max)
        table = mark_converged(finer, table, tol)
        if table.rows and all(r.converged for r in table.rows):
            break
    return K, table


@dataclass(frozen=True)
class DiscCensusRow:
    n: int
    radius: float
    hits: int
    max_deviation: float  # largest |lambda + v(0) - center| among the hits; nan if none


@dataclass(frozen=True)
class LocalizationReport:
    m: int
    alpha: float
    R: float
    C: float
    K: int
    n0_empirical: int
    cone_count: int
    cone_threshold: float
    cone_M: float
    disc_rows: tuple[DiscCensusRow, ...]


def localization_report(
    v: FourierSequence,
    m: int,
    alpha: float,
    R: float,
    C: float,
    K: int,
) -> LocalizationReport:
    """Empirical localization census against the localization-disc radii.

    n0_empirical is the smallest N such that every disc with N < n <= K/4
    holds exactly two eigenvalues lambda + v(0) inside radius
    3^m sqrt(2) C R (2n-1)^{m a}, read by _pair_rows at radius r + |v(0)| on
    the low block cut for the largest disc.  The cone census counts the
    eigenvalues left of ((2n0)^{2m}-(2n0)^m) pi^{2m}, from one eigvals of
    the certified band holding them, with cone_M one above their largest
    imaginary part (at least 1), so the left edge is inactive.
    """
    v_norm, v0 = normalize_zero_mode(v)
    op = build_T(v_norm, m, K)
    n_max = max(K // 4, 1)
    radii = [localization_radius(m, alpha, C, R, n) for n in range(1, K // 4 + 1)]
    low = _cut_block(op, n_max, localization_radius(m, alpha, C, R, n_max) + abs(v0))
    _, _, found, _ = _pair_rows(low, np.arange(1, K // 4 + 1), np.array(radii) + abs(v0))
    rows = []
    for n, (r, delta) in enumerate(zip(radii, found), start=1):
        dev = np.abs(delta + v0)
        dev = dev[dev < r]
        rows.append(DiscCensusRow(n, r, len(dev), float(dev.max()) if len(dev) else math.nan))
    n0 = max((row.n for row in rows if row.hits != 2), default=0)

    thresh = ((2.0 * n0) ** (2 * m) - (2.0 * n0) ** m) * math.pi ** (2 * m)
    edge = thresh - v0.real
    if edge >= low.complete_below:  # the cone reaches past the cut: grow it
        low = _cut_block(op, n_max, edge - center(m, n_max))
    band = _certified_band(low, max(n0, 1), edge)
    try:
        vals = np.linalg.eigvals(band + np.diag(unperturbed_eigenvalues(m, len(band) // 2))) + v0
    except np.linalg.LinAlgError as exc:  # QR non-convergence
        raise SolverError(f"cone eigensolve failed: {exc}") from exc
    big_m = max(1.0, float(np.max(np.abs(vals.imag)))) + 1.0
    in_cone = (vals.real >= np.abs(vals.imag) - big_m) & (vals.real <= thresh)
    return LocalizationReport(
        m=m, alpha=alpha, R=R, C=C, K=K, n0_empirical=n0, cone_count=int(in_cone.sum()),
        cone_threshold=thresh, cone_M=big_m, disc_rows=tuple(rows),
    )
