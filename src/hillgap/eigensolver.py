"""Dense spectra of the truncated operators and eigenvalue-pair extraction.

A caller that reads only the pairs n <= n_max cuts the window at the modes
|p| <= P (L) and decouples the rest (H) by a similarity: the low invariant
subspace is the graph [I; X] of the H x L solution X of the Riccati equation
T_HL + T_HH X = X (T_LL + T_LH X), found by a fixed point that divides by the
exact gaps mu_h - mu_l.  P starts at 2 n_max - 1 and grows until an a-priori
contraction and separation certificate holds; at the whole window H is empty
and nothing is decoupled.  The certificate and the fixed point take any band
of modes q_lo <= |p| <= q_hi as L: riesz.py decouples a contour's resonant
pair with them.  One LAPACK eigendecomposition with
eigenvectors of the small block T_LL + T_LH X follows (numpy: balancing,
Hessenberg reduction, implicitly shifted QR), rounded at the scale of that
block rather than of ||T||; matrices that are Hermitian up to the scale of
B(v) take the symmetric path on a Hermitian similar block, so real
potentials yield exactly real spectra.  Bauer-Fike on the diagonal of the
high block bounds its eigenvalues away from the pairs: the result holds
every eigenvalue left of complete_below, and reading a disc or contour
that reaches it raises SolverError.

The lifted eigenvectors [w; X w] serve twice: their column residuals
||T v - lambda v|| against the full T certify every eigenvalue, and each
pair, collected by disc membership around its unperturbed center, is
sharpened by Rayleigh-Ritz of the center-shifted matrix on the span of its
two eigenvectors, which decouples the pair-splitting accuracy from the
global matrix scale.  All pairs are refined in one batch: a stacked QR of
their vector pairs and one product of T with every orthonormal basis.
Pair rows keep those offsets from the center; absolute eigenvalues are
derived from them for output only, and the table lists the pairs that kept
their raw offsets as unrefined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .seqspace import FourierSequence, normalize_zero_mode
from .operator import (
    MAX_HALF_WINDOW,
    TruncatedOperator,
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
    "eigenvalues",
    "pair_eigenvalues",
    "compute_pair_table",
    "mark_converged",
    "confirm_window",
    "converge_truncation",
    "LocalizationReport",
    "localization_report",
    "localization_radius",
]

ORDER_TOL_SCALE = 1e-9
RESIDUAL_TOL = 1e-8
HERMITIAN_REL_TOL = 1e-12
SPAN_REL_TOL = 1e-6
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
class EigenList:
    """Eigenvalues of the truncated operator op, with multiplicity,
    lexicographically ordered and certified by residual_max: every
    eigenvalue left of complete_below (all 2K of them when it is infinite)
    and those of the low block beyond it.  Column order[i] of vectors is an
    eigenvector of values[i] over the whole window; the columns stay in
    solver order, as sorting them would copy the largest array of the
    solve.  beta >= ||T - diag(mu)||_2 is the bound the solve certified
    its cut with, kept for the Riesz contours' own decoupling."""

    values: np.ndarray
    op: TruncatedOperator
    trace_defect: float
    residual_max: float
    vectors: np.ndarray
    order: np.ndarray
    beta: float
    complete_below: float = math.inf

    def __post_init__(self):
        for arr in (self.values, self.vectors, self.order):
            arr.setflags(write=False)


def _structure(mat: np.ndarray, mu: np.ndarray) -> tuple[float, float, bool]:
    """||T||_F, beta and whether T is Hermitian, from one pass over T in
    row slabs.

    beta = sqrt(||B||_1 ||B||_inf) >= ||B||_2 for B = T - diag(mu), from the
    largest column and row sums of |B|; at most ||v||_l1 over the window.
    The Hermitian test weighs the asymmetry against the off-diagonal scale,
    that of B(v): the diagonal of A^m grows like (4K)^{2m} and would hide a
    non-Hermitian potential."""
    rows = np.empty(len(mat))
    cols = np.zeros(len(mat))
    diag = np.abs(mat.diagonal() - mu)
    fro2 = scale = asym = 0.0
    for i in range(0, len(mat), BLOCK):
        slab = mat[i : i + BLOCK]
        fro2 += np.vdot(slab, slab).real
        asym = max(asym, float(np.max(np.abs(slab - mat[:, i : i + BLOCK].conj().T))))
        mag = np.abs(slab)
        np.fill_diagonal(mag[:, i:], 0.0)
        scale = max(scale, float(np.max(mag)))
        np.fill_diagonal(mag[:, i:], diag[i : i + BLOCK])
        rows[i : i + BLOCK] = mag.sum(axis=1)
        cols += mag.sum(axis=0)
    beta = math.sqrt(float(np.max(rows)) * float(np.max(cols)))
    return math.sqrt(fro2), beta, asym <= HERMITIAN_REL_TOL * (scale or 1.0)


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


def _decouple(
    mat: np.ndarray, m: int, K: int, band: tuple[int, int], mu: np.ndarray, beta: float
):
    """Split the window into the modes q_lo <= |p| <= q_hi (L) and the rest
    (H), each in window order, and return X, the coupling T_LH X that the
    low block T_LL + T_LH X gains, and rho; mu is the diagonal of A^m and
    beta bounds ||B||_2.

    X solves T_HL + T_HH X = X (T_LL + T_LH X), so [I; X] spans the low
    invariant subspace and the similarity [I 0; -X I] T [I 0; X I] is block
    upper triangular.  It is the fixed point
    X <- -(T_HL + B_HH X - X (B_LL + T_LH X)) / (mu_h - mu_l), B = T - diag(mu),
    stopped once a step falls below RICCATI_TOL ||X||_F; SolverError when it
    does not within RICCATI_MAX_STEPS.  The high block D_H + B_HH - X T_LH
    has its eigenvalues within rho = beta (1 + ||X||_F + step) of the
    diagonal D_H (Bauer-Fike); at the certified rate <= 1/2 the last step
    bounds the distance to the exact X."""
    low, high = _band(K, band)
    p = modes(K)
    gaps = _gaps(m, p[high], p[low])
    t_hl = mat[np.ix_(high, low)]
    t_lh = mat[np.ix_(low, high)]
    b_hh = mat[np.ix_(high, high)]
    b_hh.flat[:: len(high) + 1] -= mu[high]
    b_ll = mat[np.ix_(low, low)] - np.diag(mu[low])
    x = -t_hl / gaps
    for _ in range(RICCATI_MAX_STEPS):
        new = (x @ (b_ll + t_lh @ x) - t_hl - b_hh @ x) / gaps
        step = float(np.linalg.norm(new - x))
        x = new
        if step <= RICCATI_TOL * np.linalg.norm(x):
            break
    else:
        raise SolverError(
            f"Riccati fixed point for the modes {band[0]} <= |p| <= {band[1]} did not "
            f"settle in {RICCATI_MAX_STEPS} steps"
        )
    return x, t_lh @ x, beta * (1.0 + float(np.linalg.norm(x)) + step)


def _hermitian_eig(low: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the low block of a Hermitian T from the Hermitian
    similar block R low R^{-1}, with R^H R = I + X^H X: from
    I + X^H X = U diag(s) U^H, R = diag(sqrt s) U^H, and the eigenvectors
    map back by R^{-1}.  X empty leaves low itself."""
    if not len(x):
        return np.linalg.eigh((low + low.conj().T) / 2.0)
    s, u = np.linalg.eigh(np.eye(len(low)) + x.conj().T @ x)
    root = np.sqrt(s)
    sim = root[:, None] * (u.conj().T @ low @ u) / root
    vals, w = np.linalg.eigh((sim + sim.conj().T) / 2.0)
    return vals, u @ (w / root[:, None])


def eigenvalues(op: TruncatedOperator, n_max: int | None = None) -> EigenList:
    """The eigenvalues of the truncated operator that the pairs n <= n_max
    read, with multiplicity, and their eigenvectors; n_max = None keeps the
    whole window and returns all 2K of them.

    The window is cut at the modes |p| <= P, P from 2 n_max - 1 doubling
    until _cut_certified holds (at most the whole window), the modes above
    are decoupled by _decouple, and one eigendecomposition of the low block
    follows.  Matrices that are Hermitian up to the scale of B(v) are routed
    to the symmetric solver on a Hermitian similar block.  Every eigenvalue
    is certified by the residual of its lifted eigenvector against the full
    T, relative to ||T||_F; SolverError is raised if the largest exceeds
    RESIDUAL_TOL, as it is for a Riccati fixed point that does not settle.
    """
    if n_max is not None and n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    mat, K = op.matrix, op.K
    mu = unperturbed_eigenvalues(op.m, K)
    scale, beta, hermitian = _structure(mat, mu)
    if not math.isfinite(scale):
        raise ValueError("operator matrix carries non-finite entries")
    scale = scale or 1.0
    j = K if n_max is None else min(n_max, K)
    while j < K and not _cut_certified(
        mat, op.m, K, (1, 2 * j - 1), beta, center(op.m, n_max), contour_radius(op.m, n_max)
    ):
        j = min(2 * j, K)
    if j < K:
        x, coupling, rho = _decouple(mat, op.m, K, (1, 2 * j - 1), mu, beta)
        low = mat[K - j : K + j, K - j : K + j] + coupling
        complete_below = center(op.m, j + 1) - rho
    else:
        x, low, complete_below = np.zeros((0, 2 * K), dtype=complex), mat, math.inf
    try:
        if hermitian:
            vals, vecs = _hermitian_eig(low, x)
        else:
            vals, vecs = np.linalg.eig(low)
    except np.linalg.LinAlgError as exc:  # QR non-convergence
        raise SolverError(f"eigen decomposition failed: {exc}") from exc
    if len(x):
        # lift to [w; X w], the rows of X w back in window order around the low rows
        xw = x @ vecs
        vecs = np.concatenate((xw[: K - j], vecs, xw[K - j :]))

    residual_max = _residual_max(mat, vals, vecs) / scale
    if residual_max > RESIDUAL_TOL:
        raise SolverError(f"eigenvalue residual {residual_max:.3e} exceeds {RESIDUAL_TOL}")
    order = lexicographic_order(vals)
    vals = vals[order].astype(complex)
    trace_defect = float(abs(vals.sum() - np.trace(low)) / scale)
    return EigenList(vals, op, trace_defect, residual_max, vecs, order, beta, complete_below)


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

def localization_radius(m: int, alpha: float, C: float, R: float, n: int) -> float:
    """Localization disc radius 3^m sqrt(2) C R (2n-1)^{m alpha}."""
    return 3.0**m * math.sqrt(2.0) * C * R * float(2 * n - 1) ** (m * alpha)


@dataclass(frozen=True)
class EigenPairRow:
    """One pair, stored as its offsets d_lo, d_hi from center(m, n) in the
    zero-mode-normalized frame, next to the zero mode v0 split off before the
    solve.  The absolute values are derived from these for output only, so
    every remainder keeps the precision of the center-shifted frame."""

    n: int
    center: float
    d_lo: complex
    d_hi: complex
    v0: complex
    disc_radius_used: float
    converged: bool

    def _absolute(self, d: complex) -> complex:
        lam = self.center + d
        return lam + self.v0 if self.v0 else lam

    @property
    def d_tau(self) -> complex:
        return (self.d_lo + self.d_hi) / 2.0

    @property
    def lambda_lo(self) -> complex:
        return self._absolute(self.d_lo)

    @property
    def lambda_hi(self) -> complex:
        return self._absolute(self.d_hi)

    @property
    def tau(self) -> complex:
        return self._absolute(self.d_tau)

    @property
    def gamma(self) -> complex:
        return self.d_hi - self.d_lo


@dataclass(frozen=True)
class EigenPairTable:
    m: int
    K: int
    rows: tuple[EigenPairRow, ...]
    flagged: dict[int, int] = field(default_factory=dict)
    confirm_K: int | None = None  # the window the converged flags were compared against
    unrefined: tuple[int, ...] = ()  # rows whose refinement declined and kept the raw offsets

    def row(self, n: int) -> EigenPairRow:
        for r in self.rows:
            if r.n == n:
                return r
        raise KeyError(f"no paired row for n = {n}")


def _check_disc_overlap(m: int, radius_rule, n_max: int):
    for n in range(1, n_max):
        if center(m, n + 1) - center(m, n) <= radius_rule(m, n) + radius_rule(m, n + 1):
            raise PairingConfigError(
                f"pairing discs for n = {n} and n = {n + 1} overlap"
            )


def _pair_offsets(
    eigs: EigenList, ns: list[int], idx: list[np.ndarray], radii: list[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Offsets from center(m, n) of the pairs eigs.values[idx[i]], n = ns[i],
    each ordered lexicographically, and a mask of the pairs left raw.

    All pairs are sharpened together by center-shifted Rayleigh-Ritz on the
    span of their two eigenvectors: one stacked QR gives the orthonormal
    bases W and one product T W serves every pair.  (T - c) w is T w - c w
    except in the two resonant rows, where the diagonal cancels: those use
    copies of the rows with the center c taken off the diagonal, bit for bit
    rows of T - c*I.  Elsewhere w is small, so no shifted copy of the whole
    matrix is needed.  Offsets RELATIVE to the center keep the splitting
    meaningful far below one ulp of the center.  A pair keeps its raw
    offsets if its two vectors do not span a plane, as for a Jordan pair, or
    if the refinement wanders outside a quarter of its disc of radius radii[i].
    """
    if not ns:
        return np.zeros((0, 2), dtype=complex), np.zeros(0, dtype=bool)
    mat, m, K = eigs.op.matrix, eigs.op.m, eigs.op.K
    c = np.array([center(m, n) for n in ns])
    idx = np.array([i[lexicographic_order(eigs.values[i])] for i in idx])
    raw = eigs.values[idx] - c[:, None]
    w, r = np.linalg.qr(eigs.vectors[:, eigs.order[idx]].transpose(1, 0, 2))
    # one product T W for the (2K, 2N) columns of all bases
    tw = mat @ w.transpose(1, 0, 2).reshape(2 * K, -1)
    tw = tw.reshape(2 * K, -1, 2).transpose(1, 0, 2) - c[:, None, None] * w
    res = np.array([resonant_rows(K, n) for n in ns])
    shifted = mat[res]
    pick = np.arange(len(ns))[:, None]
    shifted[pick, [0, 1], res] -= c[:, None]
    tw[pick, res] = shifted @ w
    h = w.conj().transpose(0, 2, 1) @ tw
    hh = h.conj().transpose(0, 2, 1)
    h_scale = np.max(np.abs(h), axis=(1, 2))
    # Hermitian blocks keep their refined pair exactly real
    herm = np.max(np.abs(h - hh), axis=(1, 2)) <= 1e-13 * np.where(h_scale > 0, h_scale, 1.0)
    local = np.empty_like(raw)
    if herm.any():
        local[herm] = np.linalg.eigvalsh((h[herm] + hh[herm]) / 2.0)
    if not herm.all():
        vals = np.linalg.eigvals(h[~herm])
        local[~herm] = [pair[lexicographic_order(pair)] for pair in vals]
    raw_kept = (np.abs(r[:, 1, 1]) <= SPAN_REL_TOL * np.abs(r[:, 0, 0])) | (
        np.max(np.abs(local - raw), axis=1) > 0.25 * np.array(radii)
    )
    return np.where(raw_kept[:, None], raw, local), raw_kept


def pair_eigenvalues(
    eigs: EigenList, radius_rule=contour_radius, n_max: int | None = None
) -> EigenPairTable:
    """Collect eigenvalue pairs inside discs around the unperturbed centers.

    For each n up to n_max (default K/4, the trusted quarter of the window)
    the eigenvalues within radius_rule(m, n) of center(m, n) are gathered;
    exactly-two hits become a paired row, whose offsets from the center are
    refined on the span of its two eigenvectors; anything else is flagged
    with its hit count.  The rows carry no zero mode (v0 = 0).  A disc that
    reaches eigs.complete_below, past which the solve left eigenvalues out,
    raises SolverError.
    """
    m, K = eigs.op.m, eigs.op.K
    if n_max is None:
        n_max = K // 4
    if K < 4 * n_max:
        raise PairingConfigError(
            f"window K = {K} too small for n_max = {n_max} (need K >= 4 n_max)"
        )
    _check_disc_overlap(m, radius_rule, n_max)

    vals = eigs.values
    ns, idx, radii = [], [], []
    flagged: dict[int, int] = {}
    for n in range(1, n_max + 1):
        c = center(m, n)
        r = radius_rule(m, n)
        if c + r >= eigs.complete_below:
            raise SolverError(
                f"pairing disc n = {n} reaches {eigs.complete_below:.17g}, "
                "past which the solve left eigenvalues out"
            )
        hits = np.flatnonzero(np.abs(vals - c) < r)
        if len(hits) != 2:
            flagged[n] = len(hits)
            continue
        ns.append(n)
        idx.append(hits)
        radii.append(r)
    offsets, raw_kept = _pair_offsets(eigs, ns, idx, radii)
    rows = tuple(
        EigenPairRow(n, center(m, n), complex(lo), complex(hi), 0j, r, converged=False)
        for n, (lo, hi), r in zip(ns, offsets, radii)
    )
    unrefined = tuple(n for n, kept in zip(ns, raw_kept) if kept)
    return EigenPairTable(m, K, rows, flagged, unrefined=unrefined)


def compute_pair_table(
    v: FourierSequence,
    m: int,
    K: int,
    radius_rule=contour_radius,
    n_max: int | None = None,
) -> EigenPairTable:
    """Spectrum pipeline: split off the zero mode, solve the truncated
    operator for the pairs n <= n_max (default K/4) and pair around the
    centers; the rows carry the zero mode."""
    v_norm, v0 = normalize_zero_mode(v)
    if n_max is None:
        n_max = K // 4
    eigs = eigenvalues(build_T(v_norm, m, K), n_max=n_max)
    table = pair_eigenvalues(eigs, radius_rule, n_max=n_max)
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
    max_deviation: float  # largest |lambda - center| among the hits; nan if none


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
    holds exactly two eigenvalues inside radius 3^m sqrt(2) C R (2n-1)^{m a};
    the cone census counts eigenvalues left of ((2n0)^{2m}-(2n0)^m) pi^{2m}
    with the cone opening M set just above the largest imaginary part seen,
    so the left edge is inactive at truncation.
    """
    v_norm, v0 = normalize_zero_mode(v)
    eigs = eigenvalues(build_T(v_norm, m, K))
    vals = eigs.values + v0
    n_max = K // 4

    rows, pairs = [], {}
    for n in range(1, n_max + 1):
        r = localization_radius(m, alpha, C, R, n)
        dev = np.abs(vals - center(m, n))
        inside = np.flatnonzero(dev < r)
        if len(inside) == 2:
            pairs[n - 1] = inside
        max_dev = float(np.max(dev[inside])) if len(inside) else math.nan
        rows.append(DiscCensusRow(n=n, radius=r, hits=len(inside), max_deviation=max_dev))
    # the raw values carry the rounding of the whole solve; the center-shifted
    # offsets resolve each pair far below one ulp of c
    paired = list(pairs)
    offsets, _ = _pair_offsets(
        eigs, [i + 1 for i in paired], list(pairs.values()), [rows[i].radius for i in paired]
    )
    for i, d in zip(paired, offsets):
        rows[i] = replace(rows[i], max_deviation=max(abs(complex(x) + v0) for x in d))
    n0 = max((row.n for row in rows if row.hits != 2), default=0)

    big_m = max(1.0, float(np.max(np.abs(vals.imag)))) + 1.0
    thresh = ((2.0 * n0) ** (2 * m) - (2.0 * n0) ** m) * math.pi ** (2 * m)
    in_cone = (vals.real >= np.abs(vals.imag) - big_m) & (vals.real <= thresh)
    return LocalizationReport(
        m=m,
        alpha=alpha,
        R=R,
        C=C,
        K=K,
        n0_empirical=n0,
        cone_count=int(in_cone.sum()),
        cone_threshold=thresh,
        cone_M=big_m,
        disc_rows=tuple(rows),
    )
