"""Dense spectra of the truncated operators and eigenvalue-pair extraction.

Each window takes one LAPACK eigendecomposition with eigenvectors through
numpy (balancing, Hessenberg reduction, implicitly shifted QR); matrices that
are Hermitian up to the scale of B(v) take the symmetric path, so real
potentials yield exactly real spectra.  The eigenvectors serve twice: their
column residuals ||T v - lambda v|| certify every eigenvalue, and each pair,
collected by disc membership around its unperturbed center, is sharpened by
Rayleigh-Ritz of the center-shifted matrix on the span of its two
eigenvectors, which decouples the pair-splitting accuracy from the global
matrix scale.  Pair rows keep those offsets from the center; absolute
eigenvalues are derived from them for output only.
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
    resonant_rows,
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
    """All eigenvalues of the truncated operator op, lexicographically
    ordered and certified by residual_max.  Column order[i] of vectors is the
    unit eigenvector of values[i]; the columns stay in solver order, as
    sorting them would copy the largest array of the solve."""

    values: np.ndarray
    op: TruncatedOperator
    trace_defect: float
    residual_max: float
    vectors: np.ndarray
    order: np.ndarray

    def __post_init__(self):
        for arr in (self.values, self.vectors, self.order):
            arr.setflags(write=False)


def _is_hermitian(mat: np.ndarray) -> bool:
    """Asymmetry against the off-diagonal scale, that of B(v): the diagonal
    of A^m grows like (4K)^{2m} and would hide a non-Hermitian potential."""
    scale = asym = 0.0
    for i in range(0, len(mat), BLOCK):
        rows = mat[i : i + BLOCK]
        mag = np.abs(rows)
        np.fill_diagonal(mag[:, i:], 0.0)
        scale = max(scale, float(np.max(mag)))
        asym = max(asym, float(np.max(np.abs(rows - mat[:, i : i + BLOCK].conj().T))))
    return asym <= HERMITIAN_REL_TOL * (scale or 1.0)


def _residual_max(mat: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> float:
    """Largest ||T v_j - lambda_j v_j|| / ||v_j||."""
    worst = 0.0
    for j in range(0, len(values), BLOCK):
        v = vectors[:, j : j + BLOCK]
        res = np.linalg.norm(mat @ v - v * values[j : j + BLOCK], axis=0)
        worst = max(worst, float(np.max(res / np.linalg.norm(v, axis=0))))
    return worst


def eigenvalues(op: TruncatedOperator) -> EigenList:
    """All 2K eigenvalues of the truncated operator, with multiplicity, and
    their eigenvectors, from one eigendecomposition.

    Matrices that are Hermitian up to the scale of B(v) are routed to the
    symmetric solver after symmetrization.  Every eigenvalue is certified by
    the residual of its eigenvector relative to ||T||_F; SolverError is
    raised if the largest exceeds RESIDUAL_TOL.
    """
    mat = op.matrix
    scale = np.linalg.norm(mat, "fro")
    if not np.isfinite(scale):
        raise ValueError("operator matrix carries non-finite entries")
    scale = scale or 1.0
    try:
        if _is_hermitian(mat):
            vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2.0)
        else:
            vals, vecs = np.linalg.eig(mat)
    except np.linalg.LinAlgError as exc:  # QR non-convergence
        raise SolverError(f"eigen decomposition failed: {exc}") from exc

    residual_max = _residual_max(mat, vals, vecs) / scale
    if residual_max > RESIDUAL_TOL:
        raise SolverError(f"eigenvalue residual {residual_max:.3e} exceeds {RESIDUAL_TOL}")
    order = lexicographic_order(vals)
    vals = vals[order].astype(complex)
    trace_defect = float(abs(vals.sum() - np.trace(mat)) / scale)
    return EigenList(vals, op, trace_defect, residual_max, vecs, order)


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


def _refine_pair(
    mat: np.ndarray,
    c: float,
    resonant: list[int],
    cols: np.ndarray,
    raw: np.ndarray,
    radius: float,
) -> tuple[complex, complex] | None:
    """Center-shifted Rayleigh-Ritz on the span of the pair's two eigenvectors.

    (T - c) w is T w - c w except in the two resonant rows, where the
    diagonal cancels: those use a copy of the rows with the center c taken
    off the diagonal, bit for bit rows of T - c*I.  Elsewhere w is small, so
    no shifted copy of the whole matrix is needed.  Returns the refined pair
    RELATIVE to the center, ordered lexicographically, which keeps the
    splitting meaningful far below one ulp of the center.  Returns None
    (keep the raw offsets) if the two vectors do not span a plane, as for a
    Jordan pair, or if the refinement wanders outside a quarter of the disc.
    """
    w, r = np.linalg.qr(cols)
    if abs(r[1, 1]) <= SPAN_REL_TOL * abs(r[0, 0]):
        return None
    tw = mat @ w - c * w
    shifted = mat[resonant]
    shifted[[0, 1], resonant] -= c
    tw[resonant] = shifted @ w
    h = w.conj().T @ tw
    h_scale = np.max(np.abs(h)) or 1.0
    if np.max(np.abs(h - h.conj().T)) <= 1e-13 * h_scale:
        # Hermitian block: keep the refined pair exactly real
        local = np.linalg.eigvalsh((h + h.conj().T) / 2.0).astype(complex)
    else:
        local = np.linalg.eigvals(h)
        local = local[lexicographic_order(local)]
    if np.max(np.abs(local - raw)) > 0.25 * radius:
        return None
    return complex(local[0]), complex(local[1])


def _pair_offsets(
    eigs: EigenList, n: int, idx: np.ndarray, radius: float
) -> tuple[complex, complex]:
    """Offsets from center(m, n) of the two eigenvalues eigs.values[idx],
    ordered lexicographically: refined by _refine_pair, or raw where the
    refinement declines."""
    c = center(eigs.op.m, n)
    idx = idx[lexicographic_order(eigs.values[idx])]
    raw = eigs.values[idx] - c
    cols = eigs.vectors[:, eigs.order[idx]]
    d = _refine_pair(eigs.op.matrix, c, list(resonant_rows(eigs.op.K, n)), cols, raw, radius)
    return d if d is not None else (complex(raw[0]), complex(raw[1]))


def pair_eigenvalues(
    eigs: EigenList, radius_rule=contour_radius, n_max: int | None = None
) -> EigenPairTable:
    """Collect eigenvalue pairs inside discs around the unperturbed centers.

    For each n up to n_max (default K/4, the trusted quarter of the window)
    the eigenvalues within radius_rule(m, n) of center(m, n) are gathered;
    exactly-two hits become a paired row, whose offsets from the center are
    refined on the span of its two eigenvectors; anything else is flagged
    with its hit count.  The rows carry no zero mode (v0 = 0).
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
    rows = []
    flagged: dict[int, int] = {}
    for n in range(1, n_max + 1):
        c = center(m, n)
        r = radius_rule(m, n)
        idx = np.flatnonzero(np.abs(vals - c) < r)
        if len(idx) != 2:
            flagged[n] = len(idx)
            continue
        d_lo, d_hi = _pair_offsets(eigs, n, idx, r)
        rows.append(EigenPairRow(n, c, d_lo, d_hi, v0=0j, disc_radius_used=r, converged=False))
    return EigenPairTable(m, K, tuple(rows), flagged)


def compute_pair_table(
    v: FourierSequence,
    m: int,
    K: int,
    radius_rule=contour_radius,
    n_max: int | None = None,
) -> EigenPairTable:
    """Spectrum pipeline: split off the zero mode, solve the truncated
    operator and pair around the centers; the rows carry the zero mode."""
    v_norm, v0 = normalize_zero_mode(v)
    table = pair_eigenvalues(eigenvalues(build_T(v_norm, m, K)), radius_rule, n_max=n_max)
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
    return EigenPairTable(table.m, table.K, tuple(rows), dict(table.flagged), reference.K)


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

    n0 = 0
    rows = []
    for n in range(1, n_max + 1):
        r = localization_radius(m, alpha, C, R, n)
        dev = np.abs(vals - center(m, n))
        inside = dev < r
        hits = int(inside.sum())
        if hits == 2:
            # the raw values carry the rounding of the whole solve; the
            # center-shifted offsets resolve the pair far below one ulp of c
            max_dev = max(abs(d + v0) for d in _pair_offsets(eigs, n, np.flatnonzero(inside), r))
        else:
            max_dev = float(np.max(dev[inside])) if hits else math.nan
        rows.append(DiscCensusRow(n=n, radius=r, hits=hits, max_deviation=max_dev))
        if hits != 2:
            n0 = n

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
