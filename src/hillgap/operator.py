"""Truncated operator assembly and resolvent-side estimates.

The odd-mode window is {2k-1 : -K+1 <= k <= K}, a symmetric lattice of
dimension 2K that keeps every resonant pair +-(2n-1) with n <= K fully
inside.  Matrices are dense; Toeplitz-aware algorithms are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seqspace import FourierSequence, Parity, ParityError

__all__ = [
    "TruncatedOperator",
    "SpectrumCollisionError",
    "modes",
    "unperturbed_eigenvalues",
    "center",
    "contour_radius",
    "resonant_rows",
    "build_A",
    "build_B",
    "build_T",
    "ResolventFactors",
    "build_resolvent_factors",
    "factorization_residual",
    "hs_norm_S",
    "op_norm_S",
    "ext_bound",
    "vert_bound",
    "vert_bound_combined",
    "vert_min_n",
    "ElementaryBoundsReport",
    "elementary_bounds_check",
    "eq506_margin",
    "resolvent_shifted_norm",
    "ExtRegion",
    "VertRegion",
]

MAX_HALF_WINDOW = 1024
COLLISION_TOL = 1e-10  # relative to 1 + |lambda| + mu


class SpectrumCollisionError(ValueError):
    """lambda is (numerically) an unperturbed eigenvalue."""


def modes(K: int) -> np.ndarray:
    """Odd modes 2k-1 for k in [-K+1, K], ascending; length 2K."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    return 2 * np.arange(-K + 1, K + 1) - 1


def unperturbed_eigenvalues(m: int, K: int) -> np.ndarray:
    """Diagonal of A^m over the window: center(m, n) at both modes +-(2n-1),
    so it is mirror-symmetric at every m."""
    half = np.array([center(m, n) for n in range(1, K + 1)])
    return np.concatenate((half[::-1], half))


def center(m: int, n: int) -> float:
    """Center (2n-1)^{2m} pi^{2m} of the n-th pair: the double eigenvalue of
    A^m on the resonant modes +-(2n-1), as the exact integer (2n-1)^{2m}
    rounded once, times pi^{2m}."""
    return float(int(2 * n - 1) ** (2 * m)) * math.pi ** (2 * m)


def contour_radius(m: int, n: int) -> float:
    """Radius (2n-1)^m of the Riesz contour around center(m, n), which is
    also the default pairing-disc radius."""
    return float(2 * n - 1) ** m


def resonant_rows(K: int, n: int) -> tuple[int, int]:
    """Window rows of the resonant modes -(2n-1) and 2n-1."""
    return K - n, K + n - 1


@dataclass(frozen=True)
class TruncatedOperator:
    m: int
    K: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = 2 * self.K
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match window dimension {dim}"
            )
        self.matrix.setflags(write=False)

    @property
    def modes(self) -> np.ndarray:
        return modes(self.K)


def _check_even_potential(v: FourierSequence):
    if v.parity is not Parity.EVEN:
        raise ParityError("potentials must live on the even lattice")


def _coeff_lookup(v: FourierSequence, K: int) -> np.ndarray:
    """Coefficients v(d) over even differences d in [-(4K-2), 4K-2]."""
    span = 4 * K - 2
    table = np.zeros(span + 1, dtype=complex)  # index (d + span) // 2
    for k, val in v.coeffs.items():
        if abs(k) <= span:
            table[(k + span) // 2] = val
    return table


def build_A(m: int, K: int) -> TruncatedOperator:
    """The diagonal free operator A^m on the odd-mode window."""
    _check_build_args(m, K)
    return TruncatedOperator(m, K, np.diag(unperturbed_eigenvalues(m, K)).astype(complex))


def _toeplitz(table: np.ndarray, K: int) -> np.ndarray:
    """Dense matrix with entry (i, j) = table[i - j + 2K - 1]: each row is a
    window of the reversed coefficient table, gathered without index arrays."""
    windows = np.lib.stride_tricks.sliding_window_view(table[::-1], 2 * K)
    return windows[::-1].copy()


def build_B(v: FourierSequence, m: int, K: int) -> TruncatedOperator:
    """The convolution operator B(v), Toeplitz along the odd lattice:
    entry (2k-1, 2j-1) = v(2k-2j)."""
    _check_build_args(m, K)
    _check_even_potential(v)
    return TruncatedOperator(m, K, _toeplitz(_coeff_lookup(v, K), K))


def build_T(v: FourierSequence, m: int, K: int) -> TruncatedOperator:
    """T = A^m + B(v), with the diagonal of A^m added onto B(v) in place.

    Adding +0.0 to the coefficient table turns -0.0 into +0.0 the way the
    zeros of A^m do, so the matrix is bit for bit the sum A^m + B(v)."""
    _check_build_args(m, K)
    _check_even_potential(v)
    mat = _toeplitz(_coeff_lookup(v, K) + 0.0, K)
    mat.flat[:: 2 * K + 1] += unperturbed_eigenvalues(m, K)
    return TruncatedOperator(m, K, mat)


def _check_build_args(m: int, K: int):
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 1 <= K <= MAX_HALF_WINDOW:
        raise ValueError(f"K must lie in [1, {MAX_HALF_WINDOW}], got {K}")


@dataclass(frozen=True)
class ResolventFactors:
    """Factors of lambda - A^m - B(v) = A_lam^{m/2} (I_lam - S_lam) A_lam^{m/2}.

    a_half and i_lam are the diagonals of the two diagonal factors; working
    with the unimodular I_lam avoids complex square roots.
    """

    a_half: np.ndarray
    i_lam: np.ndarray
    s_lam: np.ndarray


def _unperturbed_distance(m: int, K: int, lam: complex) -> tuple[np.ndarray, np.ndarray]:
    """The window's unperturbed spectrum mu and |lambda - mu|; raises
    SpectrumCollisionError when lambda sits within COLLISION_TOL of it."""
    mu = unperturbed_eigenvalues(m, K)
    dist = np.abs(lam - mu)
    bad = dist < COLLISION_TOL * (1.0 + abs(lam) + mu)
    if np.any(bad):
        raise SpectrumCollisionError(
            f"lambda = {lam} collides with unperturbed eigenvalue {mu[np.argmax(bad)]}"
        )
    return mu, dist


def build_resolvent_factors(
    v: FourierSequence, m: int, K: int, lam: complex
) -> ResolventFactors:
    """Build A_lam^{m/2}, I_lam, S_lam at the point lambda.

    Requires v(0) = 0 (normalize the zero mode first) and lambda off the
    truncated unperturbed spectrum.
    """
    _check_build_args(m, K)
    _check_even_potential(v)
    if v(0) != 0:
        raise ValueError("resolvent factors require a zero-mode-normalized potential")
    lam = complex(lam)
    mu, dist = _unperturbed_distance(m, K, lam)
    a_half = np.sqrt(dist)
    i_lam = (lam - mu) / dist
    b = build_B(v, m, K).matrix
    s_lam = b / np.outer(a_half, a_half)
    return ResolventFactors(a_half, i_lam, s_lam)


def factorization_residual(v: FourierSequence, m: int, K: int, lam: complex) -> float:
    """Max-entry defect of the factorization identity at lambda."""
    f = build_resolvent_factors(v, m, K, lam)
    lhs = complex(lam) * np.eye(2 * K) - build_T(v, m, K).matrix
    core = np.diag(f.i_lam) - f.s_lam
    rhs = f.a_half[:, None] * core * f.a_half[None, :]
    return float(np.max(np.abs(lhs - rhs)))


def hs_norm_S(factors: ResolventFactors) -> float:
    """Hilbert-Schmidt (Frobenius) norm of S_lambda."""
    return float(np.linalg.norm(factors.s_lam, "fro"))


def op_norm_S(factors: ResolventFactors) -> float:
    """Operator norm of S_lambda: its largest singular value (LAPACK SVD)."""
    return float(np.linalg.norm(factors.s_lam, 2))


# ---------------------------------------------------------------------------
# bound formulas
# ---------------------------------------------------------------------------

def ext_bound(m: int, alpha: float, M: float, v_norm: float) -> float:
    """Hilbert-Schmidt bound for S_lambda on the left cone Ext_M:
    2^{2m+1} ||v|| M^{-((1-alpha)/2 + 1/4)}."""
    if M < 1:
        raise ValueError(f"Ext region requires M >= 1, got {M}")
    return 2.0 ** (2 * m + 1) * v_norm * M ** (-((1.0 - alpha) / 2.0 + 0.25))


def vert_min_n(m: int) -> float:
    """Least admissible strip index (8m^2 + 4m - 7) / (2(8m - 7))."""
    return (8 * m * m + 4 * m - 7) / (2.0 * (8 * m - 7))


def _check_vert_args(m: int, n: int, r_n: float):
    if n < vert_min_n(m):
        raise ValueError(f"strip index n = {n} below the admissible threshold for m = {m}")
    if not 0.0 < r_n < contour_radius(m, n) * math.pi ** (2 * m):
        raise ValueError(f"r_n = {r_n} outside (0, (2n-1)^m pi^{2 * m})")


def _vert_tail(m: int, alpha: float, n: int, r_n: float, v_norm: float) -> float:
    q = 2 * n - 1
    return (
        4.0
        * (2.0 / math.pi) ** m
        * (
            q ** (m * (alpha - 1.0 + 1.0 / (2 * m))) / math.sqrt(r_n)
            + 6.0 * math.log(q) / q ** (m * (1.0 - alpha))
        )
        * v_norm
    )


def vert_bound(
    m: int,
    alpha: float,
    n: int,
    r_n: float,
    v_norm: float,
    v_resonant: tuple[complex, complex],
) -> float:
    """Operator-norm bound for S_lambda on the punctured strip, carrying the
    resonant coefficients v(+-2(2n-1)) explicitly."""
    _check_vert_args(m, n, r_n)
    res = (abs(v_resonant[0]) + abs(v_resonant[1])) / r_n
    return res + _vert_tail(m, alpha, n, r_n, v_norm)


def vert_bound_combined(
    m: int, alpha: float, n: int, r_n: float, v_norm: float
) -> float:
    """Same strip bound with the resonant term replaced by its norm estimate
    3^m sqrt(2) ||v|| (2n-1)^{m alpha} / r_n."""
    _check_vert_args(m, n, r_n)
    res = 3.0**m * math.sqrt(2.0) * (2 * n - 1) ** (m * alpha) * v_norm / r_n
    return res + _vert_tail(m, alpha, n, r_n, v_norm)


@dataclass(frozen=True)
class ElementaryBoundsReport:
    m: int
    alpha: float
    n: int
    cutoff: int
    sup_a: float
    bound_a: float
    sup_b: float
    bound_b: float
    sum_c: float
    bound_c: float
    all_hold: bool


def elementary_bounds_check(
    m: int, alpha: float, n: int, cutoff: int | None = None
) -> ElementaryBoundsReport:
    """Evaluate the three elementary lattice estimates against their bounds.

    (a) sup_{k != +-n} <k>^{m a} / |k^{2m} - n^{2m}|^{1/2} <= 3^{m a} n^{m(a-1+1/(2m))}
    (b) the same sup with weight <k +- n>^{m a} against 4^{m a} n^{m(a-1+1/(2m))}
    (c) sum_{k != +-n} 1 / |k^{2m} - n^{2m}|      <= 5 (1 + log n) / n

    The sum in (c) uses the first power of the gap; with the square root it
    diverges already for m = 1, so the first power is the only reading under
    which the estimate can hold.  Sups and the sum run over |k| <= cutoff and
    certified tail bounds are added, so the check is conservative.
    """
    if n < m:
        raise ValueError(f"requires n >= m, got n = {n}, m = {m}")
    if cutoff is None:
        cutoff = 16 * n
    if cutoff < 16 * n:
        raise ValueError(f"cutoff must be >= 16 n = {16 * n}, got {cutoff}")

    k = np.arange(-cutoff, cutoff + 1)
    k = k[(k != n) & (k != -n)].astype(float)
    gap = np.abs(k ** (2 * m) - float(n) ** (2 * m))
    root_gap = np.sqrt(gap)

    wa = (1.0 + np.abs(k)) ** (m * alpha)
    sup_a = float(np.max(wa / root_gap))
    wb = np.maximum((1.0 + np.abs(k + n)) ** (m * alpha), (1.0 + np.abs(k - n)) ** (m * alpha))
    sup_b = float(np.max(wb / root_gap))
    sum_c = float(np.sum(1.0 / gap))

    # certified tails for |k| > cutoff >= 16 n
    ratio = (n / cutoff) ** (2 * m)
    safety = 1.0 / (1.0 - ratio)
    kc = float(cutoff + 1)
    tail_sup = (2.0 * kc) ** (m * alpha) / kc**m * math.sqrt(safety)
    if alpha < 1.0:
        sup_a = max(sup_a, tail_sup)
        sup_b = max(sup_b, tail_sup)
    else:
        cap = 2.0**m * math.sqrt(safety)
        sup_a = max(sup_a, cap)
        sup_b = max(sup_b, cap)
    if m == 1:
        # partial fractions: sum_{k>cutoff} 1/(k^2-n^2) telescopes
        tail_c = 2.0 / (cutoff - n)
    else:
        tail_c = 2.0 * safety * (kc ** (-2 * m) + kc ** (1 - 2 * m) / (2 * m - 1))
    sum_c += tail_c

    exp_ab = m * (alpha - 1.0 + 1.0 / (2 * m))
    bound_a = 3.0 ** (m * alpha) * float(n) ** exp_ab
    bound_b = 4.0 ** (m * alpha) * float(n) ** exp_ab
    bound_c = 5.0 * (1.0 + math.log(n)) / n

    slack = 1.0 + 1e-12
    all_hold = (
        sup_a <= bound_a * slack and sup_b <= bound_b * slack and sum_c <= bound_c * slack
    )
    return ElementaryBoundsReport(
        m, alpha, n, cutoff, sup_a, bound_a, sup_b, bound_b, sum_c, bound_c, all_hold
    )


def eq506_margin(m: int, n: int, samples: int = 32, K: int = 64) -> float:
    """Worst ratio of 1/|lambda - k^{2m} pi^{2m}| against its gap comparison
    (3/pi^{2m}) / |k^{2m} - (2n-1)^{2m}|, over sampled strip-boundary lambda
    and every odd k != +-(2n-1) in the window.  At most 1 when the
    comparison holds."""
    if n < vert_min_n(m):
        raise ValueError(f"strip index n = {n} below the admissible threshold for m = {m}")
    region = VertRegion(n=n, r_n=contour_radius(m, n), m=m)
    pts = region.boundary_points(samples)
    ks = modes(K).astype(float)
    off = np.abs(np.abs(ks) - (2 * n - 1)) > 0.5
    ks = ks[off]
    mu = unperturbed_eigenvalues(m, K)[off]
    rhs = (3.0 / math.pi ** (2 * m)) / np.abs(ks ** (2 * m) - float(2 * n - 1) ** (2 * m))
    worst = 0.0
    for lam in pts:
        lhs = 1.0 / np.abs(lam - mu)
        worst = max(worst, float(np.max(lhs / rhs)))
    return worst


def resolvent_shifted_norm(
    m: int,
    lam: complex,
    s: float,
    t: float,
    shift_in: int,
    shift_out: int,
    K: int,
) -> float:
    """Norm of the diagonal resolvent (lambda - A^m)^{-1} between shifted
    weighted spaces: sup over window modes p of
    <p + shift_out>^{m s} <p + shift_in>^{-m t} / |lambda - p^{2m} pi^{2m}|."""
    p = modes(K).astype(float)
    _, dist = _unperturbed_distance(m, K, complex(lam))
    w_out = (1.0 + np.abs(p + shift_out)) ** (m * s)
    w_in = (1.0 + np.abs(p + shift_in)) ** (-m * t)
    return float(np.max(w_out * w_in / dist))


# ---------------------------------------------------------------------------
# spectral regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtRegion:
    """Left cone Ext_M = {Re lambda <= |Im lambda| - M}."""

    M: float

    def __post_init__(self):
        if self.M < 1:
            raise ValueError(f"Ext region requires M >= 1, got {self.M}")

    def contains(self, lam: complex) -> bool:
        return lam.real <= abs(lam.imag) - self.M

    def boundary_points(self, count: int) -> np.ndarray:
        """Points on the cone boundary Re = |Im| - M, clustered near the apex
        (the apex lambda = -M is always included)."""
        half = max(1, (count - 1) // 2)
        ts = self.M * (2.0 ** np.arange(half) / 2.0 ** (half - 1)) * 4.0
        ts = np.concatenate([[0.0], ts, -ts])[:count]
        return np.array([complex(abs(t) - self.M, t) for t in ts])


@dataclass(frozen=True)
class VertRegion:
    """Punctured vertical strip around (2n-1)^{2m} pi^{2m}: |Re z| bounded by
    (2n-1)^m pi^{2m}, |z| >= r_n."""

    n: int
    r_n: float
    m: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("strip index must be >= 1")
        if not 0.0 < self.r_n < self.half_width:
            raise ValueError(
                f"r_n = {self.r_n} outside (0, (2n-1)^m pi^(2m)) for n = {self.n}"
            )

    @property
    def center(self) -> float:
        return center(self.m, self.n)

    @property
    def half_width(self) -> float:
        return contour_radius(self.m, self.n) * math.pi ** (2 * self.m)

    def contains(self, lam: complex) -> bool:
        z = complex(lam) - self.center
        return abs(z.real) <= self.half_width and abs(z) >= self.r_n

    def boundary_points(self, count: int) -> np.ndarray:
        """Samples of the region boundary: the removed circle |z| = r_n plus
        the two vertical edges (nearest-to-axis points included)."""
        n_circle = max(4, count // 2)
        theta = 2.0 * math.pi * np.arange(n_circle) / n_circle
        circle = self.center + self.r_n * np.exp(1j * theta)
        n_line = max(1, (count - n_circle) // 4)
        ims = self.half_width * 2.0 ** np.arange(n_line) / 2.0 ** (n_line - 1)
        ims = np.concatenate([[0.0], ims, -ims])
        lines = np.concatenate(
            [self.center + self.half_width + 1j * ims, self.center - self.half_width + 1j * ims]
        )
        return np.concatenate([circle, lines])
