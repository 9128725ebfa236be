"""The lemma sweep of the `lemmas` command, the only one that loads this
module: the factorization lambda - T = A_lam^{m/2} (I_lam - S_lam) A_lam^{m/2},
the estimates of S_lam on the left cone Ext_M and the punctured strips, the
elementary lattice estimates, the strip resolvent comparison (5.06) and the
diagonal resolvent between shifted spaces, each against its bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cli import LemmaBoundFailure, RunConfig, fmt, write_table
from .operator import (
    _check_build_args, build_B, build_T, center, contour_radius, modes, unperturbed_eigenvalues,
)
from .seqspace import FourierSequence, decay_exponent, rough_potential, weighted_norm

COLLISION_TOL = 1e-10  # relative to 1 + |lambda| + mu


class SpectrumCollisionError(ValueError):
    """lambda is (numerically) an unperturbed eigenvalue."""


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
    sup_a: float
    bound_a: float
    sup_b: float
    bound_b: float
    sum_c: float
    bound_c: float
    all_hold: bool


def elementary_bounds_check(m: int, alpha: float, n: int) -> ElementaryBoundsReport:
    """Evaluate the three elementary lattice estimates against their bounds.

    (a) sup_{k != +-n} <k>^{m a} / |k^{2m} - n^{2m}|^{1/2} <= 3^{m a} n^{m(a-1+1/(2m))}
    (b) the same sup with weight <k +- n>^{m a} against 4^{m a} n^{m(a-1+1/(2m))}
    (c) sum_{k != +-n} 1 / |k^{2m} - n^{2m}|      <= 5 (1 + log n) / n

    The sum in (c) uses the first power of the gap; with the square root it
    diverges already for m = 1, so the first power is the only reading under
    which the estimate can hold.  Sups and the sum run over |k| <= 16 n and
    certified tail bounds are added, so the check is conservative.
    """
    if n < m:
        raise ValueError(f"requires n >= m, got n = {n}, m = {m}")
    cutoff = 16 * n

    k = np.arange(-cutoff, cutoff + 1)
    k = k[(k != n) & (k != -n)].astype(float)
    gap = np.abs(k ** (2 * m) - float(n) ** (2 * m))
    root_gap = np.sqrt(gap)

    wa = (1.0 + np.abs(k)) ** (m * alpha)
    sup_a = float(np.max(wa / root_gap))
    wb = np.maximum((1.0 + np.abs(k + n)) ** (m * alpha), (1.0 + np.abs(k - n)) ** (m * alpha))
    sup_b = float(np.max(wb / root_gap))
    sum_c = float(np.sum(1.0 / gap))

    # certified tails for |k| > cutoff
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
    return ElementaryBoundsReport(sup_a, bound_a, sup_b, bound_b, sum_c, bound_c, all_hold)


def eq506_margin(m: int, n: int, K: int = 64) -> float:
    """Worst ratio of 1/|lambda - k^{2m} pi^{2m}| against its gap comparison
    (3/pi^{2m}) / |k^{2m} - (2n-1)^{2m}|, over the strip-boundary points
    lambda of vert_boundary and every odd k != +-(2n-1) in the window.  At
    most 1 when the comparison holds."""
    pts = vert_boundary(m, n, contour_radius(m, n))
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

def ext_boundary(M: float) -> np.ndarray:
    """31 points on the boundary Re = |Im| - M of the left cone
    Ext_M = {Re lambda <= |Im lambda| - M}, clustered near the apex lambda = -M
    (included)."""
    if M < 1:
        raise ValueError(f"Ext region requires M >= 1, got {M}")
    ts = M * (2.0 ** np.arange(15) / 2.0**14) * 4.0
    ts = np.concatenate([[0.0], ts, -ts])
    return (np.abs(ts) - M) + 1j * ts


def vert_boundary(m: int, n: int, r_n: float) -> np.ndarray:
    """34 points on the boundary of the punctured vertical strip around
    c = (2n-1)^{2m} pi^{2m}, |Re (lambda - c)| <= (2n-1)^m pi^{2m} and
    |lambda - c| >= r_n: 16 on the removed circle and 9 on each vertical
    edge, the nearest-to-axis points included."""
    _check_vert_args(m, n, r_n)
    c, half_width = center(m, n), contour_radius(m, n) * math.pi ** (2 * m)
    theta = 2.0 * math.pi * np.arange(16) / 16
    ims = half_width * 2.0 ** np.arange(4) / 2.0**3
    ims = np.concatenate([[0.0], ims, -ims])
    return np.concatenate([c + r_n * np.exp(1j * theta), c + half_width + 1j * ims,
                           c - half_width + 1j * ims])


LEMMA_COLUMNS = ["check", "m", "alpha", "n", "computed", "bound", "holds", "reason"]
LEMMA_ALPHAS = (0.0, 0.25, 0.5, 0.75)
LEMMA_MS = (1, 2, 3)
EXT_MS = (4.0, 16.0, 100.0)


def _lemma_potential(m: int, alpha: float, seed: int, K: int) -> FourierSequence:
    return rough_potential(m, alpha, 4 * K - 2, radius=1.0, seed=seed)


def run_lemmas(cfg: RunConfig, K: int) -> int:
    """The lemma sweep of the `lemmas` command on the window K."""
    rows = []
    failed = False

    def add(check, m, alpha, n, computed, bound, reason=""):
        nonlocal failed
        if reason:
            rows.append([check, m, fmt(alpha), n, "", "", "skip", reason])
            return
        holds = bool(computed <= bound * (1.0 + 1e-12))
        failed = failed or not holds
        rows.append([check, m, fmt(alpha), n, fmt(float(computed)), fmt(float(bound)), holds, ""])

    # elementary lattice estimates over the full grid
    for m in LEMMA_MS:
        for alpha in LEMMA_ALPHAS:
            for n in range(1, cfg.n_max + 1):
                if n < m:
                    add("elementary", m, alpha, n, None, None, reason="n < m precondition")
                    continue
                rep = elementary_bounds_check(m, alpha, n)
                add("elementary_a", m, alpha, n, rep.sup_a, rep.bound_a)
                add("elementary_b", m, alpha, n, rep.sup_b, rep.bound_b)
                add("elementary_c", m, alpha, n, rep.sum_c, rep.bound_c)

    # strip resolvent comparison
    for m in LEMMA_MS:
        n_lo = math.ceil(vert_min_n(m))
        for n in range(n_lo, min(64, cfg.n_max) + 1):
            add("eq506", m, "", n, eq506_margin(m, n, K=K), 1.0)

    # Hilbert-Schmidt bound on the left cone
    for m in LEMMA_MS:
        for alpha in LEMMA_ALPHAS:
            v = _lemma_potential(m, alpha, cfg.seed, K)
            v_norm = weighted_norm(v, -m * alpha)
            for big_m in EXT_MS:
                worst = 0.0
                for lam in ext_boundary(big_m):
                    worst = max(worst, hs_norm_S(build_resolvent_factors(v, m, K, lam)))
                add("ext_hs", m, alpha, int(big_m), worst, ext_bound(m, alpha, big_m, v_norm))

    # operator-norm bound on the punctured strips, raw and combined forms
    alpha = cfg.alpha
    for m in LEMMA_MS:
        v = _lemma_potential(m, alpha, cfg.seed, K)
        v_norm = weighted_norm(v, -m * alpha)
        n_lo = max(math.ceil(vert_min_n(m)), m)
        for n in sorted({n_lo, 8, 16}):
            if not n_lo <= n <= K // 4:
                continue
            r_n = contour_radius(m, n)
            worst = 0.0
            for lam in vert_boundary(m, n, r_n):
                worst = max(worst, op_norm_S(build_resolvent_factors(v, m, K, lam)))
            q = 2 * (2 * n - 1)
            raw = vert_bound(m, alpha, n, r_n, v_norm, (v(q), v(-q)))
            comb = vert_bound_combined(m, alpha, n, r_n, v_norm)
            add("vert_raw", m, alpha, n, worst, raw)
            add("vert_combined", m, alpha, n, worst, comb)

    # diagonal resolvent norms between shifted spaces, scanned over n inside
    # the window (the resonant mode 2n-1 must be covered for the sup to see
    # the resonance)
    for m in LEMMA_MS:
        ns = list(range(8, min(64, K // 2) + 1, 2))
        if len(ns) < 5:
            add("shifted_decay_slope", m, "", 0, None, None, reason="window too small")
            continue
        flat = []
        decay = []
        for n in ns:
            q = 2 * n - 1
            lam = center(m, n) + contour_radius(m, n)
            decay.append(
                (n, resolvent_shifted_norm(m, lam, -1.0, -1.0, 0, 0, K))
            )
            # weights shifted to the resonant modes +-(2n-1), where the
            # smoothing-vs-resolvent cancellation is uniform in n
            flat.append(
                (n, resolvent_shifted_norm(m, lam, 1.0, -1.0, q, -q, K))
            )
        slope = decay_exponent(decay, (ns[0], ns[-1]))
        add("shifted_decay_slope", m, "", 0, abs(slope + m), 0.3)
        vals = [x for _, x in flat]
        add("shifted_flat_ratio", m, "", 0, max(vals) / min(vals), 10.0)

    footer = {"failed": failed, "rows": len(rows)}
    write_table(cfg, LEMMA_COLUMNS, rows, footer=footer)
    if failed:
        raise LemmaBoundFailure("at least one lemma bound failed")
    return 0
