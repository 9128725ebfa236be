"""Predicted eigenvalue pairs and remainder-decay classification.

Predictions carry the principal branch of the resonant square root; the
sign ambiguity of the pair is resolved only at comparison time by taking
the minimum over both signs, which makes every remainder branch
independent.  Remainder sequences are classified by a log-log slope fit
over a window that excludes the pre-asymptotic head (n < 8 by default).
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass

from .seqspace import (
    FourierSequence,
    decay_exponent,
    h_membership_bounded,
    normalize_zero_mode,
    weighted_norm,
)
from .eigensolver import (
    CONVERGENCE_TOL, EigenPairRow, EigenPairTable, compute_pair_table, correction_values,
)
from .operator import center, contour_radius

__all__ = [
    "PredictionRow",
    "predict_pairs",
    "RemainderReport",
    "tau_remainder",
    "gamma_remainder",
    "one_term_check",
    "alpha1_experiment",
    "DEFAULT_EPSILON",
    "FIT_RANGE_START",
]

DEFAULT_EPSILON = 0.05
FIT_RANGE_START = 8


@dataclass(frozen=True)
class PredictionRow:
    """Predicted pair around one center: the zero-mode shift plus the
    resonant square root, optionally corrected by the quadratic sequence."""

    n: int
    center: float
    shift: complex
    root_term: complex
    root_term_corr: complex
    predicted_pair: tuple[complex, complex]


def predict_pairs(v_raw: FourierSequence, m: int, ns: Sequence[int]) -> dict[int, PredictionRow]:
    """Predictions from the raw potential (zero mode intact), by n: the pair
    center + v(0) -+ sqrt(v(-2(2n-1)) v(2(2n-1))), and the corrected variant
    with v replaced by v + l on the resonant indices, l for every n from
    correction_values, the second-order truncation of each pair's block."""
    shift = v_raw(0)
    v0, _ = normalize_zero_mode(v_raw)
    l_plus, l_minus = correction_values(v0, m, ns)
    preds = {}
    for n, lp, lm in zip(ns, l_plus, l_minus):
        c = center(m, n)
        q = 2 * (2 * n - 1)
        root = cmath.sqrt(v0(-q) * v0(q))
        root_corr = cmath.sqrt((v0(-q) + lm) * (v0(q) + lp))
        base = c + shift
        preds[n] = PredictionRow(
            n=n,
            center=c,
            shift=shift,
            root_term=root,
            root_term_corr=root_corr,
            predicted_pair=(base - root, base + root),
        )
    return preds


@dataclass(frozen=True)
class RemainderReport:
    ns: tuple[int, ...]
    values: tuple[float, ...]
    target_exponent: float
    fitted_slope: float
    bounded_flag: bool
    n0_below_one: int | None = None
    unrefined: tuple[int, ...] = ()  # alpha1_experiment: rows read from the grown band

    def pairs(self) -> list[tuple[int, float]]:
        return list(zip(self.ns, self.values))


def _converged_rows(table: EigenPairTable):
    rows = [r for r in table.rows if r.converged]
    if not rows:
        bars = [r.bar for r in table.rows if r.bar is not None]
        worst = f"the largest truncation bar {max(bars):.2g}" if bars else "no truncation bar"
        raise ValueError(
            f"no converged rows in the pair table at K = {table.K}: its {len(table.rows)} "
            f"rows carry {worst}, against CONVERGENCE_TOL = {CONVERGENCE_TOL:g}"
        )
    return rows


def _deviation(r: EigenPairRow) -> float:
    """Largest |lambda - center(m, n)| of the pair, zero mode included."""
    return max(abs(r.d_lo + r.v0), abs(r.d_hi + r.v0))


def _fit(ns, values, target) -> tuple[float, bool]:
    """Decay slope and membership flag over the rows from FIT_RANGE_START on."""
    points = list(zip(ns, values))
    fit_range = (min(FIT_RANGE_START, max(ns)), max(ns))
    return decay_exponent(points, fit_range), h_membership_bounded(points, target, fit_range)


def tau_remainder(
    table: EigenPairTable,
    v_raw: FourierSequence,
    m: int,
    alpha: float,
    epsilon: float = DEFAULT_EPSILON,
) -> RemainderReport:
    """Remainder of the pair mean: |tau_n - (2n-1)^{2m} pi^{2m} - v(0)|,
    read from the pair's offsets, classified against the exponent
    m(1 - 2 alpha) - epsilon."""
    rows = _converged_rows(table)
    shift = v_raw(0)
    ns = tuple(r.n for r in rows)
    values = tuple(abs(r.d_tau + (r.v0 - shift)) for r in rows)
    target = m * (1.0 - 2.0 * alpha) - epsilon
    return RemainderReport(ns, values, target, *_fit(ns, values, target))


def gamma_remainder(
    table: EigenPairTable,
    v_raw: FourierSequence,
    m: int,
    alpha: float,
    corrected: bool = False,
    epsilon: float = DEFAULT_EPSILON,
    predictions: dict[int, PredictionRow] | None = None,
) -> RemainderReport:
    """Remainder of the pair gap: min over signs of |gamma_n +- 2 root|,
    where root is the (optionally corrected) resonant square root read from
    predictions, the predict_pairs of the converged rows (made here if None).

    Uncorrected target: m(1/2 - alpha) for alpha in [0, 1/2), else
    m(1 - 2 alpha) - epsilon.  Corrected target: m(1 - 2 alpha) - epsilon.
    """
    rows = _converged_rows(table)
    ns = tuple(r.n for r in rows)
    if predictions is None:
        predictions = predict_pairs(v_raw, m, ns)
    values = []
    for r in rows:
        pred = predictions[r.n]
        root = pred.root_term_corr if corrected else pred.root_term
        values.append(min(abs(r.gamma + 2.0 * root), abs(r.gamma - 2.0 * root)))
    values = tuple(values)
    if corrected or alpha >= 0.5:
        target = m * (1.0 - 2.0 * alpha) - epsilon
    else:
        target = m * (0.5 - alpha)
    return RemainderReport(ns, values, target, *_fit(ns, values, target))


def one_term_check(
    table: EigenPairTable,
    m: int,
    alpha: float,
    R: float,
    C: float,
) -> RemainderReport:
    """Scaled one-term deviations |lambda - center| / (2n-1)^{m alpha}; the
    bounded flag demands every value stay below 3^m sqrt(2) C R."""
    rows = _converged_rows(table)
    ns = tuple(r.n for r in rows)
    values = tuple(_deviation(r) / float(2 * r.n - 1) ** (m * alpha) for r in rows)
    bound = 3.0**m * math.sqrt(2.0) * C * R
    bounded = all(val <= bound for val in values)
    return RemainderReport(ns, values, 0.0, _fit(ns, values, 0.0)[0], bounded)


def alpha1_experiment(
    v: FourierSequence,
    m: int,
    n_max: int,
    K: int,
) -> RemainderReport:
    """Limiting-scale experiment: ratios |lambda - center| / (2n-1)^m for a
    potential that is only required to have a finite h^{-m} norm.

    The sublinear-growth claim is verified as a downward trend of the ratio
    sequence together with an empirical index beyond which every ratio stays
    below one.
    """
    if not math.isfinite(weighted_norm(v, -float(m))):
        raise ValueError("potential must have a finite h^{-m} norm")
    table = compute_pair_table(
        v, m, K, radius_rule=lambda m, n: 3.0 * contour_radius(m, n), n_max=n_max
    )
    rows = table.rows
    if not rows:
        raise ValueError("no paired rows; window too small or potential too strong")
    ns = tuple(r.n for r in rows)
    values = tuple(_deviation(r) / contour_radius(m, r.n) for r in rows)
    n0 = 0
    for n, val in zip(ns, values):
        if val >= 1.0:
            n0 = n
    return RemainderReport(
        ns,
        values,
        float(m),
        decay_exponent(list(zip(ns, values)), (min(ns), max(ns))),
        bounded_flag=all(v < 1.0 for n, v in zip(ns, values) if n > n0),
        n0_below_one=n0,
        unrefined=table.unrefined,
    )
