"""The localization census of the `localize` command, the only one that
loads this module: the eigenvalues in each localization disc, read through
the pair rows of the certified low block, and in the left cone below them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolver import SolverError, _certified_band, _cut_block, _pair_rows, localization_radius
from .operator import build_T, center, unperturbed_eigenvalues
from .seqspace import FourierSequence, normalize_zero_mode

__all__ = ["DiscCensusRow", "LocalizationReport", "localization_report"]


@dataclass(frozen=True)
class DiscCensusRow:
    n: int
    radius: float
    hits: int
    max_deviation: float  # largest |lambda + v(0) - center| among the hits; nan if none


@dataclass(frozen=True)
class LocalizationReport:
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
    found = _pair_rows(low, np.arange(1, K // 4 + 1), np.array(radii) + abs(v0))[2]
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
    band = _certified_band(low, max(n0, 1), edge)[0]
    try:
        vals = np.linalg.eigvals(band + np.diag(unperturbed_eigenvalues(m, len(band) // 2))) + v0
    except np.linalg.LinAlgError as exc:  # QR non-convergence
        raise SolverError(f"cone eigensolve failed: {exc}") from exc
    big_m = max(1.0, float(np.max(np.abs(vals.imag)))) + 1.0
    in_cone = (vals.real >= np.abs(vals.imag) - big_m) & (vals.real <= thresh)
    return LocalizationReport(
        K=K, n0_empirical=n0, cone_count=int(in_cone.sum()),
        cone_threshold=thresh, cone_M=big_m, disc_rows=tuple(rows),
    )
