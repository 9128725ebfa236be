"""Potentials on the even lattice and the weighted norms of their spaces.

A potential is a FourierSequence: finitely many coefficients v(2k), every
other index implicitly zero.  Semi-periodic vectors live on the odd modes
and are numpy arrays over operator.modes(K), never sequences here.  The
weight is always <k> = 1 + |k|.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "FourierSequence",
    "weighted_norm",
    "normalize_zero_mode",
    "rough_potential",
    "decay_exponent",
    "h_membership_bounded",
]

MIN_FIT_POINTS = 5  # fewest strictly positive points a decay fit accepts
# the rise of r_n n^s a bounded sequence may show across its fit range; n^{1-s}
# rises by 1.2 over the shortest fit range, n = 8..12
MEMBERSHIP_BOUND_FACTOR = 1.1


@dataclass(frozen=True)
class FourierSequence:
    """A potential: finite complex coefficients on the even lattice, every
    index not in coeffs implicitly zero.  Code outside this module reads
    them by v(k) and at; indices holds the indices |k| < 2^62 (whose modes
    int64 holds) of the nonzero ones, ascending, and reach the farthest |k|
    of a nonzero one, a Python int, 0 if none.  Instances are immutable and
    safe to share across threads."""

    coeffs: Mapping[int, complex]

    def __post_init__(self):
        canon = {}
        for k, val in self.coeffs.items():
            k, val = int(k), complex(val)
            if k % 2:
                raise ValueError(f"index {k} is not on the even lattice")
            if not (math.isfinite(val.real) and math.isfinite(val.imag)):
                raise ValueError(f"non-finite coefficient at index {k}: {val}")
            canon[k] = val
        object.__setattr__(self, "coeffs", MappingProxyType(canon))
        live = sorted(k for k, x in canon.items() if x and abs(k) < 2**62)
        for name, arr in (("indices", np.array(live, np.int64)),
                          ("_values", np.array([canon[k] for k in live], complex))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "reach", max((abs(k) for k, x in canon.items() if x), default=0))

    def __call__(self, k: int) -> complex:
        return self.coeffs.get(k, 0.0 + 0.0j)

    def at(self, k) -> np.ndarray:
        """v(k) elementwise over an int64 array k: 0 off the indices, so at every |k| >= 2^62."""
        keys = self.indices
        if not len(keys):
            return np.zeros(np.shape(k), dtype=complex)
        i = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
        return np.where(keys[i] == k, self._values[i], 0.0)

    def is_zero(self) -> bool:
        return not self.reach


def weighted_norm(a: FourierSequence, s: float) -> float:
    """Weighted l2 norm (sum_k <k>^{2s} |a(k)|^2)^{1/2}, 0 for the empty
    sequence.  The sum keeps coeffs' insertion order, on which
    rough_potential's rescaled coefficients depend bit for bit."""
    total = 0.0
    for k, v in a.coeffs.items():
        w = 1.0 + abs(k)
        total += w ** (2.0 * s) * (v.real * v.real + v.imag * v.imag)
    return math.sqrt(total)


def normalize_zero_mode(v: FourierSequence) -> tuple[FourierSequence, complex]:
    """Split off the zero mode: returns (v with v(0) = 0, removed constant).

    Adding a constant to the potential only shifts the spectrum, so all
    operator-side computations run on the normalized sequence and reported
    spectra re-add the constant.
    """
    c = v(0)
    if c == 0:
        return v, 0.0 + 0.0j
    return FourierSequence({k: val for k, val in v.coeffs.items() if k != 0}), c


def rough_potential(
    m: int, alpha: float, support: int, radius: float = math.inf, seed: int = 0,
    hermitian: bool = False,
) -> FourierSequence:
    """Random potential of the paper's class h^{-m alpha}: at each index
    +-2k, 0 < 2k <= support, modulus (1 + 2k)^{m alpha - 0.55} and a phase
    uniform on the circle.  The phases of +2, ..., +support are drawn first,
    then those of -2, ..., -support, unless hermitian sets v(-2k) to
    conj v(2k).  A finite radius rescales the h^{-m alpha} norm to exactly
    radius.  The same arguments give the same coefficients bit for bit."""
    if support < 2 or support % 2:
        raise ValueError(f"support must be an even number >= 2, got {support}")
    rng = np.random.default_rng(seed)
    ks = range(1, support // 2 + 1)
    exponent = m * alpha - 0.5 - 0.05  # the margin 0.05 past l2 summability, subtracted last
    modulus = {k: (1.0 + 2 * k) ** exponent for k in ks}
    coeffs = {2 * k: modulus[k] * cmath.exp(1j * 2 * math.pi * rng.random()) for k in ks}
    for k in ks:
        coeffs[-2 * k] = (coeffs[2 * k].conjugate() if hermitian
                          else modulus[k] * cmath.exp(1j * 2 * math.pi * rng.random()))
    v = FourierSequence(coeffs)
    if math.isinf(radius):
        return v
    norm = weighted_norm(v, -m * alpha)
    return FourierSequence({k: radius / norm * val for k, val in v.coeffs.items()}) if norm else v


def decay_exponent(
    points: Iterable[tuple[int, float]], fit_range: tuple[int, int]
) -> float:
    """Least-squares slope of log r_n against log n over n in fit_range.

    An all-zero sequence (an exact zero) has slope -inf.  Otherwise at
    least MIN_FIT_POINTS strictly positive points are required.
    """
    lo, hi = fit_range
    sel = [(n, r) for n, r in points if lo <= n <= hi]
    if not sel:
        raise ValueError(f"no points inside the fit range [{lo}, {hi}]")
    if all(r == 0.0 for _, r in sel):
        return -math.inf
    pos = [(n, r) for n, r in sel if r > 0.0]
    if len(pos) < MIN_FIT_POINTS:
        raise ValueError(
            f"need at least {MIN_FIT_POINTS} positive points in [{lo}, {hi}], got {len(pos)}"
        )
    x = np.log([float(n) for n, _ in pos])
    y = np.log([r for _, r in pos])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def h_membership_bounded(
    points: Iterable[tuple[int, float]],
    s: float,
    fit_range: tuple[int, int],
) -> bool:
    """Desk-scale membership surrogate for the class with decay exponent s:
    r_n n^s must not grow across the fit range.  With the points in n order,
    the largest r_n n^s over the upper half must not exceed
    MEMBERSHIP_BOUND_FACTOR times the largest over the lower half (an odd
    middle point is in both), so a sequence that decays faster than n^-s is
    bounded and one that grows is not."""
    lo, hi = fit_range
    pts = [(n, r) for n, r in sorted(points) if lo <= n <= hi]
    if not pts:
        raise ValueError("no points to test")
    weighted = [r * float(n) ** s for n, r in pts]
    half = len(weighted) // 2
    return max(weighted[half:]) <= MEMBERSHIP_BOUND_FACTOR * max(weighted[: len(weighted) - half])
