"""Weighted sequence spaces on the integer lattice.

Potentials live on the even lattice {2k}, semi-periodic vectors on the odd
lattice {2k-1}.  Parity is an explicit field of every sequence, so mixing
the two lattices is a checked error rather than a silent convention.  The
weight is always <k> = 1 + |k|.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

__all__ = [
    "Parity",
    "ParityError",
    "FourierSequence",
    "SobolevParams",
    "PotentialFamily",
    "PotentialSpec",
    "weighted_norm",
    "convolve",
    "reflect_seq",
    "conjugate_seq",
    "is_real_valued",
    "normalize_zero_mode",
    "make_potential",
    "DecayFit",
    "decay_exponent",
    "h_membership_bounded",
]

HERMITIAN_TOL = 1e-12
MIN_FIT_POINTS = 5  # fewest strictly positive points a decay fit accepts
MEMBERSHIP_BOUND_FACTOR = 10.0


class Parity(str, enum.Enum):
    EVEN = "even"
    ODD = "odd"


class ParityError(ValueError):
    """An index (or a whole sequence) is on the wrong lattice."""


def _index_parity_ok(parity: Parity, k: int) -> bool:
    return (k % 2 == 0) if parity is Parity.EVEN else (k % 2 != 0)


@dataclass(frozen=True)
class FourierSequence:
    """Finitely supported coefficients on one parity class of the lattice.

    Indices outside [-window, window] are implicitly zero.  Instances are
    immutable and safe to share across threads.
    """

    parity: Parity
    coeffs: Mapping[int, complex]
    window: int

    def __post_init__(self):
        canon = {}
        for k, val in self.coeffs.items():
            k = int(k)
            val = complex(val)
            if not _index_parity_ok(self.parity, k):
                raise ParityError(
                    f"index {k} is not on the {self.parity.value} lattice"
                )
            if not (math.isfinite(val.real) and math.isfinite(val.imag)):
                raise ValueError(f"non-finite coefficient at index {k}: {val}")
            if abs(k) > self.window:
                raise ValueError(
                    f"index {k} lies outside the window [-{self.window}, {self.window}]"
                )
            canon[k] = val
        object.__setattr__(self, "coeffs", MappingProxyType(canon))

    @classmethod
    def make(
        cls, parity: Parity | str, coeffs: Mapping[int, complex], window: int | None = None
    ) -> "FourierSequence":
        parity = Parity(parity)
        if window is None:
            window = max((abs(int(k)) for k in coeffs), default=0)
        return cls(parity, dict(coeffs), int(window))

    @classmethod
    def zero(cls, parity: Parity | str = Parity.EVEN) -> "FourierSequence":
        return cls.make(parity, {})

    def __call__(self, k: int) -> complex:
        return self.coeffs.get(k, 0.0 + 0.0j)

    def support(self) -> tuple[int, ...]:
        """Indices carrying a nonzero coefficient, ascending."""
        return tuple(sorted(k for k, v in self.coeffs.items() if v != 0))

    def scaled(self, factor: complex) -> "FourierSequence":
        return FourierSequence.make(
            self.parity, {k: factor * v for k, v in self.coeffs.items()}, self.window
        )

    def with_entry(self, k: int, value: complex) -> "FourierSequence":
        coeffs = dict(self.coeffs)
        coeffs[k] = value
        return FourierSequence.make(self.parity, coeffs, max(self.window, abs(k)))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coeffs.values())


@dataclass(frozen=True)
class SobolevParams:
    """Scale parameters of the weighted spaces: order m and singularity
    scale alpha."""

    m: int
    alpha: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")

    @property
    def potential_exponent(self) -> float:
        """The natural exponent -m*alpha of the potential class."""
        return -self.m * self.alpha


class PotentialFamily(str, enum.Enum):
    EXPLICIT = "explicit"
    TRIG_POLYNOMIAL = "trig_polynomial"
    RANDOM_SMOOTH = "random_smooth"
    RANDOM_ROUGH = "random_rough"
    DERIVATIVE_TYPE = "derivative_type"


@dataclass(frozen=True)
class PotentialSpec:
    """Recipe for a potential: family, family parameters, target norm bound
    R in the h^{-m*alpha} scale, and the RNG seed."""

    family: PotentialFamily
    params: Mapping[str, object] = field(default_factory=dict)
    radius: float = math.inf
    seed: int = 0

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))


def weighted_norm(a: FourierSequence, s: float, shift: int = 0) -> float:
    """Shifted weighted l2 norm (sum_k <k+shift>^{2s} |a(k)|^2)^{1/2}.

    The empty sequence has norm 0.
    """
    total = 0.0
    for k, v in a.coeffs.items():
        w = 1.0 + abs(k + shift)
        total += w ** (2.0 * s) * (v.real * v.real + v.imag * v.imag)
    return math.sqrt(total)


def convolve(a: FourierSequence, b: FourierSequence) -> FourierSequence:
    """Exact convolution (a*b)(k) = sum_j a(k-j) b(j) over the finite supports.

    The result parity follows the lattice sum: even*even and odd*odd land on
    the even lattice, mixed parities on the odd lattice.  The result window
    is the Minkowski sum of the input windows.
    """
    parity = Parity.EVEN if a.parity == b.parity else Parity.ODD
    out: dict[int, complex] = {}
    for ka, va in a.coeffs.items():
        if va == 0:
            continue
        for kb, vb in b.coeffs.items():
            if vb == 0:
                continue
            k = ka + kb
            out[k] = out.get(k, 0.0 + 0.0j) + va * vb
    return FourierSequence.make(parity, out, a.window + b.window)


def reflect_seq(a: FourierSequence) -> FourierSequence:
    """Index reflection k -> -k (parity preserved)."""
    return FourierSequence.make(a.parity, {-k: v for k, v in a.coeffs.items()}, a.window)


def conjugate_seq(a: FourierSequence) -> FourierSequence:
    """The conjugate sequence k -> conj(a(-k)) of an even-parity sequence."""
    if a.parity is not Parity.EVEN:
        raise ParityError("conjugate sequence is defined for even-parity potentials")
    return FourierSequence.make(
        a.parity, {-k: v.conjugate() for k, v in a.coeffs.items()}, a.window
    )


def is_real_valued(a: FourierSequence, tol: float = HERMITIAN_TOL) -> bool:
    """Hermitian symmetry check conj(a(-k)) == a(k), absolute tolerance tol."""
    if a.parity is not Parity.EVEN:
        raise ParityError("real-valuedness is defined for even-parity potentials")
    for k in set(a.coeffs) | {-k for k in a.coeffs}:
        if abs(a(-k).conjugate() - a(k)) > tol:
            return False
    return True


def normalize_zero_mode(v: FourierSequence) -> tuple[FourierSequence, complex]:
    """Split off the zero mode: returns (v with v(0) = 0, removed constant).

    Adding a constant to the potential only shifts the spectrum, so all
    operator-side computations run on the normalized sequence and reported
    spectra re-add the constant.
    """
    if v.parity is not Parity.EVEN:
        raise ParityError("zero-mode normalization applies to even-parity potentials")
    c = v(0)
    if c == 0:
        return v, 0.0 + 0.0j
    coeffs = {k: val for k, val in v.coeffs.items() if k != 0}
    return FourierSequence.make(Parity.EVEN, coeffs, v.window), c


def _even_coeff_map(raw) -> dict[int, complex]:
    if isinstance(raw, FourierSequence):
        if raw.parity is not Parity.EVEN:
            raise ParityError("potential coefficients must live on the even lattice")
        return dict(raw.coeffs)
    return {int(k): complex(v) for k, v in dict(raw).items()}


def make_potential(spec: PotentialSpec, params: SobolevParams) -> FourierSequence:
    """Realize a potential on the even lattice with h^{-m*alpha} norm <= R.

    Random families rescale to the target norm exactly; explicit families are
    rescaled only when they overshoot the bound.  Identical spec (including
    seed) reproduces the sequence bit for bit.
    """
    family = spec.family
    R = spec.radius
    s_pot = params.potential_exponent

    if family in (PotentialFamily.EXPLICIT, PotentialFamily.TRIG_POLYNOMIAL):
        if "coeffs" not in spec.params:
            raise ValueError(f"{family.value} family requires a 'coeffs' parameter")
        coeffs = _even_coeff_map(spec.params["coeffs"])
        v = FourierSequence.make(Parity.EVEN, coeffs)
        return _clamp_norm(v, s_pot, R)

    if family is PotentialFamily.DERIVATIVE_TYPE:
        if "q" not in spec.params:
            raise ValueError("derivative_type family requires a 'q' parameter")
        q = _even_coeff_map(spec.params["q"])
        coeffs = {k: 1j * math.pi * k * val for k, val in q.items()}
        v = FourierSequence.make(Parity.EVEN, coeffs)
        return _clamp_norm(v, s_pot, R)

    window = int(spec.params.get("window", 64))
    if window < 2 or window % 2:
        raise ValueError(f"random families need an even window >= 2, got {window}")
    hermitian = bool(spec.params.get("hermitian", False))
    rng = np.random.default_rng(spec.seed)

    half = window // 2
    ks = list(range(1, half + 1))
    if family is PotentialFamily.RANDOM_ROUGH:
        delta = float(spec.params.get("delta", 0.05))
        exponent = params.m * params.alpha - 0.5 - delta
        modulus = {k: (1.0 + 2 * k) ** exponent for k in ks}
    elif family is PotentialFamily.RANDOM_SMOOTH:
        decay = float(spec.params.get("decay", 0.5))
        modulus = {k: math.exp(-decay * k) for k in ks}
    else:
        raise ValueError(f"unknown potential family: {family}")

    coeffs = {}
    for k in ks:
        coeffs[2 * k] = modulus[k] * cmath.exp(1j * 2 * math.pi * rng.random())
    if hermitian:
        for k in ks:
            coeffs[-2 * k] = coeffs[2 * k].conjugate()
    else:
        for k in ks:
            coeffs[-2 * k] = modulus[k] * cmath.exp(1j * 2 * math.pi * rng.random())
    v = FourierSequence.make(Parity.EVEN, coeffs, window)

    if math.isinf(R):
        return v
    norm = weighted_norm(v, s_pot, 0)
    if norm == 0.0:
        return v
    return v.scaled(R / norm)


def _clamp_norm(v: FourierSequence, s_pot: float, R: float) -> FourierSequence:
    if math.isinf(R):
        return v
    norm = weighted_norm(v, s_pot, 0)
    if norm > R:
        return v.scaled(R / norm if norm > 0 else 0.0)
    return v


class DecayFit(NamedTuple):
    slope: float
    exact_zero: bool


def decay_exponent(
    points: Iterable[tuple[int, float]], fit_range: tuple[int, int]
) -> DecayFit:
    """Least-squares slope of log r_n against log n over n in fit_range.

    An all-zero sequence is flagged exact with slope -inf.  Otherwise at
    least MIN_FIT_POINTS strictly positive points are required.
    """
    lo, hi = fit_range
    sel = [(n, r) for n, r in points if lo <= n <= hi]
    if not sel:
        raise ValueError(f"no points inside the fit range [{lo}, {hi}]")
    if all(r == 0.0 for _, r in sel):
        return DecayFit(-math.inf, True)
    pos = [(n, r) for n, r in sel if r > 0.0]
    if len(pos) < MIN_FIT_POINTS:
        raise ValueError(
            f"need at least {MIN_FIT_POINTS} positive points in [{lo}, {hi}], got {len(pos)}"
        )
    x = np.log([float(n) for n, _ in pos])
    y = np.log([r for _, r in pos])
    slope, _ = np.polyfit(x, y, 1)
    return DecayFit(float(slope), False)


def h_membership_bounded(
    points: Iterable[tuple[int, float]],
    s: float,
    fit_range: tuple[int, int] | None = None,
) -> bool:
    """Desk-scale membership surrogate for the class with decay exponent s:
    sup_n r_n n^s must not exceed MEMBERSHIP_BOUND_FACTOR times the median
    of r_n n^s."""
    pts = list(points)
    if fit_range is not None:
        lo, hi = fit_range
        pts = [(n, r) for n, r in pts if lo <= n <= hi]
    if not pts:
        raise ValueError("no points to test")
    weighted = [r * float(n) ** s for n, r in pts]
    top = max(weighted)
    if top == 0.0:
        return True
    # np.median's middle, without its NaN check, which imports numpy.ma
    s, k = sorted(weighted), len(weighted) // 2
    med = s[k] if len(s) % 2 else (s[k - 1] + s[k]) / 2.0
    if med == 0.0:
        return False
    return top <= MEMBERSHIP_BOUND_FACTOR * med
