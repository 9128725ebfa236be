"""Contour-quadrature Riesz projectors, trace identities, and the
second-order correction sequence computed two independent ways.

Quadrature is the trapezoidal rule on the circle of radius (2n-1)^m around
the unperturbed center, spectrally accurate for the analytic integrands at
hand.  Every node of the perturbed projector costs one dense inverse;
the error estimate comes from comparing the full rule against its half-node
subset, which reuses the same inverses.  Node order is fixed, so runs are bit
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seqspace import FourierSequence, Parity, ParityError
from .eigensolver import EigenList
from .operator import (
    build_B,
    center,
    contour_radius,
    resonant_rows,
    unperturbed_eigenvalues,
)

__all__ = [
    "ContourCollisionError",
    "ContourSpec",
    "ProjectorPair",
    "riesz_projector",
    "TauTraceResult",
    "tau_from_traces",
    "q0_matrix",
    "q0_closed_form",
    "script_S_2x2",
    "l_direct",
    "l_pair",
]

COLLISION_REL_TOL = 1e-6


class ContourCollisionError(RuntimeError):
    """An eigenvalue sits (numerically) on the quadrature contour."""

    def __init__(self, message, offending=None):
        super().__init__(message)
        self.offending = offending


@dataclass(frozen=True)
class ContourSpec:
    """The circle of radius (2n-1)^m around (2n-1)^{2m} pi^{2m}, positively
    oriented, discretized with a power-of-two node count."""

    n: int
    m: int
    nodes: int = 64

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("contour index n must be >= 1")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.nodes < 16 or self.nodes & (self.nodes - 1):
            raise ValueError(f"node count must be a power of two >= 16, got {self.nodes}")

    @property
    def center(self) -> float:
        return center(self.m, self.n)

    @property
    def radius(self) -> float:
        return contour_radius(self.m, self.n)

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature points and weights: the trapezoidal discretization of
        (1/2 pi i) \\oint f(lambda) d lambda is sum_j w_j f(lambda_j) with
        w_j = rho e^{i theta_j} / N."""
        theta = 2.0 * math.pi * np.arange(self.nodes) / self.nodes
        unit = np.exp(1j * theta)
        return self.center + self.radius * unit, self.radius * unit / self.nodes


def _guard_contour(contour: ContourSpec, values: np.ndarray, what: str):
    dist = np.abs(np.abs(values - contour.center) - contour.radius)
    bad = dist < COLLISION_REL_TOL * contour.radius
    if np.any(bad):
        culprit = values[np.argmax(bad)]
        raise ContourCollisionError(
            f"{what} eigenvalue {culprit} lies within {COLLISION_REL_TOL:g} x radius "
            f"of the contour around index n = {contour.n}",
            offending=complex(culprit),
        )


@dataclass(frozen=True)
class ProjectorPair:
    """Riesz projector of the perturbed operator and the closed-form
    unperturbed one, the traces Tr P and Tr(T P), and the node-halving error
    estimate.  The unperturbed traces are the constants Tr P0 = 2 and
    Tr(A^m P0) = 2 center."""

    contour: ContourSpec
    p: np.ndarray
    p0: np.ndarray
    tr_p: complex
    tr_tp: complex
    quad_tol: float


def riesz_projector(eigs: EigenList, contour: ContourSpec) -> ProjectorPair:
    """Quadrature projector P = (1/2 pi i) \\oint (lambda - T)^{-1} d lambda
    for the operator T = eigs.op.

    The unperturbed projector is the diagonal indicator of the resonant modes
    +-(2n-1) and is exact.  The certified spectrum eigs guards the contour
    against collisions; the quadrature itself inverts lambda - T at every
    node and reads nothing else of the eigensolve.
    """
    op = eigs.op
    if op.m != contour.m:
        raise ValueError("operator and contour disagree on m")
    if 2 * contour.n - 1 > 2 * op.K - 1:
        raise ValueError(
            f"resonant modes +-{2 * contour.n - 1} fall outside the window (K = {op.K})"
        )
    mat = op.matrix
    dim = mat.shape[0]
    _guard_contour(contour, eigs.values, "perturbed")
    mu = unperturbed_eigenvalues(op.m, op.K)
    _guard_contour(contour, mu.astype(complex), "unperturbed")

    lams, ws = contour.points()
    eye = np.eye(dim, dtype=complex)
    acc = np.zeros((dim, dim), dtype=complex)
    acc_half = np.zeros((dim, dim), dtype=complex)
    tr_tp = 0.0 + 0.0j
    for j in range(contour.nodes):
        resolvent = np.linalg.inv(lams[j] * eye - mat)
        term = ws[j] * resolvent
        acc += term
        if j % 2 == 0:
            acc_half += 2.0 * term
        tr_tp += ws[j] * np.sum(mat * resolvent.T)

    p0 = np.zeros((dim, dim), dtype=complex)
    for i in resonant_rows(op.K, contour.n):
        p0[i, i] = 1.0
    quad_tol = float(np.max(np.abs(acc - acc_half)))
    return ProjectorPair(
        contour=contour,
        p=acc,
        p0=p0,
        tr_p=complex(np.trace(acc)),
        tr_tp=complex(tr_tp),
        quad_tol=quad_tol,
    )


@dataclass(frozen=True)
class TauTraceResult:
    n: int
    tau: complex
    tr_q: complex
    tr_p: complex
    quad_tol: float


def tau_from_traces(eigs: EigenList, contour: ContourSpec) -> TauTraceResult:
    """Pair mean through traces: tau_n = Tr(T P_n) / 2 for T = eigs.op,
    together with the trace of (T - center) P_n - (A^m - center) P_n^0,
    which must equal 2 (tau_n - center)."""
    pair = riesz_projector(eigs, contour)
    c = contour.center
    tau = pair.tr_tp / 2.0
    tr_q = pair.tr_tp - c * pair.tr_p  # (A^m - c) P0 is traceless
    return TauTraceResult(contour.n, complex(tau), complex(tr_q), pair.tr_p, pair.quad_tol)


def _diag_resolvent_weights(m: int, K: int, lam: complex) -> np.ndarray:
    return 1.0 / (lam - unperturbed_eigenvalues(m, K))


def q0_matrix(
    v: FourierSequence, m: int, n: int, K: int, nodes: int = 64
) -> np.ndarray:
    """First-order trace-window matrix by quadrature:
    (1/2 pi i) \\oint (lambda - c) (lambda - A^m)^{-1} B(v) (lambda - A^m)^{-1} d lambda.

    Its closed form is q0_closed_form; riesz-check compares the two.
    """
    if v(0) != 0:
        raise ValueError("q0_matrix requires a zero-mode-normalized potential")
    contour = ContourSpec(n=n, m=m, nodes=nodes)
    b = build_B(v, m, K).matrix
    lams, ws = contour.points()
    c = contour.center
    acc = np.zeros_like(b)
    for j in range(nodes):
        d = _diag_resolvent_weights(m, K, lams[j])
        acc += (ws[j] * (lams[j] - c)) * (d[:, None] * b * d[None, :])
    return acc


def q0_closed_form(v: FourierSequence, m: int, n: int, K: int) -> np.ndarray:
    """Exact form: entry (2n-1, -(2n-1)) = v(2(2n-1)), its mirror
    v(-2(2n-1)), and zero everywhere else."""
    dim = 2 * K
    out = np.zeros((dim, dim), dtype=complex)
    q = 2 * n - 1
    if n > K:
        raise ValueError(f"resonant modes +-{q} fall outside the window (K = {K})")
    i_minus, i_plus = resonant_rows(K, n)
    out[i_plus, i_minus] = v(2 * q)
    out[i_minus, i_plus] = v(-2 * q)
    return out


def script_S_2x2(
    v: FourierSequence, m: int, n: int, K: int, nodes: int = 64
) -> np.ndarray:
    """Second-order resonant block by quadrature, as a 2x2 matrix over the
    modes (2n-1, -(2n-1)):
    (1/2 pi i) \\oint P0 (lambda - A^m)^{-1} B (lambda - A^m)^{-1} B P0 d lambda.

    Off-diagonal entries are the correction values, diagonal entries the
    resonant self-energy.
    """
    if v(0) != 0:
        raise ValueError("the resonant block requires a zero-mode-normalized potential")
    contour = ContourSpec(n=n, m=m, nodes=nodes)
    if n > K:
        raise ValueError(f"resonant modes +-{2 * n - 1} fall outside the window (K = {K})")
    b = build_B(v, m, K).matrix
    i_minus, i_plus = resonant_rows(K, n)
    idx = [i_plus, i_minus]
    rows = b[idx, :]          # B restricted to the two resonant rows
    cols = b[:, idx]          # and columns
    lams, ws = contour.points()
    c = contour.center
    acc = np.zeros((2, 2), dtype=complex)
    for j in range(nodes):
        d = _diag_resolvent_weights(m, K, lams[j])
        inner = rows * d[None, :] @ cols  # sum over the intermediate mode
        acc += (ws[j] / (lams[j] - c)) * inner
    return acc


def l_direct(v: FourierSequence, m: int, n: int) -> complex:
    """Fast route to the correction value at +2(2n-1): the resonant residue
    sum (1/pi^{2m}) sum_j v(2n-2j) v(2n+2j-2) / ((2n-1)^{2m} - (2j-1)^{2m})
    over odd modes 2j-1 != +-(2n-1).

    The denominator factors as ((2n-1)^m - (2j-1)^m)((2n-1)^m + (2j-1)^m),
    so this is the odd-lattice form of the quadratic correction sequence.
    """
    if v.parity is not Parity.EVEN:
        raise ParityError("potentials must live on the even lattice")
    if v(0) != 0:
        raise ValueError("the correction sequence requires v(0) = 0")
    q = 2 * n - 1
    qp = q ** (2 * m)
    half = v.window // 2
    total = 0.0 + 0.0j
    for j in range(n - half, n + half + 1):
        p = 2 * j - 1
        if p == q or p == -q:
            continue
        a = v(2 * n - 2 * j)
        if a == 0:
            continue
        bb = v(2 * n + 2 * j - 2)
        if bb == 0:
            continue
        total += a * bb / float(qp - p ** (2 * m))
    return total / math.pi ** (2 * m)


def l_pair(v: FourierSequence, m: int, n: int) -> tuple[complex, complex]:
    """Correction values at +-2(2n-1); the minus entry is the same residue
    sum with the potential reflected through the origin."""
    from .seqspace import reflect_seq

    return l_direct(v, m, n), l_direct(reflect_seq(v), m, n)
