"""Contour-quadrature Riesz projectors, trace identities, and the
second-order resonant block by quadrature (script_S_2x2, whose off-diagonal
riesz-check compares with eigensolver.correction_values).

Quadrature is the trapezoidal rule on the circle of radius (2n-1)^m around
the unperturbed center, spectrally accurate for the analytic integrands at
hand.  The perturbed projector is only ever read through its traces
Tr P and Tr((T - center) P), as sums over the few eigenvalues the contour
can see.  Every contour reads them by one route: a band of the certified
low block (eigensolver.low_block) is decoupled from the rest, and one
shift-invert of it in the center-free frame gives all its eigenvalues.
Where the gaps certify it the band is the contour's two resonant modes, a
2 x 2 block; elsewhere, the smallest certified band |p| <= 2k - 1.  No step
is shared with the per-pair reduction that reads the pair table, so
riesz-check compares two routes to tau.  The error estimate comes from
comparing the full rule against its half-node subset, which reuses the
same node traces.  q0 is read on its two resonant rows, the only ones with
a pole.  Node order is fixed, so runs are bit reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seqspace import FourierSequence
from .eigensolver import (
    ContourCollisionError, LowBlock, SolverError, _certified_band, _decouple, _shift_poles,
)
from .operator import center, contour_radius, modes, resonant_rows, unperturbed_eigenvalues

__all__ = [
    "ContourCollisionError",
    "ContourSpec",
    "ProjectorPair",
    "riesz_projector",
    "q0_matrix",
    "q0_closed_form",
    "script_S_2x2",
]

COLLISION_REL_TOL = 1e-6
# a left-out pole sits >= 4 rho from the center: its trapezoid term is <= 4^-nodes
POLE_MARGIN = 4.0


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


@dataclass(frozen=True)
class ProjectorPair:
    """Traces of the Riesz projector P of the perturbed operator: Tr P and
    Tr((T - center) P), their node-halving error estimate, the number of
    eigenvalues they were summed over (block, the size of the band
    shift-inverted) and whether the pair certificate refused the contour
    (dense), whose band then grew past the resonant pair.  The unperturbed
    traces are the constants Tr P0 = 2 and Tr((A^m - center) P0) = 0."""

    contour: ContourSpec
    tr_p: complex
    tr_q: complex
    quad_tol: float
    block: int
    dense: bool

    @property
    def tau(self) -> complex:
        """The pair mean: tr_q = Tr((T - center) P) = 2 (tau - center)."""
        return self.contour.center + self.tr_q / 2.0


def riesz_projector(low: LowBlock, contour: ContourSpec) -> ProjectorPair:
    """Traces of the quadrature projector
    P = (1/2 pi i) \\oint (lambda - T)^{-1} d lambda for the operator T = low.op,
    from its certified low block (eigensolver.low_block).

    Tr (lambda - T)^{-1} = sum_k 1 / (lambda - lambda_k) over the poles
    the contour can see, at the offsets rho u_j - delta_k of each node: all
    the eigenvalues of one band of the low block, read by _shift_poles at
    center + 2i radius (block = the band's size).  When low.certifies the
    resonant modes +-(2n-1) apart from the rest with the disc reaching
    POLE_MARGIN radii, the band is those two modes, split off by
    _decouple; otherwise (a pole planted near the contour, a potential
    strong against the gaps) it is eigensolver._certified_band from n,
    cut with everything left of center + POLE_MARGIN radius inside.  Every
    pole left out sits at least POLE_MARGIN radii away, with a trapezoid
    term <= 4^-nodes against an exact integral of zero.

    An eigenvalue within COLLISION_REL_TOL radii of the contour raises
    ContourCollisionError; a contour that reaches low.complete_below, a
    fixed point that does not settle or a failed LAPACK call, SolverError.
    """
    op = low.op
    if op.m != contour.m:
        raise ValueError("operator and contour disagree on m")
    if 2 * contour.n - 1 > 2 * op.K - 1:
        raise ValueError(
            f"resonant modes +-{2 * contour.n - 1} fall outside the window (K = {op.K})"
        )
    if contour.center + contour.radius * (1.0 + COLLISION_REL_TOL) >= low.complete_below:
        raise SolverError(
            f"contour around n = {contour.n} reaches {low.complete_below:.17g}, "
            "past which the solve left eigenvalues out"
        )

    _, ws = contour.points()
    # rho u_j exactly: the weights are rho u_j / N with N a power of two
    offsets = contour.nodes * ws
    q, reach = 2 * contour.n - 1, POLE_MARGIN * contour.radius
    dense = not low.certifies((q, q), contour.center, reach)
    if dense:
        band = _certified_band(low, contour.n, contour.center + reach)[0]
        mu = unperturbed_eigenvalues(op.m, len(band) // 2)
    else:
        j = len(low.matrix) // 2
        band = _decouple(low.matrix, op.m, j, (q, q), np.zeros(2 * j), low.beta)[0]
        mu = np.full(2, contour.center)
    delta = _shift_poles(band, mu, contour.center, contour.radius)[0]
    bad = np.abs(np.abs(delta) - contour.radius) < COLLISION_REL_TOL * contour.radius
    if np.any(bad):
        culprit = complex(contour.center + delta[np.argmax(bad)])
        raise ContourCollisionError(
            f"perturbed eigenvalue {culprit} lies within {COLLISION_REL_TOL:g} x radius "
            f"of the contour around index n = {contour.n}",
            offending=culprit,
        )
    traces = np.sum(1.0 / (offsets[:, None] - delta), axis=1)
    p_terms = ws * traces
    q_terms = p_terms * offsets
    tr_p, tr_q = np.sum(p_terms), np.sum(q_terms)
    half_p, half_q = 2.0 * np.sum(p_terms[::2]), 2.0 * np.sum(q_terms[::2])
    quad_tol = float(max(abs(tr_p - half_p), abs(tr_q - half_q)))
    return ProjectorPair(
        contour=contour, tr_p=complex(tr_p), tr_q=complex(tr_q), quad_tol=quad_tol,
        block=len(delta), dense=dense,
    )


def _free_nodes(v: FourierSequence, m: int, n: int, K: int, nodes: int):
    """Contour, nodes lambda_j, weights, the rows B_PR of B(v) at the
    resonant modes P = (2n-1, -(2n-1)), read by v.at(p - p'), and free node
    resolvents d[j, p] = 1 / (lambda_j - mu_p): what the quadratures below
    share."""
    if v(0) != 0:
        raise ValueError("the free-resolvent quadratures require a zero-mode-normalized potential")
    contour = ContourSpec(n=n, m=m, nodes=nodes)
    if n > K:
        raise ValueError(f"resonant modes +-{2 * n - 1} fall outside the window (K = {K})")
    lams, ws = contour.points()
    d = 1.0 / (lams[:, None] - unperturbed_eigenvalues(m, K)[None, :])
    rows = v.at(np.array([[2 * n - 1], [1 - 2 * n]]) - modes(K))
    return contour, lams, ws, rows, d


def q0_matrix(
    v: FourierSequence, m: int, n: int, K: int, nodes: int = 64
) -> np.ndarray:
    """The resonant rows, for the modes (2n-1, -(2n-1)), of the first-order
    trace-window matrix by quadrature:
    (1/2 pi i) \\oint (lambda - c) (lambda - A^m)^{-1} B(v) (lambda - A^m)^{-1} d lambda.
    Its other rows hold no pole inside the contour and vanish.

    Its closed form is q0_closed_form; riesz-check compares the two.
    """
    contour, lams, ws, rows, d = _free_nodes(v, m, n, K, nodes)
    return ((d[:, resonant_rows(K, n)[::-1]].T * (ws * (lams - contour.center))) @ d) * rows


def q0_closed_form(v: FourierSequence, m: int, n: int, K: int) -> np.ndarray:
    """Exact form of q0_matrix's two rows: entry (2n-1, -(2n-1)) =
    v(2(2n-1)), its mirror v(-2(2n-1)), and zero everywhere else."""
    out = np.zeros((2, 2 * K), dtype=complex)
    q = 2 * n - 1
    if n > K:
        raise ValueError(f"resonant modes +-{q} fall outside the window (K = {K})")
    out[[0, 1], resonant_rows(K, n)] = v(2 * q), v(-2 * q)
    return out


def script_S_2x2(
    v: FourierSequence, m: int, n: int, K: int, nodes: int = 64
) -> np.ndarray:
    """Second-order resonant block by quadrature, as a 2x2 matrix over the
    modes (2n-1, -(2n-1)):
    (1/2 pi i) \\oint P0 (lambda - A^m)^{-1} B (lambda - A^m)^{-1} B P0 d lambda.

    Off-diagonal entries are the correction values, [0, 1] = l_+ and
    [1, 0] = l_- of eigensolver.correction_values; diagonal entries the
    resonant self-energy.
    """
    contour, lams, ws, rows, d = _free_nodes(v, m, n, K, nodes)
    # the node sum folds into one weight per intermediate mode; B_RP is
    # J B_PR^T J by the window's mirror identity J B J = B^T
    return (rows * ((ws / (lams - contour.center)) @ d)) @ rows[::-1, ::-1].T
