"""Fourier-side spectra of singular semi-periodic Hill-type operators.

The truncated operator T = A^m + B(v) lives on the odd-mode window
{2k-1 : -K+1 <= k <= K}; its eigenvalue pairs, localization discs, Riesz
projector traces, and gap asymptotics are computed and checked against the
closed-form predictions at desk scale.
"""

from .seqspace import (
    DecayFit,
    FourierSequence,
    Parity,
    ParityError,
    PotentialFamily,
    PotentialSpec,
    SobolevParams,
    conjugate_seq,
    convolve,
    decay_exponent,
    h_membership_bounded,
    is_real_valued,
    make_potential,
    normalize_zero_mode,
    reflect_seq,
    weighted_norm,
)
from .operator import (
    DiscRegion,
    ExtRegion,
    ResolventFactors,
    SpectrumCollisionError,
    TruncatedOperator,
    VertRegion,
    build_A,
    build_B,
    build_resolvent_factors,
    build_T,
    elementary_bounds_check,
    eq506_check,
    ext_bound,
    factorization_residual,
    hs_norm_S,
    modes,
    op_norm_S,
    resolvent_shifted_norm,
    unperturbed_eigenvalues,
    vert_bound,
    vert_bound_combined,
    vert_min_n,
)
from .eigensolver import (
    EigenList,
    EigenPairRow,
    EigenPairTable,
    FixedRadius,
    GammaRadius,
    LocalizationReport,
    PairingConfigError,
    LocalizationRadius,
    SolverError,
    compute_pair_table,
    converge_truncation,
    eigenvalues,
    lexicographic_order,
    localization_report,
    mark_converged,
    pair_eigenvalues,
    localization_radius,
)
from .riesz import (
    ContourCollisionError,
    ContourSpec,
    ProjectorPair,
    TauTraceResult,
    l_direct,
    l_pair,
    q0_closed_form,
    q0_matrix,
    riesz_projector,
    script_S_2x2,
    tau_from_traces,
)
from .asymptotics import (
    PredictionRow,
    RemainderKind,
    RemainderReport,
    alpha1_experiment,
    gamma_remainder,
    one_term_check,
    predict_pair,
    tau_remainder,
)

__version__ = "0.1.0"
