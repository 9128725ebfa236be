"""Fourier-side spectra of singular semi-periodic Hill-type operators.

The truncated operator T = A^m + B(v) lives on the odd-mode window
{2k-1 : -K+1 <= k <= K}; its eigenvalue pairs, localization discs, Riesz
projector traces, and gap asymptotics are computed and checked against the
closed-form predictions at desk scale.  The root exports the entry points;
everything else is reached through the submodules.  Imported before numpy,
the package sets OPENBLAS_NUM_THREADS=1 unless OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS is already set: at desk-scale windows a
second BLAS thread saves little wall time and spins on another core.
"""

import os

if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .seqspace import (
    FourierSequence,
    PotentialFamily,
    PotentialSpec,
    SobolevParams,
    convolve,
    is_real_valued,
    make_potential,
    normalize_zero_mode,
    weighted_norm,
)
from .operator import (
    SpectrumCollisionError,
    build_T,
    elementary_bounds_check,
    factorization_residual,
)
from .eigensolver import (
    compute_pair_table,
    converge_truncation,
    correction_values,
    localization_radius,
    localization_report,
    low_block,
    mark_converged,
    pair_eigenvalues,
)
from .riesz import (
    ContourSpec,
    q0_closed_form,
    q0_matrix,
    riesz_projector,
    script_S_2x2,
)
from .asymptotics import (
    alpha1_experiment,
    gamma_remainder,
    one_term_check,
    predict_pair,
    tau_remainder,
)

__version__ = "0.1.0"
