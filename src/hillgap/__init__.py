"""Fourier-side spectra of singular semi-periodic Hill-type operators.

The truncated operator T = A^m + B(v) lives on the odd-mode window
{2k-1 : -K+1 <= k <= K}; its eigenvalue pairs, localization discs, Riesz
projector traces, and gap asymptotics are computed and checked against the
closed-form predictions at desk scale.  The root exports the entry points,
each loading its submodule on first use (PEP 562), and imports no numpy.
Every submodule imports the root first, so before numpy loads the root sets
OPENBLAS_NUM_THREADS=1 unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS is already set: at desk-scale windows a second BLAS thread
saves little wall time and spins on another core.
"""

import importlib
import os

if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

_EXPORTS = {  # submodule: the names the root exports from it
    "seqspace": ("FourierSequence", "normalize_zero_mode", "rough_potential", "weighted_norm"),
    "operator": ("build_T",),
    "lemmas": ("SpectrumCollisionError", "elementary_bounds_check", "factorization_residual"),
    "eigensolver": (
        "compute_pair_table", "converge_truncation", "correction_values",
        "localization_radius", "low_block", "pair_eigenvalues",
    ),
    "localization": ("localization_report",),
    "riesz": ("ContourSpec", "q0_closed_form", "q0_matrix", "riesz_projector", "script_S_2x2"),
    "asymptotics": (
        "alpha1_experiment", "gamma_remainder", "one_term_check", "predict_pairs",
        "tau_remainder",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value
