"""Command-line surface: configuration, potential ingestion, experiment
orchestration, and bit-stable CSV/JSON emission.

Exit codes partition the failure causes:
    0  success
    2  configuration or precondition violation
    3  file I/O (unreadable, malformed, or unwritable files)
    4  solver failure (an unsettled fixed point, a disc or contour past the
       certified block, a cross-oracle mismatch)
    5  a lemma-sweep bound failed
    6  an eigenvalue collides with a quadrature contour

Floats are printed with 17 significant digits (binary64 round-trip exact);
the JSON format mirrors the same strings so no consumer re-rounds them.
Identical config and inputs produce byte-identical files.  A handler imports
the modules only its command reads (asymptotics, riesz, localization,
lemmas) in its body, so a run loads and compiles no other command's code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from typing import NoReturn, get_type_hints

import numpy as np

from . import __version__
from .eigensolver import (
    ContourCollisionError, PairingConfigError, SolverError, compute_pair_table,
    converge_truncation, correction_values, low_block, pair_eigenvalues,
)
from .operator import MAX_HALF_WINDOW, build_T
from .seqspace import MIN_FIT_POINTS, FourierSequence, normalize_zero_mode

TR_P_TOL = 1e-9
Q0_TOL = 1e-9
TAU_XCHECK_TOL = 1e-8
L_XCHECK_TOL = 1e-8


class ConfigError(ValueError):
    pass


class PotentialFileError(RuntimeError):
    pass


class LemmaBoundFailure(RuntimeError):
    pass


def _option(default, help=None):
    """A RunConfig field that is also a config-file key and the flag
    --name ('-' for '_')."""
    return field(default=default, metadata={"help": help})


@dataclass
class RunConfig:
    command: str
    m: int = _option(1, "operator order parameter")
    alpha: float = _option(0.0, "singularity scale in [0, 1]")
    K: str | int = _option("auto", "half-window size or 'auto'")
    n_max: int = _option(16)
    R: float = _option(1.0, "potential norm bound")
    C: float = _option(1.1, "disc constant, > 1")
    epsilon: float = _option(0.05)
    seed: int = _option(0)
    quad_nodes: int = _option(64)
    format: str = _option("csv", "csv or json")
    out: str | None = _option(None, "output table path")
    potential: str | None = _option(None, "potential JSON file")

    def echo(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


OPTIONS = fields(RunConfig)[1:]  # every field but the command

# the window each command solves under --K auto, from n_max; spectrum and
# asymptotics start the doubling there
AUTO_WINDOW = {
    "spectrum": lambda n_max: max(64, 8 * n_max),
    "asymptotics": lambda n_max: max(64, 8 * n_max),
    "localize": lambda n_max: max(32, 4 * n_max),
    "riesz-check": lambda n_max: max(128, 4 * n_max),
    "alpha1": lambda n_max: 4 * n_max,
    "lemmas": lambda n_max: 64,
}
PAIRED = ("spectrum", "asymptotics", "riesz-check", "alpha1")  # need K >= 4 n_max


def _window(cfg: RunConfig) -> int:
    """The window the command solves: --K, or its AUTO_WINDOW."""
    return cfg.K if isinstance(cfg.K, int) else AUTO_WINDOW[cfg.command](cfg.n_max)


def _validate_config(cfg: RunConfig):
    if not isinstance(cfg.m, int) or cfg.m < 1:
        raise ConfigError(f"--m must be a positive integer, got {cfg.m}")
    if not 0.0 <= cfg.alpha <= 1.0:
        raise ConfigError(f"--alpha must lie in [0, 1], got {cfg.alpha}")
    if cfg.K != "auto":
        if not isinstance(cfg.K, int) or not 1 <= cfg.K <= MAX_HALF_WINDOW:
            raise ConfigError(
                f"--K must be 'auto' or an integer in [1, {MAX_HALF_WINDOW}], got {cfg.K}"
            )
    if cfg.n_max < 1:
        raise ConfigError(f"--n-max must be >= 1, got {cfg.n_max}")
    K = _window(cfg)
    if cfg.command in PAIRED and K < 4 * cfg.n_max:
        raise ConfigError(
            f"--K {K} too small for --n-max {cfg.n_max}: modes within a factor "
            "4 of the window edge are truncation-polluted (need K >= 4 n_max)"
        )
    if K > MAX_HALF_WINDOW:
        raise ConfigError(
            f"--n-max {cfg.n_max} needs the window {K}, past the largest window {MAX_HALF_WINDOW}"
        )
    for flag, val in (("--R", cfg.R), ("--C", cfg.C), ("--epsilon", cfg.epsilon)):
        if not math.isfinite(val):
            raise ConfigError(f"{flag} must be finite, got {val}")
    if cfg.R <= 0:
        raise ConfigError(f"--R must be positive, got {cfg.R}")
    if cfg.C <= 1:
        raise ConfigError(f"--C must exceed 1, got {cfg.C}")
    if cfg.epsilon <= 0:
        raise ConfigError(f"--epsilon must be positive, got {cfg.epsilon}")
    if cfg.quad_nodes < 16 or cfg.quad_nodes & (cfg.quad_nodes - 1):
        raise ConfigError(
            f"--quad-nodes must be a power of two >= 16, got {cfg.quad_nodes}"
        )
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"--format must be csv or json, got {cfg.format}")
    if cfg.command != "lemmas" and cfg.potential is None:
        raise ConfigError(f"command {cfg.command} requires --potential")
    if cfg.out is None:
        raise ConfigError("an output path is required (--out)")
    if cfg.command == "riesz-check" and cfg.n_max < 2:
        raise ConfigError("riesz-check needs --n-max >= 2")


def _require_fit_rows(cfg: RunConfig, first: int, exact: bool):
    """Before any solve, refuse an --n-max that leaves a decay fit over
    [first, n_max] fewer than MIN_FIT_POINTS rows, unless all are exactly 0."""
    need = first + MIN_FIT_POINTS - 1
    if not exact and cfg.n_max < need:
        raise ConfigError(f"{cfg.command} needs --n-max >= {need} for its decay fit, got {cfg.n_max}")


def _require_correction_window(v: FourierSequence) -> FourierSequence:
    """v, refused before any solve when correction_values' window, half its
    reach, would pass MAX_HALF_WINDOW."""
    if v.reach > 2 * MAX_HALF_WINDOW:
        raise ConfigError(f"the farthest coefficient, at index {v.reach}, lies past index "
                          f"{2 * MAX_HALF_WINDOW}, the farthest the correction values l+- read")
    return v


# ---------------------------------------------------------------------------
# I/O
# ---------------------------------------------------------------------------

def fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def load_potential(path: str) -> FourierSequence:
    """Read the even-lattice potential format
    {"parity": "even", "coeffs": [[k, re, im], ...]}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise PotentialFileError(f"cannot read potential file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PotentialFileError(f"{path}: malformed JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise PotentialFileError(f"{path}: top level must be an object")
    if raw.get("parity") != "even":
        raise PotentialFileError(
            f"{path}: field 'parity' must be \"even\", got {raw.get('parity')!r}"
        )
    coeffs_raw = raw.get("coeffs")
    if not isinstance(coeffs_raw, list):
        raise PotentialFileError(f"{path}: field 'coeffs' must be a list of [k, re, im]")
    coeffs: dict[int, complex] = {}
    for i, entry in enumerate(coeffs_raw):
        where = f"{path}: coeffs[{i}]"
        if not isinstance(entry, list) or len(entry) != 3:
            raise PotentialFileError(f"{where}: expected [k, re, im], got {entry!r}")
        k, re, im = entry
        if not isinstance(k, int) or isinstance(k, bool):
            raise PotentialFileError(f"{where}: index {k!r} is not an integer")
        if k % 2:
            raise PotentialFileError(f"{where}: index {k} is odd; potentials live on the even lattice")
        if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in (re, im)):
            raise PotentialFileError(f"{where}: non-numeric coefficient {re!r}, {im!r}")
        try:
            val = complex(re, im)
        except OverflowError:  # an integer beyond the binary64 range
            val = complex(math.inf)
        if not (math.isfinite(val.real) and math.isfinite(val.imag)):
            raise PotentialFileError(f"{where}: non-finite coefficient {val}")
        if k in coeffs:
            raise PotentialFileError(f"{where}: duplicate index {k}")
        coeffs[k] = val
    return FourierSequence(coeffs)


def write_table(cfg: RunConfig, columns, rows, footer=None, exponents=None):
    """Emit the table with a metadata header; the whole payload is built in
    memory first so a failure can never leave a partial table behind without
    its INCOMPLETE marker."""
    meta = {
        "command": cfg.command,
        "version": __version__,
        "config": cfg.echo(),
        "exponents": exponents or {},
    }
    if cfg.format == "csv":
        lines = [
            f"# hillgap {cfg.command} v{__version__}",
            f"# config: {json.dumps(meta['config'], sort_keys=True)}",
            f"# exponents: {json.dumps(meta['exponents'], sort_keys=True)}",
            ",".join(columns),
        ]
        lines.extend(",".join(fmt(x) for x in row) for row in rows)
        if footer is not None:
            lines.append(f"# footer: {json.dumps(footer, sort_keys=True)}")
        payload = "\n".join(lines) + "\n"
    else:
        doc = dict(meta)
        doc["columns"] = list(columns)
        doc["rows"] = [[fmt(x) for x in row] for row in rows]
        doc["footer"] = footer
        payload = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    try:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    except OSError as exc:
        try:
            with open(cfg.out, "a", encoding="utf-8", newline="\n") as fh:
                fh.write("# INCOMPLETE\n")
        except OSError:
            pass
        raise PotentialFileError(f"cannot write output file {cfg.out}: {exc}") from exc


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _spectrum_table(cfg: RunConfig, v: FourierSequence):
    # each row's truncation bar, read off the solve, sets its converged flag
    if cfg.K == "auto":
        return converge_truncation(v, cfg.m, cfg.n_max, _window(cfg))[1]
    return compute_pair_table(v, cfg.m, cfg.K, n_max=cfg.n_max, bars=True)


def _verdict(table) -> dict:
    """What set the converged flags: the largest truncation bar, and under
    --K auto the windows solved and why the doubling stopped."""
    verdict = {"max_trunc_bar": fmt(float(np.max([r.bar for r in table.rows], initial=0.0)))}
    if table.stop:
        verdict.update(windows=list(table.windows), stop=table.stop)
    return verdict


SPECTRUM_COLUMNS = [
    "n", "re_lo", "im_lo", "re_hi", "im_hi",
    "re_tau", "im_tau", "re_gamma", "im_gamma", "converged",
]


def run_spectrum(cfg: RunConfig) -> int:
    v = load_potential(cfg.potential)
    table = _spectrum_table(cfg, v)
    rows = [
        [
            r.n,
            r.lambda_lo.real, r.lambda_lo.imag,
            r.lambda_hi.real, r.lambda_hi.imag,
            r.tau.real, r.tau.imag,
            r.gamma.real, r.gamma.imag,
            r.converged,
        ]
        for r in table.rows
    ]
    footer = {
        "K": table.K,
        "flagged": {str(n): c for n, c in sorted(table.flagged.items())},
        "unrefined": list(table.unrefined),
        **_verdict(table),
    }
    write_table(cfg, SPECTRUM_COLUMNS, rows, footer=footer)
    return 0


ASYMPTOTICS_COLUMNS = [
    "n", "center", "re_shift", "im_shift",
    "re_root", "im_root", "re_root_corr", "im_root_corr",
    "rem_tau", "rem_gamma", "rem_gamma_corr",
]


def run_asymptotics(cfg: RunConfig) -> int:
    from . import asymptotics

    v = _require_correction_window(load_potential(cfg.potential))
    _require_fit_rows(cfg, asymptotics.FIT_RANGE_START, normalize_zero_mode(v)[0].is_zero())
    table = _spectrum_table(cfg, v)
    rem_tau = asymptotics.tau_remainder(table, v, cfg.m, cfg.alpha, cfg.epsilon)
    preds = asymptotics.predict_pairs(v, cfg.m, rem_tau.ns)
    rem_g, rem_gc = (
        asymptotics.gamma_remainder(table, v, cfg.m, cfg.alpha, c, cfg.epsilon, predictions=preds)
        for c in (False, True)
    )
    by_n_tau = dict(rem_tau.pairs())
    by_n_g = dict(rem_g.pairs())
    by_n_gc = dict(rem_gc.pairs())
    rows = [
        [
            n, pred.center, pred.shift.real, pred.shift.imag,
            pred.root_term.real, pred.root_term.imag,
            pred.root_term_corr.real, pred.root_term_corr.imag,
            by_n_tau[n], by_n_g[n], by_n_gc[n],
        ]
        for n, pred in preds.items()
    ]
    exponents = {
        "tau": rem_tau.target_exponent,
        "gamma": rem_g.target_exponent,
        "gamma_corr": rem_gc.target_exponent,
        "epsilon": cfg.epsilon,
    }
    footer = {
        "K": table.K,
        "unrefined": list(table.unrefined),
        "fitted_slope_tau": fmt(rem_tau.fitted_slope),
        "fitted_slope_gamma": fmt(rem_g.fitted_slope),
        "fitted_slope_gamma_corr": fmt(rem_gc.fitted_slope),
        "target_exponents": {k: fmt(x) for k, x in exponents.items()},
        "bounded_flags": {
            "tau": rem_tau.bounded_flag,
            "gamma": rem_g.bounded_flag,
            "gamma_corr": rem_gc.bounded_flag,
        },
        **_verdict(table),
    }
    write_table(cfg, ASYMPTOTICS_COLUMNS, rows, footer=footer, exponents=exponents)
    return 0


LOCALIZE_COLUMNS = ["n", "radius", "hits", "max_deviation", "holds"]


def run_localize(cfg: RunConfig) -> int:
    from .localization import localization_report

    v = load_potential(cfg.potential)
    report = localization_report(v, cfg.m, cfg.alpha, cfg.R, cfg.C, _window(cfg))
    rows = [
        [d.n, d.radius, d.hits, d.max_deviation, d.hits == 2]
        for d in report.disc_rows
    ]
    footer = {
        "K": report.K,
        "n0_empirical": report.n0_empirical,
        "cone_count": report.cone_count,
        "cone_threshold": fmt(report.cone_threshold),
        "cone_M": fmt(report.cone_M),
    }
    write_table(cfg, LOCALIZE_COLUMNS, rows, footer=footer)
    return 0


def run_lemmas(cfg: RunConfig) -> int:
    from . import lemmas

    return lemmas.run_lemmas(cfg, _window(cfg))


RIESZ_COLUMNS = [
    "n", "re_tr_p", "im_tr_p", "q0_defect",
    "tau_diff", "l_diff", "quad_tol", "holds",
]


def run_riesz_check(cfg: RunConfig) -> int:
    from . import riesz

    v, _ = normalize_zero_mode(_require_correction_window(load_potential(cfg.potential)))
    K = _window(cfg)
    low = low_block(build_T(v, cfg.m, K), cfg.n_max)
    table = pair_eigenvalues(low, n_max=cfg.n_max)

    rows, max_block, dense_contours = [], 0, []
    l_plus, l_minus = correction_values(v, cfg.m, np.arange(2, cfg.n_max + 1))
    for n in range(2, cfg.n_max + 1):
        contour = riesz.ContourSpec(n=n, m=cfg.m, nodes=cfg.quad_nodes)
        trace = riesz.riesz_projector(low, contour)
        max_block = max(max_block, trace.block)
        if trace.dense:
            dense_contours.append(n)
        q0 = riesz.q0_matrix(v, cfg.m, n, K, nodes=cfg.quad_nodes)
        closed = riesz.q0_closed_form(v, cfg.m, n, K)
        q0_defect = float(np.max(np.abs(q0 - closed)))
        s2 = riesz.script_S_2x2(v, cfg.m, n, K, nodes=cfg.quad_nodes)
        l_diff = max(abs(s2[0, 1] - l_plus[n - 2]), abs(s2[1, 0] - l_minus[n - 2]))
        try:
            tau_diff = abs(trace.tr_q / 2.0 - table.row(n).d_tau)
            tau_tol = TAU_XCHECK_TOL * (1.0 + contour.radius)
        except KeyError:
            tau_diff = math.nan
            tau_tol = math.inf
        holds = bool(
            abs(trace.tr_p - 2.0) <= TR_P_TOL
            and q0_defect <= Q0_TOL
            and (math.isnan(tau_diff) or tau_diff <= tau_tol)
            and l_diff <= L_XCHECK_TOL
        )
        rows.append([
            n, trace.tr_p.real, trace.tr_p.imag, q0_defect,
            float(tau_diff), float(l_diff), trace.quad_tol, holds,
        ])
    all_hold = all(r[-1] for r in rows)
    footer = {"all_hold": all_hold, "max_block": max_block, "dense_contours": dense_contours}
    write_table(cfg, RIESZ_COLUMNS, rows, footer=footer)
    if not all_hold:
        raise SolverError("riesz cross-oracle tolerances violated")
    return 0


ALPHA1_COLUMNS = ["n", "ratio"]


def run_alpha1(cfg: RunConfig) -> int:
    from . import asymptotics

    v = load_potential(cfg.potential)
    _require_fit_rows(cfg, 1, v.is_zero())
    K = _window(cfg)
    report = asymptotics.alpha1_experiment(v, cfg.m, cfg.n_max, K)
    rows = [[n, val] for n, val in report.pairs()]
    footer = {
        "K": K,
        "unrefined": list(report.unrefined),
        "fitted_slope": fmt(report.fitted_slope),
        "n0_below_one": report.n0_below_one,
        "bounded": report.bounded_flag,
    }
    write_table(cfg, ALPHA1_COLUMNS, rows, footer=footer)
    return 0


HANDLERS = {
    "spectrum": run_spectrum,
    "asymptotics": run_asymptotics,
    "localize": run_localize,
    "lemmas": run_lemmas,
    "riesz-check": run_riesz_check,
    "alpha1": run_alpha1,
}


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hillgap",
        description="Truncated Fourier-side spectra of semi-periodic Hill-type "
        "operators: eigenvalue pairs, localization discs, projector traces, "
        "and gap asymptotics.",
    )
    parser.add_argument("command", choices=HANDLERS)
    hints = get_type_hints(RunConfig)
    for f in OPTIONS:
        kind = hints[f.name]
        parser.add_argument(
            "--" + f.name.replace("_", "-"),
            dest=f.name,
            type=kind if kind in (int, float) else None,
            help=f.metadata["help"],
        )
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--print-config", action="store_true")
    return parser


def _coerce_k(raw) -> str | int:
    if raw is None or raw == "auto":
        return "auto"
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"--K must be an integer or 'auto', got {raw!r}")


def _check_config_types(path: str, file_cfg: dict):
    """Reject config-file values whose JSON type does not fit the field:
    an integer counts as a float, a boolean counts as neither."""
    hints = get_type_hints(RunConfig)
    for key, val in file_cfg.items():
        want = hints[key]
        accepted = (int, float) if want is float else want
        if isinstance(val, bool) or not isinstance(val, accepted):
            name = getattr(want, "__name__", str(want))
            raise ConfigError(f"{path}: config key {key!r} must be {name}, got {val!r}")


def effective_config(args: argparse.Namespace) -> RunConfig:
    merged = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise PotentialFileError(f"cannot read config file {args.config}: {exc}")
        except json.JSONDecodeError as exc:
            raise PotentialFileError(f"{args.config}: malformed JSON ({exc})")
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{args.config}: config file must hold an object")
        unknown = set(file_cfg) - {f.name for f in OPTIONS}
        if unknown:
            raise ConfigError(f"{args.config}: unknown config keys {sorted(unknown)}")
        _check_config_types(args.config, file_cfg)
        merged.update(file_cfg)
    for f in OPTIONS:
        if getattr(args, f.name) is not None:
            merged[f.name] = getattr(args, f.name)
    merged["K"] = _coerce_k(merged.get("K"))
    cfg = RunConfig(command=args.command, **merged)
    _validate_config(cfg)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = effective_config(args)
    except ConfigError as exc:
        print(f"hillgap: config error: {exc}", file=sys.stderr)
        return 2
    except PotentialFileError as exc:
        print(f"hillgap: {exc}", file=sys.stderr)
        return 3

    if args.print_config:
        print(json.dumps(cfg.echo(), sort_keys=True, indent=1))
        return 0

    try:
        return HANDLERS[cfg.command](cfg)
    except ContourCollisionError as exc:
        print(f"hillgap: contour collision: {exc}", file=sys.stderr)
        return 6
    except LemmaBoundFailure as exc:
        print(f"hillgap: {exc}", file=sys.stderr)
        return 5
    except SolverError as exc:
        print(f"hillgap: solver failure: {exc}", file=sys.stderr)
        return 4
    except PotentialFileError as exc:
        print(f"hillgap: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"hillgap: I/O error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, PairingConfigError, ValueError) as exc:
        print(f"hillgap: invalid configuration: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """The `hillgap` script and `python -m hillgap`: exit with main()'s code
    through os._exit once stdout and stderr are flushed, skipping the
    interpreter's teardown.  A command closes every file it writes before
    main returns; an exception or argparse's SystemExit exits normally."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
