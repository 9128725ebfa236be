"""Output checks for one invocation's table, and the independent reference
the two eigen-workloads are compared against.

The reference assembles T = A^m + B(v) itself from the potential
coefficients and solves it with scipy.linalg, so it shares no code with the
package.  Its eigenvalues carry an absolute error of a few ulps of ||T||
(about 6e-10 at K = 256), which also sets the floor of any pair gap; pair
values are therefore compared with an absolute tolerance tied to the center,
never by their digits.
"""

from __future__ import annotations

import cmath
import csv
import json
import math

import numpy as np
import scipy.linalg

# |computed - reference| <= PAIR_ABS_TOL + PAIR_CENTER_TOL * center, per
# eigenvalue, pair mean, pair gap and remainder cell.  At K = 256 the
# observed differences stay below 3e-10 for every n.
PAIR_ABS_TOL = 1e-8
PAIR_CENTER_TOL = 1e-12


class CheckError(Exception):
    """The output of an invocation is wrong; the message says how."""


def read_table(path) -> tuple[list[str], list[list[str]], dict]:
    """Columns, rows and footer of a CSV table written by the CLI."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    footer = None
    body = []
    for line in lines:
        if line.startswith("# footer: "):
            footer = json.loads(line[len("# footer: "):])
        elif line.startswith("# INCOMPLETE"):
            raise CheckError("table marked INCOMPLETE")
        elif not line.startswith("#"):
            body.append(line)
    if footer is None:
        raise CheckError("table has no footer")
    parsed = list(csv.reader(body))
    if not parsed:
        raise CheckError("table has no header row")
    return parsed[0], parsed[1:], footer


def _center(m: int, n: int) -> float:
    return float(2 * n - 1) ** (2 * m) * math.pi ** (2 * m)


def _tol(m: int, n: int) -> float:
    return PAIR_ABS_TOL + PAIR_CENTER_TOL * _center(m, n)


def reference_pairs(
    coeffs: dict[int, complex], m: int, K: int, n_max: int, hermitian: bool
) -> dict[int, tuple[complex, complex]]:
    """Eigenvalue pairs of the truncated operator at window K: the two
    eigenvalues within (2n-1)^m of each center, in lexicographic order."""
    p = 2 * np.arange(-K + 1, K + 1) - 1
    diff = p[:, None] - p[None, :]
    span = 4 * K - 2
    lookup = np.zeros(span + 1, dtype=complex)
    for k, val in coeffs.items():
        if abs(k) <= span:
            lookup[(k + span) // 2] = val
    t = lookup[(diff + span) // 2] + np.diag((p * math.pi) ** (2.0 * m))
    if hermitian:
        values = scipy.linalg.eigvalsh(t).astype(complex)
    else:
        values = scipy.linalg.eigvals(t, overwrite_a=True, check_finite=False)
    pairs = {}
    for n in range(1, n_max + 1):
        hits = values[np.abs(values - _center(m, n)) < float(2 * n - 1) ** m]
        if len(hits) != 2:
            raise CheckError(f"reference: disc n = {n} holds {len(hits)} eigenvalues")
        hits = hits[np.lexsort((hits.imag, hits.real))]
        pairs[n] = (complex(hits[0]), complex(hits[1]))
    return pairs


def _close(what: str, n: int, got: complex, want: complex, tol: float):
    if not abs(got - want) <= tol:
        raise CheckError(
            f"{what} at n = {n}: {got} differs from the reference {want} "
            f"by {abs(got - want):.3e} > {tol:.3e}"
        )


def _expect_rows(rows, count: int, first: int = 1):
    ns = [int(r[0]) for r in rows]
    if ns != list(range(first, first + count)):
        raise CheckError(f"expected rows n = {first}..{first + count - 1}, got {ns[:4]}...")


def check_spectrum(path, expect: dict, reference) -> None:
    columns, rows, footer = read_table(path)
    if footer.get("K") != expect["K"]:
        raise CheckError(f"window stopped at K = {footer.get('K')}, expected {expect['K']}")
    if footer.get("flagged"):
        raise CheckError(f"flagged rows {footer['flagged']}")
    _expect_rows(rows, expect["rows"])
    col = {c: i for i, c in enumerate(columns)}
    for r in rows:
        n = int(r[0])
        if r[col["converged"]] != "true":
            raise CheckError(f"row n = {n} not converged")
        lo = complex(float(r[col["re_lo"]]), float(r[col["im_lo"]]))
        hi = complex(float(r[col["re_hi"]]), float(r[col["im_hi"]]))
        tau = complex(float(r[col["re_tau"]]), float(r[col["im_tau"]]))
        gamma = complex(float(r[col["re_gamma"]]), float(r[col["im_gamma"]]))
        ref_lo, ref_hi = reference[n]
        tol = _tol(1, n)
        _close("lambda_lo", n, lo, ref_lo, tol)
        _close("lambda_hi", n, hi, ref_hi, tol)
        _close("tau", n, tau, (ref_lo + ref_hi) / 2.0, tol)
        _close("gamma", n, gamma, ref_hi - ref_lo, tol)


def check_asymptotics(path, expect: dict, reference, coeffs) -> None:
    """Every row must be present (only converged rows are written), and the
    remainders must match those of the reference pairs; the resonant root is
    recomputed from the coefficients."""
    columns, rows, footer = read_table(path)
    if "fitted_slope_tau" not in footer:
        raise CheckError("asymptotics footer lacks the fitted slopes")
    _expect_rows(rows, expect["rows"])
    col = {c: i for i, c in enumerate(columns)}
    for r in rows:
        n = int(r[0])
        c = _center(1, n)
        q = 2 * (2 * n - 1)
        root = cmath.sqrt(coeffs.get(-q, 0j) * coeffs.get(q, 0j))
        got_root = complex(float(r[col["re_root"]]), float(r[col["im_root"]]))
        _close("root term", n, got_root, root, 1e-12 * (1.0 + abs(root)))
        ref_lo, ref_hi = reference[n]
        tau, gamma = (ref_lo + ref_hi) / 2.0, ref_hi - ref_lo
        tol = _tol(1, n)
        _close("rem_tau", n, float(r[col["rem_tau"]]), abs(tau - c), tol)
        rem_gamma = min(abs(gamma + 2.0 * root), abs(gamma - 2.0 * root))
        _close("rem_gamma", n, float(r[col["rem_gamma"]]), rem_gamma, tol)


def check_riesz(path, expect: dict) -> None:
    columns, rows, footer = read_table(path)
    if footer.get("all_hold") is not True:
        raise CheckError("riesz footer: all_hold is not true")
    _expect_rows(rows, expect["rows"], first=2)
    holds = columns.index("holds")
    bad = [r[0] for r in rows if r[holds] != "true"]
    if bad:
        raise CheckError(f"riesz rows {bad} do not hold")


def check_lemmas(path) -> None:
    columns, rows, footer = read_table(path)
    if footer.get("failed") is not False:
        raise CheckError("lemmas footer: failed is not false")
    if footer.get("rows") != len(rows) or not rows:
        raise CheckError(f"lemmas footer counts {footer.get('rows')} rows, table has {len(rows)}")
    holds = columns.index("holds")
    bad = [r[:4] for r in rows if r[holds] not in ("true", "skip")]
    if bad:
        raise CheckError(f"lemma rows fail: {bad[:3]}")


def check_output(command: str, path, expect: dict, reference, coeffs) -> None:
    if command == "spectrum":
        check_spectrum(path, expect, reference)
    elif command == "asymptotics":
        check_asymptotics(path, expect, reference, coeffs)
    elif command == "riesz-check":
        check_riesz(path, expect)
    elif command == "lemmas":
        check_lemmas(path)
    else:
        raise ValueError(f"no check for command {command}")


def build_reference(command: str, expect: dict, coeffs, hermitian: bool):
    """Reference pairs for the eigen-workloads, None for the others."""
    if command not in ("spectrum", "asymptotics"):
        return None
    return reference_pairs(coeffs, 1, expect["K"], expect["rows"], hermitian)
