"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to stream them) and
asserts the criterion at its stated tolerance.
"""

import json
import math
import time

import numpy as np
import pytest
from conftest import l_direct

import hillgap as hg
from hillgap.cli import main as cli_main

PI2 = math.pi**2


def record(num, desc, ok):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}", flush=True)
    assert ok, f"criterion {num} failed: {desc}"


def vseq(coeffs):
    return hg.FourierSequence.make("even", coeffs)


def rough_potential(seed, m, alpha, K, radius=1.0, hermitian=False):
    spec = hg.PotentialSpec(
        hg.PotentialFamily.RANDOM_ROUGH,
        {"window": 4 * K - 2, "hermitian": hermitian},
        radius=radius,
        seed=seed,
    )
    return hg.make_potential(spec, hg.SobolevParams(m=m, alpha=alpha))


def table_with_flags(v, m, K, n_max):
    """Pair table at the stated window, convergence-flagged against the
    doubled window."""
    base = hg.compute_pair_table(v, m, K, n_max=n_max)
    confirm = hg.compute_pair_table(v, m, 2 * K, n_max=n_max)
    return hg.mark_converged(base, confirm, 1e-9)


def test_criterion_01_unperturbed_spectrum():
    t0 = time.monotonic()
    ok = True
    v = vseq({})
    for m in (1, 2, 3):
        table = hg.compute_pair_table(v, m, 64)
        for r in table.rows:
            c = float(2 * r.n - 1) ** (2 * m) * math.pi ** (2 * m)
            ok = ok and abs(r.lambda_lo - c) <= 1e-10 * c
            ok = ok and abs(r.lambda_hi - c) <= 1e-10 * c
        ok = ok and len(table.rows) == 16
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    record(1, f"unperturbed spectrum exact for m in {{1,2,3}} ({elapsed:.2f} s)", ok)


def test_criterion_02_exact_identities():
    ok = True
    rng = np.random.default_rng(0xC2)
    for m in (1, 2):
        for seed in range(20):
            v = rough_potential(seed, m, 0.0, 16, radius=1.0)
            op = hg.build_T(v, m, 64)
            eigs = hg.eigenvalues(op)
            # trace identity
            tr = np.trace(op.matrix)
            ok = ok and abs(eigs.values.sum() - tr) <= 1e-9 * abs(tr)
            # shift equivariance under v(0) -> v(0) + c
            c = complex(rng.standard_normal(), rng.standard_normal())
            shifted = hg.eigenvalues(hg.build_T(v.with_entry(0, v(0) + c), m, 64))
            moved = eigs.values + c
            scale = float(np.max(np.abs(eigs.values)))
            ok = ok and np.max(
                np.abs(np.sort_complex(shifted.values) - np.sort_complex(moved))
            ) <= 1e-9 * scale
            # factorization identity at 10 random off-spectrum lambda
            v0, _ = hg.normalize_zero_mode(v)
            t_max = float(np.max(np.abs(op.matrix)))
            done = 0
            while done < 10:
                lam = complex(rng.uniform(-100, 4000), rng.uniform(-50, 50))
                try:
                    res = hg.factorization_residual(v0, m, 64, lam)
                except hg.SpectrumCollisionError:
                    continue
                ok = ok and res <= 1e-12 * (abs(lam) + t_max)
                done += 1
    record(2, "trace identity, shift equivariance, factorization residual (20 seeds, m in {1,2})", ok)


def test_criterion_03_lemma_sweep(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "lemmas.csv"
    code = cli_main(["lemmas", "--K", "64", "--n-max", "200", "--out", str(out)])
    elapsed = time.monotonic() - t0
    ok = code == 0 and elapsed < 60.0
    # direct spot re-check of the three lemma families at full grid
    for m in (1, 2, 3):
        for alpha in (0.0, 0.25, 0.5, 0.75):
            for n in range(m, 201, 17):
                ok = ok and hg.elementary_bounds_check(m, alpha, n).all_hold
    record(3, f"lemma sweep exits 0 in {elapsed:.1f} s with all bounds holding", ok)


def test_criterion_04_disc_localization():
    ok = True
    K = 128
    worst_n0 = 0
    for m in (1, 2):
        for alpha in (0.0, 0.5, 0.75):
            for seed in range(8):
                v = rough_potential(seed, m, alpha, K, radius=1.0)
                rep = hg.localization_report(v, m, alpha, 1.0, 1.1, K)
                ok = ok and rep.n0_empirical < K // 4
                worst_n0 = max(worst_n0, rep.n0_empirical)
                for d in rep.disc_rows:
                    if d.n > rep.n0_empirical:
                        ok = ok and d.hits == 2
                        ok = ok and d.max_deviation < d.radius
    record(4, f"localization discs hold above n0 for 48 potentials (worst n0 = {worst_n0})", ok)


def test_criterion_05_riesz_cross_oracles():
    ok = True
    K, nodes = 128, 64
    trig = vseq({2: 0.6, -2: 0.6, 6: 0.4, -6: 0.4})
    rand = rough_potential(17, 1, 0.0, 24, radius=0.8)
    for v_raw in (trig, rand):
        v, c = hg.normalize_zero_mode(v_raw)
        eigs = hg.eigenvalues(hg.build_T(v, 1, K))
        table = hg.pair_eigenvalues(eigs, n_max=16)
        for n in range(2, 17):
            contour = hg.ContourSpec(n=n, m=1, nodes=nodes)
            trace = hg.riesz_projector(eigs, contour)
            ok = ok and abs(trace.tr_p - 2.0) <= 1e-9
            q0 = hg.q0_matrix(v, 1, n, K, nodes=nodes)  # the rows of 2n - 1, -(2n - 1)
            ok = ok and abs(q0[0, K + n - 1] + q0[1, K - n]) <= 1e-9
            ok = ok and np.max(np.abs(q0 - hg.q0_closed_form(v, 1, n, K))) <= 1e-9
            tau_eig = table.row(n).tau
            ok = ok and abs(trace.tau - tau_eig) <= 1e-8 * (1 + abs(trace.tau))
            s2 = hg.script_S_2x2(v, 1, n, K, nodes=nodes)
            l_plus = l_direct(v, 1, n)[0]
            ok = ok and abs(s2[0, 1] - l_plus) <= 1e-8
            (truncated,), _ = hg.correction_values(v, 1, [n])
            ok = ok and abs(truncated - l_plus) <= 1e-14 * abs(l_plus)
    record(5, "projector traces, first/second-order blocks, and tau/l cross-oracles (n in [2,16])", ok)


@pytest.fixture(scope="module")
def two_cluster_table():
    v = vseq({2: 1.0, -2: 1.0, 6: 1.0, -6: 1.0})
    return v, table_with_flags(v, 1, 256, 64)


def test_criterion_06_gap_asymptotics(two_cluster_table):
    v, table = two_cluster_table
    ok = all(r.converged for r in table.rows)
    rep = hg.gamma_remainder(table, v, 1, 0.0, corrected=False, fit_range=(8, 64))
    ok = ok and rep.fitted_slope <= -0.3
    rep_corr = hg.gamma_remainder(table, v, 1, 0.0, corrected=True, fit_range=(8, 64))
    pairs = zip(rep_corr.values, rep.values)
    frac = np.mean([1.0 if a <= b else 0.0 for a, b in pairs])
    ok = ok and frac >= 0.8
    record(
        6,
        f"gap remainder slope {rep.fitted_slope:.2f} <= -0.3; corrected no worse in {100 * frac:.0f}% of rows",
        ok,
    )


def test_criterion_07_mean_asymptotics(two_cluster_table):
    v, table = two_cluster_table
    rep = hg.tau_remainder(table, v, 1, 0.0, fit_range=(8, 64))
    ok = rep.fitted_slope <= -0.7
    record(7, f"pair-mean remainder slope {rep.fitted_slope:.2f} <= -0.7", ok)


def test_criterion_08_real_valued_ordering(two_cluster_table):
    ok = True
    v_trig, table_trig = two_cluster_table
    geo = {0: 0.3}
    for k in range(1, 33):
        geo[2 * k] = 0.6**k
        geo[-2 * k] = 0.6**k
    v_geo = vseq(geo)
    table_geo = table_with_flags(v_geo, 1, 128, 32)
    checked_sign_rows = 0
    for v, table in ((v_trig, table_trig), (v_geo, table_geo)):
        shift = v(0).real
        for r in table.rows:
            ok = ok and r.lambda_lo.imag == 0 and r.lambda_hi.imag == 0
            ok = ok and r.lambda_lo.real <= r.lambda_hi.real
            q = 2 * (2 * r.n - 1)
            mod = abs(v(q))
            base = float(2 * r.n - 1) ** 2 * PI2 + shift
            # sign-agnostic deviation of the pair from the two-term display
            direct = max(abs(r.lambda_lo - (base - mod)), abs(r.lambda_hi - (base + mod)))
            crossed = max(abs(r.lambda_lo - (base + mod)), abs(r.lambda_hi - (base - mod)))
            remainder = min(direct, crossed)
            if mod > 10 * remainder:
                checked_sign_rows += 1
                ok = ok and r.lambda_lo.real < base < r.lambda_hi.real
                ok = ok and direct < crossed  # minus branch below, plus above
    ok = ok and checked_sign_rows >= 6
    record(
        8,
        f"real spectra ordered and straddling center+v(0) ({checked_sign_rows} sign rows checked)",
        ok,
    )


def test_criterion_09_alpha1_experiment():
    rng = np.random.default_rng(0xA1)
    coeffs = {}
    for k in range(1, 256):
        coeffs[2 * k] = (2 * k) ** 0.4 * np.exp(2j * np.pi * rng.random())
        coeffs[-2 * k] = (2 * k) ** 0.4 * np.exp(2j * np.pi * rng.random())
    v = vseq(coeffs)
    rep = hg.alpha1_experiment(v, 1, 64, K=256)
    ok = rep.n0_below_one is not None and rep.n0_below_one <= 32
    ok = ok and rep.fitted_slope < 0
    tail = [val for n, val in rep.pairs() if n > rep.n0_below_one]
    ok = ok and bool(tail) and all(val < 1.0 for val in tail)
    record(
        9,
        f"limiting-scale ratios below 1 beyond n0 = {rep.n0_below_one} with slope {rep.fitted_slope:.2f} < 0",
        ok,
    )


def test_criterion_10_cli_determinism(tmp_path):
    trig = tmp_path / "trig.json"
    trig.write_text(
        json.dumps({"parity": "even", "coeffs": [[2, 1.0, 0.0], [-2, 1.0, 0.0]]})
    )
    rough = tmp_path / "rough.json"
    rng = np.random.default_rng(9)
    coeffs = [[2 * k, float(abs(2 * k) ** 0.4 * np.cos(t)), float(abs(2 * k) ** 0.4 * np.sin(t))]
              for k in list(range(1, 33)) + list(range(-32, 0))
              for t in (2 * np.pi * rng.random(),)]
    rough.write_text(json.dumps({"parity": "even", "coeffs": coeffs}))

    runs = {
        "spectrum": ["spectrum", "--m", "1", "--K", "32", "--n-max", "6",
                     "--potential", str(trig)],
        "asymptotics": ["asymptotics", "--m", "1", "--alpha", "0", "--K", "64",
                        "--n-max", "12", "--potential", str(trig)],
        "localize": ["localize", "--m", "1", "--alpha", "0", "--K", "32", "--n-max", "8",
                     "--R", "1", "--C", "1.1", "--potential", str(trig)],
        "lemmas": ["lemmas", "--K", "32", "--n-max", "24"],
        "riesz-check": ["riesz-check", "--m", "1", "--K", "32", "--n-max", "6",
                        "--quad-nodes", "32", "--potential", str(trig)],
        "alpha1": ["alpha1", "--m", "1", "--K", "64", "--n-max", "16",
                   "--potential", str(rough)],
    }
    ok = True
    for name, args in runs.items():
        out = tmp_path / f"{name}.csv"
        code1 = cli_main(args + ["--out", str(out)])
        first = out.read_bytes()
        code2 = cli_main(args + ["--out", str(out)])
        ok = ok and code1 == 0 and code2 == 0
        ok = ok and out.read_bytes() == first
    record(10, "all six CLI commands byte-identical on rerun", ok)
