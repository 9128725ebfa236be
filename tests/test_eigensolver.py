import math

import numpy as np
import pytest

from hillgap import eigensolver
from hillgap.eigensolver import (
    CONVERGENCE_TOL,
    EigenList,
    PairingConfigError,
    SolverError,
    compute_pair_table,
    confirm_window,
    converge_truncation,
    eigenvalues,
    lexicographic_order,
    localization_report,
    low_block,
    mark_converged,
    pair_eigenvalues,
    localization_radius,
)
from hillgap.operator import build_T, center, contour_radius, unperturbed_eigenvalues
from hillgap.riesz import ContourSpec, riesz_projector
from hillgap.seqspace import (
    FourierSequence,
    Parity,
    PotentialFamily,
    PotentialSpec,
    SobolevParams,
    conjugate_seq,
    make_potential,
    reflect_seq,
)

PI2 = math.pi**2


def vseq(coeffs):
    return FourierSequence.make(Parity.EVEN, coeffs)


def random_potential(seed, window=32, m=1, alpha=0.0, radius=1.0, hermitian=False):
    spec = PotentialSpec(
        PotentialFamily.RANDOM_ROUGH,
        {"window": window, "hermitian": hermitian},
        radius=radius,
        seed=seed,
    )
    return make_potential(spec, SobolevParams(m=m, alpha=alpha))


class TestLexicographicSort:
    def test_total_order(self):
        vals = [3 + 1j, 1 - 1j, 1 + 1j, 2 + 0j]
        out = np.asarray(vals)[lexicographic_order(vals)]
        assert list(out) == [1 - 1j, 1 + 1j, 2 + 0j, 3 + 1j]

    def test_tie_band_orders_by_imag(self):
        vals = [5.0 + 1e-12 + 2j, 5.0 - 1j]
        out = np.asarray(vals)[lexicographic_order(vals)]
        assert out[0].imag == -1 and out[1].imag == 2

    def test_stability_under_tolerance_change(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(40) * 100 + 1j * rng.standard_normal(40)
        a = vals[lexicographic_order(vals, tol_scale=1e-9)]
        b = vals[lexicographic_order(vals, tol_scale=1e-8)]
        gaps = np.diff(np.sort(vals.real))
        if np.all(gaps > 10 * 1e-8 * (1 + np.max(np.abs(vals)))):
            assert np.array_equal(a, b)


class TestEigenvalues:
    def test_free_operator_doubles(self):
        eigs = eigenvalues(build_T(vseq({}), 1, 8))
        mu = np.sort(unperturbed_eigenvalues(1, 8))
        assert np.array_equal(eigs.values.real, mu)
        assert np.all(eigs.values.imag == 0)
        assert eigs.values[0] == pytest.approx(PI2, rel=1e-15)
        # every unperturbed eigenvalue appears exactly twice
        uniq, counts = np.unique(eigs.values.real, return_counts=True)
        assert np.all(counts == 2)

    def test_constant_potential_shifts(self):
        base = eigenvalues(build_T(vseq({}), 1, 8))
        shifted = eigenvalues(build_T(vseq({0: 5.0}), 1, 8))
        assert np.allclose(shifted.values, base.values + 5.0, rtol=0, atol=1e-12)

    def test_first_gap_doubling_oracle(self):
        v = vseq({2: 1.0, -2: 1.0})
        t64 = compute_pair_table(v, 1, 64, n_max=2)
        t128 = compute_pair_table(v, 1, 128, n_max=2)
        r64, r128 = t64.row(2), t128.row(2)
        assert abs(r64.lambda_lo - r128.lambda_lo) <= 1e-10
        assert abs(r64.lambda_hi - r128.lambda_hi) <= 1e-10
        # first pair straddles pi^2 -+ 1 (the first semi-periodic gap of
        # 2 cos(2 pi x)); collect it with a slightly larger disc
        e128 = eigenvalues(build_T(v, 1, 128))
        lo, hi = e128.values[0].real, e128.values[1].real
        assert lo == pytest.approx(PI2 - 1, abs=0.05)
        assert hi == pytest.approx(PI2 + 1, abs=0.05)

    def test_trace_identity(self):
        for seed in (0, 1):
            v = random_potential(seed, window=40)
            op = build_T(v, 1, 16)
            eigs = eigenvalues(op)
            want = np.sum(unperturbed_eigenvalues(1, 16)) + 2 * 16 * v(0)
            scale = abs(np.trace(op.matrix))
            assert abs(eigs.values.sum() - want) <= 1e-9 * scale

    def test_hermitian_path_real_output(self):
        v = random_potential(7, hermitian=True)
        eigs = eigenvalues(build_T(v, 1, 12))
        assert np.all(eigs.values.imag == 0)

    def test_shift_equivariance_complex(self):
        v = random_potential(3, window=24)
        c = 2.0 - 3.0j
        base = eigenvalues(build_T(v, 1, 10))
        shifted = eigenvalues(build_T(v.with_entry(0, v(0) + c), 1, 10))
        moved = base.values + c
        assert np.allclose(np.sort_complex(shifted.values), np.sort_complex(moved), atol=1e-9)

    def test_conjugation_symmetry(self):
        v = random_potential(9, window=24)
        vbar = conjugate_seq(v)
        a = eigenvalues(build_T(v, 1, 10)).values
        b = eigenvalues(build_T(vbar, 1, 10)).values
        assert np.allclose(
            np.sort_complex(b), np.sort_complex(np.conj(a)), atol=1e-9
        )

    def test_residual_certificate(self):
        for m in (1, 2):
            v = random_potential(4, window=24, m=m)
            eigs = eigenvalues(build_T(v, m, 12))
            assert np.any(eigs.values.imag != 0)  # the general, non-Hermitian path
            assert eigs.residual_max <= 1e-8


class TestPairing:
    def test_zero_potential_rows(self):
        tab = compute_pair_table(vseq({}), 1, 32)
        for r in tab.rows:
            c = (2 * r.n - 1) ** 2 * PI2
            assert r.lambda_lo == r.lambda_hi == pytest.approx(c, rel=1e-14)
            assert r.gamma == 0

    def test_localization_radius_value(self):
        assert localization_radius(1, 0.0, 1.1, 1.0, 5) == pytest.approx(
            4.666904755831214, rel=1e-14
        )

    def test_pair_invariants(self):
        v = random_potential(12, window=40)
        tab = compute_pair_table(v, 1, 32)
        for r in tab.rows:
            assert r.tau == pytest.approx((r.lambda_lo + r.lambda_hi) / 2, rel=1e-12)
            assert r.gamma == pytest.approx(r.lambda_hi - r.lambda_lo, rel=1e-12)

    def test_all_rows_present_for_small_real_potential(self):
        v = random_potential(2, window=60, hermitian=True)
        tab = pair_eigenvalues(eigenvalues(build_T(v, 1, 32)))
        missing = [n for n in range(2, 9) if n in tab.flagged]
        assert not missing

    def test_overlap_config_error(self):
        eigs = eigenvalues(build_T(vseq({}), 1, 16))
        with pytest.raises(PairingConfigError):
            pair_eigenvalues(eigs, lambda m, n: 1e6)

    def test_window_too_small(self):
        eigs = eigenvalues(build_T(vseq({}), 1, 8))
        with pytest.raises(PairingConfigError):
            pair_eigenvalues(eigs, n_max=4)

    def test_refinement_stays_in_disc(self):
        v = vseq({2: 1.0, -2: 1.0, 6: 1.0, -6: 1.0})
        eigs = eigenvalues(build_T(v, 1, 32))
        ref = pair_eigenvalues(eigs)
        assert ref.rows
        for rr in ref.rows:
            c = (2 * rr.n - 1) ** 2 * PI2
            raw = eigs.values[np.abs(eigs.values - c) < rr.disc_radius_used]
            assert len(raw) == 2
            assert abs(rr.lambda_lo - raw[0]) < 1e-6
            assert abs(rr.lambda_lo - c) < rr.disc_radius_used


class TestConvergeTruncation:
    def test_zero_potential_converges_immediately(self):
        K, tab = converge_truncation(vseq({}), 1, 4)
        assert K <= 64
        assert all(r.converged for r in tab.rows)

    def test_trig_polynomial(self):
        v = vseq({2: 1.0, -2: 1.0})
        K, tab = converge_truncation(v, 1, 10)
        assert K <= 128
        assert all(r.converged for r in tab.rows)
        assert len(tab.rows) >= 9  # n = 1 may sit on the disc edge

    def test_cap_flags_unconverged(self):
        v = random_potential(5, window=40)
        K, tab = converge_truncation(v, 1, 4, tol=1e-300, K_cap=32)
        assert K == 32
        assert all(not r.converged for r in tab.rows)

    @pytest.mark.parametrize("m", [2, 3])
    def test_converged_rows_match_oracle(self, feshbach_pair, m):
        # a converged flag compares two windows' solves; each flagged row
        # must also lie within the tolerance of the exact pair of its window
        K, tab = converge_truncation(vseq(TRIG), m, 4)
        assert [r.converged for r in tab.rows] == [True] * 4
        for r in tab.rows:
            lo, hi = feshbach_pair(TRIG, m, K, r.n, (r.d_lo, r.d_hi))
            assert max(abs(r.d_lo - lo), abs(r.d_hi - hi)) < CONVERGENCE_TOL


class TestConfirmWindow:
    @pytest.mark.parametrize(
        "v, K",
        [
            (vseq({2: 1.0, -2: 0.5, 4: 0.3, -4: 0.2j, 6: 0.1}), 32),
            (vseq({2: 1.0, -2: 1.0, 6: 1.0, -6: 1.0}), 128),
            (vseq({0: 0.3, **{s * 2 * k: 0.6**k for k in range(1, 33) for s in (1, -1)}}), 128),
            (random_potential(1, window=16, hermitian=True), 64),
            (random_potential(2, window=64, radius=4.0), 64),
            (random_potential(1, window=128), 128),
        ],
        ids=["trig", "two-cluster", "geometric", "rough-herm-S16", "rough-S64", "rough-S128"],
    )
    def test_m1_flags_match_doubled_window(self, v, K):
        # at m = 1 the window K + S/2 and the doubled window flag the same rows
        base = compute_pair_table(v, 1, K, n_max=K // 4)
        K_c = confirm_window(v, K)
        assert K_c < 2 * K
        flags = [
            [r.converged for r in mark_converged(base, compute_pair_table(v, 1, w, n_max=K // 4)).rows]
            for w in (K_c, 2 * K)
        ]
        assert flags[0] == flags[1]


class TestLocalization:
    def test_zero_potential(self):
        rep = localization_report(vseq({}), 1, 0.0, 1.0, 1.1, 32)
        assert rep.n0_empirical == 0
        assert rep.cone_count == 0

    def test_census_matches_n0(self):
        for seed in (1, 3):
            v = random_potential(seed, window=80, hermitian=True)
            rep = localization_report(v, 1, 0.0, 1.0, 1.1, 64)
            assert rep.cone_count == 2 * rep.n0_empirical

    def test_disc_membership_complex(self):
        v = random_potential(8, window=80, alpha=0.5)
        rep = localization_report(v, 1, 0.5, 1.0, 1.1, 64)
        for d in rep.disc_rows:
            if d.n > rep.n0_empirical:
                assert d.hits == 2
                assert d.max_deviation < d.radius

    @pytest.mark.parametrize("v0", [0.0, 0.25 + 0.1j])
    def test_m3_deviation_from_refined_offsets(self, v0):
        # at m = 3 the raw eigenvalues sit ulp(c) ~ 1e-4 off the pair, so the
        # deviation of a two-hit disc comes from the center-shifted offsets
        coeffs = {0: v0, 2: 1.0, -2: 0.5, 4: 0.3, -4: 0.2j, 6: 0.1}
        rep = localization_report(vseq(coeffs), 3, 0.0, 1.0, 1.1, 64)
        tab = compute_pair_table(vseq(coeffs), 3, 64)
        assert [d.hits for d in rep.disc_rows] == [2] * 16
        for d in rep.disc_rows:
            r = tab.row(d.n)
            want = max(abs(r.d_lo + r.v0), abs(r.d_hi + r.v0))
            assert abs(d.max_deviation - want) <= 1e-9
        # the pair offsets at n = 16 are far below 1e-9 (the raw eigenvalues
        # read 3.9e-3 there), so the deviation is |v(0)| to that bound
        assert abs(rep.disc_rows[-1].max_deviation - abs(v0)) < 1e-9

    @pytest.mark.parametrize("K", [512, 1024])
    def test_m3_census_holds_at_large_windows(self, K):
        # every disc holds its pair: the census reads the pair offsets, not
        # an eigensolve of the whole window, whose rounding at m = 3 grows
        # with ||T|| past the disc radii at these K
        rep = localization_report(vseq(TRIG), 3, 0.0, 1.0, 1.1, K)
        assert rep.n0_empirical == 0 and rep.cone_count == 0
        assert [d.hits for d in rep.disc_rows] == [2] * (K // 4)

    def test_zero_mode_moves_pairs_out_of_their_discs(self):
        # v(0) = 6 shifts every pair by more than the radius 1.1 * 3 sqrt(2):
        # membership is of lambda + v(0), though the discs are read in the
        # normalized frame
        rep = localization_report(vseq({**TRIG, 0: 6.0}), 1, 0.0, 1.0, 1.1, 32)
        assert [d.hits for d in rep.disc_rows] == [0] * 8
        assert all(math.isnan(d.max_deviation) for d in rep.disc_rows)
        assert rep.n0_empirical == 8 and rep.cone_count == 16

    def test_cone_past_the_census_cut(self):
        # v(0) = -1000 leaves every disc empty, so the cone runs to
        # thresh + 1000 ~ 1093 pi^2, past the cut that certifies the last
        # disc (complete_below ~ 1089 pi^2): the cone's cut is grown, and
        # its 24 eigenvalues are those of the modes 11 <= |p| <= 33 (the
        # cone's left edge is at lambda ~ 998 ~ 101 pi^2)
        rep = localization_report(vseq({**TRIG, 0: -1000.0}), 1, 0.0, 1.0, 1.1, 64)
        assert rep.n0_empirical == 16 and rep.cone_count == 24


TRIG = {2: 1.0, -2: 0.5, 4: 0.3, -4: 0.2j, 6: 0.1}


class TestDecoupledSolve:
    @pytest.mark.parametrize(
        "v, K, n, real",
        [
            (vseq(TRIG), 32, 8, False),
            (random_potential(2, window=60, hermitian=True), 64, 8, True),
            (random_potential(3, window=64), 64, 8, False),
            (vseq({2: 60.0, -2: 45j, 4: 30.0}), 64, 4, False),
        ],
        ids=["trig", "rough-herm", "rough-complex", "strong"],
    )
    def test_cut_matches_whole_window_m1(self, v, K, n, real):
        op = build_T(v, 1, K)
        whole = pair_eigenvalues(eigenvalues(op), n_max=n)
        low = low_block(op, n)
        cut = pair_eigenvalues(low, n_max=n)
        assert [r.n for r in cut.rows] == [r.n for r in whole.rows]
        assert cut.flagged == whole.flagged
        for a, b in zip(cut.rows, whole.rows):
            assert max(abs(a.d_lo - b.d_lo), abs(a.d_hi - b.d_hi)) <= 1e-11
        assert len(low.matrix) < 2 * K and low.complete_below < math.inf
        assert low.hermitian == real

    def test_strong_potential_grows_the_cut(self):
        v = vseq({2: 60.0, -2: 45j, 4: 30.0})
        # the cut starts at the modes |p| <= 7 and doubles until certified
        assert len(low_block(build_T(v, 1, 64), 4).matrix) > 8
        # in a window too small to certify any cut, the whole window is solved
        low = low_block(build_T(v, 1, 8), 2)
        assert len(low.matrix) == 16 and low.complete_below == math.inf

    def test_pairing_past_complete_below_raises(self):
        low = low_block(build_T(vseq(TRIG), 1, 64), 2)
        assert center(1, 2) < low.complete_below < center(1, 16)
        assert len(pair_eigenvalues(low, n_max=2).rows) == 2
        with pytest.raises(SolverError, match="left eigenvalues out"):
            pair_eigenvalues(low, n_max=16)

    def test_contour_past_complete_below_raises(self):
        low = low_block(build_T(vseq(TRIG), 1, 64), 2)
        assert riesz_projector(low, ContourSpec(n=2, m=1)).block == 2
        with pytest.raises(SolverError, match="left eigenvalues out"):
            riesz_projector(low, ContourSpec(n=8, m=1))


class TestHighPrecisionOracle:
    def test_mathieu_gaps(self, mpmath_pair):
        coeffs = {2: 1.0, -2: 1.0}
        want = {n: mpmath_pair(coeffs, 1, 16, n, dps=60)[1] for n in (3, 4)}
        assert abs(want[3]) == pytest.approx(1.4294e-9, rel=1e-3)
        assert abs(want[4]) == pytest.approx(1.01907e-15, rel=1e-3)
        tab = compute_pair_table(vseq(coeffs), 1, 16)
        for n in (3, 4):
            assert abs(tab.row(n).gamma) == pytest.approx(abs(want[n]), rel=0.01)

    def test_feshbach_matches_dense_eigensolve(self, mpmath_pair, feshbach_pair):
        spec = PotentialSpec(PotentialFamily.RANDOM_ROUGH, {"window": 16}, radius=2.0, seed=8)
        coeffs = dict(make_potential(spec, SobolevParams(m=3, alpha=0.0)).coeffs)
        for n in (1, 2, 3, 4):
            d_tau, gamma = mpmath_pair(coeffs, 3, 16, n)
            want = sorted((d_tau - gamma / 2, d_tau + gamma / 2), key=lambda z: (z.real, z.imag))
            # started from guesses 1e-6 off, the fixed points land on the pair
            got = feshbach_pair(coeffs, 3, 16, n, [z + 1e-6 for z in want])
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-14

    @pytest.mark.parametrize("hermitian", [False, True], ids=["complex", "hermitian"])
    def test_m3_rough_rows_match_feshbach(self, feshbach_pair, hermitian):
        # support 64 at m = 3: a solve of all 2K modes rounds at ||T||, about
        # 4e15 at K = 64, far above these pairs; solved alone, the pairs
        # n <= 5 are rounded at the scale of their own block in every window
        v = random_potential(1, window=64, m=3, hermitian=hermitian)
        coeffs = dict(v.coeffs)
        floor = 4 * np.spacing(center(3, 1))
        prev = None
        for K in (16, 32, 64):
            n_max = min(5, K // 4)
            tab = compute_pair_table(v, 3, K, n_max=n_max)
            for n in range(1, n_max + 1) if K == 64 else (1,):
                r = tab.row(n)
                lo, hi = feshbach_pair(coeffs, 3, K, n, (r.d_lo, r.d_hi), dps=30)
                err = max(abs(r.d_lo - lo), abs(r.d_hi - hi))
                assert err <= 1e-10
                if n == 1:
                    # doubling the window never makes row 1 worse
                    assert prev is None or err <= max(prev, floor)
                    prev = err

    @pytest.mark.parametrize("m", [2, 3])
    def test_dirac_comb_doubling(self, m):
        # v(2l) = g for every |2l| <= 4K - 2, the Dirac comb as far as the
        # window couples: B = g 1 1^T, and sin(3 pi x), which vanishes on the
        # comb, keeps the odd member of pair 2 at the center exactly
        g = 0.3
        moves, prev = [], None
        for K in (32, 64, 128):
            v = vseq({2 * l: g for l in range(-(2 * K - 1), 2 * K)})
            r = compute_pair_table(v, m, K, n_max=2).row(2)
            odd, other = sorted((r.d_lo + r.v0, r.d_hi + r.v0), key=abs)
            assert abs(odd) <= 1e-12
            if prev is not None:
                moves.append(abs(other - prev))
            prev = other
        # the other member converges: its movement never grows
        assert moves[1] <= moves[0]

    def test_complex_two_term_gap(self, mpmath_pair):
        coeffs = {2: 1.0, -2: 0.2j}
        want = mpmath_pair(coeffs, 1, 12, 3, dps=60)[1]
        assert abs(want) == pytest.approx(2.5570755e-11, rel=1e-6)
        got = compute_pair_table(vseq(coeffs), 1, 12).row(3).gamma
        # the labels of a pair this narrow are set by the imaginary parts
        assert min(abs(got - want), abs(got + want)) <= 1e-13

    def test_one_sided_potential_gaps_vanish(self):
        # v(k) = 0 for k < 0 makes T triangular in the mode order: every
        # pair is a double eigenvalue at its center (a Jordan block)
        tab = compute_pair_table(vseq({2: 1.0, 6: 0.5}), 1, 16)
        assert len(tab.rows) == 4
        for r in tab.rows:
            assert abs(r.gamma) <= 1e-15


def per_pair_reference(op, n):
    """tau - c and gamma (up to sign) of pair n by the one-level route: its
    modes +-(2n-1) decoupled from all 2K modes of the window, one pair at a
    time, and the closed form on the 2 x 2 block that remains."""
    mu = unperturbed_eigenvalues(op.m, op.K)
    beta, _ = eigensolver._structure(op.matrix, mu)
    g, _ = eigensolver._decouple(op.matrix, op.m, op.K, (2 * n - 1, 2 * n - 1), mu, beta)
    return (g[0, 0] + g[1, 1]) / 2.0, np.sqrt((g[0, 0] - g[1, 1]) ** 2 + 4.0 * g[0, 1] * g[1, 0])


class TestBatchedRefinement:
    """The batched two-level reduction of every pair against the per-pair
    route on the whole window."""

    POTENTIALS = {
        "trig": lambda m: vseq(TRIG),
        "rough-herm": lambda m: random_potential(2, window=60, m=m, hermitian=True),
        "rough-complex": lambda m: random_potential(3, window=64, m=m),
    }

    @pytest.mark.parametrize("name", sorted(POTENTIALS))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_pairs_match_per_pair_reference(self, m, name):
        v = self.POTENTIALS[name](m)
        op = build_T(v, m, 64)
        for low in (eigenvalues(op), low_block(op, 16)):
            tab = pair_eigenvalues(low)
            assert len(tab.rows) == 16 and tab.unrefined == ()
            for row in tab.rows:
                d, s = per_pair_reference(op, row.n)
                assert abs(row.d_tau - d) <= 1e-14
                assert min(abs(row.gamma - s), abs(row.gamma + s)) <= 1e-14
                if name == "rough-herm":
                    assert row.d_tau.imag == 0 and row.gamma.imag == 0

    @pytest.mark.parametrize("name", sorted(POTENTIALS))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_localize_deviation_matches_per_pair_reference(self, m, name):
        v = self.POTENTIALS[name](m)
        rep = localization_report(v, m, 0.0, 1.0, 1.1, 64)
        op = build_T(v, m, 64)
        pairs = [d for d in rep.disc_rows if d.hits == 2]
        assert pairs
        for row in pairs:
            d, s = per_pair_reference(op, row.n)
            assert abs(row.max_deviation - max(abs(d - s / 2), abs(d + s / 2))) <= 1e-14

    def test_jordan_pair_is_reported_unrefined(self):
        # v(k) = 0 for k < 0 makes every pair a Jordan block at its center.
        # Weak, each pair is read exactly from its own 2 x 2 block; strong
        # against the low gaps, those pairs refuse their own reduction, take
        # the grown band and are listed
        weak = compute_pair_table(vseq({2: 1.0}), 1, 32)
        assert weak.unrefined == ()
        assert all(r.d_tau == 0 and r.gamma == 0 for r in weak.rows)
        tab = compute_pair_table(vseq({2: 20.0}), 1, 32)
        assert tab.unrefined == (1, 2) and len(tab.rows) == 8
        conv = mark_converged(tab, compute_pair_table(vseq({2: 20.0}), 1, 64))
        assert conv.unrefined == tab.unrefined


def rough_hermitian(seed, support=16, exponent=-0.55):
    """Hermitian rough potential: modulus (1 + 2k)^exponent at +-2k, k <= support/2,
    with seeded random phases and v(-2k) = conj v(2k)."""
    rng = np.random.default_rng([0xB3C4, seed])
    k = np.arange(1, support // 2 + 1)
    plus = (1.0 + 2.0 * k) ** exponent * np.exp(2j * math.pi * rng.random(len(k)))
    return {**{int(2 * i): complex(a) for i, a in zip(k, plus)},
            **{int(-2 * i): complex(a).conjugate() for i, a in zip(k, plus)}}


class TestPairReductionOracle:
    """Rows of the per-pair reduction against the 60-digit mpmath oracle at
    K = 16, whose eigenvalues reach 1e12 at m = 3."""

    POTENTIALS = {"trig": TRIG, "rough-herm": rough_hermitian(3)}

    @pytest.mark.parametrize("name", sorted(POTENTIALS))
    @pytest.mark.parametrize("m", [2, 3])
    def test_rows_match_oracle(self, mpmath_pair, m, name):
        # trig's gamma at m = 3, n = 4 is 4.8e-22 against tau - c = 3.8e-9
        coeffs = self.POTENTIALS[name]
        tab = compute_pair_table(vseq(coeffs), m, 16)
        assert [r.n for r in tab.rows] == [1, 2, 3, 4]
        for r in tab.rows:
            d_tau, gamma = mpmath_pair(coeffs, m, 16, r.n, dps=60)
            assert abs(r.d_tau - d_tau) <= 1e-12 * abs(d_tau)
            assert min(abs(r.gamma - gamma), abs(r.gamma + gamma)) <= 1e-6 * abs(gamma)
            if name == "rough-herm":
                assert r.d_tau.imag == 0 and r.gamma.imag == 0

    @pytest.mark.parametrize(
        "coeffs, real",
        [
            ({2: 60.0, -2: 45j, 4: 30.0}, False),
            ({2: 50.0, -2: 50.0, 4: 20.0 + 10j, -4: 20.0 - 10j}, True),
        ],
        ids=["complex", "hermitian"],
    )
    def test_refused_pairs_match_whole_window(self, coeffs, real):
        # strong against the low gaps, the low pairs refuse their own
        # reduction; read from one eigvals of a grown band, they must agree
        # with the eigenvalues of the whole window
        v = vseq(coeffs)
        tab = compute_pair_table(v, 1, 64, n_max=16)
        grown = tab.unrefined + tuple(tab.flagged)
        assert 0 < len(grown) < 16
        whole = eigenvalues(build_T(v, 1, 64)).values
        for n in grown:
            c = center(1, n)
            hits = whole[np.abs(whole - c) < contour_radius(1, n)] - c
            assert tab.flagged.get(n, 2) == len(hits)
            if n in tab.unrefined:
                r = tab.row(n)
                lo, hi = hits[lexicographic_order(hits)]
                # the whole window rounds at ||T|| ~ 1.6e5, the band at its own scale
                assert max(abs(r.d_lo - lo), abs(r.d_hi - hi)) <= 1e-9
                assert not real or (r.d_tau.imag == 0 and r.gamma.imag == 0)


class TestSolverRouting:
    def test_non_hermitian_potential_at_m2_takes_general_path(self):
        # asymmetry is judged against B(v), not the (4K)^{2m} diagonal, so
        # the pair stays c +- sqrt(0.2i) instead of a symmetrized real one
        tab = compute_pair_table(vseq({2: 1.0, -2: 0.2j}), 2, 256, n_max=2)
        assert abs(tab.row(1).gamma.imag) > 0.3


class TestNoDenseSolves:
    def test_certify_and_refine_without_solve_or_inv(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("dense solve or inverse in the eigensolver")

        monkeypatch.setattr(np.linalg, "solve", forbidden)
        monkeypatch.setattr(np.linalg, "inv", forbidden)
        v = random_potential(6, window=120)
        tab = compute_pair_table(v, 1, 64)
        assert len(tab.rows) >= 12
        K, conv = converge_truncation(v, 1, 8)
        assert all(r.converged for r in conv.rows)
        op = build_T(v, 1, 64)
        first = eigenvalues(op).residual_max
        assert first <= 1e-8
        assert eigenvalues(op).residual_max == first
