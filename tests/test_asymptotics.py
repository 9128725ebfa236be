import cmath
import math

import numpy as np
import pytest

from hillgap import asymptotics
from hillgap.asymptotics import (
    RemainderKind,
    alpha1_experiment,
    gamma_remainder,
    one_term_check,
    predict_pair,
    predict_pairs,
    tau_remainder,
)
from hillgap.eigensolver import (
    compute_pair_table,
    converge_truncation,
    localization_radius,
    mark_converged,
)
from hillgap.seqspace import (
    DecayFit,
    FourierSequence,
    Parity,
    PotentialFamily,
    PotentialSpec,
    SobolevParams,
    conjugate_seq,
    make_potential,
    weighted_norm,
)

PI2 = math.pi**2
TRIG = {2: 1.0, -2: 0.5, 4: 0.3, -4: 0.2j, 6: 0.1}


def vseq(coeffs):
    return FourierSequence.make(Parity.EVEN, coeffs)


@pytest.fixture(scope="module")
def trig_table():
    v = vseq({2: 1.0, -2: 1.0})
    _, tab = converge_truncation(v, 1, 24, K_start=96)
    return v, tab


class TestPredictPair:
    def test_constant_potential(self):
        row = predict_pair(vseq({0: 5.0}), 1, 2)
        assert row.shift == 5.0
        assert row.root_term == 0
        c = 9 * PI2
        assert row.predicted_pair == (c + 5.0, c + 5.0)

    def test_real_potential_root_is_modulus(self):
        theta = 0.7
        q = 2 * (2 * 3 - 1)
        r = 0.8
        v = vseq({q: r * cmath.exp(1j * theta), -q: r * cmath.exp(-1j * theta)})
        row = predict_pair(v, 1, 3)
        assert row.root_term == pytest.approx(r, rel=1e-12)
        assert abs(row.root_term.imag) <= 1e-15

    def test_principal_branch(self):
        q = 2 * (2 * 2 - 1)
        v = vseq({q: 1.0, -q: -1.0})
        row = predict_pair(v, 1, 2)
        assert row.root_term == pytest.approx(1j, rel=1e-12)

    def test_zero_mode_does_not_feed_correction(self):
        v1 = vseq({2: 1.0, -2: 1.0})
        v2 = vseq({0: 3.0, 2: 1.0, -2: 1.0})
        r1 = predict_pair(v1, 1, 2)
        r2 = predict_pair(v2, 1, 2)
        assert r1.root_term_corr == r2.root_term_corr

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_all_rows_at_once_match_one_at_a_time(self, m):
        v = vseq({0: 0.5, **TRIG, 10: 0.2 - 0.1j, -14: 0.3})
        preds = predict_pairs(v, m, range(1, 9))
        assert list(preds) == list(range(1, 9))
        for n, row in preds.items():
            one = predict_pair(v, m, n)
            assert (row.center, row.shift, row.root_term) == (one.center, one.shift, one.root_term)
            assert abs(row.root_term_corr - one.root_term_corr) <= 1e-15 * abs(one.root_term_corr)


class TestTauRemainder:
    def test_zero_potential_exact(self):
        v = vseq({})
        _, tab = converge_truncation(v, 1, 8)
        rep = tau_remainder(tab, v, 1, 0.0)
        assert rep.exact_zero
        assert rep.fitted_slope == -math.inf
        assert rep.bounded_flag

    def test_trig_slope(self, trig_table):
        v, tab = trig_table
        rep = tau_remainder(tab, v, 1, 0.0)
        assert rep.kind is RemainderKind.TAU
        assert rep.target_exponent == pytest.approx(0.95)
        assert rep.fitted_slope <= -0.9

    def test_shift_consistency(self, trig_table):
        # the zero mode is split off before the solve, so the offsets from
        # the centers do not see it at all
        v, tab = trig_table
        c = 2.5 - 0.5j
        v2 = v.with_entry(0, c)
        _, tab2 = converge_truncation(v2, 1, 24, K_start=96)
        assert [r.n for r in tab2.rows] == [r.n for r in tab.rows]
        offsets = [np.array([(r.d_lo, r.d_hi) for r in t.rows]) for t in (tab, tab2)]
        assert offsets[0].tobytes() == offsets[1].tobytes()
        assert all(r.v0 == c for r in tab2.rows)
        r1 = tau_remainder(tab, v, 1, 0.0)
        r2 = tau_remainder(tab2, v2, 1, 0.0)
        assert np.allclose(r1.values, r2.values, atol=1e-9)

    @pytest.mark.parametrize("m, n", [(2, 3), (2, 4), (3, 2), (3, 3)])
    def test_high_precision_oracle(self, monkeypatch, mpmath_pair, m, n):
        # at m >= 2, tau - c is only 16 to 1e6 ulps of the center c, so
        # subtracting c from an absolute tau loses digits the stored offsets
        # keep; the K = 16 window pairs four rows, too few for the slope
        # fit, which is stubbed out
        want = abs(mpmath_pair(TRIG, m, 16, n)[0])
        v = vseq(TRIG)
        tab = mark_converged(compute_pair_table(v, m, 16), compute_pair_table(v, m, 32))
        monkeypatch.setattr(asymptotics, "_fit", lambda *args: (DecayFit(math.nan, False), True))
        got = dict(tau_remainder(tab, v, m, 0.0).pairs())[n]
        assert got == pytest.approx(want, rel=1e-6)

    def test_requires_converged_rows(self):
        v = vseq({2: 1.0, -2: 1.0})
        tab = compute_pair_table(v, 1, 32)  # nothing marked converged
        with pytest.raises(ValueError):
            tau_remainder(tab, v, 1, 0.0)

    def test_rough_alpha_075_family(self):
        # the remainder class is a weighted-l2 statement, so single draws
        # wobble; the family-averaged remainder shows the predicted decay
        # and every draw passes the membership rule
        from hillgap.seqspace import decay_exponent

        collected = {}
        for seed in range(4):
            spec = PotentialSpec(PotentialFamily.RANDOM_ROUGH, {"window": 510}, 1.0, seed=seed)
            v = make_potential(spec, SobolevParams(m=1, alpha=0.75))
            _, tab = converge_truncation(v, 1, 20, tol=5e-3, K_start=96, K_cap=192)
            rep = tau_remainder(tab, v, 1, 0.75)
            assert rep.target_exponent == pytest.approx(1 * (1 - 1.5) - 0.05)
            assert rep.bounded_flag
            for n, val in rep.pairs():
                collected.setdefault(n, []).append(val)
        ens = [(n, float(np.mean(vs))) for n, vs in sorted(collected.items())]
        fit = decay_exponent(ens, (8, 20))
        assert fit.slope == pytest.approx(-0.55, abs=0.3)

    def test_monotone_refinement_under_window_doubling(self, trig_table):
        v, tab = trig_table
        bigger = compute_pair_table(v, 1, 2 * tab.K, n_max=24)
        r_small = tau_remainder(tab, v, 1, 0.0)
        by_n = dict(r_small.pairs())
        for r in bigger.rows:
            if r.n in by_n:
                assert abs(abs(r.d_tau) - by_n[r.n]) < 1e-9


class TestGammaRemainder:
    def test_zero_potential(self):
        v = vseq({})
        _, tab = converge_truncation(v, 1, 8)
        rep = gamma_remainder(tab, v, 1, 0.0)
        assert rep.exact_zero

    def test_first_gap_and_decay(self):
        v = vseq({2: 1.0, -2: 1.0})
        tab = compute_pair_table(
            v, 1, 128, lambda m, n: localization_radius(m, 0.0, 1.1, 1.5, n)
        )
        r1 = tab.row(1)
        assert abs(r1.gamma) == pytest.approx(2.0, abs=0.5)
        _, ctab = converge_truncation(v, 1, 32, K_start=128)
        rep = gamma_remainder(ctab, v, 1, 0.0, fit_range=(2, 32))
        assert rep.fitted_slope <= -0.4
        assert rep.target_exponent == pytest.approx(0.5)

    def test_sign_resolution_swap_invariance(self, trig_table):
        v, tab = trig_table
        rep = gamma_remainder(tab, v, 1, 0.0)
        # swapping the two resonant coefficients leaves the product under
        # the square root unchanged
        swapped = vseq({2: v(-2), -2: v(2)})
        rep2 = gamma_remainder(tab, swapped, 1, 0.0)
        assert rep.values == rep2.values

    def test_conjugation_invariance(self):
        spec = PotentialSpec(PotentialFamily.RANDOM_ROUGH, {"window": 32}, 0.8, seed=13)
        v = make_potential(spec, SobolevParams(m=1, alpha=0.0))
        vbar = conjugate_seq(v)
        _, tab = converge_truncation(v, 1, 12)
        _, tabbar = converge_truncation(vbar, 1, 12)
        r = gamma_remainder(tab, v, 1, 0.0)
        rbar = gamma_remainder(tabbar, vbar, 1, 0.0)
        assert np.allclose(r.values, rbar.values, atol=1e-8)

    def test_corrected_targets(self, trig_table):
        v, tab = trig_table
        rep_c = gamma_remainder(tab, v, 1, 0.0, corrected=True)
        assert rep_c.kind is RemainderKind.GAMMA_CORRECTED
        assert rep_c.target_exponent == pytest.approx(0.95)
        rep_half = gamma_remainder(tab, v, 1, 0.6)
        assert rep_half.target_exponent == pytest.approx(1 * (1 - 1.2) - 0.05)

    @pytest.mark.parametrize("corrected", [False, True])
    def test_given_predictions_are_read(self, trig_table, corrected):
        v, tab = trig_table
        preds = predict_pairs(v, 1, [r.n for r in tab.rows if r.converged])
        rep = gamma_remainder(tab, v, 1, 0.0, corrected, predictions=preds)
        assert rep == gamma_remainder(tab, v, 1, 0.0, corrected)


class TestOneTerm:
    def test_zero_potential(self):
        v = vseq({})
        _, tab = converge_truncation(v, 1, 8)
        rep = one_term_check(tab, 1, 0.0, 1.0, 1.1)
        assert rep.exact_zero and rep.bounded_flag

    def test_rough_alpha_half_bounded(self):
        spec = PotentialSpec(PotentialFamily.RANDOM_ROUGH, {"window": 80}, 1.0, seed=2)
        v = make_potential(spec, SobolevParams(m=1, alpha=0.5))
        _, tab = converge_truncation(v, 1, 16, K_start=64)
        rep = one_term_check(tab, 1, 0.5, 1.0, 1.1)
        assert rep.bounded_flag
        assert max(rep.values) <= 3 * math.sqrt(2) * 1.1

    def test_flat_resonant_coefficients_give_flat_ratios(self):
        rng = np.random.default_rng(5)
        coeffs = {}
        for k in range(1, 41):
            coeffs[2 * k] = np.exp(2j * np.pi * rng.random())
            coeffs[-2 * k] = np.exp(2j * np.pi * rng.random())
        spec = PotentialSpec(PotentialFamily.EXPLICIT, {"coeffs": coeffs}, radius=1.0)
        v = make_potential(spec, SobolevParams(m=1, alpha=0.0))
        _, tab = converge_truncation(v, 1, 16, K_start=64)
        rep = one_term_check(tab, 1, 0.0, 1.0, 1.1)
        assert abs(rep.fitted_slope) <= 0.3


class TestAlpha1:
    def test_zero_potential(self):
        rep = alpha1_experiment(vseq({}), 1, 8)
        assert rep.exact_zero
        assert rep.n0_below_one == 0

    def test_growing_coefficients(self):
        rng = np.random.default_rng(11)
        coeffs = {}
        for k in range(1, 129):
            coeffs[2 * k] = (2 * k) ** 0.4 * np.exp(2j * np.pi * rng.random())
            coeffs[-2 * k] = (2 * k) ** 0.4 * np.exp(2j * np.pi * rng.random())
        v = vseq(coeffs)
        assert math.isfinite(weighted_norm(v, -1.0))
        rep = alpha1_experiment(v, 1, 32, K=128)
        assert rep.kind is RemainderKind.ALPHA_ONE
        assert rep.n0_below_one is not None and rep.n0_below_one <= 32
        assert rep.fitted_slope < 0
        tail = [val for n, val in rep.pairs() if n > max(rep.n0_below_one, 8)]
        assert tail and all(val < 1.0 for val in tail)

    def test_derivative_type_potential(self):
        rng = np.random.default_rng(3)
        q = {}
        for k in range(1, 65):
            q[2 * k] = (1 + k) ** -1.2 * np.exp(2j * np.pi * rng.random())
            q[-2 * k] = (1 + k) ** -1.2 * np.exp(2j * np.pi * rng.random())
        spec = PotentialSpec(PotentialFamily.DERIVATIVE_TYPE, {"q": q})
        v = make_potential(spec, SobolevParams(m=1, alpha=1.0))
        rep = alpha1_experiment(v, 1, 16, K=64)
        assert rep.fitted_slope < 0
