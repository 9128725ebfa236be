import cmath
import math

import numpy as np
import pytest
from conftest import conjugate_seq, with_entry

from hillgap import asymptotics, eigensolver
from hillgap.asymptotics import (
    alpha1_experiment,
    gamma_remainder,
    one_term_check,
    predict_pairs,
    tau_remainder,
)
from hillgap.eigensolver import (
    compute_pair_table,
    converge_truncation,
    localization_radius,
)
from hillgap.seqspace import (
    FourierSequence, decay_exponent, rough_potential, weighted_norm,
)

PI2 = math.pi**2
TRIG = {2: 1.0, -2: 0.5, 4: 0.3, -4: 0.2j, 6: 0.1}


@pytest.fixture(scope="module")
def trig_table():
    v = FourierSequence({2: 1.0, -2: 1.0})
    _, tab = converge_truncation(v, 1, 24, 96)
    return v, tab


class TestPredictPair:
    def test_constant_potential(self):
        row = predict_pairs(FourierSequence({0: 5.0}), 1, [2])[2]
        assert row.shift == 5.0
        assert row.root_term == 0
        c = 9 * PI2
        assert row.predicted_pair == (c + 5.0, c + 5.0)

    def test_real_potential_root_is_modulus(self):
        theta = 0.7
        q = 2 * (2 * 3 - 1)
        r = 0.8
        v = FourierSequence({q: r * cmath.exp(1j * theta), -q: r * cmath.exp(-1j * theta)})
        row = predict_pairs(v, 1, [3])[3]
        assert row.root_term == pytest.approx(r, rel=1e-12)
        assert abs(row.root_term.imag) <= 1e-15

    def test_principal_branch(self):
        q = 2 * (2 * 2 - 1)
        v = FourierSequence({q: 1.0, -q: -1.0})
        row = predict_pairs(v, 1, [2])[2]
        assert row.root_term == pytest.approx(1j, rel=1e-12)

    def test_zero_mode_does_not_feed_correction(self):
        v1 = FourierSequence({2: 1.0, -2: 1.0})
        v2 = FourierSequence({0: 3.0, 2: 1.0, -2: 1.0})
        r1 = predict_pairs(v1, 1, [2])[2]
        r2 = predict_pairs(v2, 1, [2])[2]
        assert r1.root_term_corr == r2.root_term_corr

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_all_rows_at_once_match_one_at_a_time(self, m):
        v = FourierSequence({0: 0.5, **TRIG, 10: 0.2 - 0.1j, -14: 0.3})
        preds = predict_pairs(v, m, range(1, 9))
        assert list(preds) == list(range(1, 9))
        for n, row in preds.items():
            one = predict_pairs(v, m, [n])[n]
            assert (row.center, row.shift, row.root_term) == (one.center, one.shift, one.root_term)
            assert abs(row.root_term_corr - one.root_term_corr) <= 1e-15 * abs(one.root_term_corr)


class TestTauRemainder:
    def test_zero_potential_exact(self):
        v = FourierSequence({})
        _, tab = converge_truncation(v, 1, 8, 32)
        rep = tau_remainder(tab, v, 1, 0.0)
        assert rep.fitted_slope == -math.inf
        assert rep.bounded_flag

    def test_trig_slope(self, trig_table):
        v, tab = trig_table
        rep = tau_remainder(tab, v, 1, 0.0)
        assert rep.target_exponent == pytest.approx(0.95)
        assert rep.fitted_slope <= -0.9

    def test_shift_consistency(self, trig_table):
        # the zero mode is split off before the solve, so the offsets from
        # the centers do not see it at all
        v, tab = trig_table
        c = 2.5 - 0.5j
        v2 = with_entry(v, 0, c)
        _, tab2 = converge_truncation(v2, 1, 24, 96)
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
        v = FourierSequence(TRIG)
        tab = compute_pair_table(v, m, 16, bars=True)
        monkeypatch.setattr(asymptotics, "_fit", lambda *args: (math.nan, True))
        got = dict(tau_remainder(tab, v, m, 0.0).pairs())[n]
        assert got == pytest.approx(want, rel=1e-6)

    def test_requires_converged_rows(self):
        v = FourierSequence({2: 1.0, -2: 1.0})
        tab = compute_pair_table(v, 1, 32)  # nothing marked converged
        with pytest.raises(ValueError):
            tau_remainder(tab, v, 1, 0.0)

    def test_rough_alpha_075_family(self, monkeypatch):
        # the remainder class is a weighted-l2 statement, so single draws
        # wobble; the family-averaged remainder shows the predicted decay
        # and every draw passes the membership rule
        monkeypatch.setattr(eigensolver, "CONVERGENCE_TOL", 5e-3)
        monkeypatch.setattr(eigensolver, "MAX_HALF_WINDOW", 192)
        collected = {}
        for seed in range(4):
            v = rough_potential(1, 0.75, 510, 1.0, seed=seed)
            _, tab = converge_truncation(v, 1, 20, 96)
            rep = tau_remainder(tab, v, 1, 0.75)
            assert rep.target_exponent == pytest.approx(1 * (1 - 1.5) - 0.05)
            assert rep.bounded_flag
            for n, val in rep.pairs():
                collected.setdefault(n, []).append(val)
        ens = [(n, float(np.mean(vs))) for n, vs in sorted(collected.items())]
        assert decay_exponent(ens, (8, 20)) == pytest.approx(-0.55, abs=0.3)

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
        v = FourierSequence({})
        _, tab = converge_truncation(v, 1, 8, 32)
        rep = gamma_remainder(tab, v, 1, 0.0)
        assert rep.fitted_slope == -math.inf

    def test_first_gap_and_decay(self):
        v = FourierSequence({2: 1.0, -2: 1.0})
        tab = compute_pair_table(
            v, 1, 128, lambda m, n: localization_radius(m, 0.0, 1.1, 1.5, n)
        )
        r1 = tab.row(1)
        assert abs(r1.gamma) == pytest.approx(2.0, abs=0.5)
        _, ctab = converge_truncation(v, 1, 32, 128)
        rep = gamma_remainder(ctab, v, 1, 0.0)
        assert decay_exponent(rep.pairs(), (2, 32)) <= -0.4
        assert rep.target_exponent == pytest.approx(0.5)

    def test_sign_resolution_swap_invariance(self, trig_table):
        v, tab = trig_table
        rep = gamma_remainder(tab, v, 1, 0.0)
        # swapping the two resonant coefficients leaves the product under
        # the square root unchanged
        swapped = FourierSequence({2: v(-2), -2: v(2)})
        rep2 = gamma_remainder(tab, swapped, 1, 0.0)
        assert rep.values == rep2.values

    def test_conjugation_invariance(self):
        v = rough_potential(1, 0.0, 32, 0.8, seed=13)
        vbar = conjugate_seq(v)
        _, tab = converge_truncation(v, 1, 12, 48)
        _, tabbar = converge_truncation(vbar, 1, 12, 48)
        r = gamma_remainder(tab, v, 1, 0.0)
        rbar = gamma_remainder(tabbar, vbar, 1, 0.0)
        assert np.allclose(r.values, rbar.values, atol=1e-8)

    def test_corrected_targets(self, trig_table):
        v, tab = trig_table
        rep_c = gamma_remainder(tab, v, 1, 0.0, corrected=True)
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
        v = FourierSequence({})
        _, tab = converge_truncation(v, 1, 8, 32)
        rep = one_term_check(tab, 1, 0.0, 1.0, 1.1)
        assert rep.fitted_slope == -math.inf and rep.bounded_flag

    def test_rough_alpha_half_bounded(self):
        v = rough_potential(1, 0.5, 80, 1.0, seed=2)
        _, tab = converge_truncation(v, 1, 16, 64)
        rep = one_term_check(tab, 1, 0.5, 1.0, 1.1)
        assert rep.bounded_flag
        assert max(rep.values) <= 3 * math.sqrt(2) * 1.1

    def test_flat_resonant_coefficients_give_flat_ratios(self):
        rng = np.random.default_rng(5)
        coeffs = {}
        for k in range(1, 41):
            coeffs[2 * k] = np.exp(2j * np.pi * rng.random())
            coeffs[-2 * k] = np.exp(2j * np.pi * rng.random())
        v = FourierSequence(coeffs)
        scale = 1.0 / weighted_norm(v, 0.0)  # onto the unit sphere of l2
        v = FourierSequence({k: scale * c for k, c in v.coeffs.items()})
        _, tab = converge_truncation(v, 1, 16, 64)
        rep = one_term_check(tab, 1, 0.0, 1.0, 1.1)
        assert abs(rep.fitted_slope) <= 0.3


class TestAlpha1:
    def test_zero_potential(self):
        rep = alpha1_experiment(FourierSequence({}), 1, 8, 32)
        assert rep.fitted_slope == -math.inf
        assert rep.n0_below_one == 0

    def test_growing_coefficients(self):
        rng = np.random.default_rng(11)
        coeffs = {}
        for k in range(1, 129):
            coeffs[2 * k] = (2 * k) ** 0.4 * np.exp(2j * np.pi * rng.random())
            coeffs[-2 * k] = (2 * k) ** 0.4 * np.exp(2j * np.pi * rng.random())
        v = FourierSequence(coeffs)
        assert math.isfinite(weighted_norm(v, -1.0))
        rep = alpha1_experiment(v, 1, 32, K=128)
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
        # v = q', a derivative-type potential: v(k) = i 2 pi (k/2) q(k)
        v = FourierSequence({k: 1j * math.pi * k * complex(qk) for k, qk in q.items()})
        rep = alpha1_experiment(v, 1, 16, K=64)
        assert rep.fitted_slope < 0
