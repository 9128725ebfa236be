import math

import numpy as np
import pytest
from conftest import build_A

from hillgap.lemmas import (
    SpectrumCollisionError,
    build_resolvent_factors,
    elementary_bounds_check,
    eq506_margin,
    ext_bound,
    ext_boundary,
    factorization_residual,
    hs_norm_S,
    op_norm_S,
    resolvent_shifted_norm,
    vert_bound,
    vert_bound_combined,
    vert_boundary,
    vert_min_n,
)
from hillgap.operator import (
    MAX_HALF_WINDOW,
    build_B,
    build_T,
    center,
    contour_radius,
    modes,
    resonant_rows,
    unperturbed_eigenvalues,
)
from hillgap.seqspace import FourierSequence, rough_potential, weighted_norm

PI2 = math.pi**2


class TestBuild:
    def test_A_diagonal_m1_K2(self):
        a = build_A(1, 2)
        want = np.diag([9 * PI2, PI2, PI2, 9 * PI2])
        assert np.allclose(a.matrix, want, rtol=0, atol=0)
        assert list(modes(a.K)) == [-3, -1, 1, 3]

    def test_A_diagonal_general(self):
        for m in (1, 2, 3):
            a = build_A(m, 4)
            p = modes(4).astype(float)
            assert np.array_equal(np.diag(a.matrix).real, p ** (2 * m) * math.pi ** (2 * m))

    def test_B_toeplitz_stencil(self):
        v = FourierSequence({2: 1.0, -2: 1.0})
        b = build_B(v, 1, 2).matrix
        want = np.array(
            [
                [0, 1, 0, 0],
                [1, 0, 1, 0],
                [0, 1, 0, 1],
                [0, 0, 1, 0],
            ],
            dtype=complex,
        )
        assert np.array_equal(b, want)

    def test_B_toeplitz_property(self):
        v = rough_potential(1, 0.0, 24, 1.0, seed=3)
        b = build_B(v, 1, 8).matrix
        for off in range(-5, 6):
            d = np.diagonal(b, offset=off)
            assert np.all(d == d[0])

    def test_B_hermitian_iff_v_hermitian(self):
        vh = rough_potential(1, 0.0, 32, 1.0, seed=5, hermitian=True)
        b = build_B(vh, 1, 8).matrix
        assert np.max(np.abs(b - b.conj().T)) <= 1e-14
        vn = rough_potential(1, 0.0, 32, 1.0, seed=5)
        bn = build_B(vn, 1, 8).matrix
        assert np.max(np.abs(bn - bn.conj().T)) > 1e-8

    def test_T_is_sum(self):
        v = rough_potential(1, 0.0, 32, 1.0, seed=1)
        t = build_T(v, 2, 6)
        assert np.array_equal(t.matrix, build_A(2, 6).matrix + build_B(v, 2, 6).matrix)

    def test_T_is_sum_bit_for_bit(self):
        # conjugates of real coefficients carry -0.0 imaginary parts; the sum
        # with the zeros of A^m turns them into +0.0, and so must build_T
        v = FourierSequence({0: 0.5, 2: 1.0, -2: complex(1.0).conjugate(), 4: -0.0, -4: 0.25j})
        for m, K in ((1, 5), (3, 8)):
            want = build_A(m, K).matrix + build_B(v, m, K).matrix
            assert build_T(v, m, K).matrix.tobytes() == want.tobytes()

    def test_odd_parity_rejected(self):
        # an odd-lattice coefficient cannot reach build_B: the potential refuses it
        with pytest.raises(ValueError, match="even lattice"):
            build_B(FourierSequence({1: 1.0}), 1, 4)


class TestResolventFactors:
    def test_zero_potential(self):
        f = build_resolvent_factors(FourierSequence({}), 1, 4, 2.0 + 1.0j)
        assert np.all(f.s_lam == 0)
        assert np.allclose(np.abs(f.i_lam), 1.0, atol=1e-15)

    def test_a_half_example(self):
        f = build_resolvent_factors(FourierSequence({}), 1, 2, 2 * PI2)
        want = [math.sqrt(7) * math.pi, math.pi, math.pi, math.sqrt(7) * math.pi]
        assert np.allclose(f.a_half, want, rtol=1e-15)

    def test_factorization_residual_zero_potential(self):
        res = factorization_residual(FourierSequence({}), 1, 8, 3.0 + 0.5j)
        assert res <= 1e-13 * (3.5 + unperturbed_eigenvalues(1, 8).max())

    def test_factorization_residual_random(self):
        rng = np.random.default_rng(11)
        v = rough_potential(1, 0.0, 40, 1.0, seed=11)
        t_max = float(np.max(np.abs(build_T(v, 1, 16).matrix)))
        for _ in range(10):
            lam = complex(rng.uniform(-50, 2000), rng.uniform(-30, 30))
            try:
                res = factorization_residual(v, 1, 16, lam)
            except SpectrumCollisionError:
                continue
            assert res <= 1e-12 * (abs(lam) + t_max)

    def test_collision_error(self):
        with pytest.raises(SpectrumCollisionError):
            build_resolvent_factors(FourierSequence({}), 1, 4, PI2)

    def test_zero_mode_required(self):
        v = FourierSequence({0: 1.0, 2: 1.0})
        with pytest.raises(ValueError):
            build_resolvent_factors(v, 1, 4, 2.0)


class TestNorms:
    def test_zero(self):
        f = build_resolvent_factors(FourierSequence({}), 1, 4, 1.0 + 1.0j)
        assert hs_norm_S(f) == 0.0
        assert op_norm_S(f) == 0.0

    def test_rank_one_equality(self):
        # K = 1 with a single one-sided coefficient: S has one nonzero entry
        v = FourierSequence({2: 2.0})
        f = build_resolvent_factors(v, 1, 1, 2.0)
        assert np.count_nonzero(f.s_lam) == 1
        assert op_norm_S(f) == pytest.approx(hs_norm_S(f), rel=1e-10)

    def test_op_below_hs_and_matches_svd(self):
        cases = [
            (rough_potential(1, 0.0, 24, 1.0, seed=seed), 1, 8, 37.0 + 5.0j) for seed in range(6)
        ]
        # small-norm regime: ||S|| ~ 6e-6 on the m = 3 strip boundary
        small = FourierSequence({2: 1, -2: 0.5j, 4: 0.3, -6: 0.2})
        cases.append((small, 3, 32, center(3, 4) + contour_radius(3, 4)))
        for v, m, K, lam in cases:
            f = build_resolvent_factors(v, m, K, lam)
            op = op_norm_S(f)
            hs = hs_norm_S(f)
            assert op <= hs * (1 + 1e-10)
            top_sv = float(np.linalg.svd(f.s_lam, compute_uv=False)[0])
            assert op == pytest.approx(top_sv, rel=1e-8)


class TestExtBound:
    def test_printed_value(self):
        assert ext_bound(1, 0.0, 100.0, 1.0) == pytest.approx(0.2529822128134704, rel=1e-12)

    def test_zero_potential(self):
        assert ext_bound(2, 0.3, 50.0, 0.0) == 0.0

    def test_quarter_exponent_at_alpha_one(self):
        assert ext_bound(2, 1.0, 16.0, 1.0) == pytest.approx(16.0, rel=1e-14)

    def test_hs_bound_on_cone_boundary(self):
        # the Hilbert-Schmidt norm of the truncated S is dominated by the
        # full-lattice sum the cone estimate controls
        for m, alpha in [(1, 0.0), (1, 0.5), (2, 0.25)]:
            v = rough_potential(m, alpha, 60, 1.0, seed=9)
            v_norm = weighted_norm(v, -m * alpha)
            for M in (4.0, 16.0):
                bound = ext_bound(m, alpha, M, v_norm)
                for lam in ext_boundary(M):
                    f = build_resolvent_factors(v, m, 16, lam)
                    assert hs_norm_S(f) <= bound


class TestVertBound:
    def test_zero_potential(self):
        assert vert_bound(1, 0.0, 10, 19.0, 0.0, (0.0, 0.0)) == 0.0

    def test_printed_value(self):
        got = vert_bound(1, 0.0, 10, 19.0, 1.0, (1.0, 1.0))
        assert got == pytest.approx(2.6070627807096036, rel=1e-12)

    def test_thresholds(self):
        assert vert_min_n(1) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            vert_bound(1, 0.0, 2, 1.0, 1.0, (0.0, 0.0))
        with pytest.raises(ValueError):
            vert_bound(1, 0.0, 10, 19.0**2 * PI2, 1.0, (0.0, 0.0))

    def test_op_norm_below_bound_on_boundary(self):
        m, alpha, n = 1, 0.0, 10
        r_n = 19.0
        v = rough_potential(m, alpha, 80, 1.0, seed=21)
        v_norm = weighted_norm(v, 0.0)
        q = 2 * (2 * n - 1)
        raw = vert_bound(m, alpha, n, r_n, v_norm, (v(q), v(-q)))
        comb = vert_bound_combined(m, alpha, n, r_n, v_norm)
        worst = 0.0
        for lam in vert_boundary(m, n, r_n):
            f = build_resolvent_factors(v, m, 32, lam)
            worst = max(worst, op_norm_S(f))
        assert worst <= raw
        assert worst <= comb


class TestElementaryBounds:
    def test_equality_case(self):
        rep = elementary_bounds_check(1, 0.0, 1)
        assert rep.sup_a == pytest.approx(1.0, rel=1e-14)
        assert rep.bound_a == 1.0
        assert rep.all_hold

    def test_sum_c_n10(self):
        rep = elementary_bounds_check(1, 0.0, 10)
        assert rep.bound_c == pytest.approx(1.651292546497023, rel=1e-12)
        assert rep.sum_c <= rep.bound_c

    def test_alpha_zero_sup_b_equals_sup_a(self):
        for m in (1, 2):
            rep = elementary_bounds_check(m, 0.0, 6)
            assert rep.sup_b == pytest.approx(rep.sup_a, rel=1e-14)

    def test_sum_c_against_enumeration_oracle(self):
        m, n, cutoff = 1, 10, 160  # the check sums |k| <= 16 n
        ks = [k for k in range(-cutoff, cutoff + 1) if abs(k) != n]
        direct = sum(1.0 / abs(k ** (2 * m) - n ** (2 * m)) for k in ks)
        rep = elementary_bounds_check(m, 0.0, n)
        assert rep.sum_c >= direct  # tail only adds
        assert rep.sum_c == pytest.approx(direct, rel=0.05)

    def test_precondition(self):
        with pytest.raises(ValueError):
            elementary_bounds_check(3, 0.0, 2)

    def test_sweep_small(self):
        for m in (1, 2, 3):
            for alpha in (0.0, 0.5):
                for n in range(m, 40):
                    assert elementary_bounds_check(m, alpha, n).all_hold


class TestEq506:
    def test_m1_n5(self):
        assert eq506_margin(1, 5, K=64) <= 1 + 1e-12

    def test_margin_below_one(self):
        assert eq506_margin(1, 8, K=32) <= 1.0

    def test_threshold(self):
        with pytest.raises(ValueError):
            eq506_margin(1, 2)

    def test_resonant_modes_excluded(self):
        # the comparison is vacuous at k = +-(2n-1); margin must stay finite
        assert math.isfinite(eq506_margin(1, 5, K=16))


class TestShiftedResolventNorm:
    def test_plain_inverse_distance(self):
        lam = 50.0 + 3.0j
        mu = unperturbed_eigenvalues(1, 16)
        want = 1.0 / np.min(np.abs(lam - mu))
        got = resolvent_shifted_norm(1, lam, 0.0, 0.0, 0, 0, 16)
        assert got == pytest.approx(want, rel=1e-14)

    def test_collision(self):
        with pytest.raises(SpectrumCollisionError):
            resolvent_shifted_norm(1, PI2, 0.0, 0.0, 0, 0, 8)

    def test_bounded_scan(self):
        vals = []
        for n in range(8, 65, 4):
            lam = (2 * n - 1) ** 2 * PI2 + (2 * n - 1)
            vals.append(resolvent_shifted_norm(1, lam, 1.0, -1.0, n, -n, 64))
        assert max(vals) / min(vals) < 10.0

    def test_decay_scan(self):
        import hillgap.seqspace as seq

        for m in (1, 2):
            pts = []
            for n in range(8, 65, 4):
                lam = float(2 * n - 1) ** (2 * m) * math.pi ** (2 * m) + float(2 * n - 1) ** m
                pts.append((n, resolvent_shifted_norm(m, lam, -1.0, -1.0, 0, 0, 64)))
            assert seq.decay_exponent(pts, (8, 64)) == pytest.approx(-m, abs=0.3)


class TestRegions:
    def test_ext_boundary_on_cone(self):
        pts = ext_boundary(4.0)
        assert -4.0 in pts  # the apex
        for lam in pts:
            assert abs(lam.real - (abs(lam.imag) - 4.0)) < 1e-12
        with pytest.raises(ValueError):
            ext_boundary(0.5)

    def test_vert_boundary_on_circle_or_edges(self):
        c, half_width = 81 * PI2, 9 * PI2
        pts = vert_boundary(1, 5, 9.0)
        on_circle = np.isclose(np.abs(pts - c), 9.0, rtol=1e-12)
        on_edge = np.isclose(np.abs(pts.real - c), half_width, rtol=1e-12)
        assert on_circle.sum() == 16 and on_edge.sum() == 18
        assert np.all(on_circle | (on_edge & (np.abs(pts - c) >= 9.0)))

    def test_vert_invariant(self):
        with pytest.raises(ValueError):
            vert_boundary(1, 5, 9.0**2 * PI2 * 10)


class TestExactDiagonal:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_diagonal_is_mirror_symmetric_at_the_centers(self, m):
        # each entry is the exact integer |p|^{2m} rounded once: at m = 3
        # and K = 1024 a float power rounds some |p|^6 > 2^53 differently
        # for p and -p, and differently from the center
        K = MAX_HALF_WINDOW
        diag = build_T(FourierSequence({}), m, K).matrix.diagonal()
        assert np.array_equal(diag, diag[::-1])
        ns = np.arange(1, K + 1)
        centers = np.array([center(m, n) for n in ns])
        lo, hi = resonant_rows(K, ns)
        assert np.array_equal(diag[lo], centers) and np.array_equal(diag[hi], centers)
