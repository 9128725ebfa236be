import math

import mpmath as mp
import numpy as np
import pytest
from conftest import _mp_eigenvalues, l_direct, reflect_seq

from hillgap import eigensolver
from hillgap.eigensolver import (
    SolverError, correction_values, low_block, pair_eigenvalues,
)
from hillgap.operator import (
    MAX_HALF_WINDOW,
    TruncatedOperator,
    build_B,
    build_T,
    modes,
    resonant_rows,
    unperturbed_eigenvalues,
)
from hillgap.riesz import (
    ContourCollisionError,
    ContourSpec,
    q0_closed_form,
    q0_matrix,
    riesz_projector,
    script_S_2x2,
)
from hillgap.seqspace import FourierSequence, rough_potential

PI2 = math.pi**2
ORACLE_POTENTIALS = {
    "trig": {2: 1.0, -2: 0.5, 4: 0.3, -4: 0.2j, 6: 0.1},
    "complex": {2: 0.6 + 0.1j, -2: 0.3 - 0.2j, 4: 0.2, -4: 0.1j, 6: 0.1 + 0.05j},
}


def full_eigvals_traces(low, contour):
    """The route the dominant block replaced: Tr P and Tr((T - c) P) summed
    over every eigenvalue of the shift-inverse M = (sigma - T)^{-1}."""
    mat = low.op.matrix
    _, ws = contour.points()
    offsets = contour.nodes * ws
    shift = 2j * contour.radius
    nu = np.linalg.eigvals(np.linalg.inv((contour.center + shift) * np.eye(len(mat)) - mat))
    traces = np.sum(nu / (1.0 + (offsets - shift)[:, None] * nu), axis=1)
    return np.sum(ws * traces), np.sum(ws * traces * offsets)


def assert_matches_full_eigvals(low, contour):
    pair = riesz_projector(low, contour)
    tr_p, tr_q = full_eigvals_traces(low, contour)
    assert abs(pair.tr_p - tr_p) <= 1e-12
    assert abs(pair.tr_q - tr_q) <= 1e-12 * contour.radius
    return pair


class TestContourSpec:
    def test_geometry(self):
        c = ContourSpec(n=3, m=2, nodes=64)
        assert c.center == pytest.approx(5**4 * math.pi**4, rel=1e-15)
        assert c.radius == 25.0

    def test_node_count_validated(self):
        with pytest.raises(ValueError):
            ContourSpec(n=1, m=1, nodes=48)
        with pytest.raises(ValueError):
            ContourSpec(n=1, m=1, nodes=8)

    def test_points_quadrature_of_cauchy_kernel(self):
        # (1/2 pi i) \oint dz/(z - a) = 1 for a inside, 0 outside
        c = ContourSpec(n=2, m=1, nodes=32)
        lams, ws = c.points()
        inside = np.sum(ws / (lams - (c.center + 0.3 * c.radius)))
        outside = np.sum(ws / (lams - (c.center + 2.7 * c.radius)))
        assert inside == pytest.approx(1.0, abs=1e-12)
        assert outside == pytest.approx(0.0, abs=1e-12)


class TestRieszProjector:
    def test_zero_potential_exact(self):
        low = low_block(build_T(FourierSequence({}), 1, 16), 16)
        pair = riesz_projector(low, ContourSpec(n=3, m=1))
        # the pair sits exactly at the center: Tr P = 2, Tr((T - c) P) = 0
        assert abs(pair.tr_p - 2.0) <= 1e-14
        assert abs(pair.tr_q) <= 1e-12

    def test_trace_two_for_random_potentials(self):
        for seed in (0, 1):
            v = rough_potential(1, 0.0, 24, 0.8, seed=seed)
            low = low_block(build_T(v, 1, 32), 32)
            pair = riesz_projector(low, ContourSpec(n=4, m=1))
            assert abs(pair.tr_p - 2.0) <= 1e-9

    def test_matches_dense_inverse_per_node(self):
        # the route it replaced, one dense inverse per node, as the reference
        v = rough_potential(1, 0.0, 24, 0.8, seed=2)
        op = build_T(v, 1, 16)
        contour = ContourSpec(n=3, m=1)
        lams, ws = contour.points()
        tr = np.array([np.trace(np.linalg.inv(lam * np.eye(32) - op.matrix)) for lam in lams])
        pair = riesz_projector(low_block(op, op.K), contour)
        assert abs(pair.tr_p - np.sum(ws * tr)) <= 1e-12
        assert abs(pair.tr_q - np.sum(ws * (lams - contour.center) * tr)) <= 1e-11

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_jordan_pairs_one_sided_potential(self, m, n):
        # v(-k) = 0 leaves every eigenvalue at its unperturbed value, and each
        # resonant pair is a 2x2 Jordan block: P has trace 2 and (T - c) P is
        # nilpotent, so its trace vanishes
        v = FourierSequence({2: 1.0, 4: 0.5 + 0.2j, 6: 0.3, 8: 0.1j})
        contour = ContourSpec(n=n, m=m)
        pair = riesz_projector(low_block(build_T(v, m, 32), 32), contour)
        assert abs(pair.tr_p - 2.0) <= 1e-12
        assert abs(pair.tr_q) <= 1e-12 * contour.radius

    def test_planted_third_eigenvalue_grows_block(self):
        # a far diagonal entry moved inside the n = 3 contour puts a third
        # eigenvalue there: the pair's block must grow to take it in
        contour = ContourSpec(n=3, m=1)
        mat = build_T(rough_potential(1, 0.0, 24, 0.8, seed=5), 1, 16).matrix.copy()
        mat[-1, -1] = contour.center + (0.3 + 0.1j) * contour.radius
        low = low_block(TruncatedOperator(1, 16, mat), 16)
        pair = assert_matches_full_eigvals(low, contour)
        assert abs(pair.tr_p - 3.0) <= 1e-12
        assert pair.block > 2

    def test_certificate_takes_in_pole_near_contour(self):
        # the pair moved up to c + 0.5i rho sits 1.5 rho from the shift and a
        # planted pole at c - 3.8i rho sits 5.8 rho from it: the pair's block
        # converges fast but leaves out an eigenvalue of M above 1 / (6 rho),
        # whose trapezoid term at 16 nodes is 3.8^-16 ~ 5e-10
        contour = ContourSpec(n=3, m=1, nodes=16)
        mat = build_T(rough_potential(1, 0.0, 24, 0.8, seed=5), 1, 16).matrix
        mat = mat + 0.5j * contour.radius * np.eye(32)
        mat[-1, -1] = contour.center - 3.8j * contour.radius
        low = low_block(TruncatedOperator(1, 16, mat), 16)
        pair = assert_matches_full_eigvals(low, contour)
        assert pair.block > 2

    def test_strong_potential_grows_block(self):
        v = FourierSequence({2: 60.0, -2: 45j, 4: 30.0})
        low = low_block(build_T(v, 1, 32), 32)
        pairs = [assert_matches_full_eigvals(low, ContourSpec(n=n, m=1)) for n in (1, 2, 3)]
        assert max(p.block for p in pairs) > 2

    def test_strong_potential_certifies_high_contours(self, inv_calls):
        # the gaps c_n - c_{n-1} grow like n: the certificate refuses the low
        # contours, which take the dense shift-invert of a grown band, and
        # decouples the pair of every higher one, shift-inverting its 2 x 2 block
        low = low_block(build_T(FourierSequence({2: 60.0, -2: 45j, 4: 30.0}), 1, 64), 64)
        dense = []
        for n in range(1, 17):
            before = len(inv_calls)
            pair = assert_matches_full_eigvals(low, ContourSpec(n=n, m=1))
            # the reference itself takes one inverse, after the projector's
            assert len(inv_calls) - before == 2
            if pair.dense:
                dense.append(n)
                assert inv_calls[before][0] > 2
            else:
                assert pair.block == 2 and inv_calls[before] == (2, 2)
        assert 0 < len(dense) < 16 and dense == list(range(1, len(dense) + 1))

    def test_refused_contour_and_pair_match_oracle(self, mpmath_pair):
        # the certificate refuses the n = 3 contour and the pair row n = 4,
        # whose poles a shift-invert of the certified band reads near c to
        # the scale of rho: both agree with a 30-digit eigensolve of the window
        coeffs = {2: 60.0, -2: 45j, 4: 30.0}
        op = build_T(FourierSequence(coeffs), 1, 16)
        contour = ContourSpec(n=3, m=1)
        pair = riesz_projector(low_block(op, 3), contour)
        assert pair.dense
        ev = _mp_eigenvalues(tuple(sorted(coeffs.items())), 1, 16, 30)
        with mp.workdps(30):
            poles = [e - (5 * mp.pi) ** 2 for e in ev]
            rho_u = [contour.radius * mp.expjpi(mp.mpf(2 * j) / contour.nodes)
                     for j in range(contour.nodes)]
            want = complex(mp.fsum(z / contour.nodes * mp.fsum(1 / (z - d) for d in poles)
                                   for z in rho_u))
        assert abs(pair.tr_p - want) <= 1e-13
        table = pair_eigenvalues(low_block(op, 4), n_max=4)
        assert 4 in table.unrefined
        assert abs(table.row(4).d_tau - mpmath_pair(coeffs, 1, 16, 4)[0]) <= 1e-13

    def test_unsettled_pair_fixed_point_raises(self, monkeypatch):
        low = low_block(build_T(rough_potential(1, 0.0, 24, 0.8, seed=3), 1, 32), 32)
        monkeypatch.setattr(eigensolver, "RICCATI_MAX_STEPS", 1)
        with pytest.raises(SolverError, match="Riccati"):
            riesz_projector(low, ContourSpec(n=3, m=1))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_random_potentials_stay_at_pair_block(self, m):
        for seed in (6, 7):
            low = low_block(build_T(rough_potential(1, 0.0, 24, 3.0, seed=seed), m, 32), 32)
            for n in (1, 3, 6):
                pair = assert_matches_full_eigvals(low, ContourSpec(n=n, m=m))
                assert pair.block == 2

    def test_collision_error_carries_offender(self):
        # an eigenvalue of A^m sits exactly on a radius-crossing contour if
        # we shift the potential by the right constant
        v = FourierSequence({0: float(2 * 3 - 1) ** 1})  # pushes the n=3 pair onto its contour
        low = low_block(build_T(v, 1, 16), 16)
        with pytest.raises(ContourCollisionError) as err:
            riesz_projector(low, ContourSpec(n=3, m=1))
        assert err.value.offending is not None

    def test_dense_route_collision_carries_offender(self):
        # a decoupled last mode planted at c + rho is an eigenvalue on the
        # n = 3 contour; its distance to the diagonal of A^m blows up beta,
        # so the pair certificate refuses the contour and the dense route's
        # poles sigma - 1 / nu must catch it
        contour = ContourSpec(n=3, m=1)
        mat = build_T(rough_potential(1, 0.0, 24, 0.8, seed=5), 1, 16).matrix.copy()
        mat[-1, :] = mat[:, -1] = 0.0
        mat[-1, -1] = contour.center + contour.radius
        low = low_block(TruncatedOperator(1, 16, mat), 3)
        assert not low.certifies((5, 5), contour.center, 4.0 * contour.radius)
        with pytest.raises(ContourCollisionError) as err:
            riesz_projector(low, contour)
        assert err.value.offending == pytest.approx(contour.center + contour.radius, rel=1e-14)

    def test_node_halving_error_decays_geometrically(self):
        # a potential strong enough that the pair sits at a good fraction of
        # the contour radius: quadrature error then decays like q^N with
        # q well inside (0, 1), and the node-halving defect bounds it
        v = FourierSequence({2: 2.0, -2: 2.0, 6: 1.5, -6: 1.5})
        low = low_block(build_T(v, 1, 32), 32)
        errs = []
        ref = riesz_projector(low, ContourSpec(n=2, m=1, nodes=256))
        for nodes in (16, 32, 64):
            pair = riesz_projector(low, ContourSpec(n=2, m=1, nodes=nodes))
            errs.append(max(abs(pair.tr_p - ref.tr_p), abs(pair.tr_q - ref.tr_q)))
            assert errs[-1] <= pair.quad_tol
        assert errs[0] > 1e-13  # above the floor, so the ratios are meaningful
        assert errs[1] <= 0.5 * errs[0]
        assert errs[2] <= 0.5 * errs[1]


class TestTauFromTraces:
    def test_zero_potential(self):
        low = low_block(build_T(FourierSequence({}), 1, 16), 16)
        res = riesz_projector(low, ContourSpec(n=2, m=1))
        assert res.tau.real == pytest.approx(9 * PI2, rel=1e-12)
        assert abs(res.tr_q) <= 1e-10

    def test_cross_oracle_against_eigensolver(self):
        for seed in (3, 4):
            v = rough_potential(1, 0.0, 40, 0.8, seed=seed)
            low = low_block(build_T(v, 1, 32), 32)
            table = pair_eigenvalues(low, n_max=8)
            for n in (2, 4, 6):
                res = riesz_projector(low, ContourSpec(n=n, m=1))
                tau_eig = table.row(n).tau
                assert abs(res.tau - tau_eig) <= 1e-8 * (1 + abs(res.tau))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("potential", sorted(ORACLE_POTENTIALS))
    def test_high_precision_oracle(self, mpmath_pair, potential, m, n):
        # at m = 3 the pair sits 1e-9 to 1e-6 from a center of 7e5 to 1e8,
        # so Tr((T - c) P) must be summed from the node offsets; forming
        # Tr(T P) - c Tr(P) cancels it to rounding
        coeffs = ORACLE_POTENTIALS[potential]
        want = 2.0 * mpmath_pair(coeffs, m, 16, n)[0]
        low = low_block(build_T(FourierSequence(coeffs), m, 16), 16)
        res = riesz_projector(low, ContourSpec(n=n, m=m))
        assert abs(res.tr_p - 2.0) <= 1e-12
        assert abs(res.tr_q - want) <= 1e-3 * abs(want)


class TestQ0Matrix:
    def test_n1_resonant_entries(self):
        c = 0.4 - 0.2j
        v = FourierSequence({2: c, -2: c.conjugate()})
        q0 = q0_matrix(v, 1, 1, 8)  # the rows of the modes 1 and -1
        window = list(modes(8))
        i, j = window.index(1), window.index(-1)
        assert q0.shape == (2, 16)
        assert q0[0, j] == pytest.approx(c, abs=1e-12)
        assert q0[1, i] == pytest.approx(c.conjugate(), abs=1e-12)

    def test_trace_zero_and_closed_form(self):
        for seed in (5, 6):
            v = rough_potential(1, 0.0, 40, 0.8, seed=seed)
            for n in (2, 5):
                # the rows of 2n - 1, -(2n - 1); its resonant diagonal entries
                # are v(0) times a weight, zero as v(0) is, and the closed
                # form bounds them with the rest of the two rows
                q0 = q0_matrix(v, 1, n, 24)
                assert np.max(np.abs(q0 - q0_closed_form(v, 1, n, 24))) <= 1e-9

    def test_matches_node_loop(self):
        # the single product against the per-node sum it replaced
        v = rough_potential(1, 0.0, 40, 0.8, seed=5)
        contour = ContourSpec(n=2, m=1)
        b = build_B(v, 1, 24).matrix
        lams, ws = contour.points()
        want = np.zeros_like(b)
        for lam, w in zip(lams, ws):
            d = 1.0 / (lam - unperturbed_eigenvalues(1, 24))
            want += (w * (lam - contour.center)) * (d[:, None] * b * d[None, :])
        i_minus, i_plus = resonant_rows(24, 2)
        assert np.max(np.abs(np.delete(want, [i_minus, i_plus], axis=0))) <= 1e-13
        assert np.max(np.abs(q0_matrix(v, 1, 2, 24) - want[[i_plus, i_minus]])) <= 1e-13

    def test_no_resonant_mode_gives_zero(self):
        v = FourierSequence({2: 1.0, -2: 1.0})
        q0 = q0_matrix(v, 1, 4, 16)  # needs modes at +-14; v has none
        assert np.max(np.abs(q0)) <= 1e-12

    def test_zero_mode_required(self):
        with pytest.raises(ValueError):
            q0_matrix(FourierSequence({0: 1.0}), 1, 1, 8)

    def test_resonant_modes_outside_window(self):
        # n = 9 needs modes +-17, beyond the K = 8 window
        v = FourierSequence({2: 1.0, -2: 1.0})
        for quadrature in (q0_matrix, script_S_2x2):
            with pytest.raises(ValueError, match="outside the window"):
                quadrature(v, 1, 9, 8)


def l_residue_oracle(v, m, n):
    """Independent residue bookkeeping: enumerate odd intermediate modes and
    sum v(q - q') v(q' + q) / (c - mu(q')) for q = 2n-1."""
    q = 2 * n - 1
    c = float(q) ** (2 * m) * math.pi ** (2 * m)
    total = 0.0 + 0.0j
    span = max(map(abs, v.coeffs), default=0) + 2 * abs(q) + 2
    for qp in range(-span, span + 1, 2):
        qq = qp + 1  # odd modes
        if qq in (q, -q):
            continue
        a = v(q - qq)
        b = v(qq + q)
        if a == 0 or b == 0:
            continue
        mu = float(qq) ** (2 * m) * math.pi ** (2 * m)
        total += a * b / (c - mu)
    return total


def l_loop_reference(v, m, n):
    """The one-n loop the one-pass l_direct replaced, with the same exact
    integer denominators: (l_+, l_-) and the sums of the moduli of their
    terms, the scale at which the summation order may change them."""
    q = 2 * n - 1
    scale = math.pi ** (2 * m)
    sums = [0j, 0j]
    sizes = [0.0, 0.0]
    half = max(map(abs, v.coeffs), default=0) // 2
    for j in range(n - half, n + half + 1):
        p = 2 * j - 1
        if p in (q, -q):
            continue
        den = float(q ** (2 * m) - p ** (2 * m))
        for i, (a, b) in enumerate((
            (v(2 * n - 2 * j), v(2 * n + 2 * j - 2)),
            (v(2 * j - 2 * n), v(2 - 2 * n - 2 * j)),
        )):
            if a != 0 and b != 0:
                sums[i] += a * b / den
                sizes[i] += abs(a * b / den)
    return sums[0] / scale, sums[1] / scale, sizes[0] / scale, sizes[1] / scale


class TestCorrectionSequence:
    def test_zero_potential(self):
        assert l_direct(FourierSequence({}), 1, 3)[0] == 0
        assert correction_values(FourierSequence({}), 1, [3])[0][0] == 0
        assert [a.size for a in correction_values(FourierSequence({2: 1.0}), 1, [])] == [0, 0]

    def test_two_mode_potential_vanishes(self):
        # support {+-2(2n-1)}: one candidate index is excluded as resonant,
        # the other hits a vanishing coefficient
        n = 3
        q2 = 2 * (2 * n - 1)
        v = FourierSequence({q2: 1.3, -q2: 0.7})
        assert l_direct(v, 1, n)[0] == 0
        assert correction_values(v, 1, [n])[0][0] == 0
        s2 = script_S_2x2(v, 1, n, 32)
        assert abs(s2[0, 1]) <= 1e-10
        assert abs(s2[1, 0]) <= 1e-10

    def test_matches_residue_oracle(self):
        v = rough_potential(1, 0.0, 32, 0.8, seed=7)
        for n in (2, 3, 5):
            got_plus, got_minus = l_direct(v, 1, n)
            want = l_residue_oracle(v, 1, n)
            assert got_plus == pytest.approx(want, rel=1e-12, abs=1e-15)
            want = l_residue_oracle(reflect_seq(v), 1, n)
            assert got_minus == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_matches_contour_route(self):
        v = FourierSequence({2: 0.5, -2: 0.5, 4: 0.25 + 0.1j, -4: 0.25 - 0.1j, 10: 0.3, -10: 0.3})
        for n in (2, 3, 4):
            s2 = script_S_2x2(v, 1, n, 32)
            assert abs(s2[0, 1] - l_direct(v, 1, n)[0]) <= 1e-10
            assert abs(s2[1, 0] - l_direct(reflect_seq(v), 1, n)[0]) <= 1e-10

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_minus_entry_is_reflected_plus_entry(self, m):
        # one pass gives l_- bit for bit as the l_+ of the reflected potential
        v = rough_potential(1, 0.0, 24, 0.8, seed=8)
        for n in (2, 4, 7):
            lp, lm = l_direct(v, m, n)
            rp, rm = l_direct(reflect_seq(v), m, n)
            assert np.array([lm, lp]).tobytes() == np.array([rp, rm]).tobytes()
            # the pair block's truncation, and its mirror on the reflected potential
            (gp,), (gm,) = correction_values(v, m, [n])
            (hp,), (hm,) = correction_values(reflect_seq(v), m, [n])
            for got, want in ((gp, lp), (gm, lm), (hm, lp), (hp, lm)):
                assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_one_pass_matches_loop(self, m):
        # all n at once against the per-n loop, and each n on its own
        ns = np.arange(1, 20)
        for seed, window in ((8, 24), (10, 78), (11, 2)):
            v = rough_potential(1, 0.0, window, 0.8, seed=seed)
            plus, minus = l_direct(v, m, ns)
            for n, lp, lm in zip(ns, plus, minus):
                want_p, want_m, size_p, size_m = l_loop_reference(v, m, int(n))
                assert abs(lp - want_p) <= 1e-15 * size_p
                assert abs(lm - want_m) <= 1e-15 * size_m
                assert l_direct(v, m, int(n)) == (lp, lm)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_pair_truncation_matches_residue_sum(self, m):
        # the second-order truncation of the pair block, all n from one
        # product, against the residue sum that shares no code with it; the
        # support 2048 is the largest correction_values' window holds
        ns = np.arange(1, 20)
        for seed, window in ((8, 24), (10, 78), (11, 2), (3, 64), (5, 2 * MAX_HALF_WINDOW)):
            v = rough_potential(1, 0.0, window, 0.8, seed=seed)
            for got, want in zip(correction_values(v, m, ns), l_direct(v, m, ns)):
                assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    def test_exact_denominators_past_int64(self):
        # at m = 3 the modes |p| >= 1449 have p^6 > 2^63: n = 1 meets p = 3001,
        # where q^6 - p^6 itself overflows an int64, and n = 750 meets
        # q, p = 1499, 1501, where a float p^6 loses the difference to cancellation
        v = FourierSequence({2: 0.3, -2: 0.7, 3000: 0.4 + 0.2j, -3000: 0.5j, 3002: 0.25, -3002: 0.1j})
        plus, minus = l_direct(v, 3, np.array([1, 750, 751]))
        for n, lp, lm in zip((1, 750, 751), plus, minus):
            want_p, want_m, size_p, size_m = l_loop_reference(v, 3, n)
            assert size_p > 0 and size_m > 0
            assert abs(lp - want_p) <= 1e-15 * size_p
            assert abs(lm - want_m) <= 1e-15 * size_m

    @pytest.mark.parametrize("m", [1, 2])
    def test_script_S_matches_node_loop(self, m):
        # the single product against the per-node sum it replaced
        v = rough_potential(1, 0.0, 24, 0.8, seed=9)
        n, K = 3, 24
        contour = ContourSpec(n=n, m=m)
        b = build_B(v, m, K).matrix
        idx = list(reversed(resonant_rows(K, n)))  # (+(2n-1), -(2n-1))
        lams, ws = contour.points()
        want = np.zeros((2, 2), dtype=complex)
        for lam, w in zip(lams, ws):
            d = 1.0 / (lam - unperturbed_eigenvalues(m, K))
            want += (w / (lam - contour.center)) * ((b[idx, :] * d[None, :]) @ b[:, idx])
        assert np.max(np.abs(script_S_2x2(v, m, n, K) - want)) <= 1e-13

    def test_script_S_zero_potential(self):
        s2 = script_S_2x2(FourierSequence({}), 1, 2, 16)
        assert np.max(np.abs(s2)) == 0.0

    def test_higher_order_m(self):
        v = rough_potential(1, 0.0, 24, 0.8, seed=9)
        for m in (2, 3):
            s2 = script_S_2x2(v, m, 2, 16)
            l_plus, l_minus = l_direct(v, m, 2)
            assert abs(s2[0, 1] - l_plus) <= 1e-10
            assert abs(s2[1, 0] - l_minus) <= 1e-10
