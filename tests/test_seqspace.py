import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import conjugate_seq, reflect_seq

from hillgap.seqspace import (
    FourierSequence,
    Parity,
    ParityError,
    PotentialFamily,
    PotentialSpec,
    SobolevParams,
    convolve,
    decay_exponent,
    h_membership_bounded,
    is_real_valued,
    make_potential,
    normalize_zero_mode,
    weighted_norm,
)


def norm_oracle(coeffs, s, shift):
    """Independent summation oracle for the weighted norm."""
    total = 0.0
    for k, v in coeffs.items():
        total += (1 + abs(k + shift)) ** (2 * s) * abs(v) ** 2
    return math.sqrt(total)


def conv_oracle(a, b):
    """Brute-force enumeration of all index pairs."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            out[ka + kb] = out.get(ka + kb, 0) + va * vb
    return {k: v for k, v in out.items() if v != 0}


even_seqs = st.dictionaries(
    st.integers(-20, 20).map(lambda k: 2 * k),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    max_size=8,
)
odd_seqs = st.dictionaries(
    st.integers(-20, 20).map(lambda k: 2 * k - 1),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    max_size=8,
)


class TestFourierSequence:
    def test_parity_enforced(self):
        with pytest.raises(ParityError):
            FourierSequence.make(Parity.EVEN, {3: 1.0})
        with pytest.raises(ParityError):
            FourierSequence.make(Parity.ODD, {2: 1.0})

    def test_finite_enforced(self):
        with pytest.raises(ValueError):
            FourierSequence.make(Parity.EVEN, {2: complex("nan")})
        with pytest.raises(ValueError):
            FourierSequence.make(Parity.EVEN, {2: complex("inf")})

    def test_outside_window_zero(self):
        a = FourierSequence.make(Parity.EVEN, {2: 1.0})
        assert a(4) == 0
        assert a(-100) == 0

    def test_window_invariant(self):
        with pytest.raises(ValueError):
            FourierSequence(Parity.EVEN, {8: 1.0}, 4)


class TestWeightedNorm:
    def test_single_zero_index(self):
        a = FourierSequence.make(Parity.EVEN, {0: 3.0})
        assert weighted_norm(a, 5.0) == 3.0
        assert weighted_norm(a, -2.5) == 3.0

    def test_two_modes_s1(self):
        a = FourierSequence.make(Parity.EVEN, {2: 1.0, -2: 1.0})
        assert weighted_norm(a, 1.0) == pytest.approx(3 * math.sqrt(2), rel=1e-15)

    def test_shifted(self):
        a = FourierSequence.make(Parity.EVEN, {2: 1.0, -2: 1.0})
        got = weighted_norm(a, -1.0, shift=2)
        assert got == pytest.approx(1.019803902718557, rel=1e-12)
        assert got == pytest.approx(norm_oracle(dict(a.coeffs), -1.0, 2), rel=1e-15)

    def test_empty_is_zero(self):
        assert weighted_norm(FourierSequence.zero(), 1.0) == 0.0

    @given(even_seqs, st.floats(-3, 3), st.integers(-5, 5))
    def test_matches_oracle(self, coeffs, s, shift):
        a = FourierSequence.make(Parity.EVEN, coeffs)
        assert weighted_norm(a, s, shift) == pytest.approx(
            norm_oracle(coeffs, s, shift), rel=1e-12, abs=1e-12
        )

    @given(even_seqs, st.complex_numbers(max_magnitude=100, allow_nan=False, allow_infinity=False))
    def test_absolutely_homogeneous(self, coeffs, c):
        a = FourierSequence.make(Parity.EVEN, coeffs)
        lhs = weighted_norm(a.scaled(c), 0.5)
        rhs = abs(c) * weighted_norm(a, 0.5)
        assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-12)

    @given(even_seqs)
    def test_s0_is_plain_l2(self, coeffs):
        a = FourierSequence.make(Parity.EVEN, coeffs)
        plain = math.sqrt(sum(abs(v) ** 2 for v in coeffs.values()))
        assert weighted_norm(a, 0.0) == pytest.approx(plain, rel=1e-14, abs=1e-12)


class TestConvolve:
    def test_delta_shifts(self):
        a = FourierSequence.make(Parity.EVEN, {2: 1.0})
        b = FourierSequence.make(Parity.ODD, {-1: 1.0})
        c = convolve(a, b)
        assert c.parity is Parity.ODD
        assert dict(c.coeffs) == {1: 1.0}

    def test_scalar_identity(self):
        a = FourierSequence.make(Parity.EVEN, {0: 2.5 + 1j})
        b = FourierSequence.make(Parity.ODD, {1: 1.0, -3: 2.0})
        c = convolve(a, b)
        for k in (1, -3):
            assert c(k) == (2.5 + 1j) * b(k)

    def test_enumeration(self):
        a = FourierSequence.make(Parity.EVEN, {2: 1.0, -2: 1.0})
        b = FourierSequence.make(Parity.ODD, {1: 1.0, -1: 1.0})
        c = convolve(a, b)
        assert {k: v for k, v in c.coeffs.items() if v != 0} == {
            3: 1.0, 1: 1.0, -1: 1.0, -3: 1.0,
        }

    def test_window_is_minkowski_sum(self):
        a = FourierSequence.make(Parity.EVEN, {4: 1.0})
        b = FourierSequence.make(Parity.EVEN, {6: 1.0})
        assert convolve(a, b).window == 10

    @given(even_seqs, odd_seqs)
    def test_parity_algebra_mixed(self, ca, cb):
        a = FourierSequence.make(Parity.EVEN, ca)
        b = FourierSequence.make(Parity.ODD, cb)
        c = convolve(a, b)
        assert c.parity is Parity.ODD
        assert all(k % 2 for k in c.support())

    @given(odd_seqs, odd_seqs)
    def test_parity_algebra_odd_odd(self, ca, cb):
        a = FourierSequence.make(Parity.ODD, ca)
        b = FourierSequence.make(Parity.ODD, cb)
        c = convolve(a, b)
        assert c.parity is Parity.EVEN
        assert all(k % 2 == 0 for k in c.support())

    @given(even_seqs, even_seqs)
    def test_commutative(self, ca, cb):
        a = FourierSequence.make(Parity.EVEN, ca)
        b = FourierSequence.make(Parity.EVEN, cb)
        ab, ba = convolve(a, b), convolve(b, a)
        keys = set(ab.coeffs) | set(ba.coeffs)
        for k in keys:
            assert ab(k) == pytest.approx(ba(k), rel=1e-14, abs=1e-9)

    @given(even_seqs, even_seqs)
    def test_matches_bruteforce(self, ca, cb):
        a = FourierSequence.make(Parity.EVEN, ca)
        b = FourierSequence.make(Parity.EVEN, cb)
        got = convolve(a, b)
        want = conv_oracle(ca, cb)
        for k in set(want) | set(got.coeffs):
            assert got(k) == pytest.approx(want.get(k, 0), rel=1e-12, abs=1e-8)

    @given(even_seqs)
    def test_real_valuedness_preserved(self, ca):
        # Hermitian-symmetrize, then square under convolution
        sym = {}
        for k, v in ca.items():
            if k == 0:
                sym[0] = complex(v.real, 0.0)
                continue
            sym[k] = v
            sym[-k] = v.conjugate()
        a = FourierSequence.make(Parity.EVEN, sym)
        sq = convolve(a, a)
        tol = 1e-9 * max(1.0, max(abs(v) for v in sq.coeffs.values()) if sq.coeffs else 1.0)
        assert is_real_valued(sq, tol=tol)


class TestConjugation:
    def test_hermitian_symmetric_true(self):
        a = FourierSequence.make(Parity.EVEN, {2: 1.0, -2: 1.0})
        assert is_real_valued(a)

    def test_one_sided_false(self):
        a = FourierSequence.make(Parity.EVEN, {2: 1j})
        assert not is_real_valued(a)

    def test_conjugate_pair_true(self):
        a = FourierSequence.make(Parity.EVEN, {2: 1 + 2j, -2: 1 - 2j})
        assert is_real_valued(a)
        c = conjugate_seq(a)
        for k in (-2, 2):
            assert c(k) == a(k)

    def test_odd_parity_rejected(self):
        b = FourierSequence.make(Parity.ODD, {1: 1.0})
        with pytest.raises(ParityError):
            conjugate_seq(b)
        with pytest.raises(ParityError):
            is_real_valued(b)

    def test_reflect(self):
        a = FourierSequence.make(Parity.EVEN, {2: 1j, -4: 2.0})
        r = reflect_seq(a)
        assert r(-2) == 1j and r(4) == 2.0


class TestNormalizeZeroMode:
    def test_constant_only(self):
        v, c = normalize_zero_mode(FourierSequence.make(Parity.EVEN, {0: 5.0}))
        assert c == 5.0
        assert v.is_zero()

    def test_zero_entry_untouched(self):
        a = FourierSequence.make(Parity.EVEN, {0: 0.0, 2: 1.0})
        v, c = normalize_zero_mode(a)
        assert c == 0.0
        assert v(2) == 1.0

    def test_split(self):
        a = FourierSequence.make(Parity.EVEN, {0: 1 + 1j, 4: 2.0})
        v, c = normalize_zero_mode(a)
        assert c == 1 + 1j
        assert v(0) == 0 and v(4) == 2.0


class TestMakePotential:
    def test_trig_poly_no_rescale(self):
        spec = PotentialSpec(
            PotentialFamily.TRIG_POLYNOMIAL, {"coeffs": {2: 1.0, -2: 1.0}}, radius=10.0
        )
        v = make_potential(spec, SobolevParams(m=1, alpha=0.0))
        assert v(2) == 1.0 and v(-2) == 1.0
        assert weighted_norm(v, 0.0) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_trig_poly_clamps_on_overshoot(self):
        spec = PotentialSpec(
            PotentialFamily.TRIG_POLYNOMIAL, {"coeffs": {2: 10.0, -2: 10.0}}, radius=1.0
        )
        v = make_potential(spec, SobolevParams(m=1, alpha=0.0))
        assert weighted_norm(v, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_random_rough_hits_norm_exactly(self):
        spec = PotentialSpec(PotentialFamily.RANDOM_ROUGH, {"window": 64}, radius=1.0, seed=7)
        params = SobolevParams(m=1, alpha=0.5)
        v = make_potential(spec, params)
        assert weighted_norm(v, -0.5) == pytest.approx(1.0, abs=1e-12)

    def test_explicit_odd_index_rejected(self):
        spec = PotentialSpec(PotentialFamily.EXPLICIT, {"coeffs": {3: 1.0}}, radius=1.0)
        with pytest.raises(ParityError):
            make_potential(spec, SobolevParams(m=1, alpha=0.0))

    def test_reproducible_bit_for_bit(self):
        spec = PotentialSpec(PotentialFamily.RANDOM_ROUGH, {"window": 32}, radius=1.0, seed=42)
        params = SobolevParams(m=2, alpha=0.25)
        v1 = make_potential(spec, params)
        v2 = make_potential(spec, params)
        assert dict(v1.coeffs) == dict(v2.coeffs)

    def test_different_seeds_differ(self):
        params = SobolevParams(m=1, alpha=0.0)
        v1 = make_potential(
            PotentialSpec(PotentialFamily.RANDOM_ROUGH, {"window": 32}, 1.0, seed=1), params
        )
        v2 = make_potential(
            PotentialSpec(PotentialFamily.RANDOM_ROUGH, {"window": 32}, 1.0, seed=2), params
        )
        assert dict(v1.coeffs) != dict(v2.coeffs)

    def test_derivative_type(self):
        q = {2: 1.0, -2: 1.0, 4: 0.5}
        spec = PotentialSpec(PotentialFamily.DERIVATIVE_TYPE, {"q": q})
        v = make_potential(spec, SobolevParams(m=1, alpha=1.0))
        for k, qk in q.items():
            assert v(k) == 1j * math.pi * k * qk  # i * 2 pi * (k/2) * q(k)

    def test_hermitian_random_is_real_valued(self):
        spec = PotentialSpec(
            PotentialFamily.RANDOM_SMOOTH, {"window": 32, "hermitian": True}, 1.0, seed=3
        )
        v = make_potential(spec, SobolevParams(m=1, alpha=0.0))
        assert is_real_valued(v)


def lstsq_oracle(xs, ys):
    """Closed-form least squares, independent of numpy.polyfit."""
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


class TestDecayExponent:
    def test_exact_power_law(self):
        pts = [(n, n**-2.0) for n in range(10, 101)]
        fit = decay_exponent(pts, (10, 100))
        assert fit.slope == pytest.approx(-2.0, abs=1e-6)
        assert not fit.exact_zero

    def test_all_zero_flagged(self):
        pts = [(n, 0.0) for n in range(1, 50)]
        fit = decay_exponent(pts, (1, 49))
        assert fit.exact_zero and fit.slope == -math.inf

    def test_oscillating(self):
        pts = [(n, (2 + (-1) ** n) / n) for n in range(10, 201)]
        fit = decay_exponent(pts, (10, 200))
        assert fit.slope == pytest.approx(-1.0, abs=0.1)
        xs = [math.log(n) for n, _ in pts]
        ys = [math.log(r) for _, r in pts]
        assert fit.slope == pytest.approx(lstsq_oracle(xs, ys), rel=1e-10)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            decay_exponent([(1, 1.0), (2, 0.5), (3, 0.1)], (1, 3))


class TestMembershipBounded:
    S = 0.95

    @pytest.mark.parametrize("lo, hi", [(8, 12), (8, 32), (1, 200)])
    def test_growth_is_not_bounded(self, lo, hi):
        # r_n = n^{1-s}: r_n n^s = n grows, over the shortest fit range too
        pts = [(n, float(n) ** (1.0 - self.S)) for n in range(1, 201)]
        assert not h_membership_bounded(pts, self.S, (lo, hi))

    @pytest.mark.parametrize("excess", [0.0, 2.0, 200.0])
    def test_decay_at_or_past_the_class_is_bounded(self, excess):
        # r_n n^s flat or decaying: however fast r_n falls, it stays bounded
        pts = [(n, float(n) ** (-self.S - excess)) for n in range(8, 33)]
        assert h_membership_bounded(pts, self.S, (8, 32))

    def test_zeros(self):
        assert h_membership_bounded([(n, 0.0) for n in range(8, 33)], self.S)
        # growth from exact zeros is growth
        assert not h_membership_bounded([(n, float(n > 20)) for n in range(8, 33)], self.S)
