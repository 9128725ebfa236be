import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import conjugate_seq, reflect_seq

from hillgap.operator import build_B, modes
from hillgap.seqspace import (
    FourierSequence,
    decay_exponent,
    h_membership_bounded,
    normalize_zero_mode,
    rough_potential,
    weighted_norm,
)


def norm_oracle(coeffs, s):
    """Independent summation oracle for the weighted norm."""
    total = 0.0
    for k, v in coeffs.items():
        total += (1 + abs(k)) ** (2 * s) * abs(v) ** 2
    return math.sqrt(total)


def conv_oracle(a, b):
    """Brute-force enumeration of all index pairs."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            out[ka + kb] = out.get(ka + kb, 0) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def conv_B(v, u, K=21):
    """The convolution v * u of a potential with an odd-mode vector as the
    program forms it, B(v) applied to u over the window modes(K), by mode."""
    ps = modes(K)
    x = np.array([u.get(int(p), 0) for p in ps], dtype=complex)
    return dict(zip(ps.tolist(), build_B(FourierSequence(v), 1, K).matrix @ x))


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
        for k in (3, -1):
            with pytest.raises(ValueError, match="not on the even lattice"):
                FourierSequence({2: 1.0, k: 1.0})

    def test_finite_enforced(self):
        with pytest.raises(ValueError):
            FourierSequence({2: complex("nan")})
        with pytest.raises(ValueError):
            FourierSequence({2: complex("inf")})

    def test_outside_window_zero(self):
        a = FourierSequence({2: 1.0})
        assert a(4) == 0
        assert a(-100) == 0

    FAR = (2**62, -(2**62), 2**62 + 2, -(2**62) - 2, 2**63 - 2, 2**70)

    @settings(max_examples=200)
    @given(
        st.dictionaries(
            st.one_of(st.integers(-40, 40).map(lambda k: 2 * k), st.sampled_from(FAR)),
            st.one_of(st.just(0j), st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                                       allow_infinity=False)),
            max_size=10,
        ),
        st.lists(st.one_of(st.integers(-90, 90), st.sampled_from(FAR[:5] + (2**63 - 1,))),
                 max_size=24),
    )
    @example({}, [0, 2, 2**62])
    @example({2**62: 1.0, -4: 1j, 6: 0j}, [-4, 6, 2**62, 2**63 - 1])
    def test_at_reads_as_call_reads(self, coeffs, ks):
        # the one vectorized reader: v(k) below 2^62, zero coefficients and
        # odd indices included, and 0 at and past 2^62, where int64 ends
        v = FourierSequence(coeffs)
        got = v.at(np.array(ks, dtype=np.int64))
        assert got.dtype == complex and got.shape == (len(ks),)
        assert got.tolist() == [v(k) if abs(k) < 2**62 else 0 for k in ks]
        assert v.indices.tolist() == sorted(k for k, x in coeffs.items() if x and abs(k) < 2**62)
        assert v.reach == max((abs(k) for k, x in coeffs.items() if x), default=0)


class TestWeightedNorm:
    def test_single_zero_index(self):
        a = FourierSequence({0: 3.0})
        assert weighted_norm(a, 5.0) == 3.0
        assert weighted_norm(a, -2.5) == 3.0

    def test_two_modes_s1(self):
        a = FourierSequence({2: 1.0, -2: 1.0})
        assert weighted_norm(a, 1.0) == pytest.approx(3 * math.sqrt(2), rel=1e-15)

    def test_empty_is_zero(self):
        assert weighted_norm(FourierSequence({}), 1.0) == 0.0

    @given(even_seqs, st.floats(-3, 3))
    def test_matches_oracle(self, coeffs, s):
        a = FourierSequence(coeffs)
        assert weighted_norm(a, s) == pytest.approx(norm_oracle(coeffs, s), rel=1e-12, abs=1e-12)

    @given(even_seqs, st.complex_numbers(max_magnitude=100, allow_nan=False, allow_infinity=False))
    def test_absolutely_homogeneous(self, coeffs, c):
        lhs = weighted_norm(FourierSequence({k: c * v for k, v in coeffs.items()}), 0.5)
        rhs = abs(c) * weighted_norm(FourierSequence(coeffs), 0.5)
        assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-12)

    @given(even_seqs)
    def test_s0_is_plain_l2(self, coeffs):
        a = FourierSequence(coeffs)
        plain = math.sqrt(sum(abs(v) ** 2 for v in coeffs.values()))
        assert weighted_norm(a, 0.0) == pytest.approx(plain, rel=1e-14, abs=1e-12)


class TestConvolve:
    """The convolution of the potential with an odd-mode vector, B(v) u."""

    def test_delta_shifts(self):
        c = conv_B({2: 1.0}, {-1: 1.0})
        assert {k: x for k, x in c.items() if x != 0} == {1: 1.0}

    def test_scalar_identity(self):
        b = {1: 1.0, -3: 2.0}
        c = conv_B({0: 2.5 + 1j}, b)
        for k in (1, -3):
            assert c[k] == (2.5 + 1j) * b[k]

    def test_enumeration(self):
        c = conv_B({2: 1.0, -2: 1.0}, {1: 1.0, -1: 1.0})
        assert {k: x for k, x in c.items() if x != 0} == {3: 1.0, 1: 1.0, -1: 1.0, -3: 1.0}

    @given(even_seqs, odd_seqs)
    def test_matches_bruteforce(self, ca, cb):
        # u sits inside the window, so every term of the lattice sum is in B(v) u
        got = conv_B(ca, cb)
        want = conv_oracle(ca, cb)
        for k in got:
            assert got[k] == pytest.approx(want.get(k, 0), rel=1e-12, abs=1e-8)

    @given(even_seqs, odd_seqs)
    def test_real_valuedness_preserved(self, ca, cb):
        # Hermitian-symmetrize both, so both are real-valued functions; their
        # product, read on the symmetric window, is Hermitian again
        def sym(c):
            out = {}
            for k, v in c.items():
                out[k] = complex(v.real, 0.0) if k == 0 else v
                if k:
                    out[-k] = out[k].conjugate()
            return out

        c = conv_B(sym(ca), sym(cb))
        tol = 1e-9 * max(1.0, max(abs(x) for x in c.values()))
        assert all(abs(c[-k] - c[k].conjugate()) <= tol for k in c)


class TestConjugation:
    def test_hermitian_symmetric_true(self):
        a = FourierSequence({2: 1.0, -2: 1.0})
        assert conjugate_seq(a) == a

    def test_one_sided_false(self):
        a = FourierSequence({2: 1j})
        assert conjugate_seq(a) != a

    def test_conjugate_pair_true(self):
        a = FourierSequence({2: 1 + 2j, -2: 1 - 2j})
        c = conjugate_seq(a)
        for k in (-2, 2):
            assert c(k) == a(k)

    def test_reflect(self):
        a = FourierSequence({2: 1j, -4: 2.0})
        r = reflect_seq(a)
        assert r(-2) == 1j and r(4) == 2.0


class TestNormalizeZeroMode:
    def test_constant_only(self):
        v, c = normalize_zero_mode(FourierSequence({0: 5.0}))
        assert c == 5.0
        assert v.is_zero()

    def test_zero_entry_untouched(self):
        a = FourierSequence({0: 0.0, 2: 1.0})
        v, c = normalize_zero_mode(a)
        assert c == 0.0
        assert v(2) == 1.0

    def test_split(self):
        a = FourierSequence({0: 1 + 1j, 4: 2.0})
        v, c = normalize_zero_mode(a)
        assert c == 1 + 1j
        assert v(0) == 0 and v(4) == 2.0


def draws_digest(vs):
    """SHA-256 over the exact coefficients of each potential, in order."""
    h = hashlib.sha256()
    for v in vs:
        h.update(repr(sorted((k, c.real.hex(), c.imag.hex()) for k, c in v.coeffs.items())).encode())
    return h.hexdigest()


class TestMakePotential:
    """rough_potential, the one seeded builder."""

    def test_random_rough_hits_norm_exactly(self):
        v = rough_potential(1, 0.5, 64, radius=1.0, seed=7)
        assert weighted_norm(v, -0.5) == pytest.approx(1.0, abs=1e-12)

    def test_reproducible_bit_for_bit(self):
        v1 = rough_potential(2, 0.25, 32, radius=1.0, seed=42)
        v2 = rough_potential(2, 0.25, 32, radius=1.0, seed=42)
        assert dict(v1.coeffs) == dict(v2.coeffs)

    def test_draws_pinned_across_versions(self):
        # digests of the draws of the RANDOM_ROUGH family this builder replaced:
        # the lemma sweep's potentials at K = 64 (support 254), and one Hermitian
        sweep = [rough_potential(m, alpha, 254, radius=1.0, seed=seed)
                 for m in (1, 2, 3) for alpha in (0.0, 0.25, 0.5, 0.75) for seed in (0, 1)]
        assert draws_digest(sweep) == (
            "0215b91644dc9152bb4bfcb772d6915af59ee7ca94abd92df8feb11c3c48b700")
        hermitian = rough_potential(2, 0.5, 64, radius=2.0, seed=5, hermitian=True)
        assert draws_digest([hermitian]) == (
            "31467a334dea7ca6829426503cde9503ce5775a466ca2050918e654ac5f51f4c")

    def test_different_seeds_differ(self):
        v1 = rough_potential(1, 0.0, 32, 1.0, seed=1)
        v2 = rough_potential(1, 0.0, 32, 1.0, seed=2)
        assert dict(v1.coeffs) != dict(v2.coeffs)

    def test_hermitian_random_is_real_valued(self):
        v = rough_potential(1, 0.0, 32, 1.0, seed=3, hermitian=True)
        assert conjugate_seq(v) == v

    def test_support_must_be_even(self):
        for support in (0, 7):
            with pytest.raises(ValueError):
                rough_potential(1, 0.0, support)


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
        assert decay_exponent(pts, (10, 100)) == pytest.approx(-2.0, abs=1e-6)

    def test_all_zero_flagged(self):
        pts = [(n, 0.0) for n in range(1, 50)]
        assert decay_exponent(pts, (1, 49)) == -math.inf

    def test_oscillating(self):
        pts = [(n, (2 + (-1) ** n) / n) for n in range(10, 201)]
        slope = decay_exponent(pts, (10, 200))
        assert slope == pytest.approx(-1.0, abs=0.1)
        xs = [math.log(n) for n, _ in pts]
        ys = [math.log(r) for _, r in pts]
        assert slope == pytest.approx(lstsq_oracle(xs, ys), rel=1e-10)

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
        assert h_membership_bounded([(n, 0.0) for n in range(8, 33)], self.S, (8, 32))
        # growth from exact zeros is growth
        assert not h_membership_bounded([(n, float(n > 20)) for n in range(8, 33)], self.S, (8, 32))
