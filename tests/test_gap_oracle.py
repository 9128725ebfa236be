"""Pair gaps against an 80-digit two-end Feshbach oracle.

A gap gamma_n far below one ulp of tau_n - center is lost by any route that
subtracts two numbers of the size of tau_n - center; the table reads it from
the mirror identity of the pair's Feshbach block instead.  The oracle
(conftest._feshbach_gap) solves each end on its own in 80 digits and takes
their difference in that precision.
"""

import csv
import json

import numpy as np
import pytest

from hillgap.cli import main
from hillgap.eigensolver import compute_pair_table
from hillgap.seqspace import FourierSequence, Parity


def hermitian_rough():
    """Real potential with |v(+-2k)| = 0.6 (1 + 2k)^-0.55, k <= 5, and
    seeded phases."""
    rng = np.random.default_rng(5)
    coeffs = {}
    for k in range(1, 6):
        a = 0.6 * (1 + 2 * k) ** -0.55 * np.exp(2j * np.pi * rng.random())
        coeffs[2 * k], coeffs[-2 * k] = complex(a), complex(np.conj(a))
    return coeffs


POTENTIALS = {
    "trig": {2: 1.0, -2: 0.5, 4: 0.3, -4: 0.2j, 6: 0.1},
    "mid": {2: 5.0, -2: 3.0, 4: 2j, -4: 1.0, 6: 0.5},
    "hermitian-rough": hermitian_rough(),
}


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_gaps_match_two_end_oracle(feshbach_gap, name, m):
    # K = 32 cuts the window at the pairs' own edge (n_max = 8), so the
    # last rows also test the cut's mirror form
    coeffs = POTENTIALS[name]
    table = compute_pair_table(FourierSequence.make(Parity.EVEN, coeffs), m, 32)
    assert len(table.rows) >= 7
    for r in table.rows:
        _, want = feshbach_gap(coeffs, m, 32, r.n)
        err = min(abs(r.gamma - want), abs(r.gamma + want))
        assert err <= 1e-12 * abs(want), (r.n, r.gamma, want)
        if name == "hermitian-rough":
            assert r.gamma.imag == 0.0 and r.d_tau.imag == 0.0


def test_cut_edge_gap(feshbach_gap):
    # Mathieu at K = 64 cut for n_max = 12: gamma_12 = 1.2e-77 sits at the
    # cut's edge, 60 decades below one ulp of tau - c; the oracle needs 110
    # digits to hold 12 of them
    coeffs = {2: 1.0, -2: 1.0}
    table = compute_pair_table(FourierSequence.make(Parity.EVEN, coeffs), 1, 64, n_max=12)
    for n in (10, 11, 12):
        _, want = feshbach_gap(coeffs, 1, 64, n, dps=110)
        got = table.row(n).gamma
        assert min(abs(got - want), abs(got + want)) <= 1e-12 * abs(want), (n, got, want)


def test_gaps_do_not_underflow():
    # at m = 2 the trig gaps fall from 1e-20 (n = 5) to 1e-252 (n = 32);
    # 4 G12 G21, or F12 F21, is below the smallest double from n = 23 on,
    # while each factor and the gap itself are normal numbers
    table = compute_pair_table(FourierSequence.make(Parity.EVEN, POTENTIALS["trig"]), 2, 128,
                               n_max=32)
    gaps = [abs(table.row(n).gamma) for n in range(3, 32)]
    assert all(g > 0.0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_spectrum_command_gaps(feshbach_gap, tmp_path):
    # the spectrum command at its defaults (K auto) on trig: rows 7-10 carry
    # gaps from 4.3e-19 down to 6.1e-31, all below one ulp of tau - c
    pot = tmp_path / "trig.json"
    coeffs = POTENTIALS["trig"]
    pot.write_text(json.dumps(
        {"parity": "even", "coeffs": [[k, complex(c).real, complex(c).imag] for k, c in coeffs.items()]}
    ))
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--m", "1", "--n-max", "10", "--potential", str(pot),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    K = json.loads(next(x for x in lines if x.startswith("# footer: "))[len("# footer: "):])["K"]
    rows = list(csv.DictReader(x for x in lines if not x.startswith("#")))
    for r in rows[6:]:
        got = complex(float(r["re_gamma"]), float(r["im_gamma"]))
        _, want = feshbach_gap(coeffs, 1, K, int(r["n"]))
        assert min(abs(got - want), abs(got + want)) <= 1e-12 * abs(want), (r["n"], got, want)
