import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import l_direct, mark_converged, window_spectrum

from hillgap import asymptotics, cli, eigensolver, riesz
from hillgap.cli import RunConfig, main
from hillgap.eigensolver import low_block, pair_eigenvalues
from hillgap.operator import MAX_HALF_WINDOW, build_T
from hillgap.seqspace import FourierSequence, rough_potential

REPO = Path(__file__).resolve().parent.parent
PI2 = math.pi**2
WEAK_COMPLEX = {2: 0.6 + 0.1j, -2: 0.3 - 0.2j, 4: 0.2 + 0j, -4: 0.1j, 6: 0.1 + 0.05j}
# strong against the low gaps c_n - c_{n-1}: at m = 1, K = 64 the Riesz pair
# certificate refuses the contours n <= 10
STRONG = {2: 60.0 + 0j, -2: 45j, 4: 30.0 + 0j}
TRIG = {2: 1.0 + 0j, -2: 0.5 + 0j, 4: 0.3 + 0j, -4: 0.2j, 6: 0.1 + 0j}


def write_potential(path, coeffs):
    payload = {"parity": "even", "coeffs": [[k, v.real, v.imag] for k, v in coeffs.items()]}
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    header = None
    rows = []
    footer = None
    for line in path.read_text().splitlines():
        if line.startswith("# footer:"):
            footer = json.loads(line[len("# footer:"):])
        elif line.startswith("#"):
            continue
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return header, rows, footer


@pytest.fixture
def zero_potential(tmp_path):
    return write_potential(tmp_path / "zero.json", {})


@pytest.fixture
def trig_potential(tmp_path):
    return write_potential(
        tmp_path / "trig.json", {2: complex(1.0), -2: complex(1.0)}
    )


class TestSpectrumCommand:
    def test_zero_potential_pi_squared_17_digits(self, tmp_path, zero_potential):
        out = tmp_path / "spec.csv"
        code = main([
            "spectrum", "--m", "1", "--K", "16", "--n-max", "4",
            "--potential", zero_potential, "--out", str(out),
        ])
        assert code == 0
        header, rows, footer = read_csv(out)
        assert header == [
            "n", "re_lo", "im_lo", "re_hi", "im_hi",
            "re_tau", "im_tau", "re_gamma", "im_gamma", "converged",
        ]
        row1 = rows[0]
        assert row1["n"] == "1"
        assert row1["re_lo"] == f"{PI2:.17g}"
        assert row1["re_hi"] == f"{PI2:.17g}"
        assert row1["converged"] == "true"

    def test_byte_identical_reruns(self, tmp_path, trig_potential):
        out = tmp_path / "s.csv"
        args = ["spectrum", "--m", "1", "--K", "32", "--n-max", "6",
                "--potential", trig_potential, "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_malformed_potential_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"parity": "even", "coeffs": [[2, 0.5, 0.0], [3, 1.0, 0.0]]}))
        out = tmp_path / "x.csv"
        code = main(["spectrum", "--m", "1", "--K", "16", "--n-max", "4",
                     "--potential", str(bad), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "coeffs[1]" in err and "3" in err

    @pytest.mark.parametrize(
        "coeffs, where",
        [
            ([[2, "1.5", True], [-2, 1, 0]], "coeffs[0]"),
            ([[-2, 1, 0], [2, 1.5, True]], "coeffs[1]"),
            ([[2, True, 0]], "coeffs[0]"),
            ([[2, 0, "0"]], "coeffs[0]"),
            ([[2, 10**400, 0]], "coeffs[0]"),
        ],
        ids=["re-str-im-bool", "im-bool", "re-bool", "im-str", "re-int-overflow"],
    )
    def test_non_number_coefficient_exit_3(self, tmp_path, capsys, coeffs, where):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"parity": "even", "coeffs": coeffs}))
        out = tmp_path / "x.csv"
        code = main(["spectrum", "--m", "1", "--K", "16", "--n-max", "4",
                     "--potential", str(bad), "--out", str(out)])
        assert code == 3
        assert where in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_potential_exit_3(self, tmp_path):
        code = main(["spectrum", "--m", "1", "--K", "16", "--n-max", "4",
                     "--potential", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.csv")])
        assert code == 3

    def test_json_format_mirror(self, tmp_path, zero_potential):
        out_csv = tmp_path / "a.csv"
        out_json = tmp_path / "a.json"
        base = ["spectrum", "--m", "1", "--K", "16", "--n-max", "4",
                "--potential", zero_potential]
        assert main(base + ["--out", str(out_csv), "--format", "csv"]) == 0
        assert main(base + ["--out", str(out_json), "--format", "json"]) == 0
        _, csv_rows, _ = read_csv(out_csv)
        doc = json.loads(out_json.read_text())
        assert doc["columns"][1] == "re_lo"
        assert doc["rows"][0][1] == csv_rows[0]["re_lo"]  # identical strings


def _spread(S):
    """A potential whose support reaches |k| = S."""
    return {2: 0.5 + 0j, -2: 0.5 + 0j, S: 0.01 + 0j, -S: 0.01j}


class TestConfirmWindow:
    """A fixed --K solves its window once, and each row's truncation bar,
    read off that solve, sets its converged flag; --K auto compares
    windows."""

    @pytest.fixture
    def solve_ks(self, monkeypatch):
        """The windows compute_pair_table is asked for; windows above 64 are
        answered by the K = 64 table relabelled, so no large solve runs."""
        ks = []
        solve = cli.compute_pair_table

        def recording(v, m, K, **kwargs):
            ks.append(K)
            return replace(solve(v, m, min(K, 64), **kwargs), K=K)

        monkeypatch.setattr(cli, "compute_pair_table", recording)
        return ks

    @pytest.mark.parametrize(
        "coeffs, K",
        [
            ({2: 1.0, -2: 0.5, 4: 0.3, -4: 0.2j, 6: 0.1}, 32),
            ({}, 16),
            ({0: 0.3}, 16),
            (_spread(40), 16),
            (_spread(48), 1000),
        ],
        ids=["trig-S6", "zero", "zero-mode-only", "S-beyond-window", "at-cap"],
    )
    def test_confirms_at_reach_of_potential(self, tmp_path, solve_ks, coeffs, K):
        # whatever the reach S of the potential, the bars read the modes
        # 2K - 1 < |o| <= 2K - 1 + S off the one solve at K
        pot = write_potential(tmp_path / "v.json", {k: complex(x) for k, x in coeffs.items()})
        out = tmp_path / "s.csv"
        code = main(["spectrum", "--K", str(K), "--n-max", "4",
                     "--potential", pot, "--out", str(out)])
        assert code == 0
        assert solve_ks == [K]
        _, rows, footer = read_csv(out)
        assert footer["K"] == K and "confirm_K" not in footer
        assert math.isfinite(float(footer["max_trunc_bar"]))
        assert len(rows) == 4

    @pytest.mark.parametrize("far", [{40000: 1e-3}, {40000: 1e-3, -40000: 1e-3j}],
                             ids=["one-sided", "both-sides"])
    def test_support_far_past_window(self, tmp_path, far):
        # a coefficient far past the window costs the bars no more than the
        # modes it couples to the window: at K = 256 a dense coupling over
        # |o| <= 2K - 1 + 40000 would hold 40000 x 512 entries (330 MB)
        pot = write_potential(tmp_path / "v.json", {2: 0.5 + 0j, -2: 0.5 + 0j, **far})
        out = tmp_path / "s.csv"
        tracemalloc.start()
        try:
            code = main(["spectrum", "--K", "256", "--n-max", "64",
                         "--potential", pot, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 64e6
        _, rows, footer = read_csv(out)
        assert len(rows) == 64 and all(r["converged"] == "true" for r in rows)
        assert float(footer["max_trunc_bar"]) < 1e-15

    def test_support_past_int64_unconverged(self, tmp_path):
        # the modes a coefficient at |k| >= 2^62 reaches leave the int64
        # range: its bars are infinite and every row unconverged
        pot = write_potential(tmp_path / "v.json", {2: 0.5 + 0j, -2: 0.5 + 0j, 2**62: 1e-3 + 0j})
        out = tmp_path / "s.csv"
        code = main(["spectrum", "--K", "64", "--n-max", "8", "--potential", pot, "--out", str(out)])
        assert code == 0
        _, rows, footer = read_csv(out)
        assert len(rows) == 8 and all(r["converged"] == "false" for r in rows)
        assert footer["max_trunc_bar"] == "inf"

    def test_no_confirm_past_cap(self, tmp_path, solve_ks, capsys):
        # a window past the largest one is refused before any solve
        pot = write_potential(tmp_path / "v.json", _spread(50))
        out = tmp_path / "s.csv"
        code = main(["spectrum", "--K", str(MAX_HALF_WINDOW + 1), "--n-max", "4",
                     "--potential", pot, "--out", str(out)])
        assert code == 2
        assert solve_ks == []
        assert not out.exists()
        assert f"--K must be 'auto' or an integer in [1, {MAX_HALF_WINDOW}], got " \
            f"{MAX_HALF_WINDOW + 1}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, n_max", [("spectrum", 8), ("asymptotics", 12)])
    def test_trig_at_cap_refused(self, tmp_path, capsys, command, n_max):
        pot = write_potential(tmp_path / "v.json", TRIG)
        out = tmp_path / "s.csv"
        code = main([command, "--K", str(MAX_HALF_WINDOW + 1), "--n-max", str(n_max),
                     "--potential", pot, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "--K must be 'auto' or an integer" in capsys.readouterr().err

    def test_trig_below_cap_confirmed(self, tmp_path):
        pot = write_potential(tmp_path / "v.json", TRIG)
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--K", "1000", "--n-max", "8",
                     "--potential", pot, "--out", str(out)]) == 0
        _, rows, footer = read_csv(out)
        assert footer["K"] == 1000 and "confirm_K" not in footer
        assert float(footer["max_trunc_bar"]) < eigensolver.CONVERGENCE_TOL
        assert len(rows) == 8 and all(r["converged"] == "true" for r in rows)

    def test_auto_reports_previous_window(self, tmp_path, trig_potential):
        # the first window, max(64, 8 n_max), settles trig: one solve, whose
        # bars the footer reports as for a fixed --K
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--n-max", "4", "--potential", trig_potential,
                     "--out", str(out)]) == 0
        footer = read_csv(out)[2]
        assert footer["K"] == 64 and footer["windows"] == [64] and "confirm_K" not in footer
        assert float(footer["max_trunc_bar"]) < eigensolver.CONVERGENCE_TOL

    @pytest.mark.parametrize("command, n_max, windows", [("spectrum", 10, [80]),
                                                         ("asymptotics", 12, [96])])
    def test_auto_reports_windows_and_stop(self, tmp_path, trig_potential, command, n_max, windows):
        # --K auto lists every window it solved and why it stopped; a fixed
        # --K solves no sequence of windows and reports neither.  Both
        # report the largest truncation bar of the window they end at
        out = tmp_path / "s.csv"
        assert main([command, "--n-max", str(n_max), "--potential", trig_potential,
                     "--out", str(out)]) == 0
        footer = read_csv(out)[2]
        assert footer["windows"] == windows and footer["stop"] == "converged"
        assert footer["K"] == windows[-1]
        bar = footer["max_trunc_bar"]
        assert main([command, "--K", str(windows[-1]), "--n-max", str(n_max),
                     "--potential", trig_potential, "--out", str(out)]) == 0
        footer = read_csv(out)[2]
        assert not {"windows", "stop", "confirm_K"} & set(footer)
        assert footer["max_trunc_bar"] == bar

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_auto_settles_support_128_in_one_window(self, tmp_path, seed):
        # a Hermitian rough potential of support 128 fits the first window
        # 8 n_max = 256, whose bars settle every row: one solve, with the
        # rows of --K 256 byte for byte
        v = rough_potential(1, 0.0, 128, hermitian=True, seed=seed)
        pot = write_potential(tmp_path / "v.json", v.coeffs)
        lines = {}
        for K in ("auto", "256"):
            out = tmp_path / f"{K}.csv"
            assert main(["spectrum", "--K", K, "--n-max", "32", "--potential", pot,
                         "--out", str(out)]) == 0
            lines[K] = [x for x in out.read_text().splitlines() if not x.startswith("#")]
        footer = read_csv(tmp_path / "auto.csv")[2]
        assert footer["windows"] == [256] and footer["stop"] == "converged"
        assert len(lines["auto"]) == 33 and lines["auto"] == lines["256"]

    def test_m3_rows_match_oracle(self, mpmath_pair):
        # a non-Hermitian potential of support 16 at K = 16: the bars flag
        # every row, though against the doubled window the rounding of the
        # K = 32 solve flagged row 1, whose offsets are right to 5e-13
        v = rough_potential(3, 0.0, 16, 2.0, seed=8)
        cfg = RunConfig(command="spectrum", m=3, K=16, n_max=4)
        table = cli._spectrum_table(cfg, v)
        assert table.windows == ()
        assert [r.converged for r in table.rows] == [True] * 4
        coeffs = dict(v.coeffs)
        for r in table.rows:
            d_tau, gamma = mpmath_pair(coeffs, 3, 16, r.n)
            lo, hi = d_tau - gamma / 2, d_tau + gamma / 2
            direct = max(abs(r.d_lo - lo), abs(r.d_hi - hi))
            crossed = max(abs(r.d_lo - hi), abs(r.d_hi - lo))
            assert min(direct, crossed) <= 1e-9

    def test_m3_row_beyond_k32_matches_oracle(self, feshbach_pair):
        # support 16 at K = 64: each window solves the pairs n <= 16 alone,
        # so the bar and the doubled window both flag row 6 converged, and
        # all three windows lie on the pairs of their exact operators
        v = rough_potential(3, 0.0, 16, 4.0, seed=1)
        cfg = RunConfig(command="spectrum", m=3, K=64, n_max=16)
        table = cli._spectrum_table(cfg, v)
        assert table.row(6).converged and table.row(6).bar < eigensolver.CONVERGENCE_TOL
        doubled = eigensolver.compute_pair_table(v, 3, 128, n_max=16)
        assert mark_converged(table, doubled).row(6).converged
        reach = eigensolver.compute_pair_table(v, 3, 72, n_max=16)  # K + S/2 holds the modes O
        for K, tab in ((64, table), (72, reach), (128, doubled)):
            r = tab.row(6)
            lo, hi = feshbach_pair(dict(v.coeffs), 3, K, 6, (r.d_lo, r.d_hi))
            assert max(abs(r.d_lo - lo), abs(r.d_hi - hi)) <= 1e-9


class TestConfigHandling:
    def test_alpha_out_of_range_exit_2(self, tmp_path, zero_potential):
        code = main(["asymptotics", "--m", "1", "--alpha", "1.5", "--K", "16",
                     "--n-max", "4", "--potential", zero_potential,
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_k_too_small_exit_2(self, tmp_path, zero_potential):
        code = main(["spectrum", "--m", "1", "--K", "8", "--n-max", "4",
                     "--potential", zero_potential, "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_missing_potential_exit_2(self, tmp_path):
        code = main(["spectrum", "--m", "1", "--K", "16", "--n-max", "4",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_print_config_precedence(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"m": 2, "n_max": 5}))
        code = main(["spectrum", "--config", str(cfg_file), "--K", "64",
                     "--potential", "p.json", "--out", "o.csv", "--print-config"])
        assert code == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["m"] == 2 and cfg["n_max"] == 5 and cfg["K"] == 64
        code = main(["spectrum", "--config", str(cfg_file), "--m", "3", "--K", "64",
                     "--potential", "p.json", "--out", "o.csv", "--print-config"])
        assert code == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["m"] == 3  # flag overrides file

    @pytest.mark.parametrize(
        "flags, file_cfg, key",
        [
            (["localize", "--R", "nan"], None, "--R"),
            (["asymptotics", "--epsilon", "nan"], None, "--epsilon"),
            (["localize", "--C", "inf"], None, "--C"),
            (["spectrum"], {"alpha": "x"}, "'alpha'"),
            (["spectrum"], {"n_max": 2.5}, "'n_max'"),
            (["lemmas"], {"seed": "a"}, "'seed'"),
            (["spectrum"], {"K": 64.7}, "'K'"),
            (["spectrum"], {"out": 1}, "'out'"),
            (["spectrum"], {"m": True}, "'m'"),
        ],
        ids=[
            "R-nan", "epsilon-nan", "C-inf", "file-alpha-str",
            "file-n_max-float", "file-seed-str", "file-K-float", "file-out-int",
            "file-m-bool",
        ],
    )
    def test_bad_value_exit_2_names_key(
        self, tmp_path, zero_potential, capsys, flags, file_cfg, key
    ):
        argv = flags + ["--potential", zero_potential, "--print-config"]
        if file_cfg is None or "out" not in file_cfg:
            argv += ["--out", str(tmp_path / "o.csv")]
        if file_cfg is not None:
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_text(json.dumps(file_cfg))
            argv += ["--config", str(cfg_file)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err

    def test_bad_quad_nodes_exit_2(self, tmp_path, zero_potential):
        code = main(["riesz-check", "--m", "1", "--quad-nodes", "48",
                     "--potential", zero_potential, "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_riesz_short_window_exit_2_before_io(self, tmp_path, capsys):
        # the window 128 is too small for n_max 40: a configuration error,
        # found before the missing potential is read
        code = main(["riesz-check", "--K", "128", "--n-max", "40",
                     "--potential", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "config error: --K 128 too small" in capsys.readouterr().err

    # the first --n-max whose --K auto window (doubled where the doubling
    # confirms it) passes the largest window, and that window; None: the
    # window does not grow with n_max
    FIRST_REFUSED = {
        "spectrum": (129, 1032), "asymptotics": (129, 1032), "riesz-check": (257, 1028),
        "localize": (257, 1028), "alpha1": (257, 1028), "lemmas": None,
    }

    @pytest.mark.parametrize("command", list(cli.HANDLERS))
    def test_auto_window_past_cap_exit_2_before_solve(self, tmp_path, trig_potential,
                                                      monkeypatch, capsys, command):
        # every command's --K auto window is checked before the potential is
        # read: past the cap it exits 2 whether or not the file exists
        def solve(*args, **kwargs):
            raise AssertionError("a window past the cap was solved")

        for name in ("converge_truncation", "compute_pair_table", "build_T"):
            monkeypatch.setattr(cli, name, solve)
        monkeypatch.setattr("hillgap.localization.localization_report", solve)
        monkeypatch.setattr(asymptotics, "alpha1_experiment", solve)
        out = ["--out", str(tmp_path / "o.csv")]
        refused = self.FIRST_REFUSED[command]
        if refused is None:  # lemmas: the window 64 at any n_max
            assert main([command, "--n-max", "100000", "--print-config"] + out) == 0
            return
        n_max, window = refused
        for pot in (trig_potential, str(tmp_path / "nope.json")):
            assert main([command, "--n-max", str(n_max), "--potential", pot] + out) == 2
            assert (f"config error: --n-max {n_max} needs the window {window}, past the "
                    f"largest window {MAX_HALF_WINDOW}") in capsys.readouterr().err
        assert main([command, "--n-max", str(n_max - 1), "--print-config",
                     "--potential", trig_potential] + out) == 0

    @pytest.mark.parametrize("command", ["asymptotics", "riesz-check"])
    def test_reach_past_correction_window_exit_2_before_solve(self, tmp_path, monkeypatch,
                                                               capsys, command):
        # the correction values read every coefficient over the window
        # v.reach / 2: a coefficient past 2 MAX_HALF_WINDOW is refused by its
        # index right after the potential is read; at 2 MAX_HALF_WINDOW the
        # command goes on to solve
        def solve(*args, **kwargs):
            raise AssertionError("solved")

        for name in ("converge_truncation", "compute_pair_table", "build_T", "correction_values"):
            monkeypatch.setattr(cli, name, solve)
        argv = [command, "--K", "64", "--n-max", "16", "--out", str(tmp_path / "o.csv"), "--potential"]
        for far in (2_000_000, 2**62):
            assert main(argv + [write_potential(tmp_path / "far.json", TRIG | {far: 1e-12})]) == 2
            assert (f"the farthest coefficient, at index {far}, lies past index "
                    f"{2 * MAX_HALF_WINDOW}") in capsys.readouterr().err
        with pytest.raises(AssertionError, match="solved"):
            main(argv + [write_potential(tmp_path / "edge.json", TRIG | {2 * MAX_HALF_WINDOW: 1e-12})])


# every option: its flag, the value given, and the value the config holds
OPTION_FLAGS = {
    "m": ("--m", "2", 2),
    "alpha": ("--alpha", "0.5", 0.5),
    "K": ("--K", "64", 64),
    "n_max": ("--n-max", "12", 12),
    "R": ("--R", "2.5", 2.5),
    "C": ("--C", "1.5", 1.5),
    "epsilon": ("--epsilon", "0.1", 0.1),
    "seed": ("--seed", "7", 7),
    "quad_nodes": ("--quad-nodes", "32", 32),
    "format": ("--format", "json", "json"),
    "out": ("--out", "o.json", "o.json"),
    "potential": ("--potential", "p.json", "p.json"),
}
OPTION_DEFAULTS = {
    "m": 1, "alpha": 0.0, "K": "auto", "n_max": 16, "R": 1.0, "C": 1.1,
    "epsilon": 0.05, "seed": 0, "quad_nodes": 64, "format": "csv", "out": None,
    "potential": None,
}


class TestCliSurface:
    @pytest.mark.parametrize("command", list(cli.HANDLERS))
    def test_every_flag_reaches_config(self, tmp_path, capsys, command):
        def echoed(argv):
            assert main([command] + argv + ["--print-config"]) == 0
            return json.loads(capsys.readouterr().out)

        names = [f.name for f in fields(RunConfig)]
        assert sorted(OPTION_FLAGS) == sorted(names[1:])
        flags = [x for flag, given, _ in OPTION_FLAGS.values() for x in (flag, given)]
        want = {key: val for key, (_, _, val) in OPTION_FLAGS.items()}
        got = echoed(flags)
        assert got == {"command": command, **want}
        # the same values from a config file, and the defaults under the rest
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(want))
        assert echoed(["--config", str(cfg_file)]) == got
        cfg_file.write_text(json.dumps({"out": "o.csv", "potential": "p.json"}))
        defaults = {**OPTION_DEFAULTS, "out": "o.csv", "potential": "p.json"}
        assert echoed(["--config", str(cfg_file)]) == {"command": command, **defaults}


class TestUnrefinedFooter:
    @pytest.mark.parametrize("command", ["spectrum", "asymptotics"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_jordan_pairs_listed(self, tmp_path, command, fmt):
        # v(k) = 0 for k < 0 makes the pairs Jordan blocks; strong against
        # the two lowest gaps, those pairs refuse their own 2 x 2 reduction
        # and are read from the grown band
        pot = write_potential(tmp_path / "jordan.json", {2: complex(20.0)})
        out = tmp_path / f"out.{fmt}"
        assert main([command, "--m", "1", "--K", "48", "--n-max", "12",
                     "--potential", pot, "--out", str(out), "--format", fmt]) == 0
        if fmt == "csv":
            footer = read_csv(out)[2]
        else:
            footer = json.loads(out.read_text())["footer"]
        assert footer["unrefined"] == [1, 2]

    def test_refined_rows_leave_it_empty(self, tmp_path, trig_potential):
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--m", "1", "--K", "32", "--n-max", "6",
                     "--potential", trig_potential, "--out", str(out)]) == 0
        assert read_csv(out)[2]["unrefined"] == []


class TestAsymptoticsCommand:
    def test_zero_potential_all_zero_remainders(self, tmp_path, zero_potential):
        out = tmp_path / "asym.csv"
        code = main(["asymptotics", "--m", "1", "--alpha", "0", "--K", "32",
                     "--n-max", "8", "--potential", zero_potential, "--out", str(out)])
        assert code == 0
        _, rows, footer = read_csv(out)
        assert all(float(r["rem_tau"]) == 0.0 for r in rows)
        assert all(float(r["rem_gamma"]) == 0.0 for r in rows)
        assert footer["bounded_flags"]["tau"] is True

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_trig_flags_every_class_bounded(self, tmp_path, trig_potential, m):
        # every remainder decays far faster than its class asks (fitted
        # slopes -2 to -420 against targets 0.5 to 2.95): none is flagged
        out = tmp_path / "asym.csv"
        assert main(["asymptotics", "--m", str(m), "--K", "128", "--n-max", "32",
                     "--potential", trig_potential, "--out", str(out)]) == 0
        footer = read_csv(out)[2]
        assert all(float(footer[f"fitted_slope_{k}"]) < -2.0 for k in ("tau", "gamma"))
        assert footer["bounded_flags"] == {"tau": True, "gamma": True, "gamma_corr": True}

    def test_trig_slopes_in_footer(self, tmp_path, trig_potential):
        out = tmp_path / "asym.csv"
        code = main(["asymptotics", "--m", "1", "--alpha", "0", "--K", "96",
                     "--n-max", "24", "--potential", trig_potential, "--out", str(out)])
        assert code == 0
        _, rows, footer = read_csv(out)
        assert float(footer["fitted_slope_tau"]) <= -0.9
        assert footer["target_exponents"]["tau"] == f"{0.95:.17g}"
        assert footer["K"] == 96 and "confirm_K" not in footer
        assert float(footer["max_trunc_bar"]) < eigensolver.CONVERGENCE_TOL

    def test_no_converged_rows_names_the_bar(self, tmp_path, capsys):
        # at K = 128 the rough alpha = 1/2 class leaves every row's bar above
        # CONVERGENCE_TOL: the message gives the window, the rows and the
        # largest bar
        v = rough_potential(1, 0.5, 510, 1.0, seed=0)
        pot = write_potential(tmp_path / "v.json", v.coeffs)
        code = main(["asymptotics", "--m", "1", "--alpha", "0.5", "--K", "128", "--n-max", "32",
                     "--potential", pot, "--out", str(tmp_path / "a.csv")])
        assert code == 2
        assert ("no converged rows in the pair table at K = 128: its 32 rows carry the "
                "largest truncation bar 1.2e-05, against CONVERGENCE_TOL = 1e-09"
                ) in capsys.readouterr().err

    def test_m2_gap_remainders_resolved(self, tmp_path):
        # trig has no v(+-2(2n-1)) from n = 3 on, so rem_gamma is |gamma|: from
        # n = 6 on it lies below one ulp of tau - c, and must still be read
        coeffs = {2: 1.0 + 0j, -2: 0.5 + 0j, 4: 0.3 + 0j, -4: 0.2j, 6: 0.1 + 0j}
        pot = write_potential(tmp_path / "trig.json", coeffs)
        out = tmp_path / "asym.csv"
        assert main(["asymptotics", "--m", "2", "--K", "128", "--n-max", "32",
                     "--potential", pot, "--out", str(out)]) == 0
        _, rows, _ = read_csv(out)
        rem = [float(r["rem_gamma"]) for r in rows if int(r["n"]) >= 6]
        assert len(rem) == 27 and all(x > 0.0 for x in rem)
        assert all(a > b for a, b in zip(rem, rem[1:]))

    def test_unsettled_riccati_exit_4(self, tmp_path, trig_potential, monkeypatch, capsys):
        # one fixed-point step cannot settle X for the modes above the cut
        monkeypatch.setattr(eigensolver, "RICCATI_MAX_STEPS", 1)
        code = main(["asymptotics", "--m", "1", "--alpha", "0", "--K", "96",
                     "--n-max", "24", "--potential", trig_potential,
                     "--out", str(tmp_path / "asym.csv")])
        assert code == 4
        assert "Riccati" in capsys.readouterr().err

    def test_no_numpy_ma_import(self, tmp_path, trig_potential):
        # np.median's NaN check imports numpy.ma; no step of asymptotics
        # may take it
        out = tmp_path / "asym.csv"
        script = (
            "import sys\n"
            "from hillgap.cli import main\n"
            f"code = main(['asymptotics', '--m', '1', '--alpha', '0', '--K', '48', '--n-max', "
            f"'12', '--potential', {trig_potential!r}, '--out', {str(out)!r}])\n"
            "print(code, 'numpy.ma' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.split() == ["0", "False"]


# each command's window and fit length, small; the modules it must not load
COMMAND_MODULES = {
    "spectrum": (["--K", "16", "--n-max", "4"], ("riesz", "asymptotics", "localization", "lemmas")),
    "asymptotics": (["--K", "48", "--n-max", "12"], ("riesz", "localization", "lemmas")),
    "riesz-check": (["--K", "16", "--n-max", "4"], ("asymptotics", "localization", "lemmas")),
}


def _hillgap(args, **kwargs):
    """The interpreter with the package from this tree, and stdout buffered
    as a pipe buffers it unless PYTHONUNBUFFERED is set."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60, **kwargs)


class TestProcess:
    @pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
    def test_command_loads_only_its_modules(self, tmp_path, trig_potential, command):
        flags, absent = COMMAND_MODULES[command]
        argv = [command, *flags, "--potential", trig_potential, "--out", str(tmp_path / "o.csv")]
        script = (
            "import sys\n"
            "from hillgap.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, *sorted(m for m in sys.modules if m.startswith('hillgap.')))\n"
        )
        code, *loaded = _hillgap(["-c", script], check=True).stdout.split()
        assert code == "0"
        assert {"hillgap.cli", "hillgap.eigensolver"} <= set(loaded)
        assert not {f"hillgap.{name}" for name in absent} & set(loaded)

    def test_exit_0_writes_the_whole_table(self, tmp_path, trig_potential):
        flags = ["spectrum", "--K", "16", "--n-max", "4", "--potential", trig_potential]
        out, ref = tmp_path / "o.csv", tmp_path / "ref.csv"
        done = _hillgap(["-m", "hillgap", *flags, "--out", str(out)])
        assert (done.returncode, done.stderr) == (0, "")
        assert main(flags + ["--out", str(ref)]) == 0
        tables = [[ln for ln in path.read_text().splitlines(keepends=True)
                   if not ln.startswith("# config:")] for path in (out, ref)]
        assert tables[0] == tables[1]
        assert tables[0][-1].startswith("# footer:") and tables[0][-1].endswith("}\n")

    def test_bad_config_exit_2(self, tmp_path, trig_potential):
        done = _hillgap(["-m", "hillgap", "spectrum", "--alpha", "1.5", "--potential",
                         trig_potential, "--out", str(tmp_path / "o.csv")])
        assert done.returncode == 2
        assert "config error: --alpha must lie in [0, 1]" in done.stderr

    def test_unsettled_fixed_point_exit_4(self, tmp_path, trig_potential):
        # as TestAsymptoticsCommand.test_unsettled_riccati_exit_4, through
        # __main__ in a fresh process
        argv = ["hillgap", "asymptotics", "--K", "96", "--n-max", "24",
                "--potential", trig_potential, "--out", str(tmp_path / "o.csv")]
        script = (
            "import runpy, sys\n"
            "from hillgap import eigensolver\n"
            "eigensolver.RICCATI_MAX_STEPS = 1\n"
            f"sys.argv = {argv!r}\n"
            "runpy.run_module('hillgap', run_name='__main__')\n"
        )
        done = _hillgap(["-c", script])
        assert done.returncode == 4
        assert "solver failure: " in done.stderr and "Riccati" in done.stderr

    def test_print_config_through_a_pipe(self):
        # run() must flush the pipe's buffer before its hard exit
        done = _hillgap(["-m", "hillgap", "lemmas", "--K", "48", "--out", "o.csv",
                         "--print-config"], check=True)
        assert done.stdout.endswith("}\n")
        assert json.loads(done.stdout) == {**OPTION_DEFAULTS, "command": "lemmas", "K": 48,
                                           "out": "o.csv"}


def _no_solve(*args, **kwargs):
    raise AssertionError("the eigensolve ran before the fit length was checked")


class TestShortFit:
    @pytest.mark.parametrize(
        "argv",
        [
            ["asymptotics", "--K", "44", "--n-max", "11"],
            ["asymptotics", "--n-max", "4"],
            ["alpha1", "--n-max", "4"],
        ],
        ids=["asymptotics-K44-n11", "asymptotics-auto-n4", "alpha1-n4"],
    )
    def test_exit_2_before_solve(self, tmp_path, trig_potential, monkeypatch, capsys, argv):
        # too few rows for a decay fit is a configuration error, found before
        # any eigensolve
        monkeypatch.setattr(eigensolver, "low_block", _no_solve)
        code = main(argv + ["--potential", trig_potential, "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "needs --n-max >= " in capsys.readouterr().err


class TestLocalizeCommand:
    def test_zero_potential(self, tmp_path, zero_potential):
        out = tmp_path / "loc.csv"
        code = main(["localize", "--m", "1", "--alpha", "0", "--K", "32", "--n-max", "8",
                     "--R", "1", "--C", "1.1",
                     "--potential", zero_potential, "--out", str(out)])
        assert code == 0
        _, rows, footer = read_csv(out)
        assert footer["n0_empirical"] == 0
        assert footer["cone_count"] == 0
        assert footer["K"] == 32
        assert all(r["holds"] == "true" for r in rows)

    def test_footer_names_the_window_it_picks(self, tmp_path, trig_potential):
        # without --K, localize solves the window max(32, 4 n_max)
        out = tmp_path / "loc.csv"
        assert main(["localize", "--n-max", "12", "--potential", trig_potential,
                     "--out", str(out)]) == 0
        assert read_csv(out)[2]["K"] == 48


class TestLemmasCommand:
    def test_small_sweep_exit_0(self, tmp_path):
        out = tmp_path / "lem.csv"
        code = main(["lemmas", "--K", "32", "--n-max", "24", "--out", str(out)])
        assert code == 0
        _, rows, footer = read_csv(out)
        assert footer["failed"] is False
        skips = [r for r in rows if r["holds"] == "skip"]
        assert skips and all("precondition" in r["reason"] for r in skips)
        assert any(r["check"] == "elementary_c" for r in rows)
        assert any(r["check"] == "ext_hs" for r in rows)
        assert any(r["check"] == "vert_raw" for r in rows)

    def test_corrupt_bound_exit_5(self, tmp_path, monkeypatch):
        from hillgap import lemmas

        monkeypatch.setattr(lemmas, "ext_bound", lambda *args: 0.0)
        out = tmp_path / "lem.csv"
        code = main(["lemmas", "--K", "32", "--n-max", "12", "--out", str(out)])
        assert code == 5
        _, rows, footer = read_csv(out)
        assert footer["failed"] is True
        assert {r["check"] for r in rows if r["holds"] == "false"} == {"ext_hs"}


class TestRieszCheckCommand:
    def test_zero_potential(self, tmp_path, zero_potential):
        out = tmp_path / "rz.csv"
        code = main(["riesz-check", "--m", "1", "--K", "32", "--n-max", "4",
                     "--potential", zero_potential, "--out", str(out)])
        assert code == 0
        _, rows, footer = read_csv(out)
        assert footer["all_hold"] is True
        for r in rows:
            assert abs(float(r["re_tr_p"]) - 2.0) <= 1e-9
            assert float(r["l_diff"]) <= 1e-8

    def test_auto_window_grows_with_n_max(self, tmp_path):
        # --K auto reads the window max(128, 4 n_max): 160 here
        pot = write_potential(tmp_path / "v.json", TRIG)
        out = tmp_path / "rz.csv"
        assert main(["riesz-check", "--n-max", "40", "--potential", pot, "--out", str(out)]) == 0
        _, rows, footer = read_csv(out)
        assert footer["all_hold"] is True
        assert [int(r["n"]) for r in rows] == list(range(2, 41))

    def test_trig_agreement(self, tmp_path, trig_potential):
        out = tmp_path / "rz.csv"
        code = main(["riesz-check", "--m", "1", "--K", "64", "--n-max", "8",
                     "--potential", trig_potential, "--out", str(out)])
        assert code == 0
        _, rows, footer = read_csv(out)
        assert footer["all_hold"] is True
        for r in rows:
            assert float(r["tau_diff"]) <= 1e-8 * (1 + 400 * PI2)

    def test_m2_complex_potential(self, tmp_path):
        # support at +-2, +-4 and 6 puts coefficients on both residue classes
        # mod 4, so the correction values l compared below are nonzero
        coeffs = {2: 0.6 + 0.1j, -2: 0.3 - 0.2j, 4: 0.2 + 0j, -4: 0.1j, 6: 0.1 + 0.05j}
        pot = write_potential(tmp_path / "m2.json", coeffs)
        v = FourierSequence(coeffs)
        assert l_direct(v, 2, 2)[0] != 0 and l_direct(v, 2, 3)[0] != 0
        out = tmp_path / "rz.csv"
        args = ["riesz-check", "--m", "2", "--K", "32", "--n-max", "6",
                "--potential", pot, "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        _, rows, footer = read_csv(out)
        assert footer["all_hold"] is True
        assert [r["n"] for r in rows] == ["2", "3", "4", "5", "6"]
        assert main(args) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize("v0", [0.25, 0.1 + 0.05j])
    def test_zero_mode_potential(self, tmp_path, v0):
        # the traces and the paired eigenvalues both come from the
        # zero-mode-normalized operator, so v(0) must not enter tau_diff
        coeffs = {0: complex(v0), 2: 0.6 + 0j, -2: 0.6 + 0j, 4: 0.3 + 0.1j, -4: 0.2 - 0.1j}
        pot = write_potential(tmp_path / "v0.json", coeffs)
        out = tmp_path / "rz.csv"
        code = main(["riesz-check", "--m", "1", "--K", "32", "--n-max", "6",
                     "--potential", pot, "--out", str(out)])
        assert code == 0
        _, rows, footer = read_csv(out)
        assert footer["all_hold"] is True
        assert [r["n"] for r in rows] == ["2", "3", "4", "5", "6"]
        for r in rows:
            assert float(r["tau_diff"]) <= 1e-8 * (1 + 400 * PI2)

    def test_m3_tau_offsets_agree(self, tmp_path):
        # at m = 3, n = 8 the center is 1e10 and the pair sits 4e-11 from
        # it: tau_diff compares the two routes' offsets, not absolute taus
        coeffs = {2: 1.0 + 0j, -2: 0.5 + 0j, 4: 0.3 + 0j, -4: 0.2j, 6: 0.1 + 0j}
        pot = write_potential(tmp_path / "trig.json", coeffs)
        out = tmp_path / "rz.csv"
        code = main(["riesz-check", "--m", "3", "--K", "32", "--n-max", "8",
                     "--potential", pot, "--out", str(out)])
        assert code == 0
        _, rows, footer = read_csv(out)
        assert footer["all_hold"] is True
        assert [r["n"] for r in rows] == [str(n) for n in range(2, 9)]
        for r in rows:
            assert float(r["tau_diff"]) <= 1e-9

    def test_footer_reports_max_block(self, tmp_path, trig_potential, capsys):
        out = tmp_path / "rz.csv"
        code = main(["riesz-check", "--m", "1", "--K", "32", "--n-max", "8",
                     "--potential", trig_potential, "--out", str(out)])
        assert code == 0
        assert read_csv(out)[2]["max_block"] == 2
        # a strong potential pushes other eigenvalues near the low contours:
        # their blocks grow, the cross-oracles fail, and the table still lands
        strong = write_potential(tmp_path / "strong.json", {2: 60 + 0j, -2: 45j, 4: 30 + 0j})
        code = main(["riesz-check", "--m", "1", "--K", "32", "--n-max", "4",
                     "--potential", strong, "--out", str(out)])
        assert code == 4
        assert "solver failure" in capsys.readouterr().err
        _, rows, footer = read_csv(out)
        assert [r["n"] for r in rows] == ["2", "3", "4"]
        assert footer["all_hold"] is False
        assert footer["max_block"] > 2

    def test_eigensolve_is_certified(self, tmp_path, trig_potential, monkeypatch, capsys):
        # no command eigendecomposes the window: localize reads its discs
        # through the certified pair rows, and a failure of the band
        # shift-invert that refused discs fall back to exits 4
        def no_eig(a):
            raise AssertionError("localize took an eigendecomposition")

        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        out = str(tmp_path / "loc.csv")
        trig = ["localize", "--m", "1", "--K", "32", "--n-max", "4",
                "--potential", trig_potential, "--out", out]
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eig", no_eig)
            patch.setattr(np.linalg, "eigh", no_eig)
            assert main(trig) == 0
        # the cone's one eigvals of its band fails in LAPACK
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvals", singular)
            assert main(trig) == 4
        assert "cone eigensolve failed" in capsys.readouterr().err
        monkeypatch.setattr(np.linalg, "inv", singular)
        pot = write_potential(tmp_path / "strong.json", STRONG)
        code = main(["localize", "--m", "1", "--K", "32", "--n-max", "4",
                     "--potential", pot, "--out", out])
        assert code == 4
        err = capsys.readouterr().err
        assert "solver failure" in err and "band shift-invert failed" in err

    def test_shift_invert_failure_exit_4(self, tmp_path, monkeypatch, capsys):
        # LinAlgError is a ValueError; it must not read as a configuration error.
        # The potential is strong against the low gaps, so the pair certificate
        # refuses those contours and they take the dense shift-invert
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        pot = write_potential(tmp_path / "strong.json", STRONG)
        code = main(["riesz-check", "--m", "1", "--K", "32", "--n-max", "4",
                     "--potential", pot, "--out", str(tmp_path / "rz.csv")])
        assert code == 4
        err = capsys.readouterr().err
        assert "solver failure" in err and "shift-invert failed" in err

    def test_pair_eigensolve_failure_exit_4(self, tmp_path, monkeypatch, capsys):
        # the strong potential's low pairs refuse their own 2 x 2 reduction,
        # and the eigvals of the band shift-invert they are read from fails in
        # LAPACK: the one error of the route refused pairs and contours share
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
        pot = write_potential(tmp_path / "strong.json", STRONG)
        code = main(["riesz-check", "--m", "1", "--K", "32", "--n-max", "4",
                     "--potential", pot, "--out", str(tmp_path / "rz.csv")])
        assert code == 4
        err = capsys.readouterr().err
        assert "solver failure" in err and "band shift-invert failed" in err

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_certified_contours_call_no_inverse(self, tmp_path, inv_calls, monkeypatch, m):
        # the pairs come from the certified low block with no inverse or
        # eigendecomposition, and each contour's poles from one shift-invert
        # of its own two modes, decoupled from the rest: a 2 x 2 block
        eig_calls = []
        for name in ("eig", "eigh", "eigvals"):
            def counted(a, _name=name, _fn=getattr(np.linalg, name)):
                eig_calls.append(_name)
                return _fn(a)
            monkeypatch.setattr(np.linalg, name, counted)
        pot = write_potential(tmp_path / "weak.json", WEAK_COMPLEX)
        out = tmp_path / "rz.csv"
        code = main(["riesz-check", "--m", str(m), "--K", "64", "--n-max", "8",
                     "--potential", pot, "--out", str(out)])
        assert code == 0
        _, rows, footer = read_csv(out)
        assert len(rows) == 7 and footer["all_hold"] is True
        assert footer["dense_contours"] == [] and footer["max_block"] == 2
        assert inv_calls == [(2, 2)] * 7 and eig_calls == ["eigvals"] * 7

    def test_strong_potential_lists_dense_contours(self, tmp_path, inv_calls):
        # the certificate refuses the low contours and pair rows, whose gaps
        # the potential overwhelms, and accepts the higher ones: one inverse of
        # a certified band per refused pair row, then one 2 x 2 inverse that
        # scales the row's basis, one of a certified band per refused contour,
        # one of the 2 x 2 block of each accepted contour, and none of the
        # whole window
        pot = write_potential(tmp_path / "strong.json", STRONG)
        out = tmp_path / "rz.csv"
        main(["riesz-check", "--m", "1", "--K", "64", "--n-max", "16",
              "--potential", pot, "--out", str(out)])
        shapes = list(inv_calls)
        _, rows, footer = read_csv(out)
        dense = footer["dense_contours"]
        low = low_block(build_T(FourierSequence(STRONG), 1, 64), 16)
        table = pair_eigenvalues(low, n_max=16)
        # the lowest refused pairs leave their discs and are flagged
        refused = sorted(table.flagged) + list(table.unrefined)
        assert refused == list(range(1, 1 + len(refused))) and len(refused) < 16
        assert 0 < len(dense) < len(rows) and len(shapes) == 2 * len(refused) + len(rows)
        assert all(shape[0] < 128 for shape in shapes)
        assert shapes[1 : 2 * len(refused) : 2] == [(2, 2)] * len(refused)
        contours = shapes[2 * len(refused):]  # the table is read before the contours
        assert [n for n, shape in zip(range(2, 17), contours) if shape != (2, 2)] == dense
        assert dense == list(range(2, 2 + len(dense)))
        flags = {n: riesz.riesz_projector(low, riesz.ContourSpec(n=n, m=1)).dense
                 for n in range(2, 17)}
        assert dense == [n for n, flag in flags.items() if flag]

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_broken_pair_route_fails(self, tmp_path, monkeypatch, capsys, m):
        # the contours share no code with the pair rows' reduction: shifting
        # every d_tau it returns by 1e-3 must show up in tau_diff
        pair_split = eigensolver._pair_split

        def shifted(*args):
            d, gamma, *block = pair_split(*args)
            return d + 1e-3, gamma, *block

        monkeypatch.setattr(eigensolver, "_pair_split", shifted)
        monkeypatch.setattr(riesz, "_pair_split", shifted, raising=False)
        pot = write_potential(tmp_path / "trig.json", TRIG)
        out = tmp_path / "rz.csv"
        code = main(["riesz-check", "--m", str(m), "--K", "64", "--n-max", "8",
                     "--potential", pot, "--out", str(out)])
        assert code == 4
        assert "solver failure" in capsys.readouterr().err
        _, rows, footer = read_csv(out)
        assert footer["all_hold"] is False
        assert all(r["holds"] == "false" for r in rows)
        assert all(float(r["tau_diff"]) == pytest.approx(1e-3, rel=1e-6) for r in rows)

    def test_q0_mismatch_exit_4(self, tmp_path, trig_potential, monkeypatch, capsys):
        closed_form = riesz.q0_closed_form

        def off_by_1e6_at_n3(v, m, n, K):
            out = closed_form(v, m, n, K)
            if n == 3:
                out[0, 0] += 1e-6
            return out

        monkeypatch.setattr(riesz, "q0_closed_form", off_by_1e6_at_n3)
        out = tmp_path / "rz.csv"
        code = main(["riesz-check", "--m", "1", "--K", "32", "--n-max", "4",
                     "--potential", trig_potential, "--out", str(out)])
        assert code == 4
        assert "solver failure" in capsys.readouterr().err
        _, rows, footer = read_csv(out)
        assert footer["all_hold"] is False
        assert {r["n"]: r["holds"] for r in rows} == {"2": "true", "3": "false", "4": "true"}
        assert float(rows[1]["q0_defect"]) == pytest.approx(1e-6, rel=1e-6)

    def test_l_minus_mismatch_exit_4(self, tmp_path, trig_potential, monkeypatch, capsys):
        # only the minus entry of the contour block is off: l_- is checked too
        contour_block = riesz.script_S_2x2

        def minus_off_by_1e6(v, m, n, K, nodes=64):
            out = contour_block(v, m, n, K, nodes=nodes)
            out[1, 0] += 1e-6
            return out

        monkeypatch.setattr(riesz, "script_S_2x2", minus_off_by_1e6)
        out = tmp_path / "rz.csv"
        code = main(["riesz-check", "--m", "1", "--K", "32", "--n-max", "4",
                     "--potential", trig_potential, "--out", str(out)])
        assert code == 4
        assert "solver failure" in capsys.readouterr().err
        _, rows, footer = read_csv(out)
        assert footer["all_hold"] is False
        assert all(r["holds"] == "false" for r in rows)
        assert all(float(r["l_diff"]) == pytest.approx(1e-6, rel=1e-6) for r in rows)

    def test_deliberate_collision_exit_6(self, tmp_path, capsys):
        # tune the coupling so the n = 2 pair lands on its own contour
        K, n = 32, 2
        c = (2 * n - 1) ** 2 * PI2
        rho = float(2 * n - 1)

        def edge_distance(a):
            v = FourierSequence({6: a, -6: a})
            eigs = window_spectrum(build_T(v, 1, K))
            i = int(np.argmin(np.abs(eigs - (c + rho))))
            return abs(eigs[i] - c) - rho

        lo, hi = 2.0, 4.0
        assert edge_distance(lo) < 0 < edge_distance(hi)
        for _ in range(60):
            mid = (lo + hi) / 2
            if edge_distance(mid) < 0:
                lo = mid
            else:
                hi = mid
        a_star = (lo + hi) / 2
        assert abs(edge_distance(a_star)) < 1e-6 * rho

        pot = write_potential(tmp_path / "coll.json", {6: complex(a_star), -6: complex(a_star)})
        out = tmp_path / "rz.csv"
        code = main(["riesz-check", "--m", "1", "--K", str(K), "--n-max", "4",
                     "--potential", pot, "--out", str(out)])
        assert code == 6
        assert "contour collision" in capsys.readouterr().err


class TestAlpha1Command:
    def test_report(self, tmp_path):
        rng = np.random.default_rng(4)
        coeffs = {}
        for k in range(1, 65):
            coeffs[2 * k] = (2 * k) ** 0.4 * np.exp(2j * np.pi * rng.random())
            coeffs[-2 * k] = (2 * k) ** 0.4 * np.exp(2j * np.pi * rng.random())
        pot = write_potential(tmp_path / "rough.json", coeffs)
        out = tmp_path / "a1.csv"
        code = main(["alpha1", "--m", "1", "--K", "64", "--n-max", "16",
                     "--potential", pot, "--out", str(out)])
        assert code == 0
        _, rows, footer = read_csv(out)
        assert float(footer["fitted_slope"]) < 0
        assert int(footer["n0_below_one"]) <= 16
        assert footer["K"] == 64
        report = asymptotics.alpha1_experiment(FourierSequence(coeffs), 1, 16, K=64)
        assert footer["unrefined"] == list(report.unrefined)
