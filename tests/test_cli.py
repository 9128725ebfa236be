import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import l_direct

from hillgap import cli, eigensolver, riesz
from hillgap.cli import RunConfig, main
from hillgap.eigensolver import eigenvalues, low_block, pair_eigenvalues
from hillgap.operator import MAX_HALF_WINDOW, build_T
from hillgap.seqspace import (
    FourierSequence,
    Parity,
    PotentialFamily,
    PotentialSpec,
    SobolevParams,
    make_potential,
)

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

    def test_confirm_window_is_certified(self, tmp_path, trig_potential, monkeypatch, capsys):
        # the cut's Riccati fixed point fails to settle only above K = 16, so
        # the K = 16 solve passes and the confirming window alone must stop
        # the run
        decouple = eigensolver._decouple

        def unsettled_above_16(mat, m, K, *args):
            if K > 16:
                raise eigensolver.SolverError("Riccati fixed point did not settle")
            return decouple(mat, m, K, *args)

        monkeypatch.setattr(eigensolver, "_decouple", unsettled_above_16)
        code = main(["spectrum", "--m", "1", "--K", "16", "--n-max", "4",
                     "--potential", trig_potential, "--out", str(tmp_path / "s.csv")])
        assert code == 4
        assert "solver failure" in capsys.readouterr().err

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
        "coeffs, K, confirm_K",
        [
            ({2: 1.0, -2: 0.5, 4: 0.3, -4: 0.2j, 6: 0.1}, 32, 35),
            ({}, 16, 17),
            ({0: 0.3}, 16, 17),
            (_spread(40), 16, 32),
            (_spread(48), 1000, MAX_HALF_WINDOW),
        ],
        ids=["trig-S6", "zero", "zero-mode-only", "S-beyond-window", "at-cap"],
    )
    def test_confirms_at_reach_of_potential(self, tmp_path, solve_ks, coeffs, K, confirm_K):
        pot = write_potential(tmp_path / "v.json", {k: complex(x) for k, x in coeffs.items()})
        out = tmp_path / "s.csv"
        code = main(["spectrum", "--K", str(K), "--n-max", "4",
                     "--potential", pot, "--out", str(out)])
        assert code == 0
        assert solve_ks == [K, confirm_K]
        _, rows, footer = read_csv(out)
        assert footer["K"] == K and footer["confirm_K"] == confirm_K
        assert len(rows) == 4

    def test_no_confirm_past_cap(self, tmp_path, solve_ks, capsys):
        # K + S/2 = 1025 lies past the largest window: no confirm can run, so
        # the window is refused before any solve rather than left unconfirmed
        pot = write_potential(tmp_path / "v.json", _spread(50))
        out = tmp_path / "s.csv"
        code = main(["spectrum", "--K", "1000", "--n-max", "4",
                     "--potential", pot, "--out", str(out)])
        assert code == 2
        assert solve_ks == []
        assert not out.exists()
        assert "--K 1000 needs the confirming window 1025, past the largest window 1024" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command, n_max", [("spectrum", 8), ("asymptotics", 12)])
    def test_trig_at_cap_refused(self, tmp_path, capsys, command, n_max):
        # trig reaches S = 6, so K = 1024 would be confirmed at 1027
        pot = write_potential(tmp_path / "v.json", TRIG)
        out = tmp_path / "s.csv"
        code = main([command, "--K", "1024", "--n-max", str(n_max),
                     "--potential", pot, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "--K 1024 needs the confirming window 1027, past the largest window 1024" \
            in capsys.readouterr().err

    def test_trig_below_cap_confirmed(self, tmp_path):
        pot = write_potential(tmp_path / "v.json", TRIG)
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--K", "1000", "--n-max", "8",
                     "--potential", pot, "--out", str(out)]) == 0
        _, rows, footer = read_csv(out)
        assert footer["K"] == 1000 and footer["confirm_K"] == 1003
        assert len(rows) == 8 and all(r["converged"] == "true" for r in rows)

    def test_auto_reports_previous_window(self, tmp_path, trig_potential):
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--n-max", "4", "--potential", trig_potential,
                     "--out", str(out)]) == 0
        footer = read_csv(out)[2]
        assert footer["K"] == 64 and footer["confirm_K"] == 32

    def test_m3_rows_match_oracle(self, mpmath_pair):
        # a non-Hermitian potential of support 16 at K = 16 is confirmed at
        # K = 24; against the doubled window the rounding of the K = 32 solve
        # flagged row 1, whose offsets are right to 5e-13
        spec = PotentialSpec(PotentialFamily.RANDOM_ROUGH, {"window": 16}, radius=2.0, seed=8)
        v = make_potential(spec, SobolevParams(m=3, alpha=0.0))
        cfg = RunConfig(command="spectrum", m=3, K=16, n_max=4)
        table = cli._spectrum_table(cfg, v)
        assert table.confirm_K == 24
        assert [r.converged for r in table.rows] == [True] * 4
        coeffs = dict(v.coeffs)
        for r in table.rows:
            d_tau, gamma = mpmath_pair(coeffs, 3, 16, r.n)
            lo, hi = d_tau - gamma / 2, d_tau + gamma / 2
            direct = max(abs(r.d_lo - lo), abs(r.d_hi - hi))
            crossed = max(abs(r.d_lo - hi), abs(r.d_hi - lo))
            assert min(direct, crossed) <= 1e-9

    def test_m3_row_beyond_k32_matches_oracle(self, feshbach_pair):
        # support 16 at K = 64 is confirmed at K = 72; each window solves the
        # pairs n <= 16 alone, so the doubled window confirms row 6 too, and
        # all three windows lie on the pairs of their exact operators
        spec = PotentialSpec(PotentialFamily.RANDOM_ROUGH, {"window": 16}, radius=4.0, seed=1)
        v = make_potential(spec, SobolevParams(m=3, alpha=0.0))
        cfg = RunConfig(command="spectrum", m=3, K=64, n_max=16)
        table = cli._spectrum_table(cfg, v)
        assert table.confirm_K == 72
        assert table.row(6).converged
        doubled = eigensolver.compute_pair_table(v, 3, 128, n_max=16)
        assert eigensolver.mark_converged(table, doubled).row(6).converged
        confirm = eigensolver.compute_pair_table(v, 3, 72, n_max=16)
        for K, tab in ((64, table), (72, confirm), (128, doubled)):
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
            (["lemmas", "--debug-bound-scale", "nan"], None, "--debug-bound-scale"),
            (["spectrum"], {"alpha": "x"}, "'alpha'"),
            (["spectrum"], {"n_max": 2.5}, "'n_max'"),
            (["lemmas"], {"seed": "a"}, "'seed'"),
            (["spectrum"], {"K": 64.7}, "'K'"),
            (["spectrum"], {"out": 1}, "'out'"),
            (["spectrum"], {"m": True}, "'m'"),
        ],
        ids=[
            "R-nan", "epsilon-nan", "C-inf", "bound_scale-nan", "file-alpha-str",
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

    def test_riesz_auto_window_past_cap_exit_2_before_io(self, tmp_path, capsys):
        # --K auto at riesz-check is max(128, 4 n_max): 1200 for n_max 300
        code = main(["riesz-check", "--n-max", "300", "--potential", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "config error: --n-max 300 needs the window 1200" in capsys.readouterr().err


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
    "bound_scale": ("--debug-bound-scale", "0.5", 0.5),
}
OPTION_DEFAULTS = {
    "m": 1, "alpha": 0.0, "K": "auto", "n_max": 16, "R": 1.0, "C": 1.1,
    "epsilon": 0.05, "seed": 0, "quad_nodes": 64, "format": "csv", "out": None,
    "potential": None, "bound_scale": 1.0,
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

    def test_trig_slopes_in_footer(self, tmp_path, trig_potential):
        out = tmp_path / "asym.csv"
        code = main(["asymptotics", "--m", "1", "--alpha", "0", "--K", "96",
                     "--n-max", "24", "--potential", trig_potential, "--out", str(out)])
        assert code == 0
        _, rows, footer = read_csv(out)
        assert float(footer["fitted_slope_tau"]) <= -0.9
        assert footer["target_exponents"]["tau"] == f"{0.95:.17g}"
        assert footer["K"] == 96 and footer["confirm_K"] == 97

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
        # np.median's NaN check imports numpy.ma; the membership surrogate
        # takes the middle of the sorted values instead
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
        monkeypatch.setattr(eigensolver, "eigenvalues", _no_solve)
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
        assert all(r["holds"] == "true" for r in rows)


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

    def test_corrupt_bound_exit_5(self, tmp_path):
        out = tmp_path / "lem.csv"
        code = main(["lemmas", "--K", "32", "--n-max", "12",
                     "--debug-bound-scale", "0.01", "--out", str(out)])
        assert code == 5
        _, rows, footer = read_csv(out)
        assert footer["failed"] is True


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
        v = FourierSequence.make(Parity.EVEN, coeffs)
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
        # a certified band per refused pair row and per refused contour, one of
        # the 2 x 2 block of each accepted contour, and none of the whole window
        pot = write_potential(tmp_path / "strong.json", STRONG)
        out = tmp_path / "rz.csv"
        main(["riesz-check", "--m", "1", "--K", "64", "--n-max", "16",
              "--potential", pot, "--out", str(out)])
        shapes = list(inv_calls)
        _, rows, footer = read_csv(out)
        dense = footer["dense_contours"]
        low = low_block(build_T(FourierSequence.make(Parity.EVEN, STRONG), 1, 64), 16)
        table = pair_eigenvalues(low, n_max=16)
        # the lowest refused pairs leave their discs and are flagged
        refused = sorted(table.flagged) + list(table.unrefined)
        assert refused == list(range(1, 1 + len(refused))) and len(refused) < 16
        assert 0 < len(dense) < len(rows) and len(shapes) == len(refused) + len(rows)
        assert all(shape[0] < 128 for shape in shapes)
        contours = shapes[len(refused):]  # the table is read before the contours
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
            d, gamma = pair_split(*args)
            return d + 1e-3, gamma

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
            v = FourierSequence.make(Parity.EVEN, {6: a, -6: a})
            eigs = eigenvalues(build_T(v, 1, K)).values
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
