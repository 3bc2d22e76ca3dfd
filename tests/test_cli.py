"""CLI contracts: file formats, determinism, exit codes, verification."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import eqnav.cli as cli
from eqnav.cli import (
    GNSS_HEADER,
    IMU_HEADER,
    TRUTH_HEADER,
    ConfigError,
    cmd_simulate,
    main,
    parse_config,
)
from eqnav.sim import SensorErrorSpec, generate_truth, synthesize_gnss, synthesize_imu


def fast_overrides(**extra):
    base = {
        "duration": "5",
        "imu_rate": "50",
        "gnss_rate": "1",
        "scenario": "constant-turn",
    }
    base.update({k: str(v) for k, v in extra.items()})
    return [f"{k}={v}" for k, v in base.items()]


class TestConfig:
    def test_defaults(self):
        cfg = parse_config(None, [])
        assert cfg.convention == "left"
        assert cfg.omega_ie == 7.292115e-5

    def test_file_and_override_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nseed=3\nspeed=5.0\n")
        cfg = parse_config(str(path), ["speed=7.5"])
        assert cfg.seed == 3
        assert cfg.speed == 7.5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nonsense=1\n")
        with pytest.raises(ConfigError):
            parse_config(str(path), [])
        with pytest.raises(ConfigError):
            parse_config(None, ["also_nonsense=2"])

    def test_malformed_line_cites_location(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=1\nbroken line\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2"):
            parse_config(str(path), [])


class TestSimulate:
    def test_row_counts_static_60s(self, tmp_path):
        cfg = parse_config(
            None, ["scenario=static", "duration=60", "imu_rate=200", "gnss_rate=1"]
        )
        assert cmd_simulate(cfg, tmp_path) == 0
        lines = (tmp_path / "imu.csv").read_text().splitlines()
        assert lines[0] == IMU_HEADER
        assert len(lines) - 1 == 12000
        gnss_lines = (tmp_path / "gnss.csv").read_text().splitlines()
        assert gnss_lines[0] == GNSS_HEADER
        truth_lines = (tmp_path / "truth.csv").read_text().splitlines()
        assert truth_lines[0] == TRUTH_HEADER
        assert len(truth_lines) - 1 == 12000

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        for out in (a, b):
            code = main(
                ["--out", str(out), "--seed", "9", "--set", "gyro_psd=1e-8"]
                + sum([["--set", o] for o in fast_overrides()], [])
                + ["simulate"]
            )
            assert code == 0
        for name in ("imu.csv", "gnss.csv", "truth.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_files_are_the_public_records(self, tmp_path):
        """The files written from the synthesis stacks equal the ones the
        public records give, byte for byte."""
        cfg = parse_config(None, fast_overrides(
            scenario="figure-eight", seed=4, lever_x=0.5, lever_z=-1.2, sim_gyro_bias_x=1e-4,
            sim_accel_bias_z=2e-3, gnss_rate=5))
        stacks, records = tmp_path / "stacks", tmp_path / "records"
        stacks.mkdir()
        records.mkdir()
        assert cmd_simulate(cfg, stacks) == 0
        earth = cfg.earth()
        truth = generate_truth(cfg.trajectory(), earth)
        errors = SensorErrorSpec(np.array([cfg.sim_gyro_bias_x, 0.0, 0.0]),
                                 np.array([0.0, 0.0, cfg.sim_accel_bias_z]),
                                 cfg.gyro_psd, cfg.accel_psd, seed=cfg.seed)
        imu = synthesize_imu(truth, earth, errors)
        gnss = synthesize_gnss(truth, cfg.lever().l_b, cfg.gnss_rate, cfg.gnss_cov(),
                               seed=cfg.seed + 1)
        cli._write_csv(records / "imu.csv", IMU_HEADER, [[s.t, *s.gyro, *s.accel] for s in imu])
        cli._write_csv(records / "gnss.csv", GNSS_HEADER,
                       [[f.t, *f.pos_ecef, *f.cov.flat[[0, 4, 8, 1, 2, 5]]] for f in gnss])
        cli._write_csv(records / "truth.csv", TRUTH_HEADER,
                       [[t, *x.rot.ravel(), *x.vel, *x.pos] for t, x in truth.samples])
        for name in ("imu.csv", "gnss.csv", "truth.csv"):
            assert (stacks / name).read_bytes() == (records / name).read_bytes()

    def test_static_without_turn_rate(self, tmp_path):
        """The static profile never divides by the turn rate."""
        args = sum([["--set", o] for o in fast_overrides(scenario="static", turn_rate=0)], [])
        assert main(["--out", str(tmp_path)] + args + ["simulate"]) == 0
        assert len((tmp_path / "imu.csv").read_text().splitlines()) == 251

    def test_missing_dir_error(self, tmp_path, capsys):
        missing = tmp_path / "not_there"
        code = main(["--out", str(missing), "simulate"])
        assert code == 2
        assert str(missing) in capsys.readouterr().err


class TestRun:
    def test_roundtrip_noise_free(self, tmp_path, capsys):
        overrides = fast_overrides(
            gyro_psd="1e-18", accel_psd="1e-16", gnss_sigma="1e-6",
            gyro_bias_psd="1e-22", accel_bias_psd="1e-20",
            init_att_std="1e-8", init_vel_std="1e-6", init_pos_std="1e-4",
            init_bg_std="1e-10", init_ba_std="1e-9",
        )
        args = sum([["--set", o] for o in overrides], [])
        assert main(["--out", str(tmp_path)] + args + ["simulate"]) == 0
        assert main(["--out", str(tmp_path)] + args + ["run"]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["rms_pos"] <= 1e-5
        assert np.isfinite(summary["mean_nis"])

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: the right-invariant filter is not consistent at CLI defaults "
        "(seed 7: mean NEES 1443.46 right against 4.632 left; 24.29 against 6.46 at "
        "duration=10); its error in exponential coordinates should bring it near the left's"))
    def test_right_nees_near_left_at_defaults(self, tmp_path, capsys):
        args = ["--out", str(tmp_path), "--seed", "7"]
        assert main(args + ["simulate"]) == 0
        nees = {}
        for conv in ("left", "right"):
            assert main(args + ["--convention", conv, "run"]) == 0
            nees[conv] = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["mean_nees"]
        assert nees["right"] <= 1.5 * nees["left"]

    def test_run_memory_bounded(self, tmp_path, capsys):
        """A 10 000-epoch run (50 s at 200 Hz) builds no per-epoch object:
        its traced peak stays near that of loading the three streams
        (10.5 MB); with a state and a record per epoch it was 49.9 MB."""
        args = ["--out", str(tmp_path), "--seed", "7", "--set", "duration=50"]
        assert main(args + ["simulate"]) == 0
        tracemalloc.start()
        try:
            assert main(args + ["run"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert json.loads(capsys.readouterr().out)["epochs"] == 10_000
        assert peak < 16e6

    @pytest.mark.parametrize("every", [True, False])
    def test_summary_errors_in_bounded_memory(self, rng, every):
        """The summary's RMS errors allocate less than one copy of the nav
        array (scoring copies of all rows took 2.5) and keep the bits of
        scoring all rows at once, whether every epoch has its truth row or
        only some do."""
        import math

        from eqnav.liegroup import _so3_logs, so3_exp

        n = 20_000
        rots = np.array([so3_exp(a) for a in rng.normal(scale=0.3, size=(2 * n, 3))])
        nav = np.column_stack([np.arange(n) * 0.005, rots[:n].reshape(n, 9),
                               rng.normal(size=(n, 27))])
        hit = np.ones(n, dtype=bool) if every else rng.uniform(size=n) < 0.7
        truth = np.column_stack([nav[:, 0], rots[n:].reshape(n, 9),
                                 nav[:, 10:16] + rng.normal(scale=1e-3, size=(n, 6))])[hit]
        k = (np.cumsum(hit) - 1).clip(min=0)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            got = cli._rms_errors(nav, truth, hit, k)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < nav.nbytes
        est, true = nav[hit], truth[k[hit]]
        rot = est[:, 1:10].reshape(-1, 3, 3) @ true[:, 1:10].reshape(-1, 3, 3).swapaxes(1, 2)
        want = {name: math.sqrt(cli._square_sums(d) / len(est))
                for name, d in (("rms_pos", est[:, 13:16] - true[:, 13:16]),
                                ("rms_vel", est[:, 10:13] - true[:, 10:13]),
                                ("rms_att", _so3_logs(rot)))}
        assert got == want

    def test_truth_absent_omits_err_out(self, tmp_path, capsys):
        args = sum([["--set", o] for o in fast_overrides()], [])
        assert main(["--out", str(tmp_path)] + args + ["simulate"]) == 0
        (tmp_path / "truth.csv").unlink()
        assert main(["--out", str(tmp_path)] + args + ["run"]) == 0
        assert not (tmp_path / "err_out.csv").exists()
        assert (tmp_path / "nav_out.csv").exists()
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "mean_nis" in summary and "rms_pos" not in summary

    def test_corrupt_csv_cites_line(self, tmp_path, capsys):
        args = sum([["--set", o] for o in fast_overrides()], [])
        assert main(["--out", str(tmp_path)] + args + ["simulate"]) == 0
        # a malformed row, a NaN gyro cell, a non-rotation DCM (c11 = 2),
        # a NaN fix time, a NaN truth time
        cases = (
            ("imu.csv", None, None),
            ("imu.csv", 1, "nan"),
            ("truth.csv", 1, "2.0"),
            ("gnss.csv", 0, "nan"),
            ("truth.csv", 0, "nan"),
        )
        for name, col, cell in cases:
            path = tmp_path / name
            text = path.read_text()
            lines = text.splitlines()
            if cell is None:
                lines[3] = "garbage,row"
            else:
                cols = lines[3].split(",")
                cols[col] = cell
                lines[3] = ",".join(cols)
            path.write_text("\n".join(lines) + "\n")
            code = main(["--out", str(tmp_path)] + args + ["run"])
            path.write_text(text)
            assert code == 2
            assert f"{name}:4" in capsys.readouterr().err

    def test_header_only_stream_exits_2(self, tmp_path, capsys):
        args = sum([["--set", o] for o in fast_overrides()], [])
        assert main(["--out", str(tmp_path)] + args + ["simulate"]) == 0
        for name in ("imu.csv", "gnss.csv", "truth.csv"):
            path = tmp_path / name
            text = path.read_text()
            path.write_text(text.splitlines()[0] + "\n")
            code = main(["--out", str(tmp_path)] + args + ["run"])
            path.write_text(text)
            assert code == 2
            assert f"{name}: no data rows" in capsys.readouterr().err

    def test_unordered_rows_cite_line(self, tmp_path, capsys):
        args = sum([["--set", o] for o in fast_overrides()], [])
        assert main(["--out", str(tmp_path)] + args + ["simulate"]) == 0
        for name in ("imu.csv", "gnss.csv"):
            path = tmp_path / name
            text = path.read_text()
            lines = text.splitlines()
            # lines[i] is file line i + 1; either edit makes line 5 the first
            # row whose time is not after its predecessor's
            duplicated = lines[:4] + lines[3:]
            swapped = lines[:3] + [lines[4], lines[3]] + lines[5:]
            for edited in (duplicated, swapped):
                path.write_text("\n".join(edited) + "\n")
                code = main(["--out", str(tmp_path)] + args + ["run"])
                path.write_text(text)
                assert code == 2
                assert f"{name}:5: time" in capsys.readouterr().err

    def test_colliding_fixes_exit_2(self, tmp_path, capsys):
        args = sum([["--set", o] for o in fast_overrides()], [])
        assert main(["--out", str(tmp_path)] + args + ["simulate"]) == 0
        gnss_path = tmp_path / "gnss.csv"
        lines = gnss_path.read_text().splitlines()
        first = lines[1].split(",")
        t0 = float(first[0])
        lines.insert(2, ",".join([repr(t0 + 5e-7)] + first[1:]))
        gnss_path.write_text("\n".join(lines) + "\n")
        code = main(["--out", str(tmp_path)] + args + ["run"])
        assert code == 2
        err = capsys.readouterr().err
        assert "imu.csv" in err and "gnss.csv" in err
        assert f"IMU epoch t={t0}" in err

    def test_fix_rejections_name_gnss_line(self, short_streams, tmp_path, capsys):
        """A fix the run cannot apply, one colliding with another at its IMU
        epoch or one with no IMU epoch within time_slop, exits 2 naming its
        gnss.csv line."""
        lines = short_streams["gnss.csv"].splitlines()
        first = lines[1].split(",")
        t0 = float(first[0])
        orphan = lines[2].split(",")
        orphan[0] = repr(float(orphan[0]) + 0.002)  # the IMU epochs are 20 ms apart
        cases = (
            (lines[:2] + [",".join([repr(t0 + 5e-7)] + first[1:])] + lines[2:],
             f"both map to IMU epoch t={t0}"),
            (lines[:2] + [",".join(orphan)] + lines[3:], "no IMU epoch within"),
        )
        for edited, message in cases:
            for name, text in short_streams.items():
                (tmp_path / name).write_text(text)
            (tmp_path / "gnss.csv").write_text("\n".join(edited) + "\n")
            assert main(["--out", str(tmp_path), "run"]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {tmp_path / 'gnss.csv'}:3: ") and message in err
            assert "imu.csv" in err and err.count("\n") == 1

    def test_truth_off_the_imu_epochs_exits_2(self, short_streams, tmp_path, capsys):
        """truth.csv rows at none of the IMU epochs' times leave nothing to
        score the run against: exit 2 naming truth.csv."""
        for name, text in short_streams.items():
            (tmp_path / name).write_text(text)
        lines = short_streams["truth.csv"].splitlines()
        rows = [line.split(",") for line in lines[1:]]
        shifted = [",".join([repr(float(r[0]) + 0.005)] + r[1:]) for r in rows]
        (tmp_path / "truth.csv").write_text("\n".join(lines[:1] + shifted) + "\n")
        assert main(["--out", str(tmp_path), "run"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'truth.csv'}: no row at the time of any IMU epoch\n"

    def test_run_starts_at_the_first_imu_epochs_truth(self, short_streams, tmp_path, capsys):
        """The run starts from the truth row at imu.csv's first time: a
        truth.csv that starts a second later exits 2 naming truth.csv and
        that time, and one with an earlier row before it runs as if that
        row were not there."""
        for name, text in short_streams.items():
            (tmp_path / name).write_text(text)
        assert main(["--out", str(tmp_path), "run"]) == 0
        want = (tmp_path / "nav_out.csv").read_bytes()
        (tmp_path / "nav_out.csv").unlink()
        lines = short_streams["truth.csv"].splitlines()
        t0 = float(lines[1].split(",")[0])
        (tmp_path / "truth.csv").write_text("\n".join(lines[:1] + lines[51:]) + "\n")
        assert main(["--out", str(tmp_path), "run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'truth.csv'}: ") and f"t={t0!r}" in err
        assert err.count("\n") == 1 and not (tmp_path / "nav_out.csv").exists()
        # a row 5 ms before the first, at the state dead-reckoned back to it
        cells = [float(c) for c in lines[1].split(",")]
        cells[0] -= 0.005
        cells[13:16] = [r - 0.005 * v for r, v in zip(cells[13:16], cells[10:13])]
        earlier = ",".join(map(repr, cells))
        (tmp_path / "truth.csv").write_text("\n".join(lines[:1] + [earlier] + lines[1:]) + "\n")
        assert main(["--out", str(tmp_path), "run"]) == 0
        assert (tmp_path / "nav_out.csv").read_bytes() == want

    def test_overflowing_gyro_row_names_epoch(self, short_streams, tmp_path, capsys):
        """A gyro row whose |w dt|^2 overflows exits 2 with one line naming
        the epoch whose interval first averages it, and no numpy warning."""
        for name, text in short_streams.items():
            (tmp_path / name).write_text(text)
        lines = short_streams["imu.csv"].splitlines()
        cells = lines[20].split(",")
        cells[1] = "1e300"
        lines[20] = ",".join(cells)
        (tmp_path / "imu.csv").write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--out", str(tmp_path), "run"]) == 2
        err = capsys.readouterr().err
        assert f"at epoch t={float(cells[0])}: " in err and err.count("\n") == 1

    @staticmethod
    def run_with_ax(streams, tmp_path, capsys, conv, line, ax):
        """Exit code and stderr of a run of ``streams`` whose ``imu.csv``
        line ``line + 1`` has the ax cell ``ax``, with numpy warnings as
        errors, and the time of the epoch after that line."""
        for name, text in streams.items():
            (tmp_path / name).write_text(text)
        lines = streams["imu.csv"].splitlines()
        cells = lines[line].split(",")
        cells[4] = ax
        lines[line] = ",".join(cells)
        (tmp_path / "imu.csv").write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--out", str(tmp_path), "--convention", conv, "run"])
        return code, capsys.readouterr().err, float(lines[line + 1].split(",")[0])

    @pytest.mark.parametrize("conv", ["left", "right"])
    def test_overflowing_specific_force_names_epoch(self, short_streams, tmp_path, capsys, conv):
        """A finite ax row that throws the next state past the range of
        |r|^3 exits 2 with one line naming the epoch whose gravitation
        overflows, no numpy warning and no nav_out.csv."""
        code, err, named = self.run_with_ax(short_streams, tmp_path, capsys, conv, 20, "1e115")
        assert code == 2
        assert f"at epoch t={named}: gravitation at |r| = " in err and err.count("\n") == 1
        assert not (tmp_path / "nav_out.csv").exists()

    @pytest.mark.parametrize("conv", ["left", "right"])
    def test_specific_force_past_square_range_names_epoch(self, tmp_path_factory, tmp_path,
                                                          capsys, conv):
        """A 3 s seed-7 stream at the default 200 Hz whose imu.csv line 22
        has ax = 1e160 throws the next state so far that r . r overflows:
        exit 2 with one line naming that epoch, t = 0.105, not a later
        fix's epoch after numpy warnings."""
        out = tmp_path_factory.mktemp("streams")
        assert main(["--out", str(out), "--seed", "7", "--set", "duration=3", "simulate"]) == 0
        streams = {name: (out / name).read_text() for name in ("imu.csv", "gnss.csv", "truth.csv")}
        capsys.readouterr()
        code, err, named = self.run_with_ax(streams, tmp_path, capsys, conv, 21, "1e160")
        assert code == 2 and named == 0.105
        assert f"at epoch t={named}: gravitation at |r| = " in err and err.count("\n") == 1
        assert not (tmp_path / "nav_out.csv").exists()

    @pytest.mark.parametrize("conv, named", [
        ("left", "at epoch t=0.38: FilterState.p contains non-finite values"),
        ("right", "at epoch t=0.4: gravitation at |r| = "),
    ], ids=["left", "right"])
    def test_covariance_overflow_names_epoch(self, tmp_path_factory, tmp_path, capsys,
                                             conv, named):
        """A 3 s seed-7 stream at 50 Hz whose imu.csv line 21 has ax = 1e160
        overflows the left covariance at that line's epoch: exit 2 with one
        stderr line naming it, and no numpy warning before it.  The right
        convention stops at the next epoch, on the gravitation."""
        out = tmp_path_factory.mktemp("streams")
        sets = ["--set", "duration=3", "--set", "imu_rate=50", "--set", "gnss_rate=1"]
        assert main(["--out", str(out), "--seed", "7"] + sets + ["simulate"]) == 0
        streams = {name: (out / name).read_text() for name in ("imu.csv", "gnss.csv", "truth.csv")}
        capsys.readouterr()
        code, err, _ = self.run_with_ax(streams, tmp_path, capsys, conv, 20, "1e160")
        assert code == 2
        assert named in err and err.count("\n") == 1

    @pytest.mark.parametrize("conv", ["left", "right"])
    @pytest.mark.parametrize("lat", [90, -90])
    def test_polar_start_runs(self, tmp_path, capsys, lat, conv):
        """A trajectory from a pole starts on the earth's axis; both
        conventions run it and track the fixes."""
        sigma = 1.0
        args = sum([["--set", o] for o in fast_overrides(lat_deg=lat, gnss_sigma=sigma)], [])
        assert main(["--out", str(tmp_path)] + args + ["simulate"]) == 0
        assert main(["--out", str(tmp_path)] + args + ["--convention", conv, "run"]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["rms_pos"] < 3.0 * sigma


class TestInvalidInput:
    @pytest.mark.parametrize(
        "setting, command",
        [
            ("omega_ie=-1", "simulate"),
            ("mu=nan", "simulate"),
            ("duration=-1", "simulate"),
            ("imu_rate=nan", "simulate"),
            ("gnss_sigma=0", "simulate"),
            ("gyro_psd=-1", "simulate"),
            ("gyro_psd=inf", "simulate"),
            ("accel_psd=nan", "simulate"),
            ("accel_psd=inf", "simulate"),
            ("gyro_psd=1e308", "simulate"),
            ("accel_psd=1e307", "simulate"),
            ("convention=up", "run"),
            ("init_pos_std=nan", "run"),
            ("gyro_psd=nan", "run"),
            ("omega_ie=-1", "verify"),
            ("mu=nan", "observability"),
            ("lever_x=nan", "simulate"),
            ("lever_y=inf", "run"),
            ("scenario=foo", "simulate"),
            ("gnss_rate=1000", "simulate"),
            ("turn_rate=0", "simulate"),
            ("turn_rate=nan", "simulate"),
            ("lat_deg=95", "simulate"),
            ("lat_deg=nan", "simulate"),
            ("lon_deg=inf", "simulate"),
            ("height=nan", "simulate"),
            ("speed=nan", "simulate"),
            ("time_slop=nan", "run"),
            ("time_slop=-1", "run"),
        ],
    )
    def test_bad_value_exits_2_naming_key(self, tmp_path, capsys, setting, command):
        args = sum([["--set", o] for o in fast_overrides()], [])
        if command == "run":
            assert main(["--out", str(tmp_path)] + args + ["simulate"]) == 0
        code = main(["--out", str(tmp_path)] + args + ["--set", setting, command])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and setting.split("=")[0] in err

    @pytest.mark.parametrize("setting", ["speed=0", "turn_rate=0"])
    def test_degenerate_figure_eight_exits_2_naming_key(self, tmp_path, capsys, setting):
        args = sum([["--set", o] for o in fast_overrides(scenario="figure-eight")], [])
        code = main(["--out", str(tmp_path)] + args + ["--set", setting, "simulate"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"TrajectorySpec.{setting.split('=')[0]}" in err

    @pytest.mark.parametrize(
        "overrides, key",
        [(["turn_rate=1e-320"], "turn_rate"), (["lat_deg=0", "height=-6378137"], "height")],
    )
    def test_degenerate_trajectory_exits_2_naming_key(self, tmp_path, capsys, overrides, key):
        """A path radius that overflows, or an origin at the earth's centre,
        is rejected before any arithmetic warns."""
        args = sum([["--set", o] for o in fast_overrides() + overrides], [])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--out", str(tmp_path)] + args + ["simulate"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"TrajectorySpec.{key}" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_unallocatable_sample_count_exits_2(self, tmp_path, capsys):
        """60 s at 1e12 Hz asks for a 437 TiB time array, past any address
        space, so the allocation is refused at once: exit 2 in one line
        naming both keys and the sample count."""
        assert main(["--out", str(tmp_path), "--set", "imu_rate=1e12", "simulate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration: ") and err.count("\n") == 1
        assert "duration * imu_rate = 60000000000000 IMU samples: " in err

    @pytest.mark.parametrize("setting, count", [
        ("duration=inf", "inf"), ("imu_rate=inf", "inf"), ("duration=1e308", "inf"),
        ("duration=1e300", "2e+302"),
    ])
    def test_unformable_sample_count_exits_2(self, tmp_path, capsys, setting, count):
        """A sample count past numpy's largest array, inf included, exits 2
        in one line naming it as an unallocatable count is named."""
        assert main(["--out", str(tmp_path), "--set", setting, "simulate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration: ") and err.count("\n") == 1
        assert f"duration * imu_rate = {count} IMU samples: " in err
        assert not list(tmp_path.iterdir())

    def test_stream_without_fix_exits_2_before_writing(self, tmp_path, capsys):
        """At 1 Hz the first fix falls at t = 1 s, after a 1 s stream's last
        sample: simulate writes no gnss.csv that run would reject, and no
        other file either."""
        assert main(["--out", str(tmp_path), "--set", "duration=1", "simulate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration: ") and err.count("\n") == 1
        assert "duration=1.0" in err and "gnss_rate=1.0" in err
        assert not list(tmp_path.iterdir())
        assert main(["--out", str(tmp_path), "--set", "duration=1.01", "simulate"]) == 0
        assert main(["--out", str(tmp_path), "--set", "duration=1.01", "run"]) == 0

    def test_first_fix_at_earth_centre_exits_2(self, tmp_path, capsys):
        """Without truth the run levels its start at the first fix; the
        earth's centre has no latitude to level at."""
        args = sum([["--set", o] for o in fast_overrides()], [])
        assert main(["--out", str(tmp_path)] + args + ["simulate"]) == 0
        (tmp_path / "truth.csv").unlink()
        path = tmp_path / "gnss.csv"
        lines = path.read_text().splitlines()
        cols = lines[1].split(",")
        cols[1:4] = ["0", "0", "0"]
        lines[1] = ",".join(cols)
        path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--out", str(tmp_path)] + args + ["run"])
        assert code == 2
        err = capsys.readouterr().err
        assert "gnss.csv" in err and f"fix at t={float(cols[0])}" in err


@pytest.fixture(scope="module")
def short_streams(tmp_path_factory):
    """The CSV streams of a 3 s, 50 Hz run with fixes at 1 Hz, as text."""
    out = tmp_path_factory.mktemp("streams")
    args = sum([["--set", o] for o in fast_overrides(duration=3)], [])
    assert main(["--out", str(out)] + args + ["simulate"]) == 0
    return {name: (out / name).read_text() for name in ("imu.csv", "gnss.csv", "truth.csv")}



class TestStreamChecks:
    """Each stream is checked in one pass, with its constructors' decisions
    and messages."""

    def test_rejections_name_file_and_line(self, short_streams, tmp_path, capsys):
        # (file, data row, column, cell from the old one, message after file:line)
        cases = (
            ("truth.csv", 3, 11, lambda c: "nan", "GroupElement.vel contains non-finite values"),
            ("imu.csv", 4, 5, lambda c: "inf", "ImuSample.accel contains non-finite values"),
            ("gnss.csv", 2, 4, lambda c: "-1.0", "GnssFix.cov must be positive definite"),
            ("truth.csv", 6, 1, lambda c: repr(float(c) + 1e-6),
             "GroupElement.rot is not a rotation matrix"),
        )
        for name, row, col, cell, message in cases:
            for stream, text in short_streams.items():
                (tmp_path / stream).write_text(text)
            lines = short_streams[name].splitlines()
            cells = lines[row].split(",")
            cells[col] = cell(cells[col])
            lines[row] = ",".join(cells)
            (tmp_path / name).write_text("\n".join(lines) + "\n")
            assert main(["--out", str(tmp_path), "run"]) == 2
            assert capsys.readouterr().err == f"error: {tmp_path / name}:{row + 1}: {message}\n"

    def test_bad_float_mid_row_names_its_line(self, short_streams, tmp_path, capsys):
        # the cells before the bad one parse: none of them may stay in the stream
        for stream, text in short_streams.items():
            (tmp_path / stream).write_text(text)
        lines = short_streams["imu.csv"].splitlines()
        cells = lines[4].split(",")
        cells[3] = "abc"
        lines[4] = ",".join(cells)
        (tmp_path / "imu.csv").write_text("\n".join(lines) + "\n")
        assert main(["--out", str(tmp_path), "run"]) == 2
        assert capsys.readouterr().err == (f"error: {tmp_path / 'imu.csv'}:5: bad float: "
                                           "could not convert string to float: 'abc'\n")

    def test_batched_checks_match_constructors(self, short_streams, rng, tmp_path):
        headers = {"imu.csv": IMU_HEADER, "gnss.csv": GNSS_HEADER, "truth.csv": TRUTH_HEADER}
        makes = {"imu.csv": cli._imu_row, "gnss.csv": cli._gnss_row, "truth.csv": cli._truth_row}
        checks = {"gnss.csv": cli._gnss_accepts, "truth.csv": cli._truth_accepts}
        for name, text in short_streams.items():
            stream = [[float(v) for v in line.split(",")] for line in text.splitlines()[1:]]
            rows = stream[:8]
            for col in range(len(stream[0])):
                for value in (np.nan, np.inf, -np.inf):
                    rows.append(list(stream[1]))
                    rows[-1][col] = value
            if name == "gnss.csv":
                for sxy in (0.999, 1.001, -1.0):  # sxx = syy = 1: PD for |sxy| < 1
                    rows.append(stream[1][:4] + [1.0, 1.0, 1.0, sxy, 0.0, 0.0])
            if name == "truth.csv":
                for delta in (1e-11, 1e-9, 1e-6):
                    rows.append(list(stream[1]))
                    rows[-1][1 + rng.integers(9)] += delta
            messages = []
            for r in rows:
                try:
                    makes[name](r)
                except ValueError as exc:
                    messages.append(str(exc))
                else:
                    messages.append(None)
            assert None in messages and len(set(messages)) > 2
            # alone in its file, each row is accepted or rejected as its
            # constructor decides, with its message
            path = tmp_path / name
            for r, message in zip(rows, messages):
                path.write_text(headers[name] + "\n" + ",".join(map(repr, r)) + "\n")
                if message is None:
                    cli._read_csv(path, headers[name], makes[name], checks.get(name))
                else:
                    with pytest.raises(ConfigError) as exc:
                        cli._read_csv(path, headers[name], makes[name], checks.get(name))
                    assert str(exc.value) == f"{path}:2: {message}"
            # in one stream (times made increasing), the first rejected row is named
            for k, r in enumerate(rows):
                r[0] = float(k) if np.isfinite(r[0]) else r[0]
            path.write_text(headers[name] + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows))
            first = next(k for k, m in enumerate(messages) if m is not None)
            with pytest.raises(ConfigError) as exc:
                cli._read_csv(path, headers[name], makes[name], checks.get(name))
            assert str(exc.value) == f"{path}:{first + 2}: {messages[first]}"

def test_stacked_output_matches_row_loops(rng, tmp_path):
    """The writer and the summary sums keep the bits of their per-row loops:
    each value formatted alone with 17 digits, each row's ``np.sum`` of
    squares added in row order from 0.0."""
    rows = rng.normal(size=(50, 4)) * 10.0 ** rng.integers(-300, 300, size=(50, 4))
    rows[0] = [np.nan, np.inf, -0.0, 5e-324]
    cli._write_csv(tmp_path / "out.csv", "a,b,c,d", rows)
    want = "a,b,c,d\n" + "".join(",".join(f"{v:.17g}" for v in r) + "\n" for r in rows.tolist())
    assert (tmp_path / "out.csv").read_text() == want
    for scale in (1e-3, 1.0, 1e5):
        d = rng.normal(size=(500, 3)) * scale
        total = 0.0
        for row in d:
            total += float(np.sum(row ** 2))
        assert cli._square_sums(d) == total


class TestIngestion:
    """Hostile IMU streams run or exit 2 naming the file and line at fault."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_bad_cell_short_row_or_gap(self, short_streams, data):
        imu_lines = short_streams["imu.csv"].splitlines()
        rows = len(imu_lines) - 1
        kind = data.draw(st.sampled_from(["cell", "short", "gap"]), label="kind")
        if kind == "gap":
            a = data.draw(st.integers(1, rows - 1), label="first dropped row")
            b = data.draw(st.integers(a + 1, min(rows, a + 60)), label="end of the block")
            edited = imu_lines[:a] + imu_lines[b:]  # drops data rows a..b-1 (lines a+1..b)
        else:
            r = data.draw(st.integers(1, rows), label="row")
            cells = imu_lines[r].split(",")
            if kind == "cell":
                col = data.draw(st.integers(0, len(cells) - 1), label="column")
                cells[col] = data.draw(st.sampled_from(["nan", "inf", "-inf"]), label="value")
            else:
                cells = cells[: data.draw(st.integers(1, len(cells) - 1), label="kept")]
            edited = imu_lines[:r] + [",".join(cells)] + imu_lines[r + 1 :]
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            for name, text in short_streams.items():
                (out / name).write_text(text)
            (out / "imu.csv").write_text("\n".join(edited) + "\n")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = main(["--out", str(out), "run"])
        err = stderr.getvalue()
        if kind != "gap":
            assert code == 2 and f"imu.csv:{r + 1}: " in err
            return
        # the first fix, in file order, whose IMU epoch was dropped
        kept = {float(line.split(",")[0]) for line in edited[1:]}
        fixes = short_streams["gnss.csv"].splitlines()[1:]
        orphans = [k for k, line in enumerate(fixes) if float(line.split(",")[0]) not in kept]
        if orphans:
            assert code == 2 and f"gnss.csv:{orphans[0] + 2}: no IMU epoch" in err
        else:
            assert code == 0, err


class TestVerify:
    def test_pass_and_report(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "verify"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        names = {c["check"] for c in report["checks"]}
        assert {"group_affine", "lift_equivariance", "gamma_integrals",
                "phi_left_vs_rk4", "phi_right_vs_frozen_rk4"} <= names
        for c in report["checks"]:
            assert np.isfinite(c["max_residual"])
        assert (tmp_path / "verify.json").exists()

    def test_tightened_tolerance_fails(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "--set", "tol_phi_left=1e-15", "verify"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False
        failing = [c for c in report["checks"] if not c["passed"]]
        assert failing and failing[0]["check"] == "phi_left_vs_rk4"


class TestObservabilityCmd:
    def test_report_structure(self, capsys):
        assert main(["observability"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["left"]["rank"] == 14
        assert report["left"]["null_phi_gravity_angle_rad"] <= 1e-3
        assert "right" in report


class TestUsage:
    def test_runtime_runs_without_scipy(self, tmp_path):
        """numpy is the only runtime dependency: ``import eqnav.cli`` loads
        no scipy module, and with scipy blocked simulate, run (both
        conventions) and verify exit 0."""
        code = f"""
import sys
sys.modules["scipy"] = None  # any import of scipy now fails
import eqnav.cli
assert [m for m, v in sys.modules.items() if m.startswith("scipy") and v is not None] == []
out = {str(tmp_path)!r}
sets = sum([["--set", o] for o in {fast_overrides(duration=2)!r}], [])
assert eqnav.cli.main(["--out", out] + sets + ["simulate"]) == 0
for conv in ("left", "right"):
    assert eqnav.cli.main(["--out", out] + sets + ["--convention", conv, "run"]) == 0
assert eqnav.cli.main(["verify"]) == 0
"""
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=tmp_path)

    def test_bad_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
