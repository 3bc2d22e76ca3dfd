"""Truth generation, inverse-IMU synthesis, GNSS synthesis, gravity checks."""

import dataclasses
import math
import re

import numpy as np
import pytest

import eqnav.filter as flt
import eqnav.kinematics as kin
import eqnav.liegroup as lg
import eqnav.sim as sim
from eqnav.errordyn import Convention, LeverArm, NoiseParams
from eqnav.filter import FilterState, GnssFix, run
from eqnav.kinematics import ImuSample, integrate_imu
from eqnav.sim import (
    SensorErrorSpec,
    TrajectorySpec,
    generate_truth,
    gravity_perturbation_check,
    synthesize_gnss,
    synthesize_imu,
)
from oracles import mech_deriv_ecef_ib, profile_sample


class TestTrajectorySpec:
    @pytest.mark.parametrize(
        "profile, field, value",
        [
            ("constant-turn", "lat_deg", math.nan),
            ("constant-turn", "lon_deg", math.inf),
            ("constant-turn", "height", math.nan),
            ("constant-turn", "speed", math.nan),
            ("constant-turn", "turn_rate", math.nan),
            ("constant-turn", "turn_rate", -math.inf),
            ("static", "height", math.nan),
            ("constant-turn", "lat_deg", 95.0),
            ("static", "lat_deg", -90.5),
            ("constant-turn", "turn_rate", 0.0),
            ("figure-eight", "turn_rate", 0.0),
            ("figure-eight", "speed", 0.0),
        ],
    )
    def test_degenerate_value_names_field(self, profile, field, value):
        with pytest.raises(ValueError, match=rf"TrajectorySpec\.{field}\b"):
            TrajectorySpec(profile=profile, **{field: value})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lat_deg": 90.0},
            {"lat_deg": -90.0, "profile": "figure-eight"},
            {"profile": "static", "turn_rate": 0.0},
            {"profile": "static", "speed": 0.0},
            {"speed": 0.0},
        ],
        ids=["north-pole", "south-pole-figure-eight", "static-no-turn", "static-no-speed",
             "turn-on-the-spot"],
    )
    def test_edge_values_synthesize(self, earth, kwargs):
        spec = TrajectorySpec(duration=1.0, imu_rate=20.0, **kwargs)
        truth = generate_truth(spec, earth)
        imu = synthesize_imu(truth, earth, SensorErrorSpec())
        assert len(truth.samples) == len(imu) == 20


class TestSensorErrorSpec:
    @pytest.mark.parametrize("field", ["gyro_psd", "accel_psd"])
    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_bad_psd_names_field(self, field, value):
        with pytest.raises(ValueError, match=rf"^SensorErrorSpec\.{field} must be finite"):
            SensorErrorSpec(**{field: value})


class TestGenerateTruth:
    def test_row_count(self, earth):
        spec = TrajectorySpec(profile="static", duration=60.0, imu_rate=200.0)
        truth = generate_truth(spec, earth)
        assert len(truth.samples) == 12000

    @pytest.mark.parametrize("duration, imu_rate, count", [
        (math.inf, 200.0, "inf"), (60.0, math.inf, "inf"), (1e308, 200.0, "inf"),
        (1e300, 200.0, "2e+302"), (2.0**58, 4.0, "1.152921504606847e+18"),
    ])
    def test_unformable_sample_count_named(self, earth, duration, imu_rate, count):
        """A sample count past numpy's largest array of times (2**60 of
        them) raises ValueError naming it, before any array is formed."""
        spec = TrajectorySpec(profile="static", duration=duration, imu_rate=imu_rate)
        want = f"duration * imu_rate = {count} IMU samples: more than an array can hold"
        with pytest.raises(ValueError, match=re.escape(want)):
            generate_truth(spec, earth)

    def test_static_velocity_identity(self, earth):
        spec = TrajectorySpec(profile="static", duration=1.0, imu_rate=10.0)
        truth = generate_truth(spec, earth)
        for _, x in truth.samples:
            v_eb = x.vel - np.cross(earth.omega_vec, x.pos)
            assert np.linalg.norm(v_eb) <= 1e-12

    def test_constant_turn_speed(self, earth):
        spec = TrajectorySpec(
            profile="constant-turn", duration=30.0, imu_rate=20.0, speed=12.5,
            turn_rate=0.05,
        )
        truth = generate_truth(spec, earth)
        for _, x in truth.samples[:: 40]:
            v_eb = x.vel - np.cross(earth.omega_vec, x.pos)
            assert abs(np.linalg.norm(v_eb) - 12.5) <= 1e-10

    @pytest.mark.parametrize("profile", ["static", "constant-turn", "figure-eight"])
    def test_mechanization_residual_fd(self, earth, profile):
        # central finite differences of the sampled truth vs the exact
        # mechanization right-hand side
        spec = TrajectorySpec(profile=profile, duration=2.0, imu_rate=1000.0,
                              speed=10.0, turn_rate=0.05)
        truth = generate_truth(spec, earth)
        h = 1.0 / spec.imu_rate
        worst = 0.0
        for k in (1, 500, 1500):
            prev_m = truth.samples[k - 1][1].as_matrix()
            cur = truth.samples[k][1]
            next_m = truth.samples[k + 1][1].as_matrix()
            fd = (next_m - prev_m) / (2 * h)
            omega_b, f_b = truth.profile.imu_true(truth.samples[k][0])
            want = mech_deriv_ecef_ib(earth, cur.as_matrix(), omega_b, f_b)
            rel = np.abs(fd - want)[0:3, :].max() / max(1.0, np.abs(want).max())
            worst = max(worst, rel)
        assert worst <= 1e-6

    def test_analytic_derivative_consistency(self, earth):
        spec = TrajectorySpec(profile="figure-eight", duration=5.0, imu_rate=100.0)
        truth = generate_truth(spec, earth)
        for t in (0.0, 1.23, 4.5):
            omega_b, f_b = truth.profile.imu_true(t)
            want = mech_deriv_ecef_ib(
                earth, truth.profile.state(t).as_matrix(), omega_b, f_b
            )
            got = truth.profile.state_derivative(t)
            assert np.abs(got - want).max() <= 1e-9


class TestSynthesizeImu:
    def test_static_identities(self, earth):
        spec = TrajectorySpec(profile="static", duration=1.0, imu_rate=10.0)
        truth = generate_truth(spec, earth)
        imu = synthesize_imu(truth, earth, SensorErrorSpec())
        x0 = truth.samples[0][1]
        want_gyro = x0.rot.T @ earth.omega_vec
        want_accel = -(x0.rot.T @ earth.gravity_ecef(x0.pos))
        for s in imu:
            assert np.linalg.norm(s.gyro - want_gyro) <= 1e-15
            assert np.linalg.norm(s.accel - want_accel) <= 1e-11

    def test_bias_applied(self, earth, rng):
        spec = TrajectorySpec(profile="static", duration=0.5, imu_rate=10.0)
        truth = generate_truth(spec, earth)
        bg, ba = rng.normal(size=3) * 1e-4, rng.normal(size=3) * 1e-3
        clean = synthesize_imu(truth, earth, SensorErrorSpec())
        biased = synthesize_imu(truth, earth, SensorErrorSpec(bg, ba))
        np.testing.assert_allclose(biased[0].gyro - clean[0].gyro, bg, atol=0)
        np.testing.assert_allclose(biased[0].accel - clean[0].accel, ba, atol=0)

    def test_seed_reproducible(self, earth):
        spec = TrajectorySpec(profile="constant-turn", duration=1.0, imu_rate=50.0)
        truth = generate_truth(spec, earth)
        errs = SensorErrorSpec(gyro_psd=1e-8, accel_psd=1e-6, seed=42)
        a = synthesize_imu(truth, earth, errs)
        b = synthesize_imu(truth, earth, errs)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.gyro, sb.gyro)
            np.testing.assert_array_equal(sa.accel, sb.accel)

    @pytest.mark.parametrize(
        "profile,bound", [("static", 1e-9), ("constant-turn", 1e-6)]
    )
    def test_closed_loop(self, earth, profile, bound):
        spec = TrajectorySpec(
            profile=profile, duration=60.0, imu_rate=200.0, speed=10.0, turn_rate=0.02
        )
        truth = generate_truth(spec, earth)
        imu = synthesize_imu(truth, earth, SensorErrorSpec())
        path = integrate_imu(truth.samples[0][1], imu, earth)
        pos_err = max(
            np.linalg.norm(x.pos - xt.pos)
            for (_, x), (_, xt) in zip(path, truth.samples)
        )
        att_err = max(
            np.linalg.norm(lg.so3_log(x.rot @ xt.rot.T))
            for (_, x), (_, xt) in zip(path, truth.samples)
        )
        assert pos_err <= bound
        assert att_err <= 1e-8

    def test_closed_loop_figure_eight(self, earth):
        # stronger jerk: documented second-order floor at 200 Hz
        spec = TrajectorySpec(
            profile="figure-eight", duration=30.0, imu_rate=200.0, speed=10.0,
            turn_rate=0.02,
        )
        truth = generate_truth(spec, earth)
        imu = synthesize_imu(truth, earth, SensorErrorSpec())
        path = integrate_imu(truth.samples[0][1], imu, earth)
        pos_err = max(
            np.linalg.norm(x.pos - xt.pos)
            for (_, x), (_, xt) in zip(path, truth.samples)
        )
        assert pos_err <= 1e-6


class TestSynthesizeGnss:
    def test_noise_free_zero_lever(self, earth):
        spec = TrajectorySpec(profile="constant-turn", duration=5.0, imu_rate=20.0,
                              gnss_rate=1.0)
        truth = generate_truth(spec, earth)
        fixes = synthesize_gnss(truth, np.zeros(3), 1.0, 1e-30 * np.eye(3), seed=0)
        tm = dict(truth.samples)
        for f in fixes:
            assert np.linalg.norm(f.pos_ecef - tm[f.t].pos) <= 1e-9

    def test_lever_arm_offset(self, earth):
        spec = TrajectorySpec(profile="constant-turn", duration=5.0, imu_rate=20.0)
        truth = generate_truth(spec, earth)
        lever = np.array([0.5, 0.3, -1.2])
        fixes = synthesize_gnss(truth, lever, 1.0, 1e-30 * np.eye(3), seed=0)
        tm = dict(truth.samples)
        for f in fixes:
            x = tm[f.t]
            want = x.pos + x.rot @ lever
            assert np.linalg.norm(f.pos_ecef - want) <= 1e-9

    def test_empirical_covariance(self, earth):
        spec = TrajectorySpec(profile="static", duration=200.0, imu_rate=50.0,
                              gnss_rate=50.0)
        truth = generate_truth(spec, earth)
        cov = np.diag([4.0, 1.0, 0.25])
        fixes = synthesize_gnss(truth, np.zeros(3), 50.0, cov, seed=3)
        assert len(fixes) >= 9999
        tm = dict(truth.samples)
        errs = np.array([f.pos_ecef - tm[f.t].pos for f in fixes])
        emp = errs.T @ errs / len(errs)
        for i in range(3):
            assert abs(emp[i, i] - cov[i, i]) <= 0.1 * cov[i, i]

    def test_rate_bound(self, earth):
        spec = TrajectorySpec(profile="static", duration=1.0, imu_rate=10.0)
        truth = generate_truth(spec, earth)
        with pytest.raises(ValueError):
            synthesize_gnss(truth, np.zeros(3), 20.0, np.eye(3), seed=0)

    @pytest.mark.parametrize(
        "rate, lever, cov, message",
        [
            (-5.0, np.zeros(3), np.eye(3), "rate must be positive, got -5.0"),
            (0.0, np.zeros(3), np.eye(3), "rate must be positive, got 0.0"),
            (math.nan, np.zeros(3), np.eye(3), "rate must be positive, got nan"),
            (1.0, np.array([0.0, math.nan, 0.0]), np.eye(3), "lever contains non-finite values"),
            (1.0, np.zeros(3), np.diag([1.0, math.nan, 1.0]), "cov contains non-finite values"),
            (1.0, np.zeros(3), np.diag([1.0, -1.0, 1.0]), "cov must be positive definite"),
            (1.0, np.zeros(3), np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
             "cov must be symmetric"),
        ],
        ids=["negative-rate", "zero-rate", "nan-rate", "nan-lever", "nan-cov", "indefinite-cov",
             "asymmetric-cov"],
    )
    def test_bad_argument_named(self, earth, monkeypatch, rate, lever, cov, message):
        """Rejected before any draw, naming the argument; the covariance
        with GnssFix.cov's messages."""
        truth = generate_truth(TrajectorySpec(duration=1.0, imu_rate=50.0), earth)

        def no_draw(*args, **kwargs):
            raise AssertionError("drew noise")

        monkeypatch.setattr(sim.np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=rf"^synthesize_gnss: {message}$"):
            synthesize_gnss(truth, lever, rate, cov, seed=0)

    def test_rate_below_one_fix_per_stream(self, earth):
        """A rate whose stride passes the last sample gives no fix, also
        where imu_rate / rate overflows."""
        truth = generate_truth(TrajectorySpec(duration=1.0, imu_rate=50.0), earth)
        for rate in (0.5, 1e-310):
            assert synthesize_gnss(truth, np.zeros(3), rate, np.eye(3), seed=0) == []


class TestStackedSynthesis:
    """The stacked streams against the per-sample formulas, bit for bit.

    Each stream comes from one stacked pass over its times; every row is
    the same floating-point operations as the per-sample closed forms in
    ``oracles.profile_sample`` (numpy's float64 sin/cos are libm's), so the
    bound on every synthesized value is zero.
    """

    @staticmethod
    def spec(profile, lat_deg=-33.0):
        return TrajectorySpec(profile=profile, lat_deg=lat_deg, duration=8.0,
                              imu_rate=25.0, speed=12.0, turn_rate=0.07)

    # at a pole the origin has no x, y offset to round the path's last bits away
    @pytest.mark.parametrize("lat_deg", [-33.0, 90.0])
    @pytest.mark.parametrize("profile", ["static", "constant-turn", "figure-eight"])
    def test_truth_and_imu_match_per_sample_formulas(self, earth, profile, lat_deg):
        spec = self.spec(profile, lat_deg)
        truth = generate_truth(spec, earth)
        imu = synthesize_imu(truth, earth, SensorErrorSpec())
        assert [t for t, _ in truth.samples] == [s.t for s in imu] == truth.times.tolist()
        for (t, x), s in zip(truth.samples, imu):
            rot, v_ib, r_eb, omega_b, f_b = profile_sample(spec, earth, t)
            for got, want in ((x.rot, rot), (x.vel, v_ib), (x.pos, r_eb),
                              (s.gyro, omega_b), (s.accel, f_b)):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("profile", ["static", "constant-turn", "figure-eight"])
    def test_noise_is_per_sample_draws(self, earth, profile):
        truth = generate_truth(self.spec(profile), earth)
        bg, ba = np.array([1e-4, -2e-4, 3e-5]), np.array([2e-3, 0.0, -1e-3])
        errs = SensorErrorSpec(bg, ba, gyro_psd=4e-8, accel_psd=4e-6, seed=11)
        clean = synthesize_imu(truth, earth, SensorErrorSpec())
        noisy = synthesize_imu(truth, earth, errs)
        rng = np.random.default_rng(11)
        sg = math.sqrt(4e-8 * 25.0)
        sa = math.sqrt(4e-6 * 25.0)
        for c, n in zip(clean, noisy):
            gyro_draw, accel_draw = rng.standard_normal(3), rng.standard_normal(3)
            np.testing.assert_array_equal(n.gyro, c.gyro + bg + sg * gyro_draw)
            np.testing.assert_array_equal(n.accel, c.accel + ba + sa * accel_draw)

    @pytest.mark.parametrize("lat_deg", [-33.0, 90.0])
    @pytest.mark.parametrize("profile", ["static", "constant-turn", "figure-eight"])
    def test_gnss_fixes_match_per_sample_formulas(self, earth, profile, lat_deg):
        spec = self.spec(profile, lat_deg)
        truth = generate_truth(spec, earth)
        lever = np.array([0.5, 0.3, -1.2])
        cov = np.array([[4.0, 0.5, 0.0], [0.5, 1.0, 0.1], [0.0, 0.1, 0.25]])
        fixes = synthesize_gnss(truth, lever, 5.0, cov, seed=13)
        rng = np.random.default_rng(13)
        chol = np.linalg.cholesky(cov)
        want_times = truth.times[5::5].tolist()
        assert [f.t for f in fixes] == want_times
        for f, t in zip(fixes, want_times):
            rot, _, r_eb, _, _ = profile_sample(spec, earth, t)
            want = r_eb + rot @ lever + chol @ rng.standard_normal(3)
            np.testing.assert_array_equal(f.pos_ecef, want)

    @pytest.mark.parametrize("lat_deg", [-33.0, 90.0])
    @pytest.mark.parametrize("profile", ["static", "constant-turn", "figure-eight"])
    def test_gnss_reads_the_truth_stack(self, earth, profile, lat_deg):
        """The truth's rows at the fix epochs equal a fresh stack at the fix
        times, and the fixes the GNSS formulas on that fresh stack."""
        truth = generate_truth(self.spec(profile, lat_deg), earth)
        times = truth.times[5::5]
        fresh = truth.profile.stack(times)
        for got, want in zip(truth.rows, fresh):
            np.testing.assert_array_equal(got[5::5], want)
        lever = np.array([0.5, 0.3, -1.2])
        cov = np.array([[4.0, 0.5, 0.0], [0.5, 1.0, 0.1], [0.0, 0.1, 0.25]])
        fixes = synthesize_gnss(truth, lever, 5.0, cov, seed=13)
        noise = np.random.default_rng(13).standard_normal((times.size, 3))
        want = fresh.pos + fresh.rot @ lever + (np.linalg.cholesky(cov) @ noise[:, :, None])[..., 0]
        np.testing.assert_array_equal(np.array([f.pos_ecef for f in fixes]), want)

    @pytest.mark.parametrize("profile", ["static", "constant-turn", "figure-eight"])
    def test_single_time_methods_are_rows_of_the_stack(self, earth, profile):
        truth = generate_truth(self.spec(profile), earth)
        x = truth.profile.stack(truth.times)
        for k in (0, 1, 77, truth.times.size - 1):
            t = truth.times[k]
            omega_b, f_b = truth.profile.imu_true(t)
            np.testing.assert_array_equal(omega_b, x.omega_b[k])
            np.testing.assert_array_equal(f_b, x.f_b[k])
            state = truth.profile.state(t)
            np.testing.assert_array_equal(state.rot, x.rot[k])
            np.testing.assert_array_equal(state.vel, x.vel[k])
            np.testing.assert_array_equal(state.pos, x.pos[k])


class TestStreamChecks:
    """Each stream is checked once on its stack; the first rejected row
    raises its record constructor's own message, and the records hold
    read-only views of the checked stacks."""

    SPEC = dict(profile="figure-eight", duration=8.0, imu_rate=25.0, speed=12.0, turn_rate=0.07)
    K = 75  # a middle row, the epoch of fix 14 at 5 Hz

    def truth(self, earth):
        return generate_truth(TrajectorySpec(**self.SPEC), earth)

    def spoiled(self, a, value):
        """A copy of ``a`` with ``value`` in row K: in one entry, or, for
        ``"scale"``, as a scaling of the whole row."""
        a = np.array(a)
        if value == "scale":
            a[self.K] *= 1.001
        else:
            a.reshape(len(a), -1)[self.K, -1] = value
        return a

    @pytest.mark.parametrize(
        "field, value",
        [("rot", math.nan), ("rot", math.inf), ("rot", "scale"), ("vel", math.nan),
         ("vel", -math.inf), ("pos", math.nan), ("pos", math.inf)],
    )
    def test_truth_first_rejected_row(self, earth, monkeypatch, field, value):
        x = self.truth(earth).rows
        x = x._replace(**{field: self.spoiled(getattr(x, field), value)})
        monkeypatch.setattr(sim._Profile, "stack", lambda profile, t: x)
        with pytest.raises(ValueError) as want:
            lg.GroupElement(x.rot[self.K], x.vel[self.K], x.pos[self.K], lg.FrameTag.ECEF_IB)
        with pytest.raises(ValueError) as got:
            self.truth(earth)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("field", ["t", "gyro", "accel"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_imu_first_rejected_row(self, earth, field, value):
        truth = self.truth(earth)
        rows = {"t": truth.times, "gyro": truth.rows.omega_b, "accel": truth.rows.f_b}
        rows[field] = self.spoiled(rows[field], value)
        spoiled = dataclasses.replace(
            truth, times=rows["t"], rows=truth.rows._replace(omega_b=rows["gyro"],
                                                             f_b=rows["accel"]))
        with pytest.raises(ValueError) as want:
            ImuSample(rows["t"][self.K], rows["gyro"][self.K], rows["accel"][self.K])
        with pytest.raises(ValueError) as got:
            synthesize_imu(spoiled, earth, SensorErrorSpec())
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("field", ["t", "pos_ecef"])
    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_gnss_first_rejected_row(self, earth, field, value):
        truth = self.truth(earth)
        if field == "t":
            spoiled = dataclasses.replace(truth, times=self.spoiled(truth.times, value))
        else:
            pos = self.spoiled(truth.rows.pos, value)
            spoiled = dataclasses.replace(truth, rows=truth.rows._replace(pos=pos))
        fix = synthesize_gnss(truth, np.zeros(3), 5.0, np.eye(3), seed=2)[14]
        row = {"t": fix.t, "pos_ecef": fix.pos_ecef.copy()}
        if field == "t":
            row["t"] = value
        else:
            row["pos_ecef"][-1] = value
        with pytest.raises(ValueError) as want:
            GnssFix(row["t"], row["pos_ecef"], np.eye(3))
        with pytest.raises(ValueError) as got:
            synthesize_gnss(spoiled, np.zeros(3), 5.0, np.eye(3), seed=2)
        assert str(got.value) == str(want.value)

    def test_records_are_read_only(self, earth):
        truth = self.truth(earth)
        imu = synthesize_imu(truth, earth, SensorErrorSpec(gyro_psd=1e-8, seed=3))
        fixes = synthesize_gnss(truth, np.array([0.5, 0.3, -1.2]), 5.0, np.eye(3), seed=4)
        arrays = [truth.times, *truth.rows]
        arrays += [a for _, x in truth.samples for a in (x.rot, x.vel, x.pos)]
        arrays += [a for s in imu for a in (s.gyro, s.accel)]
        arrays += [a for f in fixes for a in (f.pos_ecef, f.cov)]
        assert not any(a.flags.writeable for a in arrays)


class TestRecordStreams:
    """The synthesized IMU stream and the truth's samples are read-only
    sequences over their checked stacks: a record is made when it is first
    read, with the bits of the records the stacks gave one by one."""

    SPEC = dict(profile="figure-eight", duration=2.0, imu_rate=50.0, speed=10.0, turn_rate=0.3)
    ERRORS = SensorErrorSpec(np.full(3, 1e-5), np.full(3, 1e-4), 4e-8, 4e-6, seed=5)

    @pytest.fixture
    def streams(self, earth):
        truth = generate_truth(TrajectorySpec(**self.SPEC), earth)
        return truth, synthesize_imu(truth, earth, self.ERRORS)

    @pytest.fixture
    def built(self, monkeypatch):
        """The number of IMU samples built since the fixture was set up."""
        count, trusted = [0], kin._trusted

        def counted(cls, **fields):
            count[0] += cls is ImuSample
            return trusted(cls, **fields)

        monkeypatch.setattr(kin, "_trusted", counted)
        return count

    def test_records_equal_eager_records(self, earth, streams):
        truth, imu = streams
        times = truth.times.tolist()
        rates = sim._imu_rows(truth.times, truth.rows, truth.profile.spec.imu_rate, self.ERRORS)
        want_imu = [ImuSample(t, g, a) for t, g, a in zip(times, rates[:, 0], rates[:, 1])]
        want_truth = [(t, lg.GroupElement(r, v, q, lg.FrameTag.ECEF_IB))
                      for t, r, v, q in zip(times, truth.rows.rot, truth.rows.vel, truth.rows.pos)]
        assert len(imu) == len(truth.samples) == len(want_imu) == 100
        for s, want in zip(imu, want_imu):
            assert type(s) is ImuSample and type(s.t) is float and s.t == want.t
            for got, arr in ((s.gyro, want.gyro), (s.accel, want.accel)):
                np.testing.assert_array_equal(got, arr)
                assert not got.flags.writeable
        for (t, x), (t_want, x_want) in zip(truth.samples, want_truth):
            assert type(t) is float and t == t_want and x.frame is x_want.frame
            for got, arr in ((x.rot, x_want.rot), (x.vel, x_want.vel), (x.pos, x_want.pos)):
                np.testing.assert_array_equal(got, arr)
                assert not got.flags.writeable

    def test_sequence_operations(self, earth, streams):
        truth, imu = streams
        records = list(imu)
        assert len(records) == len(imu) and all(a is b for a, b in zip(records, imu))
        assert imu[-1] is records[-1] and imu[-len(imu)] is records[0]
        for key in (slice(5, 9), slice(-7, None), slice(None, None, -3), slice(2, 50, 7),
                    slice(40, 10), slice(-200, 3)):
            part = imu[key]
            assert type(part) is type(imu)
            assert list(part) == records[key]
            assert [t for t, _ in truth.samples[key]] == truth.times.tolist()[key]
        assert imu[10:20][-2] is records[18] and imu[::2][3:5][1] is records[8]
        joined = imu[:5] + [ImuSample(imu[4].t, imu[4].gyro, imu[4].accel)] + imu[5:9]
        assert type(joined) is list and len(joined) == 10
        assert joined[:5] == records[:5] and joined[6:] == records[5:9]
        assert imu[3:5] + imu[:1] == records[3:5] + records[:1]
        with pytest.raises(IndexError):
            imu[len(imu)]
        with pytest.raises(IndexError):
            imu[5:9][4]

    def test_records_built_when_read(self, earth, built):
        imu = synthesize_imu(generate_truth(TrajectorySpec(**self.SPEC), earth), earth,
                             self.ERRORS)
        assert built[0] == 0
        part = imu[10:60]
        assert built[0] == 0
        assert imu[12] is imu[12] is part[2] is part[-48]  # built once
        assert built[0] == 1
        for _ in zip(range(3), imu[40:]):  # iteration builds what it yields
            pass
        assert built[0] == 4
        assert list(imu[10:14])[2] is imu[12]
        assert built[0] == 7

    @pytest.mark.parametrize("key", [slice(None), slice(7, 61), slice(-30, None),
                                     slice(3, 90, 4), slice(50, 5, -2), slice(20, 20)])
    def test_stream_stacks_are_stacked_records(self, streams, key):
        imu = streams[1][key]
        got, want = kin._stream(imu), kin._stream(list(imu))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            np.testing.assert_array_equal(a, b)
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("conv", list(Convention))
    def test_run_on_stream_builds_no_sample(self, earth, streams, built, conv):
        """run() reads the stream's stacks: no sample is built, and the
        records are those of the run on its list, bit for bit."""
        truth, imu = streams
        lever = np.array([0.5, 0.3, -1.2])
        gnss = synthesize_gnss(truth, lever, 5.0, np.eye(3), seed=6)
        p0 = np.diag([4e-8] * 3 + [4e-4] * 3 + [0.25] * 3 + [1e-10] * 3 + [1e-8] * 3)
        st = FilterState(truth.samples[3][1], np.zeros(3), np.zeros(3), p0, truth.samples[3][0],
                         conv)
        args = st, NoiseParams(4e-8, 4e-6, 1e-16, 1e-14), earth, LeverArm(lever)
        biases = self.ERRORS.gyro_bias, self.ERRORS.accel_bias
        for part in (imu, imu[:77]):
            fixes = [f for f in gnss if f.t <= part[-1].t]
            built[0] = 0
            lazy = run(part, fixes, *args, truth=truth.samples, truth_biases=biases)
            assert built[0] == 0
            eager = run(list(part), fixes, *args, truth=list(truth.samples), truth_biases=biases)
            assert len(lazy) == len(eager) == len(part) - 3
            for a, b in zip(lazy, eager):
                assert a.t == b.t and a.nis == b.nis and a.nees == b.nees
                for x, y in ((a.state.x.rot, b.state.x.rot), (a.state.x.vel, b.state.x.vel),
                             (a.state.x.pos, b.state.x.pos), (a.state.p, b.state.p),
                             (a.p_diag, b.p_diag), (a.innovation, b.innovation),
                             (a.error, b.error)):
                    np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("frame", [lg.FrameTag.ECEF_IB, lg.FrameTag.NED_EB])
    def test_integrate_imu_on_stream_builds_no_sample(self, earth, streams, built, frame):
        truth, imu = streams
        x0 = truth.samples[0][1]
        if frame is lg.FrameTag.NED_EB:
            x0 = kin.frame_translation(1, kin.frame_translation(3, x0, earth, reverse=True),
                                       earth, reverse=True)
        for part in (imu, imu[40:]):
            lazy = integrate_imu(x0, part, earth, frame=frame)
            assert built[0] == 0
            eager = integrate_imu(x0, list(part), earth, frame=frame)
            assert len(lazy) == len(eager) == len(part)
            for (t, x), (t_want, want) in zip(lazy, eager):
                assert t == t_want
                for a, b in ((x.rot, want.rot), (x.vel, want.vel), (x.pos, want.pos)):
                    np.testing.assert_array_equal(a, b)
            built[0] = 0

class TestOutputRecords:
    """run() and integrate_imu hand back read-only sequences over their
    windows' blocks: a record of a window's interior is built when it is
    first read, with the bits of the records the loop over the blocks made
    at once, which is kept below as the reference."""

    SPEC = dict(profile="figure-eight", duration=8.0, imu_rate=50.0, speed=10.0, turn_rate=0.3)
    ERRORS = SensorErrorSpec(np.full(3, 1e-5), np.full(3, 1e-4), 4e-8, 4e-6, seed=5)
    LEVER = np.array([0.5, 0.3, -1.2])

    @pytest.fixture(scope="class")
    def streams(self, earth):
        """Truth, IMU (400 epochs) and 5 Hz fixes with none from 2 to 6 s,
        so the window over that gap is cut at the window length."""
        truth = generate_truth(TrajectorySpec(**self.SPEC), earth)
        gnss = synthesize_gnss(truth, self.LEVER, 5.0, np.eye(3), seed=6)
        return truth, synthesize_imu(truth, earth, self.ERRORS), [
            f for f in gnss if not 2.0 <= f.t <= 6.0]

    @pytest.fixture
    def built(self, monkeypatch):
        """The records, filter states and group elements built, by class,
        through the filter's and the kinematics' unchecked constructor."""
        count = {}

        def counting(trusted):
            def counted(cls, **fields):
                count[cls.__name__] = count.get(cls.__name__, 0) + 1
                return trusted(cls, **fields)
            return counted

        monkeypatch.setattr(flt, "_trusted", counting(flt._trusted))
        monkeypatch.setattr(kin, "_trusted", counting(kin._trusted))
        return count

    def args(self, earth, streams, conv):
        truth, imu, gnss = streams
        p0 = np.diag([4e-8] * 3 + [4e-4] * 3 + [0.25] * 3 + [1e-10] * 3 + [1e-8] * 3)
        # the initial state between two IMU epochs
        t0 = 0.5 * (truth.times[3].item() + truth.times[4].item())
        st = FilterState(truth.samples[3][1], np.zeros(3), np.zeros(3), p0, t0, conv)
        return (imu, gnss, st, NoiseParams(4e-8, 4e-6, 1e-16, 1e-14), earth,
                LeverArm(self.LEVER))

    def eager_run(self, imu, gnss, st, noise, earth, lever, truth, biases):
        """The records of run() as the loop over _run's blocks made them,
        every one at once: the reference."""
        truth = list(truth)
        truth_at = flt._truth_at(np.array([t for t, _ in truth]), lambda j: truth[j][1])
        blocks = flt._run(*kin._stream(imu), gnss, st, noise, earth, lever, truth_at, biases,
                          1e-6)
        frame, conv = st.x.frame, st.convention
        records = []
        for times, rot, vel, pos, bg, ba, ps, end, fix in blocks:
            p_diags = np.diagonal(ps, 0, 1, 2).copy()
            for t, r, v, q, p, p_diag in zip(times.tolist(), rot, vel, pos, ps, p_diags):
                x = lg._trusted(lg.GroupElement, rot=r, vel=v, pos=q, frame=frame)
                state = lg._trusted(FilterState, x=x, bg=bg, ba=ba, p=p, t=t, convention=conv)
                records.append(lg._trusted(flt.EpochRecord, t=t, state=state, p_diag=p_diag,
                                           innovation=None, nis=None, error=None, nees=None))
            records.append(flt.EpochRecord(end.t, end, np.diag(end.p).copy(), *(fix or ())))
        return records

    @staticmethod
    def eager_path(x0, samples, earth, frame):
        """The (t, state) of integrate_imu as the loop over the windows'
        trajectories made them, every one at once: the reference."""
        times, rates = kin._stream(samples)
        rates, dts = kin._intervals(times, rates)
        times = times.tolist()
        out = [(times[0], x0)]
        for a, b in kin._windows(0, [dts.size]):
            traj = kin._dead_reckoned(frame, out[-1][1], rates[a:b], dts[a:b],
                                      times[a + 1 : b + 1], earth)
            out += ((t, lg._trusted(lg.GroupElement, rot=rot, vel=vel, pos=pos, frame=x0.frame))
                    for t, rot, vel, pos in zip(times[a + 1 : b + 1], *(c[1:] for c in traj)))
        return out

    @staticmethod
    def same(got, want):
        """The same array, bit for bit, with the same shape and
        writeability; or both ``None``."""
        assert (got is None) == (want is None)
        if got is not None:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.flags.writeable == want.flags.writeable

    @pytest.mark.parametrize("conv", list(Convention))
    def test_run_records_equal_eager_records(self, earth, streams, conv):
        truth = streams[0]
        args = self.args(earth, streams, conv)
        biases = self.ERRORS.gyro_bias, self.ERRORS.accel_bias
        got = run(*args, truth=truth.samples, truth_biases=biases)
        want = self.eager_run(*args, truth.samples, biases)
        assert len(got) == len(want) == 400 - 3
        assert sum(r.nees is not None for r in want) == len(args[1]) == 18
        for a, b in zip(got, want):
            assert type(a) is flt.EpochRecord and type(a.t) is float and a.t == b.t
            assert (a.nis, a.nees) == (b.nis, b.nees)
            sa, sb = a.state, b.state
            assert type(sa) is FilterState and type(sa.x) is lg.GroupElement
            assert type(sa.t) is float and sa.t == sb.t
            assert (sa.convention, sa.x.frame) == (sb.convention, sb.x.frame)
            for x, y in ((sa.x.rot, sb.x.rot), (sa.x.vel, sb.x.vel), (sa.x.pos, sb.x.pos),
                         (sa.bg, sb.bg), (sa.ba, sb.ba), (sa.p, sb.p), (a.p_diag, b.p_diag),
                         (a.innovation, b.innovation), (a.error, b.error)):
                self.same(x, y)

    @pytest.mark.parametrize("conv", list(Convention))
    def test_run_builds_records_when_read(self, earth, streams, built, conv):
        """run() builds the states of its window ends alone, and no record
        of a window's interior; len and the last record build none, and a
        record read is built once."""
        args = self.args(earth, streams, conv)
        recs = run(*args)
        by_run = dict(built)
        # the initial epoch, the 18 windows ending at a fix, the one cut in
        # the gap and the last
        ends = len(list(flt._run(*kin._stream(args[0]), *args[1:], lambda t: None, None, 1e-6)))
        assert ends == 21
        # the windows' ends and the fixes' results alone
        assert by_run == {"FilterState": ends - 1 + 18, "GroupElement": ends - 1 + 18}
        built.clear()
        assert len(recs) == 397 and recs[-1].t == streams[0].times[-1] and recs[0].t == args[2].t
        assert recs[-1] is recs[len(recs) - 1]
        assert built == {}
        r = recs[5]
        assert recs[5] is r is recs[2:9][3] is recs[::-1][-6]
        assert built == {"EpochRecord": 1, "FilterState": 1, "GroupElement": 1}
        everything = list(recs)
        assert built["EpochRecord"] == len(recs) - ends and everything[5] is r
        joined = recs[:2] + [r] + recs[-2:]
        assert type(joined) is list and joined == everything[:2] + [r] + everything[-2:]
        assert type(recs[3:9]) is type(recs) and list(recs[3:9]) == everything[3:9]

    @pytest.mark.parametrize("frame", [lg.FrameTag.ECEF_IB, lg.FrameTag.NED_EB])
    def test_integrate_imu_states_equal_eager_states(self, earth, streams, frame):
        truth, imu, _ = streams
        x0 = truth.samples[0][1]
        if frame is lg.FrameTag.NED_EB:
            x0 = kin.frame_translation(1, kin.frame_translation(3, x0, earth, reverse=True),
                                       earth, reverse=True)
        for part in (imu, imu[7:300], list(imu[:2])):
            got = integrate_imu(x0, part, earth, frame=frame)
            want = self.eager_path(x0, part, earth, frame)
            assert len(got) == len(want) == len(part)
            assert got[0][1] is x0
            for (t, x), (t_want, x_want) in zip(got, want):
                assert type(t) is float and t == t_want and x.frame is x_want.frame
                for a, b in ((x.rot, x_want.rot), (x.vel, x_want.vel), (x.pos, x_want.pos)):
                    self.same(a, b)

    def test_integrate_imu_builds_window_ends(self, earth, streams, built):
        """integrate_imu builds each window's last state, which the next
        window starts from, and no other; len and the last state build
        none."""
        truth, imu, _ = streams
        path = integrate_imu(truth.samples[0][1], imu, earth)
        assert built == {"GroupElement": 4}  # 399 steps in windows of at most 128
        built.clear()
        assert len(path) == 400 and path[-1][0] == truth.times[-1]
        assert built == {}
        assert path[200] is path[200]
        assert built == {"GroupElement": 1}
        list(path)
        assert built == {"GroupElement": 400 - 1 - 4}

    def test_one_window_path_read_as_truth(self, earth, streams):
        """A dead-reckoned path is a truth run() reads, one window or
        several, as it reads the list of its pairs."""
        truth, imu, _ = streams
        args = self.args(earth, streams, Convention.LEFT_INVARIANT)
        for n in (100, 400):
            path = integrate_imu(truth.samples[0][1], imu[:n], earth)
            gnss = [f for f in args[1] if f.t <= truth.times[n - 1]]
            got = run(imu[:n], gnss, *args[2:], truth=path)
            want = run(imu[:n], gnss, *args[2:], truth=list(path))
            assert sum(r.nees is not None for r in got) > 0
            assert [r.nees for r in got] == [r.nees for r in want]


class TestGravityPerturbation:
    def test_zero_dr(self, earth):
        r = earth.geodetic_to_ecef(0.3, 0.1, 500.0)
        rep = gravity_perturbation_check(r, np.zeros(3), earth)
        assert np.abs(rep.exact).max() == 0.0

    def test_radial_down_model(self, earth):
        # 100 m radial perturbation: the down-channel model with the positive
        # coefficient tracks the exact change; its residual is set by the
        # centrifugal gradient and the Gaussian-vs-geocentric radius gap
        # (measured ~6e-3 relative, frozen here), not the quadratic term
        r = earth.geodetic_to_ecef(math.radians(45.0), 0.1, 500.0)
        dr = 100.0 * r / np.linalg.norm(r)
        rep = gravity_perturbation_check(r, dr, earth)
        assert rep.rel_err_ned_down_plus <= 1e-2
        assert rep.rel_err_ned_down_minus > 1.0  # wrong sign roughly doubles
        # the isotropic model misses the radial gradient sign and factor
        assert rep.rel_err_ecef > 1.0

    def test_tangential_isotropic_model(self, earth):
        r = earth.geodetic_to_ecef(math.radians(45.0), 0.1, 500.0)
        lat, lon, _ = earth.ecef_to_geodetic(r)
        east = earth.ned_rotation(lat, lon)[:, 1]
        rep = gravity_perturbation_check(r, 100.0 * east, earth)
        # isotropic model captures the leading tangential behavior; the
        # residual quantifies the centrifugal/ellipsoidal anisotropy
        assert rep.rel_err_ecef <= 0.05

    def test_radius_precondition(self, earth):
        with pytest.raises(ValueError):
            gravity_perturbation_check(np.array([1000.0, 0, 0]), np.zeros(3), earth)
