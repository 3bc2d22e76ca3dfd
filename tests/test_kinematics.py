"""Kinematic models: dynamics pairs, flow, lift, actions, frame translations."""

import math
import warnings

import numpy as np
import pytest

import eqnav.kinematics as kin
import eqnav.liegroup as lg
from eqnav.kinematics import (
    DynamicsPair,
    EarthModel,
    FrameTag,
    ImuSample,
    NonMonotonicTime,
    build_dynamics,
    check_dstar_action,
    check_group_affine,
    dynamics_matrix,
    flow,
    frame_translation,
    integrate_imu,
    lift,
    velocity_action,
)
from oracles import mech_deriv_ecef_eb, mech_deriv_ecef_ib, random_element, rk4_fixed, surface_state


@pytest.fixture
def imu(rng):
    return ImuSample(0.0, rng.uniform(-0.02, 0.02, 3), rng.uniform(-15.0, 15.0, 3))


def builder_state(earth, frame, lat_deg=45.0, lon_deg=7.0, h=400.0):
    lat = math.radians(lat_deg)
    c, v_eb, r0 = surface_state(earth, lat_deg, lon_deg, h)
    if frame is FrameTag.ECEF_EB:
        return lg.GroupElement(c, v_eb, r0, frame)
    if frame is FrameTag.ECEF_IB:
        return lg.GroupElement(c, v_eb + np.cross(earth.omega_vec, r0), r0, frame)
    r_n = earth.ned_position(lat, h)
    v_n = np.array([30.0, 5.0, -1.0])
    if frame is FrameTag.NED_EB:
        return lg.GroupElement(np.eye(3), v_n, r_n, frame)
    return lg.GroupElement(
        np.eye(3), v_n + np.cross(earth.omega_ie_ned(lat), r_n), r_n, frame
    )


class TestEarthModel:
    def test_default_constants(self, earth):
        assert earth.omega_ie == 7.292115e-5
        assert earth.mu == 3.986004418e14

    def test_invalid_constants(self):
        with pytest.raises(ValueError):
            EarthModel(omega_ie=0.0)
        with pytest.raises(ValueError):
            EarthModel(mu=-1.0)

    def test_curvature_radii_wgs84(self, earth):
        # independent evaluation of the standard formulas at 45 deg
        lat = math.radians(45.0)
        a, e2 = earth.semimajor_axis, earth.e2
        rm_ref = a * (1 - e2) / (1 - e2 * math.sin(lat) ** 2) ** 1.5
        rn_ref = a / math.sqrt(1 - e2 * math.sin(lat) ** 2)
        rm, rn = earth.curvature_radii(lat)
        assert rm == pytest.approx(rm_ref, abs=1e-9)
        assert rn == pytest.approx(rn_ref, abs=1e-9)
        assert 6_360_000 < rm < 6_390_000 and 6_380_000 < rn < 6_400_000

    def test_geodetic_roundtrip(self, earth, rng):
        for _ in range(50):
            lat = rng.uniform(-1.4, 1.4)
            lon = rng.uniform(-math.pi, math.pi)
            h = rng.uniform(-100, 9000)
            r = earth.geodetic_to_ecef(lat, lon, h)
            lat2, lon2, h2 = earth.ecef_to_geodetic(r)
            assert abs(lat2 - lat) < 1e-11 and abs(lon2 - lon) < 1e-12
            assert abs(h2 - h) < 1e-5

    @pytest.mark.parametrize("pole", [90.0, -90.0])
    @pytest.mark.parametrize("offset_deg", [0.0, 1e-9, 1e-7, 1e-5, 1.1e-5, 1e-4, 1e-3])
    def test_geodetic_roundtrip_near_poles(self, earth, pole, offset_deg):
        # within about 1 m of the polar axis p / cos(lat) - R_N cancels
        lat = math.radians(pole - math.copysign(offset_deg, pole))
        for lon in (0.0, 2.1):
            for h in (-100.0, 400.0, 9000.0):
                lat2, _, h2 = earth.ecef_to_geodetic(earth.geodetic_to_ecef(lat, lon, h))
                assert abs(lat2 - lat) <= 1e-12
                assert abs(h2 - h) <= 1e-6

    @pytest.mark.parametrize("pole", [90.0, -90.0])
    @pytest.mark.parametrize("offset_deg", [0.0, 1e-9, 1e-7, 1e-6, 1e-5, 1e-3])
    def test_ned_lat_height_near_poles(self, earth, pole, offset_deg):
        lat = math.radians(pole - math.copysign(offset_deg, pole))
        for h in (-100.0, 400.0, 9000.0):
            lat2, h2 = earth.ned_lat_height(earth.ned_position(lat, h))
            if offset_deg == 0.0:
                assert lat2 == lat
            assert abs(lat2 - lat) <= 1e-8
            assert abs(h2 - h) <= 1e-6

    @pytest.mark.parametrize("pole", [90.0, -90.0])
    @pytest.mark.parametrize("offset_deg", [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1.0])
    def test_ned_lat_height_full_precision_near_poles(self, earth, pole, offset_deg):
        # the latitude comes from the cosine, which has all its digits near a
        # pole, not from the sine, which has half of them there
        lat = math.radians(pole - math.copysign(offset_deg, pole))
        for h in (-100.0, 400.0, 9000.0):
            lat2, h2 = earth.ned_lat_height(earth.ned_position(lat, h))
            assert abs(lat2 - lat) <= 1e-14
            assert abs(h2 - h) <= 1e-6

    def test_ned_lat_height_roundtrip_low_altitude(self, earth, rng):
        # default branch rule is exact below half the conjugate-height gap
        for _ in range(100):
            lat = rng.uniform(-1.4, 1.4)
            gap = 0.5 * earth.semimajor_axis * earth.e2 * abs(math.cos(2 * lat))
            h = rng.uniform(-100, min(9000.0, 0.4 * gap + 1.0))
            r_n = earth.ned_position(lat, h)
            lat2, h2 = earth.ned_lat_height(r_n)
            if gap < 4 * abs(h):  # inside the crossover: roots nearly merge
                assert abs(lat2 - lat) < 2e-2
            else:
                assert abs(lat2 - lat) < 1e-10 and abs(h2 - h) < 1e-4

    def test_ned_lat_height_hint_resolves_ambiguity(self, earth, rng):
        for _ in range(100):
            lat = rng.uniform(-1.4, 1.4)
            h = rng.uniform(-100, 9000)
            r_n = earth.ned_position(lat, h)
            hint_err = rng.uniform(-5e-3, 5e-3)
            lat2, h2 = earth.ned_lat_height(r_n, lat_hint=lat + hint_err)
            gap = abs(2.0 * (abs(lat) - math.pi / 4.0))
            if gap > 2.0 * abs(hint_err):
                assert abs(lat2 - lat) < 1e-10 and abs(h2 - h) < 1e-4
            else:  # roots closer than the hint error: either root is near
                assert abs(lat2 - lat) <= gap + 1e-10

    def test_gravity_gravitation_identity(self, earth, rng):
        # plumb gravity + centrifugal equals gravitation, by construction
        r = earth.geodetic_to_ecef(0.6, 0.2, 1000.0)
        w = earth.omega_vec
        lhs = earth.gravity_ecef(r) + np.cross(w, np.cross(w, r))
        np.testing.assert_array_equal(lhs, earth.gravitation_ecef(r))

    def test_gravitation_range_decided_once(self, earth):
        """gravitation_ecef and the stacked _gravitation admit and reject the
        same positions, with the same message and no numpy warning: r . r
        past the float range (1e160, 1e300) and |r|^3 alone past it (1e103)
        are rejected, a far but finite cube (1e102) is not."""
        for x, admitted in ((1e102, True), (1e103, False), (1e160, False), (1e300, False)):
            r = np.array([x, -2.0, 3.0])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if admitted:
                    np.testing.assert_array_equal(kin._gravitation(earth, r[None])[0],
                                                  earth.gravitation_ecef(r))
                    continue
                messages = []
                for call in (lambda: earth.gravitation_ecef(r),
                             lambda: kin._gravitation(earth, np.array([[1.0, 2.0, 3.0], r]))):
                    with pytest.raises(ValueError) as exc:
                        call()
                    messages.append(str(exc.value))
                assert messages[0] == messages[1] == f"gravitation at |r| = {x:.6g} m overflows"


class TestBuildDynamics:
    def test_w1_structure(self, earth, imu):
        x = builder_state(earth, FrameTag.ECEF_IB)
        pair = build_dynamics(FrameTag.ECEF_IB, x, imu, earth)
        np.testing.assert_array_equal(pair.w1[0:3, 0:3], lg.hat(imu.gyro))
        np.testing.assert_array_equal(pair.w1[0:3, 3], imu.accel)
        assert np.all(pair.w1[0:3, 4] == 0.0)
        assert np.all(pair.w1[3:5, :] == 0.0) and np.all(pair.w2[3:5, :] == 0.0)

    def test_ecef_ib_stationary_zero_imu(self, earth):
        lat, lon, h = math.radians(45.0), math.radians(7.0), 400.0
        r0 = earth.geodetic_to_ecef(lat, lon, h)
        c = earth.ned_rotation(lat, lon)
        x = lg.GroupElement(c, np.cross(earth.omega_vec, r0), r0, FrameTag.ECEF_IB)
        zero = ImuSample(0.0, np.zeros(3), np.zeros(3))
        pair = build_dynamics(FrameTag.ECEF_IB, x, zero, earth)
        assert np.all(pair.w1 == 0.0)
        np.testing.assert_array_equal(pair.w2[0:3, 0:3], -lg.hat(earth.omega_vec))

    def test_dynamics_at_identity(self, earth, imu):
        for frame in FrameTag:
            x = builder_state(earth, frame)
            pair = build_dynamics(frame, x, imu, earth)
            f_id = dynamics_matrix(pair, lg.identity_element(frame))
            np.testing.assert_allclose(f_id, pair.w1 + pair.w2, atol=0)

    def test_frame_mismatch(self, earth, imu):
        x = builder_state(earth, FrameTag.ECEF_IB)
        with pytest.raises(lg.FrameMismatch):
            build_dynamics(FrameTag.NED_EB, x, imu, earth)

    def test_reproduces_mechanization_ecef(self, earth, imu):
        # f(X) at the builder state equals the exact mechanization derivative
        for frame, oracle in (
            (FrameTag.ECEF_IB, mech_deriv_ecef_ib),
            (FrameTag.ECEF_EB, mech_deriv_ecef_eb),
        ):
            x = builder_state(earth, frame)
            pair = build_dynamics(frame, x, imu, earth)
            got = dynamics_matrix(pair, x)
            want = oracle(earth, x.as_matrix(), imu.gyro, imu.accel)
            assert np.abs(got - want).max() <= 1e-9

    def test_eb_ib_transport_agreement(self, earth, imu):
        """EB and IB ECEF trajectories agree after the velocity-shift map."""
        x_eb = builder_state(earth, FrameTag.ECEF_EB)
        x_ib = frame_translation(3, x_eb, earth)

        def f_eb(t, m):
            return mech_deriv_ecef_eb(earth, m, imu.gyro, imu.accel)

        def f_ib(t, m):
            return mech_deriv_ecef_ib(earth, m, imu.gyro, imu.accel)

        m_eb = rk4_fixed(f_eb, x_eb.as_matrix(), 0.0, 1.0, 400)
        m_ib = rk4_fixed(f_ib, x_ib.as_matrix(), 0.0, 1.0, 400)
        mapped = frame_translation(
            3, lg.GroupElement.from_matrix(m_eb, FrameTag.ECEF_EB), earth
        )
        assert np.abs(mapped.as_matrix() - m_ib).max() <= 1e-8


class TestFlow:
    def test_zero_dt(self, earth, imu):
        x = builder_state(earth, FrameTag.ECEF_IB)
        pair = build_dynamics(FrameTag.ECEF_IB, x, imu, earth)
        assert flow(x, pair, 0.0) is x

    def test_one_sided(self, rng):
        # W2 = 0 reduces to right translation by the W1 exponential
        w1 = np.zeros((5, 5))
        xi = lg.Tangent9(rng.normal(size=3), rng.normal(size=3), np.zeros(3))
        w1[0:3, 0:3] = lg.hat(xi.phi)
        w1[0:3, 3] = xi.rho_v
        pair = DynamicsPair(w1, np.zeros((5, 5)))
        x = random_element(rng)
        got = flow(x, pair, 0.5)
        want = lg.compose(x, lg.se23_exp(lg.Tangent9(xi.phi * 0.5, xi.rho_v * 0.5, np.zeros(3))))
        assert np.abs(got.as_matrix() - want.as_matrix()).max() <= 1e-12

    def test_matches_rk4(self, rng):
        w1 = np.zeros((5, 5))
        w1[0:3, 0:3] = lg.hat(rng.normal(size=3))
        w1[0:3, 3] = rng.normal(size=3)
        w2 = np.zeros((5, 5))
        w2[0:3, 0:3] = lg.hat(rng.normal(size=3))
        w2[0:3, 3] = rng.normal(size=3)
        w2[0:3, 4] = rng.normal(size=3)
        pair = DynamicsPair(w1, w2)
        x = random_element(rng)

        def f(t, m):
            return m @ pair.w1 + pair.w2 @ m

        want = rk4_fixed(f, x.as_matrix(), 0.0, 0.01, 100)
        got = flow(x, pair, 0.01).as_matrix()
        assert np.abs(got - want).max() <= 1e-10

    def test_negative_dt_rejected(self, earth, imu):
        x = builder_state(earth, FrameTag.ECEF_IB)
        pair = build_dynamics(FrameTag.ECEF_IB, x, imu, earth)
        with pytest.raises(ValueError):
            flow(x, pair, -0.1)

    def test_piecewise_constant_inputs_vs_rk4(self, rng):
        # 1 s of 100 Hz piecewise-constant pairs: flow is exact per interval
        def rand_pair():
            w1 = np.zeros((5, 5))
            w1[0:3, 0:3] = lg.hat(rng.uniform(-0.3, 0.3, 3))
            w1[0:3, 3] = rng.uniform(-10, 10, 3)
            w2 = np.zeros((5, 5))
            w2[0:3, 0:3] = lg.hat(rng.uniform(-0.1, 0.1, 3))
            w2[0:3, 3] = rng.uniform(-10, 10, 3)
            w2[0:3, 4] = rng.uniform(-5, 5, 3)
            return DynamicsPair(w1, w2)

        x = random_element(rng)
        m = x.as_matrix()
        dt = 0.01
        for _ in range(100):
            pair = rand_pair()
            x = flow(x, pair, dt)

            def f(t, y, p=pair):
                return y @ p.w1 + p.w2 @ y

            m = rk4_fixed(f, m, 0.0, dt, 20)
        assert np.abs(x.as_matrix() - m).max() <= 1e-9


    @pytest.mark.parametrize("frame", list(FrameTag))
    def test_midpoint_step_matches_public_flow(self, earth, imu, frame):
        # half-step flow under W2 at x, W2 rebuilt at the midpoint, full step
        # from x: the scheme midpoint_step runs on its shared Gamma passes
        x = builder_state(earth, frame)
        dt = 0.01
        half = flow(x, build_dynamics(frame, x, imu, earth), dt / 2)
        want = flow(x, build_dynamics(frame, half, imu, earth), dt)
        got = kin.midpoint_step(frame, x, imu.gyro, imu.accel, dt, earth)
        np.testing.assert_array_equal(got.rot, want.rot)
        np.testing.assert_array_equal(got.vel, want.vel)
        np.testing.assert_array_equal(got.pos, want.pos)


class TestGroupAffine:
    def test_all_variants(self, earth, imu):
        for frame in FrameTag:
            x = builder_state(earth, frame)
            pair = build_dynamics(frame, x, imu, earth)
            rep = check_group_affine(pair, 1000, np.random.default_rng(3))
            assert rep.max_residual <= 1e-9, frame

    def test_identity_pair(self, earth, imu):
        x = builder_state(earth, FrameTag.ECEF_IB)
        pair = build_dynamics(FrameTag.ECEF_IB, x, imu, earth)
        eye = np.eye(5)
        f_i = eye @ pair.w1 + pair.w2 @ eye
        res = f_i - (f_i @ eye + eye @ f_i - eye @ (pair.w1 + pair.w2) @ eye)
        assert np.abs(res).max() == 0.0

    def test_corrupted_w2_detected(self, earth, imu, rng):
        # nonzero bottom row breaks the tangent structure; the check is live
        x = builder_state(earth, FrameTag.ECEF_IB)
        pair = build_dynamics(FrameTag.ECEF_IB, x, imu, earth)
        w2 = np.array(pair.w2)
        w2[3, 0:3] = 1e-2
        worst = 0.0
        for _ in range(50):
            xa = random_element(rng, vel=100.0, pos=1000.0).as_matrix()
            xb = random_element(rng, vel=100.0, pos=1000.0).as_matrix()
            worst = max(worst, kin.group_affine_residual(pair.w1, w2, xa, xb))
        assert worst > 1e-3

    def test_pair_validation(self, rng):
        bad = np.zeros((5, 5))
        bad[4, 0] = 1.0
        with pytest.raises(ValueError):
            DynamicsPair(np.zeros((5, 5)), bad)
        w1 = np.zeros((5, 5))
        w1[0, 4] = 1.0
        with pytest.raises(ValueError):
            DynamicsPair(w1, np.zeros((5, 5)))


class TestLiftAndAction:
    def test_lift_at_identity(self, earth, imu):
        x = builder_state(earth, FrameTag.ECEF_IB)
        pair = build_dynamics(FrameTag.ECEF_IB, x, imu, earth)
        got = lift(lg.identity_element(FrameTag.ECEF_IB), pair)
        np.testing.assert_allclose(got, pair.w1 + pair.w2, atol=0)

    def test_lift_without_w1(self, earth, rng):
        pair = DynamicsPair(np.zeros((5, 5)), np.zeros((5, 5)))
        w2 = np.zeros((5, 5))
        w2[0:3, 3] = rng.normal(size=3)
        pair = DynamicsPair(np.zeros((5, 5)), w2)
        for _ in range(5):
            x = random_element(rng)
            np.testing.assert_allclose(lift(x, pair), w2, atol=1e-15)

    def test_lift_equivariance(self, earth, imu, rng):
        x0 = builder_state(earth, FrameTag.ECEF_IB)
        pair = build_dynamics(FrameTag.ECEF_IB, x0, imu, earth)
        worst = 0.0
        for _ in range(1000):
            a = random_element(rng, vel=1e3, pos=1e3)
            x = random_element(rng, vel=1e3, pos=1e3)
            lam = lift(x, pair)
            moved = lift(lg.compose(a, x), velocity_action(a, pair))
            back = lg.inverse(a).as_matrix() @ moved @ a.as_matrix()
            worst = max(worst, float(np.linalg.norm(back - lam)))
        assert worst <= 1e-10

    def test_velocity_action_identity(self, earth, imu):
        x = builder_state(earth, FrameTag.ECEF_IB)
        pair = build_dynamics(FrameTag.ECEF_IB, x, imu, earth)
        same = velocity_action(lg.identity_element(), pair)
        np.testing.assert_array_equal(same.w1, pair.w1)
        np.testing.assert_allclose(same.w2, pair.w2, atol=0)

    def test_velocity_action_group_law(self, earth, imu, rng):
        x = builder_state(earth, FrameTag.ECEF_IB)
        pair = build_dynamics(FrameTag.ECEF_IB, x, imu, earth)
        worst = 0.0
        for _ in range(200):
            a = random_element(rng, vel=100.0, pos=100.0)
            b = random_element(rng, vel=100.0, pos=100.0)
            lhs = velocity_action(a, velocity_action(b, pair))
            rhs = velocity_action(lg.compose(a, b), pair)
            worst = max(worst, np.abs(lhs.w2 - rhs.w2).max())
        assert worst <= 1e-11

    def test_velocity_action_zero_w2(self, earth, imu, rng):
        w1 = np.zeros((5, 5))
        w1[0:3, 0:3] = lg.hat(imu.gyro)
        w1[0:3, 3] = imu.accel
        pair = DynamicsPair(w1, np.zeros((5, 5)))
        moved = velocity_action(random_element(rng), pair)
        np.testing.assert_array_equal(moved.w1, pair.w1)
        assert np.abs(moved.w2).max() == 0.0


class TestDstarAction:
    def make_fields(self, earth, imu):
        x = builder_state(earth, FrameTag.ECEF_IB)
        p1 = build_dynamics(FrameTag.ECEF_IB, x, imu, earth)
        w1b = np.zeros((5, 5))
        w1b[0:3, 0:3] = lg.hat(np.array([0.01, -0.03, 0.02]))
        w1b[0:3, 3] = np.array([1.0, -2.0, 0.5])
        p2 = DynamicsPair(w1b, np.zeros((5, 5)))

        def field(pair):
            def f(y):
                return dynamics_matrix(pair, y)

            return f

        return [field(p1), field(p2)]

    def test_identity_action(self, earth, imu, rng):
        fields = self.make_fields(earth, imu)
        points = [random_element(rng, vel=10, pos=100) for _ in range(5)]
        e = lg.identity_element()
        rep = check_dstar_action(e, e, fields, points)
        assert rep.composition_residual <= 1e-12

    def test_composition_and_linearity(self, earth, imu, rng):
        fields = self.make_fields(earth, imu)
        points = [random_element(rng, vel=10, pos=100) for _ in range(10)]
        a = random_element(rng, vel=10, pos=100)
        b = random_element(rng, vel=10, pos=100)
        rep = check_dstar_action(a, b, fields, points)
        assert rep.composition_residual <= 1e-10
        assert rep.linearity_residual <= 1e-10


class TestFrameTranslation:
    def test_a3_zero_position(self, earth, rng):
        x = lg.GroupElement(np.eye(3), rng.normal(size=3), np.zeros(3), FrameTag.ECEF_EB)
        y = frame_translation(3, x, earth)
        assert y.frame is FrameTag.ECEF_IB
        np.testing.assert_array_equal(y.vel, x.vel)
        np.testing.assert_array_equal(y.pos, x.pos)

    def test_a3_roundtrip(self, earth):
        x = builder_state(earth, FrameTag.ECEF_EB)
        y = frame_translation(3, x, earth)
        back = frame_translation(3, y, earth, reverse=True)
        assert back.frame is FrameTag.ECEF_EB
        assert np.abs(back.as_matrix() - x.as_matrix()).max() <= 1e-12

    def test_a2_roundtrip(self, earth):
        x = builder_state(earth, FrameTag.NED_EB)
        y = frame_translation(2, x, earth)
        assert y.frame is FrameTag.NED_IB
        back = frame_translation(2, y, earth, reverse=True)
        assert np.abs(back.as_matrix() - x.as_matrix()).max() <= 1e-12

    def test_a1_roundtrip(self, earth):
        x = builder_state(earth, FrameTag.NED_EB)
        y = frame_translation(1, x, earth)
        assert y.frame is FrameTag.ECEF_EB
        back = frame_translation(1, y, earth, reverse=True)
        assert np.abs(back.as_matrix() - x.as_matrix()).max() <= 1e-6

    def test_a3_maps_eb_onto_ib_mechanization(self, earth, imu):
        """A3-mapped earth-relative trajectory satisfies the inertial form."""
        x_eb = builder_state(earth, FrameTag.ECEF_EB)

        def f_eb(t, m):
            return mech_deriv_ecef_eb(earth, m, imu.gyro, imu.accel)

        dt, steps = 0.005, 200
        m = x_eb.as_matrix()
        traj = [m]
        for k in range(steps):
            m = rk4_fixed(f_eb, m, k * dt, dt, 1)
            traj.append(m)
        worst = 0.0
        for k in (1, steps // 2, steps - 1):
            mapped = [
                frame_translation(
                    3, lg.GroupElement.from_matrix(traj[j], FrameTag.ECEF_EB), earth
                ).as_matrix()
                for j in (k - 1, k, k + 1)
            ]
            deriv_fd = (mapped[2] - mapped[0]) / (2 * dt)
            want = mech_deriv_ecef_ib(earth, mapped[1], imu.gyro, imu.accel)
            worst = max(worst, np.abs(deriv_fd - want)[0:3].max() / max(1.0, np.abs(want).max()))
        assert worst <= 1e-7

    def test_mismatched_frame_rejected(self, earth):
        x = builder_state(earth, FrameTag.ECEF_IB)
        with pytest.raises(lg.FrameMismatch):
            frame_translation(3, x, earth)


class TestNedEcefConsistency:
    def test_transported_trajectories_agree(self, earth):
        """NED and ECEF earth-relative integrations agree after A1 transport."""
        from eqnav.sim import SensorErrorSpec, TrajectorySpec, generate_truth, synthesize_imu

        spec = TrajectorySpec(
            profile="constant-turn", duration=10.0, imu_rate=200.0, speed=10.0,
            turn_rate=0.02,
        )
        truth = generate_truth(spec, earth)
        imu = synthesize_imu(truth, earth, SensorErrorSpec())

        x_ib = truth.samples[0][1]
        x_eb = frame_translation(3, x_ib, earth, reverse=True)
        ned_eb = frame_translation(1, x_eb, earth, reverse=True)

        path_ecef = integrate_imu(x_eb, imu, earth, frame=FrameTag.ECEF_EB)
        path_ned = integrate_imu(ned_eb, imu, earth, frame=FrameTag.NED_EB)
        # compare in the NED frame: the reverse map carries the longitude
        # that a bare NED state cannot represent
        worst = 0.0
        for (_, xe), (_, xn) in zip(path_ecef[:: len(path_ecef) // 10], path_ned[:: len(path_ned) // 10]):
            mapped = frame_translation(1, xe, earth, reverse=True)
            dpos = np.linalg.norm(mapped.pos - xn.pos)
            datt = np.linalg.norm(mapped.rot - xn.rot)
            worst = max(worst, dpos, datt)
        assert worst <= 1e-7


class TestIntegrateImu:
    def test_monotonic_time_required(self, earth, imu):
        x = builder_state(earth, FrameTag.ECEF_IB)
        samples = [imu, ImuSample(0.0, imu.gyro, imu.accel)]
        with pytest.raises(NonMonotonicTime):
            integrate_imu(x, samples, earth)

    def test_requires_frame(self, earth, imu, rng):
        x = random_element(rng)
        with pytest.raises(ValueError):
            integrate_imu(x, [imu], earth)

    @pytest.mark.filterwarnings("error")
    def test_names_the_fault_a_loop_of_midpoint_steps_meets(self, earth):
        """A 20-sample constant-turn stream at 200 Hz with ax = 1e115 at
        sample 5 and gx = 1e300 at sample 15: the walk decides every body
        rotation before it steps, so it names sample 15's first; the
        epochs before it are walked again, and the gravitation at t=0.03,
        where a loop of midpoint_step stops, is named."""
        from eqnav.sim import SensorErrorSpec, TrajectorySpec, generate_truth, synthesize_imu

        spec = TrajectorySpec(profile="constant-turn", duration=0.1, imu_rate=200.0)
        truth = generate_truth(spec, earth)
        samples = list(synthesize_imu(truth, earth, SensorErrorSpec()))
        assert len(samples) == 20
        s = samples[5]
        samples[5] = ImuSample(s.t, s.gyro, np.array([1e115, *s.accel[1:]]))
        s = samples[15]
        samples[15] = ImuSample(s.t, np.array([1e300, *s.gyro[1:]]), s.accel)
        x = truth.samples[0][1]
        with pytest.raises(ValueError) as stepped:
            want = x
            for prev, cur in zip(samples[:-1], samples[1:]):
                want = kin.midpoint_step(
                    FrameTag.ECEF_IB, want, 0.5 * (prev.gyro + cur.gyro),
                    0.5 * (prev.accel + cur.accel), cur.t - prev.t, earth,
                )
        assert cur.t == 0.03
        with pytest.raises(ValueError) as got:
            integrate_imu(x, samples, earth)
        assert str(got.value) == f"at epoch t=0.03: {stepped.value}"
        assert str(got.value) == "at epoch t=0.03: gravitation at |r| = 6.25e+109 m overflows"

    @pytest.mark.parametrize("frame", list(FrameTag))
    def test_matches_midpoint_steps(self, earth, rng, frame):
        # more uneven steps than one window takes: NED and ECEF_EB windows
        # are stepped, with midpoint_step's bits; the sweeps solve each
        # ECEF_IB window to roundoff of stepping it (bounds about 100 times
        # the worst of 40 seeds: velocity 1.3e-12 m/s, position 1.2e-10 m),
        # its rotations, which do not depend on the state, bit for bit
        x = builder_state(earth, frame)
        times = np.cumsum(rng.uniform(0.004, 0.012, kin._WINDOW + 41))
        samples = [
            ImuSample(t, rng.uniform(-0.5, 0.5, 3), rng.uniform(-15.0, 15.0, 3))
            for t in times.tolist()
        ]
        path = integrate_imu(x, samples, earth, frame=frame)
        assert len(path) == len(samples)
        want = x
        for prev, cur, (t, got) in zip(samples[:-1], samples[1:], path[1:]):
            want = kin.midpoint_step(
                frame, want, 0.5 * (prev.gyro + cur.gyro), 0.5 * (prev.accel + cur.accel),
                cur.t - prev.t, earth,
            )
            assert t == cur.t
            np.testing.assert_array_equal(got.rot, want.rot)
            if frame is not FrameTag.ECEF_IB:
                np.testing.assert_array_equal(got.vel, want.vel)
                np.testing.assert_array_equal(got.pos, want.pos)
            else:
                assert np.abs(got.vel - want.vel).max() <= 1e-10
                assert np.abs(got.pos - want.pos).max() <= 1e-8

    @pytest.mark.parametrize("frame", [FrameTag.ECEF_EB, FrameTag.ECEF_IB])
    def test_ecef_rotations_bit_identical(self, earth, frame):
        """The ECEF rotations of a 128-step window are midpoint_step's, bit
        for bit: W2's rate is the earth rate at every state, so the walk
        forms them once by the stepping recursion."""
        from eqnav.sim import SensorErrorSpec, TrajectorySpec, generate_truth, synthesize_imu

        spec = TrajectorySpec(profile="figure-eight", duration=1.0, imu_rate=200.0, speed=10.0,
                              turn_rate=0.3)
        truth = generate_truth(spec, earth)
        imu = synthesize_imu(truth, earth, SensorErrorSpec(gyro_psd=1e-6, accel_psd=1e-4, seed=3))
        x = truth.samples[0][1]
        if frame is FrameTag.ECEF_EB:
            x = frame_translation(3, x, earth, reverse=True)
        rates = np.array([[s.gyro, s.accel] for s in imu])
        mean, dts = 0.5 * (rates[:-1] + rates[1:]), np.diff([s.t for s in imu])
        assert len(dts) >= kin._WINDOW
        mean, dts = mean[: kin._WINDOW], dts[: kin._WINDOW]
        with np.errstate(over="ignore", invalid="ignore"):
            rot = kin._walk(frame, x, mean[:, 0], mean[:, 1], dts, earth, 2)[1][0]
        want = x
        for k, (gyro, accel) in enumerate(mean):
            want = kin.midpoint_step(frame, want, gyro, accel, dts[k], earth)
            np.testing.assert_array_equal(rot[k + 1], want.rot)


class TestSweeps:
    """The sweeps that solve a window's mean trajectory (``kinematics._walk``),
    counted by their gravitation reads: one ``_gravitation`` call per sweep."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        """The number of sweeps of each walk run while the fixture is in use."""
        import eqnav.filter as flt

        counts, gravity, walk = [], kin._gravitation, kin._walk

        def counted_gravity(*args):
            counts[-1] += 1
            return gravity(*args)

        def counted_walk(*args):
            counts.append(0)
            return walk(*args)

        monkeypatch.setattr(kin, "_gravitation", counted_gravity)
        monkeypatch.setattr(kin, "_walk", counted_walk)
        monkeypatch.setattr(flt, "_walk", counted_walk)
        return counts

    @pytest.mark.parametrize("frame", list(FrameTag))
    def test_windows_of_one_and_ned_windows_are_stepped(self, earth, imu, sweeps, frame):
        """A window of one (midpoint_step, predict, phi_right) takes no sweep
        in any frame, and an NED or ECEF_EB window of several steps none
        either; an ECEF_IB window of several steps is swept."""
        x = builder_state(earth, frame)
        for dt in (1e-3, 0.01, 1.0):
            kin.midpoint_step(frame, x, imu.gyro, imu.accel, dt, earth)
        integrate_imu(x, [ImuSample(0.01 * k, imu.gyro, imu.accel) for k in range(5)], earth)
        assert sweeps[:3] == [0, 0, 0]
        assert (sweeps[3] == 0) == (frame is not FrameTag.ECEF_IB)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e160, 1e308])
    @pytest.mark.parametrize("frame", [FrameTag.ECEF_EB, FrameTag.ECEF_IB])
    def test_swept_state_decided_as_stepped(self, earth, imu, sweeps, frame, value):
        """A swept window decides its last state as stepping does: a specific
        force of NaN or inf (velocity and position not finite) is rejected
        with GroupElement's message, naming the step; 1e160 and 1e308 (a
        finite state whose sum of squares overflows) are accepted, with no
        warning, through the walk and through integrate_imu.  Only an
        ECEF_IB window is swept; an ECEF_EB one is stepped."""
        x = builder_state(earth, frame)
        gyro, accel = np.tile(imu.gyro, (3, 1)), np.tile(imu.accel, (3, 1))
        accel[2, 0] = value
        dt = np.full(3, 0.005)

        def stepped():
            y = x
            for k in range(3):
                y = kin.midpoint_step(frame, y, gyro[k], accel[k], dt[k], earth)
            return y

        if not math.isfinite(value):
            with pytest.raises(ValueError, match="GroupElement") as want:
                stepped()
            with pytest.raises(kin._StepError) as got, np.errstate(over="ignore",
                                                                   invalid="ignore"):
                kin._walk(frame, x, gyro, accel, dt, earth, 2)
            assert (got.value.index, str(got.value)) == (2, str(want.value))
            return
        want = stepped()
        with np.errstate(over="ignore", invalid="ignore"):
            rot, vel, pos = kin._walk(frame, x, gyro, accel, dt, earth, 2)[1]
        assert (sweeps[-1] >= 1) == (frame is FrameTag.ECEF_IB)
        assert np.isfinite(vel).all() and np.isfinite(pos).all()
        assert math.isinf(sum(v * v for v in vel[-1].tolist()))
        np.testing.assert_array_equal(rot[-1], want.rot)
        np.testing.assert_allclose(vel[-1], want.vel, rtol=1e-12)
        np.testing.assert_allclose(pos[-1], want.pos, rtol=1e-12)
        samples = [ImuSample(0.005 * k, imu.gyro, accel[min(k, 2)] if k == 3 else imu.accel)
                   for k in range(4)]
        path = integrate_imu(x, samples, earth, frame=frame)
        assert np.isfinite(path[-1][1].vel).all()
        assert math.isinf(sum(v * v for v in path[-1][1].vel.tolist()))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("frame", [FrameTag.ECEF_EB, FrameTag.ECEF_IB])
    def test_swept_fault_is_steppings(self, earth, imu, frame):
        """A 20-step window at 200 Hz whose step 6 has ax = 1e115 fails at
        step 7, on the gravitation, as a loop of midpoint_step does: same
        index, same message."""
        x = builder_state(earth, frame)
        gyro, accel = np.tile(imu.gyro, (20, 1)), np.tile(imu.accel, (20, 1))
        accel[6, 0] = 1e115
        dt = np.full(20, 0.005)
        want = [x]
        with pytest.raises(ValueError) as stepped:
            for k in range(20):
                want.append(kin.midpoint_step(frame, want[-1], gyro[k], accel[k], dt[k], earth))
        assert len(want) == 8
        with pytest.raises(kin._StepError) as got, np.errstate(over="ignore", invalid="ignore"):
            kin._walk(frame, x, gyro, accel, dt, earth, 2)
        assert (got.value.index, str(got.value)) == (7, str(stepped.value))
        assert str(got.value) == "gravitation at |r| = 1.25e+110 m overflows"

    @pytest.mark.parametrize("profile", ["constant-turn", "figure-eight"])
    def test_windows_at_200_hz_take_at_most_four_sweeps(self, earth, sweeps, profile):
        """128-epoch windows at 200 Hz: three sweeps, sometimes four."""
        from eqnav.sim import SensorErrorSpec, TrajectorySpec, generate_truth, synthesize_imu

        spec = TrajectorySpec(profile=profile, duration=5.0, imu_rate=200.0, speed=10.0,
                              turn_rate=0.02 if profile == "constant-turn" else 0.3)
        truth = generate_truth(spec, earth)
        imu = synthesize_imu(truth, earth, SensorErrorSpec())
        integrate_imu(truth.samples[0][1], imu, earth)
        assert len(sweeps) == -(-(len(imu) - 1) // kin._WINDOW)
        assert max(sweeps) <= 4

    def test_criterion_9_windows_take_at_most_four_sweeps(self, earth, sweeps):
        """Criterion 9's runs: 50 Hz, a fix a second, noisy rates and biases."""
        from eqnav.errordyn import Convention, LeverArm, NoiseParams
        from eqnav.filter import FilterState, run
        from eqnav.sim import (SensorErrorSpec, TrajectorySpec, generate_truth, synthesize_gnss,
                               synthesize_imu)

        spec = TrajectorySpec(profile="constant-turn", duration=10.0, imu_rate=50.0,
                              gnss_rate=1.0, speed=10.0, turn_rate=0.02)
        truth = generate_truth(spec, earth)
        lever = np.array([0.5, 0.3, -1.2])
        p0 = np.diag([4e-8] * 3 + [4e-4] * 3 + [0.25] * 3 + [1e-10] * 3 + [1e-8] * 3)
        for seed in (1, 2):
            errs = SensorErrorSpec(np.full(3, 1e-5), np.full(3, 1e-4), 4e-8, 4e-6, seed=seed)
            imu = synthesize_imu(truth, earth, errs)
            gnss = synthesize_gnss(truth, lever, 1.0, np.eye(3), seed=seed)
            st = FilterState(truth.samples[0][1], np.zeros(3), np.zeros(3), p0, 0.0,
                             Convention.LEFT_INVARIANT)
            run(imu, gnss, st, NoiseParams(4e-8, 4e-6, 1e-16, 1e-14), earth, LeverArm(lever))
        assert len(sweeps) == 2 * 10  # a window per second
        assert max(sweeps) <= 4


def test_earth_rate_rows_one_per_distinct_length(earth, rng, monkeypatch):
    """The ECEF earth-rate Gamma blocks of a window are formed once per
    distinct interval length, as rows of the body rotations' pass, and each
    step's are the row of a pass of ``-omega_vec * dt`` over every step at
    scales 1 and 1/2, bit for bit: on a simulated stream's window, a
    jittered one and a window of one."""
    rows, gamma_pass = [], kin._gamma_pass

    def counted(phi, n, scales):
        rows.append(len(phi))
        return gamma_pass(phi, n, scales)

    monkeypatch.setattr(kin, "_gamma_pass", counted)
    uniform = np.diff(np.arange(kin._WINDOW + 1) / 200.0)
    assert len(set(uniform.tolist())) < 10
    for dt in (uniform, rng.uniform(0.004, 0.012, 40), uniform[:1]):
        gyro, accel = rng.normal(scale=0.3, size=(2, len(dt), 3))
        for n in (2, 3):
            rate = kin._passes(FrameTag.ECEF_IB, gyro, accel, dt, earth, n)[1]
            want = gamma_pass(-earth.omega_vec * dt[:, None], n, (1.0, 0.5))[0]
            np.testing.assert_array_equal(rate, want)
            assert rows[-1] == len(dt) + len(set(dt.tolist()))
