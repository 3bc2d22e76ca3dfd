"""Analytic transition matrices against RK4 and quadrature oracles."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.linalg import expm

import eqnav.liegroup as lg
from eqnav.errordyn import Convention, NoiseParams, f_matrix, g_matrix
from eqnav.kinematics import EarthModel, FrameTag, ImuSample, build_dynamics, flow
from eqnav.transition import (
    TransitionBlocks,
    _simpson,
    gamma_integrals_check,
    phi_left,
    phi_right,
    psi_integrals,
    qd_matrix,
)
from eqnav.verify import rk4_const
from oracles import rk4_fixed, surface_state


@pytest.fixture
def stationary(earth):
    lat, lon, h = math.radians(45.0), math.radians(7.0), 400.0
    r0 = earth.geodetic_to_ecef(lat, lon, h)
    c = earth.ned_rotation(lat, lon)
    x = lg.GroupElement(c, np.cross(earth.omega_vec, r0), r0, FrameTag.ECEF_IB)
    imu = ImuSample(0.0, c.T @ earth.omega_vec, -(c.T @ earth.gravity_ecef(r0)))
    return x, imu


class TestPhiLeft:
    def test_zero_inputs_blocks(self):
        dt = 0.1
        blocks = phi_left(ImuSample(0.0, np.zeros(3), np.zeros(3)), dt)
        eye = np.eye(3)
        np.testing.assert_array_equal(blocks.block(0, 0), eye)
        np.testing.assert_array_equal(blocks.block(1, 1), eye)
        np.testing.assert_array_equal(blocks.block(2, 2), eye)
        np.testing.assert_allclose(blocks.block(0, 3), -eye * dt, atol=0)
        np.testing.assert_allclose(blocks.block(1, 4), -eye * dt, atol=0)
        np.testing.assert_allclose(blocks.block(2, 1), eye * dt, atol=0)
        np.testing.assert_allclose(blocks.block(2, 4), -eye * dt * dt / 2, atol=1e-18)
        assert np.abs(blocks.block(1, 0)).max() == 0.0
        assert np.abs(blocks.block(2, 0)).max() == 0.0

    def test_identity_limit(self, rng):
        imu = ImuSample(0.0, rng.uniform(-0.5, 0.5, 3), rng.uniform(-20, 20, 3))
        prev = None
        for dt in (1e-3, 1e-4, 1e-5):
            gap = np.abs(phi_left(imu, dt).matrix - np.eye(15)).max()
            assert gap <= 25.0 * dt  # -> I at rate O(dt)
            if prev is not None:
                assert gap < prev
            prev = gap

    def test_matches_rk4(self, earth, rng):
        anchor = lg.identity_element(FrameTag.ECEF_IB)
        worst = 0.0
        for _ in range(10):
            imu = ImuSample(0.0, rng.uniform(-0.5, 0.5, 3), rng.uniform(-20, 20, 3))
            f = f_matrix(Convention.LEFT_INVARIANT, anchor, imu, earth)
            worst = max(
                worst,
                np.abs(phi_left(imu, 0.01).matrix - rk4_const(f, 0.01, 1000)).max(),
            )
        assert worst <= 1e-9

    def test_bias_rows_exact_identity(self, rng):
        imu = ImuSample(0.0, rng.uniform(-0.5, 0.5, 3), rng.uniform(-20, 20, 3))
        m = phi_left(imu, 0.02).matrix
        np.testing.assert_array_equal(m[9:15, :], np.eye(15)[9:15, :])
        # structural zero blocks
        assert np.abs(m[0:3, 3:9]).max() == 0.0
        assert np.abs(m[0:3, 12:15]).max() == 0.0
        assert np.abs(m[3:6, 6:9]).max() == 0.0

    def test_window_matches_each_interval(self, rng):
        # one stacked pass over intervals with |w dt| on both sides of the
        # 2 rad switch of Psi's coefficients gives each interval's matrix
        from eqnav.transition import _phi_left

        angles = np.array([0.1, 1.99, 2.01, 3.0, 1e-5, 2.0, 6.0, 0.7])
        dts = rng.uniform(0.005, 0.02, angles.size)
        axes = rng.normal(size=(angles.size, 3))
        gyro = axes / np.linalg.norm(axes, axis=1)[:, None] * (angles / dts)[:, None]
        accel = rng.uniform(-15.0, 15.0, (angles.size, 3))
        body = lg._gamma_pass(gyro * dts[:, None], 3, (1.0,))
        stack = _phi_left(accel, dts, body, np.eye(3) + body[0][:, 0, 0])
        for k, dt in enumerate(dts.tolist()):
            want = phi_left(ImuSample(0.0, gyro[k], accel[k]), dt).matrix
            np.testing.assert_array_equal(stack[k], want)

    def test_requires_positive_dt(self):
        with pytest.raises(ValueError):
            phi_left(ImuSample(0.0, np.zeros(3), np.zeros(3)), 0.0)


class TestPhiRight:
    def test_stationary_matches_frozen_rk4(self, earth, stationary):
        x, imu = stationary
        f = f_matrix(Convention.RIGHT_INVARIANT, x, imu, earth)
        for dt in (0.005, 0.01):
            gap = np.abs(phi_right(x, imu, earth, dt).matrix - rk4_const(f, dt, 1000)).max()
            assert gap <= 1e-8

    def test_degenerate_earth_collapses_blocks(self, rng):
        # with negligible earth rate and gravitation, the closed forms of the
        # body-rate Gamma factors appear verbatim in the blocks
        tiny = EarthModel(omega_ie=1e-300, mu=1e-300)
        c0 = lg.so3_exp(rng.normal(size=3))
        vel, pos = rng.normal(size=3) * 100, rng.normal(size=3) * 1e6
        x = lg.GroupElement(c0, vel, pos, FrameTag.ECEF_IB)
        dt = 0.01
        slow = np.array([0.2, -0.1, 0.3])
        # the second gyro turns through 6 rad in one interval
        for gyro in (slow, slow * (6.0 / dt / np.linalg.norm(slow))):
            imu = ImuSample(0.0, gyro, np.array([1.0, 2.0, -9.0]))
            theta = imu.gyro * dt
            blocks = phi_right(x, imu, tiny, dt)
            np.testing.assert_allclose(blocks.block(0, 0), np.eye(3), atol=1e-15)
            np.testing.assert_allclose(
                blocks.block(0, 3), -c0 @ lg.gamma(1, theta) * dt, atol=1e-15
            )
            np.testing.assert_allclose(
                blocks.block(1, 4), c0 @ lg.gamma(1, theta) * dt, atol=1e-15
            )
            np.testing.assert_allclose(
                blocks.block(2, 4), c0 @ lg.gamma(2, theta) * dt * dt, atol=1e-15
            )
            assert np.abs(blocks.block(1, 0)).max() <= 1e-300  # gravitation negligible
            # velocity cross coupling collapses to (v1 x) C Gamma_1 dt - C Psi_1,
            # v1 the velocity at the end of the interval
            g1 = lg.gamma(1, theta)
            v1 = vel + c0 @ g1 @ imu.accel * dt
            psi1 = psi_integrals(imu.gyro, imu.accel, dt).psi1
            want = lg.hat(v1) @ c0 @ g1 * dt - c0 @ psi1
            np.testing.assert_allclose(blocks.block(1, 3), want, atol=1e-12)

    def test_semigroup_stationary(self, earth, stationary):
        x, imu = stationary
        dt = 0.01
        one = phi_right(x, imu, earth, dt).matrix
        two = phi_right(x, imu, earth, 2 * dt).matrix
        assert np.abs(two - one @ one).max() <= 1e-9

    def test_moving_gap_is_second_order(self, earth, rng):
        c, v_eb, r0 = surface_state(earth)
        x = lg.GroupElement(
            c, v_eb + np.cross(earth.omega_vec, r0), r0, FrameTag.ECEF_IB
        )
        imu = ImuSample(
            0.0,
            c.T @ earth.omega_vec + np.array([0.02, -0.01, 0.05]),
            -(c.T @ earth.gravity_ecef(r0)) + np.array([1.5, 0.3, 0.0]),
        )
        f = f_matrix(Convention.RIGHT_INVARIANT, x, imu, earth)
        gaps = []
        for dt in (0.02, 0.01, 0.005):
            gaps.append(
                np.abs(phi_right(x, imu, earth, dt).matrix - rk4_const(f, dt, 400)).max()
            )
        order1 = math.log2(gaps[0] / gaps[1])
        order2 = math.log2(gaps[1] / gaps[2])
        assert min(order1, order2) >= 1.9

    def test_matches_rk4_along_flow(self, earth):
        # oracle: RK4 of the right-invariant F evaluated along the interval's
        # exact flow, so neither velocity nor position is frozen
        c, v_eb, r0 = surface_state(earth)
        x = lg.GroupElement(
            c, v_eb + np.cross(earth.omega_vec, r0), r0, FrameTag.ECEF_IB
        )
        imu = ImuSample(
            0.0,
            c.T @ earth.omega_vec + np.array([0.02, -0.01, 0.05]),
            -(c.T @ earth.gravity_ecef(r0)) + np.array([1.5, 0.3, 0.0]),
        )
        pair = build_dynamics(FrameTag.ECEF_IB, x, imu, earth)

        def deriv(s, y):
            return f_matrix(Convention.RIGHT_INVARIANT, flow(x, pair, s), imu, earth) @ y

        for dt in (0.02, 0.01, 0.005):
            ref = rk4_fixed(deriv, np.eye(15), 0.0, dt, 200)
            got = phi_right(x, imu, earth, dt).matrix
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max(), dt
            # each bias-column block against its own size: the attitude rows
            # are about dt, the position rows about |r| dt
            for i in range(5):
                for j in (3, 4):
                    rows, cols = slice(3 * i, 3 * i + 3), slice(3 * j, 3 * j + 3)
                    gap = np.abs(got[rows, cols] - ref[rows, cols]).max()
                    assert gap <= 1e-10 * np.abs(ref[rows, cols]).max(), (dt, i, j)

    def test_window_matches_each_interval(self, earth, stationary, rng):
        # the window core over a mean trajectory gives each interval's public
        # matrix, with |w dt| on both sides of the 2 rad switch of Psi's
        # coefficients, from a surface state and from one on the earth's axis
        from eqnav.kinematics import _passes, midpoint_step
        from eqnav.transition import _gravitation, _left_bias, _phi_right

        x, imu = stationary
        polar = lg.GroupElement(x.rot, x.vel, np.array([0.0, 0.0, -6356752.3]), FrameTag.ECEF_IB)
        angles = np.array([0.1, 1.99, 2.01, 3.0, 1e-5, 2.0, 6.0, 0.7])
        dts = rng.uniform(0.005, 0.02, angles.size)
        axes = rng.normal(size=(angles.size, 3))
        gyro = axes / np.linalg.norm(axes, axis=1)[:, None] * (angles / dts)[:, None]
        accel = imu.accel + rng.uniform(-5.0, 5.0, (angles.size, 3))
        body, rate, _, g0 = _passes(FrameTag.ECEF_IB, gyro, accel, dts, earth, 3)
        for start in (x, polar):
            xs = [start]
            for k, dt in enumerate(dts.tolist()):
                xs.append(midpoint_step(FrameTag.ECEF_IB, xs[-1], gyro[k], accel[k], dt, earth))
            pos = np.array([s.pos for s in xs])
            # the stacked gravitation keeps the bits of gravitation_ecef's norm
            np.testing.assert_array_equal(
                _gravitation(earth, pos), [earth.gravitation_ecef(r) for r in pos]
            )
            stack = _phi_right(
                np.array([s.rot for s in xs]), np.array([s.vel for s in xs]), pos,
                earth, dts, rate[:, 0], _left_bias(accel, dts, body, g0),
            )
            assert stack.shape == (angles.size, 15, 15)
            for k, dt in enumerate(dts.tolist()):
                want = phi_right(xs[k], ImuSample(0.0, gyro[k], accel[k]), earth, dt).matrix
                np.testing.assert_array_equal(stack[k], want)

    def test_frame_check(self, earth, stationary, rng):
        x, imu = stationary
        bad = lg.GroupElement(x.rot, x.vel, x.pos, FrameTag.NED_EB)
        with pytest.raises(lg.FrameMismatch):
            phi_right(bad, imu, earth, 0.01)

    def test_structural_blocks(self, earth, stationary):
        x, imu = stationary
        m = phi_right(x, imu, earth, 0.01).matrix
        np.testing.assert_array_equal(m[9:15, :], np.eye(15)[9:15, :])
        assert np.abs(m[0:3, 3:9]).max() == 0.0
        assert np.abs(m[0:3, 12:15]).max() == 0.0
        assert np.abs(m[3:6, 6:9]).max() == 0.0


class TestPsiIntegrals:
    def test_zero_omega_closed_form(self, rng):
        f = rng.normal(size=3) * 5
        dt = 0.02
        psi = psi_integrals(np.zeros(3), f, dt)
        np.testing.assert_allclose(psi.psi1, lg.hat(f) * dt * dt / 2, atol=1e-18)
        np.testing.assert_allclose(psi.psi2, lg.hat(f) * dt**3 / 6, atol=1e-19)

    def test_zero_force(self, rng):
        psi = psi_integrals(rng.normal(size=3), np.zeros(3), 0.01)
        assert np.abs(psi.psi1).max() == 0.0 and np.abs(psi.psi2).max() == 0.0

    def test_matches_simpson(self, rng):
        f = np.array([1.0, 2.0, -9.0])
        dt = 0.5
        s = np.linspace(0.0, dt, 100_001)
        slow = np.array([0.3, -0.2, 0.4])
        # |omega| dt = 0.27 rad and 3 rad
        for omega in (slow, slow * (6.0 / np.linalg.norm(slow))):
            # hat(Gamma_0(omega t) f) Gamma_1(omega t) t at every node, from one
            # stacked Gamma pass: each node's blocks are gamma's bit for bit
            blocks = lg._gamma_pass(omega * s[:, None], 2, (1.0,))[0][:, 0]
            vals = lg._hats((np.eye(3) + blocks[:, 0]) @ f) @ blocks[:, 1] * s[:, None, None]
            ref1 = simpson(vals, x=s, axis=0)
            ref2 = simpson((dt - s)[:, None, None] * vals, x=s, axis=0)
            psi = psi_integrals(omega, f, dt)
            assert np.abs(psi.psi1 - ref1).max() <= 1e-11
            assert np.abs(psi.psi2 - ref2).max() <= 1e-11

    def test_matches_van_loan(self, earth):
        # Van Loan oracle: Phi = expm(F_l dt) holds Gamma_0^T Psi_1 and
        # Gamma_0^T Psi_2 in its bias columns; the sweep crosses the
        # coefficient switches (1e-4, 1e-2, 0.5) and the Psi switch (2 rad)
        anchor = lg.identity_element(FrameTag.ECEF_IB)
        axis = np.array([0.3, -0.2, 0.4]) / np.linalg.norm([0.3, -0.2, 0.4])
        f = np.array([1.0, 2.0, -9.0])
        dt = 0.5
        angles = [1e-8, 1e-6, 0.3, 1.0, 3.0, 5.0, 2.0 * math.pi]
        for switch in (1e-4, 1e-2, 0.5, 2.0):
            angles += [switch * (1.0 - 1e-9), switch * (1.0 + 1e-9)]
        for x in angles:
            imu = ImuSample(0.0, axis * (x / dt), f)
            phi = expm(f_matrix(Convention.LEFT_INVARIANT, anchor, imu, earth) * dt)
            g0 = lg.gamma(0, imu.gyro * dt)
            psi = psi_integrals(imu.gyro, f, dt)
            assert np.abs(psi.psi1 - g0 @ phi[3:6, 9:12]).max() <= 1e-11, x
            assert np.abs(psi.psi2 - g0 @ phi[6:9, 9:12]).max() <= 1e-11, x

    def test_overflowing_gyro_rejected_without_warning(self):
        """A body rotation too large to square gets the propagation's
        decision, not numpy overflow warnings and a math domain error."""
        gyro, zeros = np.array([1e300, 0.0, 0.0]), np.zeros(3)
        calls = (lambda: phi_left(ImuSample(0.0, gyro, zeros), 0.01),
                 lambda: psi_integrals(gyro, zeros, 0.01))
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=r"^body rotation gyro \* dt over the "
                                   r"interval overflows$"):
                    call()

    def test_not_converged_raises(self):
        # 900 rad in one interval: beyond the one-turn domain of the fixed rule
        with pytest.raises(ValueError, match="rotation"):
            psi_integrals(np.array([0.0, 0.0, 900.0]), np.ones(3), 1.0)


class TestQdMatrix:
    def test_zero_psd(self, stationary, earth):
        x, imu = stationary
        phi = phi_left(imu, 0.01)
        g = g_matrix(Convention.LEFT_INVARIANT, x)
        qd = qd_matrix(phi, g, NoiseParams(0, 0, 0, 0), 0.01)
        assert np.abs(qd).max() == 0.0

    def test_identity_phi(self, stationary, rng):
        x, _ = stationary
        g = g_matrix(Convention.LEFT_INVARIANT, x)
        noise = NoiseParams(1e-6, 1e-5, 1e-9, 1e-8)
        dt = 0.02
        qd = qd_matrix(np.eye(15), g, noise, dt)
        want = g @ noise.qc_matrix() @ g.T * dt
        np.testing.assert_allclose(qd, want, atol=1e-22)

    def test_psd(self, stationary, earth, rng):
        x, imu = stationary
        phi = phi_right(x, imu, earth, 0.01)
        g = g_matrix(Convention.RIGHT_INVARIANT, x)
        noise = NoiseParams(*(rng.uniform(0, 1e-4, 4)))
        qd = qd_matrix(phi, g, noise, 0.01)
        np.testing.assert_allclose(qd, qd.T, atol=0)
        eig = np.linalg.eigvalsh(qd)
        assert eig.min() >= -1e-15 * max(eig.max(), 1e-300)

    @pytest.mark.parametrize("dt", [0.0, -0.01, float("nan")])
    def test_rejects_interval_not_positive(self, stationary, dt):
        x, _ = stationary
        g = g_matrix(Convention.LEFT_INVARIANT, x)
        with pytest.raises(ValueError, match="dt > 0"):
            qd_matrix(np.eye(15), g, NoiseParams(1e-6, 1e-5, 1e-9, 1e-8), dt)


class TestGammaIntegrals:
    def test_zero_omega(self):
        rep = gamma_integrals_check(np.zeros(3), 0.7)
        assert rep.max_residual <= 1e-13

    def test_small_and_large_angle(self, rng):
        w = rng.normal(size=3)
        w *= 0.1 / np.linalg.norm(w)
        assert gamma_integrals_check(w, 1.0).max_residual <= 1e-11
        w3 = rng.normal(size=3)
        w3 *= 3.0 / np.linalg.norm(w3)
        assert gamma_integrals_check(w3, 1.0).max_residual <= 1e-9

    def test_simpson_matches_scipy(self, rng):
        """The composite Simpson rule gives scipy's on the check's nodes, at
        `eqnav verify`'s rates and steps, to the rounding of the two sums
        (each is within 3e-15 of a long-double sum of the same samples)."""
        for norm, dt in ((0.1, 1.0), (3.0, 1.0), (0.5, 0.3)):
            w = rng.normal(size=3)
            w *= norm / np.linalg.norm(w)
            s = np.linspace(0.0, dt, 4001)
            nodes = np.array([lg.gamma_blocks(w * si, 3) for si in s])
            for g in (np.eye(3) + nodes[:, 0], nodes[:, 1] * s[:, None, None],
                      nodes[:, 2] * (s * s)[:, None, None]):
                ref = simpson(g, x=s, axis=0)
                assert np.abs(_simpson(g, dt) - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_even_points_rejected(self):
        with pytest.raises(ValueError, match="odd number of points"):
            gamma_integrals_check(np.ones(3), 1.0, points=4000)


class TestTransitionBlocksType:
    def test_block_accessor(self, stationary, earth):
        x, imu = stationary
        blocks = phi_right(x, imu, earth, 0.01)
        np.testing.assert_array_equal(
            blocks.block(1, 2), blocks.matrix[3:6, 6:9]
        )
        assert blocks.convention is Convention.RIGHT_INVARIANT
        assert blocks.dt == 0.01
