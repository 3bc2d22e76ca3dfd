"""Invariant error states, linearized F/G/H, feedback correction."""

import numpy as np
import pytest

import eqnav.liegroup as lg
from eqnav.errordyn import (
    Convention,
    ErrorState15,
    LeverArm,
    NoiseParams,
    _error_vector,
    _retract,
    apply_feedback,
    error_state,
    f_matrix,
    g_matrix,
    h_matrix,
)
from eqnav.kinematics import EarthModel, FrameTag, ImuSample
from oracles import gamma1_derivative, mech_deriv_ecef_ib, random_element, surface_state

RIGHT = Convention.RIGHT_INVARIANT
LEFT = Convention.LEFT_INVARIANT


@pytest.fixture
def xhat(earth):
    c, v_eb, r0 = surface_state(earth)
    return lg.GroupElement(
        c, v_eb + np.cross(earth.omega_vec, r0), r0, FrameTag.ECEF_IB
    )


@pytest.fixture
def imu(rng):
    return ImuSample(0.0, np.array([0.01, -0.02, 0.03]), np.array([0.5, -0.3, -9.7]))


def group_error(conv, xhat, x):
    """The group part of ``error_state``: the log of the error element,
    ``phi`` negated for the right convention."""
    return error_state(conv, xhat, x).as_vector()[:9]


class TestErrorDefinitions:
    """``error_state``'s group part is the exact log of the error element:
    ``se23_log(Xhat X^-1)`` with ``phi`` negated (right) and
    ``se23_log(Xhat^-1 X)`` (left)."""

    def test_zero_error(self, xhat):
        for conv in (RIGHT, LEFT):
            assert np.abs(group_error(conv, xhat, xhat)).max() <= 1e-9

    def test_right_exact_log(self, xhat, rng):
        xi = lg.Tangent9(rng.normal(size=3) * 0.3, rng.normal(size=3), rng.normal(size=3))
        xtilde = lg.compose(lg.se23_exp(xi), xhat)
        got = group_error(RIGHT, xtilde, xhat)
        want = np.concatenate([-xi.phi, xi.rho_v, xi.rho_r])
        # tolerance is a few ulps of the earth-radius position scale
        assert np.abs(got - want).max() <= 1e-8

    def test_left_exact_log(self, xhat, rng):
        xi = lg.Tangent9(rng.normal(size=3) * 0.3, rng.normal(size=3), rng.normal(size=3))
        xtilde = lg.compose(xhat, lg.se23_exp(lg.Tangent9(-xi.phi, -xi.rho_v, -xi.rho_r)))
        got = group_error(LEFT, xtilde, xhat)
        assert np.abs(got - xi.as_vector()).max() <= 1e-8

    def test_right_first_order_velocity(self, rng):
        # pure velocity perturbation: group column approaches dv quadratically
        c, v, r = surface_state(EarthModel(), v_ned=(5.0, 2.0, -1.0))
        x = lg.GroupElement(c, v, r * 1e-4, FrameTag.ECEF_IB)  # moderate scale
        dv = rng.normal(size=3)
        prev = None
        for eps in (1e-2, 1e-3, 1e-4):
            xt = lg.GroupElement(x.rot, x.vel + eps * dv, x.pos, x.frame)
            dx = error_state(RIGHT, xt, x)
            resid = np.linalg.norm(lg.gamma(1, -dx.phi) @ dx.jrho_v - eps * dv)
            assert resid <= 10 * eps**2 * max(1.0, np.linalg.norm(dv))
            prev = resid

    def test_left_first_order_velocity(self, xhat, rng):
        dv = rng.normal(size=3)
        for eps in (1e-3, 1e-5):
            xt = lg.GroupElement(xhat.rot, xhat.vel + eps * dv, xhat.pos, xhat.frame)
            dx = error_state(LEFT, xt, xhat)
            want = -(xt.rot.T @ (eps * dv))
            assert np.linalg.norm(dx.jrho_v - want) <= 10 * eps**2

    def test_frame_mismatch(self, xhat):
        other = lg.GroupElement(xhat.rot, xhat.vel, xhat.pos, FrameTag.NED_EB)
        for conv in (RIGHT, LEFT):
            with pytest.raises(lg.FrameMismatch):
                error_state(conv, xhat, other)


class TestErrorStateType:
    def test_convention_mixing_rejected(self, xhat):
        dx = ErrorState15.zero(LEFT)
        with pytest.raises(ValueError):
            apply_feedback(RIGHT, xhat, dx, np.zeros(3), np.zeros(3))

    def test_vector_roundtrip(self, rng):
        v = rng.normal(size=15)
        dx = ErrorState15.from_vector(v, RIGHT)
        np.testing.assert_array_equal(dx.as_vector(), v)
        assert dx.convention is RIGHT


class TestFeedback:
    def test_zero_dx(self, xhat):
        for conv in (RIGHT, LEFT):
            out, bg, ba = apply_feedback(
                conv, xhat, ErrorState15.zero(conv), np.zeros(3), np.zeros(3)
            )
            assert np.abs(out.as_matrix() - xhat.as_matrix()).max() == 0.0

    def test_exact_roundtrip(self, xhat, rng):
        for conv in (RIGHT, LEFT):
            xi = lg.Tangent9(
                rng.normal(size=3) * 0.2, rng.normal(size=3), rng.normal(size=3) * 10
            )
            x_true = (
                lg.compose(lg.se23_exp(xi), xhat)
                if conv is RIGHT
                else lg.compose(xhat, lg.se23_exp(xi))
            )
            bg_t, ba_t = rng.normal(size=3) * 1e-4, rng.normal(size=3) * 1e-3
            dx = error_state(conv, xhat, x_true, bg_t, ba_t)
            out, bg, ba = apply_feedback(conv, xhat, dx, np.zeros(3), np.zeros(3))
            assert np.abs(out.as_matrix() - x_true.as_matrix()).max() <= 1e-10 * max(
                1.0, np.abs(x_true.as_matrix()).max()
            )
            np.testing.assert_allclose(bg, bg_t, atol=0)
            np.testing.assert_allclose(ba, ba_t, atol=0)

    def test_right_first_order_literal(self, rng):
        # against the additive small-error correction formulas, desk scale
        c, v, r = surface_state(EarthModel(), v_ned=(5.0, 2.0, -1.0))
        xhat = lg.GroupElement(c, v, r * 1e-6, FrameTag.ECEF_IB)
        d = rng.normal(size=15)
        d *= 1e-6 / np.linalg.norm(d)
        dx = ErrorState15.from_vector(d, RIGHT)
        out, _, _ = apply_feedback(RIGHT, xhat, dx, np.zeros(3), np.zeros(3))
        rot_lit = lg.so3_exp(dx.phi) @ xhat.rot
        vel_lit = xhat.vel - dx.jrho_v - np.cross(xhat.vel, dx.phi)
        pos_lit = xhat.pos - dx.jrho_r - np.cross(xhat.pos, dx.phi)
        assert np.abs(out.rot - rot_lit).max() <= 1e-11
        assert np.abs(out.vel - vel_lit).max() <= 1e-11
        assert np.abs(out.pos - pos_lit).max() <= 1e-11


def estimate_with_error(conv, x, dx_vec, bg=np.zeros(3), ba=np.zeros(3)):
    """The estimate (state and biases) whose error state against the true
    ``x``, ``bg``, ``ba`` is ``dx_vec``: the truth corrected by ``-dx_vec``,
    since exp(-xi) = exp(xi)^-1."""
    return apply_feedback(conv, x, ErrorState15.from_vector(-np.asarray(dx_vec), conv), bg, ba)


def log_rate(eta5, etad):
    """d/dt of ``se23_log(eta)`` as a 9-vector, from the 5x5 error element
    ``eta5`` and its rate ``etad``, by matrix calculus: ``phi' =
    Gamma_1(phi)^-1 vee(R' R^T)`` and, from the columns
    ``u = Gamma_1(phi) rho``, ``rho' = Gamma_1(phi)^-1 (u' - dGamma_1[phi'] rho)``."""
    xi = lg.se23_log(lg.GroupElement.from_matrix(eta5))
    j = lg.gamma(1, xi.phi)
    phid = np.linalg.solve(j, lg.vee(etad[0:3, 0:3] @ eta5[0:3, 0:3].T))
    rho = np.column_stack([xi.rho_v, xi.rho_r])
    rhod = np.linalg.solve(j, etad[0:3, 3:5] - gamma1_derivative(xi.phi, phid) @ rho)
    return np.concatenate([phid, rhod[:, 0], rhod[:, 1]])


def exact_error_rate(conv, earth, x_true, bg_true, ba_true, omega_meas, f_meas, dx_vec):
    """d/dt of the exact error state, by matrix calculus (no time stepping)."""
    xhat, bg_hat, ba_hat = estimate_with_error(conv, x_true, dx_vec, bg_true, ba_true)

    omega_true = omega_meas - bg_true
    f_true = f_meas - ba_true
    xd = mech_deriv_ecef_ib(earth, x_true.as_matrix(), omega_true, f_true)
    xhd = mech_deriv_ecef_ib(
        earth, xhat.as_matrix(), omega_meas - bg_hat, f_meas - ba_hat
    )
    x5, xh5 = x_true.as_matrix(), xhat.as_matrix()
    x5i, xh5i = lg.inverse(x_true).as_matrix(), lg.inverse(xhat).as_matrix()
    if conv is RIGHT:
        eta5 = xh5 @ x5i
        etad = xhd @ x5i - eta5 @ xd @ x5i
        sign = -1.0
    else:
        eta5 = xh5i @ x5
        etad = -xh5i @ xhd @ xh5i @ x5 + xh5i @ xd
        sign = 1.0
    rate = log_rate(eta5, etad)
    rate[0:3] *= sign
    return np.concatenate([rate, np.zeros(6)])


class TestFMatrix:
    def test_left_structure_zero_imu(self, xhat, earth):
        f = f_matrix(LEFT, xhat, ImuSample(0.0, np.zeros(3), np.zeros(3)), earth)
        want = np.zeros((15, 15))
        want[6:9, 3:6] = np.eye(3)
        want[0:3, 9:12] = -np.eye(3)
        want[3:6, 12:15] = -np.eye(3)
        np.testing.assert_array_equal(f, want)

    @pytest.mark.parametrize("conv", [RIGHT, LEFT])
    def test_matches_finite_differences(self, conv, xhat, earth, imu):
        bg = np.array([1e-4, -2e-4, 5e-5])
        ba = np.array([1e-3, 2e-3, -1e-3])
        omega_meas = imu.gyro + bg
        f_meas = imu.accel + ba
        f = f_matrix(conv, xhat, imu, earth)
        eps = 1e-6
        fd = np.zeros((15, 15))
        for j in range(15):
            e = np.zeros(15)
            e[j] = eps
            plus = exact_error_rate(conv, earth, xhat, bg, ba, omega_meas, f_meas, e)
            minus = exact_error_rate(conv, earth, xhat, bg, ba, omega_meas, f_meas, -e)
            fd[:, j] = (plus - minus) / (2 * eps)
        rel = np.abs(f - fd).max() / np.abs(f).max()
        assert rel <= 1e-5

    def test_left_state_independent(self, earth, imu, rng):
        a = random_element(rng, frame=FrameTag.ECEF_IB)
        c, v_eb, r0 = surface_state(earth)
        b = lg.GroupElement(c, v_eb, r0, FrameTag.ECEF_IB)
        np.testing.assert_array_equal(
            f_matrix(LEFT, a, imu, earth), f_matrix(LEFT, b, imu, earth)
        )

    def test_right_state_dependence_structure(self, xhat, earth, imu):
        f = f_matrix(RIGHT, xhat, imu, earth)
        shifted = lg.GroupElement(
            xhat.rot, xhat.vel + np.array([5.0, 0, 0]), xhat.pos, xhat.frame
        )
        f2 = f_matrix(RIGHT, shifted, imu, earth)
        diff = np.abs(f - f2)
        mask = np.zeros((15, 15), dtype=bool)
        mask[3:6, 9:12] = True  # only the velocity-bias coupling moves
        assert np.abs(diff[~mask]).max() == 0.0
        assert diff[mask].max() > 0.0

    def test_frame_required(self, earth, imu, rng):
        bad = random_element(rng, frame=FrameTag.NED_IB)
        with pytest.raises(lg.FrameMismatch):
            f_matrix(RIGHT, bad, imu, earth)


class TestMirroredVariants:
    """The swapped error definitions give the same linearized dynamics."""

    @pytest.mark.parametrize("conv", [RIGHT, LEFT])
    def test_mirrored_error_same_f(self, conv, xhat, earth, imu):
        # mirrored definitions: eta = X Xhat^-1 (right) / X^-1 Xhat (left),
        # with the whole sign convention mirrored alongside; their exact
        # error flow linearizes to the same F
        bg = np.array([1e-4, -2e-4, 5e-5])
        ba = np.array([1e-3, 2e-3, -1e-3])
        omega_meas = imu.gyro + bg
        f_meas = imu.accel + ba

        def mirrored_rate(dx_vec):
            # eta_m = X Xhat^-1 = exp(-phi, rho, ...) (right) or X^-1 Xhat =
            # exp(phi, rho, ...) (left): the estimate is the truth corrected
            # by +dx, with the mirrored bias error sign b_hat = b + db
            xh, bg_hat, ba_hat = apply_feedback(conv, xhat, ErrorState15.from_vector(dx_vec, conv),
                                                bg, ba)
            xd = mech_deriv_ecef_ib(earth, xhat.as_matrix(), imu.gyro, imu.accel)
            xhd = mech_deriv_ecef_ib(
                earth, xh.as_matrix(), omega_meas - bg_hat, f_meas - ba_hat
            )
            x5, xh5 = xhat.as_matrix(), xh.as_matrix()
            x5i, xh5i = lg.inverse(xhat).as_matrix(), lg.inverse(xh).as_matrix()
            if conv is RIGHT:
                eta5 = x5 @ xh5i
                etad = xd @ xh5i - eta5 @ xhd @ xh5i
                sign = -1.0
            else:
                eta5 = x5i @ xh5
                etad = -x5i @ xd @ x5i @ xh5 + x5i @ xhd
                sign = 1.0
            rate = log_rate(eta5, etad)
            rate[0:3] *= sign
            return np.concatenate([rate, np.zeros(6)])

        f = f_matrix(conv, xhat, imu, earth)
        eps = 1e-6
        fd = np.zeros((15, 15))
        for j in range(15):
            e = np.zeros(15)
            e[j] = eps
            fd[:, j] = (mirrored_rate(e) - mirrored_rate(-e)) / (2 * eps)
        rel = np.abs(f - fd).max() / np.abs(f).max()
        assert rel <= 1e-5


class TestGMatrix:
    def test_left_constant(self, xhat, earth, rng):
        g = g_matrix(LEFT, xhat)
        want = np.zeros((15, 12))
        want[0:3, 0:3] = -np.eye(3)
        want[3:6, 3:6] = -np.eye(3)
        want[9:12, 6:9] = np.eye(3)
        want[12:15, 9:12] = np.eye(3)
        np.testing.assert_array_equal(g, want)
        other = random_element(rng, frame=FrameTag.ECEF_IB)
        np.testing.assert_array_equal(g_matrix(LEFT, other), g)

    def test_right_position_row(self, xhat):
        g = g_matrix(RIGHT, xhat)
        np.testing.assert_allclose(g[6:9, 0:3], lg.hat(xhat.pos) @ xhat.rot, atol=0)
        assert np.abs(g[6:9, 3:12]).max() == 0.0

    def test_right_stack_matches_each_state(self, xhat, rng):
        # the stacked right form gives g_matrix of each state, on the earth's
        # axis too
        from eqnav.errordyn import _g_right

        states = [xhat, lg.GroupElement(xhat.rot, xhat.vel, np.array([0.0, 0.0, 6356752.3]))]
        states += [random_element(rng, frame=FrameTag.ECEF_IB) for _ in range(4)]
        stack = _g_right(
            np.array([s.rot for s in states]), np.array([s.vel for s in states]),
            np.array([s.pos for s in states]),
        )
        assert stack.shape == (len(states), 15, 12)
        for k, s in enumerate(states):
            np.testing.assert_array_equal(stack[k], g_matrix(RIGHT, s))

    def test_gqg_positive_semidefinite(self, xhat, rng):
        for conv in (RIGHT, LEFT):
            g = g_matrix(conv, xhat)
            noise = NoiseParams(*(rng.uniform(0, 1e-4, 4)))
            q = g @ noise.qc_matrix() @ g.T
            eig = np.linalg.eigvalsh(0.5 * (q + q.T))
            assert eig.min() >= -1e-15 * max(1.0, eig.max())


class TestHMatrix:
    def test_right_zero_lever(self, xhat):
        h = h_matrix(RIGHT, xhat, LeverArm(np.zeros(3)))
        np.testing.assert_array_equal(h[:, 0:3], -lg.hat(xhat.pos))
        np.testing.assert_array_equal(h[:, 6:9], -np.eye(3))
        assert np.abs(h[:, 3:6]).max() == 0.0 and np.abs(h[:, 9:15]).max() == 0.0

    def test_left_zero_lever(self, xhat):
        h = h_matrix(LEFT, xhat, LeverArm(np.zeros(3)))
        np.testing.assert_array_equal(h[:, 6:9], xhat.rot)
        assert np.abs(h[:, 0:6]).max() == 0.0 and np.abs(h[:, 9:15]).max() == 0.0

    @pytest.mark.parametrize("conv", [RIGHT, LEFT])
    def test_matches_finite_differences(self, conv, rng):
        # moderate position scale keeps the FD cancellation benign
        x = lg.GroupElement(
            lg.so3_exp(np.array([0.3, -0.5, 0.2])),
            rng.normal(size=3) * 5,
            rng.normal(size=3) * 1000,
            FrameTag.ECEF_IB,
        )
        lever = LeverArm(np.array([0.4, -0.2, 1.1]))
        y = x.pos + x.rot @ lever.l_b
        h = h_matrix(conv, x, lever)

        def innovation(dx_vec):
            xh = estimate_with_error(conv, x, dx_vec)[0]
            return y - (xh.pos + xh.rot @ lever.l_b)

        eps = 1e-6
        fd = np.zeros((3, 15))
        for j in range(15):
            e = np.zeros(15)
            e[j] = eps
            fd[:, j] = (innovation(e) - innovation(-e)) / (2 * eps)
        rel = np.abs(h - fd).max() / np.abs(h).max()
        assert rel <= 1e-5


def random_states(rng, count):
    """``count`` random earth-scale ECEF_IB states."""
    return [random_element(rng, vel=1e3, pos=7e6, frame=FrameTag.ECEF_IB) for _ in range(count)]


def random_dx(rng):
    """A random 15-vector error: attitude to about 0.3 rad, velocity and
    position to meters, biases small."""
    return rng.normal(size=15) * np.repeat([0.1, 1.0, 10.0, 1e-4, 1e-3], 3)


def arrays(x):
    return x.rot, x.vel, x.pos


def retracted(conv, xhat, dx):
    """The retraction's object formula: ``xhat`` corrected by the 15-vector
    ``dx`` through ``se23_exp`` of ``xi = (-phi, rho_v, rho_r)`` (right,
    ``exp(xi)^-1 xhat``) or ``(phi, rho_v, rho_r)`` (left, ``xhat exp(xi)``)."""
    if conv is RIGHT:
        return lg.compose(lg.inverse(lg.se23_exp(lg.Tangent9(-dx[0:3], dx[3:6], dx[6:9]))), xhat)
    return lg.compose(xhat, lg.se23_exp(lg.Tangent9(dx[0:3], dx[3:6], dx[6:9])))


class TestArrayCores:
    """The retraction and the error chart on arrays (``errordyn._retract``,
    ``errordyn._error_vector``) have the bits of the group formulas they
    replace on the fix path, over 200 random states per convention."""

    @pytest.mark.parametrize("conv", [RIGHT, LEFT])
    def test_retraction_is_the_group_formula(self, conv, rng):
        for xhat in random_states(rng, 200):
            dx = random_dx(rng)
            want = retracted(conv, xhat, dx)
            got = _retract(conv, *arrays(xhat), dx)
            for a, b in zip(got, arrays(want)):
                np.testing.assert_array_equal(a, b)
            out, bg, ba = apply_feedback(conv, xhat, ErrorState15.from_vector(dx, conv),
                                         np.zeros(3), np.zeros(3))
            for a, b in zip(arrays(out), arrays(want)):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(np.concatenate([bg, ba]), dx[9:15])

    @pytest.mark.parametrize("conv", [RIGHT, LEFT])
    def test_error_is_the_group_formula(self, conv, rng):
        for xhat, x in zip(random_states(rng, 200), random_states(rng, 200)):
            db_g, db_a = rng.normal(size=3) * 1e-4, rng.normal(size=3) * 1e-3
            if conv is RIGHT:
                xi = lg.se23_log(lg.compose(xhat, lg.inverse(x)))
                phi = -xi.phi
            else:
                xi = lg.se23_log(lg.compose(lg.inverse(xhat), x))
                phi = xi.phi
            want = np.concatenate([phi, xi.rho_v, xi.rho_r, db_g, db_a])
            np.testing.assert_array_equal(
                _error_vector(conv, arrays(xhat), arrays(x), db_g, db_a), want)
            np.testing.assert_array_equal(error_state(conv, xhat, x, db_g, db_a).as_vector(), want)

    @pytest.mark.parametrize("conv", [RIGHT, LEFT])
    def test_update_is_the_object_formula(self, conv, rng):
        """update_gnss on arrays returns the state, P and NIS of the update
        written out through the checked types, bit for bit."""
        from eqnav.filter import FilterState, GnssFix, update_gnss

        lever = LeverArm(np.array([0.5, 0.3, -1.2]))
        scale = np.repeat([1e-3, 0.1, 3.0, 1e-4, 1e-3], 3)
        for x in random_states(rng, 200):
            a = rng.normal(size=(15, 15)) * scale[:, None]
            p = a @ a.T + np.diag(scale**2)
            p = 0.5 * (p + p.T)
            st = FilterState(x, rng.normal(size=3) * 1e-4, rng.normal(size=3) * 1e-3, p, 2.0,
                             conv)
            c = rng.normal(size=(3, 3))
            fix = GnssFix(2.0, x.pos + x.rot @ lever.l_b + rng.normal(size=3) * 3.0,
                          c @ c.T + np.eye(3))

            h = h_matrix(conv, x, lever)
            z = fix.pos_ecef - (x.pos + x.rot @ lever.l_b)
            hp = h @ p
            s = hp @ h.T + fix.cov
            s = 0.5 * (s + s.T)
            sol = np.linalg.solve(s, np.column_stack([hp, z]))
            k = sol[:, :15].T
            dx = ErrorState15.from_vector(k @ z, conv)
            x_new = retracted(conv, x, k @ z)
            ikh = np.eye(15) - k @ h
            p_new = ikh @ p @ ikh.T + k @ fix.cov @ k.T
            want = FilterState(x_new, st.bg + dx.db_g, st.ba + dx.db_a, 0.5 * (p_new + p_new.T),
                               st.t, conv)

            got, innovation, nis = update_gnss(st, fix, lever)
            for u, v in ((got.x.rot, want.x.rot), (got.x.vel, want.x.vel),
                         (got.x.pos, want.x.pos), (got.bg, want.bg), (got.ba, want.ba),
                         (got.p, want.p), (innovation, z)):
                np.testing.assert_array_equal(u, v)
            assert nis == float(z @ sol[:, 15])
            assert (got.t, got.convention, got.x.frame) == (st.t, conv, FrameTag.ECEF_IB)
            assert not any(v.flags.writeable for v in (got.x.rot, got.x.pos, got.bg, got.p))
