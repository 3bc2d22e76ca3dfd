"""Filter predict/update, runner, and observability analysis."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

import eqnav.filter as flt
import eqnav.liegroup as lg
from eqnav.errordyn import (Convention, ErrorState15, LeverArm, NoiseParams, apply_feedback,
                            error_state, g_matrix, h_matrix)
from eqnav.filter import (
    FilterState,
    GnssFix,
    SingularInnovationCov,
    observability_matrix,
    predict,
    run,
    update_gnss,
)
from eqnav.kinematics import _WINDOW, FrameTag, ImuSample, NonMonotonicTime, _walk, integrate_imu
from eqnav.sim import SensorErrorSpec, TrajectorySpec, generate_truth, synthesize_gnss, synthesize_imu
from eqnav.transition import phi_left, phi_right, qd_matrix
from eqnav.verify import heave_observability

RIGHT = Convention.RIGHT_INVARIANT
LEFT = Convention.LEFT_INVARIANT


def default_p0():
    return np.diag(
        [1e-8] * 3 + [1e-4] * 3 + [1.0] * 3 + [1e-10] * 3 + [1e-8] * 3
    )


@pytest.fixture
def scenario(earth):
    spec = TrajectorySpec(
        profile="constant-turn", duration=10.0, imu_rate=100.0, gnss_rate=1.0,
        speed=10.0, turn_rate=0.02,
    )
    truth = generate_truth(spec, earth)
    imu = synthesize_imu(truth, earth, SensorErrorSpec())
    return truth, imu


class TestGnssFixType:
    def test_validates_cov(self):
        with pytest.raises(ValueError):
            GnssFix(0.0, np.zeros(3), -np.eye(3))
        with pytest.raises(ValueError):
            GnssFix(0.0, np.zeros(3), np.array([[1, 2, 0], [0, 1, 0], [0, 0, 1.0]]))

    def test_rejects_non_finite_time(self):
        # a NaN time would map to IMU epoch 0 in run() and never be applied
        for t in (np.nan, np.inf):
            with pytest.raises(ValueError, match="GnssFix.t"):
                GnssFix(t, np.zeros(3), np.eye(3))


class TestGnssCovDecision:
    """``_cov_faults`` is GnssFix's covariance decision on a stack at once."""

    @staticmethod
    def rule(c):
        """GnssFix's checks written out on one matrix alone."""
        if np.linalg.norm(c - c.T) > 1e-9 * max(1.0, np.linalg.norm(c)):
            return 1
        return 2 if np.any(np.linalg.eigvalsh(c) <= 0.0) else 0

    @staticmethod
    def boundary(rejects, lo, hi):
        """The adjacent floats (a, b) in [lo, hi] with ``rejects(a)`` false
        and ``rejects(b)`` true, by bisection on their bit patterns."""
        a, b = np.array([lo, hi]).view(np.int64).tolist()
        while b - a > 1:
            m = (a + b) // 2
            if rejects(np.int64(m).view(np.float64).item()):
                b = m
            else:
                a = m
        return np.array([a, b], dtype=np.int64).view(np.float64).tolist()

    def test_matches_constructor_at_bounds(self, rng):
        cases = []
        for scale in (1e-3, 1.0, 1e4):
            m = rng.normal(size=(3, 3))
            base = scale * (m @ m.T + np.eye(3))
            base[0, 1] = base[1, 0] = 0.0

            def skewed(d):
                c = base.copy()
                c[0, 1] = d  # C - C^T holds d and -d
                return c

            # the symmetry bound, and one ulp either side of the last
            # admitted and the first rejected offset
            a, b = self.boundary(lambda d: self.rule(skewed(d)) == 1, 0.0, scale)
            for d in (np.nextafter(a, 0.0), a, b, np.nextafter(b, np.inf)):
                cases.append(skewed(d))
            assert [self.rule(c) for c in cases[-4:]] == [0, 0, 1, 1]
        # the positive-definite boundary: a zero, a negative zero, the least
        # positive and the least negative eigenvalue, and rank-deficient
        # matrices whose least eigenvalue is roundoff either side of 0
        for least in (0.0, -0.0, 5e-324, -5e-324):
            cases.append(np.diag([1.0, 2.0, least]))
        for _ in range(20):
            v = rng.normal(size=(3, 2))
            cases.append(v @ v.T)
        want = [self.rule(c) for c in cases]
        assert {0, 1, 2} <= set(want)
        stack = np.array(cases)
        for order in (np.arange(len(cases)), rng.permutation(len(cases))):
            assert flt._cov_faults(stack[order]).tolist() == [want[k] for k in order]
        for c, fault in zip(cases, want):
            if fault:
                with pytest.raises(ValueError, match=flt._COV_FAULTS[fault]):
                    GnssFix(0.0, np.zeros(3), c)
            else:
                GnssFix(0.0, np.zeros(3), c)


class TestFilterStateType:
    def test_validates_p(self, scenario):
        truth, _ = scenario
        x0 = truth.samples[0][1]
        bad = np.eye(15)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            FilterState(x0, np.zeros(3), np.zeros(3), bad, 0.0)
        with pytest.raises(ValueError):
            FilterState(x0, np.zeros(3), np.zeros(3), -np.eye(15), 0.0)

    def test_rejects_non_finite_fields(self, scenario):
        x0 = scenario[0].samples[0][1]
        good = {"bg": np.zeros(3), "ba": np.zeros(3), "p": np.eye(15), "t": 0.0}
        bad_p = np.eye(15)
        bad_p[4, 4] = np.nan
        for name, value in (
            ("bg", np.array([0.0, np.nan, 0.0])),
            ("ba", np.array([np.inf, 0.0, 0.0])),
            ("p", bad_p),
            ("t", np.nan),
        ):
            fields = dict(good, **{name: value})
            with pytest.raises(ValueError, match=f"FilterState.{name} "):
                FilterState(x0, fields["bg"], fields["ba"], fields["p"], fields["t"])

    def test_psd_decisions_at_tolerance(self, scenario):
        """P is admitted down to a most negative eigenvalue of -1e-10 trace(P)."""
        x0 = scenario[0].samples[0][1]
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(15, 15)))

        def rotated(eigs):
            p = q @ np.diag(eigs) @ q.T
            return 0.5 * (p + p.T)

        def with_min_eig(k):
            """Eigenvalues over ten decades plus one at -k tau."""
            rest = np.logspace(-10.0, 0.0, 14)
            lam = -k * 1e-10 * rest.sum() / (1.0 + k * 1e-10)  # -k 1e-10 trace
            return rotated(np.concatenate([[lam], rest]))

        low_rank = rng.normal(size=(15, 10))
        for p in (with_min_eig(0.5), low_rank @ low_rank.T, np.zeros((15, 15))):
            FilterState(x0, np.zeros(3), np.zeros(3), p, 0.0)
        with pytest.raises(ValueError, match="positive semidefinite"):
            FilterState(x0, np.zeros(3), np.zeros(3), with_min_eig(2.0), 0.0)

    def test_symmetry_decisions_at_tolerance(self, scenario):
        """P is admitted up to an asymmetry of 1e-12 max(1, max |P_ij|)."""
        x0 = scenario[0].samples[0][1]
        for largest in (0.5, 1e3):
            p = np.eye(15) * 1e-3
            p[6, 6] = largest
            tol = 1e-12 * max(1.0, largest)
            for i, j in ((0, 1), (1, 0)):
                for asym, admitted in ((0.9 * tol, True), (1.1 * tol, False)):
                    q = p.copy()
                    q[i, j] = asym
                    if admitted:
                        FilterState(x0, np.zeros(3), np.zeros(3), q, 0.0)
                    else:
                        with pytest.raises(ValueError, match="symmetric"):
                            FilterState(x0, np.zeros(3), np.zeros(3), q, 0.0)

    def test_time_is_a_python_float(self, scenario, earth):
        """A numpy time becomes a Python float, by the constructor's one
        rule: ``run()``'s first record, the initial state's epoch, has the
        same ``t`` type as every other record."""
        truth, imu = scenario
        st = FilterState(truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(),
                         np.float64(0.0), LEFT)
        assert type(st.t) is float and st.t == 0.0
        recs = run(imu[:21], [], st, NoiseParams(1e-10, 1e-8), earth, LeverArm(np.zeros(3)))
        assert {type(r.t) for r in recs} == {type(r.state.t) for r in recs} == {float}

    def test_requires_ecef_ib(self, earth):
        x = lg.identity_element(FrameTag.NED_EB)
        with pytest.raises(lg.FrameMismatch):
            FilterState(x, np.zeros(3), np.zeros(3), np.eye(15), 0.0)


def accepts(make) -> bool:
    """Whether ``make()`` builds its value without a ``ValueError``."""
    try:
        make()
    except ValueError:
        return False
    return True


class TestBatchedCovarianceChecks:
    """The window's one-pass covariance check decides as FilterState does."""

    @staticmethod
    def cases(rng):
        """Covariances on both sides of every FilterState decision."""
        q, _ = np.linalg.qr(rng.normal(size=(15, 15)))
        rest = np.logspace(-10.0, 0.0, 14)

        def with_min_eig(k):
            # eigenvalues over ten decades plus one at -k tau
            lam = -k * 1e-10 * rest.sum() / (1.0 + k * 1e-10)
            p = q @ np.diag(np.concatenate([[lam], rest])) @ q.T
            return 0.5 * (p + p.T)

        out = []
        for _ in range(6):
            a = rng.normal(size=(15, 15)) * 10.0 ** rng.uniform(-5, 3, size=15)
            out.append(a @ a.T)
        low_rank = rng.normal(size=(15, 10))
        out += [low_rank @ low_rank.T, np.zeros((15, 15)), np.eye(15)]
        out += [with_min_eig(k) for k in (0.5, 0.9, 0.99, 1.01, 1.1, 2.0)]
        for largest in (0.5, 1e3):
            for factor in (0.9, 1.1):
                p = np.eye(15) * 1e-3
                p[6, 6] = largest
                p[0, 1] = factor * 1e-12 * max(1.0, largest)
                out.append(p)
        for value in (np.nan, np.inf, -np.inf):
            for i, j in ((0, 0), (3, 7), (14, 2)):
                p = np.eye(15)
                p[i, j] = value
                out.append(p)
        return out

    def test_same_decision_on_each_row(self, scenario, rng):
        x0 = scenario[0].samples[0][1]
        cases = self.cases(rng)
        want = [accepts(lambda p=p: FilterState(x0, np.zeros(3), np.zeros(3), p, 0.0))
                for p in cases]
        assert True in want and False in want
        with np.errstate(invalid="ignore", over="ignore"):
            for p, ok in zip(cases, want):
                fault = flt._p_faults(p[None])[0]
                assert (fault == 0) == ok
                if not ok:  # the message FilterState gives
                    with pytest.raises(ValueError, match=f"^FilterState.p {flt._P_FAULTS[fault]}$"):
                        FilterState(x0, np.zeros(3), np.zeros(3), p, 0.0)
            # in a stack, each row has its verdict alone
            stack = np.array(cases)
            order = rng.permutation(len(cases))
            for start in range(len(cases)):
                rows = stack[order[start:]]
                alone = [flt._p_faults(p[None])[0] for p in rows]
                assert flt._p_faults(rows).tolist() == alone

class TestPredict:
    def test_non_monotonic_rejected(self, scenario, earth):
        truth, imu = scenario
        st = FilterState(truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 5.0)
        with pytest.raises(NonMonotonicTime):
            predict(st, imu[0], NoiseParams(0, 0), earth)

    def test_zero_dt_unchanged(self, scenario, earth):
        truth, imu = scenario
        st = FilterState(truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0)
        out = predict(st, imu[0], NoiseParams(1e-8, 1e-6), earth)
        assert out is st

    def test_stationary_drift(self, earth):
        spec = TrajectorySpec(profile="static", duration=10.0, imu_rate=100.0)
        truth = generate_truth(spec, earth)
        imu = synthesize_imu(truth, earth, SensorErrorSpec())
        st = FilterState(
            truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0, LEFT
        )
        noise = NoiseParams(0.0, 0.0)
        for prev, cur in zip(imu[:-1], imu[1:]):
            st = predict(st, cur, noise, earth, imu_prev=prev)
        drift = np.linalg.norm(st.x.pos - truth.samples[-1][1].pos)
        assert drift <= 1e-6

    def test_mean_matches_integrate_imu(self, scenario, earth):
        """Zero biases and noise: predict takes integrate_imu's ECEF_IB step.

        integrate_imu solves windows of 128 steps by sweeps, predict one
        step at a time: the rotations are the same recursion, bit for bit,
        and velocity and position agree to roundoff (bounds 1e-10 m/s and
        1e-8 m; the sweeps reach stepping's bits on this stream)."""
        truth, imu = scenario
        x0 = truth.samples[0][1]
        path = integrate_imu(x0, imu, earth, frame=FrameTag.ECEF_IB)
        st = FilterState(x0, np.zeros(3), np.zeros(3), default_p0(), imu[0].t, LEFT)
        noise = NoiseParams(0.0, 0.0)
        for prev, cur, (t, x) in zip(imu[:-1], imu[1:], path[1:]):
            st = predict(st, cur, noise, earth, imu_prev=prev)
            assert st.t == t
            np.testing.assert_array_equal(st.x.rot, x.rot)
            assert np.abs(st.x.vel - x.vel).max() <= 1e-10
            assert np.abs(st.x.pos - x.pos).max() <= 1e-8

    def test_right_covariance_matches_public_phi(self, scenario, earth):
        """predict's P is Phi P Phi^T + Qd from public phi_right and qd_matrix."""
        truth, imu = scenario
        noise = NoiseParams(1e-8, 1e-6, 1e-12, 1e-10)
        bg, ba = np.array([1e-4, -2e-4, 3e-4]), np.array([0.02, -0.01, 0.03])
        for k in (0, 300, 700):
            st = FilterState(truth.samples[k][1], bg, ba, default_p0(), imu[k].t, RIGHT)
            cur = imu[k + 1]
            dt = cur.t - st.t
            corrected = ImuSample(cur.t, cur.gyro - bg, cur.accel - ba)
            phi = phi_right(st.x, corrected, earth, dt)
            qd = qd_matrix(phi, g_matrix(RIGHT, st.x), noise, dt)
            want = phi.matrix @ st.p @ phi.matrix.T + qd
            got = predict(st, cur, noise, earth).p
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_left_covariance_matches_public_phi(self, scenario, earth):
        """predict's P is Phi P Phi^T + Qd from public phi_left and qd_matrix."""
        truth, imu = scenario
        noise = NoiseParams(1e-8, 1e-6, 1e-12, 1e-10)
        bg, ba = np.array([1e-4, -2e-4, 3e-4]), np.array([0.02, -0.01, 0.03])
        for k in (0, 300, 700):
            st = FilterState(truth.samples[k][1], bg, ba, default_p0(), imu[k].t, LEFT)
            cur = imu[k + 1]
            dt = cur.t - st.t
            corrected = ImuSample(cur.t, cur.gyro - bg, cur.accel - ba)
            phi = phi_left(corrected, dt)
            qd = qd_matrix(phi, g_matrix(LEFT, st.x), noise, dt)
            want = phi.matrix @ st.p @ phi.matrix.T + qd
            got = predict(st, cur, noise, earth).p
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("conv", [RIGHT, LEFT])
    @pytest.mark.parametrize("epochs", [10, 50])
    def test_window_covariances_match_public_phi(self, scenario, earth, conv, epochs):
        """Each covariance of a fix-free run() window of ``epochs`` epochs,
        whose covariance step folds in the trapezoidal Qd, is Phi P Phi^T +
        Qd of the epoch before it, with Phi from public phi_left/phi_right
        (at that epoch's state) and Qd from qd_matrix, within 1e-15 max|P|."""
        truth, imu = scenario
        noise = NoiseParams(1e-8, 1e-6, 1e-12, 1e-10)
        bg, ba = np.array([1e-4, -2e-4, 3e-4]), np.array([0.02, -0.01, 0.03])
        first = 300
        st = FilterState(truth.samples[first][1], bg, ba, default_p0(), imu[first].t, conv)
        stream = imu[first : first + epochs + 1]
        recs = run(stream, [], st, noise, earth, LeverArm(np.zeros(3)))
        assert len(recs) == epochs + 1
        for prev, cur, start, rec in zip(stream[:-1], stream[1:], recs[:-1], recs[1:]):
            dt = cur.t - prev.t
            corrected = ImuSample(cur.t, 0.5 * (prev.gyro + cur.gyro) - bg,
                                  0.5 * (prev.accel + cur.accel) - ba)
            if conv is LEFT:
                phi = phi_left(corrected, dt)
            else:
                phi = phi_right(start.state.x, corrected, earth, dt)
            qd = qd_matrix(phi, g_matrix(conv, start.state.x), noise, dt)
            want = phi.matrix @ start.state.p @ phi.matrix.T + qd
            assert np.abs(rec.state.p - want).max() <= 1e-15 * np.abs(want).max()

    def test_time_stays_a_python_float(self, scenario, earth):
        """A sample time given as a numpy float gives the predicted state a
        Python float ``t``, as the constructor's rule does."""
        truth, imu = scenario
        st = FilterState(truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0, LEFT)
        out = predict(st, ImuSample(np.float64(0.02), imu[2].gyro, imu[2].accel),
                      NoiseParams(1e-8, 1e-6), earth)
        assert type(out.t) is float and out.t == 0.02

    def test_p_trace_increases(self, scenario, earth):
        truth, imu = scenario
        noise = NoiseParams(1e-8, 1e-6, 1e-12, 1e-10)
        for conv in (RIGHT, LEFT):
            st = FilterState(
                truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0, conv
            )
            traces = [np.trace(st.p)]
            for prev, cur in zip(imu[:20], imu[1:21]):
                st = predict(st, cur, noise, earth, imu_prev=prev)
                traces.append(np.trace(st.p))
            assert all(b > a for a, b in zip(traces[:-1], traces[1:]))

    def test_left_covariance_trajectory_independent(self, scenario, earth):
        truth, imu = scenario
        noise = NoiseParams(1e-8, 1e-6, 1e-12, 1e-10)
        p0 = default_p0()
        other_x0 = lg.compose(
            lg.se23_exp(lg.Tangent9(np.array([0.1, -0.2, 0.3]), np.ones(3), np.ones(3) * 100)),
            truth.samples[0][1],
        )
        sa = FilterState(truth.samples[0][1], np.zeros(3), np.zeros(3), p0, 0.0, LEFT)
        sb = FilterState(other_x0, np.zeros(3), np.zeros(3), p0, 0.0, LEFT)
        for prev, cur in zip(imu[:10], imu[1:11]):
            sa = predict(sa, cur, noise, earth, imu_prev=prev)
            sb = predict(sb, cur, noise, earth, imu_prev=prev)
        np.testing.assert_array_equal(sa.p, sb.p)


class TestUpdate:
    def test_vanishing_p_leaves_state(self, scenario, earth):
        truth, _ = scenario
        x0 = truth.samples[0][1]
        fix = GnssFix(0.0, x0.pos.copy(), 1e-4 * np.eye(3))
        st = FilterState(x0, np.zeros(3), np.zeros(3), np.eye(15) * 1e-30, 0.0, RIGHT)
        out, innovation, nis = update_gnss(st, fix, LeverArm(np.zeros(3)))
        assert np.abs(out.x.as_matrix() - x0.as_matrix()).max() <= 1e-9
        assert np.linalg.norm(innovation) <= 1e-9

    @pytest.mark.parametrize("conv", [RIGHT, LEFT])
    def test_tiny_r_snaps_position(self, scenario, earth, conv):
        truth, _ = scenario
        x0 = truth.samples[0][1]
        wrong = lg.GroupElement(
            x0.rot, x0.vel, x0.pos + np.array([3.0, -2.0, 1.0]), x0.frame
        )
        st = FilterState(wrong, np.zeros(3), np.zeros(3), default_p0() * 100, 0.0, conv)
        fix = GnssFix(0.0, x0.pos.copy(), 1e-12 * np.eye(3))
        out, _, _ = update_gnss(st, fix, LeverArm(np.zeros(3)))
        assert np.linalg.norm(out.x.pos - x0.pos) <= 1e-6 * np.linalg.norm(
            wrong.pos - x0.pos
        ) + 1e-6

    def test_joseph_form_preserves_symmetry(self, scenario, earth, rng):
        truth, _ = scenario
        x0 = truth.samples[0][1]
        a = rng.normal(size=(15, 15))
        p = a @ a.T + np.eye(15) * 1e-6
        p *= 1e-4 / np.abs(p).max()
        st = FilterState(x0, np.zeros(3), np.zeros(3), p, 0.0, LEFT)
        fix = GnssFix(0.0, x0.pos + rng.normal(size=3), np.eye(3))
        out, _, _ = update_gnss(st, fix, LeverArm(np.array([0.5, 0.3, -1.2])))
        scale = np.abs(out.p).max()
        assert np.abs(out.p - out.p.T).max() <= 1e-12 * scale
        assert np.linalg.eigvalsh(out.p).min() >= -1e-10 * np.trace(out.p)

    def test_non_finite_nis_rejected(self, scenario, earth):
        """A fix 1e160 m off a left state is admitted, but its NIS
        overflows: update_gnss raises naming the NIS, with no numpy
        warning."""
        truth, _ = scenario
        x0 = truth.samples[0][1]
        st = FilterState(x0, np.zeros(3), np.zeros(3), default_p0(), 0.0, LEFT)
        fix = GnssFix(0.0, x0.pos + 1e160, np.eye(3))
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="non-finite score of the fix: NIS inf"):
                update_gnss(st, fix, LeverArm(np.zeros(3)))

    def test_singular_innovation_rejected(self, scenario, earth):
        truth, _ = scenario
        x0 = truth.samples[0][1]
        st = FilterState(x0, np.zeros(3), np.zeros(3), np.eye(15) * 1e-30, 0.0, RIGHT)
        fix = GnssFix(0.0, x0.pos.copy(), np.diag([1.0, 1.0, 1e-14]))
        with pytest.raises(SingularInnovationCov):
            update_gnss(st, fix, LeverArm(np.zeros(3)))

    def test_condition_decided_at_bound(self, scenario):
        """With P = 0, S is the fix covariance diag(1, 1, c), condition 1/c:
        0.9e12 is admitted, 1.1e12 raised with the condition named."""
        x0 = scenario[0].samples[0][1]
        st = FilterState(x0, np.zeros(3), np.zeros(3), np.zeros((15, 15)), 0.0, RIGHT)
        lever = LeverArm(np.zeros(3))
        update_gnss(st, GnssFix(0.0, x0.pos.copy(), np.diag([1.0, 1.0, 1 / 0.9e12])), lever)
        fix = GnssFix(0.0, x0.pos.copy(), np.diag([1.0, 1.0, 1 / 1.1e12]))
        with pytest.raises(SingularInnovationCov, match=r"condition 1\.100e\+12"):
            update_gnss(st, fix, lever)

    @pytest.mark.parametrize("conv", [RIGHT, LEFT])
    def test_stacked_solve_keeps_gain(self, scenario, rng, conv):
        """The one solve against [H P | z] gives the gain of
        ``np.linalg.solve(S, H P).T`` bit for bit, so the same covariance,
        and the NIS of ``z^T S^-1 z`` to rounding."""
        x0 = scenario[0].samples[0][1]
        p = default_p0() * 100
        st = FilterState(x0, np.zeros(3), np.zeros(3), p, 0.0, conv)
        lever = LeverArm(np.array([0.5, 0.3, -1.2]))
        cov = np.diag([1.0, 2.0, 3.0])
        fix = GnssFix(0.0, x0.pos + x0.rot @ lever.l_b + rng.normal(size=3), cov)
        out, z, nis = update_gnss(st, fix, lever)
        h = h_matrix(conv, x0, lever)
        s = h @ p @ h.T + cov
        s = 0.5 * (s + s.T)
        k = np.linalg.solve(s, h @ p).T
        ikh = np.eye(15) - k @ h
        p_new = ikh @ p @ ikh.T + k @ cov @ k.T
        np.testing.assert_array_equal(out.p, 0.5 * (p_new + p_new.T))
        assert nis == pytest.approx(z @ np.linalg.solve(s, z), rel=1e-15)

    @pytest.mark.parametrize("conv", [RIGHT, LEFT])
    def test_fix_past_float_range_names_correction(self, scenario, conv):
        """A fix at x = 1e300 m gives an attitude correction too large for
        the retraction's exponential to square: update_gnss raises one
        ValueError naming it, and no numpy warning on the way (the left
        NIS overflows).  apply_feedback decides the same correction by the
        same rule, an entry below 2**511."""
        x0 = scenario[0].samples[0][1]
        st = FilterState(x0, np.zeros(3), np.zeros(3), default_p0(), 0.0, conv)
        pos = x0.pos.copy()
        pos[0] = 1e300
        lever = LeverArm(np.array([0.5, 0.3, -1.2]))
        named = (r"^correction ErrorState15\.phi has an entry of magnitude \d\.\d{3}e\+\d+, "
                 "too large")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=named):
                update_gnss(st, GnssFix(0.0, pos, np.eye(3)), lever)
            for phi, admitted in ((np.nextafter(2.0**511, 0.0), True), (2.0**511, False)):
                dx = ErrorState15.from_vector(np.r_[0.0, -phi, np.zeros(13)], conv)
                if admitted:
                    apply_feedback(conv, x0, dx, np.zeros(3), np.zeros(3))
                else:
                    with pytest.raises(ValueError, match=named):
                        apply_feedback(conv, x0, dx, np.zeros(3), np.zeros(3))

    def test_time_slop_enforced(self, scenario, earth):
        truth, _ = scenario
        x0 = truth.samples[0][1]
        st = FilterState(x0, np.zeros(3), np.zeros(3), default_p0(), 0.0, RIGHT)
        fix = GnssFix(0.5, x0.pos.copy(), np.eye(3))
        with pytest.raises(ValueError):
            update_gnss(st, fix, LeverArm(np.zeros(3)))


class TestFixMatching:
    def test_nearest_is_argmin(self, rng):
        """One searchsorted and the nearer neighbour, the earlier on a tie,
        give argmin's index on strictly increasing streams: exact midpoint
        ties, times outside the stream's span and one-sample streams
        included."""
        ties = 0
        for n in [1, 1, 2, 3, 5] + [40] * 300:
            if n % 2:
                # integer multiples of 1/4: every midpoint is an exact tie
                times = np.cumsum(rng.integers(1, 6, n)) * 0.25 + rng.integers(-20, 20)
            else:
                times = np.cumsum(rng.uniform(1e-3, 1.0, n)) + rng.uniform(-1e3, 1e3)
            span = times[-1] - times[0] + 1.0
            t = np.sort(np.concatenate([
                rng.uniform(times[0] - span, times[-1] + span, 30),
                0.5 * (times[:-1] + times[1:]),
                times,
            ]))
            got = flt._nearest(times, t).tolist()
            assert got == [int(np.argmin(np.abs(times - tj))) for tj in t]
            d = np.abs(times[:, None] - t)
            ties += int(((d == d.min(axis=0)).sum(axis=0) > 1).sum())
        assert ties > 1000

    def test_rejected_fix_carries_its_index(self, scenario, earth):
        truth, imu = scenario
        st = FilterState(truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0)
        pos = truth.samples[0][1].pos.copy()
        ok = [GnssFix(t, pos, np.eye(3)) for t in (0.0, 0.5, 1.0)]
        cases = (
            (ok + [GnssFix(1.0 + 5e-7, pos, np.eye(3))], 3, "both map to IMU epoch t=1.0"),
            (ok[:2] + [GnssFix(0.7031, pos, np.eye(3))] + ok[2:], 2, "no IMU epoch within"),
        )
        for fixes, index, message in cases:
            with pytest.raises(ValueError, match=message) as err:
                run(imu[:200], fixes, st, NoiseParams(0, 0), earth, LeverArm(np.zeros(3)))
            assert err.value.index == index

    def test_fix_without_imu_stream_rejected(self, scenario, earth):
        """An empty IMU stream has no epoch for any fix; with no fix the run
        is its initial record."""
        truth, _ = scenario
        st = FilterState(truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0)
        fix = GnssFix(0.0, truth.samples[0][1].pos.copy(), np.eye(3))
        with pytest.raises(ValueError, match=r"no IMU epoch within 1e-06 s of GNSS fix at t=0\.0") \
                as err:
            run([], [fix], st, NoiseParams(0, 0), earth, LeverArm(np.zeros(3)))
        assert err.value.index == 0
        records = run([], [], st, NoiseParams(0, 0), earth, LeverArm(np.zeros(3)))
        assert [r.state for r in records] == [st]


class TestRun:
    def test_duplicate_timestamp_rejected_as_integrate_imu(self, scenario, earth):
        """run() and integrate_imu prepare the stream the same way: the same
        rejection, with the same message."""
        truth, imu = scenario
        bad = imu[:5] + [ImuSample(imu[4].t, imu[4].gyro, imu[4].accel)] + imu[5:9]
        st = FilterState(truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0)
        with pytest.raises(NonMonotonicTime) as by_run:
            run(bad, [], st, NoiseParams(0, 0), earth, LeverArm(np.zeros(3)))
        with pytest.raises(NonMonotonicTime) as by_walk:
            integrate_imu(truth.samples[0][1], bad, earth)
        message = f"imu stream not increasing at t={imu[4].t}"
        assert str(by_run.value) == str(by_walk.value) == message

    def test_overflowing_gyro_row_names_epoch(self, scenario, earth):
        """A gyro row whose |w dt|^2 overflows is named by the first epoch
        whose interval averages it, with no numpy warning, by run() in both
        conventions, predict and integrate_imu."""
        truth, imu = scenario
        bad = list(imu[:40])
        bad[20] = ImuSample(bad[20].t, np.array([1e300, 0.0, 0.0]), bad[20].accel)
        x0, zero = truth.samples[0][1], np.zeros(3)
        named = re.escape(f"at epoch t={bad[20].t}: ")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for conv in (LEFT, RIGHT):
                st = FilterState(x0, zero, zero, default_p0(), 0.0, conv)
                with pytest.raises(ValueError, match=named):
                    run(bad, [], st, NoiseParams(0, 0), earth, LeverArm(zero))
                st = FilterState(x0, zero, zero, default_p0(), bad[19].t, conv)
                for prev in (bad[19], None):
                    with pytest.raises(ValueError, match=named):
                        predict(st, bad[20], NoiseParams(0, 0), earth, prev)
            with pytest.raises(ValueError, match=named):
                integrate_imu(x0, bad, earth)

    @pytest.mark.parametrize("ax", [1e115, 1e130, 1e160])
    def test_overflowing_specific_force_names_epoch(self, scenario, earth, ax):
        """A finite specific force that throws the next state's position so
        far that |r|^3 is past the float range fails that epoch's
        gravitation as a ValueError naming it, with no numpy warning, by
        run() in both conventions and integrate_imu in ECEF_IB and NED_IB."""
        truth, imu = scenario
        bad = list(imu[:40])
        bad[20] = ImuSample(bad[20].t, bad[20].gyro, np.array([ax, 0.0, 0.0]))
        x0, zero = truth.samples[0][1], np.zeros(3)
        named = re.escape(f"at epoch t={bad[21].t}: gravitation at |r| = ") + ".* m overflows"
        ned = lg.GroupElement(np.eye(3), zero, earth.ned_position(0.7, 400.0), FrameTag.NED_IB)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for conv in (LEFT, RIGHT):
                st = FilterState(x0, zero, zero, default_p0(), 0.0, conv)
                with pytest.raises(ValueError, match=named):
                    run(bad, [], st, NoiseParams(0, 0), earth, LeverArm(zero))
            for x in (x0, ned):
                with pytest.raises(ValueError, match=named):
                    integrate_imu(x, bad, earth)

    @pytest.mark.parametrize("frame", [FrameTag.NED_IB, FrameTag.NED_EB])
    def test_overflowing_transport_rate_names_epoch(self, scenario, earth, frame):
        """A specific force of 1e200 throws an NED state's velocity so far
        that the navigation-frame rate's rotation over the step is too large
        to square: integrate_imu raises a ValueError naming that epoch, with
        no numpy warning."""
        _, imu = scenario
        bad = list(imu[:40])
        bad[20] = ImuSample(bad[20].t, bad[20].gyro, np.array([1e200, 0.0, 0.0]))
        x0 = lg.GroupElement(np.eye(3), np.zeros(3), earth.ned_position(0.7, 400.0), frame)
        named = re.escape(f"at epoch t={bad[20].t}: navigation-frame rate ")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=named):
                integrate_imu(x0, bad, earth)

    def test_duplicate_timestamp_rejected(self, scenario, earth):
        truth, imu = scenario
        bad = imu[:5] + [ImuSample(imu[4].t, imu[4].gyro, imu[4].accel)]
        st = FilterState(truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0)
        with pytest.raises(NonMonotonicTime) as err:
            run(bad, [], st, NoiseParams(0, 0), earth, LeverArm(np.zeros(3)))
        assert str(imu[4].t) in str(err.value)

    def test_pure_dead_reckoning(self, scenario, earth):
        truth, imu = scenario
        st = FilterState(truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0)
        records = run(imu[:200], [], st, NoiseParams(0, 0), earth, LeverArm(np.zeros(3)))
        assert len(records) == 200
        assert all(r.nis is None for r in records)
        final = records[-1].state
        want = truth.samples[199][1]
        assert np.linalg.norm(final.x.pos - want.pos) <= 1e-6

    def test_unmatched_fix_rejected(self, scenario, earth):
        truth, imu = scenario
        st = FilterState(truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0)
        fix = GnssFix(0.5031, truth.samples[0][1].pos.copy(), np.eye(3))
        with pytest.raises(ValueError):
            run(imu[:200], [fix], st, NoiseParams(0, 0), earth, LeverArm(np.zeros(3)),
                time_slop=1e-6)

    def test_colliding_fixes_rejected(self, scenario, earth):
        truth, imu = scenario
        st = FilterState(truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0)
        pos = truth.samples[100][1].pos.copy()
        fixes = [GnssFix(1.0, pos, np.eye(3)), GnssFix(1.0 + 5e-7, pos, np.eye(3))]
        with pytest.raises(ValueError) as err:
            run(imu[:200], fixes, st, NoiseParams(0, 0), earth, LeverArm(np.zeros(3)))
        msg = str(err.value)
        assert str(fixes[0].t) in msg and str(fixes[1].t) in msg
        assert f"epoch t={imu[100].t}" in msg

    def test_over_range_interval_names_epoch(self, scenario, earth):
        # a 2e5 rad/s gyro row turns far more than one turn per 10 ms interval
        truth, imu = scenario
        bad = list(imu[:20])
        bad[10] = ImuSample(bad[10].t, np.array([0.0, 0.0, 2e5]), bad[10].accel)
        for conv in (RIGHT, LEFT):
            st = FilterState(
                truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0, conv
            )
            with pytest.raises(ValueError, match=f"t={bad[10].t}"):
                run(bad, [], st, NoiseParams(0, 0), earth, LeverArm(np.zeros(3)))

    def test_records_match_predict_update_loop(self, scenario, earth):
        """run() takes each window between fixes in one stacked pass; its
        records are those of a loop of predict and update_gnss."""
        truth, imu = scenario
        imu = list(imu[:301])
        # two rows whose intervals turn |w dt| = 2.25 rad, past the 2 rad
        # switch of Psi's coefficients, in a window of 200 epochs (more than
        # one stacked pass takes)
        for k in (100, 180):
            imu[k] = ImuSample(imu[k].t, np.array([0.0, 450.0, 0.0]), imu[k].accel)
        fixes = [
            GnssFix(t, x.pos + np.array([0.3, -0.2, 0.1]), np.eye(3))
            for t, x in (truth.samples[0], truth.samples[50], truth.samples[250])
        ]
        assert 250 - 50 > _WINDOW
        noise = NoiseParams(1e-8, 1e-6, 1e-12, 1e-10)
        lever = LeverArm(np.array([0.5, 0.3, -1.2]))
        fix_at = {round(f.t * 100): f for f in fixes}

        def close(got, want):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

        for conv in (RIGHT, LEFT):
            st = FilterState(
                truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0, conv
            )
            records = run(imu, fixes, st, noise, earth, lever)
            assert len(records) == len(imu)
            for k, rec in enumerate(records):
                if k > 0:
                    st = predict(st, imu[k], noise, earth, imu_prev=imu[k - 1])
                innovation = nis = None
                if k in fix_at:
                    st, innovation, nis = update_gnss(st, fix_at[k], lever)
                assert rec.t == st.t == imu[k].t
                for got, want in (
                    (rec.state.x.rot, st.x.rot), (rec.state.x.vel, st.x.vel),
                    (rec.state.x.pos, st.x.pos), (rec.state.p, st.p),
                    (rec.p_diag, np.diag(st.p)),
                ):
                    close(got, want)
                if k in fix_at:
                    close(rec.state.bg, st.bg)
                    close(rec.state.ba, st.ba)
                    close(rec.innovation, innovation)
                    assert abs(rec.nis - nis) <= 1e-12 * nis
                else:
                    assert rec.nis is None and rec.innovation is None

    def test_over_range_row_named_in_window_with_fix(self, scenario, earth):
        # the stacked pass of the window 1..45 meets the row at epoch 30
        # before the window's epochs run; the error still names that epoch
        truth, imu = scenario
        bad = list(imu[:60])
        bad[30] = ImuSample(bad[30].t, np.array([0.0, 0.0, 2e5]), bad[30].accel)
        fix = GnssFix(imu[45].t, truth.samples[45][1].pos.copy(), np.eye(3))
        for conv in (RIGHT, LEFT):
            st = FilterState(
                truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0, conv
            )
            with pytest.raises(ValueError, match=re.escape(f"at epoch t={bad[30].t}: ")):
                run(bad, [fix], st, NoiseParams(0, 0), earth, LeverArm(np.zeros(3)))

    def test_failed_window_propagated_once(self, scenario, earth, monkeypatch):
        # the window 1..45 fails at epoch 30 (a transition over one turn): it
        # names the epoch from one window pass and one pass of the 29 epochs
        # before it, with no per-epoch predict
        import eqnav.filter as flt

        truth, imu = scenario
        bad = list(imu[:60])
        bad[30] = ImuSample(bad[30].t, np.array([0.0, 0.0, 2e5]), bad[30].accel)
        fix = GnssFix(imu[45].t, truth.samples[45][1].pos.copy(), np.eye(3))
        walks = []

        def walk(*args):
            walks.append(len(args[4]))
            return _walk(*args)

        def no_predict(*args, **kwargs):
            raise AssertionError("run() called predict")

        monkeypatch.setattr(flt, "_walk", walk)
        monkeypatch.setattr(flt, "predict", no_predict)
        for conv in (RIGHT, LEFT):
            walks.clear()
            st = FilterState(
                truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0, conv
            )
            with pytest.raises(ValueError, match=re.escape(f"at epoch t={bad[30].t}: ")):
                run(bad, [fix], st, NoiseParams(0, 0), earth, LeverArm(np.zeros(3)))
            assert walks == [45, 29]

    def test_invalid_covariance_names_epoch(self, scenario, earth):
        # a specific force of 1e200 m/s^2 overflows the epoch's
        # covariance: the FilterState check fails there and names it
        truth, imu = scenario
        bad = list(imu[:40])
        bad[20] = ImuSample(bad[20].t, bad[20].gyro, np.array([1e200, 0.0, 0.0]))
        for conv in (RIGHT, LEFT):
            st = FilterState(
                truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0, conv
            )
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError, match=re.escape(f"at epoch t={bad[20].t}: Filter")):
                    run(bad, [], st, NoiseParams(1e-8, 1e-6), earth, LeverArm(np.zeros(3)))

    @pytest.mark.parametrize("stage", ["mean", "transition", "overflow", "indefinite"])
    @pytest.mark.parametrize("conv", [RIGHT, LEFT])
    def test_failure_in_window_named_as_predict_loop(
        self, scenario, earth, monkeypatch, stage, conv
    ):
        """A 100-epoch fix-free window whose epoch 60 fails, in the stage
        ``stage``, raises what a loop of predict raises, naming that epoch."""
        truth, imu = scenario
        k, step = 60, 0.01
        gyro, accel = imu[0].gyro, imu[0].accel
        noise = NoiseParams(1e-8, 1e-6, 1e-12, 1e-10)
        bad_gyro, bad_accel, stretch = gyro, accel, 0.0
        if stage == "mean":
            # the velocity increment over a 4 s interval overflows
            step, bad_accel = 4.0, np.array([1e308, 0.0, 0.0])
        elif stage == "transition":
            bad_gyro = np.array([0.0, 0.0, 2e5])  # over one turn in the interval
        elif stage == "overflow":
            bad_accel = np.array([1e200, 0.0, 0.0])  # overflows the covariance
        else:
            # epoch k's interval, the one 1.25 steps long, has process noise
            # that takes 1 from the accel-bias variances: P is not PSD there;
            # the covariance step adds each half H of the noise once to the
            # bias block, whose Phi rows are the identity's
            stretch = 0.25 * step
            half_noise_alone = flt._half_noise

            def half_noise_cut(g, noise, dt):
                halves = half_noise_alone(g, noise, dt)
                halves[np.abs(dt - 1.25 * step) < 1e-9, 12:, 12:] -= 0.5 * np.eye(3)
                return halves

            monkeypatch.setattr(flt, "_half_noise", half_noise_cut)
        stream = [
            ImuSample(step * j + (stretch if j >= k else 0.0),
                      bad_gyro if j == k else gyro, bad_accel if j == k else accel)
            for j in range(101)
        ]
        st = FilterState(truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0, conv)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as loop:
                state = st
                for j in range(1, len(stream)):
                    state = predict(state, stream[j], noise, earth, imu_prev=stream[j - 1])
            with pytest.raises(ValueError) as window:
                run(stream, [], st, noise, earth, LeverArm(np.zeros(3)))
        assert type(window.value) is type(loop.value)
        assert str(window.value) == str(loop.value)
        assert str(window.value).startswith(f"at epoch t={stream[k].t}: ")

    @pytest.mark.parametrize("conv", [RIGHT, LEFT])
    def test_earlier_transition_fault_named_before_later_one(self, scenario, earth, conv):
        """Epoch 40 turns over one turn and epoch 60's body rotation is too
        large to square: the window names epoch 40, as a loop of predict
        does, though the stacked pass meets epoch 60's fault first."""
        truth, imu = scenario
        gyro, accel = imu[0].gyro, imu[0].accel
        bad = {40: np.array([0.0, 0.0, 2e5]), 60: np.array([1e300, 0.0, 0.0])}
        stream = [ImuSample(0.01 * j, bad.get(j, gyro), accel) for j in range(101)]
        noise = NoiseParams(1e-8, 1e-6, 1e-12, 1e-10)
        st = FilterState(truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0, conv)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as loop:
                state = st
                for j in range(1, len(stream)):
                    state = predict(state, stream[j], noise, earth, imu_prev=stream[j - 1])
            with pytest.raises(ValueError) as window:
                run(stream, [], st, noise, earth, LeverArm(np.zeros(3)))
        assert str(window.value) == str(loop.value)
        assert str(window.value).startswith(f"at epoch t={stream[40].t}: ")
        assert "one turn" in str(window.value)

    def test_fix_free_run_memory_bounded(self, scenario, earth):
        """A 10 000-epoch run without fixes is one window; its stacked pass
        works through it a bounded number of epochs at a time."""
        truth, imu = scenario
        gyro, accel = imu[0].gyro, imu[0].accel
        stream = [ImuSample(0.01 * k, gyro, accel) for k in range(10_001)]
        st = FilterState(
            truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0, LEFT
        )
        noise = NoiseParams(1e-8, 1e-6, 1e-12, 1e-10)
        tracemalloc.start()
        try:
            records = run(stream, [], st, noise, earth, LeverArm(np.zeros(3)))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == len(stream)
        # in one piece, the window's transition matrices and noises alone
        # would take 2 x 10 000 x 15 x 15 x 8 B = 36 MB
        assert peak - held < 4e6

    def test_fix_free_right_run_memory_bounded(self, scenario, earth):
        """The right convention's window also holds its transition matrices,
        G and noises a bounded number of epochs at a time."""
        truth, imu = scenario
        gyro, accel = imu[0].gyro, imu[0].accel
        stream = [ImuSample(0.01 * k, gyro, accel) for k in range(10_001)]
        st = FilterState(
            truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0, RIGHT
        )
        noise = NoiseParams(1e-8, 1e-6, 1e-12, 1e-10)
        tracemalloc.start()
        try:
            records = run(stream, [], st, noise, earth, LeverArm(np.zeros(3)))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == len(stream)
        # in one piece, the window's transition matrices, G and noises
        # alone would take 10 000 x (2 x 15 x 15 + 15 x 12) x 8 B = 50 MB
        assert peak - held < 4e6

    def test_fix_at_first_epoch_applied(self, scenario, earth):
        truth, imu = scenario
        st = FilterState(truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0)
        fixes = [
            GnssFix(t, x.pos.copy(), np.eye(3)) for t, x in truth.samples[0:201:100]
        ]
        records = run(imu[:301], fixes, st, NoiseParams(0, 0), earth, LeverArm(np.zeros(3)))
        assert fixes[0].t == records[0].t == 0.0
        assert records[0].innovation is not None and records[0].nis is not None
        assert sum(r.nis is not None for r in records) == len(fixes)

    def test_fix_before_initial_state_rejected(self, scenario, earth):
        truth, imu = scenario
        st = FilterState(truth.samples[50][1], np.zeros(3), np.zeros(3), default_p0(), imu[50].t)
        fix = GnssFix(imu[20].t, truth.samples[20][1].pos.copy(), np.eye(3))
        with pytest.raises(ValueError, match=f"fix at t={fix.t} "):
            run(imu[:200], [fix], st, NoiseParams(0, 0), earth, LeverArm(np.zeros(3)))

    def test_consistency_only_at_fixes(self, scenario, earth):
        """error and NEES are set exactly at the epochs that applied a fix."""
        truth, imu = scenario
        bg, ba = np.array([1e-5, -2e-5, 3e-5]), np.array([1e-3, 2e-3, -1e-3])
        gnss = synthesize_gnss(truth, np.zeros(3), 1.0, np.eye(3), seed=5)[:3]
        noise = NoiseParams(1e-10, 1e-8, 1e-16, 1e-14)
        for conv in (RIGHT, LEFT):
            st = FilterState(
                truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0, conv
            )
            recs = run(imu[:301], gnss, st, noise, earth, LeverArm(np.zeros(3)),
                       truth=truth.samples, truth_biases=(bg, ba))
            fixed = [r for r in recs if r.nis is not None]
            assert [r.t for r in fixed] == [f.t for f in gnss]
            for r in fixed:
                s = r.state
                err = error_state(conv, s.x, dict(truth.samples)[r.t],
                                  bg - s.bg, ba - s.ba).as_vector()
                np.testing.assert_array_equal(r.error, err)
                assert r.nees == float(err @ np.linalg.solve(s.p, err))
            for r in recs:
                if r.nis is None:
                    assert r.error is None and r.nees is None

    def test_fresh_truth_builds_only_the_states_read(self, earth, monkeypatch):
        """A run on a fresh TruthTrajectory's samples builds the states of
        its fix epochs and no other, where a map of them built all 1000;
        its records are those of a run on a list of the same pairs."""
        import eqnav.sim as sim

        built, record = [0], sim._truth_record

        def counted(stacks, k):
            built[0] += 1
            return record(stacks, k)

        monkeypatch.setattr(sim, "_truth_record", counted)
        spec = TrajectorySpec(profile="constant-turn", duration=10.0, imu_rate=100.0,
                              gnss_rate=1.0, speed=10.0, turn_rate=0.02)
        truth = generate_truth(spec, earth)
        imu = synthesize_imu(truth, earth, SensorErrorSpec(np.full(3, 1e-5), np.full(3, 1e-4),
                                                           4e-8, 4e-6, seed=2))
        gnss = synthesize_gnss(truth, np.zeros(3), 1.0, np.eye(3), seed=3)
        noise = NoiseParams(4e-8, 4e-6, 1e-16, 1e-14)
        for conv in (LEFT, RIGHT):
            fresh = generate_truth(spec, earth)
            built[0] = 0
            st = FilterState(fresh.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0,
                             conv)
            got = run(imu, gnss, st, noise, earth, LeverArm(np.zeros(3)), truth=fresh.samples)
            assert len(truth.samples) == 1000 and len(gnss) == 9
            assert built[0] <= len(gnss) + 1
            want = run(imu, gnss, st, noise, earth, LeverArm(np.zeros(3)),
                       truth=list(truth.samples))
            assert len(got) == len(want) and sum(r.nees is not None for r in got) == len(gnss)
            for a, b in zip(got, want):
                assert (a.t, a.nis, a.nees) == (b.t, b.nis, b.nees)
                for x, y in ((a.error, b.error), (a.state.x.pos, b.state.x.pos),
                             (a.p_diag, b.p_diag)):
                    np.testing.assert_array_equal(x, y)

    def test_truth_list_read_as_a_map(self, scenario, earth):
        """A caller's truth list may come in any order, and the last pair at
        a repeated time is the one read, as a dict of the pairs reads it;
        a slice of the samples, reversed or strided, is looked up too."""
        truth, imu = scenario
        gnss = synthesize_gnss(truth, np.zeros(3), 1.0, np.eye(3), seed=5)[:3]
        noise = NoiseParams(1e-10, 1e-8, 1e-16, 1e-14)
        st = FilterState(truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0, LEFT)
        t1, x1 = truth.samples[100]
        moved = lg.GroupElement(x1.rot, x1.vel, x1.pos + 5.0, x1.frame)
        pairs = list(truth.samples)[::-1] + [(t1, moved)] + [(99.0, x1)]
        want = run(imu[:301], gnss, st, noise, earth, LeverArm(np.zeros(3)),
                   truth=sorted(dict(pairs).items()))
        for given in (pairs, iter(pairs)):
            got = run(imu[:301], gnss, st, noise, earth, LeverArm(np.zeros(3)), truth=given)
            assert [r.nees for r in got] == [r.nees for r in want]
        plain = run(imu[:301], gnss, st, noise, earth, LeverArm(np.zeros(3)),
                    truth=list(truth.samples))
        assert got[100].t == t1 and got[100].nees > 100 * plain[100].nees  # the moved state
        for part in (truth.samples[::-1], truth.samples[::50], truth.samples[250:]):
            got = run(imu[:301], gnss, st, noise, earth, LeverArm(np.zeros(3)), truth=part)
            times = {t for t, _ in part}
            assert [r.nees for r in got] == [r.nees if r.t in times else None for r in plain]

    @pytest.mark.parametrize("slop", [np.nan, -1.0, -1e-300])
    def test_time_slop_not_below_zero(self, scenario, earth, slop):
        """A time_slop that is NaN or negative is rejected by name, by run()
        and by update_gnss; inf sets no bound."""
        truth, imu = scenario
        x0 = truth.samples[0][1]
        gnss = synthesize_gnss(truth, np.zeros(3), 1.0, np.eye(3), seed=5)[:2]
        st = FilterState(x0, np.zeros(3), np.zeros(3), default_p0(), 0.0, LEFT)
        noise, lever = NoiseParams(1e-10, 1e-8, 1e-16, 1e-14), LeverArm(np.zeros(3))
        message = f"time_slop must be >= 0, got {slop!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run(imu[:201], gnss, st, noise, earth, lever, time_slop=slop)
        with pytest.raises(ValueError, match=re.escape(message)):
            run(imu[:201], [], st, noise, earth, lever, time_slop=slop)
        with pytest.raises(ValueError, match=re.escape(message)):
            update_gnss(st, GnssFix(0.0, x0.pos.copy(), np.eye(3)), lever, slop)
        fix = GnssFix(0.5, x0.pos.copy(), np.eye(3))
        assert update_gnss(st, fix, lever, np.inf)[0].t == 0.0
        got = run(imu[:201], gnss, st, noise, earth, lever, time_slop=np.inf)
        want = run(imu[:201], gnss, st, noise, earth, lever)
        assert [r.nis for r in got] == [r.nis for r in want]

    def test_applied_fix_checked_once(self, scenario, earth, monkeypatch):
        """An applied fix, its error and its NEES make no validating copy
        (``_frozen``) and exactly one covariance check (``_p_faults``):
        the update runs on arrays and decides its result once."""
        import eqnav.errordyn as ed

        truth, imu = scenario
        bg, ba = np.array([1e-5, -2e-5, 3e-5]), np.array([1e-3, 2e-3, -1e-3])
        gnss = synthesize_gnss(truth, np.zeros(3), 1.0, np.eye(3), seed=5)[:3]
        noise = NoiseParams(1e-10, 1e-8, 1e-16, 1e-14)
        states = [FilterState(truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0,
                              conv) for conv in (RIGHT, LEFT)]
        lever = LeverArm(np.array([0.5, 0.3, -1.2]))
        frozen, checks, per_update = [0], [0], []
        copy, faults, update = lg._frozen, flt._p_faults, flt.update_gnss

        def counted_frozen(*args):
            frozen[0] += 1
            return copy(*args)

        def counted_faults(p):
            checks[0] += 1
            return faults(p)

        def counted_update(*args):
            before = checks[0]
            out = update(*args)
            per_update.append(checks[0] - before)
            return out

        for module in (lg, ed, flt):
            monkeypatch.setattr(module, "_frozen", counted_frozen)
        monkeypatch.setattr(flt, "_p_faults", counted_faults)
        monkeypatch.setattr(flt, "update_gnss", counted_update)
        for st in states:
            per_update.clear()
            recs = run(imu[:301], gnss, st, noise, earth, lever, truth=truth.samples,
                       truth_biases=(bg, ba))
            assert sum(r.nees is not None for r in recs) == len(gnss)
            assert frozen[0] == 0
            assert per_update == [1] * len(gnss)

    def test_update_faults_keep_their_messages(self, scenario, earth):
        """Each way an update fails keeps its message: a fix out of the time
        slop, an ill-conditioned innovation covariance, and an updated P
        the covariance check rejects (a bias variance of -0.9 tau, admitted
        before the fix, is past the tolerance once the fix shrinks the
        trace), named with the epoch inside a run."""
        x0 = scenario[0].samples[0][1]
        lever = LeverArm(np.zeros(3))
        st = FilterState(x0, np.zeros(3), np.zeros(3), default_p0(), 0.0, LEFT)
        with pytest.raises(ValueError) as info:
            update_gnss(st, GnssFix(0.5, x0.pos.copy(), np.eye(3)), lever)
        assert str(info.value) == "fix at t=0.5 not aligned with state t=0.0 within 1e-06"

        imu = scenario[1][:21]
        ill = GnssFix(0.0, x0.pos.copy(), np.diag([1.0, 1.0, 1 / 1.1e12]))
        p = np.diag([1e-8] * 3 + [1e-4] * 3 + [1e6] * 3 + [1e-10] * 3 + [1e-8] * 3)
        p[12, 12] = -0.9e-10 * (np.trace(p) - p[12, 12])
        for conv in (RIGHT, LEFT):
            zero = FilterState(x0, np.zeros(3), np.zeros(3), np.zeros((15, 15)), 0.0, conv)
            with pytest.raises(SingularInnovationCov) as info:
                run(imu, [ill], zero, NoiseParams(0, 0), earth, lever)
            assert str(info.value) == "at epoch t=0.0: innovation covariance condition 1.100e+12"
            wide = FilterState(x0, np.zeros(3), np.zeros(3), p, 0.0, conv)
            fix = GnssFix(0.0, x0.pos + 1.0, 1e-2 * np.eye(3))
            with pytest.raises(ValueError) as info:
                run(imu, [fix], wide, NoiseParams(0, 0), earth, lever)
            assert str(info.value) == "at epoch t=0.0: FilterState.p must be positive semidefinite"

    @pytest.mark.parametrize("conv", [RIGHT, LEFT])
    def test_singular_covariance_nees_names_epoch(self, scenario, earth, conv):
        """With no gyro bias uncertainty and no bias random walk, P is
        singular at a fix: the NEES against the truth is undefined, and the
        run says so, naming the epoch."""
        truth, imu = scenario
        p = default_p0()
        p[9:12, 9:12] = 0.0
        st = FilterState(truth.samples[0][1], np.zeros(3), np.zeros(3), p, 0.0, conv)
        gnss = synthesize_gnss(truth, np.zeros(3), 1.0, np.eye(3), seed=5)[:2]
        with pytest.raises(np.linalg.LinAlgError) as info:
            run(imu[:201], gnss, st, NoiseParams(1e-10, 1e-8), earth, LeverArm(np.zeros(3)),
                truth=truth.samples)
        assert str(info.value) == (f"at epoch t={gnss[0].t}: the covariance FilterState.p is "
                                   "singular, so the NEES is undefined (Singular matrix)")
        # without truth there is no NEES, and the run goes through
        assert run(imu[:201], gnss, st, NoiseParams(1e-10, 1e-8), earth,
                   LeverArm(np.zeros(3)))[-1].t == imu[200].t

    @pytest.mark.parametrize("conv", [RIGHT, LEFT])
    def test_overflowing_error_named(self, scenario, earth, conv):
        """A truth state whose velocity, turned into the error's frame,
        overflows gives no silent NEES: the error's type names the fault
        with the epoch."""
        truth, imu = scenario
        gnss = synthesize_gnss(truth, np.zeros(3), 1.0, np.eye(3), seed=5)[:1]
        st = FilterState(truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0, conv)
        x = dict(truth.samples)[gnss[0].t]
        wild = lg.GroupElement(x.rot, np.array([1.7e308, 1.7e308, 1.7e308]), x.pos, x.frame)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=re.escape(f"at epoch t={gnss[0].t}: ErrorState15.")):
                run(imu[:201], gnss, st, NoiseParams(1e-10, 1e-8), earth, LeverArm(np.zeros(3)),
                    truth=[(gnss[0].t, wild)])

    def test_left_right_agree_on_noise_free_data(self, earth):
        spec = TrajectorySpec(
            profile="constant-turn", duration=60.0, imu_rate=50.0, gnss_rate=1.0,
            speed=10.0, turn_rate=0.02,
        )
        truth = generate_truth(spec, earth)
        imu = synthesize_imu(truth, earth, SensorErrorSpec())
        gnss = [
            GnssFix(t, x.pos.copy(), 1e-2 * np.eye(3))
            for t, x in truth.samples[50::50]
        ]
        noise = NoiseParams(1e-10, 1e-8, 1e-16, 1e-14)
        finals = {}
        for conv in (RIGHT, LEFT):
            st = FilterState(
                truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0, conv
            )
            recs = run(imu, gnss, st, noise, earth, LeverArm(np.zeros(3)))
            finals[conv] = recs[-1].state
        a, b = finals[RIGHT].x, finals[LEFT].x
        assert np.linalg.norm(a.pos - b.pos) <= 1e-6
        assert np.linalg.norm(a.vel - b.vel) <= 1e-6
        assert np.linalg.norm(lg.so3_log(a.rot @ b.rot.T)) <= 1e-6

    def test_nis_sane_single_run(self, earth):
        spec = TrajectorySpec(
            profile="constant-turn", duration=20.0, imu_rate=50.0, gnss_rate=1.0,
            speed=10.0, turn_rate=0.02,
        )
        truth = generate_truth(spec, earth)
        errs = SensorErrorSpec(
            gyro_psd=(2e-4) ** 2, accel_psd=(2e-3) ** 2, seed=11
        )
        imu = synthesize_imu(truth, earth, errs)
        gnss = synthesize_gnss(truth, np.zeros(3), 1.0, np.eye(3), seed=12)
        noise = NoiseParams((2e-4) ** 2, (2e-3) ** 2, 1e-16, 1e-14)
        st = FilterState(
            truth.samples[0][1], np.zeros(3), np.zeros(3), default_p0(), 0.0, LEFT
        )
        recs = run(imu, gnss, st, noise, earth, LeverArm(np.zeros(3)), truth=truth.samples)
        nis = [r.nis for r in recs if r.nis is not None]
        assert 1.0 <= float(np.mean(nis)) <= 6.0


class TestMonteCarlo:
    def test_right_consistent(self, earth):
        """Criterion 9's Monte Carlo (its scenario, seed 909, 100 runs and
        bands: mean NEES in [13.0, 17.2], mean NIS in [2.4, 3.6]) in the
        right convention.  Each run starts at the truth corrected by -dx0,
        whose error state is dx0 exactly (exp(-xi) = exp(xi)^-1), so the
        initial error is drawn in the filter's own chart."""
        spec = TrajectorySpec(
            profile="constant-turn", duration=20.0, imu_rate=50.0, gnss_rate=1.0,
            speed=10.0, turn_rate=0.02,
        )
        truth = generate_truth(spec, earth)
        x0 = truth.samples[0][1]
        gyro_psd, accel_psd = (2e-4) ** 2, (2e-3) ** 2
        lever = np.array([0.5, 0.3, -1.2])
        noise = NoiseParams(gyro_psd, accel_psd, 1e-16, 1e-14)
        p0 = np.diag([(2e-4) ** 2] * 3 + [(2e-2) ** 2] * 3 + [0.25] * 3
                     + [1e-5**2] * 3 + [1e-4**2] * 3)
        l0 = np.linalg.cholesky(p0)
        rng = np.random.default_rng(909)
        nees_runs, nis_all = [], []
        for _ in range(100):
            dx0 = l0 @ rng.standard_normal(15)
            bg_t, ba_t = dx0[9:12], dx0[12:15]
            xh0 = apply_feedback(RIGHT, x0, ErrorState15.from_vector(-dx0, RIGHT), 0, 0)[0]
            errs = SensorErrorSpec(bg_t, ba_t, gyro_psd, accel_psd, seed=int(rng.integers(2**31)))
            imu = synthesize_imu(truth, earth, errs)
            gnss = synthesize_gnss(truth, lever, 1.0, np.eye(3), seed=int(rng.integers(2**31)))
            st = FilterState(xh0, np.zeros(3), np.zeros(3), p0, 0.0, RIGHT)
            recs = run(imu, gnss, st, noise, earth, LeverArm(lever), truth=truth.samples,
                       truth_biases=(bg_t, ba_t))
            nees_runs.append(np.mean([r.nees for r in recs if r.nees is not None]))
            nis_all += [r.nis for r in recs if r.nis is not None]
        assert 13.0 <= np.mean(nees_runs) <= 17.2
        assert 2.4 <= np.mean(nis_all) <= 3.6


class TestObservability:
    def test_single_epoch_rank(self, earth, scenario):
        truth, imu = scenario
        states = [
            FilterState(truth.samples[k][1], np.zeros(3), np.zeros(3), np.eye(15),
                        truth.samples[k][0], LEFT)
            for k in (0, 100)
        ]
        rep = observability_matrix(states, imu[:101], LeverArm(np.zeros(3)), m=1, earth=earth)
        first_block = rep.matrix[0:3, :]
        assert np.linalg.matrix_rank(first_block) <= 3

    @staticmethod
    def epoch_states(truth, ks, conv=LEFT, times=None):
        """Filter states on the truth at samples ``ks``, at ``times`` if given."""
        times = times or [truth.samples[k][0] for k in ks]
        return [FilterState(truth.samples[k][1], np.zeros(3), np.zeros(3), np.eye(15), t, conv)
                for k, t in zip(ks, times)]

    def test_stream_ending_before_an_epoch_names_it(self, earth, scenario):
        # a 0-1 s stream with epochs at 0, 1 and 2 s
        truth, imu = scenario
        states = self.epoch_states(truth, (0, 100, 200))
        with pytest.raises(ValueError, match=r"no IMU sample within 1e-9 s of the epoch at t=2\.0$"):
            observability_matrix(states, imu[:101], LeverArm(np.zeros(3)), m=2, earth=earth)

    def test_empty_stream_names_the_anchor(self, earth, scenario):
        truth, _ = scenario
        states = self.epoch_states(truth, (0, 100))
        with pytest.raises(ValueError, match=r"of the epoch at t=0\.0$"):
            observability_matrix(states, [], LeverArm(np.zeros(3)), m=1, earth=earth)

    def test_epoch_between_samples_raises(self, earth, scenario):
        # 100 Hz samples: an epoch at 1.005 s lies 5 ms from either neighbour
        truth, imu = scenario
        states = self.epoch_states(truth, (0, 100, 200), times=[0.0, 1.005, 2.0])
        with pytest.raises(ValueError, match=r"of the epoch at t=1\.005$"):
            observability_matrix(states, imu, LeverArm(np.zeros(3)), m=2, earth=earth)

    @pytest.mark.parametrize("conv", [LEFT, RIGHT], ids=["LEFT", "RIGHT"])
    def test_samples_before_the_anchor_are_not_read(self, earth, scenario, conv):
        # the same epochs on a stream from the anchor and on one starting 0.5 s early
        truth, imu = scenario
        states = self.epoch_states(truth, (100, 150, 200), conv)
        lever = LeverArm(np.array([0.5, 0.3, -1.2]))
        want = observability_matrix(states, imu[100:201], lever, m=2, earth=earth)
        got = observability_matrix(states, imu[50:201], lever, m=2, earth=earth)
        assert got.matrix.shape == (9, 15)
        np.testing.assert_array_equal(got.matrix, want.matrix)

    @pytest.mark.parametrize("ks", [(0, 200, 100), (0, 100, 100)])
    def test_epochs_not_increasing_raise(self, earth, scenario, ks):
        truth, imu = scenario
        states = self.epoch_states(truth, ks)
        with pytest.raises(NonMonotonicTime, match="epoch stream not increasing at t=1.0"):
            observability_matrix(states, imu, LeverArm(np.zeros(3)), m=2, earth=earth)

    @pytest.mark.parametrize("svd_cutoff", [0.0, -1.0, 1.0, 2.0, float("nan")])
    def test_svd_cutoff_outside_unit_interval_rejected(self, earth, scenario, svd_cutoff):
        truth, imu = scenario
        states = self.epoch_states(truth, (0, 100))
        with pytest.raises(ValueError, match="svd_cutoff"):
            observability_matrix(states, imu, LeverArm(np.zeros(3)), m=1, earth=earth,
                                 svd_cutoff=svd_cutoff)

    @pytest.mark.parametrize("conv", [LEFT, RIGHT], ids=["LEFT", "RIGHT"])
    def test_heave_matrix_is_the_product_of_public_transitions(self, earth, monkeypatch, conv):
        """The heave scenario's matrix, bit for bit, is ``H_l`` times the
        product of the public per-interval transitions from the anchor's
        sample to epoch l's, each at the state of the epoch before it."""
        import eqnav.verify as verify

        calls = []

        def spy(states, imu, lever, m, earth, svd_cutoff):
            calls.append((states, imu, lever, m))
            return observability_matrix(states, imu, lever, m, earth, svd_cutoff)

        monkeypatch.setattr(verify, "observability_matrix", spy)
        rep, _ = heave_observability(earth, conv)
        (states, imu, lever, m), = calls
        at = [s.t for s in imu].index  # every heave epoch is a sample time
        rows, phi_cum = [h_matrix(conv, states[0].x, lever)], np.eye(15)
        for start, state in zip(states[:m], states[1 : m + 1]):
            for i in range(at(start.t), at(state.t)):
                dt = imu[i + 1].t - imu[i].t
                phi = (phi_left(imu[i], dt) if conv is LEFT
                       else phi_right(start.x, imu[i], earth, dt))
                phi_cum = phi.matrix @ phi_cum
            rows.append(h_matrix(conv, state.x, lever) @ phi_cum)
        want = np.vstack(rows)
        assert rep.matrix.shape == want.shape == (33, 15)
        assert rep.matrix.tobytes() == want.tobytes()

    def test_heave_rank_deficiency_left(self, earth):
        rep, angle = heave_observability(earth, LEFT)
        assert rep.rank == 14
        assert angle <= 1e-3

    def test_rank_invariant_under_left_translation(self, earth, rng):
        # left-translating the whole trajectory by a constant element leaves
        # the left-invariant transition untouched (it is state-free) and
        # rotates each measurement block row by the element's rotation
        rep, _ = heave_observability(earth, LEFT)
        a = lg.GroupElement(
            lg.so3_exp(rng.normal(size=3) * 0.3),
            rng.normal(size=3) * 10,
            rng.normal(size=3) * 1000,
        )
        rot = np.kron(np.eye(rep.matrix.shape[0] // 3), a.rot)
        translated = rot @ rep.matrix
        sv = np.linalg.svd(translated, compute_uv=False)
        rank = int(np.sum(sv > 1e-8 * sv[0]))
        assert rank == rep.rank == 14
