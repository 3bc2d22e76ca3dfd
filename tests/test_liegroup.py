"""SO(3)/SE2(3) algebra: exact values, series oracles, group axioms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqnav.liegroup as lg
from eqnav.verify import gamma_series
from oracles import expm_series, random_element, random_rotation


def vec(*x):
    return np.array(x, dtype=float)


class TestSo3Exp:
    def test_zero_is_identity(self):
        np.testing.assert_array_equal(lg.so3_exp(np.zeros(3)), np.eye(3))

    def test_quarter_turn_about_z(self):
        want = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(lg.so3_exp(vec(0, 0, math.pi / 2)), want, atol=1e-15)

    def test_matches_series_oracle(self):
        phi = vec(0.1, -0.2, 0.3)
        np.testing.assert_allclose(
            lg.so3_exp(phi), gamma_series(0, phi), rtol=0, atol=1e-12
        )

    def test_series_oracle_random(self, rng):
        for _ in range(100):
            phi = rng.normal(size=3)
            phi *= rng.uniform(1e-9, 3.0) / np.linalg.norm(phi)
            err = np.linalg.norm(lg.so3_exp(phi) - gamma_series(0, phi))
            assert err <= 1e-12


class TestSo3Log:
    def test_identity(self):
        np.testing.assert_array_equal(lg.so3_log(np.eye(3)), np.zeros(3))

    def test_quarter_turn(self):
        r = lg.so3_exp(vec(0, 0, math.pi / 2))
        np.testing.assert_allclose(lg.so3_log(r), vec(0, 0, math.pi / 2), atol=1e-15)

    @pytest.mark.filterwarnings("ignore::eqnav.liegroup.DegenerateRotationWarning")
    def test_roundtrip_10k(self, rng):
        # samples reach into the documented pi branch
        worst = 0.0
        for _ in range(10_000):
            phi = rng.normal(size=3)
            phi *= rng.uniform(1e-12, math.pi - 1e-6) / np.linalg.norm(phi)
            worst = max(worst, np.linalg.norm(lg.so3_log(lg.so3_exp(phi)) - phi))
        assert worst <= 1e-10

    def test_pi_branch_warns_and_returns(self, rng):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r = lg.so3_exp(axis * (math.pi - 1e-7))
        with pytest.warns(lg.DegenerateRotationWarning):
            phi = lg.so3_log(r)
        np.testing.assert_allclose(lg.so3_exp(phi), r, atol=1e-9)

    @given(st.floats(0.0, math.pi - 0.1), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, angle, seed):
        axis = np.random.default_rng(seed).normal(size=3)
        axis /= np.linalg.norm(axis)
        phi = angle * axis
        assert np.linalg.norm(lg.so3_log(lg.so3_exp(phi)) - phi) <= 1e-10


class TestGamma:
    def test_order_bounds(self):
        with pytest.raises(ValueError):
            lg.gamma(4, np.zeros(3))
        with pytest.raises(ValueError):
            lg.gamma(-1, np.zeros(3))

    @pytest.mark.parametrize("n", [0, 5])
    def test_block_count_bounds(self, n):
        with pytest.raises(ValueError, match=f"^gamma_blocks count must be in 1..4, got {n}$"):
            lg.gamma_blocks(np.zeros(3), n)

    def test_leading_terms_at_zero(self):
        np.testing.assert_array_equal(lg.gamma(2, np.zeros(3)), 0.5 * np.eye(3))
        np.testing.assert_array_equal(lg.gamma(3, np.zeros(3)), np.eye(3) / 6.0)

    def test_matches_series(self):
        phi = vec(0.2, 0.1, -0.3)
        for m in range(4):
            err = np.abs(lg.gamma(m, phi) - gamma_series(m, phi)).max()
            assert err <= 1e-12

    def test_gamma0_is_so3_exp(self, rng):
        phi = rng.normal(size=3)
        np.testing.assert_array_equal(lg.gamma(0, phi), lg.so3_exp(phi))

    def test_recurrences(self, rng):
        for _ in range(200):
            phi = rng.normal(size=3)
            phi *= rng.uniform(1e-8, 3.0) / np.linalg.norm(phi)
            r1 = lg.gamma(2, phi) @ lg.hat(phi) + np.eye(3) - lg.gamma(1, phi)
            r2 = lg.gamma(3, phi) @ lg.hat(phi) + 0.5 * np.eye(3) - lg.gamma(2, phi)
            assert max(np.abs(r1).max(), np.abs(r2).max()) <= 1e-12

    def test_accurate_across_branch_boundaries(self, rng):
        # closed form vs series oracle through the small-angle switchovers
        for theta in (3e-5, 1e-4, 3e-4, 1e-3, 1e-2, 0.05, 0.2, 0.49, 0.51, 1.0):
            axis = rng.normal(size=3)
            phi = theta * axis / np.linalg.norm(axis)
            for m in range(4):
                err = np.abs(lg.gamma(m, phi) - gamma_series(m, phi)).max()
                assert err <= 1e-13, (m, theta, err)


class TestSe23:
    def test_zero_tangent(self):
        x = lg.se23_exp(lg.Tangent9(np.zeros(3), np.zeros(3), np.zeros(3)))
        np.testing.assert_array_equal(x.as_matrix(), np.eye(5))

    def test_pure_translation(self, rng):
        v, r = rng.normal(size=3), rng.normal(size=3)
        x = lg.se23_exp(lg.Tangent9(np.zeros(3), v, r))
        np.testing.assert_array_equal(x.rot, np.eye(3))
        np.testing.assert_array_equal(x.vel, v)
        np.testing.assert_array_equal(x.pos, r)

    def test_roundtrip_and_dense_oracle(self, rng):
        worst = 0.0
        for _ in range(2000):
            phi = rng.normal(size=3)
            phi *= rng.uniform(1e-10, math.pi - 0.1) / np.linalg.norm(phi)
            xi = lg.Tangent9(phi, rng.normal(size=3) * 10, rng.normal(size=3) * 100)
            x = lg.se23_exp(xi)
            back = lg.se23_log(x)
            worst = max(worst, np.abs(back.as_vector() - xi.as_vector()).max())
        assert worst <= 1e-10

        xi = lg.Tangent9(vec(0.3, -0.2, 0.5), vec(1.0, 2.0, 3.0), vec(-4.0, 5.0, -6.0))
        dense = expm_series(xi.as_matrix())
        np.testing.assert_allclose(lg.se23_exp(xi).as_matrix(), dense, atol=1e-13)

    def test_log_validates_rotation(self):
        with pytest.raises(ValueError):
            lg.GroupElement(np.eye(3) * 1.1, np.zeros(3), np.zeros(3))


class TestGroupStructure:
    def test_compose_inverse_identity(self, rng):
        x = random_element(rng)
        xi = lg.compose(x, lg.inverse(x))
        assert np.abs(xi.as_matrix() - np.eye(5)).max() <= 1e-9

    def test_group_axioms_10k(self, rng):
        worst = 0.0
        for _ in range(10_000):
            a, b, c = (random_element(rng) for _ in range(3))
            left = lg.compose(lg.compose(a, b), c).as_matrix()
            right = lg.compose(a, lg.compose(b, c)).as_matrix()
            worst = max(worst, np.abs(left - right).max())
            worst = max(
                worst,
                np.abs(lg.compose(a, lg.inverse(a)).as_matrix() - np.eye(5)).max(),
            )
        assert worst <= 1e-10

    def test_compose_and_inverse_are_the_written_formulas(self, rng):
        """compose and inverse, on their unchecked array arithmetic, have the
        bits of the formulas written out on the elements' fields, over 200
        random earth-scale pairs."""
        for _ in range(200):
            a = random_element(rng, vel=1e3, pos=7e6)
            b = random_element(rng, vel=1e3, pos=7e6)
            rt = b.rot.T
            inv = lg.inverse(b)
            for got, want in ((inv.rot, rt), (inv.vel, -(rt @ b.vel)), (inv.pos, -(rt @ b.pos))):
                np.testing.assert_array_equal(got, want)
            ab = lg.compose(a, inv)
            np.testing.assert_array_equal(ab.rot, a.rot @ inv.rot)
            np.testing.assert_array_equal(ab.vel, a.rot @ inv.vel + a.vel)
            np.testing.assert_array_equal(ab.pos, a.rot @ inv.pos + a.pos)

    def test_frame_mismatch(self):
        a = lg.identity_element(lg.FrameTag.ECEF_IB)
        b = lg.identity_element(lg.FrameTag.NED_EB)
        with pytest.raises(lg.FrameMismatch):
            lg.compose(a, b)

    def test_matrix_embedding(self, rng):
        x = random_element(rng, frame=lg.FrameTag.ECEF_IB)
        m = x.as_matrix()
        np.testing.assert_array_equal(m[3:, 3:], np.eye(2))
        back = lg.GroupElement.from_matrix(m, x.frame)
        np.testing.assert_array_equal(back.as_matrix(), m)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            lg.GroupElement(np.eye(3), vec(np.nan, 0, 0), np.zeros(3))
        with pytest.raises(ValueError):
            lg.Tangent9(vec(np.inf, 0, 0), np.zeros(3), np.zeros(3))


class TestAdjoint:
    def test_identity(self):
        np.testing.assert_array_equal(lg.adjoint(lg.identity_element()), np.eye(9))

    def test_pure_rotation_block_diagonal(self, rng):
        r = random_rotation(rng)
        x = lg.GroupElement(r, np.zeros(3), np.zeros(3))
        ad = lg.adjoint(x)
        for i in range(3):
            np.testing.assert_array_equal(ad[3 * i : 3 * i + 3, 3 * i : 3 * i + 3], r)
        ad[0:3, 0:3] = ad[3:6, 3:6] = ad[6:9, 6:9] = 0.0
        assert np.abs(ad).max() == 0.0

    def test_defining_identity(self, rng):
        worst = 0.0
        for _ in range(500):
            x = random_element(rng)
            xi = lg.Tangent9(rng.normal(size=3), rng.normal(size=3), rng.normal(size=3))
            lhs = lg.adjoint(x) @ xi.as_vector()
            m = x.as_matrix() @ xi.as_matrix() @ lg.inverse(x).as_matrix()
            rhs = np.concatenate([lg.vee(m[0:3, 0:3]), m[0:3, 3], m[0:3, 4]])
            worst = max(worst, np.abs(lhs - rhs).max())
        assert worst <= 1e-11


def test_gamma0_deviation_consistent(rng):
    phi = rng.normal(size=3) * 1e-7
    dev = lg.gamma0_deviation(phi)
    np.testing.assert_allclose(np.eye(3) + dev, lg.so3_exp(phi), rtol=0, atol=1e-18)
    assert np.abs(dev).max() < 2e-7


def test_gamma_blocks_match_gamma(rng):
    # one shared pass gives every order bit for bit, on both sides of each
    # series/closed-form switch of the coefficients
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    for theta in (0.0, 1e-9, 9.9e-5, 1.01e-4, 9.9e-3, 1.01e-2, 0.49, 0.51, 2.0, 6.0):
        phi = axis * theta
        blocks = lg.gamma_blocks(phi, 4)
        np.testing.assert_array_equal(np.eye(3) + blocks[0], lg.gamma(0, phi))
        np.testing.assert_array_equal(blocks[0], lg.gamma0_deviation(phi))
        for m in range(1, 4):
            np.testing.assert_array_equal(blocks[m], lg.gamma(m, phi))


def test_gamma_pass_half_scale_matches_gamma(rng):
    # the stacked pass at phi and phi/2 gives gamma(m, phi) and gamma(m, phi/2)
    # bit for bit, with phi/2 on both sides of each coefficient switch
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    for switch in (1e-4, 1e-2, 0.5):
        for side in (0.99, 1.0 - 1e-9, 1.0 + 1e-9, 1.01):
            phi = axis * (2.0 * switch * side)
            blocks, powers, t2 = lg._gamma_pass(phi, 4, (1.0, 0.5))
            for scaled, at in zip(blocks, (phi, phi / 2)):
                np.testing.assert_array_equal(np.eye(3) + scaled[0], lg.gamma(0, at))
                for m in range(1, 4):
                    np.testing.assert_array_equal(scaled[m], lg.gamma(m, at))
            np.testing.assert_array_equal(powers[0], np.eye(3))
            np.testing.assert_array_equal(powers[1], lg.hat(phi))
            np.testing.assert_array_equal(powers[2], lg.hat(phi) @ lg.hat(phi))
            assert t2 == float(phi @ phi)


def test_gamma_pass_stacked_rows_match_gamma(rng):
    # a stack of rotation vectors, each on its own axis and on one side of a
    # coefficient switch at scale 1 or 1/2, gives every row's blocks bit for
    # bit as gamma() gives them, whatever the rows around it
    thetas = np.array([
        scale * switch * side
        for switch in (1e-4, 1e-2, 0.5)
        for side in (0.99, 1.0 - 1e-9, 1.0 + 1e-9, 1.01)
        for scale in (1.0, 2.0)
    ])
    axes = rng.normal(size=(thetas.size, 3))
    phi = axes / np.linalg.norm(axes, axis=1)[:, None] * thetas[:, None]
    blocks, powers, t2 = lg._gamma_pass(phi, 4, (1.0, 0.5))
    assert blocks.shape == (thetas.size, 2, 4, 3, 3)
    for k, row in enumerate(phi):
        for scaled, at in zip(blocks[k], (row, row / 2)):
            np.testing.assert_array_equal(np.eye(3) + scaled[0], lg.gamma(0, at))
            for m in range(1, 4):
                np.testing.assert_array_equal(scaled[m], lg.gamma(m, at))
        np.testing.assert_array_equal(powers[k, 1], lg.hat(row))
        np.testing.assert_array_equal(powers[k, 2], lg.hat(row) @ lg.hat(row))
        assert t2[k] == float(row @ row)
        alone = lg._gamma_pass(row[None], 4, (1.0, 0.5))
        np.testing.assert_array_equal(alone[0][0], blocks[k])
        np.testing.assert_array_equal(alone[1][0], powers[k])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gamma_pass_matches_scalar_coefficients(rng, n):
    # every block of the stacked pass is I/m! + (s c_{m+1}) phi^ + (s^2 c_{m+2})
    # (phi^)^2 (without the I for m = 0) from the scalar walk
    # gamma_coefficients(1, n + 1, s^2 |phi|^2, s |phi|), bit for bit, with
    # rows at 0, far out and on both sides of every switch of _SERIES_BELOW,
    # at scale 1 or 1/2
    thetas = [0.0, 2.0, 3.0] + [
        scale * switch * side
        for switch in sorted(set(lg._SERIES_BELOW) - {0.0})
        for side in (0.99, 1.0 - 1e-9, 1.0 + 1e-9, 1.01)
        for scale in (1.0, 2.0)
    ]
    axes = rng.normal(size=(len(thetas), 3))
    phi = axes / np.linalg.norm(axes, axis=1)[:, None] * np.array(thetas)[:, None]
    scales = (1.0, 0.5)
    blocks = lg._gamma_pass(phi, n, scales)[0]
    expect = np.empty_like(blocks)
    for k, row in enumerate(phi):
        t2 = float(row @ row)
        px = lg.hat(row)
        px2 = px @ px
        for i, s in enumerate(scales):
            c = lg.gamma_coefficients(1, n + 1, s * s * t2, s * math.sqrt(t2))
            for m in range(n):
                block = (s * c[m]) * px + (s * s * c[m + 1]) * px2
                expect[k, i, m] = block + np.eye(3) / math.factorial(m) if m else block
    assert blocks.tobytes() == expect.tobytes()


def _frame_rule_cases():
    """Each entry point the frame rule guards, as (id, call, tags named):
    ``call(earth, x)`` passes an element ``x`` tagged ``NED_EB`` (at an NED
    position) where the entry point wants another frame."""
    from eqnav.errordyn import Convention, LeverArm, error_state, f_matrix, g_matrix, h_matrix
    from eqnav.filter import FilterState
    from eqnav.kinematics import (ImuSample, build_dynamics, frame_translation,
                                  integrate_imu, midpoint_step)
    from eqnav.transition import phi_right

    ned, ecef_ib, ecef_eb = lg.FrameTag.NED_EB, lg.FrameTag.ECEF_IB, lg.FrameTag.ECEF_EB
    z = np.zeros(3)
    imu = ImuSample(0.0, vec(0.01, 0.0, 0.02), vec(0.1, 0.0, -9.8))
    right = Convention.RIGHT_INVARIANT

    def other(x, frame=ecef_ib):
        return lg.GroupElement(x.rot, x.vel, x.pos, frame)

    calls = {
        "integrate_imu": lambda e, x: integrate_imu(
            x, [imu, ImuSample(0.01, imu.gyro, imu.accel)], e, frame=ecef_ib),
        "midpoint_step": lambda e, x: midpoint_step(ecef_ib, x, imu.gyro, imu.accel, 0.01, e),
        "build_dynamics": lambda e, x: build_dynamics(ecef_ib, x, imu, e),
        "phi_right": lambda e, x: phi_right(x, imu, e, 0.01),
        "FilterState": lambda e, x: FilterState(x, z, z, np.eye(15), 0.0),
        "f_matrix": lambda e, x: f_matrix(right, x, imu, e),
        "g_matrix": lambda e, x: g_matrix(right, x),
        "h_matrix": lambda e, x: h_matrix(right, x, LeverArm(z)),
        "error_state": lambda e, x: error_state(right, x, other(x)),
        "error_state-left": lambda e, x: error_state(Convention.LEFT_INVARIANT, x, other(x)),
        "compose": lambda e, x: lg.compose(x, other(x)),
    }
    cases = [(name, call, (ned, ecef_ib)) for name, call in calls.items()]
    # translations 2 and 3, each way, of a state in the other's frame
    cases += [
        ("translation-2", lambda e, x: frame_translation(2, other(x, ecef_eb), e),
         (ecef_eb, ned)),
        ("translation-2-reverse",
         lambda e, x: frame_translation(2, other(x, ecef_eb), e, reverse=True),
         (ecef_eb, lg.FrameTag.NED_IB)),
        ("translation-3", lambda e, x: frame_translation(3, x, e), (ned, ecef_eb)),
        ("translation-3-reverse", lambda e, x: frame_translation(3, x, e, reverse=True),
         (ned, ecef_ib)),
    ]
    return [pytest.param(call, tags, id=name) for name, call, tags in cases]


@pytest.mark.parametrize("call, tags", _frame_rule_cases())
def test_frame_rule_one_message(earth, call, tags):
    """Every frame check is the one rule of compose: two different tags
    raise FrameMismatch, and the message names both."""
    x = lg.GroupElement(np.eye(3), vec(30.0, 5.0, -1.0), earth.ned_position(0.7, 400.0),
                        lg.FrameTag.NED_EB)
    with pytest.raises(lg.FrameMismatch) as err:
        call(earth, x)
    assert str(err.value) == f"cannot combine frames {tags[0].name} and {tags[1].name}"


def test_is_rotation_decisions(rng):
    rot = lg.so3_exp(rng.normal(size=3))
    assert lg.is_rotation(rot)
    for value in (np.nan, np.inf, -np.inf):
        bad = rot.copy()
        bad[1, 2] = value
        assert not lg.is_rotation(bad)
    assert not lg.is_rotation(rot @ np.diag([1.0, 1.0, -1.0]))  # reflection
    assert not lg.is_rotation(np.eye(4)) and not lg.is_rotation(rot[:2])  # not 3 x 3
    # symmetric traceless stretch: |R'^T R' - I|_F = err to first order, det
    # off by err^2 only, so the orthonormality residual alone decides
    stretch = np.diag([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    for err, want in ((2e-9, False), (5e-10, True)):
        assert lg.is_rotation(rot @ (np.eye(3) + 0.5 * err * stretch)) == want



def _accepts_element(rot, vel, pos) -> bool:
    try:
        lg.GroupElement(rot, vel, pos)
    except ValueError:
        return False
    return True


def _flip_pair(accepted, rejected, entry):
    """The matrices either side of where the rotation test flips, one ulp
    apart in ``entry``: bisection from an accepted and a rejected matrix
    that differ in that entry only."""
    lo, hi = accepted.copy(), rejected.copy()
    while True:
        mid = lo.copy()
        mid[entry] = 0.5 * (lo[entry] + hi[entry])
        if mid[entry] in (lo[entry], hi[entry]):
            return lo, hi
        if lg.is_rotation(mid):
            lo = mid
        else:
            hi = mid


def test_stacked_rotation_decisions_match_group_element(rng):
    """The one-pass rotation test of a stack, the test of a whole stack and
    the in-place element test decide each row as GroupElement does: random
    rotations, the tolerance's boundary to the ulp on both residuals, and
    NaN/inf in each field."""
    z = np.zeros(3)
    rots = [lg.so3_exp(rng.normal(size=3) * rng.uniform(0.0, 3.0)) for _ in range(20)]
    rots += [np.eye(3), np.diag([1.0, 1.0, -1.0]), 2.0 * np.eye(3)]
    for r in rots[:4]:
        # one entry moved until the test flips, on both sides of the entry
        for entry, delta in (((0, 0), 1e-8), ((1, 2), -1e-8), ((2, 1), 3e-9)):
            bad = r.copy()
            bad[entry] += delta
            assert lg.is_rotation(r) and not lg.is_rotation(bad)
            lo, hi = _flip_pair(r, bad, entry)
            for step in (-2, -1, 0, 1, 2):
                for side in (lo, hi):
                    m = side.copy()
                    m[entry] = m[entry] + step * np.spacing(m[entry])
                    rots.append(m)
    for value in (np.nan, np.inf, -np.inf):
        for i in range(9):
            m = np.eye(3)
            m.flat[i] = value
            rots.append(m)
    rots = np.array(rots)
    want = [_accepts_element(r, z, z) for r in rots]
    assert True in want and False in want
    with np.errstate(invalid="ignore", over="ignore"):
        assert lg._rotations_ok(rots).tolist() == want
        for r, ok in zip(rots, want):
            assert lg._all_rotations(r[None]) == ok == lg.is_rotation(r)
        # whole stacks, matrix by matrix and stacked (from 24 matrices)
        for size in (1, 2, 23, 24, 25, len(rots)):
            for a in range(0, len(rots) - size + 1, 7):
                assert lg._all_rotations(rots[a : a + size]) == all(want[a : a + size])
    for r, ok in zip(rots, want):
        assert lg._element_ok(r, z, z) == ok == lg.is_rotation(r)

    rot = rots[0]
    for value in (np.nan, np.inf, -np.inf, 1e308):
        for field in (1, 2):
            for i in range(3):
                cols = [z.copy(), z.copy()]
                cols[field - 1][i] = value
                cols[field - 1][(i + 1) % 3] = 1e308  # a finite sum of squares overflows
                want = _accepts_element(rot, *cols)
                assert lg._element_ok(rot, *cols) == want
                assert want == (value == 1e308)


@pytest.mark.filterwarnings("ignore::eqnav.liegroup.DegenerateRotationWarning")
def test_stacked_so3_log_rows_match_single(rng):
    """Each row of a stacked rotation logarithm has the bits of the matrix
    alone, on every branch: identity, small angles, generic, near pi."""
    axes = rng.normal(size=(60, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    angles = np.concatenate([
        [0.0, 1e-12, 1e-8], 10.0 ** rng.uniform(-7, -4, 15), rng.uniform(1e-4, 3.0, 27),
        math.pi - 10.0 ** rng.uniform(-9, -4, 12), [math.pi, 3.1415, 1e-4],
    ])
    stack = np.array([lg.so3_exp(a * v) for a, v in zip(angles, axes)])
    stack[:10] += rng.normal(size=(10, 3, 3)) * 1e-13
    logs = lg._so3_logs(stack)
    for m, got in zip(stack, logs):
        assert got.tobytes() == lg.so3_log(m).tobytes()
        assert got.tobytes() == lg._so3_logs(m[None])[0].tobytes()
    with pytest.warns(lg.DegenerateRotationWarning):
        lg._so3_logs(stack[-3:-2])


def _frozen_cases():
    """(type, field, valid constructor arguments) for every array field
    stored through ``liegroup._frozen``."""
    from eqnav.errordyn import Convention, ErrorState15, LeverArm
    from eqnav.filter import FilterState, GnssFix
    from eqnav.kinematics import DynamicsPair, ImuSample
    from eqnav.sim import SensorErrorSpec
    from eqnav.transition import TransitionBlocks

    z3 = np.zeros(3)
    left = Convention.LEFT_INVARIANT
    cases = (
        (lg.Tangent9, ("phi", "rho_v", "rho_r"), {}),
        (lg.GroupElement, ("rot", "vel", "pos"), {}),
        (ImuSample, ("gyro", "accel"), {"t": 0.0}),
        (DynamicsPair, ("w1", "w2"), {}),
        (LeverArm, ("l_b",), {}),
        (ErrorState15, ("phi", "jrho_v", "jrho_r", "db_g", "db_a"), {"convention": left}),
        (FilterState, ("bg", "ba", "p"),
         {"x": lg.identity_element(lg.FrameTag.ECEF_IB), "t": 0.0}),
        (GnssFix, ("pos_ecef", "cov"), {"t": 0.0}),
        (SensorErrorSpec, ("gyro_bias", "accel_bias"), {}),
        (TransitionBlocks, ("matrix",), {"convention": left, "dt": 0.01}),
    )
    square = {"rot": np.eye(3), "cov": np.eye(3), "p": np.eye(15), "matrix": np.eye(15),
              "w1": np.zeros((5, 5)), "w2": np.zeros((5, 5))}
    for cls, names, rest in cases:
        kwargs = dict(rest, **{n: square.get(n, z3) for n in names})
        for name in names:
            yield pytest.param(cls, name, kwargs, id=f"{cls.__name__}.{name}")


@pytest.mark.parametrize("cls, name, kwargs", _frozen_cases())
def test_frozen_fields(cls, name, kwargs):
    """Each array field is a read-only float copy of the caller's array; a
    NaN entry is rejected with a message naming the type and the field."""
    src = np.array(kwargs[name], dtype=float)
    stored = getattr(cls(**dict(kwargs, **{name: src})), name)
    assert stored.dtype == np.float64 and not stored.flags.writeable
    with pytest.raises(ValueError):
        stored.flat[0] = 1.0
    before = stored.copy()
    src += 1.0
    np.testing.assert_array_equal(stored, before)

    bad = before.copy()
    # a DynamicsPair's velocity column: NaN there trips no bottom-row check
    bad[(0, 3) if bad.shape == (5, 5) else 0] = np.nan
    with pytest.raises(ValueError, match=rf"^{cls.__name__}\.{name} contains non-finite values$"):
        cls(**dict(kwargs, **{name: bad}))


def test_frozen_overflowing_square_is_finite():
    """A finite entry whose square overflows is accepted; a non-finite one
    next to it is still rejected."""
    huge = [1e200, -1e300, 1e-300]
    np.testing.assert_array_equal(lg.Tangent9(huge, huge, huge).phi, huge)
    with pytest.raises(ValueError, match=r"^Tangent9\.rho_r contains non-finite values$"):
        lg.Tangent9(huge, huge, [1e200, -np.inf, 0.0])


def test_cross_matches_np_cross_bitwise(rng):
    # signed zeros, magnitudes from 1e-150 to 1e150 and broadcast stacks
    scale = 10.0 ** rng.integers(-150, 150, size=(4, 50, 3))
    a = rng.normal(size=(4, 50, 3)) * scale
    b = rng.normal(size=(4, 50, 3)) * scale[::-1]
    a[0, :10] = 0.0
    b[0, :5] = -0.0
    a[1, :10, 2] = -0.0
    w = np.array([0.0, 0.0, 7.292115e-5])
    cases = [(a[2, 0], b[2, 0]), (a[3, 1], b[0, 0]), (w, b[1]), (w, a), (a[1], b),
             (a, b), (a[0], b[0]), (b[3], w)]
    for x, y in cases:
        got, want = lg._cross(x, y), np.cross(x, y)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
