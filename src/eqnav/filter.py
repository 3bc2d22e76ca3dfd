"""15-state invariant Kalman filter in the transformed ECEF frame.

The filter propagates an SE2(3) state plus gyro/accel biases with the exact
group flow and the analytic transition matrices, and corrects with GNSS
antenna-position fixes through either the left- or right-invariant error
parametrization.  A single gain/Joseph code path serves both conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray
from scipy.linalg.lapack import dpotrf

from .errordyn import (
    Convention,
    ErrorState15,
    LeverArm,
    NoiseParams,
    _g_right,
    apply_feedback,
    error_state,
    g_matrix,
    h_matrix,
)
from .kinematics import EarthModel, ImuSample, NonMonotonicTime, _StepError, _WINDOW, _walk
from .liegroup import FrameMismatch, FrameTag, GroupElement, _frozen
from .transition import _left_bias, _phi_left, _phi_right, phi_left, phi_right, qd_matrix

__all__ = [
    "EpochRecord",
    "FilterState",
    "GnssFix",
    "ObservabilityReport",
    "SingularInnovationCov",
    "observability_matrix",
    "predict",
    "run",
    "update_gnss",
]

_COND_BOUND = 1e12
_PSD_TOL = 1e-10  # relative to trace(P): the most negative eigenvalue admitted


class SingularInnovationCov(np.linalg.LinAlgError):
    """Innovation covariance not invertible within the conditioning bound."""


@dataclass(frozen=True)
class GnssFix:
    """GNSS antenna position fix in ECEF coordinates with its covariance."""

    t: float
    pos_ecef: NDArray
    cov: NDArray

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError("GnssFix.t is not finite")
        _frozen(self, "pos_ecef", 3)
        cov = _frozen(self, "cov", (3, 3))
        if np.linalg.norm(cov - cov.T) > 1e-9 * max(1.0, np.linalg.norm(cov)):
            raise ValueError("GnssFix.cov must be symmetric")
        if np.any(np.linalg.eigvalsh(cov) <= 0.0):
            raise ValueError("GnssFix.cov must be positive definite")


@dataclass(frozen=True)
class FilterState:
    """Filter mean (group state plus biases) and error covariance.

    ``P`` is the covariance of the 15-dimensional invariant error state in
    the chosen convention.  Instances are immutable; predict/update return
    new states.
    """

    x: GroupElement
    bg: NDArray
    ba: NDArray
    p: NDArray
    t: float
    convention: Convention = field(default=Convention.RIGHT_INVARIANT)

    def __post_init__(self):
        if self.x.frame is not None and self.x.frame != FrameTag.ECEF_IB:
            raise FrameMismatch("filter state must be in the ECEF_IB frame")
        if not math.isfinite(self.t):
            raise ValueError("FilterState.t is not finite")
        _frozen(self, "bg", 3)
        _frozen(self, "ba", 3)
        p = _frozen(self, "p", (15, 15))
        # P - P^T is antisymmetric, so its largest entry is its largest
        # magnitude; the tolerance 1e-12 max(1, max |P_ij|) is at least
        # 1e-12, so it need not be formed below that
        asym = float((p - p.T).max())
        if asym > 1e-12 and asym > 1e-12 * max(1.0, float(np.abs(p).max())):
            raise ValueError("FilterState.p must be symmetric")
        # min eig(P) > -tau exactly when P + tau I has a Cholesky factor (up
        # to its roundoff, ~n^2 eps trace(P), far below tau)
        shifted = p.copy()
        shifted.flat[::16] += _PSD_TOL * max(float(p.trace()), 1e-300)
        if dpotrf(shifted, lower=1, clean=0, overwrite_a=1)[1] != 0:
            raise ValueError("FilterState.p must be positive semidefinite")


def predict(
    state: FilterState,
    imu: ImuSample,
    noise: NoiseParams,
    earth: EarthModel,
    imu_prev: ImuSample | None = None,
) -> FilterState:
    """Propagate mean and covariance to the IMU sample time.

    The mean advances by one ECEF_IB :func:`~eqnav.kinematics.midpoint_step`
    with the bias-corrected rates (the step ``integrate_imu`` takes); the
    covariance advances with the analytic transition matrix of the state
    convention and the trapezoidal discrete process noise.  Biases are random
    constants between updates.

    This is the propagation :func:`run` applies to each window of epochs
    between two fixes (see :func:`_propagate`), on a window of one epoch,
    and a failure names its epoch the same way (``at epoch t=...``).

    When ``imu_prev`` is given, the interval uses trapezoidal averaging of
    the two samples' rates (second-order input handling for batch runs).

    Raises
    ------
    NonMonotonicTime
        If ``imu.t < state.t``.  A zero-length interval returns the state
        unchanged (duplicate timestamps are rejected at the stream level).
    ValueError
        If the epoch fails (e.g. a rotation of more than one turn over the
        interval), with the epoch named.
    """
    dt = imu.t - state.t
    if dt < 0.0:
        raise NonMonotonicTime(f"IMU sample at t={imu.t} before state t={state.t}")
    if dt == 0.0:
        return state

    gyro, accel = imu.gyro, imu.accel
    if imu_prev is not None:
        gyro = 0.5 * (imu_prev.gyro + imu.gyro)
        accel = 0.5 * (imu_prev.accel + imu.accel)
    return _propagate(
        state, gyro.reshape(1, 3), accel.reshape(1, 3), [imu.t], np.array([dt]), noise, earth
    )[0]


def _propagate(state, gyro, accel, times, dt, noise, earth) -> list[FilterState]:
    """States of a window of epochs, at ``times``, propagated from ``state``.

    ``gyro`` and ``accel`` (N, 3) are the epochs' rates before bias
    correction, ``dt`` (N,) the epochs' intervals (the first from
    ``state.t``).  Only an update changes the biases, so the state's biases
    correct every epoch of the window.  The stepping walk
    (:func:`~eqnav.kinematics._walk`) forms what does not depend on the
    state estimate for the whole window at once (the Gamma blocks of the
    body rotations and of the earth rate, the mean steps' body-frame
    velocity increments) and runs the mean steps in order; the transition
    matrices and their process noise of the whole window are then formed
    at once, from the Gamma blocks (left convention) or from the walk's
    stacked mean trajectory (right convention), and the covariance
    recursion runs last.  Every entry is formed by the operations a window
    of one takes, so a window's results do not depend on its length.  A
    failing mean step, an interval over one turn or an invalid state
    raises ``ValueError`` naming its epoch (``at epoch t=...``).
    """
    conv = state.convention
    gyro = gyro - state.bg
    accel = accel - state.ba
    try:
        # one stacked Gamma pass of the body rotations and the earth rate,
        # at dt and dt/2, serves the mean steps and the transition matrices
        (body, rate, _, g0), (rot, vel, pos), xs = _walk(
            FrameTag.ECEF_IB, state.x, gyro, accel, dt, earth, 3
        )
        if conv is Convention.LEFT_INVARIANT:
            phis = _phi_left(accel, dt, body, g0)
            qds = qd_matrix(phis, g_matrix(conv, state.x), noise, dt)
        else:
            bias = _left_bias(accel, dt, body, g0)
            phis = _phi_right(rot, vel, pos, earth, dt, rate[:, 0], bias)
            qds = qd_matrix(phis, _g_right(rot[:-1], vel[:-1], pos[:-1]), noise, dt)
    except _StepError as exc:
        raise ValueError(f"at epoch t={times[exc.step]}: {exc}") from exc

    p = state.p
    out = []
    for t, x, phi, qd in zip(times, xs, phis, qds):
        p = phi @ p @ phi.T + qd
        p = 0.5 * (p + p.T)
        try:
            out.append(FilterState(x, state.bg, state.ba, p, t, conv))
        except ValueError as exc:
            raise ValueError(f"at epoch t={t}: {exc}") from exc
    return out


def update_gnss(
    state: FilterState,
    fix: GnssFix,
    lever: LeverArm,
    time_slop: float = 1e-6,
) -> tuple[FilterState, NDArray, float]:
    """Correct the state with a GNSS antenna-position fix.

    Innovation ``z = y - (rhat + Chat l_b)``; gain from the convention's
    measurement Jacobian; covariance update in Joseph form; feedback through
    the exact group retraction.  Returns the corrected state, the innovation
    and the normalized innovation squared (NIS).

    Raises
    ------
    SingularInnovationCov
        If the innovation covariance conditioning exceeds 1e12.
    ValueError
        If the fix time is farther than ``time_slop`` from the state time.
    """
    if abs(fix.t - state.t) > time_slop:
        raise ValueError(
            f"fix at t={fix.t} not aligned with state t={state.t} within {time_slop}"
        )

    h = h_matrix(state.convention, state.x, lever)
    z = fix.pos_ecef - (state.x.pos + state.x.rot @ lever.l_b)
    s = h @ state.p @ h.T + fix.cov
    s = 0.5 * (s + s.T)
    cond = np.linalg.cond(s)
    if not np.isfinite(cond) or cond > _COND_BOUND:
        raise SingularInnovationCov(f"innovation covariance condition {cond:.3e}")

    k = np.linalg.solve(s, h @ state.p).T
    dx_vec = k @ z
    dx = ErrorState15.from_vector(dx_vec, state.convention)
    x_new, bg_new, ba_new = apply_feedback(
        state.convention, state.x, dx, state.bg, state.ba
    )

    ikh = np.eye(15) - k @ h
    p_new = ikh @ state.p @ ikh.T + k @ fix.cov @ k.T
    p_new = 0.5 * (p_new + p_new.T)

    nis = float(z @ np.linalg.solve(s, z))
    new_state = FilterState(x_new, bg_new, ba_new, p_new, state.t, state.convention)
    return new_state, z, nis


@dataclass(frozen=True)
class ObservabilityReport:
    """Stacked observability matrix with its numeric rank analysis."""

    matrix: NDArray
    rank: int
    singular_values: NDArray
    null_space: NDArray  # columns span the numeric null space


def observability_matrix(
    states: list[FilterState],
    imu: list[ImuSample],
    lever: LeverArm,
    m: int,
    earth: EarthModel | None = None,
    svd_cutoff: float = 1e-8,
) -> ObservabilityReport:
    """Discrete-time observability matrix over ``m + 1`` measurement epochs.

    Stacks ``H_l Phi(t_l, t_k)`` for ``l = k .. k+m`` where the cumulative
    transition matrices are products of the per-IMU-interval analytic
    matrices.  ``states`` must hold the filter states at the measurement
    epochs (first entry is the anchor ``t_k``); ``imu`` the bias-corrected
    samples covering the window.  Numeric rank uses the relative singular
    value cutoff ``svd_cutoff * sigma_max``.
    """
    if m < 1:
        raise ValueError("observability analysis needs m >= 1")
    if len(states) < m + 1:
        raise ValueError(f"need {m + 1} epoch states, got {len(states)}")
    earth = earth if earth is not None else EarthModel()
    conv = states[0].convention

    rows = [h_matrix(conv, states[0].x, lever)]
    phi_cum = np.eye(15)
    epoch_times = [s.t for s in states[: m + 1]]
    epoch_idx = 1
    state_idx = 0
    for prev, cur in zip(imu[:-1], imu[1:]):
        if epoch_idx > m:
            break
        dt = cur.t - prev.t
        if dt <= 0.0:
            raise NonMonotonicTime(f"IMU timestamps not increasing at t={cur.t}")
        # transition evaluated at the epoch state preceding this interval
        while (
            state_idx + 1 < len(epoch_times)
            and epoch_times[state_idx + 1] <= prev.t + 1e-12
        ):
            state_idx += 1
        anchor = states[state_idx]
        if conv is Convention.RIGHT_INVARIANT:
            phi = phi_right(anchor.x, prev, earth, dt)
        else:
            phi = phi_left(prev, dt)
        phi_cum = phi.matrix @ phi_cum
        if abs(cur.t - epoch_times[epoch_idx]) <= 1e-9:
            rows.append(h_matrix(conv, states[epoch_idx].x, lever) @ phi_cum)
            epoch_idx += 1

    big = np.vstack(rows)
    u, sv, vt = np.linalg.svd(big, full_matrices=True)
    rank = int(np.sum(sv > svd_cutoff * sv[0]))
    null = vt[rank:].T
    return ObservabilityReport(big, rank, sv, null)


@dataclass(frozen=True)
class EpochRecord:
    """Per-epoch filter output.

    ``innovation`` and ``nis`` are set where a GNSS fix was applied, and
    ``error`` (invariant, against the truth) and ``nees`` where one was
    applied and truth was given at its time; elsewhere they are ``None``.
    """

    t: float
    state: FilterState
    p_diag: NDArray
    innovation: NDArray | None = None
    nis: float | None = None
    error: NDArray | None = None
    nees: float | None = None


def run(
    imu: list[ImuSample],
    gnss: list[GnssFix],
    initial: FilterState,
    noise: NoiseParams,
    earth: EarthModel,
    lever: LeverArm,
    truth: list[tuple[float, GroupElement]] | None = None,
    truth_biases: tuple[NDArray, NDArray] | None = None,
    time_slop: float = 1e-6,
) -> list[EpochRecord]:
    """Interleave predictions and GNSS updates over time-sorted streams.

    Fixes are applied at the nearest IMU epoch within ``time_slop`` of their
    timestamp (no interpolation; a tie goes to the earlier epoch), including
    the initial state's epoch.  IMU intervals use trapezoidal rate
    averaging.  With ground truth, the records of the epochs that applied a
    fix carry the invariant error (its bias part ``truth_biases`` minus the
    estimate, zero without them) and the NEES.

    The IMU stream is stacked once (times, trapezoidal mean rates and
    intervals).  The epochs after one fix up to and including the next
    form a window: only an update changes the biases, so they are constant
    within it, and each window, in pieces of at most a fixed number of
    epochs, is sliced from those arrays and propagated in one pass (see
    :func:`_propagate`) before its fix is applied.  The records equal
    those of a loop of :func:`predict` and :func:`update_gnss`.

    Raises
    ------
    NonMonotonicTime
        If either stream is not strictly increasing in time, with the
        offending epoch named.
    ValueError
        If a GNSS fix has no IMU epoch within ``time_slop``, if it maps to
        an epoch the run skips (before the initial state), if two fixes
        map to the same IMU epoch, or if an epoch fails (e.g. a rotation of
        more than one turn over an IMU interval), with the epoch named.
    """
    imu_times = np.array([s.t for s in imu])
    for name, stamps in (("imu", imu_times), ("gnss", np.array([f.t for f in gnss]))):
        bad = np.flatnonzero(stamps[1:] <= stamps[:-1])
        if bad.size:
            raise NonMonotonicTime(f"{name} stream not increasing at t={stamps[bad[0] + 1]}")

    truth_map = dict(truth) if truth is not None else {}

    # the run's epochs: the initial state, then every IMU epoch after it;
    # each fix is aligned with its nearest IMU epoch (no interpolation)
    first = max(1, int(np.searchsorted(imu_times, initial.t, side="right")))
    fixes_at: dict[int, GnssFix] = {}
    for fix in gnss:
        idx = int(np.argmin(np.abs(imu_times - fix.t)))
        if abs(imu_times[idx] - fix.t) > time_slop:
            raise ValueError(
                f"no IMU epoch within {time_slop} s of GNSS fix at t={fix.t}"
            )
        if idx < first and imu_times[idx] != initial.t:
            raise ValueError(
                f"GNSS fix at t={fix.t} maps to IMU epoch t={imu_times[idx]}, "
                f"which the run from the initial state at t={initial.t} skips"
            )
        if idx in fixes_at:
            raise ValueError(
                f"GNSS fixes at t={fixes_at[idx].t} and t={fix.t} both map to "
                f"IMU epoch t={imu_times[idx]}"
            )
        fixes_at[idx] = fix

    def record(i, state):
        """Record of IMU epoch ``i`` at ``state``, corrected by the epoch's
        fix if it has one."""
        innovation = nis = error = nees = None
        if i in fixes_at:
            try:
                state, innovation, nis = update_gnss(state, fixes_at[i], lever, time_slop)
            except ValueError as exc:  # LinAlgError included
                raise type(exc)(f"at epoch t={imu[i].t}: {exc}") from exc
            if state.t in truth_map:
                db_g = db_a = None
                if truth_biases is not None:
                    db_g = truth_biases[0] - state.bg
                    db_a = truth_biases[1] - state.ba
                error = error_state(
                    state.convention, state.x, truth_map[state.t], db_g, db_a
                ).as_vector()
                nees = float(error @ np.linalg.solve(state.p, error))
        return EpochRecord(
            state.t, state, np.diag(state.p).copy(), innovation, nis, error, nees
        )

    # row k - 1 holds IMU epoch k's trapezoidal mean (gyro, accel) and its
    # interval, the first epoch's from the initial state
    rates = np.array([v for s in imu for v in (s.gyro, s.accel)]).reshape(-1, 2, 3)
    rates = 0.5 * (rates[:-1] + rates[1:])
    dts = np.diff(imu_times)
    times = imu_times.tolist()
    if first < len(imu):
        dts[first - 1] = times[first] - initial.t

    records = [record(first - 1, initial)]
    # a window ends at each fix epoch and at the last epoch
    stops = sorted(k + 1 for k in fixes_at if k >= first) + [len(imu)]
    i = first
    for stop in stops:
        while i < stop:
            end = min(stop, i + _WINDOW)
            rows = slice(i - 1, end - 1)
            states = _propagate(
                records[-1].state, rates[rows, 0], rates[rows, 1], times[i:end], dts[rows],
                noise, earth,
            )
            records += [record(k, s) for k, s in zip(range(i, end), states)]
            i = end
    return records
