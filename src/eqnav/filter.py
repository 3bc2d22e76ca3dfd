"""15-state invariant Kalman filter in the transformed ECEF frame.

The filter propagates an SE2(3) state plus gyro/accel biases with the exact
group flow and the analytic transition matrices, and corrects with GNSS
antenna-position fixes through either the left- or right-invariant error
parametrization.  A single gain/Joseph code path serves both conventions.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errordyn import (
    Convention,
    ErrorState15,
    LeverArm,
    NoiseParams,
    _error_vector,
    _g_right,
    _retract,
    _retractable,
    apply_feedback,
    h_matrix,
)
from .kinematics import (EarthModel, ImuSample, NonMonotonicTime, _Records, _StepError,
                         _increasing, _intervals, _stream, _walk, _windows)
from .liegroup import FrameTag, GroupElement, _element_ok, _frozen, _resolve_frame, _trusted
from .transition import _left_bias, _phi_left, _phi_right, phi_left, phi_right

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
    """GNSS antenna position fix in ECEF coordinates with its covariance.

    The time and the entries must be finite, and the covariance must pass
    :func:`_cov_faults` (symmetric, positive definite), whose decision
    ``eqnav run`` takes on all of ``gnss.csv`` at once.
    """

    t: float
    pos_ecef: NDArray
    cov: NDArray

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError("GnssFix.t is not finite")
        _frozen(self, "pos_ecef", 3)
        fault = _cov_faults(_frozen(self, "cov", (3, 3))[None])[0]
        if fault:
            raise ValueError(f"GnssFix.cov {_COV_FAULTS[fault]}")


_COV_FAULTS = (None, "must be symmetric", "must be positive definite")


def _cov_faults(cov: NDArray) -> NDArray:
    """:class:`GnssFix`'s verdict on each covariance of a finite stack
    (N, 3, 3), in one pass: 0 if admitted, else the index in ``_COV_FAULTS``
    of the first check it fails (symmetry, ``|C - C^T| <= 1e-9 max(1, |C|)``
    in the Frobenius norm; every eigenvalue above 0)."""
    # the norms of C - C^T and C: one dot product per matrix, as np.linalg.norm's
    v = np.concatenate([cov - cov.swapaxes(1, 2), cov]).reshape(2, len(cov), 1, 9)
    asym, size = np.sqrt(v @ v.swapaxes(2, 3)).reshape(2, len(cov))
    return np.where(asym > 1e-9 * np.maximum(1.0, size), 1,
                    2 * (np.linalg.eigvalsh(cov) <= 0.0).any(axis=1))


@dataclass(frozen=True)
class FilterState:
    """Filter mean (group state plus biases) and error covariance.

    ``P`` is the covariance of the 15-dimensional invariant error state in
    the chosen convention: finite, symmetric and positive semidefinite
    within the tolerances of :func:`_p_faults`, which decides a whole stack
    of covariances with one numpy Cholesky factorization.  ``t`` is kept as
    a Python float, whatever real number type it is given as.  Instances
    are immutable; predict/update return new states.
    """

    x: GroupElement
    bg: NDArray
    ba: NDArray
    p: NDArray
    t: float
    convention: Convention = field(default=Convention.RIGHT_INVARIANT)

    def __post_init__(self):
        _resolve_frame(self.x.frame, FrameTag.ECEF_IB)
        if not math.isfinite(self.t):
            raise ValueError("FilterState.t is not finite")
        object.__setattr__(self, "t", float(self.t))
        _frozen(self, "bg", 3)
        _frozen(self, "ba", 3)
        fault = _p_faults(_frozen(self, "p", (15, 15))[None])[0]
        if fault:
            raise ValueError(f"FilterState.p {_P_FAULTS[fault]}")


_P_FAULTS = (None, "contains non-finite values", "must be symmetric",
             "must be positive semidefinite")


def _p_faults(p: NDArray) -> NDArray:
    """FilterState's verdict on each P of a stack (N, 15, 15), in one pass:
    0 if admitted, else the index in ``_P_FAULTS`` of the first check it
    fails (finite entries, symmetry within 1e-12 max(1, max |P_ij|), no
    eigenvalue below -tau, tau = 1e-10 max(trace P, 1e-300)).

    min eig(P) > -tau exactly when P + tau I has a Cholesky factor (up to
    its roundoff, ~n^2 eps trace(P), far below tau).  The shifted stack is
    factored by one ``np.linalg.cholesky`` call, which raises if any matrix
    has no factor; only then is each matrix factored alone.
    """
    shifted = p.copy()
    # the sum of the diagonal view is np.trace's own reduction
    diag = shifted.reshape(len(p), 225)[:, ::16]
    diag += _PSD_TOL * np.maximum(diag.sum(axis=1), 1e-300)[:, None]
    fault = np.zeros(len(p), dtype=int)
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        for k, m in enumerate(shifted):
            try:
                np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                fault[k] = 3
    # P - P^T is antisymmetric, so its largest entry is its largest
    # magnitude, NaN or infinite if P has a non-finite entry; a stack within
    # the least tolerance, 1e-12, in one test is finite and symmetric
    d = p - p.swapaxes(1, 2)
    if not d.max(initial=0.0) <= 1e-12:
        asym = d.max(axis=(1, 2))
        fault[(asym > 1e-12) & (asym > 1e-12 * np.maximum(1.0, np.abs(p).max(axis=(1, 2))))] = 2
        fault[~np.isfinite(p).all(axis=(1, 2))] = 1
    return fault


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
    and a failure names its epoch the same way (``at epoch t=...``).  The
    mean walk steps a window of one: the midpoint step itself, bit for
    bit.

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
    )[2]


def _propagate(state, gyro, accel, times, dt, noise, earth):
    """Mean trajectory and covariances of a window propagated from ``state``.

    ``gyro`` and ``accel`` (N, 3) are the epochs' rates, which the state's
    biases correct, ``dt`` (N,) their intervals (the first from
    ``state.t``) and ``times`` their times.  The mean walk
    (:func:`~eqnav.kinematics._walk`) solves a window of several mean
    steps by sweeps and checks them: its rotations, and the left
    convention's covariances, which do not read the mean, are those of a
    loop of :func:`predict` bit for bit; velocity and position agree with
    that loop to roundoff (the walk's stopping rule), and the right
    convention's covariances with them.  The window's transition matrices
    and halves ``H`` of the trapezoidal process noise (see
    :func:`_half_noise`) are then formed at once, from its Gamma blocks
    and the noise's ``G Qc G^T`` of the constant left G (left convention)
    or its stacked mean trajectory (right), each by the operations a
    window of one takes, and
    the covariance recursion runs last, one step per epoch with the noise
    folded in, ``Phi (P + H) Phi^T + H`` (``Phi P Phi^T + Qd`` in exact
    arithmetic), checked in one pass with :class:`FilterState`'s
    decisions.
    Returns ``((rot, vel, pos), ps, end)``, read-only: the epochs' states
    (N, 3, 3) and (N, 3) and covariances (N, 15, 15), and the one state
    built, the last epoch's :class:`FilterState`.  The first failing
    epoch, as a loop of :func:`predict` would meet it, raises
    ``ValueError`` naming it (``at epoch t=...``).  A mean step or
    transition that fails at epoch k > 0 has the window's first k epochs
    propagated again, as that loop does, so one of their covariances that
    fails first is named instead (a cost only a failed window pays: one
    more walk, no per-epoch predict).  Their Phi and H read only the
    rates in the left convention, so those covariances are the failed
    pass's bit for bit; the right convention's read the mean and agree
    with it to roundoff.
    """
    conv = state.convention
    w, f = gyro - state.bg, accel - state.ba
    # the walk's checks and _p_faults decide every state and covariance, so
    # an overflow on the way to one is its fault, named with its epoch, not
    # a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            # one stacked Gamma pass of the body rotations serves the mean
            # steps and the transition matrices
            (body, rate, _, g0), (rot, vel, pos) = _walk(FrameTag.ECEF_IB, state.x, w, f, dt,
                                                         earth, 3)
            if conv is Convention.LEFT_INVARIANT:
                phis = _phi_left(f, dt, body, g0)
                halves = _half_noise(None, noise, dt)
            else:
                bias = _left_bias(f, dt, body, g0)
                phis = _phi_right(rot, vel, pos, earth, dt, rate[:, 0], bias)
                halves = _half_noise(_g_right(rot[:-1], vel[:-1], pos[:-1]), noise, dt)
        except _StepError as exc:
            # as in a loop of predict, the epochs before the failing one are
            # propagated first, and one of their covariances may fail first
            k = exc.index
            if k:
                _propagate(state, gyro[:k], accel[:k], times[:k], dt[:k], noise, earth)
            raise ValueError(f"at epoch t={times[k]}: {exc}") from exc

        # Phi P Phi^T + Qd with the trapezoidal Qd = Phi H Phi^T + H folded in
        ps = np.empty((len(dt), 15, 15))
        p = state.p
        for k, (phi, phi_t, h) in enumerate(zip(phis, phis.swapaxes(1, 2), halves)):
            q = phi @ (p + h) @ phi_t
            q += h
            p = np.add(q, q.T, out=ps[k])
            p *= 0.5
        faults = _p_faults(ps)
    if faults.any():
        k = int((faults > 0).argmax())  # the first rejected
        raise ValueError(f"at epoch t={times[k]}: FilterState.p {_P_FAULTS[faults[k]]}")
    ps.setflags(write=False)
    x = _trusted(GroupElement, rot=rot[-1], vel=vel[-1], pos=pos[-1], frame=state.x.frame)
    end = _trusted(FilterState, x=x, bg=state.bg, ba=state.ba, p=ps[-1], t=float(times[-1]),
                   convention=conv)
    return (rot[1:], vel[1:], pos[1:]), ps, end


def _half_noise(g, noise, dt):
    """``H_k = 0.5 dt_k G Qc G^T`` of each epoch, shape (N, 15, 15): half of
    the trapezoidal process noise ``0.5 (Phi Gc Phi^T + Gc) dt``
    (:func:`~eqnav.transition.qd_matrix`), which the covariance step folds
    in as ``Phi (P + H) Phi^T + H``.  ``g`` is a stack (N, 15, 12) of one
    G per epoch, or None for the left form's constant G, whose
    ``G Qc G^T`` the noise holds (``noise.gc_left``)."""
    gc = noise.gc_left if g is None else (g * noise.qc_diag) @ g.swapaxes(-1, -2)
    return gc * (0.5 * dt)[:, None, None]


def _check_slop(time_slop: float) -> None:
    """Raise ``ValueError`` naming ``time_slop`` unless it is >= 0."""
    if not time_slop >= 0.0:  # also NaN
        raise ValueError(f"time_slop must be >= 0, got {time_slop!r}")


def _check_cutoff(svd_cutoff: float) -> None:
    """Raise ``ValueError`` naming ``svd_cutoff`` unless it is in (0, 1)."""
    if not 0.0 < svd_cutoff < 1.0:  # also NaN
        raise ValueError(f"svd_cutoff={svd_cutoff!r} is not in (0, 1)")


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

    The innovation covariance S is symmetric, so its eigenvalues decide it:
    positive, and ``lambda_max / lambda_min``, its 2-norm condition, at
    most 1e12.  One solve of S against ``[H P | z]`` then gives the gain
    and the NIS.

    The update runs on arrays, with the bits of
    :func:`~eqnav.errordyn.apply_feedback` and :class:`FilterState`'s
    constructor, and is checked once, on its result:
    :func:`~eqnav.liegroup._element_ok` on the corrected state, finite
    biases and one :func:`_p_faults` on the updated P.  An admitted result
    becomes the new state without a second check; a rejected one is built
    again through the constructors (:class:`~eqnav.errordyn.ErrorState15`,
    :class:`~eqnav.liegroup.GroupElement`, :class:`FilterState`), whose
    message names the fault.  The time check is one comparison: the slop
    is examined only when the fix is not within it.

    Raises
    ------
    SingularInnovationCov
        If the innovation covariance is not positive definite or its
        condition exceeds 1e12.
    ValueError
        If ``time_slop`` is not >= 0 (NaN included; ``inf`` sets no
        bound), naming it, if the fix time is farther than it from the
        state time, if the corrected state or its covariance is
        rejected, naming the field, or if the NIS of an admitted fix is
        not finite (it overflows), naming it.
    """
    if not abs(fix.t - state.t) <= time_slop:  # also NaN
        _check_slop(time_slop)
        raise ValueError(
            f"fix at t={fix.t} not aligned with state t={state.t} within {time_slop}"
        )

    conv, x = state.convention, state.x
    # the decisions below name every fault of the result, so an overflow on
    # the way to one is that fault, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        h = h_matrix(conv, x, lever)
        z = fix.pos_ecef - (x.pos + x.rot @ lever.l_b)
        hp = h @ state.p
        s = hp @ h.T + fix.cov
        s = 0.5 * (s + s.T)
        lam = np.linalg.eigvalsh(s)
        cond = lam[2] / lam[0] if lam[0] > 0.0 else math.inf
        if not cond <= _COND_BOUND:  # also NaN
            raise SingularInnovationCov(f"innovation covariance condition {cond:.3e}")

        sol = np.linalg.solve(s, np.column_stack([hp, z]))
        k = sol[:, :15].T
        dx = k @ z
        bg, ba = state.bg + dx[9:12], state.ba + dx[12:15]
        d = dx.tolist()
        # a sum is finite only if every term is: a gain or bias that is not,
        # a sum that overflows, or an attitude correction the retraction's
        # exponential cannot take goes to the constructors below
        ok = math.isfinite(sum(d + bg.tolist() + ba.tolist())) and _retractable(d[0:3])
        rvp = _retract(conv, x.rot, x.vel, x.pos, dx) if ok else None

        ikh = np.eye(15) - k @ h
        p = ikh @ state.p @ ikh.T + k @ fix.cov @ k.T
        p = 0.5 * (p + p.T)
        nis = float(z @ sol[:, 15])

        if rvp is None or not _element_ok(*rvp) or _p_faults(p[None])[0]:
            # built again through the constructors, which name the fault (or
            # admit the state, past an overflowing sum)
            dx = ErrorState15.from_vector(dx, conv)
            x_new, bg, ba = apply_feedback(conv, x, dx, state.bg, state.ba)
            new = FilterState(x_new, bg, ba, p, state.t, conv)
        else:
            for a in (*rvp, bg, ba, p):
                a.setflags(write=False)
            x_new = _trusted(GroupElement, rot=rvp[0], vel=rvp[1], pos=rvp[2], frame=x.frame)
            new = _trusted(FilterState, x=x_new, bg=bg, ba=ba, p=p, t=state.t, convention=conv)
    if not math.isfinite(nis):
        raise _ScoreFault(f"non-finite score of the fix: NIS {nis}", (new, z, nis))
    return new, z, nis


class _ScoreFault(ValueError):
    """:func:`update_gnss`'s fault for an admitted fix whose NIS is not
    finite; ``result`` is the ``(state, innovation, nis)`` it would have
    returned, from which :func:`_run` also scores the NEES it names."""

    def __init__(self, message: str, result: tuple):
        super().__init__(message)
        self.result = result


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

    Stacks ``H_l Phi(t_l, t_k)`` for ``l = k .. k+m``, where the cumulative
    transition matrix is the product of the per-IMU-interval analytic
    matrices (:func:`~eqnav.transition.phi_left`, or
    :func:`~eqnav.transition.phi_right` at the state of the epoch that
    starts the interval's window).  ``states`` holds the filter states at
    the measurement epochs, the first the anchor ``t_k`` (entries after
    the first ``m + 1`` are not read); ``imu`` the bias-corrected samples,
    a list of :class:`ImuSample` or a synthesized stream.  Each epoch is
    placed on its nearest IMU sample (:func:`_nearest`, as :func:`run`
    places a fix), which must lie within 1e-9 s of it; the chain starts at
    the anchor's sample, so samples before it are not read, and window l
    runs from epoch ``l - 1``'s sample to epoch l's.  Numeric rank uses
    the relative singular value cutoff ``svd_cutoff * sigma_max``.

    Raises
    ------
    NonMonotonicTime
        If the IMU times or the epoch times are not strictly increasing,
        naming the first time that is not.
    ValueError
        If ``m < 1``, if fewer than ``m + 1`` states are given, if
        ``svd_cutoff`` is not in (0, 1) (NaN included), or if an epoch has
        no IMU sample within 1e-9 s (an empty stream, one that ends
        before the epoch, or an epoch between samples), naming the epoch.
    """
    if m < 1:
        raise ValueError("observability analysis needs m >= 1")
    if len(states) < m + 1:
        raise ValueError(f"need {m + 1} epoch states, got {len(states)}")
    _check_cutoff(svd_cutoff)
    earth = earth if earth is not None else EarthModel()
    conv = states[0].convention
    # an inf after the last sample is nearest to no epoch of a stream with a
    # sample, and places an empty stream's epochs where the check rejects them
    times = np.append(_stream(imu)[0], np.inf)
    epochs = np.array([s.t for s in states[: m + 1]])
    _increasing("imu", times)
    _increasing("epoch", epochs)
    near = _nearest(times, epochs).tolist()
    for t, i in zip(epochs.tolist(), near):
        if abs(times[i] - t) > 1e-9:
            raise ValueError(f"no IMU sample within 1e-9 s of the epoch at t={t}")

    rows, phi_cum = [h_matrix(conv, states[0].x, lever)], np.eye(15)
    for a, b, start, state in zip(near, near[1:], states, states[1:]):
        for prev, cur in zip(imu[a:b], imu[a + 1 : b + 1]):
            dt = cur.t - prev.t
            if conv is Convention.RIGHT_INVARIANT:
                phi = phi_right(start.x, prev, earth, dt)
            else:
                phi = phi_left(prev, dt)
            phi_cum = phi.matrix @ phi_cum
        rows.append(h_matrix(conv, state.x, lever) @ phi_cum)

    big = np.vstack(rows)
    _, sv, vt = np.linalg.svd(big, full_matrices=True)
    rank = int(np.sum(sv > svd_cutoff * sv[0]))
    return ObservabilityReport(big, rank, sv, vt[rank:].T)


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
    imu: Sequence[ImuSample],
    gnss: Sequence[GnssFix],
    initial: FilterState,
    noise: NoiseParams,
    earth: EarthModel,
    lever: LeverArm,
    truth: Iterable[tuple[float, GroupElement]] | None = None,
    truth_biases: tuple[NDArray, NDArray] | None = None,
    time_slop: float = 1e-6,
) -> Sequence[EpochRecord]:
    """Interleave predictions and GNSS updates over time-sorted streams.

    Fixes are applied at the nearest IMU epoch within ``time_slop`` of their
    timestamp (no interpolation; a tie goes to the earlier epoch), including
    the initial state's epoch.  IMU intervals use trapezoidal rate
    averaging.  With ground truth, the records of the epochs that applied a
    fix carry the invariant error (its bias part ``truth_biases`` minus the
    estimate, zero without them) and the NEES.

    ``imu`` is a list of :class:`ImuSample` or the sequence
    :func:`~eqnav.sim.synthesize_imu` returns (or a slice of it), whose
    stacks are read without building a sample.  ``truth`` is a list of
    ``(t, state)`` in any order (the last pair at a repeated time is the
    one read), :attr:`~eqnav.sim.TruthTrajectory.samples` (or a slice of
    it), which is looked up on its stack of times and builds only the
    states the fix epochs read (see :func:`_truth_at`), or any other
    sequence of such pairs, read as a list.  ``time_slop`` must be >= 0;
    ``inf`` sets no bound.

    Returns a read-only sequence of :class:`EpochRecord`, one per epoch
    from the initial state's, over the blocks of arrays the array core
    :func:`_run` hands back, one per window (see
    :class:`~eqnav.kinematics._Records`).  The run builds the record of
    each window's last epoch, whose state it has made anyway; the record
    of an epoch inside a window is made from views of the block's rows,
    without a second check, when it is first read, and kept, so ``len``
    and the last record cost no per-epoch object.  ``eqnav run`` reads
    the blocks and builds no record.

    The IMU stream is stacked once and cut into intervals and windows as
    :func:`~eqnav.kinematics.integrate_imu` does it.  A window, the epochs
    after one fix up to and including the next, in pieces of at most a
    fixed number of epochs, has constant biases and is propagated in one
    pass (see :func:`_propagate`).  The records are those of a
    loop of :func:`predict` and :func:`update_gnss` to roundoff: in
    ECEF_IB, the filter's frame, the window's mean steps are solved
    together by sweeps that stop within a few ulps of stepping them one at
    a time (see :func:`~eqnav.kinematics._walk`); failures name the epoch
    that loop names.

    Raises
    ------
    NonMonotonicTime
        If either stream is not strictly increasing in time, with the
        offending epoch named (``imu stream not increasing at t=...``).
    ValueError
        If ``time_slop`` is not >= 0 (NaN included), naming it; if a GNSS
        fix has no IMU epoch within ``time_slop``, if it maps to
        an epoch the run skips (before the initial state), if two fixes
        map to the same IMU epoch, or if an epoch fails (e.g. a rotation of
        more than one turn over an IMU interval), with the epoch named.
        A fix epoch's fault is ``update_gnss``'s; where truth is given and
        the updated P is singular, the NEES is undefined, and
        ``numpy.linalg.LinAlgError`` says so, naming the epoch.  A fix
        whose NIS or NEES overflows is named with its epoch.
    """
    _check_slop(time_slop)
    stacks = truth.stacks() if isinstance(truth, _Records) else None
    if stacks is None:
        truth = list(truth or ())
    at = np.array([t for t, _ in truth]) if stacks is None else stacks[0]
    truth_at = _truth_at(at, lambda j: truth[j][1])
    blocks, starts, built = [], [], []
    for block in _run(*_stream(imu), gnss, initial, noise, earth, lever, truth_at,
                      truth_biases, time_slop):
        end, fix = block[-2:]
        blocks.append(block)
        starts.append(len(built))
        built += [None] * len(block[0])
        built.append(EpochRecord(end.t, end, np.diag(end.p).copy(), *(fix or ())))
    return _Records(_epoch_record, blocks, starts, built)


def _epoch_record(block: tuple, k: int) -> EpochRecord:
    """The :class:`EpochRecord` of row k of a block of :func:`_run`, an
    epoch before the window's last, its arrays views of the block's rows
    and its ``p_diag`` a fresh copy of its covariance's diagonal."""
    times, rot, vel, pos, bg, ba, ps, end, _ = block
    t = float(times[k])
    x = _trusted(GroupElement, rot=rot[k], vel=vel[k], pos=pos[k], frame=end.x.frame)
    state = _trusted(FilterState, x=x, bg=bg, ba=ba, p=ps[k], t=t, convention=end.convention)
    return _trusted(EpochRecord, t=t, state=state, p_diag=np.diagonal(ps[k]).copy(),
                    innovation=None, nis=None, error=None, nees=None)


def _truth_at(times: NDArray, state):
    """The ``truth_at`` of :func:`_run` over a ground truth whose row j,
    at ``times[j]``, holds the state ``state(j)``: ``truth_at(t)`` is the
    state of the last row at ``t`` (in row order; ``times`` need not
    increase), found by one ``searchsorted`` over the times sorted once,
    or ``None``.  Only the states looked up are made."""
    order = np.argsort(times, kind="stable")
    times = times[order]

    def truth_at(t):
        j = int(np.searchsorted(times, t, side="right")) - 1
        return state(int(order[j])) if j >= 0 and times[j] == t else None

    return truth_at


def _nees(state: FilterState, error: NDArray) -> float:
    """The NEES ``error^T P^-1 error`` of the 15-vector ``error`` at
    ``state``, by one solve.  A P the solve finds singular raises
    ``LinAlgError`` saying so; a non-finite result whose error
    :class:`ErrorState15` rejects (as :func:`error_state` would) raises its
    ``ValueError``; the NEES of a finite error may still overflow, which
    :func:`_run` decides."""
    try:
        nees = float(error @ np.linalg.solve(state.p, error))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("the covariance FilterState.p is singular, so the NEES is "
                                    f"undefined ({exc})") from exc
    if not math.isfinite(nees):
        ErrorState15.from_vector(error, state.convention)
    return nees


def _nearest(times: NDArray, t: NDArray) -> NDArray:
    """Index of the entry of the increasing ``times`` (N >= 1) nearest to
    each of the increasing ``t``, the earlier one on a tie (the first least
    ``|times - t_j|`` of a full scan), from one ``searchsorted`` and the two
    entries on either side of each ``t_j``."""
    hi = np.searchsorted(times, t).clip(max=len(times) - 1)
    lo = (hi - 1).clip(min=0)
    return np.where(np.abs(times[lo] - t) <= np.abs(times[hi] - t), lo, hi)


def _run(imu_times, imu_rates, gnss, initial, noise, earth, lever, truth_at, truth_biases,
         time_slop):
    """Array core of :func:`run` on the stacked IMU stream: a block per window.

    ``imu_times`` (N,) are the samples' times and ``imu_rates`` (N, 2, 3)
    their (gyro, accel) rows, finite; ``truth_at(t)`` is the ground truth
    at time ``t``, or ``None``.  A fix the run cannot apply, matched to its
    nearest IMU epoch (:func:`_nearest`), raises a
    :class:`~eqnav.kinematics._StepError` whose ``index`` is the fix's in ``gnss``.

    A block is ``(t, rot, vel, pos, bg, ba, ps, end, fix)``: the times,
    states and covariances of the window's epochs before its last (see
    :func:`_propagate`) and the window's biases; ``end``, the last epoch's
    :class:`FilterState`, after its fix if it has one; and ``fix``, ``None``
    or the fix's ``(innovation, nis, error, nees)``, the last two ``None``
    without truth.  The first block is the initial state's epoch.

    A fix epoch is checked once: :func:`update_gnss` decides its result
    (``time_slop``, checked by the callers, is read only if the fix is
    out of it), and the error against the truth comes straight from
    :func:`~eqnav.errordyn._error_vector`.  A fix whose NIS or NEES is not
    finite (an admitted fix can overflow them) raises a ``_StepError``
    naming the epoch and the scores.
    """
    rates, dts = _intervals(imu_times, imu_rates)
    fix_times = np.array([f.t for f in gnss])
    _increasing("gnss", fix_times)
    times = imu_times.tolist()

    # the run's epochs: the initial state, then every IMU epoch after it;
    # each fix is aligned with its nearest IMU epoch (no interpolation)
    first = max(1, int(np.searchsorted(imu_times, initial.t, side="right")))
    fixes_at: dict[int, int] = {}  # IMU epoch -> index of its fix in gnss
    # with no IMU epoch, no fix has one within time_slop
    near = _nearest(imu_times, fix_times).tolist() if times else [-1] * len(gnss)
    for j, (idx, fix) in enumerate(zip(near, gnss)):
        if idx < 0 or abs(times[idx] - fix.t) > time_slop:
            raise _StepError(j, f"no IMU epoch within {time_slop} s of GNSS fix at t={fix.t}")
        if idx < first and times[idx] != initial.t:
            raise _StepError(j, f"GNSS fix at t={fix.t} maps to IMU epoch t={times[idx]}, which "
                             f"the run from the initial state at t={initial.t} skips")
        if idx in fixes_at:
            raise _StepError(j, f"GNSS fixes at t={gnss[fixes_at[idx]].t} and t={fix.t} both "
                             f"map to IMU epoch t={times[idx]}")
        fixes_at[idx] = j

    def update(i, state):  # a block's (end, fix) for IMU epoch i at state
        if i not in fixes_at:
            return state, None
        j = fixes_at[i]
        try:
            try:
                state, innovation, nis = update_gnss(state, gnss[j], lever, time_slop)
            except _ScoreFault as exc:  # named below, with the NEES
                state, innovation, nis = exc.result
            error = nees = None
            x_true = truth_at(state.t)
            if x_true is not None:
                x = state.x
                db = np.zeros((2, 3)) if truth_biases is None else (
                    truth_biases[0] - state.bg, truth_biases[1] - state.ba)
                # an overflow is decided by the checks below, not warned of
                with np.errstate(over="ignore", invalid="ignore"):
                    error = _error_vector(state.convention, (x.rot, x.vel, x.pos),
                                          (x_true.rot, x_true.vel, x_true.pos), *db)
                    nees = _nees(state, error)
        except ValueError as exc:  # LinAlgError included
            raise type(exc)(f"at epoch t={times[i]}: {exc}") from exc
        if not (math.isfinite(nis) and math.isfinite(nees or 0.0)):
            raise _StepError(j, f"at epoch t={times[i]}: non-finite score of the fix: NIS {nis}"
                             + ("" if nees is None else f", NEES {nees}"))
        return state, (innovation, nis, error, nees)

    # row k - 1 of rates and dts is IMU epoch k's interval; the first
    # epoch's starts at the initial state
    if first < len(times):
        dts[first - 1] = times[first] - initial.t

    state, fix = update(first - 1, initial)
    yield (imu_times[:0], np.empty((0, 3, 3)), np.empty((0, 3)), np.empty((0, 3)), initial.bg,
           initial.ba, np.empty((0, 15, 15)), state, fix)
    # a window ends at each fix epoch (epoch k's interval is row k - 1) and
    # at the last epoch
    stops = sorted(k for k in fixes_at if k >= first) + [len(dts)]
    for a, b in _windows(first - 1, stops):
        (rot, vel, pos), ps, end = _propagate(state, rates[a:b, 0], rates[a:b, 1],
                                              times[a + 1 : b + 1], dts[a:b], noise, earth)
        block = imu_times[a + 1 : b], rot[:-1], vel[:-1], pos[:-1], state.bg, state.ba, ps[:-1]
        state, fix = update(b, end)
        yield *block, state, fix
