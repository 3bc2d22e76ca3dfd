"""Synthetic ground truth, inverse-kinematics IMU and GNSS synthesis.

Trajectory profiles are analytic (closed-form attitude, velocity, position
as functions of time), so the exact body rates and specific forces follow
from the inverse mechanization without numerical differentiation, and a
noise-free closed loop (truth -> IMU -> integration) is sharp to the
integrator's order.

The profile is formed once per truth, in one stacked pass over its times
with the bits of the per-sample formulas; the IMU stream reads its rates
from that stack and the GNSS stream its rows at the fix epochs.  Each
stream is checked once, in one pass over its stack, with the decisions of
its records' validating constructors: only the first rejected row is
rebuilt through its constructor, whose message names the fault.  The
records are built without a second check, their arrays read-only views of
the checked stacks: the GNSS fixes at once, the truth states and IMU
samples only when a caller reads them (the sequences of
``kinematics._Records``), so a filter run or a dead reckoning on a
synthesized stream, which reads its stacks, builds no IMU sample.
``eqnav simulate`` writes its files from those stacks (the private cores
below) without building any record.

All randomness flows from explicit seeds; identical seeds give identical
streams.  Each stream draws its noise as one C-order block of standard
normals, the same sequence as per-sample draws: (N, 2, 3) for the IMU (gyro,
then accel, per sample) and (M, 3) for the GNSS fixes.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .filter import _COV_FAULTS, GnssFix, _cov_faults
from .kinematics import EarthModel, ImuSample, _gravitation, _imu_record, _Records
from .liegroup import FrameTag, GroupElement, _cross, _frozen, _rotations_ok, _trusted, hat

__all__ = [
    "GravityPerturbationReport",
    "SensorErrorSpec",
    "TrajectorySpec",
    "TruthTrajectory",
    "generate_truth",
    "gravity_perturbation_check",
    "synthesize_gnss",
    "synthesize_imu",
]

_PROFILES = ("static", "constant-turn", "figure-eight")


@dataclass(frozen=True)
class TrajectorySpec:
    """Analytic trajectory profile over a geodetic origin."""

    profile: str = "constant-turn"
    lat_deg: float = 45.0
    lon_deg: float = 7.0
    height: float = 400.0
    speed: float = 10.0  # m/s
    turn_rate: float = 0.02  # rad/s
    duration: float = 60.0  # s
    imu_rate: float = 200.0  # Hz
    gnss_rate: float = 1.0  # Hz

    def __post_init__(self):
        if self.profile not in _PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}, want one of {_PROFILES}")
        for name in ("duration", "imu_rate", "gnss_rate"):
            value = getattr(self, name)
            if not value > 0.0:  # also rejects NaN
                raise ValueError(f"TrajectorySpec.{name} must be positive, got {value!r}")
        for name in ("lat_deg", "lon_deg", "height", "speed", "turn_rate"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"TrajectorySpec.{name} must be finite, got {value!r}")
        if abs(self.lat_deg) > 90.0:
            raise ValueError(f"TrajectorySpec.lat_deg must be in [-90, 90], got {self.lat_deg!r}")
        # the moving paths divide by the turn rate, the figure-eight's
        # heading rate by the speed
        if self.profile != "static" and self.turn_rate == 0.0:
            raise ValueError(f"TrajectorySpec.turn_rate must be nonzero for {self.profile}")
        if self.profile != "static" and not math.isfinite(self.speed / self.turn_rate):
            raise ValueError(
                f"TrajectorySpec.turn_rate={self.turn_rate!r} is too small: the path "
                f"radius speed / turn_rate overflows"
            )
        if self.profile == "figure-eight" and self.speed == 0.0:
            raise ValueError("TrajectorySpec.speed must be nonzero for figure-eight")


@dataclass(frozen=True)
class SensorErrorSpec:
    """Constant sensor biases, white-noise PSDs and the stream seed."""

    gyro_bias: NDArray = field(default_factory=lambda: np.zeros(3))  # rad/s
    accel_bias: NDArray = field(default_factory=lambda: np.zeros(3))  # m/s^2
    gyro_psd: float = 0.0  # rad^2/s
    accel_psd: float = 0.0  # m^2/s^3
    seed: int = 0

    def __post_init__(self):
        _frozen(self, "gyro_bias", 3)
        _frozen(self, "accel_bias", 3)
        for name in ("gyro_psd", "accel_psd"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # also rejects NaN
                raise ValueError(f"SensorErrorSpec.{name} must be finite and >= 0, got {value!r}")


# The profile at N times: attitude C_b^e (N, 3, 3), then (N, 3) each: the
# transformed inertial-relative velocity v_ib, the ECEF position, the
# earth-relative velocity, d/dt of v_ib, the exact body rate and specific force
_Stack = namedtuple("_Stack", "rot vel pos v_eb dv_ib omega_b f_b")


def _ned(north: NDArray, east: NDArray) -> NDArray:
    """Rows (north, east, 0) of a local-plane path."""
    return np.stack([north, east, np.zeros_like(north)], axis=1)


class _Profile:
    """Closed-form local-plane path with heading-aligned attitude.

    The path p(t) = (north, east, down) lives in a tangent plane pinned at
    the geodetic origin; attitude is yaw about the local down axis following
    the track course.  Everything needed by the inverse mechanization
    (velocity, acceleration, heading rate) is exact.  :meth:`stack` forms
    it at a vector of times; the single-time methods are its window of one.
    """

    def __init__(self, spec: TrajectorySpec, earth: EarthModel):
        self.spec = spec
        self.earth = earth
        lat = math.radians(spec.lat_deg)
        lon = math.radians(spec.lon_deg)
        self.r0 = earth.geodetic_to_ecef(lat, lon, spec.height)
        # the gravitation divides by |r0|^3
        if not math.sqrt(self.r0 @ self.r0) ** 3 > 0.0:
            raise ValueError(
                f"TrajectorySpec.height={spec.height!r} puts the origin at the earth's centre"
            )
        self.c_ne = earth.ned_rotation(lat, lon)
        self.w_e = earth.omega_vec

    def _path(self, t: NDArray) -> tuple[NDArray, ...]:
        """p, dp, ddp (N, 3) in NED and heading psi, heading rate dpsi (N,)."""
        s = self.spec
        if s.profile == "static":
            return *np.zeros((3, t.size, 3)), np.zeros(t.size), np.zeros(t.size)
        k, v = s.turn_rate, s.speed
        sin, cos = np.sin(k * t), np.cos(k * t)
        if s.profile == "constant-turn":
            radius = v / k
            return (_ned(radius * sin, radius * (1 - cos)), _ned(v * cos, v * sin),
                    _ned(-v * k * sin, v * k * cos), k * t, np.full(t.size, k))
        # figure-eight: lemniscate-like with double-rate east component
        a = v / k
        b = 0.5 * a
        sin2, cos2 = np.sin(2 * k * t), np.cos(2 * k * t)
        dn, de = a * k * cos, 2 * b * k * cos2
        ddn, dde = -a * k * k * sin, -4 * b * k * k * sin2
        # atan2 and the squares by libm per time, as a single time rounds
        # them: np.arctan2 is vectorised and an array's ** 2 is x * x
        rows = list(zip(dn.tolist(), de.tolist()))
        psi = np.array([math.atan2(y, x) for x, y in rows])
        dpsi = (dde * dn - ddn * de) / np.array([x**2 + y**2 for x, y in rows])
        return _ned(a * sin, b * sin2), _ned(dn, de), _ned(ddn, dde), psi, dpsi

    def stack(self, t: NDArray) -> _Stack:
        """The profile at each of the times ``t`` (N,), in one pass.

        Each row has the bits of the same formulas at its time alone: one
        matrix product per row, ``_cross`` and ``gravitation_ecef``'s bits.
        """
        t = np.asarray(t, dtype=float)
        p, dp, ddp, psi, dpsi = self._path(t)
        c, s, w = np.cos(psi), np.sin(psi), self.w_e
        yaw = np.zeros((t.size, 3, 3))
        yaw[:, 0, 0] = yaw[:, 1, 1] = c
        yaw[:, 0, 1] = -s
        yaw[:, 1, 0] = s
        yaw[:, 2, 2] = 1.0
        rot = self.c_ne @ yaw
        rot_t = rot.swapaxes(-1, -2)
        r_eb = self.r0 + (self.c_ne @ p[:, :, None])[..., 0]
        v_eb = (self.c_ne @ dp[:, :, None])[..., 0]
        v_ib = v_eb + _cross(w, r_eb)
        dv_ib = (self.c_ne @ ddp[:, :, None])[..., 0] + _cross(w, v_eb)
        rate = np.zeros((t.size, 3))
        rate[:, 2] = dpsi
        force = dv_ib + _cross(w, v_ib) - _gravitation(self.earth, r_eb)
        f_b = (rot_t @ force[:, :, None])[..., 0]
        return _Stack(rot, v_ib, r_eb, v_eb, dv_ib, rate + rot_t @ w, f_b)

    def state(self, t: float) -> GroupElement:
        """Ground-truth ECEF_IB state at time t."""
        x = self.stack([t])
        return GroupElement(x.rot[0], x.vel[0], x.pos[0], FrameTag.ECEF_IB)

    def state_derivative(self, t: float) -> NDArray:
        """Exact d/dt of the 5x5 embedding of the truth state."""
        x = self.stack([t])
        m = np.zeros((5, 5))
        m[0:3, 0:3] = x.rot[0] @ hat(x.omega_b[0]) - hat(self.w_e) @ x.rot[0]
        m[0:3, 3], m[0:3, 4] = x.dv_ib[0], x.v_eb[0]
        return m

    def imu_true(self, t: float) -> tuple[NDArray, NDArray]:
        """Exact body angular rate and specific force at time t."""
        x = self.stack([t])
        return x.omega_b[0], x.f_b[0]


@dataclass(frozen=True)
class TruthTrajectory:
    """Sampled ground truth plus its analytic profile.

    ``rows`` is the profile at ``times``, formed once by
    :func:`generate_truth` and checked; its arrays, and ``times``, are
    read-only.  ``samples`` is the read-only sequence of ``(t, state)`` over
    them: a state is made from views of its rows, without a second check,
    when it is first read, and kept; a slice builds none.
    """

    times: NDArray
    samples: Sequence[tuple[float, GroupElement]]
    profile: _Profile
    rows: _Stack


def _readonly(*arrays: NDArray) -> None:
    for a in arrays:
        a.setflags(write=False)


def _finite_rows(*arrays: NDArray) -> NDArray:
    """Whether each row (leading index) of every array is finite, (N,)."""
    return np.logical_and.reduce(
        [np.isfinite(a).all(axis=tuple(range(1, a.ndim))) for a in arrays])


def _truth_rows(spec: TrajectorySpec, earth: EarthModel) -> tuple[_Profile, NDArray, _Stack]:
    """Array core of :func:`generate_truth`: the profile, the sample times
    and the profile's stack at them, read-only.

    The states are checked in one pass with :class:`GroupElement`'s
    decisions (a rotation by :func:`~eqnav.liegroup.is_rotation`'s test,
    finite velocity and position); the first rejected row is rebuilt
    through the constructor, whose ``ValueError`` names the fault.  A
    sample count past numpy's largest array (inf included) raises
    ``ValueError``, and one that memory cannot hold ``MemoryError``, each
    naming ``duration``, ``imu_rate`` and the count.
    """
    profile = _Profile(spec, earth)
    n = spec.duration * spec.imu_rate
    if not n < 2.0**60:  # inf too: 8 bytes a time, past numpy's largest array
        raise ValueError(f"duration * imu_rate = {n} IMU samples: more than an array can hold")
    n = int(round(n))
    try:
        times = np.arange(n) / spec.imu_rate
        x = profile.stack(times)
    except MemoryError as exc:
        raise MemoryError(f"duration * imu_rate = {n} IMU samples: {exc}") from exc
    _readonly(times, *x)
    ok = _rotations_ok(x.rot) & _finite_rows(x.vel, x.pos)
    if not ok.all():
        k = int(ok.argmin())
        GroupElement(x.rot[k], x.vel[k], x.pos[k], FrameTag.ECEF_IB)  # names the fault
    return profile, times, x


def _truth_record(stacks: tuple[NDArray, ...], k: int) -> tuple[float, GroupElement]:
    """The ``(t, state)`` of row k of the checked truth ``stacks`` (times,
    rot, vel, pos), the state's arrays views."""
    times, rot, vel, pos = stacks
    return float(times[k]), _trusted(GroupElement, rot=rot[k], vel=vel[k], pos=pos[k],
                                     frame=FrameTag.ECEF_IB)


def generate_truth(spec: TrajectorySpec, earth: EarthModel) -> TruthTrajectory:
    """Sample the analytic profile at the IMU rate.

    Emits exactly ``round(duration * imu_rate)`` samples starting at t = 0
    (endpoint excluded).  The samples satisfy the transformed ECEF
    mechanization exactly (the profile is constructed from closed-form
    derivatives).  ``samples`` is built as :class:`TruthTrajectory` says.
    A sample count no array can hold raises ``ValueError`` (or
    ``MemoryError``, past memory) naming it.
    """
    profile, times, x = _truth_rows(spec, earth)
    samples = _Records(_truth_record, (times, x.rot, x.vel, x.pos))
    return TruthTrajectory(times, samples, profile, x)


def _imu_rows(times: NDArray, x: _Stack, rate: float, errors: SensorErrorSpec) -> NDArray:
    """Array core of :func:`synthesize_imu`: the (gyro, accel) rows
    (N, 2, 3) at ``times`` from the truth stack ``x`` at the IMU ``rate``,
    read-only.

    The rows are checked in one pass with :class:`ImuSample`'s decisions
    (finite time and entries); the first rejected row is rebuilt through
    the constructor, whose ``ValueError`` names the fault.  So is a PSD
    whose product with the rate overflows.
    """
    for name in ("gyro_psd", "accel_psd"):
        if not math.isfinite(getattr(errors, name) * rate):
            raise ValueError(f"SensorErrorSpec.{name} times the IMU rate {rate!r} overflows")
    rng = np.random.default_rng(errors.seed)
    sg = math.sqrt(errors.gyro_psd * rate)
    sa = math.sqrt(errors.accel_psd * rate)
    noise = rng.standard_normal((times.size, 2, 3))
    rates = np.empty_like(noise)
    rates[:, 0] = x.omega_b + errors.gyro_bias + sg * noise[:, 0]
    rates[:, 1] = x.f_b + errors.accel_bias + sa * noise[:, 1]
    _readonly(rates)
    ok = _finite_rows(times, rates)
    if not ok.all():
        k = int(ok.argmin())
        ImuSample(times[k].item(), rates[k, 0], rates[k, 1])  # names the fault
    return rates


def synthesize_imu(
    truth: TruthTrajectory, earth: EarthModel, errors: SensorErrorSpec
) -> Sequence[ImuSample]:
    """Exact inverse-mechanization IMU stream plus bias and white noise.

    Discrete noise is scaled by sqrt(PSD * rate); the stream is reproducible
    from ``errors.seed``.  The exact rates are read from the truth's stack.

    Returns a read-only sequence of :class:`ImuSample` over the checked
    stacks of times and rates: a sample is made from views of its row,
    without a second check, when it is first read, and kept; a slice builds
    none.  :func:`~eqnav.filter.run` and
    :func:`~eqnav.kinematics.integrate_imu` read the stacks of such a
    stream, or of a slice of one, and build no sample.
    """
    del earth  # gravitation enters through the profile
    rates = _imu_rows(truth.times, truth.rows, truth.profile.spec.imu_rate, errors)
    return _Records(_imu_record, (truth.times, rates))


def _gnss_rows(times: NDArray, x: _Stack, imu_rate: float, lever: NDArray, rate: float,
               cov: NDArray, seed: int) -> tuple[NDArray, NDArray, NDArray]:
    """Array core of :func:`synthesize_gnss` on the truth's ``times`` and
    stack ``x`` at ``imu_rate``: the fix times (M,), antenna positions
    (M, 3) and the covariance (3, 3) every fix shares, read-only.

    ``rate``, ``lever`` and ``cov`` are checked before any draw, the
    covariance with :class:`GnssFix`'s decision; the fixes are then checked
    in one pass (finite time and position), and the first rejected one is
    rebuilt through the constructor, whose ``ValueError`` names the fault.
    """
    if not rate > 0.0:  # also rejects NaN
        raise ValueError(f"synthesize_gnss: rate must be positive, got {rate!r}")
    if rate > imu_rate:
        raise ValueError("GNSS rate must not exceed the IMU rate")
    lever = np.asarray(lever, dtype=float).reshape(3)
    if not np.isfinite(lever).all():
        raise ValueError("synthesize_gnss: lever contains non-finite values")
    cov = np.array(cov, dtype=float).reshape(3, 3)
    if not np.isfinite(cov).all():
        raise ValueError("synthesize_gnss: cov contains non-finite values")
    fault = _cov_faults(cov[None])[0]
    if fault:
        raise ValueError(f"synthesize_gnss: cov {_COV_FAULTS[fault]}")
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(cov)
    # a stride past the last sample leaves no fix, and caps imu_rate / rate
    stride = max(1, int(round(min(imu_rate / rate, times.size + 1))))
    fix_times = times[stride::stride]
    noise = rng.standard_normal((fix_times.size, 3))
    antenna = x.pos[stride::stride] + x.rot[stride::stride] @ lever
    pos = antenna + (chol @ noise[:, :, None])[..., 0]
    _readonly(cov, pos)
    ok = _finite_rows(fix_times, pos)
    if not ok.all():
        k = int(ok.argmin())
        GnssFix(fix_times[k].item(), pos[k], cov)  # names the fault
    return fix_times, pos, cov


def synthesize_gnss(
    truth: TruthTrajectory,
    lever: NDArray,
    rate: float,
    cov: NDArray,
    seed: int,
) -> list[GnssFix]:
    """Antenna-position fixes on the IMU time grid with seeded Gaussian noise.

    The fix times are the subset of IMU epochs closest to the requested
    rate; ``rate`` must be positive and must not exceed the IMU rate.  The
    truth's stack is read at the fix epochs; every fix shares one
    read-only copy of ``cov``.

    Raises
    ------
    ValueError
        If ``rate``, ``lever`` or ``cov`` is invalid, naming the argument;
        the covariance with :class:`GnssFix`'s messages.
    """
    times, pos, cov = _gnss_rows(truth.times, truth.rows, truth.profile.spec.imu_rate, lever,
                                 rate, cov, seed)
    return [_trusted(GnssFix, t=t, pos_ecef=p, cov=cov) for t, p in zip(times.tolist(), pos)]


@dataclass(frozen=True)
class GravityPerturbationReport:
    """Exact gravity difference against the linear perturbation models."""

    exact: NDArray
    model_ecef: NDArray
    rel_err_ecef: float
    rel_err_ned_down_plus: float
    rel_err_ned_down_minus: float


def gravity_perturbation_check(
    r: NDArray, dr: NDArray, earth: EarthModel
) -> GravityPerturbationReport:
    """Compare the exact gravity change g(r+dr) - g(r) with the linear models.

    The ECEF model is the isotropic ``-mu/|r|^3 dr``; the NED model perturbs
    only the down component by ``+-2 g_D dr_D / (sqrt(R_M R_N) + h)`` (both
    signs reported, zeros in the other components).  Relative errors are
    norms against the exact difference.
    """
    r = np.asarray(r, dtype=float)
    dr = np.asarray(dr, dtype=float)
    if np.linalg.norm(r) <= 6.0e6:
        raise ValueError("gravity perturbation check expects |r| > 6e6 m")
    exact = earth.gravity_ecef(r + dr) - earth.gravity_ecef(r)
    model = -earth.mu / np.linalg.norm(r) ** 3 * dr
    scale = max(float(np.linalg.norm(exact)), 1e-300)
    rel_ecef = float(np.linalg.norm(exact - model)) / scale

    lat, lon, height = earth.ecef_to_geodetic(r)
    c_ne = earth.ned_rotation(lat, lon)
    dr_n = c_ne.T @ dr
    exact_n = c_ne.T @ exact
    g_n = c_ne.T @ earth.gravity_ecef(r)
    rm, rn = earth.curvature_radii(lat)
    coeff = 2.0 * g_n[2] / (math.sqrt(rm * rn) + height)
    rels = []
    for sign in (+1.0, -1.0):
        model_n = np.array([0.0, 0.0, sign * coeff * dr_n[2]])
        rels.append(float(np.linalg.norm(exact_n - model_n)) / scale)
    return GravityPerturbationReport(exact, model, rel_ecef, rels[0], rels[1])
