"""Synthetic ground truth, inverse-kinematics IMU and GNSS synthesis.

Trajectory profiles are analytic (closed-form attitude, velocity, position
as functions of time), so the exact body rates and specific forces follow
from the inverse mechanization without numerical differentiation, and a
noise-free closed loop (truth -> IMU -> integration) is sharp to the
integrator's order.

All randomness flows from explicit seeds; identical seeds give identical
streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .filter import GnssFix
from .kinematics import EarthModel, ImuSample
from .liegroup import FrameTag, GroupElement, _frozen, hat

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
            if not value >= 0.0:  # also rejects NaN
                raise ValueError(f"SensorErrorSpec.{name} must be >= 0, got {value!r}")


class _Profile:
    """Closed-form local-plane path with heading-aligned attitude.

    The path p(t) = (north, east, down) lives in a tangent plane pinned at
    the geodetic origin; attitude is yaw about the local down axis following
    the track course.  Everything needed by the inverse mechanization
    (velocity, acceleration, heading rate) is exact.
    """

    def __init__(self, spec: TrajectorySpec, earth: EarthModel):
        self.spec = spec
        self.earth = earth
        lat = math.radians(spec.lat_deg)
        lon = math.radians(spec.lon_deg)
        self.r0 = earth.geodetic_to_ecef(lat, lon, spec.height)
        self.c_ne = earth.ned_rotation(lat, lon)
        self.w_e = earth.omega_vec

    def _path(self, t: float) -> tuple[NDArray, NDArray, NDArray, float, float]:
        """p, dp, ddp in NED and heading psi, heading rate dpsi."""
        s = self.spec
        if s.profile == "static":
            z = np.zeros(3)
            return z, z, z, 0.0, 0.0
        k = s.turn_rate
        if s.profile == "constant-turn":
            radius = s.speed / k
            p = np.array([radius * math.sin(k * t), radius * (1 - math.cos(k * t)), 0.0])
            dp = np.array([s.speed * math.cos(k * t), s.speed * math.sin(k * t), 0.0])
            ddp = np.array(
                [-s.speed * k * math.sin(k * t), s.speed * k * math.cos(k * t), 0.0]
            )
            return p, dp, ddp, k * t, k
        # figure-eight: lemniscate-like with double-rate east component
        a = s.speed / k
        b = 0.5 * a
        p = np.array([a * math.sin(k * t), b * math.sin(2 * k * t), 0.0])
        dp = np.array([a * k * math.cos(k * t), 2 * b * k * math.cos(2 * k * t), 0.0])
        ddp = np.array(
            [-a * k * k * math.sin(k * t), -4 * b * k * k * math.sin(2 * k * t), 0.0]
        )
        psi = math.atan2(dp[1], dp[0])
        speed2 = dp[0] ** 2 + dp[1] ** 2
        dpsi = (ddp[1] * dp[0] - ddp[0] * dp[1]) / speed2
        return p, dp, ddp, psi, dpsi

    @staticmethod
    def _yaw(psi: float) -> NDArray:
        c, s = math.cos(psi), math.sin(psi)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    def state(self, t: float) -> GroupElement:
        """Ground-truth ECEF_IB state at time t."""
        p, dp, _, psi, _ = self._path(t)
        rot = self.c_ne @ self._yaw(psi)
        r_eb = self.r0 + self.c_ne @ p
        v_eb = self.c_ne @ dp
        v_ib = v_eb + np.cross(self.w_e, r_eb)
        return GroupElement(rot, v_ib, r_eb, FrameTag.ECEF_IB)

    def state_derivative(self, t: float) -> NDArray:
        """Exact d/dt of the 5x5 embedding of the truth state."""
        p, dp, ddp, psi, _ = self._path(t)
        rot = self.c_ne @ self._yaw(psi)
        v_eb = self.c_ne @ dp
        omega_b, _ = self.imu_true(t)
        m = np.zeros((5, 5))
        m[0:3, 0:3] = rot @ hat(omega_b) - hat(self.w_e) @ rot
        m[0:3, 3] = self.c_ne @ ddp + np.cross(self.w_e, v_eb)
        m[0:3, 4] = v_eb
        return m

    def imu_true(self, t: float) -> tuple[NDArray, NDArray]:
        """Exact body angular rate and specific force at time t."""
        p, dp, ddp, psi, dpsi = self._path(t)
        rot = self.c_ne @ self._yaw(psi)
        r_eb = self.r0 + self.c_ne @ p
        v_eb = self.c_ne @ dp
        v_ib = v_eb + np.cross(self.w_e, r_eb)
        dv_ib = self.c_ne @ ddp + np.cross(self.w_e, v_eb)
        omega_b = np.array([0.0, 0.0, dpsi]) + rot.T @ self.w_e
        f_b = rot.T @ (
            dv_ib + np.cross(self.w_e, v_ib) - self.earth.gravitation_ecef(r_eb)
        )
        return omega_b, f_b


@dataclass(frozen=True)
class TruthTrajectory:
    """Sampled ground truth plus its analytic profile."""

    times: NDArray
    samples: list[tuple[float, GroupElement]]
    profile: _Profile

    def states(self) -> list[GroupElement]:
        return [x for _, x in self.samples]


def generate_truth(spec: TrajectorySpec, earth: EarthModel) -> TruthTrajectory:
    """Sample the analytic profile at the IMU rate.

    Emits exactly ``round(duration * imu_rate)`` samples starting at t = 0
    (endpoint excluded).  The samples satisfy the transformed ECEF
    mechanization exactly (the profile is constructed from closed-form
    derivatives).
    """
    profile = _Profile(spec, earth)
    n = int(round(spec.duration * spec.imu_rate))
    times = np.arange(n) / spec.imu_rate
    samples = [(float(t), profile.state(float(t))) for t in times]
    return TruthTrajectory(times, samples, profile)


def synthesize_imu(
    truth: TruthTrajectory, earth: EarthModel, errors: SensorErrorSpec
) -> list[ImuSample]:
    """Exact inverse-mechanization IMU stream plus bias and white noise.

    Discrete noise is scaled by sqrt(PSD * rate); the stream is reproducible
    from ``errors.seed``.
    """
    del earth  # gravitation enters through the profile
    rng = np.random.default_rng(errors.seed)
    rate = truth.profile.spec.imu_rate
    sg = math.sqrt(errors.gyro_psd * rate)
    sa = math.sqrt(errors.accel_psd * rate)
    out = []
    for t in truth.times:
        omega_b, f_b = truth.profile.imu_true(float(t))
        gyro = omega_b + errors.gyro_bias + sg * rng.standard_normal(3)
        accel = f_b + errors.accel_bias + sa * rng.standard_normal(3)
        out.append(ImuSample(float(t), gyro, accel))
    return out


def synthesize_gnss(
    truth: TruthTrajectory,
    lever: NDArray,
    rate: float,
    cov: NDArray,
    seed: int,
) -> list[GnssFix]:
    """Antenna-position fixes on the IMU time grid with seeded Gaussian noise.

    The fix times are the subset of IMU epochs closest to the requested
    rate; ``rate`` must not exceed the IMU rate.
    """
    imu_rate = truth.profile.spec.imu_rate
    if rate > imu_rate:
        raise ValueError("GNSS rate must not exceed the IMU rate")
    lever = np.asarray(lever, dtype=float).reshape(3)
    cov = np.asarray(cov, dtype=float).reshape(3, 3)
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(cov)
    stride = max(1, int(round(imu_rate / rate)))
    out = []
    for i in range(stride, truth.times.size, stride):
        t, x = truth.samples[i]
        antenna = x.pos + x.rot @ lever
        out.append(GnssFix(t, antenna + chol @ rng.standard_normal(3), cov))
    return out


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
