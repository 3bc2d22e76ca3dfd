"""Group-affine kinematic models for inertial navigation on SE2(3).

Four variants of the strapdown mechanization are expressed as
``dX/dt = X W1 + W2 X`` with ``(W1, W2)`` pairs of se2(3) elements:

========  =====================================================
frame     state columns
========  =====================================================
NED_EB    C_b^n, earth-relative velocity/position in NED axes
NED_IB    C_b^n, inertial-relative velocity/position in NED axes
ECEF_EB   C_b^e, earth-relative velocity/position in ECEF axes
ECEF_IB   C_b^e, inertial-relative velocity/position in ECEF axes
========  =====================================================

``W1`` carries the body-frame IMU readings and is common to all variants;
``W2`` carries the frame-dependent earth-rotation, gravity and transport
terms.  The module also provides the exact flow for a constant pair, the
lift onto the Lie algebra, the input velocity action, the left-translation
maps between the four states, and machine checkers for the group-affine
property and for the induced linear action on vector fields.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import islice

import numpy as np
from numpy.typing import NDArray

from .liegroup import (
    FrameMismatch,
    FrameTag,
    GroupElement,
    _EYE3,
    _all_rotations,
    _cross,
    _element_ok,
    _frozen,
    _gamma_pass,
    _resolve_frame,
    _trusted,
    compose,
    gamma_blocks,
    hat,
    inverse,
    so3_exp,
    vee,
)

__all__ = [
    "DstarActionReport",
    "DynamicsPair",
    "EarthModel",
    "GroupAffineReport",
    "ImuSample",
    "NonMonotonicTime",
    "build_dynamics",
    "check_dstar_action",
    "check_group_affine",
    "group_affine_residual",
    "dynamics_matrix",
    "flow",
    "frame_translation",
    "integrate_imu",
    "lift",
    "midpoint_step",
    "velocity_action",
]


class NonMonotonicTime(ValueError):
    """Timestamps in a stream are not strictly increasing."""


class _StepError(ValueError):
    """A failure at one entry of a sequence (a step of a window, a fix of a
    GNSS stream), ``index`` its index in the sequence.  It carries no
    partial result: a caller that needs the entries before the failing one
    forms them again from the first ``index`` entries."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class ImuSample:
    """One IMU record: angular rate and specific force in the body frame."""

    t: float
    gyro: NDArray  # rad/s
    accel: NDArray  # m/s^2

    def __post_init__(self):
        _frozen(self, "gyro", 3)
        _frozen(self, "accel", 3)
        if not math.isfinite(self.t):
            raise ValueError("ImuSample.t is not finite")


def _imu_record(stacks: tuple[NDArray, NDArray], k: int) -> ImuSample:
    """The :class:`ImuSample` of row k of a checked stream's ``stacks``, its
    times (N,) and (gyro, accel) rows (N, 2, 3), its arrays views."""
    times, rates = stacks
    return _trusted(ImuSample, t=float(times[k]), gyro=rates[k, 0], accel=rates[k, 1])


def _state_record(frame: FrameTag | None, stacks: tuple[NDArray, ...],
                  k: int) -> tuple[float, GroupElement]:
    """The ``(t, state)`` of row k of checked ``stacks`` (times, rot, vel,
    pos), the state in ``frame``, its arrays views."""
    times, rot, vel, pos = stacks
    return float(times[k]), _trusted(GroupElement, rot=rot[k], vel=vel[k], pos=pos[k],
                                     frame=frame)


class _Records(Sequence):
    """A read-only sequence of records over blocks of stacked, checked arrays.

    ``blocks`` is a list of tuples, each holding stacks whose rows are
    records, and ``starts`` the index of each block's row 0 among the
    records (increasing; one block at 0 by default).  Record k of block w
    is ``make(blocks[w], k - starts[w])``, built without a check from
    views of that row when it is first read, and kept: a record read twice
    is built once.  ``built`` may hold records made beforehand (``None``
    for the others), one entry per record; by default it is the rows of
    the one block, none built.  A slice is a sequence of the same kind
    over the same blocks and built records, and builds nothing; iteration
    builds only the records it yields.  ``+`` with a list, or another such
    sequence, gives a list.  :func:`_stream` takes the stacks of an IMU
    stream (``make`` :func:`_imu_record`, one block of the times (N,) and
    (gyro, accel) rows (N, 2, 3)) without building a record.
    """

    __slots__ = ("_make", "_blocks", "_starts", "_built", "_rows")

    def __init__(self, make, blocks: list[tuple], starts=(0,), built=None, rows=None):
        self._make, self._blocks, self._starts = make, blocks, starts
        self._built = [None] * len(blocks[0][0]) if built is None else built
        self._rows = range(len(self._built)) if rows is None else rows  # indices in built

    def __len__(self):
        return len(self._rows)

    def _build(self, k: int):
        w = bisect_right(self._starts, k) - 1
        record = self._built[k] = self._make(self._blocks[w], k - self._starts[w])
        return record

    # a record is never false: ``built[k] or`` reads a built one
    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Records(self._make, self._blocks, self._starts, self._built, self._rows[i])
        k = self._rows[i]
        return self._built[k] or self._build(k)

    def __iter__(self):
        built = self._built
        for k in self._rows:
            yield built[k] or self._build(k)

    def __add__(self, other):
        return list(self) + list(other)

    def __radd__(self, other):
        return list(other) + list(self)

    def stacks(self) -> tuple[NDArray, ...] | None:
        """The rows of the stacks this sequence holds, if its records are
        the rows of one block (views for a slice of step 1, copies
        otherwise); else ``None``."""
        if len(self._blocks) != 1 or len(self._blocks[0][0]) != len(self._built):
            return None
        r = self._rows
        key = slice(r.start, r.stop) if r.step == 1 else np.arange(r.start, r.stop, r.step)
        return tuple(a[key] for a in self._blocks[0])


# Below this bound on every entry of a vector its squared norm is finite
# (at most 3 * 2**1022), and so are the squares of its hat.
_SQUARE_CAP = 2.0**511


def _norm_cube(r: NDArray) -> float:
    """``|r|^3`` of a position r (3,): the gravitation's one range decision,
    which :meth:`EarthModel.gravitation_ecef` and the stacked
    :func:`_cubes` share.  ``r . r`` is formed only if every entry of r is
    below :data:`_SQUARE_CAP` (so it cannot overflow; NaN is not); if one
    is not, or the cube is past the float range, the error of
    :func:`_past_range` is raised.
    """
    x, y, z = r.tolist()
    if abs(x) < _SQUARE_CAP and abs(y) < _SQUARE_CAP and abs(z) < _SQUARE_CAP:
        try:
            return math.sqrt(r.dot(r)) ** 3
        except OverflowError:
            pass
    raise _past_range(r)


def _past_range(pos: NDArray) -> ValueError:
    """The ``ValueError`` of positions past the gravitation's range, naming
    the largest ``|r|`` of ``pos``, one position (3,) or several (N, 3)."""
    norm = max(math.hypot(*r) for r in np.reshape(pos, (-1, 3)).tolist())
    return ValueError(f"gravitation at |r| = {norm:.6g} m overflows")


@dataclass(frozen=True)
class EarthModel:
    """Earth rotation, gravitation and WGS-84 ellipsoid constants.

    The gravitation model is the spherical ``-mu r / |r|^3``; plumb-bob
    gravity subtracts the centrifugal term ``(omega x)^2 r``.  Constants are
    inputs, not ground truth, and may be overridden per run.
    """

    omega_ie: float = 7.292115e-5  # rad/s
    mu: float = 3.986004418e14  # m^3/s^2
    semimajor_axis: float = 6378137.0  # m
    flattening: float = 1.0 / 298.257223563
    # earth rotation vector in ECEF axes (0, 0, omega_ie), read-only
    omega_vec: NDArray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("omega_ie", "mu"):
            value = getattr(self, name)
            if not value > 0.0:  # also rejects NaN
                raise ValueError(f"EarthModel.{name} must be positive, got {value!r}")
        w = np.array([0.0, 0.0, self.omega_ie])
        w.setflags(write=False)
        object.__setattr__(self, "omega_vec", w)

    @property
    def e2(self) -> float:
        """Squared first eccentricity of the ellipsoid."""
        return self.flattening * (2.0 - self.flattening)

    # -- gravity -------------------------------------------------------

    def gravitation_ecef(self, r: NDArray) -> NDArray:
        """Gravitational acceleration G at ECEF position r.

        Raises ``ValueError`` if ``r . r`` or ``|r|^3`` is past the float
        range (see :func:`_norm_cube`).
        """
        r = np.asarray(r, dtype=float)
        cube = _norm_cube(r)  # before mu r can overflow
        return -self.mu * r / cube

    def gravity_ecef(self, r: NDArray) -> NDArray:
        """Plumb-bob gravity g = G - (omega x)(omega x r) at ECEF position r."""
        w = self.omega_vec
        return self.gravitation_ecef(r) - _cross(w, _cross(w, np.asarray(r)))

    # -- ellipsoid geometry ---------------------------------------------

    def curvature_radii(self, lat: float) -> tuple[float, float]:
        """Meridian and prime-vertical curvature radii (R_M, R_N) at latitude."""
        s2 = math.sin(lat) ** 2
        den = 1.0 - self.e2 * s2
        rn = self.semimajor_axis / math.sqrt(den)
        rm = self.semimajor_axis * (1.0 - self.e2) / den**1.5
        return rm, rn

    def geodetic_to_ecef(self, lat: float, lon: float, height: float) -> NDArray:
        """ECEF position of a geodetic (lat, lon, height) point, radians/meters."""
        _, rn = self.curvature_radii(lat)
        cl, sl = math.cos(lat), math.sin(lat)
        return np.array(
            [
                (rn + height) * cl * math.cos(lon),
                (rn + height) * cl * math.sin(lon),
                (rn * (1.0 - self.e2) + height) * sl,
            ]
        )

    def ecef_to_geodetic(self, r: NDArray) -> tuple[float, float, float]:
        """Geodetic (lat, lon, height) of an ECEF point, by fixed-point iteration.

        The returned height is the distance along the normal at ``lat``,
        ``p cos(lat) + z sin(lat) - a sqrt(1 - e^2 sin^2(lat))``, which
        cancels nothing at any latitude, the poles included.
        """
        x, y, z = np.asarray(r, dtype=float)
        lon = math.atan2(y, x)
        p = math.hypot(x, y)
        lat = math.atan2(z, p * (1.0 - self.e2))
        for _ in range(20):
            _, rn = self.curvature_radii(lat)
            height = p / math.cos(lat) - rn if p > 1.0 else z / math.sin(lat) - rn * (
                1.0 - self.e2
            )
            lat_new = math.atan2(z, p * (1.0 - self.e2 * rn / (rn + height)))
            if abs(lat_new - lat) < 1e-14:
                lat = lat_new
                break
            lat = lat_new
        sl = math.sin(lat)
        return lat, lon, p * math.cos(lat) + z * sl - self.semimajor_axis * math.sqrt(
            1.0 - self.e2 * sl * sl
        )

    def ned_rotation(self, lat: float, lon: float) -> NDArray:
        """Direction cosine matrix C_n^e from local NED axes to ECEF axes."""
        cl, sl = math.cos(lat), math.sin(lat)
        cg, sg = math.cos(lon), math.sin(lon)
        return np.array(
            [
                [-sl * cg, -sg, -cl * cg],
                [-sl * sg, cg, -cl * sg],
                [cl, 0.0, -sl],
            ]
        )

    def ned_position(self, lat: float, height: float) -> NDArray:
        """Earth-center-to-body vector resolved in the local NED frame."""
        _, rn = self.curvature_radii(lat)
        sl, cl = math.sin(lat), math.cos(lat)
        return np.array(
            [
                -self.e2 * rn * sl * cl,
                0.0,
                -(rn * (1.0 - self.e2 * sl * sl) + height),
            ]
        )

    def ned_lat_height(
        self, r_eb_n: NDArray, lat_hint: float | None = None
    ) -> tuple[float, float]:
        """Geodetic latitude and height from an NED-resolved position vector.

        Inverts :meth:`ned_position` in closed form.  The north component
        determines sin(lat)cos(lat)/sqrt(1-e^2 sin^2 lat), a quartic in
        sin(lat) with two exact roots mirrored about 45 degrees whose heights
        differ by ~a e^2 cos(2 lat)/2 (up to ~21 km): a bare NED position
        cannot distinguish them.  With ``lat_hint`` the root nearer the hint
        is returned; otherwise the smaller-|height| branch, which is correct
        below half the branch gap (and the latitude gap itself closes at the
        45-degree crossover).  The east component is ignored (zero for a
        consistent local-level state).
        """
        x_n = float(r_eb_n[0])
        z_n = float(r_eb_n[2])
        a = self.semimajor_axis
        e2 = self.e2
        k = -x_n / (e2 * a)  # sin(lat)cos(lat)/sqrt(1 - e2 sin^2 lat)
        k2 = k * k
        # s^4 - (1 + k^2 e2) s^2 + k^2 = 0 with s = sin(lat)
        aa = 1.0 + k2 * e2
        disc = max(aa * aa - 4.0 * k2, 0.0)
        roots: list[tuple[float, float]] = []
        for sign in (-1.0, 1.0):
            s2 = 0.5 * (aa + sign * math.sqrt(disc))
            if not 0.0 <= s2 <= 1.0:
                continue
            # cos^2(lat) = k^2 (1/s2 - e2) cancels nothing near the poles,
            # where 1 - s2 would lose half the digits
            c2 = k2 * (1.0 / s2 - e2) if s2 > 0.0 else 1.0
            lat = math.copysign(math.atan2(math.sqrt(s2), math.sqrt(c2)), k)
            height = -z_n - a * math.sqrt(1.0 - e2 * s2)
            roots.append((lat, height))
        if not roots:  # |k| beyond the quartic range: clamp to 45 degrees
            return (
                math.copysign(math.pi / 4.0, k),
                -z_n - a * math.sqrt(1.0 - 0.5 * e2),
            )
        if lat_hint is not None:
            return min(roots, key=lambda lh: abs(lh[0] - lat_hint))
        return min(roots, key=lambda lh: abs(lh[1]))

    # -- navigation-frame rates ------------------------------------------

    def omega_ie_ned(self, lat: float) -> NDArray:
        """Earth rotation vector resolved in NED axes."""
        return self.omega_ie * np.array([math.cos(lat), 0.0, -math.sin(lat)])

    def transport_rate(self, lat: float, height: float, v_eb_n: NDArray) -> NDArray:
        """Angular rate of the NED frame relative to ECEF (transport rate)."""
        rm, rn = self.curvature_radii(lat)
        vn, ve = float(v_eb_n[0]), float(v_eb_n[1])
        return np.array(
            [
                ve / (rn + height),
                -vn / (rm + height),
                -ve * math.tan(lat) / (rn + height),
            ]
        )

    def gravitation_ned(self, lat: float, height: float) -> NDArray:
        """Gravitational acceleration resolved in NED axes (longitude-free)."""
        r_e = self.geodetic_to_ecef(lat, 0.0, height)
        c_ne = self.ned_rotation(lat, 0.0)
        return c_ne.T @ self.gravitation_ecef(r_e)

    def gravity_ned(self, lat: float, height: float) -> NDArray:
        """Plumb-bob gravity resolved in NED axes."""
        r_e = self.geodetic_to_ecef(lat, 0.0, height)
        c_ne = self.ned_rotation(lat, 0.0)
        return c_ne.T @ self.gravity_ecef(r_e)


# Below this bound on r . r, |r|^3 is finite: at most 2**1020.
_CUBE_CAP = 2.0**680


def _cubes(pos: NDArray) -> NDArray:
    """:func:`_norm_cube` of each row of ``pos`` (N, 3).  A row past the
    range raises the error of :func:`_past_range` naming the largest
    ``|r|`` of ``pos``.

    ``r . r`` is one dot product per row, with ``r.dot(r)``'s bits.  When
    every entry is below :data:`_SQUARE_CAP` and every ``r . r`` below
    :data:`_CUBE_CAP`, no row is out of range and the rows are not decided
    one by one; the cube stays a per-row ``math`` power, whose bits
    numpy's ``power`` does not keep.
    """
    if np.abs(pos).max(initial=0.0) < _SQUARE_CAP:  # r . r cannot overflow (NaN compares false)
        r2 = (pos[:, None, :] @ pos[:, :, None]).ravel().tolist()
        if max(r2, default=0.0) < _CUBE_CAP:
            return np.array([math.sqrt(v) ** 3 for v in r2])
    try:
        return np.array([_norm_cube(r) for r in pos])
    except ValueError:  # past the range
        raise _past_range(pos) from None


def _gravitation(earth: EarthModel, pos: NDArray) -> NDArray:
    """``earth.gravitation_ecef`` of each row of ``pos`` (N, 3), with its
    bits and its range decision: a row past the range raises ``ValueError``
    naming the largest ``|r|`` of ``pos`` (see :func:`_cubes`)."""
    cubes = _cubes(pos)[:, None]  # before mu r can overflow
    return -earth.mu * pos / cubes


@dataclass(frozen=True)
class DynamicsPair:
    """Constant input pair (W1, W2) of the group-affine model dX/dt = X W1 + W2 X.

    Both are 5x5 se2(3) elements: zero bottom rows, skew top-left block.  W1
    holds the IMU readings; its position column is zero in every variant.
    """

    w1: NDArray
    w2: NDArray
    frame: FrameTag | None = field(default=None)

    def __post_init__(self):
        for name in ("w1", "w2"):
            if np.any(_frozen(self, name, (5, 5))[3:5, :] != 0.0):
                raise ValueError(f"DynamicsPair.{name} has nonzero bottom rows")
        if np.any(self.w1[0:3, 4] != 0.0):
            raise ValueError("DynamicsPair.w1 position column must be zero")


def _input_matrix(omega: NDArray, col_v: NDArray, col_r: NDArray) -> NDArray:
    m = np.zeros((5, 5))
    m[0:3, 0:3] = hat(omega)
    m[0:3, 3] = col_v
    m[0:3, 4] = col_r
    return m


def _w2(frame: FrameTag, vel: NDArray, pos: NDArray, earth: EarthModel):
    """W2 of the variant at the state columns as (rate, vel column, pos column).

    The rate is ``None`` in the ECEF variants, where it is the earth rate
    ``-w_ie`` at every state (see :func:`_passes`).
    """
    if frame is FrameTag.ECEF_EB:
        w_ie = earth.omega_vec
        g = earth.gravity_ecef(pos)
        return None, g - _cross(w_ie, vel), vel + _cross(w_ie, pos)
    if frame is FrameTag.ECEF_IB:
        return None, earth.gravitation_ecef(pos), vel
    lat, height = earth.ned_lat_height(pos)
    w_ie_n = earth.omega_ie_ned(lat)
    if frame is FrameTag.NED_EB:
        w_in_n = w_ie_n + earth.transport_rate(lat, height, vel)
        g_n = earth.gravity_ned(lat, height)
        return -w_in_n, g_n - _cross(w_ie_n, vel), vel + _cross(w_ie_n, pos)
    w_in_n = w_ie_n + earth.transport_rate(lat, height, vel - _cross(w_ie_n, pos))
    return -w_in_n, earth.gravitation_ned(lat, height), vel


def build_dynamics(
    frame: FrameTag, x: GroupElement, imu: ImuSample, earth: EarthModel
) -> DynamicsPair:
    """Input pair (W1, W2) of the chosen kinematic variant at state ``x``.

    W1 = [[gyro^, accel, 0]; 0; 0] in every variant.  W2 carries the earth
    rate, the gravity/gravitation column and the transport column of the
    variant, all evaluated at the state ``x``:

    * ECEF_EB: ``[-w_ie^, g - w_ie x v, v + w_ie x r]``
    * ECEF_IB: ``[-w_ie^, G, v]``
    * NED_EB:  ``[-w_in^, g - w_ie x v, v + w_ie x r]`` (NED-resolved)
    * NED_IB:  ``[-w_in^, G, v]`` (NED-resolved)

    The NED rates use geodetic latitude/height recovered from the NED
    position column and the standard WGS-84 curvature radii.  W2 is the
    same triple of 3-vectors that :func:`midpoint_step` propagates with.

    Raises
    ------
    FrameMismatch
        If ``x.frame`` differs from ``frame``.
    """
    _resolve_frame(x.frame, frame)
    w1 = _input_matrix(imu.gyro, imu.accel, np.zeros(3))
    rate, col_v, col_r = _w2(frame, x.vel, x.pos, earth)
    if rate is None:
        rate = -earth.omega_vec
    return DynamicsPair(w1, _input_matrix(rate, col_v, col_r), frame)


def dynamics_matrix(pair: DynamicsPair, x: GroupElement) -> NDArray:
    """Value of the vector field f(X) = X W1 + W2 X in the 5x5 embedding."""
    m = x.as_matrix()
    return m @ pair.w1 + pair.w2 @ m


def _flow(rot, vel, pos, dv, w2, dt, g0, w2_blocks):
    """Array core of :func:`flow`, W2 as a (rate, vel column, pos column) triple
    of which only the columns are read.

    ``dv`` is the body-frame velocity increment ``Gamma_1(gyro dt) accel dt``
    and ``g0`` is ``Gamma_0(gyro dt)``, and ``w2_blocks`` starts with
    Gamma_0 - I and Gamma_1 of ``w2[0] * dt``, all from the caller;
    ``g0=None`` skips the rotation and returns ``None`` in its place.
    """
    # right factor X exp(W1 dt): W1 has a zero position column
    vel = rot @ dv + vel

    # left factor exp(W2 dt) (...): position advanced by its increment
    dev2, j2 = w2_blocks[0], w2_blocks[1]
    vel_new = vel + (dev2 @ vel + j2 @ (w2[1] * dt))
    pos_new = pos + (dev2 @ pos + j2 @ (w2[2] * dt))
    if g0 is None:
        return None, vel_new, pos_new
    rot = rot @ g0
    return rot + dev2 @ rot, vel_new, pos_new


def flow(x: GroupElement, pair: DynamicsPair, dt: float) -> GroupElement:
    """Exact solution exp(W2 dt) X exp(W1 dt) of dX/dt = X W1 + W2 X.

    Both exponentials are evaluated through the Gamma-function structure of
    se2(3), on the pair's 3-vectors, by the array core :func:`midpoint_step`
    shares; the pair is held constant over the step.  The position update is
    applied in delta form so the per-step rounding on earth-radius states is
    a single ulp, which keeps long dead-reckoning runs at the micrometer level.
    """
    if dt < 0.0:
        raise ValueError("flow requires dt >= 0")
    if dt == 0.0:
        return x
    w1, w2 = pair.w1[0:3], pair.w2[0:3]
    w2 = (vee(w2[:, 0:3]), w2[:, 3], w2[:, 4])
    dev1, j1 = gamma_blocks(vee(w1[:, 0:3]) * dt, 2)
    w2_blocks = gamma_blocks(w2[0] * dt, 2)
    dv = j1 @ (w1[:, 3] * dt)
    rot, vel, pos = _flow(x.rot, x.vel, x.pos, dv, w2, dt, _EYE3 + dev1, w2_blocks)
    return GroupElement(rot, vel, pos, x.frame)


# Variants whose W2 rate is the earth rate alone, the same at every state.
_CONSTANT_RATE = (FrameTag.ECEF_EB, FrameTag.ECEF_IB)

# Steps per stacked Gamma pass: a long run is cut into windows of at most
# this many steps, so the pass's arrays stay small whatever the run length.
_WINDOW = 128


def _stream(samples: Sequence[ImuSample]) -> tuple[NDArray, NDArray]:
    """An IMU stream stacked: the samples' times (N,) and their (gyro, accel)
    rows (N, 2, 3).  A synthesized stream (a :class:`_Records` of
    :func:`_imu_record`), or a slice of one, hands over its stacks, read-only
    views with the bits of stacking its records, and builds none."""
    if isinstance(samples, _Records) and samples._make is _imu_record:
        return samples.stacks()
    rates = np.array([v for s in samples for v in (s.gyro, s.accel)]).reshape(-1, 2, 3)
    return np.array([s.t for s in samples]), rates


def _increasing(name: str, times: NDArray) -> None:
    """Raise :class:`NonMonotonicTime` naming the first of ``times`` (the
    ``name`` stream's) that is not after its predecessor."""
    bad = np.flatnonzero(times[1:] <= times[:-1])
    if bad.size:
        raise NonMonotonicTime(f"{name} stream not increasing at t={times[bad[0] + 1]}")


def _intervals(times: NDArray, rates: NDArray) -> tuple[NDArray, NDArray]:
    """The intervals of a stacked IMU stream (see :func:`_stream`), time
    ordered: row k - 1 holds epoch k's trapezoidal mean (gyro, accel), shape
    (N - 1, 2, 3), and its length, shape (N - 1,)."""
    _increasing("imu", times)
    return 0.5 * (rates[:-1] + rates[1:]), np.diff(times)


def _windows(start: int, stops):
    """The windows of intervals ``[a, b)`` (rows of :func:`_intervals`) from
    ``start``, each ending at the next of the increasing ``stops`` or after
    :data:`_WINDOW` intervals, whichever is first."""
    for stop in stops:
        while start < stop:
            end = min(stop, start + _WINDOW)
            yield start, end
            start = end


# the full and the half step of the midpoint scheme, as fractions of dt
_STEPS = np.array([1.0, 0.5])
_STEPS.setflags(write=False)


def _rotations(rate: NDArray, dt, name: str) -> NDArray:
    """The rotations ``rate * dt`` (N, 3) of a window's steps, or of one
    step (3,), ``dt`` their lengths as a column (N, 1) or one scalar.  The
    first step whose rotation is too large to square (or NaN) raises
    :class:`_StepError` naming it and ``name``, the rate's."""
    phi = rate * dt
    if not np.abs(phi).max(initial=0.0) < _SQUARE_CAP:  # also inf and NaN
        k = int((np.abs(phi) < _SQUARE_CAP).all(axis=-1).argmin())
        raise _StepError(k, f"{name} * dt over the interval overflows")
    return phi


# The ECEF earth rate's Gamma blocks at the full and the half step of an
# interval, keyed by (earth rate, block order, interval length): a stream's
# lengths repeat (a simulated one has about two), so each is formed once per
# process.  It holds at most _EARTH_RATE_ROWS entries, the oldest going
# first, each a row of the read-only pass that formed it.
_EARTH_RATE: dict[tuple[float, int, float], NDArray] = {}
_EARTH_RATE_ROWS = 256


def _earth_rate(earth, dt, n):
    """``rate[k]``, the ``[full, half]`` blocks of W2's rate ``-w_ie`` over
    step k, shape (N, 2, n, 3, 3), each row the bits of a
    :func:`~eqnav.liegroup._gamma_pass` of ``-omega_vec * dt[k]`` alone at
    scales 1 and 1/2.  A window of one step, or one whose lengths repeat,
    reads them from :data:`_EARTH_RATE` and forms the lengths not in it in
    one stacked pass; a window of several steps whose every length is its
    own (a jittered stream's, which do not recur) forms them all in one
    stacked pass and does not keep them."""
    lengths = dt.tolist()
    distinct = dict.fromkeys(lengths)
    if len(lengths) > 1 and len(distinct) == len(lengths):
        return _gamma_pass(-earth.omega_vec * dt[:, None], n, (1.0, 0.5))[0]
    known = {h: _EARTH_RATE.get((earth.omega_ie, n, h)) for h in distinct}
    missing = [h for h, blocks in known.items() if blocks is None]
    if missing:
        new = _gamma_pass(-earth.omega_vec * np.array(missing)[:, None], n, (1.0, 0.5))[0]
        new.setflags(write=False)
        known.update(zip(missing, new))
        rows = [((earth.omega_ie, n, h), known[h]) for h in missing][-_EARTH_RATE_ROWS:]
        full = len(_EARTH_RATE) + len(rows) - _EARTH_RATE_ROWS
        for key in list(islice(_EARTH_RATE, max(full, 0))):  # the oldest
            _EARTH_RATE.pop(key, None)  # (another thread may have taken it)
        _EARTH_RATE.update(rows)
    if len(lengths) == 1:
        return known[lengths[0]][None]
    index = {h: k for k, h in enumerate(known)}
    return np.stack(list(known.values()))[[index[h] for h in lengths]]


def _passes(frame, gyro, accel, dt, earth, n):
    """The state-independent work of a window of midpoint steps.

    ``gyro``, ``accel`` (N, 3) and ``dt`` (N,) are the steps' body rates
    and lengths.  Returns ``(body, rate, dv, g0)``: ``body`` is the
    :func:`~eqnav.liegroup._gamma_pass` of the body rotations ``gyro * dt``
    at scales 1 and 1/2 (full and half step); ``rate[k]`` is step k's
    ``[full, half]`` blocks of W2's rate, shape (2, n, 3, 3), for the ECEF
    variants, where that rate is the earth rate at every state, read from
    the per-length table of :func:`_earth_rate`, and ``None`` for the NED
    variants, where it moves with the state; ``dv[k]`` is the body-frame
    velocity increment ``Gamma_1(s gyro dt) accel s dt`` of the full and
    half step (s = 1, 1/2), shape (N, 2, 3); ``g0[k]`` is
    ``Gamma_0(gyro dt)``.  A step whose body rotation is too large to
    square raises :class:`_StepError` naming it.
    """
    dt_col = dt[:, None]
    phi = _rotations(gyro, dt_col, "body rotation gyro")
    body = _gamma_pass(phi, n, (1.0, 0.5))
    if frame in _CONSTANT_RATE:
        rate = _earth_rate(earth, dt, n)
    else:
        rate = [None] * len(dt)
    a_dt = accel[:, None, :, None] * (dt_col * _STEPS)[:, :, None, None]
    dv = (body[0][:, :, 1] @ a_dt)[..., 0]
    return body, rate, dv, _EYE3 + body[0][:, 0, 0]


def _midpoint(frame, rot, vel, pos, dt, earth, dv, g0, rate):
    """Array core of :func:`midpoint_step`: the state (rot, vel, pos) stepped.

    ``dv``, ``g0`` and ``rate`` are the step's entries of :func:`_passes`;
    ``rate=None`` marks a W2 rate that moves with the state (the NED
    variants): it is then evaluated at the start state and at the midpoint,
    and its rotations are checked as the body rotations are.
    """
    half = 0.5 * dt
    w2 = _w2(frame, vel, pos, earth)
    if rate is None:
        rate_half = gamma_blocks(_rotations(w2[0], half, "navigation-frame rate w_in"), 2)
    else:
        rate_full, rate_half = rate[0], rate[1]
    _, vel_mid, pos_mid = _flow(rot, vel, pos, dv[1], w2, half, None, rate_half)
    w2 = _w2(frame, vel_mid, pos_mid, earth)
    if rate is None:
        rate_full = gamma_blocks(_rotations(w2[0], dt, "navigation-frame rate w_in"), 2)
    return _flow(rot, vel, pos, dv[0], w2, dt, g0, rate_full)


def _stepped(frame, x, passes, dt, earth):
    """The trajectory of :func:`_walk` stepped one step at a time.

    Each stepped state is checked as it is formed, with the decisions of
    :class:`GroupElement` (the scalar rotation test and one finiteness
    test), so no step runs on a rejected state, which is rebuilt through
    the constructor to name its fault.  A failing step k raises
    :class:`_StepError` with index k; the steps before it are not handed
    back (a caller that needs them walks the first k steps again).
    """
    _, rate, dv, g0 = passes
    rows = len(dt) + 1
    rot, vel, pos = np.empty((rows, 3, 3)), np.empty((rows, 3)), np.empty((rows, 3))
    rot[0], vel[0], pos[0] = step = x.rot, x.vel, x.pos
    for k, h in enumerate(dt.tolist()):
        try:
            step = _midpoint(frame, *step, h, earth, dv[k], g0[k], rate[k])
            if not _element_ok(*step):
                GroupElement(*step, x.frame)  # names the fault
        except ValueError as exc:
            raise _StepError(k, str(exc)) from exc
        rot[k + 1], vel[k + 1], pos[k + 1] = step
    return rot, vel, pos


# A window's sweeps stop once no coordinate of a step's start or midpoint
# position moves by more than this many ulps of the largest (see _swept).
_SWEEP_ULPS = 4


def _swept(frame, x, passes, dt, earth):
    """The trajectory of :func:`_walk` in ECEF_IB, solved by sweeps over all
    the window's steps at once.

    Only W2's gravitation column G ties a step to the state it starts
    from (its position column is the velocity): W2's rate is the earth
    rate at every state, so the rotations are the stepping recursion
    ``R <- R g0_k + dev_k (R g0_k)``, formed once, bit for bit.  The rest
    is Picard iteration (waveform relaxation: Lelarasmee, Ruehli &
    Sangiovanni-Vincentelli, IEEE TCAD 1(3), 1982).  The first sweep reads
    ``x`` as every step's start.  A sweep forms the gravitation at all
    start and midpoint positions in one call, then every step's velocity
    and position increments, by the operations of one step, and adds them
    to ``x`` in step order by one cumulative sum; the positions take the
    sweep's new velocities.  Step k reads only the rows before it, so
    after k sweeps the first k steps are stepping's.  The sweeps stop once
    no coordinate of the next sweep's start and midpoint positions is more
    than :data:`_SWEEP_ULPS` ulps of the largest from this sweep's, and
    never after more sweeps than steps.

    A failing window is stepped once more (:func:`_stepped`) to name its
    fault: as soon as a sweep's gravitation read is past its range (or
    NaN), or once the sweeps end if a state fails their one check (the
    rotations, and a sum of squares that is finite only if every entry
    is; a finite state so far out that the sum overflows is stepped too,
    and accepted).
    """
    _, rate, dv, g0 = passes
    steps = len(dt)
    dt_col = dt[:, None, None]
    half_col = 0.5 * dt_col
    dev, j, dev_h, j_h = rate[:, 0, 0], rate[:, 0, 1], rate[:, 1, 0], rate[:, 1, 1]
    rot = np.empty((steps + 1, 3, 3))
    r = rot[0] = x.rot
    for k, (g, d) in enumerate(zip(g0, dev)):
        r = r @ g
        r = rot[k + 1] = r + d @ r
    # vectors are columns (..., 3, 1), so each product is one gemv with the
    # bits of the step's; each sweep adds its increments in place
    rdv = rot[:-1, None] @ dv[..., None]  # each step's rot dv, full and half step
    vel = np.empty((2 * steps + 1, 3, 1))  # v_0, then each step's rot dv and rest
    pos = np.empty((steps + 1, 3, 1))  # r_0, then each step's increment
    vel[::2], pos[:] = x.vel[:, None], x.pos[:, None]  # the first sweep's starts: x
    v_s, r_s = vel[:-1:2], pos[:-1]  # the steps' starts, as the last sweep left them
    for sweep in range(steps):  # no more sweeps than steps
        # where the sweep reads the gravitation: the starts, then the midpoints
        reads = np.empty((2 * steps, 3, 1))
        reads[:steps] = r_s
        np.add(r_s, dev_h @ r_s + j_h @ (v_s * half_col), out=reads[steps:])
        if sweep and np.abs(reads - at).max() <= _SWEEP_ULPS * np.spacing(np.abs(at).max()):
            break
        at = reads
        try:
            grav = _gravitation(earth, at[..., 0])[..., None]
        except ValueError:  # past the range, or NaN: stepping names the fault
            return _stepped(frame, x, passes, dt, earth)
        e = dev @ (rdv[:, 0] + v_s) + j @ (grav[steps:] * dt_col)
        d_r = dev @ r_s
        vel[1::2], vel[2::2] = rdv[:, 0], e
        np.add.accumulate(vel, axis=0, out=vel)
        # the positions take this sweep's velocities
        v_a = rdv[:, 1] + v_s
        v_mid = v_a + (dev_h @ v_a + j_h @ (grav[:steps] * half_col))
        pos[1:] = d_r + j @ (v_mid * dt_col)
        np.add.accumulate(pos, axis=0, out=pos)
    # the squares' sum is finite only if every entry is (or it overflows)
    if not (math.isfinite(np.vdot(vel, vel) + np.vdot(pos, pos)) and _all_rotations(rot[1:])):
        return _stepped(frame, x, passes, dt, earth)  # names the fault, if a step fails
    return rot, vel[::2, :, 0], pos[..., 0]


def _walk(frame, x, gyro, accel, dt, earth, n):
    """The midpoint steps of a window from ``x``: the one propagation path.

    ``gyro``, ``accel`` (N, 3) and ``dt`` (N,) are the steps' body rates
    and lengths, ``n`` the order of the Gamma blocks :func:`_passes` forms
    (2 for the mean, 3 when the transition matrices read them too).
    Returns ``(passes, traj)``: :func:`_passes`'s ``(body, rate, dv, g0)``
    and the read-only stacked trajectory ``(rot, vel, pos)``, shapes
    (N + 1, 3, 3) and (N + 1, 3), row 0 ``x`` and row k + 1 the end of
    step k.  No element is built; callers make theirs from views of it.

    Step k is :func:`midpoint_step`'s: W2 at the start, a half step to the
    midpoint, W2 there, and the full step from the start.  An ECEF_IB
    window (the filter's frame) of two or more steps is solved by sweeps
    (:func:`_swept`): its rotations are stepping's bit for bit, its
    velocities and positions agree with stepping to roundoff.  A window of
    one, and every NED and ECEF_EB window, is stepped (:func:`_stepped`),
    stepping's bits: a sweep of one step is the step, in NED each sweep
    would form the state-dependent rates and gravity again, row by row,
    and no filter, CLI command or benchmark walks ECEF_EB, whose dead
    reckoning costs stepping's time (3999 steps at 200 Hz: about 0.53 s
    stepped against 0.12 s swept, on a 2 vCPU Xeon).

    A failing step (a body rotation too large to square, a gravitation
    past its range, an NED rate rotation too large to square, a state
    :class:`GroupElement` rejects) raises :class:`_StepError` naming its
    index and nothing more; stepping names every fault, a failing swept
    window's included, which is stepped once more.  The body rotations of
    every step are decided before the first is walked, so a later step's
    can be named before an earlier step's walk fails: a caller that names
    the fault a loop of :func:`midpoint_step` meets, or needs the steps
    before the failing one k, walks the first k steps again (see
    :func:`_dead_reckoned`, :func:`~eqnav.filter._propagate`).
    ``x.frame`` other than ``frame`` raises :class:`FrameMismatch`.
    Callers run it under ``np.errstate(over="ignore", invalid="ignore")``:
    the walk names its faults, so their inf and NaN make no numpy warning.
    """
    _resolve_frame(x.frame, frame)
    passes = _passes(frame, gyro, accel, dt, earth, n)
    walk = _swept if frame is FrameTag.ECEF_IB and len(dt) > 1 else _stepped
    traj = walk(frame, x, passes, dt, earth)
    for a in traj:
        a.setflags(write=False)
    return passes, traj


def midpoint_step(
    frame: FrameTag, x: GroupElement, gyro: NDArray, accel: NDArray,
    dt: float, earth: EarthModel,
) -> GroupElement:
    """Advance ``x`` by ``dt`` under constant body rates ``gyro``/``accel``.

    W2 is evaluated at ``x``; a half-step :func:`flow` gives the midpoint
    velocity and position (all that W2 reads), W2 is rebuilt there, and the
    full step is the exact flow from ``x``: second order in ``dt``.  This is
    the mean walk every propagation runs (:func:`_walk`), on a window of
    one step; an ECEF_IB window of several steps, solved by sweeps, agrees
    with a loop of this step to roundoff.  Raises :class:`FrameMismatch` if
    ``x.frame`` is not ``frame``.
    """
    gyro, accel = np.reshape(gyro, (1, 3)), np.reshape(accel, (1, 3))
    with np.errstate(over="ignore", invalid="ignore"):  # the walk names its faults
        rot, vel, pos = _walk(frame, x, gyro, accel, np.array([dt]), earth, 2)[1]
    return _trusted(GroupElement, rot=rot[1], vel=vel[1], pos=pos[1], frame=x.frame)


def lift(x: GroupElement, pair: DynamicsPair) -> NDArray:
    """Lift of the input pair at x: Lambda(X, (W1, W2)) = X W1 X^-1 + W2."""
    m = x.as_matrix()
    minv = inverse(x).as_matrix()
    return m @ pair.w1 @ minv + pair.w2


def velocity_action(a: GroupElement, pair: DynamicsPair) -> DynamicsPair:
    """Input group action psi_A(W1, W2) = (W1, A W2 A^-1)."""
    am = a.as_matrix()
    am_inv = inverse(a).as_matrix()
    return DynamicsPair(pair.w1, am @ pair.w2 @ am_inv, pair.frame)


# --- frame translations ----------------------------------------------------

_A1_MAP = {
    FrameTag.NED_EB: FrameTag.ECEF_EB,
    FrameTag.NED_IB: FrameTag.ECEF_IB,
}


def frame_translation(
    which: int, x: GroupElement, earth: EarthModel, reverse: bool = False
) -> GroupElement:
    """Left-translate a state between the four SE2(3) conventions.

    ``which`` selects the translation element:

    1. rotation-only injection of an NED state into ECEF axes (C_n^e),
    2. NED earth-relative to NED inertial-relative (v += w_ie^n x r),
    3. ECEF earth-relative to ECEF inertial-relative (v += w_ie^e x r).

    With ``reverse=True`` the inverse translation is applied.  The output is
    retagged with the target frame.
    """
    if which == 1:
        if not reverse:
            if x.frame not in _A1_MAP:
                raise FrameMismatch("translation 1 expects an NED-frame state")
            lat, height = earth.ned_lat_height(x.pos)
            c_ne = earth.ned_rotation(lat, 0.0)
            a = GroupElement(c_ne, np.zeros(3), np.zeros(3))
            target = _A1_MAP[x.frame]
        else:
            inv_map = {v: k for k, v in _A1_MAP.items()}
            if x.frame not in inv_map:
                raise FrameMismatch("translation 1 reverse expects an ECEF-frame state")
            lat, lon, _ = earth.ecef_to_geodetic(x.pos)
            a = GroupElement(earth.ned_rotation(lat, lon).T, np.zeros(3), np.zeros(3))
            target = inv_map[x.frame]
    elif which in (2, 3):
        # one velocity shift v +- w_ie x r, the earth rate in NED or ECEF axes
        ned = which == 2
        src, target = (FrameTag.NED_EB, FrameTag.NED_IB) if ned else (
            FrameTag.ECEF_EB, FrameTag.ECEF_IB)
        if reverse:
            src, target = target, src
        _resolve_frame(x.frame, src)
        w = earth.omega_ie_ned(earth.ned_lat_height(x.pos)[0]) if ned else earth.omega_vec
        shift = _cross(w, x.pos)
        a = GroupElement(np.eye(3), -shift if reverse else shift, np.zeros(3))
    else:
        raise ValueError("which must be 1, 2 or 3")

    out = compose(a, x)
    return GroupElement(out.rot, out.vel, out.pos, target)


# --- property checkers ------------------------------------------------------


@dataclass(frozen=True)
class GroupAffineReport:
    """Result of a randomized group-affine identity check."""

    max_residual: float
    samples: int


# half-width of the random velocities (m/s) and positions (m)
_AFFINE_SCALE = 1.0e7


def _random_element(rng: np.random.Generator, angle_max: float, vel: float, pos: float):
    """A random element: rotation angle below ``angle_max`` about a uniform
    axis, velocity and position entries uniform in (-vel, vel), (-pos, pos)."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return GroupElement(
        so3_exp(rng.uniform(0.0, angle_max) * axis),
        rng.uniform(-vel, vel, 3),
        rng.uniform(-pos, pos, 3),
    )


def group_affine_residual(w1: NDArray, w2: NDArray, xa: NDArray, xb: NDArray) -> float:
    """Group-affine defect of f(X) = X W1 + W2 X at one (Xa, Xb) sample.

    Combines the Frobenius residual of
    ``f(Xa Xb) = f(Xa) Xb + Xa f(Xb) - Xa f(I) Xb`` with the tangent-space
    constraint (the bottom two rows of every field value must vanish, which
    fails when an input matrix has nonzero bottom rows).
    """
    xab = xa @ xb
    f_ab = xab @ w1 + w2 @ xab
    f_a = xa @ w1 + w2 @ xa
    f_b = xb @ w1 + w2 @ xb
    res = f_ab - (f_a @ xb + xa @ f_b - xa @ (w1 + w2) @ xb)
    tangent = max(
        float(np.linalg.norm(v[3:5, :])) for v in (f_ab, f_a, f_b)
    )
    return max(float(np.linalg.norm(res)), tangent)


def check_group_affine(
    pair: DynamicsPair,
    samples: int = 1000,
    rng: np.random.Generator | None = None,
) -> GroupAffineReport:
    """Verify f(Xa Xb) = f(Xa) Xb + Xa f(Xb) - Xa f(I) Xb on random pairs.

    The identity characterizes group-affine vector fields and guarantees
    exact log-linear error propagation.  Reports the maximum per-sample
    defect (see :func:`group_affine_residual`) in the 5x5 embedding over
    ``samples`` random (Xa, Xb) pairs.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    worst = 0.0
    for _ in range(samples):
        xa = _random_element(rng, math.pi - 0.2, _AFFINE_SCALE, _AFFINE_SCALE).as_matrix()
        xb = _random_element(rng, math.pi - 0.2, _AFFINE_SCALE, _AFFINE_SCALE).as_matrix()
        worst = max(worst, group_affine_residual(pair.w1, pair.w2, xa, xb))
    return GroupAffineReport(worst, samples)


@dataclass(frozen=True)
class DstarActionReport:
    """Residuals of the composition and linearity laws of the d*L action."""

    composition_residual: float
    linearity_residual: float


def check_dstar_action(
    a: GroupElement,
    b: GroupElement,
    fields,
    points,
) -> DstarActionReport:
    """Check that (Z, F) -> dL_Z . F o L_{Z^-1} is a linear left action.

    ``fields`` are vector fields given as callables X -> 5x5 value in the
    embedding; ``points`` are group elements at which both laws are sampled.
    Verifies composition d*L(A, d*L(B, F)) = d*L(AB, F) and linearity with
    coefficients (2, -1) over two fields.
    """

    def dstar(z: GroupElement, f):
        z_m = z.as_matrix()
        z_inv = inverse(z)

        def moved(x: GroupElement) -> NDArray:
            return z_m @ f(compose(z_inv, x))

        return moved

    ab = compose(a, b)
    comp = 0.0
    for f in fields:
        lhs = dstar(a, dstar(b, f))
        rhs = dstar(ab, f)
        for x in points:
            comp = max(comp, float(np.linalg.norm(lhs(x) - rhs(x))))

    lin = 0.0
    if len(fields) >= 2:
        f1, f2 = fields[0], fields[1]

        def combo(x: GroupElement) -> NDArray:
            return 2.0 * f1(x) - f2(x)

        lhs_lin = dstar(a, combo)
        for x in points:
            want = 2.0 * dstar(a, f1)(x) - dstar(a, f2)(x)
            lin = max(lin, float(np.linalg.norm(lhs_lin(x) - want)))

    return DstarActionReport(comp, lin)


# --- dead reckoning ---------------------------------------------------------


def _dead_reckoned(frame, x, rates, dts, times, earth):
    """The trajectory of :func:`_walk` over a window of ``rates`` (N, 2, 3)
    and ``dts`` (N,) from ``x``, ``times`` the steps' end times.  The first
    failing step, as a loop of :func:`midpoint_step` meets it, raises
    ``ValueError`` naming its epoch: a step k > 0 that the walk names
    first has the window's first k steps walked again, and one of them
    that fails first is named instead (the walk decides every body
    rotation before it steps, so a later one can be named first)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the walk names its faults
            return _walk(frame, x, rates[:, 0], rates[:, 1], dts, earth, 2)[1]
    except _StepError as exc:
        k = exc.index
        if k:
            _dead_reckoned(frame, x, rates[:k], dts[:k], times[:k], earth)
        raise ValueError(f"at epoch t={times[k]}: {exc}") from exc


def integrate_imu(
    x0: GroupElement,
    samples: Sequence[ImuSample],
    earth: EarthModel,
    frame: FrameTag | None = None,
) -> Sequence[tuple[float, GroupElement]]:
    """Dead-reckon a state through an IMU stream with the exact group flow.

    Each interval is one :func:`midpoint_step` with the trapezoidal mean of
    the two samples' rates, so the scheme is second order in the sample
    interval while every step remains an exact flow of a constant pair.
    ``samples`` is a list of :class:`ImuSample` or the sequence
    :func:`~eqnav.sim.synthesize_imu` returns (or a slice of it), whose
    stacks are read without building a record.  The stream is stacked and
    cut into intervals and windows as :func:`~eqnav.filter.run` does it
    (:func:`_stream`, :func:`_intervals`, :func:`_windows`); the mean walk
    every propagation shares (:func:`_walk`) solves an ECEF_IB window's
    steps at once, by sweeps over the window that stop within a few ulps
    of stepping them one at a time (the rotations are the stepping
    recursion's, bit for bit); NED and ECEF_EB windows are stepped, with a
    loop of :func:`midpoint_step`'s bits.

    Returns the read-only sequence (see :class:`_Records`) of (t, state),
    one per sample, from ``(t0, x0)``, over the windows' stacked
    trajectories: a state is made from views of its rows, without a
    check, when it is first read, and kept.  Only each window's last
    state, which the next window starts from, is made by the call.

    Raises
    ------
    NonMonotonicTime
        If the sample times are not strictly increasing, naming the first
        time that is not (``imu stream not increasing at t=...``).
    ValueError
        If the stream is empty, or if a step fails (e.g. a body rotation too
        large to evaluate), naming the epoch a loop of :func:`midpoint_step`
        stops at (``at epoch t=...``).
    """
    frame = frame if frame is not None else x0.frame
    if frame is None:
        raise ValueError("integrate_imu requires a frame tag")
    times, rates = _stream(samples)
    if not times.size:
        raise ValueError("integrate_imu requires at least one IMU sample, got an empty stream")
    rates, dts = _intervals(times, rates)
    at = times.tolist()
    # a window's block is its trajectory from its first state, already built
    blocks, starts, built, x = [], [], [(at[0], x0)], x0
    for a, b in _windows(0, [dts.size]):
        traj = _dead_reckoned(frame, x, rates[a:b], dts[a:b], at[a + 1 : b + 1], earth)
        blocks.append((times[a : b + 1], *traj))
        starts.append(a)
        x = _trusted(GroupElement, rot=traj[0][-1], vel=traj[1][-1], pos=traj[2][-1],
                     frame=x0.frame)
        built += [None] * (b - a - 1)
        built.append((at[b], x))
    return _Records(partial(_state_record, x0.frame), blocks, starts, built)
