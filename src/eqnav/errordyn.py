"""Invariant error states on SE2(3) and their linearized dynamics.

The right-invariant error is the group element ``eta_R = Xhat X^-1`` (world
frame mismatch); the left-invariant error is ``eta_L = Xhat^-1 X`` (body
frame mismatch).  The filter reads either in exponential coordinates,
``xi = se23_log(eta) = (phi, rho_v, rho_r)``, the one chart in which the
invariant error propagates log-linearly (Barrau & Bonnabel, "The invariant
extended Kalman filter as a stable observer", IEEE TAC 2017), and corrects
by the group exponential.  The 15-dimensional filter error state appends
gyro and accelerometer bias errors ``db = b_true - b_hat``:

* right convention: ``(-phi, rho_v, rho_r, db_g, db_a)`` of ``eta_R``; the
  attitude component ``phi_e = -phi`` is the earth-frame attitude error in
  the feedback sense ``C = exp(phi_e^) Chat``;
* left convention: ``(phi, rho_v, rho_r, db_g, db_a)`` of ``eta_L``.

The chart is written once, in :mod:`~eqnav.liegroup`'s ``_log`` and
``_exp``; :func:`_error_vector` and :func:`_retract` add only the
convention's order and the sign of ``phi``.  It is exact (no small-angle
step); the linearized F, G and H matrices below are its first-order
dynamics and measurement models, validated against finite differences of
the exact maps in the test suite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .kinematics import _SQUARE_CAP, EarthModel, ImuSample
from .liegroup import (
    FrameTag,
    GroupElement,
    _EYE3,
    _exp,
    _frozen,
    _hats,
    _inverted,
    _log,
    _product,
    _resolve_frame,
    hat,
)

__all__ = [
    "Convention",
    "ErrorState15",
    "LeverArm",
    "NoiseParams",
    "apply_feedback",
    "error_state",
    "f_matrix",
    "g_matrix",
    "h_matrix",
]


class Convention(enum.Enum):
    LEFT_INVARIANT = "left"
    RIGHT_INVARIANT = "right"


@dataclass(frozen=True)
class NoiseParams:
    """White-noise and bias random-walk power spectral densities."""

    gyro_psd: float  # rad^2/s
    accel_psd: float  # m^2/s^3
    gyro_bias_psd: float = 0.0  # rad^2/s^3
    accel_bias_psd: float = 0.0  # m^2/s^5
    # diagonal of qc_matrix(), read-only
    qc_diag: NDArray = field(init=False, repr=False, compare=False)
    # G Qc G^T of the left form's constant G (15x15), read-only
    gc_left: NDArray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = ("gyro_psd", "accel_psd", "gyro_bias_psd", "accel_bias_psd")
        for name in names:
            if not getattr(self, name) >= 0.0:  # also rejects NaN
                raise ValueError(f"NoiseParams.{name} must be >= 0")
        q = np.repeat([getattr(self, name) for name in names], 3).astype(float)
        with np.errstate(invalid="ignore"):  # an infinite PSD: NaN, which P's checks name
            gc = (_G_LEFT * q) @ _G_LEFT.T
        for a in (q, gc):
            a.setflags(write=False)
        object.__setattr__(self, "qc_diag", q)
        object.__setattr__(self, "gc_left", gc)

    def qc_matrix(self) -> NDArray:
        """Continuous 12x12 noise covariance, ordered (w_g, w_a, w_bg, w_ba)."""
        return np.diag(self.qc_diag)


@dataclass(frozen=True)
class LeverArm:
    """GNSS antenna offset from the IMU reference point, body frame, meters."""

    l_b: NDArray

    def __post_init__(self):
        _frozen(self, "l_b", 3)


@dataclass(frozen=True)
class ErrorState15:
    """15-dimensional invariant error state, convention-tagged.

    Components: attitude error ``phi``, the velocity and position
    components ``rho_v``/``rho_r`` of the error element's logarithm (held
    in the fields ``jrho_v``/``jrho_r``, named for the group columns
    ``Gamma_1(phi) rho`` they held before the filter read its error in
    exponential coordinates), and bias errors ``db = b_true - b_hat``.
    States of different conventions must never be mixed in arithmetic.
    """

    phi: NDArray
    jrho_v: NDArray
    jrho_r: NDArray
    db_g: NDArray
    db_a: NDArray
    convention: Convention = field(default=Convention.RIGHT_INVARIANT)

    def __post_init__(self):
        for name in ("phi", "jrho_v", "jrho_r", "db_g", "db_a"):
            _frozen(self, name, 3)

    def as_vector(self) -> NDArray:
        return np.concatenate([self.phi, self.jrho_v, self.jrho_r, self.db_g, self.db_a])

    @staticmethod
    def from_vector(x: NDArray, convention: Convention) -> "ErrorState15":
        x = np.asarray(x, dtype=float).reshape(15)
        return ErrorState15(x[0:3], x[3:6], x[6:9], x[9:12], x[12:15], convention)

    @staticmethod
    def zero(convention: Convention) -> "ErrorState15":
        z = np.zeros(3)
        return ErrorState15(z, z, z, z, z, convention)


def error_state(
    conv: Convention,
    xhat: GroupElement,
    x: GroupElement,
    db_g: NDArray | None = None,
    db_a: NDArray | None = None,
) -> ErrorState15:
    """Exact invariant error state between an estimate and a true state.

    The group part is the logarithm of the error element of the chosen
    convention, ``se23_log(Xhat X^-1)`` (right) or ``se23_log(Xhat^-1 X)``
    (left); the right convention's attitude component carries the feedback
    sign (``C = exp(phi^) Chat``), the negated ``phi`` of that logarithm.
    Bias errors default to zero.  The states' frames
    must agree (the one frame rule of :func:`~eqnav.liegroup.compose`).

    This wraps the array core :func:`_error_vector`, with its bits: the
    error element and its logarithm are formed unchecked, and the one
    check is :class:`ErrorState15`'s, on the result.
    """
    _resolve_frame(xhat.frame, x.frame)
    db_g = np.zeros(3) if db_g is None else np.asarray(db_g, dtype=float).reshape(3)
    db_a = np.zeros(3) if db_a is None else np.asarray(db_a, dtype=float).reshape(3)
    vec = _error_vector(conv, (xhat.rot, xhat.vel, xhat.pos), (x.rot, x.vel, x.pos), db_g, db_a)
    return ErrorState15.from_vector(vec, conv)


def _error_vector(conv: Convention, xhat, x, db_g: NDArray, db_a: NDArray) -> NDArray:
    """The 15-vector of :func:`error_state` between two states' arrays.

    ``xhat`` and ``x`` are ``(rot, vel, pos)`` triples, ``db_g`` and
    ``db_a`` 3-vectors.  The error element, ``Xhat X^-1`` (right) or
    ``Xhat^-1 X`` (left), is formed by :func:`~eqnav.liegroup.compose`'s
    and :func:`~eqnav.liegroup.inverse`'s arithmetic and its logarithm by
    :func:`~eqnav.liegroup.se23_log`'s, with their bits, and nothing is
    checked: the caller decides the result once.  The right convention
    negates ``phi``.
    """
    right = conv is Convention.RIGHT_INVARIANT
    phi, rho_v, rho_r = _log(*(_product(xhat, _inverted(*x)) if right
                               else _product(_inverted(*xhat), x)))
    return np.concatenate([-phi if right else phi, rho_v, rho_r, db_g, db_a])


def apply_feedback(
    conv: Convention,
    xhat: GroupElement,
    dx: ErrorState15,
    bg: NDArray,
    ba: NDArray,
) -> tuple[GroupElement, NDArray, NDArray]:
    """Correct a state estimate with an estimated error state.

    Uses the exact group retraction by the exponential that inverts
    :func:`error_state`: right convention ``X = se23_exp(xi)^-1 Xhat`` with
    ``xi = (-phi, rho_v, rho_r)``, left convention ``X = Xhat se23_exp(xi)``
    with ``xi = (phi, rho_v, rho_r)`` (``rho_v``, ``rho_r`` the fields
    ``dx.jrho_v``, ``dx.jrho_r``).  To first order the right form reduces
    to the additive corrections ``C = exp(phi^) Chat``,
    ``v = vhat - rho_v - vhat x phi``, ``r = rhat - rho_r - rhat x phi``.
    Biases update as ``b, bg + dx.db_g``.

    This wraps the array core :func:`_retract`, with its bits: the
    exponential and its inverse are formed unchecked, and the one check is
    :class:`~eqnav.liegroup.GroupElement`'s, on the corrected state.  An
    attitude correction too large for the exponential
    (:func:`_retractable`) raises ``ValueError`` naming it.
    """
    if dx.convention is not conv:
        raise ValueError(
            f"error state convention {dx.convention} does not match {conv}"
        )
    phi = dx.phi.tolist()
    if not _retractable(phi):
        raise ValueError(f"correction ErrorState15.phi has an entry of magnitude "
                         f"{max(map(abs, phi)):.3e}, too large for the exponential to square")
    corrected = GroupElement(*_retract(conv, xhat.rot, xhat.vel, xhat.pos, dx.as_vector()),
                             xhat.frame)
    return corrected, np.asarray(bg) + dx.db_g, np.asarray(ba) + dx.db_a


def _retractable(phi: list[float]) -> bool:
    """Whether the retraction's exponential takes the finite attitude
    correction ``phi`` (3 floats): every entry below ``2**511`` in
    magnitude, so its squared norm and the square of its hat are finite
    (the rule of the walk's body rotations)."""
    return max(map(abs, phi)) < _SQUARE_CAP


def _retract(conv: Convention, rot: NDArray, vel: NDArray, pos: NDArray, dx: NDArray):
    """:func:`apply_feedback`'s group retraction on arrays: the state
    ``(rot, vel, pos)`` corrected by the 15-vector ``dx`` (its bias part is
    not read), as a ``(rot, vel, pos)`` triple.

    The exponential of the correction, with ``phi`` negated for the right
    convention, its inverse and the product are formed by
    :func:`~eqnav.liegroup.se23_exp`'s, :func:`~eqnav.liegroup.inverse`'s
    and :func:`~eqnav.liegroup.compose`'s arithmetic, with their bits, and
    nothing is checked: the caller decides the correction first
    (:func:`_retractable`) and the result once (``update_gnss`` with
    ``GroupElement``'s decision).
    """
    if conv is Convention.RIGHT_INVARIANT:
        return _product(_inverted(*_exp(-dx[0:3], dx[3:6], dx[6:9])), (rot, vel, pos))
    return _product((rot, vel, pos), _exp(dx[0:3], dx[3:6], dx[6:9]))


def f_matrix(
    conv: Convention,
    xhat: GroupElement,
    imu: ImuSample,
    earth: EarthModel,
) -> NDArray:
    """Continuous-time error dynamics matrix F (15x15), ECEF_IB frame.

    ``imu`` must carry bias-corrected body rates.  The left-invariant F
    depends only on those rates; the right-invariant F depends on the state
    estimate through its rotation, velocity, position and the gravitation
    evaluated at the estimated position, plus the constant earth rate.
    """
    _resolve_frame(xhat.frame, FrameTag.ECEF_IB)
    f = np.zeros((15, 15))
    eye = np.eye(3)
    if conv is Convention.RIGHT_INVARIANT:
        w_x = hat(earth.omega_vec)
        g_x = hat(earth.gravitation_ecef(xhat.pos))
        c = xhat.rot
        f[0:3, 0:3] = -w_x
        f[0:3, 9:12] = -c
        f[3:6, 0:3] = -g_x
        f[3:6, 3:6] = -w_x
        f[3:6, 9:12] = hat(xhat.vel) @ c
        f[3:6, 12:15] = c
        f[6:9, 3:6] = eye
        f[6:9, 6:9] = -w_x
        f[6:9, 9:12] = hat(xhat.pos) @ c
    else:
        w_x = hat(imu.gyro)
        f[0:3, 0:3] = -w_x
        f[0:3, 9:12] = -eye
        f[3:6, 0:3] = -hat(imu.accel)
        f[3:6, 3:6] = -w_x
        f[3:6, 12:15] = -eye
        f[6:9, 3:6] = eye
        f[6:9, 6:9] = -w_x
    return f


# the left form of G, the same at every state
_G_LEFT = np.zeros((15, 12))
_G_LEFT[0:3, 0:3] = _G_LEFT[3:6, 3:6] = -_EYE3
_G_LEFT[9:12, 6:9] = _G_LEFT[12:15, 9:12] = _EYE3
_G_LEFT.setflags(write=False)


def g_matrix(conv: Convention, xhat: GroupElement) -> NDArray:
    """Noise input matrix G (15x12) for noise vector (w_g, w_a, w_bg, w_ba).

    The left form is constant; the right form is rotated into the world
    frame by the estimated attitude (see :func:`_g_right`, its array core,
    which :func:`~eqnav.filter.run` applies to a window's states at once).
    Bias random walks enter through identity rows in both conventions.
    """
    _resolve_frame(xhat.frame, FrameTag.ECEF_IB)
    if conv is Convention.LEFT_INVARIANT:
        return _G_LEFT.copy()
    return _g_right(xhat.rot[None], xhat.vel[None], xhat.pos[None])[0]


def _g_right(rot, vel, pos) -> NDArray:
    """Right form of G at each of a stack of states, shape (N, 15, 12).

    ``rot`` (N, 3, 3), ``vel`` and ``pos`` (N, 3) are the states' columns;
    each matrix is formed by the same floating-point operations as for a
    stack of one.
    """
    rows = len(rot)
    g = np.zeros((rows, 15, 12))
    g[:, 9:15] = _G_LEFT[9:15]  # the bias rows, the same in both conventions
    g[:, 0:3, 0:3] = -rot
    g[:, 3:6, 3:6] = rot
    # v^ C and r^ C
    cross = _hats(np.concatenate([vel, pos])).reshape(2, rows, 3, 3).swapaxes(0, 1) @ rot[:, None]
    g[:, 3:9, 0:3] = cross.reshape(rows, 6, 3)
    return g


def h_matrix(conv: Convention, xhat: GroupElement, lever: LeverArm) -> NDArray:
    """Measurement Jacobian H (3x15) of a GNSS antenna-position fix.

    The innovation convention is ``z = y - (rhat + Chat l_b)`` (measured
    minus predicted).  Right convention:
    ``H = [-(rhat + Chat l_b)^, 0, -I, 0, 0]``; left convention:
    ``H = [-Chat l_b^, 0, Chat, 0, 0]``.
    """
    _resolve_frame(xhat.frame, FrameTag.ECEF_IB)
    h = np.zeros((3, 15))
    if conv is Convention.RIGHT_INVARIANT:
        h[:, 0:3] = -hat(xhat.pos + xhat.rot.dot(lever.l_b))
        h[:, 6:9] = -np.eye(3)
    else:
        h[:, 0:3] = -xhat.rot.dot(hat(lever.l_b))
        h[:, 6:9] = xhat.rot
    return h
