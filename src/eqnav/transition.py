"""Analytic discrete-time state transition matrices built from Gamma blocks.

For the left-invariant error the dynamics matrix is constant over a sample
interval, and the transition matrix ``Phi = expm(F dt)`` is fully analytic:
Gamma functions of the body rotation, plus two integrals ``Psi_1`` and
``Psi_2`` that couple specific force into the velocity and position rows and
are themselves closed forms (a short Taylor series in |w dt|^2 below 2 rad,
sin/cos of |w dt| and 2|w dt| above); no quadrature is involved.

For the right-invariant error the group block (attitude, velocity,
position) is the closed form of the earth-rate rotation with the
gravitation frozen at the start of the interval.  The right and left errors
of one state are related by the linear map
``M(x) = [[C, 0, 0], [-v^ C, -C, 0], [-r^ C, 0, -C]]``, so the bias columns
are the left ones mapped into right coordinates at the end of the interval,
``M(x1) Phi_l[0:9, 9:15]``, with ``x1`` the state after the mean step.  They
are as analytic as the left matrix and freeze no velocity or position.

Both matrices reject a body rotation of more than one turn per interval
with ``ValueError``, have exact identity bias rows and exactly zero blocks
where the structure demands them, and satisfy ``Phi -> I`` as ``dt -> 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errordyn import Convention, NoiseParams
from .kinematics import EarthModel, ImuSample, _StepError, _gravitation, _rotations, _walk
from .liegroup import (
    _EYE3,
    _frozen,
    _gamma_pass,
    _hats,
    FrameTag,
    GroupElement,
    gamma,
    gamma_blocks,
    gamma_coefficients,
)

__all__ = [
    "GammaIntegralsReport",
    "PsiIntegrals",
    "TransitionBlocks",
    "gamma_integrals_check",
    "phi_left",
    "phi_right",
    "psi_integrals",
    "qd_matrix",
]


@dataclass(frozen=True)
class TransitionBlocks:
    """15x15 discrete transition matrix viewed as a 5x5 grid of 3x3 blocks."""

    matrix: NDArray
    convention: Convention
    dt: float

    def __post_init__(self):
        _frozen(self, "matrix", (15, 15))

    def block(self, i: int, j: int) -> NDArray:
        """3x3 block at grid row/column (0-based)."""
        return self.matrix[3 * i : 3 * i + 3, 3 * j : 3 * j + 3]


@dataclass(frozen=True)
class PsiIntegrals:
    """Specific-force coupling integrals of the left transition matrix."""

    psi1: NDArray
    psi2: NDArray


# --- specific-force integrals -----------------------------------------------
#
# With Theta = (w dt)^, x = |w| dt and F = f^, the identities
# (Gamma_0 f)^ = Gamma_0 F Gamma_0^T and Gamma_0^T(w s) Gamma_1(w s) =
# Gamma_1(-w s) turn the integrand of Psi_1 into exp(sW) F int_0^s exp(-uW) du
# (W = w^).  Expanding exp(sW) = I + c_1 sW + c_2 (sW)^2 and
# int_0^s exp(-uW) du = s (I - c_2 sW + c_3 (sW)^2), with every c_j at |w| s,
# gives
#
#     Psi_1 = dt^2 sum_{a,b=0..2} h1_ab(x) Theta^a F Theta^b,
#     Psi_2 = dt^3 sum_{a,b=0..2} h2_ab(x) Theta^a F Theta^b,
#
#     h1_ab(x) = int_0^1 s^(a+b+1) A_a(x s) B_b(x s) ds,  A = (1, c_1, c_2),
#     h2_ab(x) = int_0^1 (1 - s) s^(a+b+1) A_a(x s) B_b(x s) ds,  B = (1, -c_2, c_3).
#
# Each h is an even entire function of x.  Below _PSI_SERIES_BELOW it is
# evaluated from its Taylor series in x^2 (the Cauchy product of the c_j
# series, integrated term by term); above, from the closed forms of
# _psi_closed_form, polynomials in c_j(x) and c_j(2x) that are exact
# identities at every x and divide by nothing beyond the c_j recurrence.  At
# the switch both branches agree with a 50-digit reference to a few ulp of
# the largest coefficient.

# Largest rotation (rad) the integrands may sweep over one interval.
MAX_INTERVAL_ROTATION = 2.0 * math.pi

_PSI_SERIES_BELOW = 2.0
_PSI_SERIES_TERMS = 14


def _psi_series() -> NDArray:
    """Taylor coefficients of (h1, h2) in x^2, shape (18, _PSI_SERIES_TERMS)."""
    n = _PSI_SERIES_TERMS

    def c_series(j: int, sign: int = 1) -> list[float]:
        return [sign * (-1) ** k / math.factorial(2 * k + j) for k in range(n)]

    # every term of a Cauchy product below has the sign (-1)^k of its
    # order, so the float sums carry no cancellation
    one = [1.0] + [0.0] * (n - 1)
    a_factors = (one, c_series(1), c_series(2))
    b_factors = (one, c_series(2, -1), c_series(3))
    out = np.empty((2, 3, 3, n))
    for a, fa in enumerate(a_factors):
        for b, fb in enumerate(b_factors):
            for k in range(n):
                p = sum(fa[i] * fb[k - i] for i in range(k + 1))
                e = 2 * k + a + b + 2  # int_0^1 s^(e-1) ds = 1/e
                out[0, a, b, k] = p / e
                out[1, a, b, k] = p / (e * (e + 1))
    return out.reshape(18, n)


_PSI_SERIES = _psi_series()
_PSI_POWERS = np.arange(_PSI_SERIES_TERMS)


def _psi_closed_form(x2: float, x: float) -> NDArray:
    """(h1, h2) at x >= _PSI_SERIES_BELOW from c_j(x) and c_j(2x), shape (2, 3, 3)."""
    c2, c3, c4, c5 = gamma_coefficients(2, 5, x2, x)
    d4, d5 = gamma_coefficients(4, 5, 4.0 * x2, 2.0 * x)  # d_j = c_j(2x)
    # two more steps of c_j = (1/(j-2)! - c_{j-2}) / x^2, at x and 2x
    c6, c7 = (1.0 / 24.0 - c4) / x2, (1.0 / 120.0 - c5) / x2
    d6, d7 = (1.0 / 24.0 - d4) / (4.0 * x2), (1.0 / 120.0 - d5) / (4.0 * x2)
    return np.array(
        [
            [
                [0.5, -c3, c4],
                [c2 - c3, -0.5 * c2 * c2, c5 - c4 + 8.0 * d5],
                [c3 - c4, 2.0 * (c5 - 4.0 * d5), 0.5 * c3 * c3],
            ],
            [
                [1.0 / 6.0, -c4, c5],
                [c3 - 2.0 * c4, c5 - 4.0 * d5, 2.0 * c6 - c5 + 8.0 * d6],
                [c4 - 2.0 * c5, 2.0 * (c6 - 4.0 * d6), c7 - c6 + 16.0 * d7],
            ],
        ]
    )


def psi_integrals(omega: NDArray, f: NDArray, dt: float) -> PsiIntegrals:
    """Specific-force coupling integrals of the left transition matrix.

    ``Psi_1 = int_0^dt (Gamma_0(w s) f)^ Gamma_1(w s) s ds`` and
    ``Psi_2 = int_0^dt Psi_1(s) ds = int_0^dt (dt - s) (...) ds``, both in
    closed form: ``sum_{a,b} h_ab(|w| dt) Theta^a f^ Theta^b`` with
    ``Theta = (w dt)^`` and scalar coefficients from a Taylor series below
    |w| dt = 2 rad and from sin/cos of |w| dt and 2|w| dt above.  No
    quadrature is involved.

    Raises
    ------
    ValueError
        If ``dt <= 0``, if an entry of ``w dt`` is too large to square (the
        overflow decision of the propagation), or if the rotation ``|w| dt``
        over the interval exceeds :data:`MAX_INTERVAL_ROTATION` (one turn).
    """
    if dt <= 0.0:
        raise ValueError("psi_integrals requires dt > 0")
    omega = np.asarray(omega, dtype=float).reshape(1, 3)
    _, powers, x2 = _gamma_pass(_rotations(omega, dt, "body rotation gyro"), 1, (1.0,))
    fx = _hats(np.asarray(f, dtype=float).reshape(1, 3) * (dt * dt))
    psi1, psi2 = _psi(fx, np.array([dt]), powers, x2)[0]
    return PsiIntegrals(psi1, psi2)


def _psi(fx, dt, powers, x2) -> NDArray:
    """Array core of :func:`psi_integrals` for a window of intervals.

    ``fx`` (N, 3, 3) holds the intervals' ``(f dt^2)^`` and ``dt`` (N,)
    their lengths; ``powers`` (N, 3, 3, 3) holds ``[I, Theta, Theta^2]``
    and ``x2`` (N,) ``|w dt|^2``, both from the caller's Gamma pass of
    ``w dt``.
    Returns ``[Psi_1, Psi_2]`` of each interval, shape (N, 2, 3, 3), each by
    the same floating-point operations as for a window of one.  The first
    interval over one turn raises :class:`~eqnav.kinematics._StepError`
    (a ``ValueError``) naming its index.
    """
    rows = len(dt)
    x = np.sqrt(x2)
    xmax = x.max()
    if not xmax <= MAX_INTERVAL_ROTATION:  # also rejects NaN
        k = np.flatnonzero(~(x <= MAX_INTERVAL_ROTATION))[0]
        raise _StepError(
            k, f"psi_integrals: rotation {x[k]:.6g} rad over dt={float(dt[k])} s exceeds "
            f"{MAX_INTERVAL_ROTATION:.6g} rad (one turn) per interval"
        )
    h = (_PSI_SERIES @ (x2[:, None] ** _PSI_POWERS)[:, :, None]).reshape(rows, 6, 3)
    if xmax >= _PSI_SERIES_BELOW:
        for k in np.flatnonzero(x >= _PSI_SERIES_BELOW).tolist():
            h[k] = _psi_closed_form(float(x2[k]), float(x[k])).reshape(6, 3)

    # left[a] = Theta^a F dt^2, right[i, a] = sum_b h_i[a, b] Theta^b
    left = powers @ fx[:, None]
    right = (h @ powers.reshape(rows, 3, 9)).reshape(rows, 2, 9, 3)
    psi = left.transpose(0, 2, 1, 3).reshape(rows, 1, 3, 9) @ right
    psi[:, 1] *= dt[:, None, None]
    return psi


# --- transition matrices -----------------------------------------------------

_BIAS_ROWS = np.eye(15)[9:15]  # the identity bias rows of the left matrix
_BIAS_ROWS.setflags(write=False)
# the constant blocks of _phi_left's inner array
_INNER = np.zeros((3, 3, 15))
_INNER[0, :, 0:3] = _INNER[1, :, 3:6] = _INNER[2, :, 6:9] = _EYE3
_INNER.setflags(write=False)


def phi_left(imu: ImuSample, dt: float) -> TransitionBlocks:
    """Analytic left-invariant transition matrix over one sample interval.

    Depends only on the (bias-corrected) gyro and accelerometer readings and
    the interval length, never on the state estimate.  Exact solution of
    ``dPhi/dt = F_l Phi`` for the constant left-invariant F.
    """
    if dt <= 0.0:
        raise ValueError("phi_left requires dt > 0")
    body = _gamma_pass(_rotations(imu.gyro.reshape(1, 3), dt, "body rotation gyro"), 3, (1.0,))
    g0 = _EYE3 + body[0][:, 0, 0]
    m = _phi_left(imu.accel.reshape(1, 3), np.array([dt]), body, g0)[0]
    return TransitionBlocks(m, Convention.LEFT_INVARIANT, dt)


def _phi_left(accel, dt, body, g0) -> NDArray:
    """Array core of :func:`phi_left`: the matrices of a window of intervals.

    ``accel`` (N, 3) and ``dt`` (N,) are the intervals' specific forces and
    lengths, ``body`` the Gamma pass of their ``gyro * dt`` (see
    :func:`~eqnav.liegroup._gamma_pass`, first scale 1, ``n = 3``), whose
    ``Theta`` and ``Theta^2`` also serve ``Psi_1``/``Psi_2``, and ``g0``
    their ``Gamma_0``, shape (N, 3, 3).  Returns shape (N, 15, 15).  Each 3-row block of the attitude, velocity and position
    rows is ``Gamma_0^T`` times a matrix with no product in it, so those
    nine rows are one batched product.
    """
    rows = len(dt)
    hx, scale = _hatted(accel, dt, body)
    inner = np.empty((rows, 3, 3, 15))
    inner[:] = _INNER
    inner[:, 1:3, :, 0:3] = hx[:, 1:3]
    inner[:, 2, :, 3:6] = _EYE3 * dt[:, None, None]
    _bias_inner(hx[:, 0], dt, body, scale, inner[..., 9:15])
    m = np.empty((rows, 15, 15))
    m[:, 9:15] = _BIAS_ROWS
    np.matmul(g0.swapaxes(1, 2)[:, None], inner, out=m[:, 0:9].reshape(rows, 3, 3, 15))
    return m


def _hatted(accel, dt, body):
    """``(a dt^2)^``, ``(Gamma_1 a (-dt))^`` and ``(Gamma_2 a (-dt^2))^`` of
    each interval, shape (N, 3, 3, 3), and the scales ``[dt^2, -dt,
    -dt^2]``, shape (N, 3, 1)."""
    rows = len(dt)
    scale = np.empty((rows, 3, 1))
    np.multiply(dt, dt, out=scale[:, 0, 0])
    np.negative(dt, out=scale[:, 1, 0])
    np.negative(scale[:, 0, 0], out=scale[:, 2, 0])
    vec = np.empty((rows, 3, 3))
    vec[:, 0] = accel
    vec[:, 1:3] = (body[0][:, 0, 1:3] @ accel[:, None, :, None])[..., 0]
    vec *= scale
    return _hats(vec.reshape(-1, 3)).reshape(rows, 3, 3, 3), scale


def _bias_inner(fx, dt, body, scale, inner) -> None:
    """Fill the bias columns ``inner`` (N, 3, 3, 6) of :func:`_phi_left`'s
    inner array, zero where nothing is written: ``[-Gamma_1 dt, 0]``,
    ``[Psi_1, -Gamma_1 dt]``, ``[Psi_2, -Gamma_2 dt^2]``; ``fx`` and
    ``scale`` are from :func:`_hatted`."""
    blocks, powers, t2 = body
    bias = blocks[:, 0, 1:3] * scale[:, 1:3, :, None]  # -Gamma_1 dt, -Gamma_2 dt^2
    inner[:, 0, :, 0:3] = bias[:, 0]
    inner[:, 1:3, :, 3:6] = bias
    inner[:, 1:3, :, 0:3] = _psi(fx, dt, powers, t2)


def _left_bias(accel, dt, body, g0) -> NDArray:
    """Bias columns ``Phi_l[0:9, 9:15]`` of a window of intervals, shape
    (N, 9, 6); the arguments are :func:`_phi_left`'s."""
    hx, scale = _hatted(accel, dt, body)
    inner = np.zeros((len(dt), 3, 3, 6))
    _bias_inner(hx[:, 0], dt, body, scale, inner)
    return (g0.swapaxes(1, 2)[:, None] @ inner).reshape(len(dt), 9, 6)


def phi_right(
    xhat: GroupElement,
    imu: ImuSample,
    earth: EarthModel,
    dt: float,
) -> TransitionBlocks:
    """Analytic right-invariant transition matrix over one sample interval.

    The group block freezes the gravitation at the start of the interval and
    is the closed form of the earth-rate rotation.  The bias columns are
    those of :func:`phi_left` mapped into right coordinates at the end of the
    interval, ``M(x1) Phi_l[0:9, 9:15]`` with
    ``M = [[C, 0, 0], [-v^ C, -C, 0], [-r^ C, 0, -C]]``, the linear map from
    the left error to the right one; ``x1`` is ``xhat`` advanced by the
    ECEF_IB :func:`~eqnav.kinematics.midpoint_step` under ``imu`` (the step
    :func:`~eqnav.filter.predict` takes).  No velocity or position is
    frozen and no quadrature is involved.  At a stationary state the result
    coincides with ``expm(F_r dt)`` for the frozen F.

    The mean step and the matrix come from the mean walk and the array
    core :func:`~eqnav.filter.run` applies to each window between two fixes
    (where a failure names its epoch), here on a window of one interval.

    Raises
    ------
    FrameMismatch
        If ``xhat`` is tagged with a frame other than ECEF_IB (the walk's
        check).
    ValueError
        If ``dt <= 0``, or if the body rotation ``|w| dt`` over the interval
        exceeds :data:`MAX_INTERVAL_ROTATION` (one turn).
    """
    if dt <= 0.0:
        raise ValueError("phi_right requires dt > 0")
    accel, dts = imu.accel.reshape(1, 3), np.array([dt])
    with np.errstate(over="ignore", invalid="ignore"):  # the walk names its faults
        (body, rate, _, g0), traj = _walk(
            FrameTag.ECEF_IB, xhat, imu.gyro.reshape(1, 3), accel, dts, earth, 3
        )
    m = _phi_right(*traj, earth, dts, rate[:, 0], _left_bias(accel, dts, body, g0))
    return TransitionBlocks(m[0], Convention.RIGHT_INVARIANT, dt)


def _phi_right(rot, vel, pos, earth, dt, rate, left) -> NDArray:
    """Array core of :func:`phi_right`: the matrices of a window of intervals.

    ``rot`` (N + 1, 3, 3), ``vel`` and ``pos`` (N + 1, 3) are the window's
    mean trajectory, the start of each interval and then the end of the
    last (so the end of interval k is row k + 1); ``dt`` (N,) holds the
    intervals' lengths, ``rate`` (N, 3, 3, 3) their
    ``gamma_blocks(-w_ie dt, 3)`` of the earth rate (see
    :func:`~eqnav.kinematics._passes`) and ``left`` (N, 9, 6) their left
    bias columns ``Phi_l[0:9, 9:15]`` (see :func:`_left_bias`).  Returns
    shape (N, 15, 15), each matrix by the same floating-point operations as
    for a window of one.
    """
    rows = len(dt)
    grav = _gravitation(earth, pos[:-1])
    # one hat pass: Gamma_1^T G and Gamma_2^T G of each start (the steps'
    # blocks are of W2's rate -w_ie; Gamma_m(w_ie dt) is their transpose),
    # the velocity and the position of each end
    hx = _hats(np.concatenate([
        (rate[:, 1:3].swapaxes(-1, -2) @ grav[:, None, :, None]).reshape(-1, 3),
        vel[1:], pos[1:],
    ]))
    e = _EYE3 + rate[:, 0]  # transposed earth-rotation increments
    dt3 = dt[:, None, None]
    m = np.zeros((rows, 15, 15))
    m[:, 9:15] = _BIAS_ROWS
    m[:, 0:3, 0:3] = m[:, 3:6, 3:6] = m[:, 6:9, 6:9] = e
    m[:, 6:9, 3:6] = e * dt3
    # -e (Gamma_1^T G)^ dt and -e (Gamma_2^T G)^ dt dt
    coupling = (-e)[:, None] @ hx[: 2 * rows].reshape(rows, 2, 3, 3)
    coupling *= dt3[:, None]
    coupling[:, 1] *= dt3
    m[:, 3:9, 0:3] = coupling.reshape(rows, 6, 3)

    # bias columns: M(x1) times the left ones; conjugating the group block
    # the same way would cancel earth-radius-sized terms
    mapped = rot[1:, None] @ left.reshape(rows, 3, 3, 6)  # C times each 3-row block
    att = mapped[:, 0]
    vx = -hx[2 * rows :].reshape(2, rows, 3, 3).swapaxes(0, 1)  # -v^, -r^
    mapped[:, 1:3] = vx @ att[:, None] - mapped[:, 1:3]
    m[:, 0:9, 9:15] = mapped.reshape(rows, 9, 6)
    return m


def qd_matrix(
    phi: TransitionBlocks | NDArray,
    g: NDArray,
    noise: NoiseParams,
    dt: float | NDArray,
) -> NDArray:
    """Trapezoidal discrete process noise 0.5 (Phi Gc Phi^T + Gc) dt.

    ``Gc = G Qc G^T`` with the continuous PSDs of ``noise``.  The result is
    symmetrized, hence positive semidefinite up to roundoff.  A stack of
    matrices ``phi`` (N, 15, 15) with ``dt`` (N,), and ``g`` either one
    matrix or a stack (N, 15, 12) of one per interval, gives the stack of
    their noises, each equal bit for bit to the noise of its matrices alone.
    """
    dt = np.asarray(dt, dtype=float)  # one interval, or one per matrix of a stack
    if min(dt.ravel().tolist()) <= 0.0:
        raise ValueError("qd_matrix requires dt > 0")
    half = (0.5 * dt)[..., None, None]
    phi_m = np.asarray(getattr(phi, "matrix", phi))  # a TransitionBlocks or its matrix
    gc = (g * noise.qc_diag) @ g.swapaxes(-1, -2)
    qd = half * (phi_m @ gc @ phi_m.swapaxes(-1, -2) + gc)
    return 0.5 * (qd + qd.swapaxes(-1, -2))


@dataclass(frozen=True)
class GammaIntegralsReport:
    """Residuals of the closed-form Gamma integral identities vs quadrature."""

    single: float
    double: float
    triple: float

    @property
    def max_residual(self) -> float:
        return max(self.single, self.double, self.triple)


def _simpson(y: NDArray, dt: float) -> NDArray:
    """Composite Simpson integral over [0, dt] of ``y``, sampled along axis
    0 at an odd number of equally spaced nodes: the sum over node pairs of
    h/3 (y_2i + 4 y_2i+1 + y_2i+2), h the node spacing."""
    h = dt / (len(y) - 1)
    return h / 3.0 * np.sum(y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2], axis=0)


def gamma_integrals_check(
    omega: NDArray, dt: float, points: int = 4001
) -> GammaIntegralsReport:
    """Check the nested integral identities of the exponential map.

    Compares ``int Gamma_0(w s) ds = Gamma_1(w dt) dt`` and its double and
    triple nested versions against composite Simpson quadrature on
    ``points`` (odd) samples of :func:`gamma_blocks`, closed forms from
    :func:`gamma`.
    """
    if dt <= 0.0:
        raise ValueError("gamma_integrals_check requires dt > 0")
    if points < 3 or points % 2 == 0:
        raise ValueError(f"gamma_integrals_check needs an odd number of points >= 3, got {points}")
    omega = np.asarray(omega, dtype=float)
    s = np.linspace(0.0, dt, points)
    nodes = np.array([gamma_blocks(omega * si, 3) for si in s])
    g0 = _EYE3 + nodes[:, 0]
    g1s = nodes[:, 1] * s[:, None, None]
    g2s2 = nodes[:, 2] * (s * s)[:, None, None]

    i1, i2, i3 = (_simpson(g, dt) for g in (g0, g1s, g2s2))

    theta = omega * dt
    r1 = float(np.max(np.abs(i1 - gamma(1, theta) * dt)))
    r2 = float(np.max(np.abs(i2 - gamma(2, theta) * dt * dt)))
    r3 = float(np.max(np.abs(i3 - gamma(3, theta) * dt**3)))
    return GammaIntegralsReport(r1, r2, r3)
