"""Analytic discrete-time state transition matrices built from Gamma blocks.

For the left-invariant error the dynamics matrix is constant over a sample
interval, and the transition matrix ``Phi = expm(F dt)`` has a closed form
in the Gamma functions of the body rates, plus two integrals ``Psi_1`` and
``Psi_2`` that couple specific force into the velocity and position rows.

For the right-invariant error the estimated rotation evolves inside the
interval; the blocks below freeze the estimated velocity, position and
gravitation at the start of the interval, keep the attitude evolution in
closed Gamma form, and evaluate the two non-collapsible cross integrals by
quadrature.

Both quadratures (``Psi_1``/``Psi_2`` and the right-invariant cross
integrals) use one fixed 12-node Gauss-Legendre rule.  Their integrands are
smooth in the rotation angle swept over the interval; up to one full turn
(2 pi rad) the rule is accurate to near roundoff, and larger rotations per
interval are rejected with ``ValueError``.

Both matrices have exact identity bias rows and exactly zero blocks where
the structure demands them, and satisfy ``Phi -> I`` as ``dt -> 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.integrate import simpson

from .errordyn import Convention, NoiseParams
from .kinematics import EarthModel, ImuSample
from .liegroup import FrameMismatch, FrameTag, GroupElement, gamma, gamma_stack, hat

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
        m = np.array(self.matrix, dtype=float).reshape(15, 15)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def block(self, i: int, j: int) -> NDArray:
        """3x3 block at grid row/column (0-based)."""
        return self.matrix[3 * i : 3 * i + 3, 3 * j : 3 * j + 3]


@dataclass(frozen=True)
class PsiIntegrals:
    """Specific-force coupling integrals of the left transition matrix."""

    psi1: NDArray
    psi2: NDArray


# --- quadrature ---------------------------------------------------------------

# Largest rotation (rad) the integrands may sweep over one interval.
MAX_INTERVAL_ROTATION = 2.0 * math.pi

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _gl_rule(dt: float, rotation: float, name: str) -> tuple[NDArray, NDArray]:
    """12-point Gauss-Legendre nodes and weights on [0, dt].

    ``rotation`` is the largest angle the integrands turn through over the
    interval; beyond :data:`MAX_INTERVAL_ROTATION` (or if it is not finite)
    the fixed rule no longer resolves them and ``ValueError`` is raised.
    """
    if not rotation <= MAX_INTERVAL_ROTATION:
        raise ValueError(
            f"{name}: rotation {rotation:.6g} rad over dt={dt} s exceeds "
            f"{MAX_INTERVAL_ROTATION:.6g} rad (one turn) per interval"
        )
    return 0.5 * dt * (_GL_NODES + 1.0), 0.5 * dt * _GL_WEIGHTS


def _hat_stack(vecs: NDArray) -> NDArray:
    """Stack of hat matrices for an (N, 3) array of vectors."""
    n = vecs.shape[0]
    out = np.zeros((n, 3, 3))
    out[:, 0, 1] = -vecs[:, 2]
    out[:, 0, 2] = vecs[:, 1]
    out[:, 1, 0] = vecs[:, 2]
    out[:, 1, 2] = -vecs[:, 0]
    out[:, 2, 0] = -vecs[:, 1]
    out[:, 2, 1] = vecs[:, 0]
    return out


def psi_integrals(omega: NDArray, f: NDArray, dt: float) -> PsiIntegrals:
    """Specific-force coupling integrals of the left transition matrix.

    ``Psi_1 = int_0^dt (Gamma_0(w s) f)^ Gamma_1(w s) s ds`` and
    ``Psi_2 = int_0^dt Psi_1(s) ds``, the latter computed as the
    equivalent single integral with weight ``(dt - s)``, both by the fixed
    12-node Gauss-Legendre rule.

    Raises
    ------
    ValueError
        If ``dt <= 0``, or if the rotation ``|w| dt`` over the interval
        exceeds :data:`MAX_INTERVAL_ROTATION` (one turn).
    """
    if dt <= 0.0:
        raise ValueError("psi_integrals requires dt > 0")
    omega = np.asarray(omega, dtype=float)
    f = np.asarray(f, dtype=float)
    s, w = _gl_rule(dt, float(np.linalg.norm(omega)) * dt, "psi_integrals")

    g0 = gamma_stack(0, omega, s)
    g1 = gamma_stack(1, omega, s)
    rotated_f = _hat_stack(np.einsum("nij,j->ni", g0, f))
    base = np.einsum("nij,njk->nik", rotated_f, g1) * s[:, None, None]
    psi1 = np.einsum("n,nij->ij", w, base)
    psi2 = np.einsum("n,nij->ij", w, (dt - s)[:, None, None] * base)
    return PsiIntegrals(psi1, psi2)


# --- transition matrices -----------------------------------------------------


def phi_left(imu: ImuSample, dt: float) -> TransitionBlocks:
    """Analytic left-invariant transition matrix over one sample interval.

    Depends only on the (bias-corrected) gyro and accelerometer readings and
    the interval length, never on the state estimate.  Exact solution of
    ``dPhi/dt = F_l Phi`` for the constant left-invariant F.
    """
    if dt <= 0.0:
        raise ValueError("phi_left requires dt > 0")
    theta = imu.gyro * dt
    g0t = gamma(0, theta).T
    g1 = gamma(1, theta)
    g2 = gamma(2, theta)
    psi = psi_integrals(imu.gyro, imu.accel, dt)

    m = np.eye(15)
    m[0:3, 0:3] = g0t
    m[3:6, 3:6] = g0t
    m[6:9, 6:9] = g0t
    m[0:3, 9:12] = -g0t @ g1 * dt
    m[3:6, 0:3] = -g0t @ hat(g1 @ imu.accel) * dt
    m[3:6, 9:12] = g0t @ psi.psi1
    m[3:6, 12:15] = -g0t @ g1 * dt
    m[6:9, 0:3] = -g0t @ hat(g2 @ imu.accel) * dt * dt
    m[6:9, 3:6] = g0t * dt
    m[6:9, 9:12] = g0t @ psi.psi2
    m[6:9, 12:15] = -g0t @ g2 * dt * dt
    return TransitionBlocks(m, Convention.LEFT_INVARIANT, dt)


def phi_right(
    xhat: GroupElement,
    imu: ImuSample,
    earth: EarthModel,
    dt: float,
) -> TransitionBlocks:
    """Analytic right-invariant transition matrix over one sample interval.

    Freezes the estimated velocity, position and gravitation at the start of
    the interval; the estimated attitude evolves as
    ``Chat(s) = Gamma_0(-w_ie s) Chat_0 Gamma_0(w_b s)`` inside the
    derivation, which keeps every block in closed Gamma form except the two
    bias cross couplings, evaluated by quadrature.  At a stationary state
    the result coincides with ``expm(F_r dt)`` for the frozen F.
    """
    if dt <= 0.0:
        raise ValueError("phi_right requires dt > 0")
    if xhat.frame is not None and xhat.frame != FrameTag.ECEF_IB:
        raise FrameMismatch(f"phi_right requires ECEF_IB state, got {xhat.frame.name}")

    w_e = earth.omega_vec
    theta_e = w_e * dt
    theta_b = imu.gyro * dt
    c0 = xhat.rot
    grav = earth.gravitation_ecef(xhat.pos)
    e = gamma(0, theta_e).T  # transposed earth-rotation increment

    g1_b = gamma(1, theta_b)
    g2_b = gamma(2, theta_b)
    rotation = (float(np.linalg.norm(imu.gyro)) + earth.omega_ie) * dt
    s, w = _gl_rule(dt, rotation, "phi_right")

    g0_es = gamma_stack(0, w_e, s)
    g0_bs = gamma_stack(0, imu.gyro, s)
    g1_bs = gamma_stack(1, imu.gyro, s)
    grav_x = _hat_stack(np.einsum("nij,j->ni", g0_es, grav))
    vel_x = _hat_stack(np.einsum("nij,j->ni", g0_es, xhat.vel))
    pos_x = _hat_stack(np.einsum("nij,j->ni", g0_es, xhat.pos))
    kappa = np.einsum("nij,jk,nkl->nil", grav_x, c0, g1_bs) * s[:, None, None]
    kappa += np.einsum("nij,jk,nkl->nil", vel_x, c0, g0_bs)
    pos_term = np.einsum("nij,jk,nkl->nil", pos_x, c0, g0_bs)
    q24 = np.einsum("n,nij->ij", w, kappa)
    q34 = np.einsum("n,nij->ij", w, (dt - s)[:, None, None] * kappa + pos_term)

    m = np.eye(15)
    m[0:3, 0:3] = e
    m[3:6, 3:6] = e
    m[6:9, 6:9] = e
    m[6:9, 3:6] = e * dt
    m[0:3, 9:12] = -e @ c0 @ g1_b * dt
    m[3:6, 12:15] = e @ c0 @ g1_b * dt
    m[6:9, 12:15] = e @ c0 @ g2_b * dt * dt
    m[3:6, 0:3] = -e @ hat(gamma(1, theta_e) @ grav) * dt
    m[6:9, 0:3] = -e @ hat(gamma(2, theta_e) @ grav) * dt * dt
    m[3:6, 9:12] = e @ q24
    m[6:9, 9:12] = e @ q34
    return TransitionBlocks(m, Convention.RIGHT_INVARIANT, dt)


def qd_matrix(
    phi: TransitionBlocks | NDArray,
    g: NDArray,
    noise: NoiseParams,
    dt: float,
) -> NDArray:
    """Trapezoidal discrete process noise 0.5 (Phi Gc Phi^T + Gc) dt.

    ``Gc = G Qc G^T`` with the continuous PSDs of ``noise``.  The result is
    symmetrized, hence positive semidefinite up to roundoff.
    """
    if dt <= 0.0:
        raise ValueError("qd_matrix requires dt > 0")
    phi_m = phi.matrix if isinstance(phi, TransitionBlocks) else np.asarray(phi)
    gc = g @ noise.qc_matrix() @ g.T
    qd = 0.5 * dt * (phi_m @ gc @ phi_m.T + gc)
    return 0.5 * (qd + qd.T)


@dataclass(frozen=True)
class GammaIntegralsReport:
    """Residuals of the closed-form Gamma integral identities vs quadrature."""

    single: float
    double: float
    triple: float

    @property
    def max_residual(self) -> float:
        return max(self.single, self.double, self.triple)


def gamma_integrals_check(
    omega: NDArray, dt: float, points: int = 4001
) -> GammaIntegralsReport:
    """Check the nested integral identities of the exponential map.

    Compares ``int Gamma_0(w s) ds = Gamma_1(w dt) dt`` and its double and
    triple nested versions against composite Simpson quadrature on
    ``points`` samples.
    """
    if dt <= 0.0:
        raise ValueError("gamma_integrals_check requires dt > 0")
    omega = np.asarray(omega, dtype=float)
    s = np.linspace(0.0, dt, points)
    g0 = gamma_stack(0, omega, s)
    g1s = gamma_stack(1, omega, s) * s[:, None, None]
    g2s2 = gamma_stack(2, omega, s) * (s * s)[:, None, None]

    i1 = simpson(g0, x=s, axis=0)
    i2 = simpson(g1s, x=s, axis=0)
    i3 = simpson(g2s2, x=s, axis=0)

    theta = omega * dt
    r1 = float(np.max(np.abs(i1 - gamma(1, theta) * dt)))
    r2 = float(np.max(np.abs(i2 - gamma(2, theta) * dt * dt)))
    r3 = float(np.max(np.abs(i3 - gamma(3, theta) * dt**3)))
    return GammaIntegralsReport(r1, r2, r3)
