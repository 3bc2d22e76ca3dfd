"""Independent numeric oracles for the test suite.

Everything here is deliberately brute force (truncated series, dense
matrix exponentials, Runge-Kutta, composite quadrature, one time at a
time) and stays independent of the production code paths it checks.  The
Gamma power series is the one ``eqnav verify`` uses, re-exported from there.
The matmul forms at the end are the filter's per-epoch and per-fix
arithmetic written with ``@``, against which its ``ndarray.dot`` forms are
pinned bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from eqnav.kinematics import EarthModel
from eqnav.liegroup import GroupElement, hat
from eqnav.verify import gamma_series  # noqa: F401  (re-exported)


def expm_series(a: np.ndarray, terms: int = 40) -> np.ndarray:
    """Dense matrix exponential by the plain Taylor series."""
    acc = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for n in range(1, terms):
        term = term @ a / n
        acc = acc + term
    return acc


def gamma1_derivative(phi: np.ndarray, dphi: np.ndarray, terms: int = 30) -> np.ndarray:
    """Derivative of Gamma_1(phi) = sum_n (phi^)^n / (n+1)! along ``dphi``,
    term by term: the derivative of (phi^)^n is the sum over k of
    (phi^)^k dphi^ (phi^)^(n-1-k), formed by the recurrence
    T_{n+1} = phi^ T_n + dphi^ (phi^)^n."""
    p, d = hat(phi), hat(dphi)
    acc = np.zeros((3, 3))
    t_n, p_n = d, p  # T_1 and (phi^)^1
    for n in range(1, terms):
        acc = acc + t_n / math.factorial(n + 1)
        t_n, p_n = p @ t_n + d @ p_n, p_n @ p
    return acc


def rk4_fixed(f, y0: np.ndarray, t0: float, dt: float, substeps: int) -> np.ndarray:
    """Classic RK4 for dy/dt = f(t, y) on dense arrays."""
    y = y0
    h = dt / substeps
    t = t0
    for _ in range(substeps):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


def mech_deriv_ecef_ib(earth: EarthModel, x5: np.ndarray, omega_b, f_b) -> np.ndarray:
    """Exact 5x5 derivative of the transformed ECEF mechanization."""
    w = earth.omega_vec
    rot = x5[0:3, 0:3]
    vel = x5[0:3, 3]
    pos = x5[0:3, 4]
    m = np.zeros((5, 5))
    m[0:3, 0:3] = rot @ hat(omega_b) - hat(w) @ rot
    m[0:3, 3] = -np.cross(w, vel) + rot @ np.asarray(f_b) + earth.gravitation_ecef(pos)
    m[0:3, 4] = -np.cross(w, pos) + vel
    return m


def mech_deriv_ecef_eb(earth: EarthModel, x5: np.ndarray, omega_b, f_b) -> np.ndarray:
    """Exact 5x5 derivative of the earth-relative ECEF mechanization."""
    w = earth.omega_vec
    rot = x5[0:3, 0:3]
    vel = x5[0:3, 3]
    pos = x5[0:3, 4]
    m = np.zeros((5, 5))
    m[0:3, 0:3] = rot @ hat(omega_b) - hat(w) @ rot
    m[0:3, 3] = -2.0 * np.cross(w, vel) + rot @ np.asarray(f_b) + earth.gravity_ecef(pos)
    m[0:3, 4] = vel
    return m


def surface_state(earth: EarthModel, lat_deg=45.0, lon_deg=7.0, height=400.0,
                  v_ned=(30.0, 5.0, -1.0)):
    """Physically sensible ECEF attitude/velocity/position near the surface."""
    lat, lon = math.radians(lat_deg), math.radians(lon_deg)
    r0 = earth.geodetic_to_ecef(lat, lon, height)
    c = earth.ned_rotation(lat, lon)
    v_eb = c @ np.asarray(v_ned, dtype=float)
    return c, v_eb, r0


def random_rotation(rng, max_angle=math.pi - 0.2) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, max_angle)
    from eqnav.liegroup import so3_exp

    return so3_exp(angle * axis)


def random_element(rng, vel=10.0, pos=100.0, frame=None) -> GroupElement:
    return GroupElement(
        random_rotation(rng), rng.uniform(-vel, vel, 3), rng.uniform(-pos, pos, 3), frame
    )


def profile_sample(spec, earth: EarthModel, t: float):
    """Truth state and exact IMU of a ``TrajectorySpec`` profile at time t.

    The per-sample closed forms, one time and one 3-vector at a time:
    returns ``(rot, v_ib, r_eb, omega_b, f_b)``.
    """
    lat, lon = math.radians(spec.lat_deg), math.radians(spec.lon_deg)
    r0 = earth.geodetic_to_ecef(lat, lon, spec.height)
    c_ne = earth.ned_rotation(lat, lon)
    w = earth.omega_vec
    k, v = spec.turn_rate, spec.speed
    if spec.profile == "static":
        p = dp = ddp = np.zeros(3)
        psi, dpsi = 0.0, 0.0
    elif spec.profile == "constant-turn":
        radius = v / k
        p = np.array([radius * math.sin(k * t), radius * (1 - math.cos(k * t)), 0.0])
        dp = np.array([v * math.cos(k * t), v * math.sin(k * t), 0.0])
        ddp = np.array([-v * k * math.sin(k * t), v * k * math.cos(k * t), 0.0])
        psi, dpsi = k * t, k
    else:
        a = v / k
        b = 0.5 * a
        p = np.array([a * math.sin(k * t), b * math.sin(2 * k * t), 0.0])
        dp = np.array([a * k * math.cos(k * t), 2 * b * k * math.cos(2 * k * t), 0.0])
        ddp = np.array(
            [-a * k * k * math.sin(k * t), -4 * b * k * k * math.sin(2 * k * t), 0.0]
        )
        psi = math.atan2(dp[1], dp[0])
        dpsi = (ddp[1] * dp[0] - ddp[0] * dp[1]) / (dp[0] ** 2 + dp[1] ** 2)
    c, s = math.cos(psi), math.sin(psi)
    rot = c_ne @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    r_eb = r0 + c_ne @ p
    v_eb = c_ne @ dp
    v_ib = v_eb + np.cross(w, r_eb)
    dv_ib = c_ne @ ddp + np.cross(w, v_eb)
    omega_b = np.array([0.0, 0.0, dpsi]) + rot.T @ w
    f_b = rot.T @ (dv_ib + np.cross(w, v_ib) - earth.gravitation_ecef(r_eb))
    return rot, v_ib, r_eb, omega_b, f_b


# --- The per-epoch and per-fix products written with matmul ---------------
#
# The propagation and the GNSS update form their 2-D products with
# ndarray.dot, which calls the BLAS routine matmul calls; these are the same
# operations, in the same order, with ``@``.


def covariance_recursion(p: np.ndarray, phis: np.ndarray, halves: np.ndarray) -> np.ndarray:
    """The covariances (N, 15, 15) of ``P <- Phi (P + H) Phi^T + H``,
    symmetrized, from ``p`` over each (Phi, H) of the stacks."""
    out = []
    for phi, h in zip(phis, halves):
        q = phi @ (p + h) @ phi.T + h
        p = 0.5 * (q + q.T)
        out.append(p)
    return np.array(out)


def rotation_recursion(rot: np.ndarray, g0: np.ndarray, dev: np.ndarray) -> np.ndarray:
    """The rotations (N + 1, 3, 3) of ``R <- R g0_k + dev_k (R g0_k)`` from ``rot``."""
    out = [rot]
    for g, d in zip(g0, dev):
        r = out[-1] @ g
        out.append(r + d @ r)
    return np.array(out)


def flow_step(rot, vel, pos, dv, w2, dt, g0, w2_blocks):
    """``kinematics._flow``: the state (rot, vel, pos) advanced by
    ``X exp(W1 dt)`` (body increment ``dv``, rotation ``g0``) and then
    ``exp(W2 dt)`` (blocks ``Gamma_0 - I``, ``Gamma_1`` of its rate)."""
    vel = rot @ dv + vel
    dev2, j2 = w2_blocks[0], w2_blocks[1]
    vel_new = vel + (dev2 @ vel + j2 @ (w2[1] * dt))
    pos_new = pos + (dev2 @ pos + j2 @ (w2[2] * dt))
    rot = rot @ g0
    return rot + dev2 @ rot, vel_new, pos_new


def gnss_update(right: bool, rot, pos, p, fix_pos, fix_cov, l_b):
    """A GNSS antenna-position fix at the state (rot, pos) with covariance
    ``p``: the Jacobian of the right (``right``) or left convention, the
    innovation z, the gain from one solve against ``[H P | z]``, the Joseph
    form, symmetrized.  Returns ``(z, dx, P, nis)``."""
    h = np.zeros((3, 15))
    if right:
        h[:, 0:3] = -hat(pos + rot @ l_b)
        h[:, 6:9] = -np.eye(3)
    else:
        h[:, 0:3] = -rot @ hat(l_b)
        h[:, 6:9] = rot
    z = fix_pos - (pos + rot @ l_b)
    hp = h @ p
    s = hp @ h.T + fix_cov
    sol = np.linalg.solve(0.5 * (s + s.T), np.column_stack([hp, z]))
    k = sol[:, :15].T
    ikh = np.eye(15) - k @ h
    p = ikh @ p @ ikh.T + k @ fix_cov @ k.T
    return z, k @ z, 0.5 * (p + p.T), float(z @ sol[:, 15])
