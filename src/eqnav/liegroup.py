"""Core SO(3) / SE2(3) matrix Lie group operations.

SE2(3) is the group of "direct spatial isometries": 5x5 matrices packing a
rotation matrix and two translation columns (here: attitude, velocity and
position of a vehicle).  Elements are kept in the factored form
``(R, v, p)``; the dense 5x5 embedding exists for tests and checks only.

All exponentials, logarithms and Jacobians are expressed through the family
of auxiliary functions ``Gamma_m(phi) = sum_n (phi^)^n / (n+m)!``, where
``Gamma_0`` is the SO(3) exponential (Rodrigues formula) and ``Gamma_1`` the
left Jacobian of SO(3).
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "DegenerateRotationWarning",
    "FrameMismatch",
    "FrameTag",
    "GroupElement",
    "Tangent9",
    "adjoint",
    "compose",
    "gamma",
    "gamma0_deviation",
    "gamma_blocks",
    "gamma_coefficients",
    "hat",
    "identity_element",
    "inverse",
    "is_rotation",
    "se23_exp",
    "se23_log",
    "so3_exp",
    "so3_log",
    "vee",
]

# Small-angle switch of so3_log (and its margin below the half-turn) and of
# the Gamma coefficient c_1 below.
SMALL_ANGLE = 1e-4

_ROTATION_TOL = 1e-9


class DegenerateRotationWarning(RuntimeWarning):
    """Rotation logarithm evaluated on the trace(R) = -1 branch."""


class FrameMismatch(ValueError):
    """Operands tagged with incompatible reference-frame conventions."""


class FrameTag(enum.Enum):
    """Frame convention of a navigation state on SE2(3).

    The tag records both the resolving frame (NED navigation frame or ECEF)
    and whether velocity/position are earth-relative (``EB``) or transformed
    inertial-relative (``IB``) quantities.
    """

    NED_EB = "ned_eb"
    NED_IB = "ned_ib"
    ECEF_EB = "ecef_eb"
    ECEF_IB = "ecef_ib"


def hat(v: NDArray) -> NDArray:
    """Skew-symmetric 3x3 matrix of a 3-vector (cross-product operator)."""
    x, y, z = np.asarray(v, dtype=float).tolist()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _cross(a: NDArray, b: NDArray) -> NDArray:
    """Cross product of 3-vectors or stacks of them (..., 3), with np.cross's bits.

    Each component is one product minus another in np.cross's order, so
    the result is bit for bit np.cross's without its axis handling.  The
    operands are arrays and broadcast; a stacked result is C-contiguous.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    return out if out.ndim == 1 else np.moveaxis(out, 0, -1).copy()


def vee(m: NDArray) -> NDArray:
    """Inverse of :func:`hat` for a (near) skew-symmetric matrix."""
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def is_rotation(mat: NDArray) -> bool:
    """True if ``mat`` is orthonormal with determinant +1 within 1e-9.

    Orthonormality is the Frobenius norm of ``mat^T mat - I``.  Both
    residuals are formed in scalars; a NaN or infinite entry makes them NaN
    or infinite, so it fails the ``<=`` comparisons.
    """
    if mat.shape != (3, 3):
        return False
    return _rotation_test(mat.ravel().tolist(), math.sqrt)


def _rotations_ok(rot: NDArray) -> NDArray:
    """:func:`is_rotation` of each matrix of a stack (N, 3, 3), with its decisions.

    The residuals are formed by the same operations, element by element
    over the stack, so each has the bits of the scalar test.
    """
    return _rotation_test(rot.reshape(-1, 9).T, np.sqrt)


# Below this many matrices the scalar rotation test, matrix by matrix,
# costs less than the stacked one's fixed cost (measured at 1, 20 and 128).
_STACKED_ROTATIONS = 24


def _all_rotations(rot: NDArray) -> bool:
    """True if every matrix of a stack (N, 3, 3) passes :func:`is_rotation`,
    with :func:`_rotations_ok`'s decisions: matrix by matrix below
    :data:`_STACKED_ROTATIONS` matrices, stacked from there."""
    if len(rot) < _STACKED_ROTATIONS:
        return all(_rotation_test(r, math.sqrt) for r in rot.reshape(-1, 9).tolist())
    return bool(_rotation_test(rot.reshape(-1, 9).T, np.sqrt).all())


def _rotation_test(entries, sqrt):
    """The rotation test on the row-major entries of one matrix (floats) or
    of a stack (arrays), ``sqrt`` the matching correctly rounded root."""
    a, b, c, d, e, f, g, h, i = entries
    # mat^T mat - I: Gram matrix of the columns (a, d, g), (b, e, h), (c, f, i)
    uu = a * a + d * d + g * g - 1.0
    vv = b * b + e * e + h * h - 1.0
    ww = c * c + f * f + i * i - 1.0
    uv = a * b + d * e + g * h
    uw = a * c + d * f + g * i
    vw = b * c + e * f + h * i
    err = sqrt(uu * uu + vv * vv + ww * ww + 2.0 * (uv * uv + uw * uw + vw * vw))
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return (err <= _ROTATION_TOL) & (abs(det - 1.0) <= _ROTATION_TOL)


# --- Gamma function family ------------------------------------------------
#
# Gamma_m(phi) = I/m! + c_{m+1}(theta) phi^ + c_{m+2}(theta) phi^^2 with
# theta = |phi| and the scalar family
#
#     c_j(theta) = sum_k (-1)^k theta^(2k) / (2k+j)!,
#
# whose closed forms follow from c_0 = cos(theta), c_1 = sin(theta)/theta and
# the recurrence c_j = 1/j! - theta^2 c_{j+2}.  Each recurrence step cancels
# to a remainder theta^2 smaller, so the closed form of c_j has relative error
# ~ eps/theta^2 for j = 2, 3 and ~ eps/theta^4 for j = 4, 5.  Below the
# per-order threshold in _SERIES_BELOW the truncated series (error
# ~ theta^10/(10+j)!) is the more accurate branch.  The thresholds never
# decrease with j, so a closed-form c_j only ever follows closed-form c_{j-2}.

_SERIES_BELOW = (0.0, SMALL_ANGLE, 1e-2, 1e-2, 0.5, 0.5)  # indexed by j
_SERIES_TERMS = 5  # gamma_coefficients and _gamma_pass unroll their Horner loop over these
_INV_FACTORIAL = tuple(1.0 / math.factorial(j) for j in range(len(_SERIES_BELOW)))
# Horner coefficients of each series in theta^2, highest order first.
_SERIES = tuple(
    tuple((-1) ** k / math.factorial(2 * k + j) for k in reversed(range(_SERIES_TERMS)))
    for j in range(len(_SERIES_BELOW))
)
_EYE3 = np.eye(3)
_EYE3.setflags(write=False)
_SCALED_EYES = np.multiply.outer(_INV_FACTORIAL[:4], _EYE3)  # I/m!, m = 0..3
_SCALED_EYES.setflags(write=False)


def gamma_coefficients(lo: int, hi: int, t2: float, theta: float) -> list[float]:
    """Gamma coefficients [c_lo, ..., c_hi] at theta, 0 <= lo <= hi <= 5.

    ``t2`` is theta^2.  Closed-form orders share one sin and one cos
    evaluation: each recurrence chain (even and odd j) is walked once, from
    c_0 or c_1 up to the highest order requested.
    """
    out = []
    chain: dict[int, tuple[int, float]] = {}  # parity -> (j, closed-form c_j)
    for j in range(lo, hi + 1):
        if theta < _SERIES_BELOW[j]:
            k0, k1, k2, k3, k4 = _SERIES[j]  # Horner, highest order first
            c = (((k0 * t2 + k1) * t2 + k2) * t2 + k3) * t2 + k4
        else:
            parity = j % 2
            i, c = chain.get(parity) or (
                (1, math.sin(theta) / theta) if parity else (0, math.cos(theta))
            )
            for i in range(i, j - 1, 2):
                c = (_INV_FACTORIAL[i] - c) / t2
            chain[parity] = (j, c)
        out.append(c)
    return out


def gamma(m: int, phi: NDArray) -> NDArray:
    """Auxiliary function Gamma_m(phi) = sum_n (phi^)^n / (n+m)!.

    Gamma_0 is the SO(3) exponential, Gamma_1 the left Jacobian; Gamma_2 and
    Gamma_3 arise from nested time integrals of the exponential.  Satisfies
    the recurrences ``Gamma_2 phi^ + I = Gamma_1`` and
    ``Gamma_3 phi^ + I/2 = Gamma_2``.

    Parameters
    ----------
    m : int
        Order, 0 <= m <= 3.
    phi : ndarray, shape (3,)
        Rotation vector in radians.

    Returns
    -------
    ndarray, shape (3, 3)
        Block m of :func:`gamma_blocks` (plus I for m = 0).
    """
    if not 0 <= m <= 3:
        raise ValueError(f"gamma order must be in 0..3, got {m}")
    block = gamma_blocks(phi, m + 1)[m]
    return _EYE3 + block if m == 0 else block


def gamma_blocks(phi: NDArray, n: int) -> NDArray:
    """``[Gamma_0(phi) - I, Gamma_1(phi), ..., Gamma_{n-1}(phi)]``, shape (n, 3, 3).

    Every order comes from one hat, one hat^2 and one sin/cos evaluation of
    the same rotation vector, 1 <= n <= 4.  The first block is the deviation
    of the exponential from the identity, formed without cancellation (see
    :func:`gamma0_deviation`); ``gamma(m, phi)`` is ``blocks[m]``, plus I
    for m = 0.
    """
    if not 1 <= n <= 4:
        raise ValueError(f"gamma_blocks count must be in 1..4, got {n}")
    return _gamma_pass(phi, n, (1.0,))[0][0]


# hat(v) entries, row-major, as columns of [v, -v, 0]
_HAT_TAKE = np.array([6, 5, 1, 2, 6, 3, 4, 0, 6])
_HAT_TAKE.setflags(write=False)


def _hats(v: NDArray) -> NDArray:
    """:func:`hat` of each row of ``v`` (N, 3), shape (N, 3, 3), with the same bits."""
    w = np.empty((len(v), 7))
    w[:, 0:3] = v
    np.negative(v, out=w[:, 3:6])
    w[:, 6] = 0.0
    return w.take(_HAT_TAKE, axis=1).reshape(-1, 3, 3)


@functools.lru_cache(maxsize=8)
def _scale_columns(scales: tuple[float, ...]) -> tuple[NDArray, NDArray]:
    """The scales of a :func:`_gamma_pass` and their squares as read-only
    columns (len(scales), 1, 1, 1), formed once per tuple of scales."""
    s = np.array(scales).reshape(len(scales), 1, 1, 1)
    s2 = s * s
    for a in (s, s2):
        a.setflags(write=False)
    return s, s2


def _gamma_pass(phi: NDArray, n: int, scales: tuple[float, ...]):
    """Gamma blocks of ``s * phi`` for each ``s`` in ``scales``, from one hat.

    ``phi`` has shape (N, 3): a stack of rotation vectors, such as the body
    rotations of a window of IMU epochs.  Returns ``(blocks, powers, t2)``:
    ``blocks[j, k]`` is ``gamma_blocks(scales[k] * phi[j], n)``, shape
    (N, len(scales), n, 3, 3); ``powers[j]`` is ``[I, phi_j^, (phi_j^)^2]``,
    shape (N, 3, 3, 3); ``t2[j]`` is ``|phi_j|^2``, shape (N,).  A single
    vector, shape (3,), gives the same without the leading axis.  Each
    vector and scale costs one scalar coefficient walk; the hats, their
    squares and the blocks are formed for all vectors at once, each entry
    by the same floating-point operations as for one vector alone.  The
    scales must be powers of two (1, 0.5, 0.25, ...): multiplying by such
    a scale is exact in binary floating point (away from underflow), so
    ``s phi^``, ``s^2 (phi^)^2``, ``s^2 t2`` and ``s |phi|`` carry the same
    bits as the hat, hat^2, squared norm and norm of ``s * phi`` itself,
    and each stacked block equals ``gamma(m, s * phi)`` bit for bit.
    """
    phi = np.asarray(phi, dtype=float)
    single = phi.ndim == 1
    phi = phi.reshape(-1, 3)
    rows = len(phi)
    # one dot product per row
    t2 = (phi[:, None, :] @ phi[:, :, None]).reshape(rows)
    powers = np.empty((rows, 3, 3, 3))
    powers[:, 0] = _EYE3
    px = powers[:, 1] = _hats(phi)
    np.matmul(px, px, out=powers[:, 2])
    # [c_1, ..., c_{n+1}] at s |phi_k|, row by row and scale by scale: the
    # walk of gamma_coefficients(1, n + 1, ...) inline, its two recurrence
    # chains held in odd (from c_1) and even (from c_0)
    c = []
    below, series, inv_fact = _SERIES_BELOW, _SERIES, _INV_FACTORIAL
    orders = range(1, n + 2)
    for tk2 in t2.tolist():
        thk = math.sqrt(tk2)
        for s in scales:
            x2, x = s * s * tk2, s * thk
            for j in orders:
                if x < below[j]:
                    k0, k1, k2, k3, k4 = series[j]  # Horner, highest order first
                    c.append((((k0 * x2 + k1) * x2 + k2) * x2 + k3) * x2 + k4)
                elif j & 1:
                    odd = math.sin(x) / x if j == 1 else (inv_fact[j - 2] - odd) / x2
                    c.append(odd)
                else:
                    even = (1.0 - math.cos(x)) / x2 if j == 2 else (inv_fact[j - 2] - even) / x2
                    c.append(even)
    c = np.array(c).reshape(rows, len(scales), n + 1, 1, 1)
    s, s2 = _scale_columns(scales)
    # Gamma_m(s phi) = I/m! + (s c_{m+1}) phi^ + (s^2 c_{m+2}) (phi^)^2
    blocks = c[:, :, :-1] * s * powers[:, None, None, 1]
    blocks += c[:, :, 1:] * s2 * powers[:, None, None, 2]
    blocks[:, :, 1:] += _SCALED_EYES[1:n]
    if single:
        return blocks[0], powers[0], t2[0]
    return blocks, powers, t2


def so3_exp(phi: NDArray) -> NDArray:
    """SO(3) exponential of a rotation vector (Rodrigues formula)."""
    return gamma(0, phi)


def gamma0_deviation(phi: NDArray) -> NDArray:
    """so3_exp(phi) - I computed without cancellation.

    For tiny rotations the deviation has norm ~|phi|, far below the identity
    entries; forming it directly keeps position updates of the group flow
    accurate at the meter scale on earth-radius states.
    """
    return gamma_blocks(phi, 1)[0]


def so3_log(R: NDArray) -> NDArray:
    """Rotation vector of a rotation matrix, with |phi| <= pi.

    Uses the numerically stable atan2 form.  Near the half-turn
    (trace(R) close to -1) the rotation axis is extracted from the largest
    diagonal element and a :class:`DegenerateRotationWarning` is issued;
    a value is still returned.  This is :func:`_so3_logs` on a stack of one.
    """
    return _so3_logs(np.asarray(R, dtype=float).reshape(1, 3, 3))[0]


def _so3_logs(R: NDArray) -> NDArray:
    """:func:`so3_log` of each matrix of a stack (N, 3, 3), shape (N, 3).

    Each row has the bits of its matrix alone: the sine vector, its norm
    (one dot product per row, as ``np.linalg.norm``), the trace and the
    angle (``math.atan2`` per row) are formed by the same operations for
    every matrix of the stack.
    """
    d = R - R.swapaxes(1, 2)
    w = 0.5 * np.stack([d[:, 2, 1], d[:, 0, 2], d[:, 1, 0]], axis=1)  # sin(theta) axis
    s = np.sqrt((w[:, None, :] @ w[:, :, None]).ravel())
    c = 0.5 * (np.trace(R, axis1=1, axis2=2) - 1.0)
    theta = np.array(
        [math.atan2(a, min(1.0, max(-1.0, b))) for a, b in zip(s.tolist(), c.tolist())]
    )
    small, half = theta < SMALL_ANGLE, theta > math.pi - SMALL_ANGLE
    t2 = theta * theta
    scale = 1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0
    np.divide(theta, s, out=scale, where=~(small | half))
    out = w * scale[:, None]
    for k in np.flatnonzero(half).tolist():
        warnings.warn(
            "rotation logarithm near the pi branch; axis from largest diagonal",
            DegenerateRotationWarning,
            stacklevel=3,
        )
        r, one_mc = R[k], 1.0 - c[k]
        i = int(np.argmax(np.diag(r)))
        ax = np.empty(3)
        ax[i] = math.sqrt(max((r[i, i] - c[k]) / one_mc, 0.0))
        for j in range(3):
            if j != i:
                ax[j] = (r[i, j] + r[j, i]) / (2.0 * one_mc * ax[i])
        ax /= np.linalg.norm(ax)
        if s[k] > 0.0 and float(ax @ w[k]) < 0.0:
            ax = -ax
        out[k] = theta[k] * ax
    return out


# --- SE2(3) ----------------------------------------------------------------


def _frozen(owner, name: str, shape) -> NDArray:
    """Store field ``name`` of the frozen dataclass ``owner`` as a read-only array.

    The field's value is copied to float and reshaped to ``shape``; a NaN or
    infinite entry raises ``ValueError`` naming ``{Type}.{name}``.  Returns
    the stored array.
    """
    arr = np.array(getattr(owner, name), dtype=float).reshape(shape)
    # the sum of squares is finite only if every entry is; the entries are
    # tested one by one only when it is not (a non-finite entry or overflow)
    if not math.isfinite(np.vdot(arr, arr)) and not np.isfinite(arr).all():
        raise ValueError(f"{type(owner).__name__}.{name} contains non-finite values")
    arr.setflags(write=False)
    object.__setattr__(owner, name, arr)
    return arr


def _element_ok(rot: NDArray, vel: NDArray, pos: NDArray) -> bool:
    """:class:`GroupElement`'s decision on its fields, without a copy: a
    rotation, by the scalar test, with finite velocity and position."""
    cols = vel.tolist() + pos.tolist()
    # the sum is finite only if every entry is; they are tested one by one
    # only when it is not (a non-finite entry or overflow)
    return is_rotation(rot) and (math.isfinite(sum(cols)) or all(map(math.isfinite, cols)))


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as given.

    ``__post_init__`` does not run: the caller has already made its checks,
    once for a whole window or stream, and passes read-only arrays (its
    own fresh ones, or views of its checked stacks) that the instance
    keeps without copying.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class Tangent9:
    """Element of the se2(3) Lie algebra as a (phi, rho_v, rho_r) triple."""

    phi: NDArray
    rho_v: NDArray
    rho_r: NDArray

    def __post_init__(self):
        for name in ("phi", "rho_v", "rho_r"):
            _frozen(self, name, 3)

    def as_vector(self) -> NDArray:
        return np.concatenate([self.phi, self.rho_v, self.rho_r])

    @staticmethod
    def from_vector(x: NDArray) -> "Tangent9":
        x = np.asarray(x, dtype=float).reshape(9)
        return Tangent9(x[0:3], x[3:6], x[6:9])

    def as_matrix(self) -> NDArray:
        """Dense 5x5 hat form (zero bottom rows)."""
        m = np.zeros((5, 5))
        m[0:3, 0:3] = hat(self.phi)
        m[0:3, 3] = self.rho_v
        m[0:3, 4] = self.rho_r
        return m


@dataclass(frozen=True)
class GroupElement:
    """SE2(3) element: rotation, velocity column, position column.

    ``frame`` tags the navigation convention of the element; ``None`` marks
    frame-free elements (group errors, exponentials).  Composition raises
    :class:`FrameMismatch` only when both operands carry different tags.
    """

    rot: NDArray
    vel: NDArray
    pos: NDArray
    frame: FrameTag | None = field(default=None)

    def __post_init__(self):
        if not is_rotation(_frozen(self, "rot", (3, 3))):
            raise ValueError("GroupElement.rot is not a rotation matrix")
        _frozen(self, "vel", 3)
        _frozen(self, "pos", 3)

    def as_matrix(self) -> NDArray:
        """Dense 5x5 embedding with bottom-right 2x2 identity."""
        m = np.eye(5)
        m[0:3, 0:3] = self.rot
        m[0:3, 3] = self.vel
        m[0:3, 4] = self.pos
        return m

    @staticmethod
    def from_matrix(m: NDArray, frame: FrameTag | None = None) -> "GroupElement":
        m = np.asarray(m, dtype=float)
        return GroupElement(m[0:3, 0:3], m[0:3, 3], m[0:3, 4], frame)


def identity_element(frame: FrameTag | None = None) -> GroupElement:
    return GroupElement(np.eye(3), np.zeros(3), np.zeros(3), frame)


def _resolve_frame(a: FrameTag | None, b: FrameTag | None) -> FrameTag | None:
    """The frame of a combination of operands tagged ``a`` and ``b``: the
    one frame rule.  An untagged operand (``None``) meets any tag; two tags
    must be equal, else :class:`FrameMismatch` names both."""
    if a is not None and b is not None and a != b:
        raise FrameMismatch(f"cannot combine frames {a.name} and {b.name}")
    return a if a is not None else b


def compose(x: GroupElement, y: GroupElement) -> GroupElement:
    """Group product x*y in the factored (R, v, p) form."""
    frame = _resolve_frame(x.frame, y.frame)
    return GroupElement(*_product((x.rot, x.vel, x.pos), (y.rot, y.vel, y.pos)), frame)


def inverse(x: GroupElement) -> GroupElement:
    """Group inverse (R^T, -R^T v, -R^T p)."""
    return GroupElement(*_inverted(x.rot, x.vel, x.pos), x.frame)


def _product(x, y):
    """:func:`compose`'s arithmetic on ``(rot, vel, pos)`` triples of
    arrays, unchecked: ``(Rx Ry, Rx vy + vx, Rx py + px)``."""
    (rx, vx, px), (ry, vy, py) = x, y
    return rx @ ry, rx @ vy + vx, rx @ py + px


def _inverted(rot, vel, pos):
    """:func:`inverse`'s arithmetic on the arrays of an element, unchecked:
    ``(R^T, -R^T v, -R^T p)``, the rotation a transposed view of ``rot``.

    :class:`GroupElement` stores its copy in the same (Fortran) order, and
    a product's bits follow its operands' order, so a product with the
    view has the bits of one with the inverse element's rotation.
    """
    rt = rot.T
    return rt, -(rt @ vel), -(rt @ pos)


def se23_exp(xi: Tangent9, frame: FrameTag | None = None) -> GroupElement:
    """Group exponential: (Gamma_0(phi), Gamma_1(phi) rho_v, Gamma_1(phi) rho_r).

    This wraps the array core :func:`_exp`, with its bits."""
    return GroupElement(*_exp(xi.phi, xi.rho_v, xi.rho_r), frame)


def se23_log(x: GroupElement) -> Tangent9:
    """Group logarithm, exact inverse of :func:`se23_exp`.

    This wraps the array core :func:`_log`, with its bits."""
    return Tangent9(*_log(x.rot, x.vel, x.pos))


def _exp(phi, rho_v, rho_r):
    """:func:`se23_exp`'s arithmetic on the arrays of a tangent vector,
    unchecked: ``(Gamma_0(phi), Gamma_1(phi) rho_v, Gamma_1(phi) rho_r)``,
    both blocks from one :func:`gamma_blocks` pass."""
    dev, j = gamma_blocks(phi, 2)
    return _EYE3 + dev, j @ rho_v, j @ rho_r


def _log(rot, vel, pos):
    """:func:`se23_log`'s arithmetic on the arrays of an element, unchecked:
    ``(phi, rho_v, rho_r)`` with ``phi = so3_log(rot)`` and the columns
    solved from ``Gamma_1(phi) [rho_v rho_r] = [vel pos]``."""
    phi = so3_log(rot)
    return phi, *np.linalg.solve(gamma(1, phi), np.column_stack([vel, pos])).T


def adjoint(x: GroupElement) -> NDArray:
    """9x9 adjoint of an SE2(3) element.

    Satisfies ``hat(Ad_X xi) = X hat(xi) X^-1`` for all tangent vectors,
    ordered as (phi, rho_v, rho_r).
    """
    ad = np.zeros((9, 9))
    ad[0:3, 0:3] = x.rot
    ad[3:6, 3:6] = x.rot
    ad[6:9, 6:9] = x.rot
    ad[3:6, 0:3] = hat(x.vel) @ x.rot
    ad[6:9, 0:3] = hat(x.pos) @ x.rot
    return ad
