"""Equivariant/invariant Kalman filtering for inertial navigation on SE2(3)."""

from .errordyn import (
    Convention,
    ErrorState15,
    LeverArm,
    NoiseParams,
    apply_feedback,
    error_state,
    f_matrix,
    g_matrix,
    h_matrix,
)
from .filter import (
    EpochRecord,
    FilterState,
    GnssFix,
    ObservabilityReport,
    SingularInnovationCov,
    observability_matrix,
    predict,
    run,
    update_gnss,
)
from .kinematics import (
    DynamicsPair,
    EarthModel,
    ImuSample,
    NonMonotonicTime,
    build_dynamics,
    check_dstar_action,
    check_group_affine,
    dynamics_matrix,
    flow,
    frame_translation,
    integrate_imu,
    lift,
    midpoint_step,
    velocity_action,
)
from .liegroup import (
    DegenerateRotationWarning,
    FrameMismatch,
    FrameTag,
    GroupElement,
    Tangent9,
    adjoint,
    compose,
    gamma,
    hat,
    identity_element,
    inverse,
    se23_exp,
    se23_log,
    so3_exp,
    so3_log,
    vee,
)
from .sim import (
    SensorErrorSpec,
    TrajectorySpec,
    TruthTrajectory,
    generate_truth,
    gravity_perturbation_check,
    synthesize_gnss,
    synthesize_imu,
)
from .transition import (
    PsiIntegrals,
    TransitionBlocks,
    gamma_integrals_check,
    phi_left,
    phi_right,
    psi_integrals,
    qd_matrix,
)

__version__ = "0.1.0"
