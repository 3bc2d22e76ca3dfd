"""Command-line entry point: simulate, run, verify, observability.

Configuration is a flat ``key=value`` text file; command-line flags and
repeated ``--set key=value`` arguments override file values (later wins).
Unknown keys are rejected.  All floating-point output uses 17 significant
digits so identical seeds give byte-identical files.

Exit codes: 0 success, 1 verification failure, 2 usage or I/O error.
Set ``EQNAV_LOG`` to a logging level name for diagnostics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errordyn import Convention, LeverArm, NoiseParams
from .filter import FilterState, GnssFix, _run
from .kinematics import EarthModel, ImuSample
from .liegroup import FrameTag, GroupElement, _cross, _rotations_ok, _so3_logs
from .sim import (
    _PROFILES,
    SensorErrorSpec,
    TrajectorySpec,
    generate_truth,
    synthesize_gnss,
    synthesize_imu,
)
from .verify import heave_observability, run_all_checks

log = logging.getLogger("eqnav")

IMU_HEADER = "t,gx,gy,gz,ax,ay,az"
GNSS_HEADER = "t,x,y,z,sxx,syy,szz,sxy,sxz,syz"
TRUTH_HEADER = "t,c11,c12,c13,c21,c22,c23,c31,c32,c33,vx,vy,vz,x,y,z"


@dataclass
class RunConfig:
    """Flat run configuration; field names are the config-file keys."""

    convention: str = "left"
    # earth constants
    omega_ie: float = 7.292115e-5
    mu: float = 3.986004418e14
    # scenario
    scenario: str = "constant-turn"
    lat_deg: float = 45.0
    lon_deg: float = 7.0
    height: float = 400.0
    speed: float = 10.0
    turn_rate: float = 0.02
    duration: float = 60.0
    imu_rate: float = 200.0
    gnss_rate: float = 1.0
    gnss_sigma: float = 1.0
    # sensor errors for simulation
    sim_gyro_bias_x: float = 0.0
    sim_gyro_bias_y: float = 0.0
    sim_gyro_bias_z: float = 0.0
    sim_accel_bias_x: float = 0.0
    sim_accel_bias_y: float = 0.0
    sim_accel_bias_z: float = 0.0
    gyro_psd: float = 4.0e-8
    accel_psd: float = 4.0e-6
    gyro_bias_psd: float = 1.0e-16
    accel_bias_psd: float = 1.0e-14
    # initial covariance standard deviations
    init_att_std: float = 1.0e-4
    init_vel_std: float = 1.0e-2
    init_pos_std: float = 1.0
    init_bg_std: float = 1.0e-5
    init_ba_std: float = 1.0e-4
    # lever arm
    lever_x: float = 0.0
    lever_y: float = 0.0
    lever_z: float = 0.0
    # misc
    seed: int = 0
    time_slop: float = 1.0e-6
    # verification tolerances
    tol_group_affine: float = 1.0e-9
    tol_equivariance: float = 1.0e-10
    tol_gamma_series: float = 1.0e-12
    tol_gamma_integrals: float = 1.0e-11
    tol_phi_left: float = 1.0e-9
    tol_phi_right: float = 1.0e-8
    tol_null_angle: float = 1.0e-3
    svd_cutoff: float = 1.0e-8

    def earth(self) -> EarthModel:
        return EarthModel(omega_ie=self.omega_ie, mu=self.mu)

    def trajectory(self) -> TrajectorySpec:
        if self.scenario not in _PROFILES:
            raise ConfigError(f"scenario={self.scenario!r} is not one of {', '.join(_PROFILES)}")
        if self.gnss_rate > self.imu_rate:
            raise ConfigError(
                f"gnss_rate={self.gnss_rate!r} exceeds imu_rate={self.imu_rate!r}"
            )
        return TrajectorySpec(
            profile=self.scenario,
            lat_deg=self.lat_deg,
            lon_deg=self.lon_deg,
            height=self.height,
            speed=self.speed,
            turn_rate=self.turn_rate,
            duration=self.duration,
            imu_rate=self.imu_rate,
            gnss_rate=self.gnss_rate,
        )

    def noise(self) -> NoiseParams:
        return NoiseParams(
            self.gyro_psd, self.accel_psd, self.gyro_bias_psd, self.accel_bias_psd
        )

    def lever(self) -> LeverArm:
        for name in ("lever_x", "lever_y", "lever_z"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name}={value!r} is not finite")
        return LeverArm(np.array([self.lever_x, self.lever_y, self.lever_z]))

    def conv(self) -> Convention:
        if self.convention == "left":
            return Convention.LEFT_INVARIANT
        if self.convention == "right":
            return Convention.RIGHT_INVARIANT
        raise ValueError(f"convention must be left or right, got {self.convention!r}")

    def initial_cov(self) -> np.ndarray:
        stds = []
        for name in ("init_att_std", "init_vel_std", "init_pos_std", "init_bg_std", "init_ba_std"):
            std = getattr(self, name)
            if not math.isfinite(std * std):
                raise ConfigError(f"{name}={std!r} gives a non-finite variance")
            stds += [std] * 3
        return np.diag(np.square(stds))

    def gnss_cov(self) -> np.ndarray:
        sigma = self.gnss_sigma
        if not 0.0 < sigma * sigma < math.inf:  # also rejects NaN
            raise ConfigError(f"gnss_sigma={sigma!r} gives a variance that is not > 0 and finite")
        return sigma**2 * np.eye(3)

    def tolerances(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
                if f.name.startswith("tol_")}


class ConfigError(ValueError):
    pass


@contextlib.contextmanager
def _config_values():
    """A ``ValueError`` from building models out of the configuration exits 2."""
    try:
        yield
    except ValueError as exc:  # ConfigError and LinAlgError included
        raise ConfigError(f"invalid configuration: {exc}") from exc


def _coerce(name: str, raw: str, default):
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"invalid value for {name}: {raw!r}") from exc


def parse_config(path: str | None, overrides: list[str]) -> RunConfig:
    """Load the key=value config file and apply overrides (later wins)."""
    cfg = RunConfig()
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}

    def apply(name: str, raw: str, where: str):
        if name not in fields:
            raise ConfigError(f"unknown config key {name!r} in {where}")
        setattr(cfg, name, _coerce(name, raw, getattr(RunConfig(), name)))

    if path is not None:
        text = Path(path).read_text()
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = stripped.partition("=")
            apply(key.strip(), value.strip(), f"{path}:{lineno}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        apply(key.strip(), value.strip(), "--set")
    return cfg


def _write_csv(path: Path, header: str, rows) -> None:
    """Write ``header`` and ``rows`` (rows of floats, as many as the header's
    columns), each value with 17 significant digits."""
    cols = header.count(",") + 1
    line = ",".join(["%.17g"] * cols) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        rows = np.asarray(rows, float).reshape(-1, cols)
        fh.writelines(line % tuple(r) for r in map(np.ndarray.tolist, rows))


def _columns(items, *fields) -> np.ndarray:
    """One row per item: its ``fields`` (attribute paths such as
    ``"state.x.rot"``, or functions of the item), flattened, side by side."""
    getters = [f if callable(f) else attrgetter(f) for f in fields]
    cols = [np.array([get(i) for i in items]) for get in getters]
    return np.column_stack([c.reshape(len(c), -1) if len(c) else c for c in cols])


def _read_csv(path: Path, expect_header: str, make, check=None) -> tuple[np.ndarray, list[int]]:
    """Rows of a CSV stream as an (N, columns) float array, and the file
    line of each row.

    The rows are checked in one pass: every entry finite, and ``check``
    of the finite rows, if given, the rest of the decision of ``make``
    (the row's validating constructor, taking its list of floats).  Only
    the first rejected row goes through ``make``, whose ``ValueError``
    names the fault.  The first malformed row, rejected row, or row whose
    time (first column) is not strictly after the previous row's raises
    :class:`ConfigError` citing ``path:line``; so does a file with no data
    row after its header.
    """
    rows, lines = [], []
    malformed = None  # (message, cause) of the first malformed row
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != expect_header:
            raise ConfigError(f"{path}:1: expected header {expect_header!r}")
        want = len(expect_header.split(","))
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != want:
                malformed = f"{path}:{lineno}: expected {want} columns", None
                break
            try:
                rows.append(list(map(float, parts)))
            except ValueError as exc:
                malformed = f"{path}:{lineno}: bad float: {exc}", exc
                break
            lines.append(lineno)
    values = np.array(rows).reshape(-1, want)
    t = values[:, 0]
    ok = np.isfinite(values).all(axis=1)
    if check is not None:
        ok[ok] = check(values[ok])
    ok[1:] &= t[1:] > t[:-1]
    if not ok.all():
        k = int(ok.argmin())
        row = values[k].tolist()
        try:
            make(row)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lines[k]}: {exc}") from exc
        raise ConfigError(
            f"{path}:{lines[k]}: time {row[0]!r} is not after the previous row's {t[k - 1].item()!r}"
        )
    if malformed is not None:
        raise ConfigError(malformed[0]) from malformed[1]
    if not rows:
        raise ConfigError(f"{path}: no data rows after the header")
    return values, lines


def cmd_simulate(cfg: RunConfig, out: Path) -> int:
    """Write imu.csv, gnss.csv and truth.csv for the configured scenario."""
    if not out.is_dir():
        raise ConfigError(f"output directory does not exist: {out}")
    with _config_values():
        earth = cfg.earth()
        truth = generate_truth(cfg.trajectory(), earth)
        errors = SensorErrorSpec(
            np.array([cfg.sim_gyro_bias_x, cfg.sim_gyro_bias_y, cfg.sim_gyro_bias_z]),
            np.array([cfg.sim_accel_bias_x, cfg.sim_accel_bias_y, cfg.sim_accel_bias_z]),
            cfg.gyro_psd,
            cfg.accel_psd,
            seed=cfg.seed,
        )
        imu = synthesize_imu(truth, earth, errors)
        gnss = synthesize_gnss(
            truth, cfg.lever().l_b, cfg.gnss_rate, cfg.gnss_cov(), seed=cfg.seed + 1
        )

    _write_csv(out / "imu.csv", IMU_HEADER, _columns(imu, "t", "gyro", "accel"))
    _write_csv(out / "gnss.csv", GNSS_HEADER,
               _columns(gnss, "t", "pos_ecef", lambda f: f.cov.flat[[0, 4, 8, 1, 2, 5]]))
    _write_csv(out / "truth.csv", TRUTH_HEADER,
               np.column_stack([truth.times, _columns(truth.states(), "rot", "vel", "pos")]))
    log.info("wrote %d IMU, %d GNSS, %d truth rows", len(imu), len(gnss), len(truth.samples))
    return 0


def _imu_row(r: list[float]) -> ImuSample:
    return ImuSample(r[0], np.array(r[1:4]), np.array(r[4:7]))


# gnss.csv columns of the covariance's entries, row by row
_COV_CELLS = [4, 7, 8, 7, 5, 9, 8, 9, 6]


def _gnss_row(r: list[float]) -> GnssFix:
    return GnssFix(r[0], np.array(r[1:4]), np.array(r)[_COV_CELLS].reshape(3, 3))


def _truth_row(r: list[float]) -> tuple[float, GroupElement]:
    if not math.isfinite(r[0]):
        raise ValueError("truth time is not finite")
    rot = np.array(r[1:10]).reshape(3, 3)
    return r[0], GroupElement(rot, np.array(r[10:13]), np.array(r[13:16]), FrameTag.ECEF_IB)


def _gnss_accepts(values: np.ndarray) -> np.ndarray:
    """:class:`GnssFix`'s decision on finite rows of ``gnss.csv``: a positive
    definite covariance (built from its six entries, it is symmetric)."""
    return (np.linalg.eigvalsh(values[:, _COV_CELLS].reshape(-1, 3, 3)) > 0.0).all(axis=1)


def _truth_accepts(values: np.ndarray) -> np.ndarray:
    """``_truth_row``'s decision on finite rows of ``truth.csv``."""
    return _rotations_ok(values[:, 1:10].reshape(-1, 3, 3))


def _load_streams(cfg: RunConfig, out: Path):
    """The ``imu.csv``, ``gnss.csv`` and (if present) ``truth.csv`` streams.

    ``imu.csv`` and ``truth.csv`` are parsed into arrays, (N, 7) and
    (M, 16) in file column order, and each is checked in one pass over its
    rows, with the decisions of :class:`ImuSample` and
    :class:`GroupElement`; only the first rejected row is rebuilt through
    its constructor, which names the fault at ``file:line``.  Each GNSS fix
    is a :class:`GnssFix`.  ``truth`` is ``None`` without ``truth.csv``.
    """
    imu, _ = _read_csv(out / "imu.csv", IMU_HEADER, _imu_row)
    values, gnss_lines = _read_csv(out / "gnss.csv", GNSS_HEADER, _gnss_row, _gnss_accepts)
    gnss = [_gnss_row(r) for r in values.tolist()]
    truth_path = out / "truth.csv"
    truth = (_read_csv(truth_path, TRUTH_HEADER, _truth_row, _truth_accepts)[0]
             if truth_path.exists() else None)
    # a gap in imu.csv can leave a fix without an IMU epoch to apply it at:
    # the nearest epoch is one of the two around the fix in the sorted times
    imu_times, fix_times = imu[:, 0], values[:, 0]
    k = np.searchsorted(imu_times, fix_times).clip(1, len(imu) - 1)
    gap = np.minimum(abs(imu_times[k - 1] - fix_times), abs(imu_times[k] - fix_times))
    bad = np.flatnonzero(gap > cfg.time_slop)
    if bad.size:
        raise ConfigError(
            f"{out / 'gnss.csv'}:{gnss_lines[bad[0]]}: no IMU epoch in {out / 'imu.csv'} "
            f"within {cfg.time_slop} s of the fix at t={gnss[bad[0]].t}"
        )
    return imu, gnss, truth


def _square_sums(d: np.ndarray) -> float:
    """Sum over the rows of ``d`` (N, 3) of each row's ``np.sum(row ** 2)``,
    added in row order from 0.0, with the bits of that loop."""
    d = d * d
    return float(np.cumsum(np.append(0.0, (d[:, 0] + d[:, 1]) + d[:, 2]))[-1])


def cmd_run(cfg: RunConfig, out: Path) -> int:
    """Run the filter on previously simulated (or ingested) CSV streams."""
    with _config_values():
        earth, noise, lever = cfg.earth(), cfg.noise(), cfg.lever()
        p0, conv = cfg.initial_cov(), cfg.conv()
    imu, gnss, truth = _load_streams(cfg, out)

    truth_at = {}.get
    if truth is not None:
        rows = dict(zip(truth[:, 0].tolist(), truth))

        def truth_at(t):
            return _truth_row(rows[t].tolist())[1] if t in rows else None

        x0 = truth_at(truth[0, 0])
    else:
        # dead-reckon start from the first fix, level attitude
        fix = gnss[0]
        with np.errstate(invalid="ignore"):  # 0/0 at the earth's centre
            lat, lon, _ = earth.ecef_to_geodetic(fix.pos_ecef)
        if not math.isfinite(lat):
            raise ConfigError(f"{out / 'gnss.csv'}: first fix at t={fix.t} has no "
                              "geodetic latitude to level the start at")
        x0 = GroupElement(earth.ned_rotation(lat, lon), _cross(earth.omega_vec, fix.pos_ecef),
                          fix.pos_ecef, FrameTag.ECEF_IB)
    state0 = FilterState(x0, np.zeros(3), np.zeros(3), p0, imu[0, 0].item(), conv)
    try:
        records = _run(imu[:, 0], imu[:, 1:].reshape(-1, 2, 3), gnss, state0, noise, earth,
                       lever, truth_at, None, cfg.time_slop)
    except ValueError as exc:  # LinAlgError included
        raise ConfigError(
            f"filter run on {out / 'imu.csv'} and {out / 'gnss.csv'} failed: {exc}"
        ) from exc

    nav_header = TRUTH_HEADER + ",bgx,bgy,bgz,bax,bay,baz," + ",".join(f"p{i+1}" for i in range(15))
    nav = _columns(records, "t", "state.x.rot", "state.x.vel", "state.x.pos", "state.bg",
                   "state.ba", "p_diag")
    _write_csv(out / "nav_out.csv", nav_header, nav)

    nis_vals = [r.nis for r in records if r.nis is not None]
    summary = {"epochs": len(records), "updates": len(nis_vals)}
    if nis_vals:
        summary["mean_nis"] = float(np.mean(nis_vals))

    if truth is not None:
        err_header = "t," + ",".join(f"e{i+1}" for i in range(15)) + ",nees,inx,iny,inz,nis"
        _write_csv(
            out / "err_out.csv",
            err_header,
            [[r.t, *r.error, r.nees, *r.innovation, r.nis] for r in records if r.error is not None],
        )
        # the epochs with a truth row at their time; nav_out.csv starts with
        # the columns of truth.csv
        k = np.searchsorted(truth[:, 0], nav[:, 0]).clip(max=len(truth) - 1)
        hit = truth[k, 0] == nav[:, 0]
        est, true = nav[hit], truth[k[hit]]
        rot = est[:, 1:10].reshape(-1, 3, 3) @ true[:, 1:10].reshape(-1, 3, 3).swapaxes(1, 2)
        for name, d in (("rms_pos", est[:, 13:16] - true[:, 13:16]),
                        ("rms_vel", est[:, 10:13] - true[:, 10:13]), ("rms_att", _so3_logs(rot))):
            summary[name] = math.sqrt(_square_sums(d) / len(est))
        nees_vals = [r.nees for r in records if r.nees is not None]
        if nees_vals:
            summary["mean_nees"] = float(np.mean(nees_vals))

    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_verify(cfg: RunConfig, out: Path | None) -> int:
    """Run the property suite; nonzero exit on any failed check."""
    with _config_values():
        earth = cfg.earth()
    results = run_all_checks(earth, cfg.tolerances(), seed=cfg.seed)
    report = [
        {
            "check": r.name,
            "max_residual": r.residual,
            "tolerance": r.tolerance,
            "passed": r.passed,
        }
        for r in results
    ]
    text = json.dumps({"checks": report, "passed": all(r.passed for r in results)}, indent=2)
    print(text)
    if out is not None and out.is_dir():
        (out / "verify.json").write_text(text + "\n")
    return 0 if all(r.passed for r in results) else 1


def cmd_observability(cfg: RunConfig) -> int:
    """Print the rank analysis of both conventions on the heave scenario."""
    with _config_values():
        earth = cfg.earth()
    report = {}
    for conv in (Convention.LEFT_INVARIANT, Convention.RIGHT_INVARIANT):
        rep, angle = heave_observability(earth, conv, svd_cutoff=cfg.svd_cutoff)
        report[conv.value] = {
            "rank": rep.rank,
            "null_dim": int(rep.null_space.shape[1]),
            "singular_values": [float(s) for s in rep.singular_values],
            "null_phi_gravity_angle_rad": angle,
        }
    print(json.dumps(report, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="eqnav", description=__doc__)
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", default=".", help="input/output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--convention", choices=["left", "right"])
    p.add_argument("--scenario", choices=_PROFILES)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config key (repeatable, later wins)")
    p.add_argument("command", choices=["simulate", "run", "verify", "observability"])
    return p


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("EQNAV_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args.set)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.convention is not None:
            cfg.convention = args.convention
        if args.scenario is not None:
            cfg.scenario = args.scenario
        out = Path(args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg, out)
        if args.command == "run":
            return cmd_run(cfg, out)
        if args.command == "verify":
            return cmd_verify(cfg, out)
        return cmd_observability(cfg)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
