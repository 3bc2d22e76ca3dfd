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
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errordyn import Convention, LeverArm, NoiseParams
from .filter import FilterState, GnssFix, _check_slop, _cov_faults, _run, _truth_at
from .kinematics import EarthModel, ImuSample, _StepError
from .liegroup import FrameTag, GroupElement, _cross, _rotations_ok, _so3_logs, _trusted
from .sim import _PROFILES, SensorErrorSpec, TrajectorySpec, _gnss_rows, _imu_rows, _truth_rows
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
    """A ``ValueError`` from building models out of the configuration, or a
    ``MemoryError`` from an array it sizes past what can be allocated,
    exits 2."""
    try:
        yield
    except (ValueError, MemoryError) as exc:  # ConfigError and LinAlgError included
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
    flat, lines = array("d"), []  # the rows' floats, one flat buffer
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
            try:  # the row whole, so a bad float leaves no partial row
                flat.extend(tuple(map(float, parts)))
            except ValueError as exc:
                malformed = f"{path}:{lineno}: bad float: {exc}", exc
                break
            lines.append(lineno)
    values = np.frombuffer(flat).reshape(-1, want)
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
    if not lines:
        raise ConfigError(f"{path}: no data rows after the header")
    return values, lines


def cmd_simulate(cfg: RunConfig, out: Path) -> int:
    """Write imu.csv, gnss.csv and truth.csv for the configured scenario.

    The files are written from the checked stacks of the synthesis cores;
    no per-sample record is built.  A scenario that gives no GNSS fix
    exits 2 before any file is written: ``run`` could not read it.
    """
    if not out.is_dir():
        raise ConfigError(f"output directory does not exist: {out}")
    with _config_values():
        earth = cfg.earth()
        spec = cfg.trajectory()
        _, times, x = _truth_rows(spec, earth)
        errors = SensorErrorSpec(
            np.array([cfg.sim_gyro_bias_x, cfg.sim_gyro_bias_y, cfg.sim_gyro_bias_z]),
            np.array([cfg.sim_accel_bias_x, cfg.sim_accel_bias_y, cfg.sim_accel_bias_z]),
            cfg.gyro_psd,
            cfg.accel_psd,
            seed=cfg.seed,
        )
        rates = _imu_rows(times, x, spec.imu_rate, errors)
        fix_times, pos, cov = _gnss_rows(times, x, spec.imu_rate, cfg.lever().l_b,
                                         cfg.gnss_rate, cfg.gnss_cov(), cfg.seed + 1)
        if not len(fix_times):  # a gnss.csv that `run` rejects
            raise ConfigError(f"duration={cfg.duration!r} ends before the first fix at "
                              f"gnss_rate={cfg.gnss_rate!r}: gnss.csv would have no rows")

    _write_csv(out / "imu.csv", IMU_HEADER, np.column_stack([times, rates.reshape(-1, 6)]))
    cov_cells = np.broadcast_to(cov.flat[[0, 4, 8, 1, 2, 5]], (len(fix_times), 6))
    _write_csv(out / "gnss.csv", GNSS_HEADER, np.column_stack([fix_times, pos, cov_cells]))
    _write_csv(out / "truth.csv", TRUTH_HEADER,
               np.column_stack([times, x.rot.reshape(-1, 9), x.vel, x.pos]))
    log.info("wrote %d IMU, %d GNSS, %d truth rows", len(times), len(fix_times), len(times))
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
    """:class:`GnssFix`'s decision on finite rows of ``gnss.csv``, on the
    covariances built from their six entries (see ``filter._cov_faults``)."""
    return _cov_faults(values[:, _COV_CELLS].reshape(-1, 3, 3)) == 0


def _truth_accepts(values: np.ndarray) -> np.ndarray:
    """``_truth_row``'s decision on finite rows of ``truth.csv``."""
    return _rotations_ok(values[:, 1:10].reshape(-1, 3, 3))


def _load_streams(out: Path):
    """The ``imu.csv``, ``gnss.csv`` and (if present) ``truth.csv`` streams.

    Each file is parsed into an array, (N, 7), (M, 10) and (K, 16) in file
    column order, and checked in one pass over its rows, with the decisions
    of :class:`ImuSample`, :class:`GnssFix` and :class:`GroupElement`; only
    the first rejected row is rebuilt through its constructor, which names
    the fault at ``file:line``.  The GNSS fixes are then made from the
    checked rows without a second check.  Returns ``(imu, gnss, gnss_lines,
    truth)``: the IMU array, the list of :class:`GnssFix`, the file line of
    each fix, and the truth array, ``None`` without ``truth.csv``.  Which
    IMU epoch each fix belongs to is decided by the run
    (:func:`~eqnav.filter._run`).
    """
    imu, _ = _read_csv(out / "imu.csv", IMU_HEADER, _imu_row)
    values, gnss_lines = _read_csv(out / "gnss.csv", GNSS_HEADER, _gnss_row, _gnss_accepts)
    pos, cov = values[:, 1:4], values[:, _COV_CELLS].reshape(-1, 3, 3)
    for a in (pos, cov):
        a.setflags(write=False)
    gnss = [_trusted(GnssFix, t=t, pos_ecef=r, cov=c)
            for t, r, c in zip(values[:, 0].tolist(), pos, cov)]
    truth_path = out / "truth.csv"
    truth = (_read_csv(truth_path, TRUTH_HEADER, _truth_row, _truth_accepts)[0]
             if truth_path.exists() else None)
    return imu, gnss, gnss_lines, truth


def _square_sums(d: np.ndarray, start: float = 0.0) -> float:
    """``start`` plus, over the rows of ``d`` (N, 3), each row's
    ``np.sum(row ** 2)``, added in row order, with the bits of that loop."""
    d = d * d
    return float(np.cumsum(np.append(start, (d[:, 0] + d[:, 1]) + d[:, 2]))[-1])


# rows of nav_out.csv the summary scores at a time
_SUMMARY_ROWS = 1024


def _rms_errors(nav: np.ndarray, truth: np.ndarray, hit: np.ndarray, k: np.ndarray) -> dict:
    """The summary's RMS position, velocity and attitude errors of the rows
    of ``nav`` (nav_out.csv's, which start with truth.csv's columns) that
    ``hit`` marks, against their truth rows ``truth[k]``.

    The rows are scored :data:`_SUMMARY_ROWS` at a time, each sum carried
    from one piece to the next in row order, so the sums have the bits of
    one pass over all rows while only a piece's rows are ever copied.
    """
    rows = np.flatnonzero(hit)
    sums = [0.0, 0.0, 0.0]
    for a in range(0, len(rows), _SUMMARY_ROWS):
        piece = rows[a : a + _SUMMARY_ROWS]
        est, true = nav[piece], truth[k[piece]]
        rot = est[:, 1:10].reshape(-1, 3, 3) @ true[:, 1:10].reshape(-1, 3, 3).swapaxes(1, 2)
        terms = est[:, 13:16] - true[:, 13:16], est[:, 10:13] - true[:, 10:13], _so3_logs(rot)
        sums = [_square_sums(d, total) for d, total in zip(terms, sums)]
    return {name: math.sqrt(total / len(rows))
            for name, total in zip(("rms_pos", "rms_vel", "rms_att"), sums)}


def cmd_run(cfg: RunConfig, out: Path) -> int:
    """Run the filter on simulated or ingested CSV streams, from its blocks of arrays."""
    with _config_values():
        earth, noise, lever = cfg.earth(), cfg.noise(), cfg.lever()
        p0, conv = cfg.initial_cov(), cfg.conv()
        _check_slop(cfg.time_slop)
    imu, gnss, gnss_lines, truth = _load_streams(out)

    truth_at = {}.get
    if truth is not None:
        # the epochs with a truth row at their time; they are imu.csv's,
        # and nav_out.csv's, times
        k = np.searchsorted(truth[:, 0], imu[:, 0]).clip(max=len(truth) - 1)
        hit = truth[k, 0] == imu[:, 0]
        if not hit.any():
            raise ConfigError(f"{out / 'truth.csv'}: no row at the time of any IMU epoch")

        # the states of the rows _read_csv has checked, from read-only views
        rows = truth[:, 1:10].reshape(-1, 3, 3), truth[:, 10:13], truth[:, 13:16]
        for a in rows:
            a.setflags(write=False)
        truth_at = _truth_at(truth[:, 0], lambda j: _trusted(
            GroupElement, rot=rows[0][j], vel=rows[1][j], pos=rows[2][j], frame=FrameTag.ECEF_IB))
        x0 = truth_at(imu[0, 0])
        if x0 is None:
            raise ConfigError(f"{out / 'truth.csv'}: no row at the first IMU epoch's time "
                              f"t={imu[0, 0].item()!r} to start from")
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
    blocks = _run(imu[:, 0], imu[:, 1:].reshape(-1, 2, 3), gnss, state0, noise, earth, lever,
                  truth_at, None, cfg.time_slop)
    nav, updates = [], []  # nav_out.csv's rows; each fix's (t, innovation, nis, error, nees)
    try:  # the blocks are made, and a failure raised, as they are read
        for t, rot, vel, pos, bg, ba, ps, end, fix in blocks:
            nav.append(np.column_stack([t, rot.reshape(-1, 9), vel, pos,
                                        np.tile(np.concatenate([bg, ba]), (len(t), 1)),
                                        np.diagonal(ps, 0, 1, 2)]))
            nav.append(np.concatenate([[end.t], end.x.rot.ravel(), end.x.vel, end.x.pos, end.bg,
                                       end.ba, np.diag(end.p)])[None])
            if fix is not None:
                updates.append((end.t, *fix))
    except _StepError as exc:  # a fix the run cannot apply
        raise ConfigError(f"{out / 'gnss.csv'}:{gnss_lines[exc.index]}: {exc} "
                          f"(IMU stream {out / 'imu.csv'})") from exc
    except ValueError as exc:  # LinAlgError included
        raise ConfigError(
            f"filter run on {out / 'imu.csv'} and {out / 'gnss.csv'} failed: {exc}"
        ) from exc

    nav = np.concatenate(nav)
    nav_header = TRUTH_HEADER + ",bgx,bgy,bgz,bax,bay,baz," + ",".join(f"p{i+1}" for i in range(15))
    _write_csv(out / "nav_out.csv", nav_header, nav)

    summary = {"epochs": len(nav), "updates": len(updates)}
    if updates:
        summary["mean_nis"] = float(np.mean([nis for _, _, nis, _, _ in updates]))

    if truth is not None:
        err_header = "t," + ",".join(f"e{i+1}" for i in range(15)) + ",nees,inx,iny,inz,nis"
        _write_csv(
            out / "err_out.csv",
            err_header,
            [[t, *error, nees, *innovation, nis]
             for t, innovation, nis, error, nees in updates if error is not None],
        )
        summary.update(_rms_errors(nav, truth, hit, k))
        nees_vals = [nees for _, _, _, _, nees in updates if nees is not None]
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
