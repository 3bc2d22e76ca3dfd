"""One benchmark workload in one fresh interpreter.

Usage (started by ``bench/run.py``, which sets PYTHONPATH to the checkout's
``src`` and pins the BLAS/OpenMP thread counts to 1)::

    python3 bench/workloads.py WORKLOAD SEED SECONDS TRACE [--setup-only]

The process imports eqnav, builds the workload's inputs from SEED and
warms the first call up; the monotonic clock at that moment (``ready_at``)
ends the set-up that the parent times from the process start.  With
``--setup-only`` it then prints the synthesis and calibration times and
exits.  Otherwise it runs the timed phase (TRACE 0) or the untraced and
traced fixed unit (TRACE 1), checks the outputs, and prints one JSON line.

Every workload is a closed loop with one caller: the next operation starts
when the previous one returns.  A fixed unit of operations, done first,
carries the output checks, so their values depend on SEED only; the timed
phase repeats operations past the unit until SECONDS have elapsed.

Times are reported at reference speed: each raw time is multiplied by
``CALIBRATION_REF_S / c``, where ``c`` is the time of a fixed calibration
kernel measured just before and after the block of operations the time
belongs to.  On the shared machine this benchmark was defined on, the
speed of a core drifts by up to 1.6x over seconds to minutes while the
ratio to the kernel stays within a few percent.  Raw times are returned
as well.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.stats import chi2

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

import eqnav  # noqa: E402  (after ROOT: the import must come from the checkout)

if Path(eqnav.__file__).resolve().parent != ROOT / "src" / "eqnav":
    raise SystemExit(f"eqnav imported from {eqnav.__file__}, not from {ROOT / 'src'}")

import eqnav.filter as F  # noqa: E402
import eqnav.kinematics as K  # noqa: E402
import eqnav.liegroup as LG  # noqa: E402
import eqnav.sim as S  # noqa: E402
from eqnav.errordyn import Convention, ErrorState15, LeverArm, NoiseParams  # noqa: E402

import trace_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402

EARTH = K.EarthModel()

# Criterion 9 tuning: IMU white-noise PSDs, initial covariance, lever arm.
GYRO_PSD, ACCEL_PSD = (2e-4) ** 2, (2e-3) ** 2
NOISE = NoiseParams(GYRO_PSD, ACCEL_PSD, 1e-16, 1e-14)
P0 = np.diag([(2e-4) ** 2] * 3 + [(2e-2) ** 2] * 3 + [0.25] * 3 + [1e-10] * 3 + [1e-8] * 3)
LEVER = np.array([0.5, 0.3, -1.2])
GNSS_SIGMA = 1.0

# Criterion 9's pinned 100-run bands; a bound for another sample count is
# never narrower than these.
NEES_BAND_C9 = (13.0, 17.2)
NIS_BAND_C9 = (2.4, 3.6)
CHI2_ALPHA = 1e-4  # two-sided tail of the chi-square interval per check
DEAD_RECKONING_TOL_M = 1e-6  # criterion 8

# Median kernel time on the 2-core Xeon (Python 3.11, numpy 2.4) the
# benchmark was defined on, in its faster state.
CALIBRATION_REF_S = 3.3e-3
BLOCK_S = 0.05  # operations between two calibrations run at least this long
SIM_PROBES = 10
PROBE_S = 5.0  # seconds of stream per synthesis probe


@dataclass(frozen=True)
class _Record:
    """Stand-in for eqnav's validated frozen dataclasses."""

    vec: np.ndarray
    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vec", np.array(self.vec, dtype=float).reshape(3))


def calibrate() -> float:
    """Time a fixed kernel shaped like one filter epoch; return seconds.

    It mixes what an epoch does (3x3 products, a 15x15 covariance sandwich,
    a 3x3 solve, a validated frozen dataclass per step, scalar Python) with
    what the CLI does per row (17-digit float formatting and parsing), but
    runs no eqnav code, so a change to the package cannot move it.
    """
    a = np.eye(3) * 1.0000001
    b = np.arange(9.0).reshape(3, 3)
    v = np.ones(3)
    p = 0.5 * np.eye(15)
    phi = np.eye(15) + 1e-3
    kept = {}
    t0 = perf_counter()
    for i in range(50):
        c = a @ b
        d = np.cross(v, c[0])
        b = c / (1.0 + float(d @ d) ** 0.5)
        p = phi @ p @ phi.T
        p = 0.5 * (p + p.T) / p.max()
        kept[i] = _Record(np.linalg.solve(c + 3.0 * np.eye(3), v), c)
        row = ",".join(f"{x:.17g}" for x in p[i % 15])
        kept[-i] = [float(t) for t in row.split(",")]
    return perf_counter() - t0


def reference_time(raw_s: float, cal_before: float, cal_after: float) -> float:
    """``raw_s`` at reference speed, from the kernel times around it."""
    return raw_s * CALIBRATION_REF_S / (0.5 * (cal_before + cal_after))


def chi2_band(dof_per_sample: int, samples: int, base: tuple[float, float]):
    """Bounds on the mean of ``samples`` chi-square(dof) values, widened to ``base``."""
    dof = dof_per_sample * samples
    lo = chi2.ppf(0.5 * CHI2_ALPHA, dof) / samples
    hi = chi2.ppf(1.0 - 0.5 * CHI2_ALPHA, dof) / samples
    return min(lo, base[0]), max(hi, base[1])


@dataclass
class Op:
    """Raw timings of one completed operation."""

    epochs: int
    cost_s: float  # the estimator call(s): predict+update, run, integrate_imu
    simulate_s: float | None = None
    pass_end: bool = True  # last operation of a pass over a stream


class Tally:
    """Operations, times at reference speed, and check inputs of one phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.epochs = 0
        self.busy_s = 0.0  # operations' own time, synthesis included, at reference speed
        self.raw_busy_s = 0.0
        self.epoch_cost_us: list[float] = []
        self.raw_epoch_cost_us: list[float] = []
        self.simulate_s: list[float] = []
        self.run_s: list[float] = []
        self.calibration_s: list[float] = []
        self.checks: dict[str, dict] = {}
        self.fixes_supplied = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self._pass_s = 0.0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"bench: {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def add_block(self, ops: list[Op | None], cal: float) -> None:
        """Record one block of operations timed between two calibrations."""
        scale = CALIBRATION_REF_S / cal
        self.calibration_s.append(cal)
        for op in ops:
            if op is None:  # failed: the pass restarts
                self._pass_s = 0.0
                continue
            busy = op.cost_s + (op.simulate_s or 0.0)
            self.raw_busy_s += busy
            self.busy_s += busy * scale
            self.epochs += op.epochs
            self.raw_epoch_cost_us.append(op.cost_s / op.epochs * 1e6)
            self.epoch_cost_us.append(op.cost_s * scale / op.epochs * 1e6)
            if op.simulate_s is not None:
                self.simulate_s.append(op.simulate_s * scale)
            self._pass_s += op.cost_s * scale
            if op.pass_end:
                self.run_s.append(self._pass_s)
                self._pass_s = 0.0


def perturbed_start(rng: np.random.Generator, x_true: LG.GroupElement):
    """Criterion 9's initial state: a P0 draw of group error and true biases."""
    dxs = ErrorState15.from_vector(np.linalg.cholesky(P0) @ rng.standard_normal(15),
                                   Convention.LEFT_INVARIANT)
    eta = LG.GroupElement(LG.so3_exp(dxs.phi), dxs.jrho_v, dxs.jrho_r)
    xh = LG.compose(x_true, LG.inverse(eta))
    xh = LG.GroupElement(xh.rot, xh.vel, xh.pos, LG.FrameTag.ECEF_IB)
    state = F.FilterState(xh, np.zeros(3), np.zeros(3), P0, 0.0, Convention.LEFT_INVARIANT)
    return state, dxs.db_g.copy(), dxs.db_a.copy()


def nees(state: F.FilterState, x_true, bg, ba) -> float:
    err = eqnav.error_state(state.convention, state.x, x_true, bg - state.bg, ba - state.ba)
    e = err.as_vector()
    return float(e @ np.linalg.solve(state.p, e))


def consistency_checks(tally: Tally, pos_sq: float, count: int, nis: list[float],
                       nees_runs: list[float] | None) -> None:
    """Position error against the GNSS sigma and chi-square NIS/NEES bands."""
    rms = math.sqrt(pos_sq / count)
    tally.checks["pos_err_rms_m"] = {"value": rms, "bound": [0.0, 3.0 * GNSS_SIGMA]}
    tally.checks["nis_mean"] = {"value": float(np.mean(nis)),
                                "bound": list(chi2_band(3, len(nis), NIS_BAND_C9))}
    if nees_runs is not None:
        tally.checks["nees_mean"] = {"value": float(np.mean(nees_runs)),
                                     "bound": list(chi2_band(15, len(nees_runs), NEES_BAND_C9))}


class OnlineLeft:
    """Real-time user: one epoch at a time through predict and update_gnss.

    Left convention, figure-eight, 200 Hz IMU, 10 Hz GNSS with lever arm,
    criterion 9's noise and initial-error draw.  An operation is one epoch;
    the unit is one pass over the stream; later passes restart from the
    initial state.
    """

    name = "online-left"
    duration_s = 30.0
    imu_rate = 200.0
    gnss_rate = 10.0

    def __init__(self, seed: int):
        self.seed = seed
        self.truth, self.imu, gnss, self.initial, self.bg, self.ba = self.synthesize(
            self.duration_s)
        self.fixes = {int(round(f.t * self.imu_rate)): f for f in gnss}
        self.lever = LeverArm(LEVER)
        self.unit_ops = len(self.imu) - 1

    def synthesize(self, duration: float):
        """Truth, IMU and GNSS streams and the perturbed start, from the seed."""
        rng = np.random.default_rng([self.seed, 1])
        spec = S.TrajectorySpec(profile="figure-eight", duration=duration,
                                imu_rate=self.imu_rate, gnss_rate=self.gnss_rate)
        truth = S.generate_truth(spec, EARTH)
        initial, bg, ba = perturbed_start(rng, truth.samples[0][1])
        errs = S.SensorErrorSpec(bg, ba, GYRO_PSD, ACCEL_PSD, seed=int(rng.integers(2**31)))
        imu = S.synthesize_imu(truth, EARTH, errs)
        gnss = S.synthesize_gnss(truth, LEVER, self.gnss_rate, GNSS_SIGMA**2 * np.eye(3),
                                 seed=int(rng.integers(2**31)))
        return truth, imu, gnss, initial, bg, ba

    def warm_up(self) -> None:
        state = self.initial
        for k in range(1, 3 * int(self.imu_rate / self.gnss_rate) + 1):
            state = F.predict(state, self.imu[k], NOISE, EARTH, imu_prev=self.imu[k - 1])
            fix = self.fixes.get(k)
            if fix is not None:
                state = F.update_gnss(state, fix, self.lever)[0]

    def start(self) -> None:
        self.k = 0
        self.pos = []
        self.nis = []
        self.fix_states = []

    def op(self, i: int, tally: Tally) -> Op | None:
        if self.k == 0:
            self.state = self.initial
        k = self.k = self.k + 1
        fix = self.fixes.get(k)
        tally.attempted += 1
        t0 = perf_counter()
        try:
            state = F.predict(self.state, self.imu[k], NOISE, EARTH, imu_prev=self.imu[k - 1])
            if fix is not None:
                state, _, nis = F.update_gnss(state, fix, self.lever)
        except Exception:
            tally.fail(f"{self.name} epoch {k} raised")
            self.k = 0
            return None
        cost = perf_counter() - t0
        self.state = state
        if fix is not None:
            tally.fixes_supplied += 1
        if i < self.unit_ops:
            self.pos.append(state.x.pos)
            if fix is not None:
                self.nis.append(nis)
                self.fix_states.append((k, state))
        pass_end = k == self.unit_ops
        if pass_end:
            self.k = 0
        return Op(1, cost, pass_end=pass_end)

    def finish(self, tally: Tally) -> dict:
        if len(self.pos) < self.unit_ops:
            tally.checks["complete_pass"] = {"value": len(self.pos), "bound": [self.unit_ops] * 2}
            return {}
        truth_pos = np.array([x.pos for _, x in self.truth.samples[1:]])
        pos_sq = float(np.sum((np.array(self.pos) - truth_pos) ** 2))
        nees_vals = [nees(st, self.truth.samples[k][1], self.bg, self.ba)
                     for k, st in self.fix_states]
        consistency_checks(tally, pos_sq, len(self.pos), self.nis, None)
        tally.checks["nees_mean"] = {"value": float(np.mean(nees_vals)), "bound": None}
        return {"pos": self.pos[-1].tolist(), "nis": self.nis, "nees": nees_vals}


class McLeft:
    """Consistency-study user: criterion 9's Monte Carlo, one run per operation.

    Constant turn, 50 Hz IMU, 1 Hz GNSS, lever arm, perturbed initial state
    and biases.  Each run synthesizes its own IMU and GNSS streams from a
    per-run seed and calls ``filter.run`` with truth; the truth trajectory is
    shared, as in criterion 9.
    """

    name = "mc-left"
    duration_s = 5.0
    unit_ops = 20

    def __init__(self, seed: int):
        self.seed = seed
        spec = S.TrajectorySpec(profile="constant-turn", duration=self.duration_s,
                                imu_rate=50.0, gnss_rate=1.0, speed=10.0, turn_rate=0.02)
        self.truth = S.generate_truth(spec, EARTH)
        self.truth_map = dict(self.truth.samples)
        self.lever = LeverArm(LEVER)

    def _one_run(self, key: list[int], n_samples: int | None = None):
        rng = np.random.default_rng([self.seed, *key])
        st, bg, ba = perturbed_start(rng, self.truth.samples[0][1])
        t0 = perf_counter()
        errs = S.SensorErrorSpec(bg, ba, GYRO_PSD, ACCEL_PSD, seed=int(rng.integers(2**31)))
        imu = S.synthesize_imu(self.truth, EARTH, errs)
        gnss = S.synthesize_gnss(self.truth, LEVER, 1.0, GNSS_SIGMA**2 * np.eye(3),
                                 seed=int(rng.integers(2**31)))
        t1 = perf_counter()
        if n_samples is not None:
            imu = imu[:n_samples]
            gnss = [f for f in gnss if f.t <= imu[-1].t]
        recs = F.run(imu, gnss, st, NOISE, EARTH, self.lever,
                     truth=self.truth.samples, truth_biases=(bg, ba))
        t2 = perf_counter()
        return recs, len(gnss), t1 - t0, t2 - t1

    def warm_up(self) -> None:
        self._one_run([3], n_samples=60)

    def start(self) -> None:
        self.nees_runs = []
        self.nis = []
        self.pos_sq = 0.0
        self.count = 0
        self.last = []

    def op(self, i: int, tally: Tally) -> Op | None:
        tally.attempted += 1
        try:
            recs, n_fix, sim_s, run_s = self._one_run([2, i])
        except Exception:
            tally.fail(f"{self.name} run {i} raised")
            return None
        tally.fixes_supplied += n_fix
        if i < self.unit_ops:
            self.nees_runs.append(float(np.mean(
                [r.nees for r in recs if r.nees is not None and r.nis is not None])))
            self.nis.extend(r.nis for r in recs if r.nis is not None)
            for r in recs[1:]:
                self.pos_sq += float(np.sum((r.state.x.pos - self.truth_map[r.t].pos) ** 2))
                self.count += 1
            self.last.append(recs[-1].state.x.pos.tolist())
        return Op(len(recs) - 1, run_s, simulate_s=sim_s)

    def finish(self, tally: Tally) -> dict:
        if len(self.nees_runs) < self.unit_ops:
            tally.checks["complete_runs"] = {"value": len(self.nees_runs),
                                             "bound": [self.unit_ops] * 2}
            return {}
        consistency_checks(tally, self.pos_sq, self.count, self.nis, self.nees_runs)
        return {"pos": self.last, "nis": self.nis, "nees": self.nees_runs}


class BatchRight:
    """Post-processing user: ``eqnav simulate`` then ``eqnav run`` via ``cli.main``.

    Right convention, 100 Hz IMU, 10 Hz GNSS, CLI defaults otherwise, truth
    written and used.  An operation is one simulate+run cycle with its own
    seed in a scratch directory under ``.bench_out``; mean NEES is reported
    but not gated (the right-invariant filter is known to be inconsistent).
    """

    name = "batch-right"
    duration_s = 5.0  # long enough for the right-invariant NEES excess to show
    imu_rate = 100.0
    gnss_rate = 10.0
    unit_ops = 8

    def __init__(self, seed: int):
        import eqnav.cli as cli

        self.cli = cli
        self.seed = seed
        self.work = OUT_DIR / f"work-{self.name}-{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def _args(self, cycle: int, duration: float) -> list[str]:
        return ["--out", str(self.work), "--seed", str(self.seed * 1000 + cycle),
                "--convention", "right", "--set", f"duration={duration}",
                "--set", f"imu_rate={self.imu_rate}", "--set", f"gnss_rate={self.gnss_rate}"]

    def _main(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv)
        return rc, buf.getvalue()

    def warm_up(self) -> None:
        for command in ("simulate", "run"):
            rc, _ = self._main(self._args(999, 0.3) + [command])
            if rc != 0:
                raise SystemExit(f"warm-up eqnav {command} exited {rc}")

    def start(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.summaries = []
        self.digests = []

    def _rows(self, name: str) -> int:
        with open(self.work / name, "rb") as fh:
            return sum(1 for _ in fh) - 1

    def op(self, i: int, tally: Tally) -> Op | None:
        tally.attempted += 1
        args = self._args(i, self.duration_s)
        try:
            t0 = perf_counter()
            rc_sim, _ = self._main(args + ["simulate"])
            t1 = perf_counter()
            rc_run, out = self._main(args + ["run"]) if rc_sim == 0 else (None, "")
            t2 = perf_counter()
        except Exception:
            tally.fail(f"{self.name} cycle {i} raised")
            return None
        if rc_sim != 0 or rc_run != 0:
            tally.failed += 1
            print(f"bench: {self.name} cycle {i}: simulate exit {rc_sim}, run exit {rc_run}",
                  file=sys.stderr)
            return None
        summary = json.loads(out)
        imu_rows, gnss_rows = self._rows("imu.csv"), self._rows("gnss.csv")
        nav_rows, err_rows = self._rows("nav_out.csv"), self._rows("err_out.csv")
        if not (nav_rows == summary["epochs"] == imu_rows
                and err_rows == summary["updates"] == gnss_rows):
            tally.failed += 1
            print(f"bench: {self.name} cycle {i}: rows imu {imu_rows} nav {nav_rows} "
                  f"gnss {gnss_rows} err {err_rows}, summary {summary}", file=sys.stderr)
            return None
        tally.fixes_supplied += gnss_rows
        inputs = [self.work / n for n in ("imu.csv", "gnss.csv", "truth.csv")]
        outputs = [self.work / n for n in ("nav_out.csv", "err_out.csv")]
        tally.bytes_read += sum(p.stat().st_size for p in inputs)
        tally.bytes_written += sum(p.stat().st_size for p in inputs + outputs)
        if i < self.unit_ops:
            self.summaries.append(summary)
            digest = hashlib.sha256()
            for p in inputs + outputs:
                digest.update(p.read_bytes())
            self.digests.append(digest.hexdigest())
        return Op(nav_rows - 1, t2 - t1, simulate_s=t1 - t0)

    def finish(self, tally: Tally) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        if len(self.summaries) < self.unit_ops:
            tally.checks["complete_cycles"] = {"value": len(self.summaries),
                                               "bound": [self.unit_ops] * 2}
            return {}
        rms = math.sqrt(float(np.mean([s["rms_pos"] ** 2 for s in self.summaries])))
        tally.checks["pos_err_rms_m"] = {"value": rms, "bound": [0.0, 3.0 * GNSS_SIGMA]}
        nees_mean = float(np.mean([s["mean_nees"] for s in self.summaries]))
        nis_mean = float(np.mean([s["mean_nis"] for s in self.summaries]))
        tally.checks["nees_mean"] = {"value": nees_mean, "bound": None}
        tally.checks["nis_mean"] = {"value": nis_mean, "bound": None}
        return {"csv_sha256": self.digests}


class DeadReckon:
    """Dead reckoning: ``kinematics.integrate_imu`` on a noise-free stream.

    Criterion 8's setup (constant turn, 200 Hz, noise-free IMU from the
    analytic truth), 20 s long, with the geodetic origin drawn from the
    seed.  An operation integrates one 20-step (0.1 s) segment from the end
    state of the previous one, so a pass does the arithmetic of one call
    over the whole stream; the unit is one pass.
    """

    name = "deadreckon"
    duration_s = 20.0
    imu_rate = 200.0
    segment = 20

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 4])
        self.origin = {"lat_deg": float(rng.uniform(-60.0, 60.0)),
                       "lon_deg": float(rng.uniform(-180.0, 180.0)),
                       "height": float(rng.uniform(0.0, 2000.0))}
        self.truth, self.imu = self.synthesize(self.duration_s)
        self.x0 = self.truth.samples[0][1]
        self.unit_ops = (len(self.imu) - 1) // self.segment

    def synthesize(self, duration: float):
        """Truth and noise-free IMU streams from the seeded origin."""
        spec = S.TrajectorySpec(profile="constant-turn", duration=duration,
                                imu_rate=self.imu_rate, speed=10.0, turn_rate=0.02,
                                **self.origin)
        truth = S.generate_truth(spec, EARTH)
        return truth, S.synthesize_imu(truth, EARTH, S.SensorErrorSpec())

    def warm_up(self) -> None:
        K.integrate_imu(self.x0, self.imu[: self.segment + 1], EARTH)

    def start(self) -> None:
        self.seg = 0
        self.err_sq = []

    def op(self, i: int, tally: Tally) -> Op | None:
        if self.seg == 0:
            self.x = self.x0
        a = self.seg * self.segment
        tally.attempted += 1
        t0 = perf_counter()
        try:
            path = K.integrate_imu(self.x, self.imu[a : a + self.segment + 1], EARTH)
        except Exception:
            tally.fail(f"{self.name} segment {self.seg} raised")
            self.seg = 0
            return None
        cost = perf_counter() - t0
        self.x = path[-1][1]
        if i < self.unit_ops:
            for (_, x), (_, xt) in zip(path[1:], self.truth.samples[a + 1 :]):
                d = x.pos - xt.pos
                self.err_sq.append(float(d @ d))
        self.seg += 1
        pass_end = self.seg == self.unit_ops
        if pass_end:
            self.seg = 0
        return Op(self.segment, cost, pass_end=pass_end)

    def finish(self, tally: Tally) -> dict:
        if len(self.err_sq) < self.unit_ops * self.segment:
            tally.checks["complete_pass"] = {"value": len(self.err_sq),
                                             "bound": [self.unit_ops * self.segment] * 2}
            return {}
        worst = math.sqrt(max(self.err_sq))
        tally.checks["pos_err_max_m"] = {"value": worst, "bound": [0.0, DEAD_RECKONING_TOL_M]}
        tally.checks["pos_err_rms_m"] = {"value": math.sqrt(float(np.mean(self.err_sq))),
                                         "bound": None}
        return {"pos": self.x.pos.tolist()}


WORKLOADS = {w.name: w for w in (OnlineLeft, BatchRight, McLeft, DeadReckon)}


def run_ops(wl, tally: Tally, seconds: float | None, tracer=None) -> None:
    """Run the unit, then (when ``seconds`` is given) repeat until it has elapsed.

    Operations run in blocks of at least ``BLOCK_S``; the calibration kernel
    runs between blocks, and each block's times are scaled by the mean of
    the kernel times before and after it.  With a tracer, each operation is
    one request span.
    """
    wl.start()
    i = 0
    t_start = perf_counter()
    cal_before = calibrate()
    while i < wl.unit_ops or (seconds is not None and perf_counter() - t_start < seconds):
        ops = []
        t0 = perf_counter()
        while True:
            if tracer is None:
                ops.append(wl.op(i, tally))
            else:
                with tracer.request_span(f"bench.{wl.name}", i):
                    ops.append(wl.op(i, tally))
            i += 1
            if perf_counter() - t0 >= BLOCK_S or (seconds is None and i == wl.unit_ops):
                break
        cal_after = calibrate()
        tally.add_block(ops, 0.5 * (cal_before + cal_after))
        cal_before = cal_after
        if seconds is None and i == wl.unit_ops:
            break


def probe_synthesis(wl, tally: Tally) -> None:
    """Time ``SIM_PROBES`` syntheses of ``PROBE_S`` of the workload's streams.

    For workloads that synthesize their stream once, in set-up; each probe
    is bracketed by calibrations like a block of operations.
    """
    for _ in range(SIM_PROBES):
        cal_before = calibrate()
        t0 = perf_counter()
        wl.synthesize(PROBE_S)
        raw = perf_counter() - t0
        tally.simulate_s.append(reference_time(raw, cal_before, calibrate()))


def judge(tally: Tally) -> bool:
    """Count each failed output check as a failed operation; True if all pass."""
    ok = True
    for name, chk in tally.checks.items():
        bound = chk["bound"]
        if bound is not None and not bound[0] <= chk["value"] <= bound[1]:
            ok = False
            tally.failed += 1
            print(f"bench: check {name} = {chk['value']} outside {bound}", file=sys.stderr)
    return ok and tally.failed == 0


def timed(wl, seconds: float) -> dict:
    tally = Tally()
    run_ops(wl, tally, seconds)
    if hasattr(wl, "synthesize"):
        probe_synthesis(wl, tally)
    wl.finish(tally)
    correct = judge(tally)
    return {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "epochs": tally.epochs,
        "busy_s": tally.busy_s,
        "raw_busy_s": tally.raw_busy_s,
        "epoch_cost_us": tally.epoch_cost_us,
        "raw_epoch_cost_us": tally.raw_epoch_cost_us,
        "simulate_s": tally.simulate_s,
        "run_s": tally.run_s,
        "speed_scale": CALIBRATION_REF_S / statistics.median(tally.calibration_s),
        "checks": tally.checks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(wl, seed: int) -> dict:
    plain = Tally()
    run_ops(wl, plain, None)
    plain_result = wl.finish(plain)

    tracer = Tracer()
    functions, classes = trace_metrics.targets()
    tracer.install(functions, classes)
    tally = Tally()
    try:
        run_ops(wl, tally, None, tracer)
    finally:
        tracer.uninstall()
    result = wl.finish(tally)

    if result != plain_result:
        tally.failed += 1
        print("bench: traced outputs differ from untraced outputs", file=sys.stderr)
    traced_ok, plain_ok = judge(tally), judge(plain)
    correct = traced_ok and plain_ok
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{seed}.csv.gz"
    tracer.write(spans_path)
    scale = CALIBRATION_REF_S / statistics.median(tally.calibration_s)
    metrics, baseline = trace_metrics.per_layer(tracer, tally, plain, scale)
    return {
        "correct": correct,
        "attempted": tally.attempted + plain.attempted,
        "failed": tally.failed + plain.failed,
        "metrics": metrics,
        "checks": tally.checks,
        "baseline_us": baseline,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
    wl = WORKLOADS[name](seed)
    wl.warm_up()
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    # The inputs live as long as the process; keep the collector from
    # rescanning them, so a collection costs what the operations allocate.
    gc.collect()
    gc.freeze()
    cal = statistics.median(calibrate() for _ in range(7))
    if "--setup-only" in argv:
        result = {}
    elif trace:
        result = traced(wl, seed)
    else:
        result = timed(wl, seconds)
    result.update(ready_at=ready_at, setup_speed_scale=CALIBRATION_REF_S / cal)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
