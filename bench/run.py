"""eqnav benchmark: seeded workloads against the checkout's ``src/eqnav``.

Run from the root of a checkout::

    python3 bench/run.py --workload online-left --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each workload runs in fresh interpreters started here, with PYTHONPATH set
to ``src`` and OMP/OpenBLAS/MKL pinned to one thread in the children only.
Set-up is timed in several such interpreters and its median is reported.
With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the per-layer metrics of a traced run (see ``trace_metrics.py``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines before it record the environment and
each metric by name and unit.  See ``bench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("online-left", "batch-right", "mc-left", "deadreckon")
SETUP_SAMPLES = 5  # interpreters timed from start to the end of warm-up, per run
RUN_BUDGET_S = 170.0  # all interpreters of one workload run together

END_TO_END = (
    ("setup_s", "s"),
    ("epochs_per_s", "epochs/s"),
    ("epoch_p50_us", "us"),
    ("simulate_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """A workload process failed to produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool,
          deadline: float):
    """Run one workload interpreter; return (set-up seconds, its JSON result)."""
    cmd = [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(seconds),
           str(trace)] + (["--setup-only"] if setup_only else [])
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} did not finish within {RUN_BUDGET_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} process exited {proc.returncode}")
    result = json.loads(lines[-1])
    return result["ready_at"] - started, result


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 \
        else values[0]


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.clock_gettime(time.CLOCK_MONOTONIC) + RUN_BUDGET_S
    if trace:
        _, result = spawn(workload, seed, seconds, 1, False, deadline)
        return result
    children = [spawn(workload, seed, seconds, 0, True, deadline)
                for _ in range(SETUP_SAMPLES - 1)]
    children.append(spawn(workload, seed, seconds, 0, False, deadline))
    result = children[-1][1]
    raw_setup = [setup for setup, _ in children]
    setup = [s * child["setup_speed_scale"] for s, child in children]
    simulate = result["simulate_s"]
    costs = result["epoch_cost_us"]
    values = {
        "setup_s": statistics.median(setup),
        "epochs_per_s": result["epochs"] / result["busy_s"],
        "epoch_p50_us": statistics.median(costs),
        "simulate_s": statistics.median(simulate),
        "run_s": statistics.median(result["run_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    raw = {
        "setup_s": statistics.median(raw_setup),
        "epochs_per_s": result["epochs"] / result["raw_busy_s"],
        "epoch_p50_us": statistics.median(result["raw_epoch_cost_us"]),
        "epoch_p99_us": percentile(result["raw_epoch_cost_us"], 99),
        "speed_scale": result["speed_scale"],
    }
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
        "checks": result["checks"],
        "raw": raw,
        "epoch_p99_us": percentile(costs, 99),
        "samples": {"setup": len(setup), "epoch_cost": len(costs), "simulate": len(simulate),
                    "run": len(result["run_s"])},
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "eqnav" / "__init__.py").is_file():
        print(f"error: no eqnav sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(json.dumps({"env": environment(args)}))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = measure(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        res = results[name]
        print(json.dumps({"workload": name, **{k: v for k, v in res.items() if k != "metrics"}}))
        for metric, m in res["metrics"].items():
            print(f"{name:12s} {metric:40s} {m['value']:>16.6g} {m['unit']}")

    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
