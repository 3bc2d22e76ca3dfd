"""What the traced run wraps, and the per-layer metrics it derives from the spans.

Layers are the eqnav modules on a navigation path: ``cli``, ``sim``,
``filter``, ``transition``, ``errordyn``, ``kinematics`` and ``liegroup``.
``verify`` (the self-test behind ``eqnav verify``) is on no such path and
is not wrapped.  Work done in an unwrapped helper (``hat``, ``compose``,
CSV formatting, ...) counts as self time of the nearest wrapped caller.
"""

from __future__ import annotations

import importlib
import math

LAYERS = ("cli", "sim", "filter", "transition", "errordyn", "kinematics", "liegroup")

# span name -> defining module attribute
FUNCTIONS = (
    "cli.main",
    "cli.cmd_simulate",
    "cli.cmd_run",
    "sim.generate_truth",
    "sim.synthesize_imu",
    "sim.synthesize_gnss",
    "filter.predict",
    "filter.update_gnss",
    "filter.run",
    "transition.phi_left",
    "transition.psi_integrals",
    "transition.phi_right",
    "transition.qd_matrix",
    "errordyn.g_matrix",
    "errordyn.h_matrix",
    "errordyn.apply_feedback",
    "errordyn.error_state",
    "kinematics.build_dynamics",
    "kinematics.flow",
    "kinematics.integrate_imu",
    "liegroup.gamma",
)
# span name -> dataclass whose __post_init__ (input validation) is wrapped
CLASSES = ("filter.FilterState", "kinematics.ImuSample", "liegroup.GroupElement")

# Functions reported as calls and mean self time per call.
PER_CALL = (
    "filter.predict",
    "filter.update_gnss",
    "transition.phi_left",
    "transition.psi_integrals",
    "transition.phi_right",
    "transition.qd_matrix",
    "errordyn.g_matrix",
    "errordyn.h_matrix",
    "errordyn.apply_feedback",
    "errordyn.error_state",
    "kinematics.build_dynamics",
    "kinematics.flow",
    "liegroup.gamma",
)
SELF_SECONDS = ("cli.cmd_simulate", "cli.cmd_run", "filter.run", "kinematics.integrate_imu")
TOTAL_SECONDS = ("sim.generate_truth", "sim.synthesize_imu", "sim.synthesize_gnss")

# ROADMAP "Baseline" per-call figures (inclusive, timeit minimum of 3), in us.
BASELINE_US = {
    "filter.predict": 900.0,
    "transition.phi_right": 520.0,
    "transition.phi_left": 300.0,
    "transition.psi_integrals": 270.0,
    "kinematics.flow": 110.0,
    "kinematics.build_dynamics": 50.0,
    "filter.update_gnss": 270.0,
    "liegroup.gamma": 8.6,
}


def _resolve(name: str):
    layer, attr = name.split(".")
    return getattr(importlib.import_module(f"eqnav.{layer}"), attr)


def targets() -> tuple[dict, dict]:
    """Original function objects and classes to wrap, keyed by span name."""
    return ({n: _resolve(n) for n in FUNCTIONS}, {n: _resolve(n) for n in CLASSES})


def metric_specs() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in output order."""
    specs = []
    for layer in LAYERS:
        specs.append((f"{layer}.self_s", "s"))
    for name in PER_CALL:
        specs += [(f"{name}.calls", "count"), (f"{name}.self_us", "us"),
                  (f"{name}.calls_per_epoch", "count/epoch")]
    for name in CLASSES:
        specs += [(f"{name}.calls", "count"), (f"{name}.init_us", "us"),
                  (f"{name}.calls_per_epoch", "count/epoch")]
    specs += [(f"{name}.self_s", "s") for name in SELF_SECONDS]
    specs += [(f"{name}.total_s", "s") for name in TOTAL_SECONDS]
    specs += [
        ("cli.bytes_read", "bytes"),
        ("cli.bytes_written", "bytes"),
        ("filter.fixes_applied_ratio", "ratio"),
        ("filter.pos_err_rms_m", "m"),
        ("filter.nees_dev", "unitless"),
        ("filter.nis_dev", "unitless"),
        ("trace.epochs", "count"),
        ("trace.spans", "count"),
        ("trace.traced_s", "s"),
        ("trace.untraced_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.speed_scale", "ratio"),
    ]
    return specs


def _log_dev(checks: dict, name: str, dof: float) -> float:
    """|ln(mean / dof)| of a NEES or NIS mean; 0 where the workload has none."""
    return abs(math.log(checks[name]["value"] / dof)) if name in checks else 0.0


def per_layer(tracer, tally, untraced, scale: float):
    """Per-layer metrics and the inclusive per-call us next to the Baseline.

    ``tally`` is the traced pass over the unit and ``untraced`` the same
    unit run without wrappers.  Span times are multiplied by ``scale``, the
    traced pass's factor to reference speed (``trace.speed_scale``).
    """
    summary = {
        name: {"calls": e["calls"], "total_ns": e["total_ns"] * scale,
               "self_ns": e["self_ns"] * scale}
        for name, e in tracer.summary().items()
    }
    empty = {"calls": 0, "total_ns": 0.0, "self_ns": 0.0}

    def get(name):
        return summary.get(name, empty)

    def per_call_us(entry, key):
        return entry[key] / entry["calls"] / 1e3 if entry["calls"] else 0.0

    epochs = max(tally.epochs, 1)
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            v["self_ns"] for k, v in summary.items() if k.split(".")[0] == layer) / 1e9
    for name in PER_CALL:
        e = get(name)
        values[f"{name}.calls"] = e["calls"]
        values[f"{name}.self_us"] = per_call_us(e, "self_ns")
        values[f"{name}.calls_per_epoch"] = e["calls"] / epochs
    for name in CLASSES:
        e = get(name)
        values[f"{name}.calls"] = e["calls"]
        values[f"{name}.init_us"] = per_call_us(e, "self_ns")
        values[f"{name}.calls_per_epoch"] = e["calls"] / epochs
    for name in SELF_SECONDS:
        values[f"{name}.self_s"] = get(name)["self_ns"] / 1e9
    for name in TOTAL_SECONDS:
        values[f"{name}.total_s"] = get(name)["total_ns"] / 1e9
    checks = tally.checks
    values.update({
        "cli.bytes_read": tally.bytes_read,
        "cli.bytes_written": tally.bytes_written,
        "filter.fixes_applied_ratio": (get("filter.update_gnss")["calls"] / tally.fixes_supplied
                                       if tally.fixes_supplied else 0.0),
        "filter.pos_err_rms_m": checks.get("pos_err_rms_m", {}).get("value", 0.0),
        "filter.nees_dev": _log_dev(checks, "nees_mean", 15.0),
        "filter.nis_dev": _log_dev(checks, "nis_mean", 3.0),
        "trace.epochs": tally.epochs,
        "trace.spans": len(tracer),
        "trace.traced_s": tally.busy_s,
        "trace.untraced_s": untraced.busy_s,
        "trace.overhead_s": tally.busy_s - untraced.busy_s,
        "trace.speed_scale": scale,
    })
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in metric_specs()}
    baseline = {
        name: {"traced_incl_us": per_call_us(get(name), "total_ns"), "baseline_us": ref}
        for name, ref in BASELINE_US.items()
    }
    return metrics, baseline
