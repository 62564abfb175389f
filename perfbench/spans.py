"""Spans recorded from outside the program, around calls into each layer.

Each wrapper replaces a function at the name its caller looks up: a module
attribute for calls made through the module (``ops.evolve_td``) or a
module global for calls made by bare name (``scheduler`` imports
``plan_transport`` into its own namespace, so both bindings are wrapped).
Spans stay in memory; a child process writes its spans out when it ends.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
from time import perf_counter


def _arg(name):
    return lambda args, out: args[name]


def _moves(schedule) -> int:
    return sum(p.kind == "move" for p in schedule.primitives)


# (module, attribute, span name, {info key: f(bound arguments, result)})
WRAPPED = (
    ("spinbus.traps", "lattice_reports", "traps.lattice_reports", {}),
    ("spinbus.interactions", "dipolar_average", "interactions.dipolar_average", {}),
    (
        "spinbus.interactions",
        "dipolar_average_mc",
        "interactions.dipolar_average_mc",
        {"samples": _arg("n_samples"), "rejected": lambda args, out: out.n_rejected},
    ),
    ("spinbus.operators", "evolve_td", "operators.evolve_td", {"steps": _arg("steps")}),
    ("spinbus.operators", "embed", "operators.embed", {}),
    ("spinbus.gates", "rwa_fidelity", "gates.rwa_fidelity", {}),
    ("spinbus.gates", "gate_identity_reports", "gates.gate_identity_reports", {}),
    ("spinbus.transport", "plan_transport", "transport.plan_transport", {}),
    ("spinbus.scheduler", "plan_transport", "transport.plan_transport", {}),
    ("spinbus.scheduler", "parse_circuit", "scheduler.parse_circuit", {"gates": lambda args, out: len(out)}),
    (
        "spinbus.scheduler",
        "compile_circuit",
        "scheduler.compile_circuit",
        {
            "gates": lambda args, out: len(args["circuit"]),
            "primitives": lambda args, out: len(out.primitives),
            "moves": lambda args, out: _moves(out),
        },
    ),
    ("spinbus.scheduler", "budget", "scheduler.budget", {}),
    (
        "spinbus.scheduler",
        "schedule_to_json",
        "scheduler.schedule_to_json",
        {"primitives": lambda args, out: len(args["schedule"].primitives)},
    ),
    (
        "spinbus.scheduler",
        "schedule_from_json",
        "scheduler.schedule_from_json",
        {"primitives": lambda args, out: len(out.primitives)},
    ),
    ("spinbus.scheduler", "verify_schedule", "scheduler.verify_schedule", {}),
    (
        "spinbus.scheduler",
        "simulate_schedule",
        "scheduler.simulate_schedule",
        {
            "n_qubits": lambda args, out: args["schedule"].register.n_qubits,
            "primitives": lambda args, out: len(args["schedule"].primitives),
        },
    ),
    ("spinbus.scheduler", "logical_unitary", "scheduler.logical_unitary", {}),
)


class Tracer:
    """Records one span per wrapped call: name, parent index, start, end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self):
        for module_name, attr, name, info in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, info))
            self._saved.append((module, attr, original))

    def remove(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, info):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else -1}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["t0"] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["t1"] = perf_counter()
                self._stack.pop()
            if info:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update({key: get(bound.arguments, out) for key, get in info.items()})
            return out

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s["t1"] - s["t0"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["t1"] - s["t0"]
    return own


def children(spans: list[dict], index: int, name: str) -> list[dict]:
    return [s for s in spans if s["parent"] == index and s["name"] == name]


def _ratio(num: float, den: float) -> float:
    return num / den if den else float("nan")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def layer_metrics(spans: list[dict], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics from spans gathered across processes.

    ``counts`` holds how many traced quadrature scans and gatechecks the
    spans came from.  Each ``*_calls`` metric is calls per operation: per
    quadrature scan, per gatecheck, per verify_schedule (embed) and per
    compile_circuit (plan_transport).
    """
    own = self_times(spans)
    dur = [s["t1"] - s["t0"] for s in spans]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def med(name, times=dur):
        return _median(times[i] for i in idx(name))

    def total(name, times=dur):
        return sum(times[i] for i in idx(name))

    def info_sum(name, key):
        return sum(spans[i][key] for i in idx(name))

    mc, ev, sim = "interactions.dipolar_average_mc", "operators.evolve_td", "scheduler.simulate_schedule"
    out = {
        "traps.lattice_reports_s": med("traps.lattice_reports"),
        "interactions.dipolar_average_s": med("interactions.dipolar_average"),
        "interactions.dipolar_average_calls": _ratio(len(idx("interactions.dipolar_average")), counts["quad_scans"]),
        "interactions.mc_samples_per_s": _ratio(info_sum(mc, "samples"), total(mc)),
        "interactions.mc_rejected_ratio": _ratio(info_sum(mc, "rejected"), info_sum(mc, "samples")),
        "operators.evolve_td_steps_per_s": _ratio(info_sum(ev, "steps"), total(ev)),
        "operators.evolve_td_calls": _ratio(len(idx(ev)), counts["gatechecks"]),
        "gates.rwa_fidelity_self_s": med("gates.rwa_fidelity", own),
        "gates.gate_identity_reports_s": med("gates.gate_identity_reports"),
        "operators.embed_s": med("operators.embed"),
        "operators.embed_calls": _ratio(
            sum(1 for i in idx("operators.embed") if _under(spans, i, "scheduler.verify_schedule")),
            len(idx("scheduler.verify_schedule")),
        ),
        "transport.plan_transport_s": med("transport.plan_transport"),
        "transport.plan_transport_calls": _ratio(
            sum(1 for i in idx("transport.plan_transport") if _under(spans, i, "scheduler.compile_circuit")),
            len(idx("scheduler.compile_circuit")),
        ),
        "scheduler.parse_circuit_s_per_gate": _ratio(
            total("scheduler.parse_circuit"), info_sum("scheduler.parse_circuit", "gates")
        ),
        "scheduler.compile_self_s_per_gate": _ratio(
            total("scheduler.compile_circuit", own), info_sum("scheduler.compile_circuit", "gates")
        ),
        "scheduler.primitives_per_gate": _ratio(
            info_sum("scheduler.compile_circuit", "primitives"), info_sum("scheduler.compile_circuit", "gates")
        ),
        "scheduler.logical_unitary_s": med("scheduler.logical_unitary"),
        "scheduler.verify_self_s": med("scheduler.verify_schedule", own),
        "scheduler.schedule_to_json_s_per_primitive": _ratio(
            total("scheduler.schedule_to_json"), info_sum("scheduler.schedule_to_json", "primitives")
        ),
        "scheduler.schedule_from_json_s_per_primitive": _ratio(
            total("scheduler.schedule_from_json"), info_sum("scheduler.schedule_from_json", "primitives")
        ),
        "scheduler.budget_s": med("scheduler.budget"),
    }
    for n in (1, 2, 3):
        calls = [i for i in idx(sim) if spans[i]["n_qubits"] == n]
        out[f"scheduler.simulate_s_per_primitive.n{n}"] = _ratio(
            sum(dur[i] for i in calls), sum(spans[i]["primitives"] for i in calls)
        )
    return out


def _under(spans: list[dict], index: int, ancestor: str) -> bool:
    parent = spans[index]["parent"]
    while parent >= 0:
        if spans[parent]["name"] == ancestor:
            return True
        parent = spans[parent]["parent"]
    return False
