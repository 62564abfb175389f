#!/usr/bin/env python3
"""spinbus benchmark: one closed-loop client, one workload per run.

Run from the root of a source checkout (the package is used from ``src``,
not installed):

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 25 --trace 0

Workloads (BENCHMARK.json gates the first two; perfbench/README.md says why
``compile_verify`` is measured but not gated):

* ``cli_cold``       fresh ``python -m spinbus.cli`` processes: tables (red,
                     blue json), transport, quadrature scan, compile, simulate
* ``gatecheck_mc``   fresh-process gatecheck and Monte Carlo scan
* ``compile_verify`` in-process parse -> compile -> budget -> JSON round trip
                     -> verify over seeded random circuits

``--trace 0`` measures the named workload with no instrumentation and
prints the end-to-end metrics.  ``--trace 1`` runs one untraced and one
traced cycle of every workload, so every layer is reached whatever the
workload, and prints the per-layer metrics.  Every output is checked; the
last stdout line is the JSON result, earlier ``#`` lines are diagnostics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import checks
import inputs
import spans as spanlib

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli_cold", "gatecheck_mc", "compile_verify")
SETUP_REPEATS = 2  # set-up samples before each measured cycle
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 120


def log(msg: str) -> None:
    print(f"# {msg}", flush=True)


class Op:
    """One request of a workload: a CLI command or one circuit."""

    def __init__(self, name, argv=(), out_file=None, circuit=None):
        self.name = name
        self.argv = list(argv)
        self.out_file = out_file
        self.circuit = circuit


class CliWorkload:
    """Each op is a fresh ``python -m spinbus.cli`` process."""

    def __init__(self, name: str, seed: int, root: Path, tmp: Path):
        self.name = name
        self.root = root
        self.env = make_env(root)
        self.spans_file = tmp / f"{name}-spans.json"
        self.reference = None
        if name == "cli_cold":
            circuit = inputs.cli_circuit(seed)
            circuit_file, self.schedule_file = tmp / "circuit.txt", tmp / "schedule.json"
            circuit_file.write_text(circuit.text)
            self.ops = [
                Op("tables_red", ["tables", "--lattice", "red"]),
                Op("tables_blue_json", ["tables", "--lattice", "blue", "--format", "json"]),
                Op("transport", ["transport", "--budget", inputs.TRANSPORT_BUDGET]),
                Op("scan", ["scan", *inputs.QUAD_SCAN]),
                Op("compile", ["compile", str(circuit_file), "--out", str(self.schedule_file)], self.schedule_file,
                   circuit),
                Op("simulate", ["simulate", str(self.schedule_file)]),
            ]
            self.description = {"circuit": circuit.text}
        else:
            seed_mc = inputs.mc_seed(seed)
            self.ops = [
                Op("gatecheck", ["gatecheck"]),
                Op("scan_mc", ["scan", *inputs.MC_SCAN, "--mode", "mc", "--samples", inputs.MC_SAMPLES,
                               "--seed", str(seed_mc)]),
            ]
            self.description = {"mc_seed": seed_mc}
        self.description["argv"] = [[a.replace(str(tmp), "$TMP") for a in op.argv] for op in self.ops]

    def prepare(self) -> list[str]:
        """Untimed reference outputs the checks need."""
        if self.name != "gatecheck_mc":
            return []
        proc = self._spawn(["-m", "spinbus.cli", "scan", *inputs.MC_SCAN])
        if proc.returncode != 0:
            return [f"reference quadrature scan exited {proc.returncode}: {proc.stderr[-300:]!r}"]
        self.reference = proc.stdout.decode()
        return []

    def _spawn(self, args):
        return subprocess.run([sys.executable, *args], cwd=self.root, env=self.env, capture_output=True,
                              timeout=CHILD_TIMEOUT_S)

    def run(self, op: Op, traced: bool = False):
        """Returns (seconds, output, error, spans); output is stdout, or the
        --out file; spans is None unless traced."""
        if traced:
            args = [str(HERE / "child.py"), "cli", str(self.spans_file), *op.argv]
        else:
            args = ["-m", "spinbus.cli", *op.argv]
        self.spans_file.unlink(missing_ok=True)
        t0 = perf_counter()
        try:
            proc = self._spawn(args)
        except subprocess.TimeoutExpired:
            return perf_counter() - t0, None, f"timed out after {CHILD_TIMEOUT_S} s", None
        seconds = perf_counter() - t0
        spans = json.loads(self.spans_file.read_text()) if self.spans_file.exists() else None
        if proc.returncode != 0:
            return seconds, None, f"exit {proc.returncode}: {proc.stderr.decode()[-300:]!r}", spans
        out = op.out_file.read_bytes() if op.out_file else proc.stdout
        return seconds, out, None, spans

    def check(self, op: Op, out: bytes) -> list[str]:
        text = out.decode()
        if op.name in ("tables_red", "scan", "scan_mc"):
            bad = checks.csv_problems(text)
            rows = len(checks.csv_rows(text))
            if op.name != "tables_red" and rows != _points(op):
                bad.append(f"{rows} rows, expected {_points(op)}")
            if op.name == "scan_mc":
                bad += checks.mc_problems(text, self.reference or "")
            return bad
        doc, bad = checks.json_problems(text)
        if doc is None:
            return bad
        if op.name == "transport" and not doc.get("p_exact", math.inf) <= float(inputs.TRANSPORT_BUDGET):
            bad.append(f"p_exact {doc.get('p_exact')} over the budget {inputs.TRANSPORT_BUDGET}")
        if op.name == "compile" and len(doc.get("circuit", ())) != len(op.circuit.gates):
            bad.append(f"schedule holds {len(doc.get('circuit', ()))} gates, circuit has {len(op.circuit.gates)}")
        if op.name == "simulate" and doc.get("matches") is not True:
            bad.append(f"simulate reports matches={doc.get('matches')!r}")
        if op.name == "gatecheck" and doc.get("pass") is not True:
            bad.append(f"gatecheck reports pass={doc.get('pass')!r}")
        return bad

    def span_problems(self, op: Op, out: bytes, spans: list[dict]) -> list[str]:
        """Span counts must equal what the inputs and outputs imply."""
        names = [s["name"] for s in spans]
        if op.name == "gatecheck":
            want = 2 * len(json.loads(out).get("rwa_scan", ()))  # each scan point evolves twice (step doubling)
            got = names.count("operators.evolve_td")
            return [] if got == want else [f"{got} evolve_td spans, expected {want}"]
        if op.name in ("scan", "scan_mc"):
            fn = "interactions.dipolar_average" + ("_mc" if op.name == "scan_mc" else "")
            want = _points(op)
            got = names.count(fn)
            return [] if got == want else [f"{got} {fn} spans, expected {want}"]
        if op.name == "compile":
            moves = sum(p.get("kind") == "move" for p in json.loads(out).get("primitives", ()))
            return _compile_span_problems(spans, [moves])
        if op.name == "simulate":
            schedule = json.loads(self.schedule_file.read_text())
            return _simulate_span_problems(spans, [len(schedule.get("primitives", ()))])
        return []


def _points(op: Op) -> int:
    return int(op.argv[op.argv.index("--points") + 1])


class CompileVerifyWorkload:
    """In-process compile and verify of seeded random circuits."""

    def __init__(self, seed: int):
        self.ops = [Op(f"circuit{i:02d}", circuit=c) for i, c in enumerate(inputs.compile_verify_circuits(seed))]
        self.description = {"circuits": [[c.text, c.swap_primitive, c.single_bit_mode] for c in
                                         (op.circuit for op in self.ops)]}

    def prepare(self) -> list[str]:
        from spinbus import scheduler

        self.scheduler = scheduler
        warm = inputs.warmup_circuit()
        _, out, err, _ = self.run(Op("warm-up", circuit=warm))
        bad = [err] if err else self.check(Op("warm-up", circuit=warm), out)
        return [f"warm-up: {msg}" for msg in bad]

    def run(self, op: Op, traced: bool = False):
        """Returns (seconds, output, error, spans); spans is None unless traced."""
        tracer = spanlib.Tracer()
        if traced:
            tracer.install()
        try:
            seconds, out, err = self._pipeline(op.circuit)
        finally:
            tracer.remove()
        return seconds, out, err, tracer.spans if traced else None

    def _pipeline(self, c):
        sch = self.scheduler
        t0 = perf_counter()
        try:
            gates = sch.parse_circuit(c.text)
            params = sch.CompileParams(swap_primitive=c.swap_primitive, single_bit_mode=c.single_bit_mode)
            schedule = sch.compile_circuit(gates, sch.Register(n_qubits=c.n_qubits), params)
            report = sch.budget(schedule, inputs.CV_RATES_HZ).as_dict()
            text = sch.schedule_to_json(schedule)
            loaded = sch.schedule_from_json(text)
            verdict = sch.verify_schedule(loaded)
        except Exception as exc:  # one failed circuit must not stop the loop
            return perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
        return perf_counter() - t0, (schedule, loaded, report, text, verdict), None

    def check(self, op: Op, out) -> list[str]:
        schedule, loaded, report, text, verdict = out
        bad = [f"non-finite number at {p}" for p in checks.nonfinite([report, verdict])]
        if verdict.get("matches") is not True:
            bad.append(f"verify_schedule reports matches={verdict.get('matches')!r}")
        if loaded != schedule:
            bad.append("schedule changed in the JSON round trip")
        simulated = self.scheduler.simulate_schedule(loaded)
        bad += checks.schedule_problems(simulated, op.circuit, loaded.register.n_headers, loaded.global_phase_rad)
        return bad

    def span_problems(self, op: Op, out, spans: list[dict]) -> list[str]:
        schedule = out[0]
        moves = sum(p.kind == "move" for p in schedule.primitives)
        return _compile_span_problems(spans, [moves]) + _simulate_span_problems(spans, [len(schedule.primitives)])


def _compile_span_problems(spans, moves_per_compile) -> list[str]:
    compiles = [i for i, s in enumerate(spans) if s["name"] == "scheduler.compile_circuit"]
    if len(compiles) != len(moves_per_compile):
        return [f"{len(compiles)} compile_circuit spans, expected {len(moves_per_compile)}"]
    bad = []
    for i, want in zip(compiles, moves_per_compile):
        got = len(spanlib.children(spans, i, "transport.plan_transport"))
        if got != want:
            bad.append(f"{got} plan_transport spans under compile_circuit, schedule has {want} moves")
    return bad


def _simulate_span_problems(spans, primitives) -> list[str]:
    sims = [s for s in spans if s["name"] == "scheduler.simulate_schedule"]
    got = [s["primitives"] for s in sims]
    return [] if got == primitives else [f"simulated primitives {got}, schedule has {primitives}"]


def make_workload(name: str, seed: int, root: Path, tmp: Path):
    return CompileVerifyWorkload(seed) if name == "compile_verify" else CliWorkload(name, seed, root, tmp)


class Ledger:
    """Attempted and failed operations; keeps the first output of each op
    for the repeat check and reports every problem on stdout."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = 0
        self.first: dict[tuple, object] = {}

    def record(self, workload, op: Op, out, err) -> None:
        self.attempted += 1
        key = (id(workload), op.name)
        if err is not None:
            bad = [err]
        elif key not in self.first:
            bad = workload.check(op, out)
            self.first[key] = _comparable(out)
        else:
            bad = [] if _comparable(out) == self.first[key] else ["output differs from the first run of this op"]
        for msg in bad:
            log(f"FAILED {op.name}: {msg}")
        self.failed += bool(bad)

    def problem(self, msg: str) -> None:
        self.problems += 1
        log(f"FAILED {msg}")


def _comparable(out):
    """CLI output bytes, or the schedule JSON and verdict of a circuit."""
    return out if isinstance(out, bytes) else (out[3], out[4])


def run_cycle(workload, ledger: Ledger, times: dict, traced_spans: list | None = None) -> None:
    """Runs and checks every op once.  With ``traced_spans`` the ops run
    traced, their span counts are cross-checked and (op, spans) pairs are
    appended.  Outputs are dropped after their check, so the heap does not
    grow with the cycle."""
    for op in workload.ops:
        seconds, out, err, spans = workload.run(op, traced_spans is not None)
        times.setdefault(op.name, []).append(seconds)
        ledger.record(workload, op, out, err)
        if traced_spans is None:
            continue
        if err is None:
            for msg in workload.span_problems(op, out, spans) if spans is not None else ["no spans written"]:
                ledger.problem(f"{op.name} (traced): {msg}")
        traced_spans.append((op, spans or []))


def within(seconds: float):
    """Yields once per cycle; a further cycle starts only if one as long as
    the longest so far still ends within ``seconds``.  At least one runs."""
    t0 = perf_counter()
    longest = 0.0
    while True:
        start = perf_counter()
        yield
        longest = max(longest, perf_counter() - start)
        if perf_counter() - t0 + longest > seconds:
            return


def setup_seconds(workload: str, seed: int, root: Path, env: dict) -> list[float]:
    """Wall times of SETUP_REPEATS fresh set-up processes."""
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, str(HERE / "child.py"), "setup", workload, str(seed)], cwd=root, env=env,
                       check=True, capture_output=True, timeout=CHILD_TIMEOUT_S)
        out.append(perf_counter() - t0)
    return out


def measure(name: str, seed: int, seconds: float, root: Path, tmp: Path, ledger: Ledger) -> dict:
    env = make_env(root)
    workload = make_workload(name, seed, root, tmp)
    log_inputs(workload)
    for msg in workload.prepare():
        ledger.problem(msg)
    times: dict[str, list[float]] = {}
    setups: list[float] = []
    for _ in within(seconds):
        # Set-up samples spread over the run, so a slow spell of the host
        # weighs on them no more than on the cycles.
        setups += setup_seconds(name, seed, root, env)
        run_cycle(workload, ledger, times)
    log(f"setup p50 {statistics.median(setups):.4f} s over {len(setups)} set-ups")
    for op in workload.ops:
        log(f"op {op.name}: p50 {statistics.median(times[op.name]):.4f} s over {len(times[op.name])} runs")
    all_times = [t for ts in times.values() for t in ts]
    if name == "compile_verify":
        gates = sum(len(op.circuit.gates) * len(times[op.name]) for op in workload.ops)
        q = statistics.quantiles(all_times, n=10)
        log(f"gates_per_s {gates / sum(all_times):.1f}, circuit p50 {statistics.median(all_times):.4f} s, "
            f"p90 {q[-1]:.4f} s over {len(all_times)} circuits")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": statistics.median(setups),
        "cycle_s": sum(statistics.median(times[op.name]) for op in workload.ops),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def trace(first: str, seed: int, seconds: float, root: Path, tmp: Path, ledger: Ledger) -> dict:
    env = make_env(root)
    imports = [float(_child_stdout([str(HERE / "child.py"), "import"], root, env)) for _ in range(IMPORT_REPEATS)]
    scipy_s = scipy_import_seconds(root, env)
    order = [first] + [w for w in WORKLOADS if w != first]
    workloads = [make_workload(name, seed, root, tmp) for name in order]
    for w in workloads:
        log_inputs(w)
        for msg in w.prepare():
            ledger.problem(msg)
    untraced_s = traced_s = 0.0
    all_spans: list[dict] = []
    counts = {"quad_scans": 0, "gatechecks": 0}
    for _ in within(seconds):
        for w in workloads:
            plain: dict[str, list[float]] = {}
            traced: dict[str, list[float]] = {}
            run_cycle(w, ledger, plain)
            op_spans: list[tuple] = []
            run_cycle(w, ledger, traced, op_spans)
            for op, spans in op_spans:
                counts["quad_scans"] += op.name == "scan"
                counts["gatechecks"] += op.name == "gatecheck"
                _append_spans(all_spans, spans)
            untraced_s += sum(t for ts in plain.values() for t in ts)
            traced_s += sum(t for ts in traced.values() for t in ts)
    metrics = {
        "cli.import_s": statistics.median(imports),
        "cli.import_scipy_s": scipy_s,
        **spanlib.layer_metrics(all_spans, counts),
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
    }
    log(f"tracing overhead: traced {traced_s:.3f} s vs untraced {untraced_s:.3f} s for the same ops")
    return metrics


def _append_spans(dest: list[dict], spans: list[dict]) -> None:
    offset = len(dest)
    for s in spans:
        dest.append(dict(s, parent=s["parent"] + offset if s["parent"] >= 0 else -1))


def scipy_import_seconds(root: Path, env: dict) -> float:
    """Import time of the scipy modules spinbus uses, as -X importtime reports
    it: summed cumulative time of the outermost scipy entries."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import spinbus.cli, scipy.integrate, scipy.special"],
        cwd=root, env=env, capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
    )
    total_us = 0
    stack: list[str] = []
    for line in reversed(proc.stderr.splitlines()):
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        del stack[depth:]
        if name.split(".")[0] == "scipy" and not any(n.split(".")[0] == "scipy" for n in stack):
            total_us += int(cumulative)
        stack.append(name)
    return total_us / 1e6


def _child_stdout(args, root: Path, env: dict) -> str:
    return subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S).stdout


def make_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return env


def log_inputs(workload) -> None:
    log(f"inputs sha256 {inputs.digest(workload.description)}")


def provenance(root: Path, args) -> dict:
    import numpy

    git = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        git = proc.stdout.strip() or None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                               "BLIS_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")},
        "git_commit": git,
        "source_sha256": inputs.digest({p.name: p.read_text() for p in sorted((root / "src/spinbus").glob("*.py"))}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_file = root / "BENCHMARK.json"
    if not (root / "src" / "spinbus" / "cli.py").is_file() or not spec_file.is_file():
        print("perfbench: run from the root of a spinbus checkout (src/spinbus and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(root / "src"))

    log("provenance " + json.dumps(provenance(root, args), sort_keys=True))
    ledger = Ledger()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        run = trace if args.trace else measure
        values = run(args.workload, args.seed, args.seconds, root, Path(tmp), ledger)

    if set(values) != {m["name"] for m in wanted}:
        ledger.problem(f"metrics {sorted(set(values) ^ {m['name'] for m in wanted})} do not match BENCHMARK.json")
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], float("nan"))
        if not math.isfinite(value):
            ledger.problem(f"metric {m['name']} is {value}")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {
        "correct": ledger.failed == 0 and ledger.problems == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
