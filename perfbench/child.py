"""Child-process entry points of the benchmark; run.py starts these with
PYTHONPATH pointing at the source tree.

    python child.py setup <workload> <seed>    one benchmark set-up
    python child.py import                     print the import time of spinbus.cli
    python child.py cli <spans.json> ARGS      run one CLI command with spans on
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def setup(workload: str, seed: int) -> None:
    """One benchmark set-up: import what the workload uses, build its inputs
    and, in process, compile and verify a warm-up circuit."""
    import inputs

    if workload == "compile_verify":
        from spinbus import scheduler

        inputs.compile_verify_circuits(seed)
        warm = inputs.warmup_circuit()
        schedule = scheduler.compile_circuit(
            scheduler.parse_circuit(warm.text), scheduler.Register(n_qubits=warm.n_qubits)
        )
        scheduler.verify_schedule(scheduler.schedule_from_json(scheduler.schedule_to_json(schedule)))
    else:
        import spinbus.cli  # noqa: F401  (the import every command pays)

        inputs.cli_circuit(seed)
        inputs.mc_seed(seed)


def traced_cli(spans_path: str, argv: list[str]) -> int:
    import spinbus.cli
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return spinbus.cli.main(argv)
    finally:
        tracer.remove()
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        setup(argv[1], int(argv[2]))
        return 0
    if mode == "import":
        t0 = perf_counter()
        import spinbus.cli  # noqa: F401

        print(repr(perf_counter() - t0))
        return 0
    if mode == "cli":
        return traced_cli(argv[1], argv[2:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
