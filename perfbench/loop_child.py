"""Run one ``latentqubo run-loop`` in a process of its own.

The process does nothing but import the program and run the loop, so its
peak resident memory is the loop's.  It writes a JSON report: exit code,
wall time of the command, peak RSS and, with ``--trace``, the spans, the
verification of every returned energy and the run history.

    PYTHONPATH=src:perfbench python3 perfbench/loop_child.py \
        --config run.ini --out out --report report.json [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """This process's resident high-water mark.

    VmHWM belongs to the memory map exec created, so unlike getrusage's
    ru_maxrss it does not inherit the parent's size at fork.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from latentqubo.cli import main as cli_main

    tracer = None
    span = contextlib.nullcontext()
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        span = tracer.span("cli.run_loop")
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        with span:
            code = cli_main(["run-loop", "--config", args.config, "--out", args.out])
        loop_s = time.perf_counter() - start
    report = {
        "exit_code": code,
        "loop_s": loop_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None and code == 0:
        history = tracer.states[0].history
        gaps = [rec.surrogate_error for rec in history if not math.isnan(rec.surrogate_error)]
        report.update(
            spans=tracer.spans,
            verification=tracer.verify_samples(),
            surrogate_gaps=gaps,
            stagnant_iterations=sum(math.isnan(rec.mean_fom) for rec in history),
            designs_added=sum(tag.startswith("iter") for tag in tracer.states[0].dataset.provenance),
        )
    with open(args.report, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
