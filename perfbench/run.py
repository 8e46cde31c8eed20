#!/usr/bin/env python3
"""Benchmark of the latent-QUBO loop, end to end through the ``latentqubo`` command.

    python3 perfbench/run.py --workload toy_loop --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; nothing needs installing.  Set-up
(``gen-corpus``, ``train-bvae``, ``gen-dataset``) runs in this process through
``latentqubo.cli.main`` and is repeated to report a median.  Each ``run-loop``
runs in a fresh child process (perfbench/loop_child.py) that does nothing
else, so its peak memory is the loop's; loops repeat until ``--seconds`` have
passed.  Every output is checked against perfbench/checks.py.

With ``--trace 1`` the run is a separate traced run instead: one traced
set-up, then pairs of an untraced and a traced loop, and it reports the
per-layer metrics of perfbench/tracing.py and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is one
set-up command or one loop iteration.
"""

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

NPROC = len(os.sched_getaffinity(0))
# One process works at a time; BLAS may use every core it is given.  The cap
# must be set before numpy is first imported, here and in the loop's children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import numpy  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
END_TO_END_UNITS = {"setup_s": "s", "loop_s": "s", "designs_per_s": "1/s", "best_fom": "fom", "peak_rss_mb": "MB"}


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the loop phase measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def load_program():
    """Import latentqubo from this checkout's src/, never from anywhere else."""
    if not (SRC / "latentqubo" / "cli.py").is_file():
        sys.exit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import latentqubo.cli

    if Path(latentqubo.cli.__file__).resolve().parent != SRC / "latentqubo":
        sys.exit(f"perfbench: latentqubo was imported from {latentqubo.cli.__file__}")
    return latentqubo.cli.main


def blas_threads():
    for lib_path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(lib_path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def environment_stamp(loadavg):
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_sha": git_sha(),
        "loadavg_start": list(loadavg),
    }


class Operations:
    """Counts attempted and failed operations and keeps the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.append(f"{label}: {'; '.join(problems)}")


def run_cli(cli_main, argv, tracer=None):
    """Run one latentqubo command in this process; a raise counts like a non-zero exit."""
    span = tracer.span("cli." + argv[0].replace("-", "_")) if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(io.StringIO()), span:
        try:
            return cli_main(argv)
        except Exception as exc:  # the operation failed; the run goes on to report it
            return f"raised {exc!r}"


def run_setup(cli_main, wl, seed, directory, ops, reference=None, tracer=None):
    """Run the three set-up commands into directory; return their wall time."""
    wl.write_inputs(directory, seed)
    commands = wl.setup_commands(directory, seed)
    start = time.perf_counter()
    codes = [run_cli(cli_main, argv, tracer) for argv in commands]
    elapsed = time.perf_counter() - start
    failures = checks.check_setup(wl, directory) if all(c == 0 for c in codes) else {}
    outputs = ("corpus.txt", "bvae.txt", "dataset.txt")
    for k, argv in enumerate(commands):
        problems = [] if codes[k] == 0 else [f"exit {codes[k]}"]
        problems += failures.get(k, [])
        if reference is not None and codes[k] == 0 and \
                (directory / outputs[k]).read_bytes() != (reference / outputs[k]).read_bytes():
            problems.append(f"{outputs[k]} differs from the first set-up's")
        ops.record(f"set-up {argv[0]}", problems)
    return elapsed


def run_loop_child(setup_dir, out_dir, trace):
    report_path = out_dir.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "loop_child.py"), "--config", str(setup_dir / "run.ini"),
           "--out", str(out_dir), "--report", str(report_path)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S, capture_output=True, text=True)
    if proc.returncode != 0 or not report_path.is_file():
        return {"exit_code": f"child exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    return json.loads(report_path.read_text())


class Loop:
    """Runs run-loop repetitions on one set-up and checks each one's outputs."""

    ARTIFACTS = ("convergence.csv", "dataset_final.txt", "fm_final.txt", "best_design_bits.txt", "best_design.pgm")

    def __init__(self, wl, setup_dir, work, ops):
        self.wl, self.setup_dir, self.work, self.ops = wl, setup_dir, work, ops
        try:
            self.decoder = checks.Decoder.load(setup_dir / "bvae.txt")
        except (OSError, ValueError, IndexError):
            self.decoder = None  # set-up failed; its commands already count as failed
        self.reference = None
        self.count = 0

    def run(self, trace):
        out = self.work / f"loop{self.count}"
        self.count += 1
        report = run_loop_child(self.setup_dir, out, trace)
        wl = self.wl
        if report["exit_code"] != 0:
            failures = {checks.WHOLE_RUN: [f"run-loop exit {report['exit_code']}"]}
        elif self.decoder is None:
            failures = {checks.WHOLE_RUN: ["no readable checkpoint to check the outputs against"]}
        else:
            failures = checks.check_loop(wl, self.setup_dir, out, self.decoder)
            artifacts = [(out / name).read_bytes() for name in self.ARTIFACTS]
            if self.reference is None:
                self.reference = artifacts
            elif artifacts != self.reference:
                failures[checks.WHOLE_RUN].append("outputs differ from the first loop's on the same inputs")
            if trace and report["verification"]["energy_mismatches"]:
                failures[checks.WHOLE_RUN].append(
                    f"{report['verification']['energy_mismatches']} returned energies differ from "
                    "the QUBO and FM recomputation")
            final = checks.Dataset.load(out / "dataset_final.txt")
            report["designs"] = sum(tag.startswith("iter") for tag in final.tags)
            report["best_fom"] = checks.load_convergence(out / "convergence.csv")[-1]["running_max_fom"]
            report["dataset_bytes"] = (out / "dataset_final.txt").stat().st_size
        whole = failures.get(checks.WHOLE_RUN, [])
        for i in range(wl.iterations):
            self.ops.record(f"loop {self.count - 1} iteration {i}", whole + failures.get(i, []))
        shutil.rmtree(out, ignore_errors=True)
        return report


def timed_run(cli_main, wl, args, work, ops):
    setup_times = []
    first = work / "setup0"
    for k in range(SETUP_REPEATS):
        directory = work / f"setup{k}"
        setup_times.append(run_setup(cli_main, wl, args.seed, directory, ops, None if k == 0 else first))
    loop = Loop(wl, first, work, ops)
    reports = []
    start = time.perf_counter()
    while not reports or time.perf_counter() - start < args.seconds:
        reports.append(loop.run(trace=False))
    good = [r for r in reports if "designs" in r]
    values = {"setup_s": statistics.median(setup_times)}
    if good:
        values.update(
            loop_s=statistics.median(r["loop_s"] for r in good),
            designs_per_s=statistics.median(r["designs"] / r["loop_s"] for r in good),
            best_fom=good[0]["best_fom"],
            peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in good),
        )
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}
    detail = {"setup_s": setup_times, "loop_s": [r.get("loop_s") for r in reports]}
    return metrics, detail, []


def traced_run(cli_main, wl, args, work, ops):
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        directory = work / "setup0"
        run_setup(cli_main, wl, args.seed, directory, ops, tracer=tracer)
    finally:
        undo()
    setup_spans = tracer.spans
    loop = Loop(wl, directory, work, ops)
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        untraced.append(loop.run(trace=False))
        traced.append(loop.run(trace=True))
    good = [r for r in traced if "designs" in r]
    baseline = [r["loop_s"] for r in untraced if "designs" in r]
    overhead = statistics.median(r["loop_s"] for r in good) - statistics.median(baseline) \
        if good and baseline else None
    per_rep = []
    missing: set[str] = set()
    for r in good:
        hits = r["verification"]["optimum_hits"]
        extra = {
            "samplers.sa.optimum_hit_ratio": sum(hits) / len(hits) if hits else None,
            "fm.surrogate_gap_p50": statistics.median(r["surrogate_gaps"]) if r["surrogate_gaps"] else None,
            "bvae.checkpoint.bytes": (directory / "bvae.txt").stat().st_size,
            "dataset.bytes": r["dataset_bytes"],
            "images.bytes": (directory / "corpus.txt").stat().st_size,
            "pipeline.designs_added": r["designs_added"],
            "pipeline.stagnant_iterations": r["stagnant_iterations"],
            "trace.overhead_s": overhead,
        }
        metrics, absent = tracing.derive(setup_spans, r["spans"], extra, wl.not_exercised())
        per_rep.append(metrics)
        missing.update(absent)
    metrics = {}
    for name in (per_rep[0] if per_rep else {}):
        if name not in missing:
            values = [m[name]["value"] for m in per_rep]
            # counts stay whole numbers
            middle = statistics.median_low(values) if all(isinstance(v, int) for v in values) \
                else statistics.median(values)
            metrics[name] = {"value": middle, "unit": per_rep[0][name]["unit"]}
    detail = {
        "loop_s_untraced": [r.get("loop_s") for r in untraced],
        "loop_s_traced": [r.get("loop_s") for r in traced],
        "layer_self_s_setup": tracing.layer_self_seconds(setup_spans),
        "layer_self_s_loop": tracing.layer_self_seconds(good[0]["spans"]) if good else {},
        "energies_checked": sum(r["verification"]["energies_checked"] for r in good),
        "not_exercised": list(wl.not_exercised()),
        "spans_setup": setup_spans,
        "spans_loop": good[0]["spans"] if good else [],
    }
    return metrics, detail, sorted(missing)


def main():
    loadavg = os.getloadavg()
    args = parse_args()
    cli_main = load_program()
    wl = WORKLOADS[args.workload]
    stamp = environment_stamp(loadavg)
    work = STATE_DIR / f"work-{wl.name}-{args.seed}-{os.getpid()}"
    ops = Operations()
    try:
        work.mkdir(parents=True)
        measure = traced_run if args.trace else timed_run
        metrics, detail, missing = measure(cli_main, wl, args, work, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": not missing, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": stamp, "failures": ops.messages, "missing": missing, "detail": detail, **result}
    results = STATE_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({"environment": stamp}))
    for message in ops.messages:
        print(f"FAILED {message}")
    if args.trace:
        print(json.dumps({"not_exercised": detail["not_exercised"], "missing": missing,
                          "layer_self_s_loop": detail["layer_self_s_loop"],
                          "tracing_overhead_s": metrics.get("trace.overhead_s", {}).get("value")}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
