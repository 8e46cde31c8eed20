#!/usr/bin/env python3
"""Pair perfbench runs of a parent commit and a head commit, and write every run's raw record.

Each side runs from a local clone of this repository checked out at its commit, so perfbench
builds and runs that commit's committed files and records its git SHA.  For each workload,
PAIRS pairs of ``perfbench/run.py --workload W --seed 1 --seconds 15`` alternate which side
runs first: the parent in odd pairs, the head in even ones.  Each run's result record, as
run.py writes it under ``.perfbench/results/``, is tagged with its side, its pair and that
side's SHA, and the list of records is written to --out after every run, so an interrupted
script keeps the runs it finished.  At the end it prints, per workload, each side's median and
quartiles of every end-to-end metric that BENCHMARK.json names, and in how many pairs the head
did better than the parent by that metric's ``better`` (a tie counts for neither side).

    python3 scripts/bench_pairs.py --parent HEAD~1 --head HEAD --out bench.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = ("toy_loop", "wide_latent", "fit_heavy")
PAIRS = 10  # the fewest pairs from which a gain may be claimed
SEED = 1
SECONDS = 15


def git(*args: str, cwd: Path = REPO) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def checkout(sha: str, directory: Path) -> Path:
    """A clone of this repository at sha, detached, in directory, with its kernels built, so
    that no run's set-up includes the compiler."""
    git("clone", "--quiet", "--no-checkout", str(REPO), str(directory))
    git("checkout", "--quiet", "--detach", sha, cwd=directory)
    subprocess.run([sys.executable, "-c", "import latentqubo._native as n; n.library()"],
                   cwd=directory, env={**os.environ, "PYTHONPATH": "src"}, check=True)
    return directory


def run(clone: Path, workload: str) -> dict:
    """One perfbench run in clone; its result record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(SECONDS)]
    proc = subprocess.run(argv, cwd=clone, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {clone} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    results = clone / ".perfbench" / "results" / f"{workload}-seed{SEED}-trace0.json"
    return json.loads(results.read_text())


def end_to_end() -> list[dict]:
    """BENCHMARK.json's end-to-end metrics, each with its name and which way is ``better``."""
    return json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]


def summary(records: list[dict], metrics: list[dict]) -> list[str]:
    """Per workload and metric, one line per side, the median [first-third quartile], and one
    line with the pairs in which the head did better than the parent."""
    lines = []
    for workload in WORKLOADS:
        runs = {(r["side"], r["pair"]): r["metrics"] for r in records if r["workload"] == workload}
        for metric in metrics:
            name = metric["name"]
            for side in ("parent", "head"):
                values = [run[name]["value"] for (s, _), run in runs.items() if s == side]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                lines.append(f"{workload} {side} {name}: {q2:.4f} [{q1:.4f}-{q3:.4f}] "
                             f"over {len(values)} runs")
            sign = 1 if metric["better"] == "higher" else -1
            diffs = [sign * (runs["head", p][name]["value"] - runs["parent", p][name]["value"])
                     for s, p in runs if s == "head" and ("parent", p) in runs]
            lines.append(f"{workload} {name}: head better in {sum(d > 0 for d in diffs)} of "
                         f"{len(diffs)} pairs, worse in {sum(d < 0 for d in diffs)}")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD~1", help="the parent revision")
    parser.add_argument("--head", default="HEAD", help="the head revision")
    parser.add_argument("--out", required=True, help="the JSON file of raw records")
    args = parser.parse_args()
    metrics = end_to_end()
    shas = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in (("parent", args.parent), ("head", args.head))}
    out = Path(args.out).resolve()
    records = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as work:
        clones = {side: checkout(sha, Path(work, side)) for side, sha in shas.items()}
        for workload in WORKLOADS:
            for pair in range(1, PAIRS + 1):
                order = ("parent", "head") if pair % 2 else ("head", "parent")
                for side in order:
                    result = run(clones[side], workload)
                    records.append({"side": side, "pair": pair, "sha": shas[side], **result})
                    out.write_text(json.dumps(records, indent=1) + "\n")
                    loop = result["metrics"]["loop_s"]["value"]
                    rss = result["metrics"]["peak_rss_mb"]["value"]
                    print(f"{workload} pair {pair} {side}: loop_s {loop:.4f}, "
                          f"peak_rss_mb {rss:.2f}", flush=True)
    print("\n".join(summary(records, metrics)))


if __name__ == "__main__":
    main()
