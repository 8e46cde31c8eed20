"""Spans recorded from outside the program, and the per-layer metrics derived from them.

``install`` replaces public functions with timing wrappers in the module
namespaces where the program looks them up (``latentqubo.cli``,
``latentqubo.pipeline``, ``latentqubo.objectives`` and, for ``qubo_energy``,
``latentqubo.samplers``) and on ``LabeledDataset``.  Each call becomes a span:
name, start, end, parent span and run id.  Spans stay in memory; the caller
writes them out when the run ends.  Nothing under ``src/`` changes.

A span name starts with its layer, one of the nine modules.  A per-layer
metric whose span never fires on a workload that should run it is reported
as missing: a refactor that routes around a wrapped name must not read as a
speed-up.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager

import numpy as np

import checks

LAYERS = ("cli", "pipeline", "samplers", "qubo", "fm", "bvae", "dataset", "images", "objectives")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_run = 0
        self._run_id: int | None = None
        # Sampler results and the FM each QUBO came from, verified after the run.
        self.sample_sets: list[tuple[object, object]] = []
        self.qubo_models: dict[int, object] = {}
        self.states: list[object] = []

    @contextmanager
    def span(self, name: str):
        """Open a span; a span with no open parent starts a new run id."""
        if not self._stack:
            self._run_id = self._next_run
            self._next_run += 1
        record = {"id": len(self.spans), "name": name, "parent": self._stack[-1] if self._stack else None,
                  "run": self._run_id, "start": time.perf_counter(), "end": None, "attrs": {}}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, describe=None):
        """Time every call of fn as a span; describe(args, kwargs, result) adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if describe is not None:
                record["attrs"].update(describe(self, args, kwargs, result))
            return result

        return traced

    def verify_samples(self) -> dict:
        """Recompute every returned energy from the QUBO and from the FM that produced it.

        For n <= 16 also enumerate the QUBO to see whether the sampler's best
        state is a global minimum.
        """
        mismatches = checked = 0
        optimum_hits: list[bool] = []
        for q, sample_set in self.sample_sets:
            X = np.stack([e.vector for e in sample_set.entries])
            returned = np.array([e.energy for e in sample_set.entries])
            from_qubo = checks.qubo_values(q.linear, q.quadratic, q.offset, X)
            model = self.qubo_models[id(q)]
            from_fm = checks.fm_values(model.w0, model.w, model.V, X)
            for r, e in enumerate(returned):
                checked += 1
                if not (checks.energy_close(e, from_qubo[r]) and checks.energy_close(e, from_fm[r])):
                    mismatches += 1
            if q.n <= checks.ENUMERATION_MAX_BITS:
                exact = checks.exhaustive_fm_minimum(model.w0, model.w, model.V)
                best = float(returned.min())
                optimum_hits.append(best <= exact or checks.energy_close(best, exact))
        return {"energies_checked": checked, "energy_mismatches": mismatches, "optimum_hits": optimum_hits}


def _sa_attrs(tracer, args, kwargs, result):
    q, schedule = args[0], args[1]
    tracer.sample_sets.append((q, result))
    return {"flips": schedule.num_reads * schedule.num_sweeps * q.n,
            "reads": schedule.num_reads, "distinct": len(result.entries)}


def _bf_attrs(tracer, args, kwargs, result):
    q = args[0]
    tracer.sample_sets.append((q, result))
    return {"states": 1 << q.n}


def _to_qubo_attrs(tracer, args, kwargs, result):
    # the sampled QUBO stays alive in sample_sets, so its id is not reused
    tracer.qubo_models[id(result)] = args[0]
    return {}


def _fm_train_attrs(tracer, args, kwargs, result):
    data, cfg = args[0], args[1]
    # fm_train's split: round(0.7 * rows) training rows, at least one
    n_train = max(1, min(int(np.floor(cfg.split[0] * len(data) + 0.5)), len(data)))
    return {"steps": cfg.epochs * n_train, "test_r2": result[1].test_r2}


def _bvae_train_attrs(tracer, args, kwargs, result):
    images = np.asarray(args[0])
    count = images.shape[0]
    # bvae_train holds back round(0.15 * count) images for validation
    n_train = count - min(int(np.floor(0.15 * count + 0.5)), count - 1)
    epochs = kwargs["epochs"]
    return {"epochs": epochs, "images": epochs * n_train}


def _rows_attrs(tracer, args, kwargs, result):
    return {"rows": len(result)}


def _state_attrs(tracer, args, kwargs, result):
    tracer.states.append(result)
    return {}


def install(tracer: Tracer):
    """Wrap the program's public functions where it looks them up; return an undo function."""
    import latentqubo.cli as cli
    import latentqubo.objectives as objectives
    import latentqubo.pipeline as pipeline
    import latentqubo.samplers as samplers
    from latentqubo.dataset import LabeledDataset

    patches = [
        (cli, "generate_toy_corpus", "objectives.generate_corpus", None),
        (cli, "save_images", "images.save", None),
        (cli, "load_images", "images.load", None),
        (cli, "load_pgm", "images.load_pgm", None),
        (cli, "bvae_train", "bvae.train", _bvae_train_attrs),
        (cli, "save_bvae", "bvae.checkpoint.save", None),
        (cli, "reconstruction_accuracy", "bvae.reconstruction_accuracy", None),
        (cli, "load_bvae", "bvae.checkpoint.load", None),
        (cli, "build_latent_dataset", "objectives.build_dataset", _rows_attrs),
        (cli, "stratify_dataset", "objectives.stratify", None),
        (cli, "save_dataset", "dataset.save", None),
        (cli, "run_pipeline", "pipeline.run", _state_attrs),
        (objectives, "decode", "bvae.decode", None),
        (objectives, "evaluate_fom", "objectives.eval", None),
        (pipeline, "load_bvae", "bvae.checkpoint.load", None),
        (pipeline, "load_dataset", "dataset.load", None),
        (pipeline, "save_dataset", "dataset.save", None),
        (pipeline, "apply_label_transform", "fm.label_transform", None),
        (pipeline, "fm_train", "fm.train", _fm_train_attrs),
        (pipeline, "fm_to_qubo", "fm.to_qubo", _to_qubo_attrs),
        (pipeline, "fm_predict", "fm.predict", None),
        (pipeline, "save_fm", "fm.save", None),
        (pipeline, "simulated_annealing_sample", "samplers.sa", _sa_attrs),
        (pipeline, "brute_force_sample", "samplers.bf", _bf_attrs),
        (pipeline, "decode", "bvae.decode", None),
        (pipeline, "evaluate_fom", "objectives.eval", None),
        (pipeline, "save_pgm", "images.save_pgm", None),
        (pipeline, "bit_flip_augment", "pipeline.bit_flip", None),
        (pipeline, "write_convergence_csv", "pipeline.write_csv", None),
        (pipeline, "run_iteration", "pipeline.iteration", None),
        (samplers, "qubo_energy", "qubo.energy", None),
        (LabeledDataset, "append_rows", "dataset.append", None),
        (LabeledDataset, "contains", "dataset.contains", None),
    ]
    originals = []
    for owner, attr, name, describe in patches:
        original = getattr(owner, attr)
        originals.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, describe))

    def undo() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return undo


# ---------------------------------------------------------------- derivation


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover."""
    own = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= duration(s)
    return own


def layer_self_seconds(spans: list[dict]) -> dict[str, float]:
    own = self_times(spans)
    totals = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        totals[s["name"].split(".")[0]] += own[s["id"]]
    return totals


def _named(spans, name):
    return [s for s in spans if s["name"] == name]


def _p50(spans, scale=1.0):
    return statistics.median(duration(s) for s in spans) * scale


def _rate(spans, attr):
    return sum(s["attrs"][attr] for s in spans) / sum(duration(s) for s in spans)


def _total_self(spans, name):
    own = self_times(spans)
    return sum(own[s["id"]] for s in spans if s["name"] == name)


# (metric, unit, better, phase, span name, value from the matching spans and the phase's spans).
# The phase is "setup" (the traced set-up commands) or "loop" (one traced run-loop).
PER_LAYER = [
    ("samplers.sa.calls", "count", "lower", "loop", "samplers.sa", lambda m, a: len(m)),
    ("samplers.sa.call_s_p50", "s", "lower", "loop", "samplers.sa", lambda m, a: _p50(m)),
    ("samplers.sa.flips_per_s", "1/s", "higher", "loop", "samplers.sa", lambda m, a: _rate(m, "flips")),
    ("samplers.sa.distinct_ratio", "ratio", "higher", "loop", "samplers.sa",
     lambda m, a: sum(s["attrs"]["distinct"] for s in m) / sum(s["attrs"]["reads"] for s in m)),
    ("samplers.sa.optimum_hit_ratio", "ratio", "higher", "loop", "samplers.sa", None),
    ("samplers.bf.call_s_p50", "s", "lower", "loop", "samplers.bf", lambda m, a: _p50(m)),
    ("samplers.bf.states_per_s", "1/s", "higher", "loop", "samplers.bf", lambda m, a: _rate(m, "states")),
    ("qubo.energy.calls", "count", "lower", "loop", "qubo.energy", lambda m, a: len(m)),
    ("qubo.energy.call_us_p50", "us", "lower", "loop", "qubo.energy", lambda m, a: _p50(m, 1e6)),
    ("fm.to_qubo.call_s_p50", "s", "lower", "loop", "fm.to_qubo", lambda m, a: _p50(m)),
    ("fm.train.calls", "count", "lower", "loop", "fm.train", lambda m, a: len(m)),
    ("fm.train.call_s_p50", "s", "lower", "loop", "fm.train", lambda m, a: _p50(m)),
    ("fm.train.steps_per_s", "1/s", "higher", "loop", "fm.train", lambda m, a: _rate(m, "steps")),
    ("fm.train.test_r2_p50", "ratio", "higher", "loop", "fm.train",
     lambda m, a: statistics.median(s["attrs"]["test_r2"] for s in m)),
    ("fm.surrogate_gap_p50", "fom", "lower", "loop", "pipeline.run", None),
    ("bvae.train.epoch_s", "s", "lower", "setup", "bvae.train",
     lambda m, a: sum(map(duration, m)) / sum(s["attrs"]["epochs"] for s in m)),
    ("bvae.train.images_per_s", "1/s", "higher", "setup", "bvae.train", lambda m, a: _rate(m, "images")),
    ("bvae.checkpoint.load_s", "s", "lower", "loop", "bvae.checkpoint.load", lambda m, a: _p50(m)),
    ("bvae.checkpoint.bytes", "bytes", "lower", "loop", "bvae.checkpoint.load", None),
    ("bvae.decode.calls", "count", "lower", "loop", "bvae.decode", lambda m, a: len(m)),
    ("bvae.decode.call_us_p50", "us", "lower", "loop", "bvae.decode", lambda m, a: _p50(m, 1e6)),
    ("objectives.eval.call_us_p50", "us", "lower", "loop", "objectives.eval", lambda m, a: _p50(m, 1e6)),
    ("objectives.build_dataset.rows_per_s", "1/s", "higher", "setup", "objectives.build_dataset",
     lambda m, a: _rate(m, "rows")),
    ("dataset.append.call_s_p50", "s", "lower", "loop", "dataset.append", lambda m, a: _p50(m)),
    ("dataset.contains.calls", "count", "lower", "loop", "dataset.contains", lambda m, a: len(m)),
    ("dataset.contains.call_us_p50", "us", "lower", "loop", "dataset.contains", lambda m, a: _p50(m, 1e6)),
    ("dataset.load_s", "s", "lower", "loop", "dataset.load", lambda m, a: _p50(m)),
    ("dataset.save_s", "s", "lower", "loop", "dataset.save", lambda m, a: _p50(m)),
    ("dataset.bytes", "bytes", "lower", "loop", "dataset.save", None),
    ("images.load_s", "s", "lower", "setup", "images.load", lambda m, a: _p50(m)),
    ("images.save_s", "s", "lower", "setup", "images.save", lambda m, a: _p50(m)),
    ("images.bytes", "bytes", "lower", "setup", "images.save", None),
    ("pipeline.iteration.s_p50", "s", "lower", "loop", "pipeline.iteration", lambda m, a: _p50(m)),
    ("pipeline.iteration.self_s", "s", "lower", "loop", "pipeline.iteration",
     lambda m, a: _total_self(a, "pipeline.iteration")),
    ("pipeline.designs_added", "count", "higher", "loop", "pipeline.run", None),
    ("pipeline.stagnant_iterations", "count", "lower", "loop", "pipeline.run", None),
    ("cli.run_loop.self_s", "s", "lower", "loop", "cli.run_loop", lambda m, a: _total_self(a, "cli.run_loop")),
    ("cli.setup.self_s", "s", "lower", "setup", "cli.gen_dataset",
     lambda m, a: sum(_total_self(a, n) for n in ("cli.gen_corpus", "cli.train_bvae", "cli.gen_dataset"))),
    ("trace.overhead_s", "s", "lower", "loop", "cli.run_loop", None),
]


def derive(setup_spans: list[dict], loop_spans: list[dict], extra: dict[str, float],
           not_exercised: tuple[str, ...]) -> tuple[dict[str, dict], list[str]]:
    """Per-layer metrics from one traced set-up and one traced loop.

    ``extra`` supplies the values that do not come from span timings (file
    sizes, verification results, run history).  Returns the metrics and the
    names of metrics whose spans never fired although the workload runs them.
    """
    metrics: dict[str, dict] = {}
    missing: list[str] = []
    for name, unit, _, phase, span_name, fn in PER_LAYER:
        if name in not_exercised:
            metrics[name] = {"value": 0, "unit": unit}
            continue
        pool = setup_spans if phase == "setup" else loop_spans
        fired = _named(pool, span_name)
        if not fired:
            missing.append(name)
            continue
        value = extra.get(name) if fn is None else fn(fired, pool)
        if value is None:
            missing.append(name)
            continue
        metrics[name] = {"value": value, "unit": unit}
    return metrics, missing
