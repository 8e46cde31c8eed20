"""Output checks that do not trust the program.

Every file is parsed here with plain Python and numpy, the decoder forward
pass and both objectives are re-implemented from their definitions, and
QUBO energies are recomputed from the coefficients (and, for n <= 16,
minimised by enumerating all 2^n states).  Each check returns failure
messages keyed by the operation they blame: a set-up command index, or a
loop iteration (``WHOLE_RUN`` when no single iteration is at fault).
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from workloads import ENUMERATION_MAX_BITS, Workload

WHOLE_RUN = -1
LABEL_TOL = 1e-12
ENERGY_RTOL = 1e-9

_LAYERS = ("enc1_w", "enc1_b", "enc2_w", "enc2_b", "enc3_w", "enc3_b",
           "dec1_w", "dec1_b", "dec2_w", "dec2_b", "dec3_w", "dec3_b")


# ---------------------------------------------------------------- parsers


def _header(line: str, magic: str, keys: tuple[str, ...]) -> list[str]:
    """Values of the ``key=value`` fields after the magic words of a header line."""
    words, parts = magic.split(), line.split()
    fields = [part.partition("=") for part in parts[len(words):]]
    if parts[: len(words)] != words or [f[0] for f in fields] != list(keys):
        raise ValueError(f"bad header {line!r}")
    return [f[2] for f in fields]


@dataclass
class Decoder:
    """The decoder half of a checkpoint, read straight from its text."""

    side: int
    latent_bits: int
    layers: dict[str, np.ndarray]

    @classmethod
    def load(cls, path: Path) -> "Decoder":
        lines = path.read_text().splitlines()
        m, n = (int(v) for v in _header(lines[0], "BVAE v1", ("m", "n")))
        layers: dict[str, np.ndarray] = {}
        i = 1
        while i < len(lines):
            parts = lines[i].split()
            if parts and parts[0] == "LAYER":
                rows, cols = int(parts[2]), int(parts[3])
                block = np.array([ln.split() for ln in lines[i + 1 : i + 1 + rows]], dtype=np.float64)
                if block.shape != (rows, cols):
                    raise ValueError(f"layer {parts[1]} has shape {block.shape}")
                layers[parts[1]] = block
                i += 1 + rows
            else:
                i += 1
        if set(layers) != set(_LAYERS):
            raise ValueError(f"checkpoint layers {sorted(layers)}")
        return cls(side=m, latent_bits=n, layers=layers)

    def pattern(self, bits: np.ndarray, blur: float) -> np.ndarray:
        """Thresholded m-by-m design for one latent vector."""
        p = self.layers
        z = np.asarray(bits, dtype=np.float64)[None, :]
        g1 = np.maximum(z @ p["dec1_w"] + p["dec1_b"], 0.0)
        g2 = np.maximum(g1 @ p["dec2_w"] + p["dec2_b"], 0.0)
        a = (g2 @ p["dec3_w"] + p["dec3_b"]).reshape(self.side, self.side)
        e = np.exp(-np.abs(a))
        image = np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        if blur > 0:
            image = gaussian_filter(image, sigma=blur)
        return (image >= 0.5).astype(np.uint8)


@dataclass
class Dataset:
    X: np.ndarray
    Y: np.ndarray
    tags: list[str]

    @classmethod
    def load(cls, path: Path) -> "Dataset":
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        n, count = (int(v) for v in _header(lines[0], "DATASET v1", ("n", "count")))
        if len(lines) - 1 != count:
            raise ValueError(f"{path.name}: header says {count} rows, file has {len(lines) - 1}")
        X = np.zeros((count, n), dtype=np.uint8)
        Y = np.zeros(count)
        tags = []
        for r, ln in enumerate(lines[1:]):
            bits, label, tag = ln.split()
            if len(bits) != n or set(bits) - {"0", "1"}:
                raise ValueError(f"{path.name}: row {r} has bad bits {bits!r}")
            X[r] = [int(ch) for ch in bits]
            Y[r] = float(label)
            tags.append(tag)
        return cls(X=X, Y=Y, tags=tags)

    def __len__(self) -> int:
        return len(self.tags)


def load_fm(path: Path) -> tuple[float, np.ndarray, np.ndarray]:
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    n, k = (int(v) for v in _header(lines[0], "FM v1", ("n", "k")))
    w0, w, V = None, np.full(n, np.nan), np.full((n, k), np.nan)
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "w0":
            w0 = float(parts[1])
        elif parts[0] == "w":
            w[int(parts[1])] = float(parts[2])
        elif parts[0] == "V":
            V[int(parts[1])] = [float(v) for v in parts[2:]]
    if w0 is None or not (np.all(np.isfinite(w)) and np.all(np.isfinite(V))):
        raise ValueError(f"{path.name}: incomplete model")
    return w0, w, V


def load_pgm(path: Path) -> tuple[np.ndarray, int]:
    tokens = path.read_text().split()
    if tokens[0] != "P2":
        raise ValueError(f"{path.name}: not a plain PGM")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    return np.array(tokens[4:], dtype=np.int64).reshape(height, width), maxval


def load_convergence(path: Path) -> list[dict[str, float]]:
    with path.open(newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


# ------------------------------------------------- objectives and energies


def overlap(pattern: np.ndarray, target: np.ndarray) -> float:
    return int(np.count_nonzero(pattern == target)) / pattern.size


def product_efficiency(pattern: np.ndarray, target_fill: float, weight: float) -> float:
    m = pattern.shape[0]
    fill = int(pattern.sum()) / pattern.size
    unequal = int(np.count_nonzero(np.diff(pattern, axis=0))) + int(np.count_nonzero(np.diff(pattern, axis=1)))
    return math.exp(-((fill - target_fill) ** 2) / 0.02) / (1.0 + weight * unequal / (2 * m * (m - 1)))


def make_scorer(wl: Workload):
    obj = wl.objective
    if obj["kind"] == "target_overlap":
        target = wl.target_pattern()
        return lambda pattern: overlap(pattern, target)
    fill, weight = float(obj["target_fill"]), float(obj["smoothness_weight"])
    return lambda pattern: product_efficiency(pattern, fill, weight)


def fm_values(w0: float, w: np.ndarray, V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """FM prediction w0 + w.x + sum_{i<j} <v_i, v_j> x_i x_j, from the pair sum."""
    Xf = X.astype(np.float64)
    gram = np.triu(V @ V.T, 1)
    return w0 + Xf @ w + np.einsum("bi,ij,bj->b", Xf, gram, Xf)


def qubo_values(linear: np.ndarray, pairs: dict, offset: float, X: np.ndarray) -> np.ndarray:
    """QUBO energies straight from the sparse pair coefficients."""
    upper = np.zeros((linear.size, linear.size))
    for (i, j), c in pairs.items():
        upper[i, j] = c
    Xf = X.astype(np.float64)
    return offset + Xf @ linear + np.einsum("bi,ij,bj->b", Xf, upper, Xf)


def all_states(n: int) -> np.ndarray:
    ints = np.arange(1 << n, dtype=np.uint64)
    return ((ints[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)).astype(np.uint8)


def exhaustive_fm_minimum(w0: float, w: np.ndarray, V: np.ndarray) -> float:
    if w.size > ENUMERATION_MAX_BITS:
        raise ValueError(f"enumeration capped at {ENUMERATION_MAX_BITS} bits")
    return float(fm_values(w0, w, V, all_states(w.size)).min())


def energy_close(a: float, b: float) -> bool:
    return bool(abs(a - b) <= ENERGY_RTOL * max(1.0, abs(a), abs(b)))


# ---------------------------------------------------------------- checks


def label_mismatches(dec: Decoder, wl: Workload, data: Dataset, rows) -> list[int]:
    score = make_scorer(wl)
    return [r for r in rows if abs(score(dec.pattern(data.X[r], wl.blur)) - data.Y[r]) > LABEL_TOL]


def check_setup(wl: Workload, setup_dir: Path) -> dict[int, list[str]]:
    """Check the corpus, checkpoint and dataset one set-up wrote; keys are command indices."""
    failures: dict[int, list[str]] = defaultdict(list)
    try:
        lines = (setup_dir / "corpus.txt").read_text().splitlines()
        m, count = (int(v) for v in _header(lines[0], "IMG v1", ("m", "count")))
        values = np.array(" ".join(lines[1:]).split(), dtype=np.float64)
        if (m, count) != (wl.side, wl.corpus_count) or values.size != count * m * m:
            failures[0].append(f"corpus holds {values.size} values for m={m}, count={count}")
        elif not np.all((values == 0) | (values == 1)):
            failures[0].append("corpus pixels are not binary")
    except (OSError, ValueError, IndexError) as exc:
        failures[0].append(f"corpus unreadable: {exc}")
    try:
        dec = Decoder.load(setup_dir / "bvae.txt")
        e1, e2 = (int(s) for s in wl.encoder_hidden.split(","))
        d1, d2 = (int(s) for s in wl.decoder_hidden.split(","))
        shapes = {"enc1_w": (wl.side**2, e1), "enc2_w": (e1, e2), "enc3_w": (e2, 2 * wl.latent_bits),
                  "dec1_w": (wl.latent_bits, d1), "dec2_w": (d1, d2), "dec3_w": (d2, wl.side**2)}
        bad = [k for k, s in shapes.items() if dec.layers[k].shape != s]
        if (dec.side, dec.latent_bits) != (wl.side, wl.latent_bits) or bad:
            failures[1].append(f"checkpoint has the wrong architecture: {bad}")
    except (OSError, ValueError, IndexError) as exc:
        failures[1].append(f"checkpoint unreadable: {exc}")
        return failures
    try:
        data = Dataset.load(setup_dir / "dataset.txt")
    except (OSError, ValueError, IndexError) as exc:
        failures[2].append(f"dataset unreadable: {exc}")
        return failures
    expected = int(wl.stratify["total"]) if wl.stratify else wl.dataset_count
    if len(data) != expected or data.X.shape[1] != wl.latent_bits:
        failures[2].append(f"dataset has {len(data)} rows of {data.X.shape[1]} bits")
    if wl.stratify:
        lo, hi = (float(v) for v in wl.stratify["bands"].split(":"))
        if not np.all((data.Y >= lo) & (data.Y <= hi)):
            failures[2].append(f"stratified labels leave the band [{lo}, {hi}]")
    bad_rows = label_mismatches(dec, wl, data, range(len(data)))
    if bad_rows:
        failures[2].append(f"{len(bad_rows)} initial labels differ from the recomputed objective")
    return failures


def _iteration_of(tag: str) -> int | None:
    if not tag.startswith("iter"):
        return None
    digits = tag[4:].removesuffix("_flip")
    return int(digits) if digits.isdigit() else None


def check_loop(wl: Workload, setup_dir: Path, out_dir: Path, dec: Decoder) -> dict[int, list[str]]:
    """Check one run-loop's artifacts; keys are iterations, WHOLE_RUN for the run as a whole."""
    failures: dict[int, list[str]] = defaultdict(list)
    try:
        initial = Dataset.load(setup_dir / "dataset.txt")
        final = Dataset.load(out_dir / "dataset_final.txt")
        history = load_convergence(out_dir / "convergence.csv")
    except (OSError, ValueError, IndexError, KeyError) as exc:
        failures[WHOLE_RUN].append(f"loop outputs unreadable: {exc}")
        return failures
    if len(history) != wl.iterations or [int(r["iteration"]) for r in history] != list(range(wl.iterations)):
        failures[WHOLE_RUN].append(f"convergence.csv has {len(history)} rows, expected {wl.iterations}")
        return failures

    # The loop deduplicates the initial rows (first occurrence wins) and keeps them as a prefix.
    first_rows, seen = [], set()
    for r in range(len(initial)):
        key = initial.X[r].tobytes()
        if key not in seen:
            seen.add(key)
            first_rows.append(r)
    p = len(first_rows)
    prefix_ok = len(final) >= p and (
        np.array_equal(final.X[:p], initial.X[first_rows])
        and np.array_equal(final.Y[:p], initial.Y[first_rows])
        and final.tags[:p] == [initial.tags[r] for r in first_rows]
    )
    if not prefix_ok:
        failures[WHOLE_RUN].append("the initial rows are not kept as the dataset's prefix")

    by_iteration: dict[int, list[int]] = defaultdict(list)
    row_iteration: dict[int, int] = {}
    last_iteration = 0
    for r in range(p, len(final)):
        it = _iteration_of(final.tags[r])
        if it is None or not last_iteration <= it < wl.iterations:
            failures[WHOLE_RUN].append(f"row {r} has tag {final.tags[r]!r} out of order")
            continue
        last_iteration = row_iteration[r] = it
        by_iteration[it].append(r)
        key = final.X[r].tobytes()
        if key in seen:
            failures[it].append(f"row {r} duplicates an earlier bit row")
        seen.add(key)

    for r in label_mismatches(dec, wl, final, range(p, len(final))):
        failures[row_iteration.get(r, WHOLE_RUN)].append(f"row {r} label differs from the recomputed objective")

    size = p
    running = float(initial.Y.max())
    previous = -math.inf
    for i, row in enumerate(history):
        rows = by_iteration.get(i, [])
        size += len(rows)
        if int(row["dataset_size"]) != size:
            failures[i].append(f"dataset_size {int(row['dataset_size'])} but {size} rows by then")
        if rows:
            labels = final.Y[rows]
            running = max(running, float(labels.max()))
            for name, value in (("mean_fom", labels.mean()), ("std_fom", labels.std()), ("max_fom", labels.max())):
                if not abs(row[name] - float(value)) <= LABEL_TOL:
                    failures[i].append(f"{name} {row[name]!r} but the appended rows give {float(value)!r}")
        elif not all(math.isnan(row[name]) for name in ("mean_fom", "std_fom", "max_fom")):
            failures[i].append("an iteration that added no rows reports fom statistics")
        if abs(row["running_max_fom"] - running) > LABEL_TOL:
            failures[i].append(f"running_max_fom {row['running_max_fom']!r}, expected {running!r}")
        if row["running_max_fom"] < previous:
            failures[i].append("running_max_fom decreased")
        previous = row["running_max_fom"]
    if size != len(final):
        failures[WHOLE_RUN].append(f"dataset_final.txt has {len(final)} rows, the CSV accounts for {size}")

    _check_best_design(wl, out_dir, final, dec, failures)
    if wl.latent_bits <= ENUMERATION_MAX_BITS:
        _check_min_energy(wl, out_dir, history[-1], failures)
    if wl.must_improve and not history[-1]["running_max_fom"] > float(initial.Y.max()):
        failures[wl.iterations - 1].append(
            f"best fom {history[-1]['running_max_fom']!r} does not exceed the initial {initial.Y.max()!r}"
        )
    return failures


def _check_best_design(wl, out_dir: Path, final: Dataset, dec: Decoder, failures) -> None:
    best = int(np.argmax(final.Y))
    try:
        bits, label = (out_dir / "best_design_bits.txt").read_text().split()
        pgm, maxval = load_pgm(out_dir / "best_design.pgm")
    except (OSError, ValueError) as exc:
        failures[WHOLE_RUN].append(f"best design files unreadable: {exc}")
        return
    expected_bits = "".join(str(b) for b in final.X[best])
    if bits != expected_bits or float(label) != final.Y[best]:
        failures[WHOLE_RUN].append("best_design_bits.txt is not the arg-max row")
    if maxval != 255 or not np.array_equal(pgm, 255 * dec.pattern(final.X[best], wl.blur).astype(np.int64)):
        failures[WHOLE_RUN].append("best_design.pgm is not the decoded arg-max row")


def _check_min_energy(wl, out_dir: Path, last: dict[str, float], failures) -> None:
    try:
        w0, w, V = load_fm(out_dir / "fm_final.txt")
    except (OSError, ValueError, IndexError) as exc:
        failures[WHOLE_RUN].append(f"fm_final.txt unreadable: {exc}")
        return
    exact = exhaustive_fm_minimum(w0, w, V)
    reported = last["min_energy"]
    it = wl.iterations - 1
    if wl.sampler == "brute_force" and not energy_close(reported, exact):
        failures[it].append(f"min_energy {reported!r} is not the exhaustive minimum {exact!r}")
    if reported < exact and not energy_close(reported, exact):
        failures[it].append(f"min_energy {reported!r} lies below the exhaustive minimum {exact!r}")
