"""The shared build of the C kernels: cached on disk per source tree, numpy without it."""

import dataclasses
import math
import os
import shutil
import subprocess
import sys
import unittest.mock
import warnings
from pathlib import Path

import numpy as np
import pytest

import latentqubo as lq
import latentqubo._native as native
import latentqubo.bvae as bvae
import latentqubo.fm as fm
import latentqubo.qubo as qubo
import latentqubo.samplers as samplers
from latentqubo import _text
from conftest import random_fm, random_qubo
from test_fm import assert_same_model, random_dataset
from test_samplers import sample_set_contents

SCHEDULE = lq.AnnealSchedule(num_sweeps=50, num_reads=4)
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


@pytest.fixture
def fresh_build(monkeypatch, tmp_path):
    """Forget the loaded library and cache it in a new directory, so it builds again."""
    cache = tmp_path / "__pycache__"
    monkeypatch.setattr(native, "_CACHE_DIR", cache)
    native.library.cache_clear()
    yield cache
    native.library.cache_clear()


def entries(cache: Path) -> list[str]:
    return sorted(path.name for path in cache.iterdir()) if cache.is_dir() else []


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kw: calls.append(1) or original(*args, **kw))
    return calls


def fm_case():
    return random_dataset(16, 100, seed=3), lq.FmTrainConfig(epochs=4, rank=8, seed=1)


def bvae_case():
    # 255 parameters: an odd count, so the kernel's scalar tail takes the last one
    arch = lq.BvaeArchitecture(4, 3, encoder_hidden=(5, 3), decoder_hidden=(3, 5))
    assert sum(math.prod(shape) for shape in arch.layer_shapes().values()) == 255
    return lq.generate_toy_corpus("half_planes", m=4, count=20, seed=2), arch


def test_without_compiler_bvae_train_takes_the_numpy_step(monkeypatch, fresh_build):
    images, arch = bvae_case()
    compiled, compiled_curves = lq.bvae_train(images, arch, epochs=7, seed=4, batch_size=5)
    steps = count_calls(monkeypatch, bvae, "_adam_numpy")
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    native.library.cache_clear()
    looped, looped_curves = lq.bvae_train(images, arch, epochs=7, seed=4, batch_size=5)
    assert native.library() is None
    assert len(steps) == 7 * 4  # 17 training images in batches of 5
    assert [looped.params[name].tobytes() for name in bvae._LAYER_NAMES] == [
        compiled.params[name].tobytes() for name in bvae._LAYER_NAMES]
    assert looped.tau == compiled.tau
    assert looped_curves == compiled_curves


def test_without_compiler_fm_train_runs_the_numpy_loop(monkeypatch, fresh_build):
    data, cfg = fm_case()
    compiled, _ = lq.fm_train(data, cfg)
    fits = count_calls(monkeypatch, fm, "_fit_numpy")
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    native.library.cache_clear()
    looped, _ = lq.fm_train(data, cfg)
    assert native.library() is None
    assert len(fits) == 1
    assert_same_model(looped, compiled)


def test_failing_compiler_warns_once_and_both_kernels_fall_back(
    monkeypatch, tmp_path, fresh_build
):
    compiler = tmp_path / "cc"
    compiler.write_text("#!/bin/sh\necho 'cc: error: toolchain is broken' >&2\nexit 1\n")
    compiler.chmod(0o755)
    monkeypatch.setattr(native.shutil, "which", lambda name: str(compiler))
    fits = count_calls(monkeypatch, fm, "_fit_numpy")
    sweeps = count_calls(monkeypatch, samplers, "_anneal_numpy")
    screens = count_calls(monkeypatch, samplers, "_looped_energies")
    data, cfg = fm_case()
    q = random_qubo(np.random.default_rng(0), 8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lq.fm_train(data, cfg)
        lq.simulated_annealing_sample(q, SCHEDULE, seed=0)
        exhaustive = lq.brute_force_sample(q, top_k=5)
        lq.fm_train(data, cfg)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "toolchain is broken" in str(caught[0].message)
    assert len(fits) == 2
    assert len(sweeps) == 1
    assert len(screens) == 1
    assert len(exhaustive.entries) == 5
    assert entries(fresh_build) == []


@needs_cc
def test_training_and_annealing_run_the_compiler_once(monkeypatch, fresh_build):
    # the first call anneals its four reads on four threads
    builds = count_calls(monkeypatch, native.subprocess, "run")
    screens = count_calls(monkeypatch, samplers, "_compiled_energies")
    monkeypatch.setattr(samplers, "_cores", lambda: 4)
    data, cfg = fm_case()
    q = random_qubo(np.random.default_rng(1), 8)
    images, arch = bvae_case()
    lq.simulated_annealing_sample(q, SCHEDULE, seed=0)
    lq.fm_train(data, cfg)
    lq.brute_force_sample(q, top_k=5)
    lq.bvae_train(images, arch, epochs=1, seed=0)
    lq.simulated_annealing_sample(q, SCHEDULE, seed=1)
    lq.fm_train(data, cfg)
    lq.brute_force_sample(q, top_k=5)
    lq.bvae_train(images, arch, epochs=1, seed=0)
    assert len(builds) == 1
    assert len(screens) == 2
    assert native.library() is not None


@needs_cc
@pytest.mark.parametrize("epochs", [1, 7])
def test_fm_train_makes_one_kernel_call_per_fit(monkeypatch, epochs):
    data, cfg = fm_case()
    cfg = dataclasses.replace(cfg, epochs=epochs)
    fits = count_calls(monkeypatch, native.library(), "fm_fit")
    model, _ = lq.fm_train(data, cfg)
    assert len(fits) == 1
    lq.fm_train(data, cfg, warm_start=model)
    assert len(fits) == 2


def saved_files(model, images, folder: Path) -> list[bytes]:
    folder.mkdir()
    lq.save_bvae(model, folder / "bvae.txt")
    lq.save_images(images, folder / "images.txt")
    return [(folder / name).read_bytes() for name in ("bvae.txt", "images.txt")]


@needs_cc
def test_files_are_written_with_one_kernel_call_per_array(monkeypatch, tmp_path):
    # one per layer of the checkpoint and one for the whole image set; none without the library
    images, arch = bvae_case()
    model, _ = lq.bvae_train(images, arch, epochs=1, seed=0)
    formats = count_calls(monkeypatch, native.library(), "format_floats")
    compiled = saved_files(model, images, tmp_path / "compiled")
    assert len(formats) == len(bvae._LAYER_NAMES) + 1
    with unittest.mock.patch.object(native, "library", lambda: None):
        assert saved_files(model, images, tmp_path / "looped") == compiled
    assert len(formats) == len(bvae._LAYER_NAMES) + 1


@needs_cc
@pytest.mark.parametrize("batch_size, steps_per_epoch", [(5, 4), (32, 1)])
def test_bvae_train_makes_one_kernel_call_per_step(monkeypatch, batch_size, steps_per_epoch):
    images, arch = bvae_case()
    steps = count_calls(monkeypatch, native.library(), "adam_step")
    lq.bvae_train(images, arch, epochs=3, seed=0, batch_size=batch_size)
    assert len(steps) == 3 * steps_per_epoch  # 17 training images


def fit_and_anneal():
    data, cfg = fm_case()
    model, _ = lq.fm_train(data, cfg)
    sample_set = lq.simulated_annealing_sample(random_qubo(np.random.default_rng(1), 8), SCHEDULE, 0)
    return [model.w0, model.w.tolist(), model.V.tolist()], sample_set_contents(sample_set)


@needs_cc
def test_a_cached_library_loads_without_the_compiler(monkeypatch, fresh_build):
    built = fit_and_anneal()
    native.library.cache_clear()
    builds = count_calls(monkeypatch, native.subprocess, "run")
    assert fit_and_anneal() == built
    assert builds == []
    assert len(entries(fresh_build)) == 1


@needs_cc
def test_a_changed_source_byte_rebuilds(monkeypatch, tmp_path, fresh_build):
    sources = []
    for name in native.SOURCES:
        shutil.copy(Path(native.__file__).with_name(name), tmp_path / name)
        sources.append(tmp_path / name)
    builds = count_calls(monkeypatch, native.subprocess, "run")
    compiler = shutil.which("cc")
    native._load(compiler, sources)
    first = entries(fresh_build)
    native._load(compiler, sources)
    assert len(builds) == 1
    text = bytearray(sources[0].read_bytes())
    text[text.index(b" ")] = ord("\t")
    sources[0].write_bytes(bytes(text))
    native._load(compiler, sources)
    assert len(builds) == 2
    assert len(first) == 1 and len(entries(fresh_build)) == 1 and entries(fresh_build) != first


@needs_cc
@pytest.mark.parametrize("spoil", ["garbage", "group-writable"])
def test_an_untrusted_entry_is_rebuilt_not_loaded(monkeypatch, tmp_path, fresh_build, spoil):
    native.library()
    (name,) = entries(fresh_build)
    native.library.cache_clear()
    cache = tmp_path / "spoiled"
    cache.mkdir()
    entry = cache / name
    if spoil == "garbage":
        entry.write_bytes(b"not a shared library")
        entry.chmod(0o755)
    else:
        shutil.copy(fresh_build / name, entry)
        entry.chmod(0o775)
    monkeypatch.setattr(native, "_CACHE_DIR", cache)
    builds = count_calls(monkeypatch, native.subprocess, "run")
    assert native.library() is not None
    assert len(builds) == 1
    assert entries(cache) == [name]
    assert entry.read_bytes()[:4] == b"\x7fELF"
    assert entry.stat().st_mode & 0o777 == 0o755


@needs_cc
@pytest.mark.parametrize("where", ["below a file", "read-only"])
def test_an_unwritable_cache_builds_in_a_temporary_directory(
    monkeypatch, tmp_path, fresh_build, where
):
    if where == "below a file":
        (tmp_path / "file").write_text("")
        cache = tmp_path / "file" / "__pycache__"
    else:
        if os.geteuid() == 0:
            pytest.skip("root writes to a read-only directory")
        cache = tmp_path / "read-only"
        cache.mkdir(mode=0o555)
    monkeypatch.setattr(native, "_CACHE_DIR", cache)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(native.tempfile, "tempdir", str(scratch))
    builds = count_calls(monkeypatch, native.subprocess, "run")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit_and_anneal()
    assert native.library() is not None
    assert len(builds) == 1
    assert entries(cache) == [] and entries(scratch) == []


CHILD = """
import sys, time
from pathlib import Path
import numpy as np
import latentqubo as lq
import latentqubo._native as native

native._CACHE_DIR = Path(sys.argv[1])
Path(sys.argv[2]).touch()
deadline = time.monotonic() + 60
while not all(Path(p).exists() for p in sys.argv[3:]) and time.monotonic() < deadline:
    time.sleep(0.001)
assert native.library() is not None
rng = np.random.default_rng(5)
q = lq.QuboProblem(linear=rng.uniform(-1, 1, 8), quadratic=np.triu(rng.uniform(-1, 1, (8, 8)), 1))
schedule = lq.AnnealSchedule(num_sweeps=50, num_reads=4)
print([(e.vector.tolist(), e.energy) for e in lq.simulated_annealing_sample(q, schedule, 0).entries])
"""


@needs_cc
def test_two_processes_building_at_once_share_one_entry(monkeypatch, tmp_path):
    cache = tmp_path / "__pycache__"
    ready = [str(tmp_path / f"ready{i}") for i in range(2)]
    src = str(Path(native.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    children = [
        subprocess.Popen([sys.executable, "-c", CHILD, str(cache), mine, *ready], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for mine in ready
    ]
    outputs = []
    for child in children:
        try:
            out, err = child.communicate(timeout=120)
        finally:
            child.kill()
        assert child.returncode == 0, err
        outputs.append(out)
    monkeypatch.setattr(native, "library", lambda: None)
    rng = np.random.default_rng(5)
    q = lq.QuboProblem(linear=rng.uniform(-1, 1, 8), quadratic=np.triu(rng.uniform(-1, 1, (8, 8)), 1))
    looped = lq.simulated_annealing_sample(q, SCHEDULE, 0).entries
    assert outputs == [f"{[(e.vector.tolist(), e.energy) for e in looped]}\n"] * 2
    (name,) = entries(cache)
    assert name.startswith("_latentqubo-") and name.endswith(".so")


def test_every_c_source_is_built_and_packaged():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    root = Path(__file__).resolve().parents[1]
    pyproject = tomllib.loads((root / "pyproject.toml").read_text())
    packaged = pyproject["tool"]["setuptools"]["package-data"]["latentqubo"]
    sources = sorted(path.name for path in (root / "src" / "latentqubo").glob("*.c"))
    assert sources == sorted(native.SOURCES)
    assert set(sources) <= set(packaged)


@needs_cc
@pytest.mark.parametrize("name", native.SOURCES)
def test_every_c_source_compiles_without_warnings(name):
    source = Path(native.__file__).with_name(name)
    result = subprocess.run(
        [shutil.which("cc"), "-std=c11", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", str(source)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


@needs_cc
def test_the_library_builds_without_warnings(tmp_path):
    # the sources together, with the flags of the cached build
    sources = [str(Path(native.__file__).with_name(name)) for name in native.SOURCES]
    result = subprocess.run(
        [shutil.which("cc"), *native._FLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "_latentqubo.so"), *sources, *native._LIBS],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


SANITIZERS = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all")

# parse_floats over every prefix of each text, in heap buffers of exactly the prefix's
# size, for 1-4 rows of 1-3 columns: plain rows, blank lines, an unended last line, and
# the tokens it refuses or reads at the edges of its exact and strtod_l paths
PARSE_DRIVER = r"""
#include <stddef.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

ptrdiff_t parse_floats(const char *, ptrdiff_t, ptrdiff_t, ptrdiff_t, double *, ptrdiff_t *);

static const char *const TEXTS[] = {
    "1.5 -2e-3\n0.25 7\n-0 +.5\n",
    "\t1\t2 \n  \n\n3 4\n5 6",
    "1_0 2\n5. 1e\n1e+ .\n- +\ne5 0x1p-2\n1,5 inf\nnan 1e400\n1e-400 5e-324\n",
    "1234567890123456789012345 9999999999999999999e27\n1e-27 0.000000000000000000001\n",
    "1234567890123456789012345678901234567890123456789012345678901234567890 1\n",
    "1 2\r\n3 4\v\n5 6 7\n8\n\xc2\x85 9\n",
};

int main(void)
{
    for (size_t t = 0; t < sizeof TEXTS / sizeof *TEXTS; t++) {
        const ptrdiff_t length = (ptrdiff_t)strlen(TEXTS[t]);
        for (ptrdiff_t size = 0; size <= length; size++) {
            char *text = malloc(size ? (size_t)size : 1);
            memcpy(text, TEXTS[t], (size_t)size);
            for (ptrdiff_t rows = 1; rows <= 4; rows++)
                for (ptrdiff_t cols = 1; cols <= 3; cols++) {
                    double *out = malloc((size_t)(rows * cols) * sizeof *out);
                    ptrdiff_t used[2];
                    const ptrdiff_t read = parse_floats(text, size, rows, cols, out, used);
                    const int at_line = !used[0] || used[0] == size || text[used[0] - 1] == '\n';
                    if (read < 0 || read > rows || used[0] < 0 || used[0] > size || used[1] < read
                        || !at_line) {
                        printf("text %zu size %td rows %td cols %td: read %td used %td %td\n",
                               t, size, rows, cols, read, used[0], used[1]);
                        return 1;
                    }
                    free(out);
                }
            free(text);
        }
    }
    return 0;
}
"""


def sanitized_build(tmp_path: Path, name: str, sources) -> Path:
    """An executable of the sources, built with the sanitizers and the library's flags."""
    flags = [flag for flag in native._FLAGS if flag != "-shared"]
    exe = tmp_path / name
    subprocess.run([shutil.which("cc"), *flags, *SANITIZERS, "-g", "-o", str(exe),
                    *map(str, sources), *native._LIBS], check=True, capture_output=True, text=True)
    return exe


def sanitized_driver(tmp_path: Path, text: str, source: str) -> Path:
    """The driver's text built with the named kernel source and the sanitizers, or a skip."""
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    try:
        exe = sanitized_build(tmp_path, "probe", [probe])
        subprocess.run([exe], check=True, capture_output=True)
    except subprocess.CalledProcessError:
        pytest.skip("cc cannot build or run a program with -fsanitize=address,undefined")
    driver = tmp_path / "driver.c"
    driver.write_text(text)
    return sanitized_build(tmp_path, "driver", [driver, Path(native.__file__).with_name(source)])


@needs_cc
def test_parser_is_clean_under_address_and_undefined_sanitizers(tmp_path):
    exe = sanitized_driver(tmp_path, PARSE_DRIVER, "_parse.c")
    result = subprocess.run([exe], capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")


# anneal_block on each case read from standard input: n, k, sweeps and lanes as four int64,
# then each input array, read into a heap buffer of exactly its size; writes the final x
ANNEAL_DRIVER = r"""
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

void anneal_block(ptrdiff_t, ptrdiff_t, ptrdiff_t, ptrdiff_t, const double *, const double *,
                  const double *, const double *, const uint64_t *, double *, double *, uint64_t *);

static void *take(size_t count, size_t size)
{
    void *buffer = malloc(count * size);
    if (count && (!buffer || fread(buffer, size, count, stdin) != count))
        exit(2);
    return buffer;
}

int main(void)
{
    int64_t shape[4];
    while (fread(shape, sizeof shape, 1, stdin) == 1) {
        const ptrdiff_t n = shape[0], k = shape[1], sweeps = shape[2], lanes = shape[3];
        const size_t d = sizeof(double);
        double *linear = take(n, d), *coupling = take(n * (k ? k : 2 * n), d);
        double *norms = take(k ? n : 0, d), *betas = take(sweeps, d);
        uint64_t *streams = take(4 * lanes, 8);
        double *x = take(lanes * n, d), *s = take(16 * k, d);
        uint64_t *masks = malloc(16 * n * 8);
        anneal_block(n, k, sweeps, lanes, linear, coupling, norms, betas, streams, x, s, masks);
        fwrite(x, d, lanes * n, stdout);
        free(linear), free(coupling), free(norms), free(betas), free(streams), free(x), free(s);
        free(masks);
    }
    return 0;
}
"""


def anneal_case(n: int, k: int, sweeps: int, lanes: int):
    """One block's kernel input, laid out as _anneal_blocks lays it out, and the numpy loop's final x."""
    model = random_fm(np.random.default_rng(n * 100 + k), n, max(k, 1))
    q, V = lq.fm_to_qubo(model), model.V if k else None
    betas = lq.AnnealSchedule(num_sweeps=sweeps).betas()

    def start_states():
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(n + k).spawn(lanes)]
        return rngs, np.array([rng.integers(0, 2, n) for rng in rngs], dtype=np.float64)

    rngs, x = start_states()
    streams = np.array([samplers._pcg64_words(rng) for rng in rngs], dtype=np.uint64)
    if k:
        coupling, (norms, start) = V, samplers._factored_start(V, x)
    else:
        coupling, norms, start = np.repeat(q.dense_symmetric, 2, axis=1), np.empty(0), np.empty((lanes, 0))
    s = np.zeros((k, 16))
    s[:, :lanes] = start.T
    stdin = np.array([n, k, sweeps, lanes], dtype=np.int64).tobytes() + b"".join(
        np.ascontiguousarray(a).tobytes() for a in (q.linear, coupling, norms, betas, streams, x, s))
    rngs, expected = start_states()
    samplers._anneal_numpy(q, betas, rngs, expected, V)
    return stdin, expected


@needs_cc
def test_annealer_is_clean_under_address_and_undefined_sanitizers(tmp_path):
    # both forms, dense (k = 0) and factored, at edge sizes of n, of the block and of k
    exe = sanitized_driver(tmp_path, ANNEAL_DRIVER, "_anneal.c")
    cases = [anneal_case(n, k, sweeps, lanes) for n in (1, 2, 16, 17, 64) for lanes in (1, 15, 16)
             for k in (0, 1, 8) for sweeps in (1, 3)]
    result = subprocess.run([exe], input=b"".join(stdin for stdin, _ in cases),
                            capture_output=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == b"".join(x.tobytes() for _, x in cases)


# adam_step on each case read from standard input: size and steps as two int64, then lr,
# b1, b2 and eps, then the parameters; then per step c1, c2 and the gradient, each in a heap
# buffer of exactly its size; writes the final parameters and both moments
ADAM_DRIVER = r"""
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

void adam_step(ptrdiff_t, double *, double *, double *, const double *, double, double, double,
               double, double, double);

static double *take(size_t count)
{
    double *buffer = malloc(count * sizeof *buffer);
    if (!buffer || fread(buffer, sizeof *buffer, count, stdin) != count)
        exit(2);
    return buffer;
}

int main(void)
{
    int64_t shape[2];
    while (fread(shape, sizeof shape, 1, stdin) == 1) {
        const ptrdiff_t size = shape[0], steps = shape[1];
        double *settings = take(4), *p = take(size);
        double *m = calloc(size, sizeof *m), *v = calloc(size, sizeof *v);
        for (ptrdiff_t t = 0; t < steps; t++) {
            double *c = take(2), *g = take(size);
            adam_step(size, p, m, v, g, settings[0], settings[1], settings[2], c[0], c[1],
                      settings[3]);
            free(c), free(g);
        }
        fwrite(p, sizeof *p, size, stdout);
        fwrite(m, sizeof *m, size, stdout);
        fwrite(v, sizeof *v, size, stdout);
        free(settings), free(p), free(m), free(v);
    }
    return 0;
}
"""


def adam_case(size: int, steps: int):
    """One case's driver input, and the numpy twin's final parameters and moments."""
    rng = np.random.default_rng(size * 1000 + steps)
    p = rng.normal(size=size)
    gradients = rng.normal(scale=10.0 ** rng.integers(-6, 2, (steps, 1)), size=(steps, size))
    gradients[rng.random((steps, size)) < 0.1] = 0.0  # zero gradients leave v at +0.0 at first
    lr = 1e-3
    stdin = [np.array([size, steps], dtype=np.int64).tobytes(),
             np.array([lr, bvae._BETA1, bvae._BETA2, bvae._EPS]).tobytes(), p.tobytes()]
    m, v, scratch = np.zeros(size), np.zeros(size), np.empty(size)
    for t, g in enumerate(gradients, start=1):
        c1, c2 = 1.0 - bvae._BETA1**t, 1.0 - bvae._BETA2**t
        stdin += [np.array([c1, c2]).tobytes(), g.tobytes()]
        bvae._adam_numpy(p, m, v, g.copy(), lr, c1, c2, scratch)
    return b"".join(stdin), p.tobytes() + m.tobytes() + v.tobytes()


@needs_cc
def test_adam_step_is_clean_under_address_and_undefined_sanitizers(tmp_path):
    # odd and even sizes, so both the 2-wide pairs and the scalar tail run at the edges
    exe = sanitized_driver(tmp_path, ADAM_DRIVER, "_adam.c")
    cases = [adam_case(size, steps) for size in (1, 2, 3, 17) for steps in (1, 2, 1000)]
    result = subprocess.run([exe], input=b"".join(stdin for stdin, _ in cases),
                            capture_output=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == b"".join(expected for _, expected in cases)


# format_floats on each case read from standard input: rows and cols as two int64, then the
# values, in a heap buffer of exactly their size, and an output buffer of exactly 25 bytes a
# value; writes the bytes written as one int64, then the text
FORMAT_DRIVER = r"""
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

ptrdiff_t format_floats(const double *, ptrdiff_t, ptrdiff_t, char *);

int main(void)
{
    int64_t shape[2];
    while (fread(shape, sizeof shape, 1, stdin) == 1) {
        const size_t count = (size_t)(shape[0] * shape[1]);
        double *values = malloc(count * sizeof *values);
        char *out = malloc(25 * count);
        if (!values || !out || fread(values, sizeof *values, count, stdin) != count)
            return 2;
        const int64_t written = format_floats(values, shape[0], shape[1], out);
        fwrite(&written, sizeof written, 1, stdout);
        fwrite(out, 1, (size_t)written, stdout);
        free(values), free(out);
    }
    return 0;
}
"""

# values of 24 bytes, the widest %.17g writes: the buffer has no byte to spare in a row of them
WIDEST = [-2.2250738585072014e-308, -1.2345678901234567e-300, -9.8765432109876543e+307]
# values the kernel hands to snprintf, and the edges of its integer path
FALLBACK = [1e-300, 5e-324, 1e20, 1e300, 1.7976931348623157e308, 1e-16, 1e17, -1e-17]
EDGES = [0.0, -0.0, 1e-4, 1e-5, 9.999999999999999e16, 1.0000000000000002e-16, 0.1, -1.5,
         math.nan, -math.nan, math.inf, -math.inf]


def format_case(rows: int, cols: int, pool):
    """A rows x cols block drawn from pool, the driver's input and the text float_text gives it."""
    rng = np.random.default_rng(rows * 100 + cols)
    values = rng.choice(np.array(pool), (rows, cols))
    stdin = np.array([rows, cols], dtype=np.int64).tobytes() + values.tobytes()
    with unittest.mock.patch.object(native, "library", lambda: None):
        text = (_text.float_rows(values) + "\n").encode()
    return stdin, np.array([len(text)], dtype=np.int64).tobytes() + text


@needs_cc
def test_format_floats_is_clean_under_address_and_undefined_sanitizers(tmp_path):
    assert [len(_text.float_text(x)) for x in WIDEST] == [24] * 3
    exe = sanitized_driver(tmp_path, FORMAT_DRIVER, "_format.c")
    normals = np.random.default_rng(0).normal(size=50) * 10.0 ** np.arange(-25, 25)
    pools = [WIDEST, FALLBACK, EDGES, [*normals, *FALLBACK, *EDGES, *WIDEST]]
    cases = [format_case(rows, cols, pool) for rows in (1, 2, 17) for cols in (1, 2, 17)
             for pool in pools]
    result = subprocess.run([exe], input=b"".join(stdin for stdin, _ in cases),
                            capture_output=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == b"".join(expected for _, expected in cases)


# qubo_energies on each case read from standard input: n, start and count as three int64, then
# the offset, linear and upper, each in a heap buffer of exactly its size; writes the energies
ENERGY_DRIVER = r"""
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

void qubo_energies(ptrdiff_t, ptrdiff_t, ptrdiff_t, const double *, const double *, double,
                   double *);

static double *take(size_t count)
{
    double *buffer = malloc(count * sizeof *buffer);
    if (!buffer || fread(buffer, sizeof *buffer, count, stdin) != count)
        exit(2);
    return buffer;
}

int main(void)
{
    int64_t shape[3];
    while (fread(shape, sizeof shape, 1, stdin) == 1) {
        const ptrdiff_t n = shape[0], start = shape[1], count = shape[2];
        double *offset = take(1), *linear = take(n), *upper = take(n * n);
        double *out = malloc(count * sizeof *out);
        qubo_energies(n, start, count, linear, upper, *offset, out);
        fwrite(out, sizeof *out, count, stdout);
        free(offset), free(linear), free(upper), free(out);
    }
    return 0;
}
"""


def energy_case(n: int, start: int, count: int):
    """One chunk's driver input, and the numpy energy loop's energies of its states."""
    q = random_qubo(np.random.default_rng(n), n)
    stdin = np.array([n, start, count], dtype=np.int64).tobytes() + np.array([q.offset]).tobytes()
    stdin += q.linear.tobytes() + q.upper.tobytes()
    states = samplers._bits_from_ints(np.arange(start, start + count, dtype=np.uint64), n)
    return stdin, qubo._energy_loop(states, q.linear, q.upper, q.offset).tobytes()


@needs_cc
def test_qubo_energies_is_clean_under_address_and_undefined_sanitizers(tmp_path):
    # whole runs from state 0, and one-state chunks at the first, last and a middle state
    exe = sanitized_driver(tmp_path, ENERGY_DRIVER, "_energy.c")
    cases = []
    for n in (1, 2, 16, 17, 64):
        last = min((1 << n) - 1, (1 << 63) - 1)  # the kernel's start is a ptrdiff_t
        tail = max(last - 5, 0)
        cases += [energy_case(n, 0, min(1 << n, 300)), energy_case(n, tail, last - tail + 1)]
        cases += [energy_case(n, start, 1) for start in (0, last, last // 3)]
    result = subprocess.run([exe], input=b"".join(stdin for stdin, _ in cases),
                            capture_output=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == b"".join(expected for _, expected in cases)


# fm_fit on each case read from standard input: n, k, epochs, rows (a shuffle's length) and
# count (the data's rows) as five int64, then lr, the orders, X, Y, w0, w and V, each in a heap
# buffer of exactly its size; writes w0, w, V and their three accumulators
FM_DRIVER = r"""
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

void fm_fit(ptrdiff_t, ptrdiff_t, ptrdiff_t, ptrdiff_t, const ptrdiff_t *, const uint8_t *,
            const double *, double, double *, double *, double *, double *, double *, double *,
            double *);

static void *take(size_t count, size_t size)
{
    void *buffer = malloc(count * size);
    if (!buffer || fread(buffer, size, count, stdin) != count)
        exit(2);
    return buffer;
}

int main(void)
{
    int64_t shape[5];
    while (fread(shape, sizeof shape, 1, stdin) == 1) {
        const ptrdiff_t n = shape[0], k = shape[1], epochs = shape[2], rows = shape[3];
        const size_t d = sizeof(double), count = (size_t)shape[4];
        double *lr = take(1, d);
        ptrdiff_t *orders = take(epochs * rows, sizeof *orders);
        uint8_t *X = take(count * n, 1);
        double *Y = take(count, d), *w0 = take(1, d), *w = take(n, d), *V = take(n * k, d);
        double *acc_w0 = calloc(1, d), *acc_w = calloc(n, d), *acc_V = calloc(n * k, d);
        double *s = malloc(k * d);
        fm_fit(n, k, epochs, rows, orders, X, Y, *lr, w0, w, V, acc_w0, acc_w, acc_V, s);
        fwrite(w0, d, 1, stdout), fwrite(w, d, n, stdout), fwrite(V, d, n * k, stdout);
        fwrite(acc_w0, d, 1, stdout), fwrite(acc_w, d, n, stdout), fwrite(acc_V, d, n * k, stdout);
        free(lr), free(orders), free(X), free(Y), free(w0), free(w), free(V);
        free(acc_w0), free(acc_w), free(acc_V), free(s);
    }
    return 0;
}
"""


def fm_fit_case(n: int, k: int, epochs: int, rows: int):
    """One fit's driver input, and the numpy twin's parameters and accumulators after it."""
    rng = np.random.default_rng(n * 100 + k * 10 + rows)
    count = rows + 2  # rows the shuffles never visit too
    X = rng.integers(0, 2, (count, n)).astype(np.uint8)
    X[0], X[-1] = 0, 1  # a row of no set bits and one of all
    Y = rng.random(count)
    orders = np.array([rng.permutation(count)[:rows] for _ in range(epochs)], dtype=np.intp)
    w0, w, V = np.array([rng.normal()]), rng.normal(size=n), rng.uniform(-0.1, 0.1, (n, k))
    stdin = np.array([n, k, epochs, rows, count], dtype=np.int64).tobytes() + b"".join(
        a.tobytes() for a in (np.array([0.05]), orders, X, Y, w0, w, V))
    accumulators = np.zeros(1), np.zeros(n), np.zeros((n, k))
    fm._fit_numpy(orders, X, Y, 0.05, w0, w, V, *accumulators)
    return stdin, b"".join(a.tobytes() for a in (w0, w, V, *accumulators))


@needs_cc
def test_fm_fit_is_clean_under_address_and_undefined_sanitizers(tmp_path):
    exe = sanitized_driver(tmp_path, FM_DRIVER, "_fm.c")
    cases = [fm_fit_case(n, k, epochs, rows) for n in (1, 2, 16, 17, 64) for k in (1, 3, 8)
             for epochs, rows in ((1, 1), (1, 20), (3, 7))]
    result = subprocess.run([exe], input=b"".join(stdin for stdin, _ in cases),
                            capture_output=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == b"".join(expected for _, expected in cases)
