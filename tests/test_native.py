"""The shared build of the C kernels: cached on disk per source tree, numpy without it, and
each kernel's cases recorded once, checked against its numpy twin, and replayed at every
vector width and under AddressSanitizer and UBSan."""

import collections
import ctypes
import dataclasses
import io
import itertools
import math
import os
import platform
import shutil
import struct
import subprocess
import sys
import tempfile
import threading
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
from conftest import needs_cc, random_fm, random_qubo
from test_bvae import decoder_params, latent_rows
from test_fm import assert_same_model, random_dataset, random_model
from test_samplers import sample_set_contents

SCHEDULE = lq.AnnealSchedule(num_sweeps=50, num_reads=4)


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
    native._built.clear()
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
    native._built.clear()
    looped, _ = lq.fm_train(data, cfg)
    assert native.library() is None
    assert len(fits) == 1
    assert_same_model(looped, compiled)


def test_failing_compiler_warns_once_and_both_kernels_fall_back(
    monkeypatch, tmp_path, fresh_cache
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
    assert entries(fresh_cache) == []


@needs_cc
def test_training_and_annealing_run_the_compiler_once(monkeypatch, cores, fresh_build):
    # the first call makes an executor of up to four annealing threads
    builds = count_calls(monkeypatch, native, "_compile")
    screens = count_calls(monkeypatch, samplers, "_compiled_energies")
    cores(4)
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
def test_two_threads_that_ask_first_share_one_build(monkeypatch, fresh_build):
    builds = count_calls(monkeypatch, native, "_compile")
    ready, libs = threading.Barrier(2, timeout=60), []

    def ask():
        ready.wait()
        libs.append(native.library())

    threads = [threading.Thread(target=ask) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not any(thread.is_alive() for thread in threads)
    assert len(builds) == 1
    assert len(libs) == 2 and libs[0] is libs[1] is not None


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
    native._built.clear()
    builds = count_calls(monkeypatch, native, "_compile")
    assert fit_and_anneal() == built
    assert builds == []
    assert len(entries(fresh_build)) == 1


@needs_cc
def test_a_changed_source_byte_rebuilds(monkeypatch, tmp_path, fresh_build):
    sources = []
    for name in native.SOURCES:
        shutil.copy(Path(native.__file__).with_name(name), tmp_path / name)
        sources.append(tmp_path / name)
    builds = count_calls(monkeypatch, native, "_compile")
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


def test_the_entry_name_follows_the_cpu(monkeypatch):
    compiler = shutil.which("cc") or sys.executable  # only stat'ed
    sources = [Path(native.__file__).with_name(name) for name in native.SOURCES]
    names = []
    for cpu in ("flags\t\t: fpu sse2", "flags\t\t: fpu sse2 avx2", "flags\t\t: fpu sse2"):
        monkeypatch.setattr(native, "_cpu", lambda: cpu)
        names.append(native._entry_name(compiler, sources))
    assert names[0] != names[1] and names[0] == names[2]


def test_the_cpu_identity_is_its_flags_line_or_the_processor(monkeypatch):
    if Path("/proc/cpuinfo").is_file():
        assert native._cpu().startswith(("flags", "Features"))

    def unreadable(*args, **kwargs):
        raise OSError("no /proc here")

    monkeypatch.setattr(native, "open", unreadable, raising=False)
    assert native._cpu() == platform.processor()


@needs_cc
def test_an_entry_built_for_one_cpu_is_not_loaded_on_another(monkeypatch, fresh_build):
    monkeypatch.setattr(native, "_cpu", lambda: "flags\t\t: one")
    assert native.library() is not None
    first = entries(fresh_build)
    native._built.clear()
    monkeypatch.setattr(native, "_cpu", lambda: "flags\t\t: two")
    builds = count_calls(monkeypatch, native, "_compile")
    assert native.library() is not None
    assert len(builds) == 1
    assert len(first) == 1 and len(entries(fresh_build)) == 1 and entries(fresh_build) != first


@needs_cc
def test_a_compiler_that_takes_the_host_flag_builds_in_one_command(monkeypatch, fresh_cache):
    builds = count_calls(monkeypatch, native.subprocess, "run")
    assert native.library() is not None
    assert len(builds) == 1
    assert len(entries(fresh_cache)) == 1


@needs_cc
def test_a_compiler_that_rejects_the_host_flag_builds_for_its_default(
    monkeypatch, tmp_path, fresh_cache
):
    compiler = tmp_path / "cc"
    compiler.write_text(f"""#!/bin/sh
for arg; do [ "$arg" = {native._HOST} ] && {{ echo "cc: unknown flag $arg" >&2; exit 1; }}; done
exec {shutil.which("cc")} "$@"
""")
    compiler.chmod(0o755)
    monkeypatch.setattr(native.shutil, "which", lambda name: str(compiler))
    builds = count_calls(monkeypatch, native.subprocess, "run")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        built = fit_and_anneal()
    assert len(builds) == 2  # refused with the flag, then built without it
    assert len(entries(fresh_cache)) == 1
    with unittest.mock.patch.object(native, "library", lambda: None):
        assert fit_and_anneal()[1] == built[1]


@needs_cc
@pytest.mark.parametrize("spoil", ["garbage", "group-writable"])
def test_an_untrusted_entry_is_rebuilt_not_loaded(monkeypatch, tmp_path, fresh_build, spoil):
    native.library()
    (name,) = entries(fresh_build)
    native._built.clear()
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
    builds = count_calls(monkeypatch, native, "_compile")
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
    builds = count_calls(monkeypatch, native, "_compile")
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
    # _compile's own output, which the cache tests do not see: they install the session build
    assert (cache / name).read_bytes()[:4] == b"\x7fELF"
    assert (cache / name).stat().st_mode & 0o777 == 0o755


def test_every_c_source_is_built_and_packaged():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    root = Path(__file__).resolve().parents[1]
    pyproject = tomllib.loads((root / "pyproject.toml").read_text())
    packaged = pyproject["tool"]["setuptools"]["package-data"]["latentqubo"]
    package = root / "src" / "latentqubo"
    assert sorted(path.name for path in package.glob("*.c")) == sorted(native.SOURCES)
    matched = {path.name for pattern in packaged for path in package.glob(pattern)}
    assert sorted(matched) == sorted(native.SOURCES)


# The -march levels the sources are built at, one for each vector width: baseline x86-64 (SSE2,
# 2 doubles), x86-64-v3 (AVX2, 4) and the host (8 under AVX-512F).  _anneal.c writes its lanes
# out at each width; the compiler picks the width of adam_step's and decode_heads' loops, and
# keeps fm_fit's at 2.
X86_64 = platform.machine().lower() in ("x86_64", "amd64")
X86_LEVELS = ["-march=x86-64", "-march=x86-64-v3", native._HOST]
LEVELS = X86_LEVELS if X86_64 else [native._HOST]
# what a CPU must have to run code built for x86-64-v3, as /proc/cpuinfo names it
V3_FLAGS = {"avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "abm", "movbe", "xsave"}


@pytest.fixture(scope="session")
def level_builds(tmp_path_factory):
    """Builds the sources together as C11 with the cached build's flags, a -march level and
    every warning an error: build(level) gives the library's path and the compiler's result."""
    sources = [str(Path(native.__file__).with_name(name)) for name in native.SOURCES]
    builds = {}

    def build(level: str):
        if level not in builds:
            out = tmp_path_factory.mktemp("level") / "_latentqubo.so"
            builds[level] = out, subprocess.run(
                [shutil.which("cc"), *native._FLAGS, "-std=c11", level, "-Wall", "-Wextra",
                 "-Werror", "-o", str(out), *sources, *native._LIBS],
                capture_output=True, text=True,
            )
        return builds[level]

    return build


@needs_cc
def test_the_library_builds_without_warnings(level_builds):
    for level in LEVELS:
        _, result = level_builds(level)
        assert result.returncode == 0, f"{level}: {result.stderr}"


SANITIZERS = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all")
C_TYPES = {None: "void", ctypes.c_ssize_t: "ptrdiff_t", ctypes.c_double: "double",
           np.dtype(np.float64): "double", np.dtype(np.uint64): "uint64_t",
           np.dtype(np.uint8): "uint8_t", np.dtype(np.intp): "ptrdiff_t"}

# Replays kernel calls from standard input: for each, the kernel's index and its number of
# arguments as two int64, then each argument's byte size (an int64) and bytes, read into a heap
# buffer of exactly that size.  It writes the result, if any, and every argument after the call.
DRIVER = r"""
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

%(prototypes)s

int main(void)
{
    int64_t call[2], sizes[%(most)d];
    void *a[%(most)d];
    while (fread(call, sizeof *call, 2, stdin) == 2) {
        for (int64_t j = 0; j < call[1]; j++) {
            if (fread(&sizes[j], sizeof *sizes, 1, stdin) != 1)
                return 2;
            const size_t size = (size_t)sizes[j];
            if (fread(a[j] = malloc(size), 1, size, stdin) != size)
                return 2;
        }
        switch (call[0]) {
%(calls)s
        }
        for (int64_t j = 0; j < call[1]; j++) {
            fwrite(a[j], 1, (size_t)sizes[j], stdout);
            free(a[j]);
        }
    }
    return 0;
}
"""


def kernels(lib) -> list[str]:
    """The kernels that _native.library() binds: each function it gave argtypes."""
    return sorted(name for name, f in vars(lib).items()
                  if isinstance(f, lib._FuncPtr) and f.argtypes is not None)


def is_array(argtype) -> bool:
    return hasattr(argtype, "_dtype_")


def writable(argtype) -> bool:
    return is_array(argtype) and argtype is native._array(argtype._dtype_, argtype._ndim_, out=True)


def c_type(argtype) -> str:
    if not is_array(argtype):
        return C_TYPES[argtype]
    return f"{'' if writable(argtype) else 'const '}{C_TYPES[argtype._dtype_]} *"


def driver_source(lib) -> str:
    """The replay driver's C text, with each kernel's prototype from its argtypes and restype."""
    prototypes, calls = [], []
    for index, name in enumerate(kernels(lib)):
        f = getattr(lib, name)
        prototypes.append(f"{c_type(f.restype)} {name}({', '.join(map(c_type, f.argtypes))});")
        args = ", ".join(f"a[{j}]" if is_array(t) else f"*({c_type(t)} *)a[{j}]"
                         for j, t in enumerate(f.argtypes))
        call = f"{name}({args});"
        if f.restype is not None:
            call = f"{{ const {c_type(f.restype)} r = {call} fwrite(&r, sizeof r, 1, stdout); }}"
        calls.append(f"        case {index}: {call} break;")
    most = max(len(getattr(lib, name).argtypes) for name in kernels(lib))
    return DRIVER % dict(prototypes="\n".join(prototypes), most=most, calls="\n".join(calls))


@pytest.fixture(scope="session")
def sanitized_driver(tmp_path_factory) -> Path:
    """The replay driver, built with every kernel source, the sanitizers, _FLAGS and _HOST, or a
    skip."""
    tmp = tmp_path_factory.mktemp("sanitized")
    (tmp / "probe.c").write_text("int main(void) { return 0; }\n")
    flags = [flag for flag in native._FLAGS if flag != "-shared"] + [native._HOST]
    cc = [shutil.which("cc"), *flags, *SANITIZERS, "-g", "-o"]
    try:
        subprocess.run([*cc, tmp / "probe", tmp / "probe.c"], check=True, capture_output=True)
        subprocess.run([tmp / "probe"], check=True, capture_output=True)
    except subprocess.CalledProcessError:
        pytest.skip("cc cannot build or run a program with -fsanitize=address,undefined")
    (tmp / "driver.c").write_text(driver_source(native.library()))
    here = Path(native.__file__).parent
    sources = [tmp / "driver.c", *(here / name for name in native.SOURCES), *native._LIBS]
    build = subprocess.run([*cc, tmp / "driver", *sources], capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    return tmp / "driver"


# a kernel call: its name, its arguments before and after it with each array copied, its result
Call = collections.namedtuple("Call", "kernel before after result")


def copied(arg, spare: int = 0):
    """arg, or where it is an array, a copy of it with spare bytes of its own after it."""
    if not isinstance(arg, np.ndarray):
        return arg
    copy = np.empty(arg.nbytes + spare, np.uint8)[: arg.nbytes].view(arg.dtype).reshape(arg.shape)
    copy[...] = arg
    return copy


class Recorder:
    """The loaded library, with each kernel call recorded as a Call.

    The kernel runs on copies of the arrays, with 4 KiB to spare after each, and its outputs
    are copied back, so that a call that overruns a buffer is caught in the replay, not here.
    """

    def __init__(self, lib):
        self.lib, self.calls = lib, []

    def __getattr__(self, name):
        kernel = getattr(self.lib, name)

        def recorded(*args):
            before, passed = [copied(arg) for arg in args], [copied(arg, 4096) for arg in args]
            result = kernel(*passed)
            for argtype, arg, copy in zip(kernel.argtypes, args, passed):
                if writable(argtype):
                    arg[...] = copy
            self.calls.append(Call(name, before, [copied(arg) for arg in passed], result))
            return result

        return recorded


def packed(argtype, value) -> bytes:
    """An argument's bytes: an array's, or a scalar's as an 8-byte ptrdiff_t or double."""
    if is_array(argtype):
        return value.tobytes()
    return struct.pack("d" if argtype is ctypes.c_double else "q", value)


def replayed(argtypes, result, args) -> bytes:
    """A call's bytes as the replay driver writes them: its result, if any, then every argument."""
    head = b"" if result is None else struct.pack("q", result)
    return head + b"".join(map(packed, argtypes, args))


def recorded(argtypes, call: Call) -> bytes:
    """The recorded call's bytes as a replay must give them back: its result and its arguments,
    each read-only one as it went in."""
    args = [after if writable(t) else before
            for t, before, after in zip(argtypes, call.before, call.after)]
    return replayed(argtypes, call.result, args)


# (n, k, schedule), k = 0 for the dense form: edge sizes of n and of k, one-sweep schedules, the
# block of 16 reads one short, full and one over, two and many blocks, n on both sides of 64
# and of 128, and a cold end of beta 1000
ANNEAL_ROWS = [
    *((n, k, lq.AnnealSchedule(num_sweeps=sweeps, num_reads=reads))
      for n, reads, k, sweeps in itertools.product((1, 2, 16, 17, 64), (1, 15, 16), (0, 1, 8),
                                                   (1, 3))),
    *((n, 0, schedule) for n, schedule in (
        (1, lq.AnnealSchedule()), (2, lq.AnnealSchedule(num_sweeps=50, num_reads=1)),
        (16, lq.AnnealSchedule()), (16, lq.AnnealSchedule(num_sweeps=1)),
        (16, lq.AnnealSchedule(beta_end=1000.0, num_sweeps=300, num_reads=7)),
        (40, lq.AnnealSchedule(num_sweeps=100, num_reads=9)),
        (180, lq.AnnealSchedule(num_sweeps=25, num_reads=4)),
        (180, lq.AnnealSchedule(num_sweeps=1, num_reads=1)),
        (63, lq.AnnealSchedule(num_sweeps=30, num_reads=5)),
        (64, lq.AnnealSchedule(num_sweeps=30, num_reads=5)),
        (65, lq.AnnealSchedule(num_sweeps=30, num_reads=5)),
        (130, lq.AnnealSchedule(num_sweeps=20, num_reads=3)))),
    *((n, 0, lq.AnnealSchedule(num_sweeps=sweeps, num_reads=reads))
      for n, sweeps in ((16, 100), (64, 20), (180, 6)) for reads in (1, 15, 16, 17, 33, 100)),
    *((n, k, lq.AnnealSchedule(num_sweeps=sweeps, num_reads=reads))
      for n, sweeps in ((64, 20), (130, 8), (180, 6)) for k in (1, 8)
      for reads in (1, 15, 16, 17, 33)),
    (180, 8, lq.AnnealSchedule(num_sweeps=1, num_reads=16)),
    (64, 1, lq.AnnealSchedule(num_sweeps=1, num_reads=1)),
    *((17, k, lq.AnnealSchedule(beta_end=1000.0, num_sweeps=40, num_reads=reads))
      for reads, k in itertools.product((1, 7, 16), (0, 3))),
]


def anneal_cases(recorder) -> None:
    """_anneal_blocks on each of ANNEAL_ROWS' FM QUBOs, dense or through the factors, giving
    the numpy loop's reads."""
    for n, k, schedule in ANNEAL_ROWS:
        model = random_fm(np.random.default_rng(n * 100 + k), n, max(k, 1))
        q, V = lq.fm_to_qubo(model), model.V if k else None
        finals = []
        for anneal in (lambda *args: samplers._anneal_blocks(recorder, *args), samplers._anneal_numpy):
            rngs = [np.random.default_rng(s)
                    for s in np.random.SeedSequence(n + k).spawn(schedule.num_reads)]
            finals.append(np.array([rng.integers(0, 2, n) for rng in rngs], dtype=np.float64))
            anneal(q, schedule.betas(), rngs, finals[-1], V)
        assert finals[0].tobytes() == finals[1].tobytes()


def adam_cases(recorder) -> None:
    """A bVAE's training steps, and steps of sizes below, at and past a vector of every width,
    so that the compiler's vector loop and its epilogue both run (at 8 lanes, 23 leaves 7
    elements to the epilogue); each step gives the numpy twin's bits."""
    lq.bvae_train(*bvae_case(), epochs=2, seed=0, batch_size=5)
    for size, steps in itertools.product((1, 2, 3, 23), (1, 2, 1000)):
        rng = np.random.default_rng(size * 1000 + steps)
        p, m, v = rng.normal(size=size), np.zeros(size), np.zeros(size)
        gradients = rng.normal(scale=10.0 ** rng.integers(-6, 2, (steps, 1)), size=(steps, size))
        gradients[rng.random((steps, size)) < 0.1] = 0.0  # zero gradients leave v at +0.0 at first
        for t, g in enumerate(gradients, start=1):
            recorder.adam_step(size, p, m, v, g, 1e-3, bvae._BETA1, bvae._BETA2,
                               1.0 - bvae._BETA1**t, 1.0 - bvae._BETA2**t, bvae._EPS)
    for call in recorder.calls:
        size, p, m, v, g, lr, _, _, c1, c2, _ = map(copied, call.before)
        bvae._adam_numpy(p, m, v, g, lr, c1, c2, np.empty(size))
        assert [a.tobytes() for a in (p, m, v)] == [a.tobytes() for a in call.after[1:4]]


# values of 24 bytes, the widest %.17g writes: the buffer has no byte to spare in a row of them
WIDEST = [-2.2250738585072014e-308, -1.2345678901234567e-300, -9.8765432109876543e+307]
# values the kernel hands to snprintf, and the edges of its integer path
FALLBACK = [1e-300, 5e-324, 1e20, 1e300, 1.7976931348623157e308, 1e-16, 1e17, -1e-17]
EDGES = [0.0, -0.0, 1e-4, 1e-5, 9.999999999999999e16, 1.0000000000000002e-16, 0.1, -1.5,
         math.nan, -math.nan, math.inf, -math.inf]


def format_cases(recorder) -> None:
    """float_rows on 1, 2 and 17 rows and columns from each pool, giving the numpy text."""
    assert [len(_text.float_text(x)) for x in WIDEST] == [24] * 3
    normals = np.random.default_rng(0).normal(size=50) * 10.0 ** np.arange(-25, 25)
    pools = [WIDEST, FALLBACK, EDGES, [*normals, *FALLBACK, *EDGES, *WIDEST]]
    for rows, cols, pool in itertools.product((1, 2, 17), (1, 2, 17), pools):
        values = np.random.default_rng(rows * 100 + cols).choice(np.array(pool), (rows, cols))
        compiled = _text.float_rows(values)
        with unittest.mock.patch.object(native, "library", lambda: None):
            assert compiled == _text.float_rows(values)


def energy_cases(recorder) -> None:
    """Brute force's chunks, a run from state 0, and chunks at the first, middle and last states."""
    for n in (1, 2, 16, 17, 64):
        q = random_qubo(np.random.default_rng(n), n)
        last = min((1 << n) - 1, (1 << 63) - 1)  # the kernel's start is a ptrdiff_t
        for start, count in ((0, min(1 << n, 300)), (max(last - 5, 0), min(last, 5) + 1),
                             (0, 1), (last, 1), (last // 3, 1)):
            recorder.qubo_energies(n, start, count, q.linear, q.upper, q.offset, np.empty(count))
        if n <= 17:
            lq.brute_force_sample(q, top_k=3)
    for call in recorder.calls:
        n, start, count, linear, upper, offset, _ = call.before
        states = samplers._bits_from_ints(np.arange(start, start + count, dtype=np.uint64), n)
        assert call.after[6].tobytes() == qubo._energy_loop(states, linear, upper, offset).tobytes()


def row_energy_cases(recorder) -> None:
    """qubo_energy on one row and on rows of none, some and all bits set at n = 1, 2, 17 and 180,
    and the annealer's final energies, each giving the numpy energy loop's bits."""
    for n in (1, 2, 17, 180):
        rng = np.random.default_rng(n)
        q = random_qubo(rng, n)
        X = rng.integers(0, 2, (6, n)).astype(np.uint8)
        X[0], X[-1] = 0, 1
        lq.qubo_energy(q, X)
        lq.qubo_energy(q, X[1].astype(bool))
    lq.simulated_annealing_sample(random_qubo(np.random.default_rng(3), 8), SCHEDULE, 0)
    model = random_fm(np.random.default_rng(4), 40, 3)
    lq.simulated_annealing_sample(lq.fm_to_qubo(model), SCHEDULE, 0, factors=model.V)
    recorder.calls[:] = [call for call in recorder.calls if call.kernel == "qubo_row_energies"]
    assert [call.before[1] for call in recorder.calls[-2:]] == [8, 40]  # the annealer's two calls
    for call in recorder.calls:
        _, _, bits, linear, upper, offset, _, _ = call.before
        assert call.after[7].tobytes() == qubo._energy_loop(bits, linear, upper, offset).tobytes()


# (n, rank, rows, split) of fits from a cold start: a one-row set and an all-training split
# among them; rank 3 takes one 2-lane vector of factors and the epilogue's odd last one
FM_ROWS = [
    (1, 1, 30, (0.7, 0.1, 0.2)), (2, 8, 30, (0.7, 0.1, 0.2)), (16, 1, 150, (0.7, 0.1, 0.2)),
    (16, 8, 150, (0.7, 0.1, 0.2)), (16, 8, 1, (0.7, 0.1, 0.2)), (16, 8, 120, (0.4, 0.3, 0.3)),
    (40, 8, 200, (0.7, 0.1, 0.2)), (180, 1, 150, (1.0, 0.0, 0.0)), (180, 8, 150, (0.7, 0.1, 0.2)),
    (16, 3, 150, (0.7, 0.1, 0.2)), (180, 3, 150, (0.7, 0.1, 0.2)),
]


def fm_fit_cases(recorder) -> None:
    """fm_train on rows of no set bits and of all, on rows that no shuffle visits, on FM_ROWS
    and from warm starts of normal and of uniform draws, each for 1 and 30 epochs there, giving
    the numpy loop's bits."""
    for n, k, (epochs, rows) in itertools.product((1, 2, 16, 17, 64), (1, 3, 8),
                                                  ((1, 1), (1, 20), (3, 7))):
        rng = np.random.default_rng(n * 100 + k * 10 + rows)
        X = rng.integers(0, 2, (rows + 2, n)).astype(np.uint8)
        X[0], X[-1] = 0, 1
        data = lq.LabeledDataset(X, rng.random(rows + 2), ("case",) * (rows + 2))
        cfg = lq.FmTrainConfig(epochs=epochs, rank=k, split=(rows / (rows + 2), 2 / (rows + 2), 0))
        lq.fm_train(data, cfg, warm_start=random_fm(rng, n, k))
        assert recorder.calls[-1].before[:4] == [n, k, epochs, rows]
    for (n, k, rows, split), epochs in itertools.product(FM_ROWS, (1, 30)):
        cfg = lq.FmTrainConfig(epochs=epochs, rank=k, split=split, seed=k)
        lq.fm_train(random_dataset(n, rows, seed=n + rows), cfg)
        assert recorder.calls[-1].before[:3] == [n, k, epochs]
    for start, epochs in itertools.product((random_model, random_fm), (1, 30)):
        cfg = lq.FmTrainConfig(epochs=epochs, rank=8, seed=7)
        lq.fm_train(random_dataset(16, 150, seed=5), cfg,
                    warm_start=start(np.random.default_rng(6), 16, 8))
    for call in recorder.calls:
        orders, X, Y, lr, *state = map(copied, call.before[4:14])  # w0, w, V and accumulators
        fm._fit_numpy(orders, X, Y, lr, *state)
        assert [a.tobytes() for a in state] == [a.tobytes() for a in call.after[8:14]]


def decode_cases(recorder) -> None:
    """_decode_heads on 0, 1, 2 and 17 rows, with hidden sizes and heads below, at and above a
    16-unit block and two, so the blocks and the scalar tail both run in every layer, giving
    the numpy twin's heads."""
    for n, hidden, pixels, rows in itertools.product(
            (1, 16, 180), ((1, 3), (3, 1), (16, 17), (17, 16), (17, 33)), (9, 16, 36),
            (0, 1, 2, 17)):
        params = decoder_params(n, hidden, pixels, seed=n * 100 + pixels)
        X = latent_rows(n, rows, seed=rows)
        compiled = bvae._decode_heads(params, X)
        assert compiled.shape == (rows, pixels)
        assert compiled.tobytes() == bvae._decode_numpy(params, X).tobytes()


# plain rows, blank lines, an unended last line, and the tokens the parser refuses or reads at
# the edges of its exact and strtod_l paths
PARSE_TEXTS = [
    b"1.5 -2e-3\n0.25 7\n-0 +.5\n",
    b"\t1\t2 \n  \n\n3 4\n5 6",
    b"1_0 2\n5. 1e\n1e+ .\n- +\ne5 0x1p-2\n1,5 inf\nnan 1e400\n1e-400 5e-324\n",
    b"1234567890123456789012345 9999999999999999999e27\n1e-27 0.000000000000000000001\n",
    b"1234567890123456789012345678901234567890123456789012345678901234567890 1\n",
    b"1 2\r\n3 4\v\n5 6 7\n8\n\xc2\x85 9\n",
]


def parse_cases(recorder) -> None:
    """A checkpoint load, and each text's every prefix, for 1-4 rows of 1-3 columns."""
    model, _ = lq.bvae_train(*bvae_case(), epochs=1, seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        lq.save_bvae(model, Path(tmp) / "bvae.txt")
        recorder.calls.clear()  # training's and saving's calls
        lq.load_bvae(Path(tmp) / "bvae.txt")
    for text, rows, cols in itertools.product(PARSE_TEXTS, range(1, 5), range(1, 4)):
        for size in range(len(text) + 1):
            recorder.parse_floats(np.frombuffer(text[:size], np.uint8), size, rows, cols,
                                  np.empty((rows, cols)), np.empty(2, np.intp))
    for call in recorder.calls:
        text, size, rows, _, _, used = call.after
        read, at_line = call.result, not used[0] or used[0] == size or text[used[0] - 1] == ord("\n")
        assert 0 <= read <= rows and 0 <= used[0] <= size and used[1] >= read and at_line


# a newline, the bytes on each side of printable ASCII, a tab and a space at every place in and
# around a 32-byte block of a long line, then a line of its own
SKIP_TEXTS = [
    b"1" * at + sep + b"2" * (69 - at) + b"\n3\n"
    for at in range(70) for sep in (b"\n", b"\x1f", b"\x7f", b"\xc2\x85", b"\t", b" ", b"~")
] + [  # long blank lines, and long lines of spaces with one byte of text
    b" " * at + b"\t" * tabs + end + b" " * 40 + b"\n4\n"
    for at in (0, 31, 32, 33, 64) for tabs in (0, 1) for end in (b"", b"5", b"\xff")
]


def skipped(text: bytes, rows: int) -> tuple[int, int, int]:
    """skip_rows's result and used by its definition, a line at a time: the nonblank lines,
    bytes and lines passed, up to rows nonblank lines and before the first line refused."""
    row = at = lines = 0
    while row < rows and at < len(text):
        end = text.find(b"\n", at)
        end = len(text) if end < 0 else end
        line = text[at:end]
        if any(not (32 <= byte <= 126 or byte == 9) for byte in line):
            break
        row += bool(line.strip(b" \t"))
        lines += 1
        at = min(end + 1, len(text))
    return row, at, lines


def skip_cases(recorder) -> None:
    """A decoder-only checkpoint load, each of PARSE_TEXTS' prefixes for 1-4 rows, and
    SKIP_TEXTS for 1-3 rows, each passing what skipped() passes."""
    model, _ = lq.bvae_train(*bvae_case(), epochs=1, seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        lq.save_bvae(model, Path(tmp) / "bvae.txt")
        lq.load_bvae(Path(tmp) / "bvae.txt", decoder_only=True)
    recorder.calls[:] = [call for call in recorder.calls if call.kernel == "skip_rows"]
    prefixes = [(text[:size], rows) for text, rows in itertools.product(PARSE_TEXTS, range(1, 5))
                for size in range(len(text) + 1)]
    for text, rows in prefixes + list(itertools.product(SKIP_TEXTS, range(1, 4))):
        recorder.skip_rows(np.frombuffer(text, np.uint8), len(text), rows, np.empty(2, np.intp))
    for call in recorder.calls:
        text, size, rows, used = call.after
        assert (call.result, *used) == skipped(text.tobytes(), rows)


CASES = {"anneal_block": anneal_cases, "adam_step": adam_cases, "format_floats": format_cases,
         "qubo_energies": energy_cases, "qubo_row_energies": row_energy_cases,
         "fm_fit": fm_fit_cases, "decode_heads": decode_cases, "parse_floats": parse_cases,
         "skip_rows": skip_cases}


@needs_cc
def test_every_kernel_has_replayed_cases():
    assert kernels(native.library()) == sorted(CASES)


@pytest.fixture(scope="session", params=sorted(CASES))
def recording(request) -> tuple[str, list[Call]]:
    """A kernel and its calls, recorded once with a Recorder as _native.library() while its
    builder in CASES checks them against the numpy twin."""
    recorder = Recorder(native.library())
    with unittest.mock.patch.object(native, "library", lambda: recorder):
        CASES[request.param](recorder)
    return request.param, recorder.calls


@needs_cc
def test_every_kernel_call_gives_the_numpy_twins_bits(recording):
    kernel, calls = recording
    assert calls and {call.kernel for call in calls} == {kernel}


@needs_cc
def test_each_kernel_replays_clean_under_asan_and_ubsan(recording, sanitized_driver):
    """Each recorded call gives back in the sanitized driver the recorded bytes."""
    kernel, calls = recording
    lib = native.library()
    argtypes = getattr(lib, kernel).argtypes
    head = struct.pack("qq", kernels(lib).index(kernel), len(argtypes))
    stdin = b"".join(head + b"".join(struct.pack("q", len(given)) + given
                                     for given in map(packed, argtypes, call.before))
                     for call in calls)
    result = subprocess.run([sanitized_driver], input=stdin, capture_output=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, b""), result.stderr.decode(errors="replace")
    out = io.BytesIO(result.stdout)
    wanted = (recorded(argtypes, call) for call in calls)
    assert [i for i, want in enumerate(wanted) if out.read(len(want)) != want] == []
    assert out.read() == b""


def rerun(kernel, call: Call) -> bytes:
    """The recorded call made again on kernel, another build's function, as replay bytes."""
    args = [copied(arg) for arg in call.before]
    return replayed(kernel.argtypes, kernel(*args), args)


@needs_cc
@pytest.mark.parametrize("level", X86_LEVELS, ids=lambda level: level.removeprefix("-march="))
def test_every_vector_width_gives_the_recorded_bits(level, level_builds, recording):
    # each level builds the kernels at its own vector width; this host runs the widest it has
    if not X86_64:
        pytest.skip("the widths are x86-64 levels")
    if level == "-march=x86-64-v3" and not V3_FLAGS <= set(native._cpu().split()):
        pytest.skip("this CPU cannot run x86-64-v3 code")
    path, result = level_builds(level)
    assert result.returncode == 0, result.stderr
    kernel, calls = recording
    f = getattr(native._bind(ctypes.CDLL(str(path))), kernel)
    differ = [i for i, call in enumerate(calls) if rerun(f, call) != recorded(f.argtypes, call)]
    assert differ == [], f"{level}: {kernel} calls {differ} of {len(calls)} differ"
