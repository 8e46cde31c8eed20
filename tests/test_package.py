import ast
import types
from pathlib import Path

import latentqubo as lq
from latentqubo import bvae, dataset, fm, images, objectives, pipeline, qubo, samplers

# calls that read or write a file's contents; only _text.py makes them
FILE_CALLS = {
    "open", "read_text", "write_text", "read_bytes", "write_bytes",
    "loadtxt", "savetxt", "fromfile", "tofile",
}
# calls that start threads; only samplers._pool makes one, the process's annealing executor
THREAD_CALLS = {"ThreadPoolExecutor", "Thread"}


def public_names() -> set[str]:
    return {
        name for name, value in vars(lq).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_public_names_are_the_modules_exports():
    modules = (bvae, dataset, fm, images, objectives, pipeline, qubo, samplers)
    assert public_names() == {name for module in modules for name in module.__all__}


def loaded_names(source: str) -> set[str]:
    """The names that source reads, as names or as attributes."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_name_is_read_outside_its_unit_tests():
    # the package's own modules, perfbench, the scripts and the acceptance criteria read every
    # exported name; a name that only its unit tests read is dead API
    package = Path(lq.__file__).parent
    root, tests = Path(__file__).resolve().parents[1], Path(__file__).parent
    paths = [
        *(path for path in package.glob("*.py") if path.name != "__init__.py"),
        *(root / "perfbench").rglob("*.py"), *(root / "scripts").glob("*.py"),
        tests / "test_acceptance.py", tests / "helpers.py", tests / "conftest.py",
    ]
    read = set().union(*(loaded_names(path.read_text()) for path in paths))
    assert sorted(public_names() - read) == []
    assert loaded_names("import a\na.b = c.d(e)\n") == {"a", "c", "d", "e"}


def named_calls(source: str, wanted: set[str]) -> list[str]:
    """The names in wanted that source calls, as functions or as methods."""
    calls = [node.func for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
    names = [getattr(func, "id", None) or getattr(func, "attr", None) for func in calls]
    return [name for name in names if name in wanted]


def test_only_the_text_codec_reads_and_writes_files():
    # _native hashes its own C sources and reads the CPU's identity from /proc/cpuinfo; every
    # other file goes through _text's reader and writer
    package = Path(lq.__file__).parent
    found = {
        path.name: calls for path in sorted(package.glob("*.py"))
        if path.name != "_text.py" and (calls := named_calls(path.read_text(), FILE_CALLS))
    }
    assert {name: sorted(calls) for name, calls in found.items()} == {
        "_native.py": ["open", "read_bytes"]}
    planted = "from pathlib import Path\nPath('x').read_text()\n"
    assert named_calls(planted, FILE_CALLS) == ["read_text"]


def test_only_the_annealing_pool_starts_threads():
    # samplers._pool makes one executor per process; a threaded kernel takes its threads from it
    package = Path(lq.__file__).parent
    found = {
        path.name: calls for path in sorted(package.glob("*.py"))
        if (calls := named_calls(path.read_text(), THREAD_CALLS))
    }
    assert found == {"samplers.py": ["ThreadPoolExecutor"]}
    planted = "import threading\nthreading.Thread(target=print).start()\n"
    assert named_calls(planted, THREAD_CALLS) == ["Thread"]


def unused_imports(source: str) -> list[str]:
    """The names that source imports and never reads, save ``__all__``'s and ``__future__``'s."""
    tree = ast.parse(source)
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        item.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "__all__" for target in node.targets)
        for item in node.value.elts
    }
    return [name for name in imported if name not in read | exported]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export; every other module, test and script must read each name
    # it imports
    package = Path(lq.__file__).parent
    root = Path(__file__).resolve().parents[1]
    paths = [*package.glob("*.py"), *(root / "tests").glob("*.py"), *(root / "scripts").glob("*.py")]
    found = {
        f"{path.parent.name}/{path.name}": names for path in sorted(paths)
        if path != package / "__init__.py" and (names := unused_imports(path.read_text()))
    }
    assert found == {}
    assert unused_imports("import os\nfrom a import b as c, d\nd()\n") == ["os", "c"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


# what makes _native build again: a new cache directory, another _compile, a forgotten library
REBUILDS = {"_CACHE_DIR", "_compile"}


def rebuilds(source: str) -> list[str]:
    """Each patch of _native._CACHE_DIR or _native._compile that source makes, by name in a
    call or by assignment, and each _built.clear() it calls."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            found += [arg.value for arg in node.args
                      if isinstance(arg, ast.Constant) and arg.value in REBUILDS]
            if getattr(node.func, "attr", None) == "clear" and getattr(
                    node.func.value, "attr", None) == "_built":
                found.append("_built.clear")
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and node.attr in REBUILDS):
            found.append(node.attr)
    return sorted(found)


def test_only_the_native_tests_build_the_kernels_again():
    # conftest.py's fixtures forget the library and install the session's build; test_native.py
    # tests the build itself; every other test uses the library the session has loaded
    tests = Path(__file__).parent
    found = {
        path.name: calls for path in sorted(tests.glob("*.py"))
        if path.name not in ("conftest.py", "test_native.py")
        and (calls := rebuilds(path.read_text()))
    }
    assert found == {}
    planted = ('monkeypatch.setattr(native, "_CACHE_DIR", tmp_path)\nnative._built.clear()\n'
               'native._compile = None\n')
    assert rebuilds(planted) == ["_CACHE_DIR", "_built.clear", "_compile"]
