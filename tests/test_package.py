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
# calls that start threads; only samplers._pool makes one
THREAD_CALLS = {"ThreadPoolExecutor", "Thread"}


def test_public_names_are_the_modules_exports():
    exported = {
        name for name, value in vars(lq).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    modules = (bvae, dataset, fm, images, objectives, pipeline, qubo, samplers)
    assert exported == {name for module in modules for name in module.__all__}


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
    # samplers._pool starts its threads once per process; a threaded kernel takes them from it
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
