"""Every name a module of src/morphmix imports is used in that module, every
private module-level helper is read somewhere in src/morphmix, only errors.py
reads, writes, makes, renames or deletes a file or directory, the CLI runs
without scipy, and eval and embed-mock run without OpenSSL.

No linter runs on this code, so a deletion can leave a dead import or helper behind.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import eval_inputs, float_wav, run_python

SRC = Path(__file__).resolve().parent.parent / "src" / "morphmix"


def unused_imports(source):
    """The names that source binds by import and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_a_dead_import():
    assert unused_imports("import io\nimport os.path\nfrom a import b as c\nos.sep\n") == ["c", "io"]


MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_import(name):
    assert unused_imports((SRC / name).read_text(encoding="utf-8")) == []


def dead_helpers(sources):
    """The private module-level functions, classes and constants (module.name) in
    sources, a dict of module name to source, that no module reads."""
    defined, read = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined.update((module, n) for n in names
                           if n.startswith("_") and not n.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_dead_helpers_finds_an_unread_helper():
    sources = {"a": "def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\n"
                    "_LIMIT = 3\n_x, _y = 1, 2\n__all__ = []\n",
               "b": "from .a import _used as use\nimport a\nuse()\na._x\nprint(_LIMIT)\n"}
    assert dead_helpers(sources) == ["a._Gone", "a._dead", "a._y"]


def test_every_private_helper_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert dead_helpers(sources) == []


def file_writers(source):
    """The line numbers of the calls in source that can write a file: an open (the
    builtin, io's or a path's) whose mode writes, appends, creates or updates, or is
    not a string literal; os.open; .write_bytes and .write_text."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        owner = getattr(getattr(func, "value", None), "id", None)
        if name in ("write_bytes", "write_text") or (name == "open" and owner == "os"):
            lines.append(node.lineno)
        elif name == "open":
            # open(file, mode) and io.open(file, mode), but a path's open(mode)
            at = 1 if isinstance(func, ast.Name) or owner in ("io", "builtins") else 0
            modes = node.args[at:at + 1] + [k.value for k in node.keywords if k.arg == "mode"]
            mode = modes[0] if modes else ast.Constant("r")
            if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str) \
                    or set(mode.value) & set("wax+"):
                lines.append(node.lineno)
    return sorted(lines)


# any call of these as a method or a module's function opens, reads, writes, makes or
# deletes a file or directory
FILE_METHODS = {"open", "FileIO", "read_bytes", "read_text", "write_bytes", "write_text",
                "mkdir", "unlink"}
# these only as os's: str has a replace
OS_FUNCTIONS = {"makedirs", "replace", "rename", "remove"}


def file_system_calls(source):
    """The line numbers of the calls in source that open, read, write, make, rename or
    delete a file or directory: open and FileIO, a FILE_METHODS method or an
    OS_FUNCTIONS function of os. A bare read_bytes(p) or read_text(p) is errors' reader,
    not a path's."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            hit = func.id in ("open", "FileIO")
        else:
            owner = getattr(getattr(func, "value", None), "id", None)
            name = getattr(func, "attr", None)
            hit = name in FILE_METHODS or (owner == "os" and name in OS_FUNCTIONS)
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_file_writers_finds_each_way_to_write_a_file():
    source = ("open(p)\nopen(p, 'rb')\nopen(p, 'wb')\nopen(p, mode='a')\nio.open(p, 'x')\n"
              "path.open('r+')\npath.open()\nopen(p, m)\nos.open(p, 0)\np.write_bytes(b)\n"
              "p.write_text(t)\nf.write(b)\np.read_text()\n"
              "io.FileIO(p)\np.read_bytes()\np.mkdir()\nos.mkdir(p)\nos.makedirs(p)\n"
              "os.replace(a, b)\nos.rename(a, b)\nos.remove(p)\nos.unlink(p)\np.unlink()\n"
              "s.replace(a, b)\nread_bytes(p)\n")
    assert file_writers(source) == [3, 4, 5, 6, 8, 9, 10, 11]
    # every line but f.write(b), a write to an open file, and the str and errors calls
    assert file_system_calls(source) == [n for n in range(1, 24) if n != 12]


def test_only_errors_writes_files():
    # errors.write_atomic is the one writer: the temp file, then a rename over the target
    writers = {p.name: file_writers(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    assert writers.pop("errors.py") != []
    assert {name: lines for name, lines in writers.items() if lines} == {}


def test_only_errors_reads_files_and_makes_directories():
    # errors.read_bytes, write_atomic and make_dirs are the only file-system boundary
    calls = {p.name: file_system_calls(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    assert calls.pop("errors.py") != []
    assert {name: lines for name, lines in calls.items() if lines} == {}


# scipy.fft's plan cache made a 240,007-point FFT about 1.7x faster with the same
# spectra, but importing it added about 21 MB of peak RSS and 0.25 s to every command
def test_the_cli_does_not_import_scipy():
    assert run_python("import sys, morphmix.cli; print('scipy' in sys.modules)") == "False\n"


# only build hashes (hashlib loads OpenSSL's libcrypto, 3.6 MB resident), and only build
# and embed-mock start threads (concurrent.futures loads logging too)
def test_eval_and_embed_mock_load_neither_openssl_nor_the_thread_pool(tmp_path):
    eval_inputs(tmp_path, np.random.default_rng(0))
    (tmp_path / "clips").mkdir()
    float_wav(tmp_path / "clips" / "a.wav", np.linspace(-0.5, 0.5, 24000))
    eval_argv = ["eval", tmp_path / "clips.jsonl", "--store", tmp_path / "store",
                 "--reference", tmp_path / "ref.mxeb", "--out", tmp_path / "report.md"]
    embed_argv = ["embed-mock", tmp_path / "clips", "--out-store", tmp_path / "embedded",
                  "--latents"]
    code = f"""
import json, sys
from morphmix import cli
def loaded():
    return [m for m in ("_hashlib", "concurrent.futures") if m in sys.modules]
seen = {{"import": loaded()}}
seen["eval"] = (cli.main({[str(a) for a in eval_argv]!r}), loaded())
seen["embed-mock"] = (cli.main({[str(a) for a in embed_argv]!r}), loaded())
print(json.dumps(seen))
"""
    seen = json.loads(run_python(code).splitlines()[-1])
    assert seen["import"] == [] and seen["eval"] == [0, []]
    assert seen["embed-mock"][0] == 0 and "_hashlib" not in seen["embed-mock"][1]
