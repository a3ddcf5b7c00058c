import ast
import subprocess
import sys
from pathlib import Path

import totirr


def test_every_exported_name_resolves():
    # a stale string in __all__ would otherwise only fail at `from totirr import *`
    assert [name for name in totirr.__all__ if not hasattr(totirr, name)] == []
    assert len(set(totirr.__all__)) == len(totirr.__all__)
    assert set(totirr.__all__) <= set(dir(totirr))


def test_importing_the_root_loads_no_submodule():
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(totirr.__file__).parents[1])!r})\n"
        "import totirr\n"
        "print(sorted(m for m in sys.modules if m.startswith('totirr.')))\n"
        "from totirr import Graph, SplitMix64\n"
        "print(sorted(m for m in sys.modules if m.startswith('totirr.')))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[]\n['totirr.graphs', 'totirr.rng']\n"


def test_no_submodule_imports_dataclasses():
    # -S: no site hook may load modules first; each value class is written by hand, which keeps start-up cheap
    modules = ("graphs", "irregularity", "fileio", "generators", "rng", "partitions", "predictors", "transforms",
               "audit", "cli")
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(totirr.__file__).parents[1])!r})\n"
        f"for name in {modules!r}:\n"
        "    __import__('totirr.' + name)\n"
        "print(len([m for m in sys.modules if m.startswith('totirr.')]), 'dataclasses' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "10 False\n", "")


def _unused_imports(source):
    """The names that source imports and never reads, string annotations included."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported.add(alias.asname or alias.name.partition(".")[0])
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation]
    annotations += [n.returns for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    quoted = [ast.parse(a.value, mode="eval") for a in annotations if isinstance(getattr(a, "value", None), str)]
    read = {n.id for root in (tree, *quoted) for n in ast.walk(root) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    # a guard deleted with its exception class must take the class's import with it, and a test that stops
    # reading a name must drop its import
    files = [*Path(totirr.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    found = {f"{p.parent.name}/{p.name}": _unused_imports(p.read_text()) for p in files}
    assert {name: unused for name, unused in found.items() if unused} == {}
    assert _unused_imports("from __future__ import annotations\nfrom .graphs import GraphError\n") == ["GraphError"]
    assert _unused_imports("from typing import Sequence\ndef f(x: 'Sequence[int]'): pass\n") == []
