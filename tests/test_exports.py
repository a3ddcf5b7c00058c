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
