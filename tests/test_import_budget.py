"""The import budget: a process loads only the ``repro`` modules it runs.

Every package ``__init__`` exports its names lazily through
:func:`repro.lazy_exports` (DESIGN §3, "Imports").  Each check runs in a
fresh interpreter, since the test process has long since imported
everything:

- ``import repro`` loads no other ``repro`` module;
- the benchmark's ``from repro…`` imports (the top of
  ``benchmarks/e2e/workloads.py``) stay within :data:`BUDGET` modules and
  load nothing from the packages they do not run;
- ``python -m repro list`` loads at most :data:`LIST_BUDGET` modules
  and no experiment: a registry row looks its functions up when it runs;
- every package's exports resolve, are listed by ``dir()``, are exactly
  what ``from pkg import *`` binds, and an unknown name is an
  ``AttributeError``.

The teeth plant an eagerly importing package under ``tmp_path`` and run
the same checks on it, and plant a registry row bound at import.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_WORKLOADS = ROOT / "benchmarks" / "e2e" / "workloads.py"

#: ``repro`` modules the benchmark's import set may load: what its four
#: workloads run.  The two ``run_chaos`` workloads prepare nothing before
#: their timed run, so everything that run executes is loaded here.
BUDGET = 70
#: Packages the benchmark's workloads never run.
NOT_RUN = ("repro.aladdin", "repro.wish", "repro.baselines")
#: The only experiment the benchmark runs.
EXPERIMENTS_RUN = {"repro.experiments", "repro.experiments.sharded"}

#: ``repro`` modules listing the experiments may load: the package, the
#: registry, the two lazy packages its rows name and the table renderer.
LIST_BUDGET = 5
LIST = (
    "import contextlib, io\n"
    "from repro.__main__ import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert main(['list']) == 0\n"
)

PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py")
)


def loaded(code: str, src: Path = SRC) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after running
    ``code`` with ``src`` on its path."""
    script = (
        f"{code}\nimport json, sys\n"
        "print(json.dumps(sorted(name for name in sys.modules "
        "if name == 'repro' or name.startswith('repro.'))))\n"
    )
    return json.loads(_run(script, src))


def _run(script: str, src: Path = SRC) -> str:
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=src,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def benchmark_imports() -> str:
    """The ``from repro…`` lines at the top of the benchmark's workloads."""
    tree = ast.parse(BENCHMARK_WORKLOADS.read_text())
    return "\n".join(
        ast.unparse(node)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        and node.module.split(".")[0] == "repro"
    )


def root_faults(modules: list[str]) -> list[str]:
    return [name for name in modules if name != "repro"]


def budget_faults(modules: list[str]) -> list[str]:
    faults = [
        name for name in modules
        if name.startswith(NOT_RUN)
        or (name.startswith("repro.experiments") and name not in EXPERIMENTS_RUN)
    ]
    if len(modules) > BUDGET:
        faults.append(f"{len(modules)} modules > {BUDGET}")
    return faults


def test_import_repro_loads_nothing_else():
    assert root_faults(loaded("import repro")) == []


def test_benchmark_imports_stay_within_budget():
    imports = benchmark_imports()
    assert "repro.core.shard" in imports  # the parse found the import block
    assert budget_faults(loaded(imports)) == []


def list_faults(modules: list[str]) -> list[str]:
    faults = [name for name in modules if name.startswith("repro.experiments.")]
    if len(modules) > LIST_BUDGET:
        faults.append(f"{len(modules)} modules > {LIST_BUDGET}")
    return faults


def test_listing_the_experiments_imports_none():
    assert list_faults(loaded(LIST)) == []


def test_teeth_a_row_bound_at_import_breaks_the_list_budget():
    planted = (
        "from repro import __main__ as cli, experiments\n"
        "cli.EXPERIMENTS['x'] = cli.Experiment(\n"
        "    'x', experiments.run_fault_month, str)\n"
    )
    faults = list_faults(loaded(planted + LIST))
    assert "repro.experiments.fault_tolerance" in faults
    assert faults[-1].endswith(f"modules > {LIST_BUDGET}")


PACKAGE_CHECK = """
import importlib, json, pkgutil, types
faults = []
for name in PACKAGES:
    package = importlib.import_module(name)
    exported = list(package.__all__)
    listed = dir(package)
    faults += [f"{name}.{e}: not in dir()" for e in exported if e not in listed]
    try:
        package.no_such_export
        faults.append(f"{name}.no_such_export resolved")
    except AttributeError:
        pass
    # Import every submodule directly first: none may hide an export.
    for info in pkgutil.iter_modules(package.__path__, name + "."):
        importlib.import_module(info.name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    del namespace["__builtins__"]
    if sorted(namespace) != sorted(exported):
        faults.append(f"{name}: * binds {sorted(set(namespace) ^ set(exported))}")
    faults += [
        f"{name}.{e} is a module"
        for e in exported
        if isinstance(getattr(package, e), types.ModuleType)
    ]
print(json.dumps(faults))
"""


def test_every_package_export_resolves():
    assert len(PACKAGES) == 14
    assert json.loads(_run(f"PACKAGES = {PACKAGES!r}\n{PACKAGE_CHECK}")) == []


# ---------------------------------------------------------------------------
# Teeth: a package that imports eagerly breaks the budget
# ---------------------------------------------------------------------------


EAGER_TREE = {
    "repro/__init__.py": "from repro.aladdin import AladdinHome\n",
    "repro/aladdin/__init__.py": "AladdinHome = object\n",
    "repro/experiments/__init__.py": (
        "from repro.experiments.chaos import run_chaos_experiment\n"
        "from repro.experiments.sharded import E13_PROFILE\n"
    ),
    "repro/experiments/chaos.py": "run_chaos_experiment = None\n",
    "repro/experiments/sharded.py": "E13_PROFILE = None\n",
}


def test_teeth_an_eager_package_breaks_the_budget(tmp_path):
    for relative, text in EAGER_TREE.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert root_faults(loaded("import repro", tmp_path)) == ["repro.aladdin"]
    modules = loaded(
        "from repro.experiments.sharded import E13_PROFILE", tmp_path
    )
    assert budget_faults(modules) == [
        "repro.aladdin", "repro.experiments.chaos",
    ]
