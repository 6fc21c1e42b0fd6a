"""The package's public surface: every name `uavlink.__all__` and the
`__all__` of each submodule list resolves, no module keeps an import it
neither uses nor exports, every function the benchmark's tracer wraps
exists, README's quick start runs, with scipy importable and with it
blocked, and `import uavlink.cli` loads neither numpy.random nor
concurrent.futures."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import uavlink

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
TRACING = ROOT / "perfbench" / "tracing.py"

# names perfbench/tracing.py still wraps that the package no longer has;
# their layer rows read 0 until the benchmark drops them
DEAD_TRACED = {
    ("uavlink._kernels", "detect_symbols"),
    ("uavlink.bep_analysis", "uub"),
    ("uavlink.bep_analysis", "min_acf_for_rate"),
    ("uavlink.bep_analysis", "max_modulation_order"),
    ("uavlink.power_control", "min_snr_qam"),
    ("uavlink.power_control", "newton_step"),
}

MODULES = ["uavlink"] + [f"uavlink.{m.name}"
                         for m in pkgutil.iter_modules(uavlink.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = []
    for attr in exported:
        try:
            getattr(module, attr)
        except AttributeError:
            missing.append(attr)
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _imported_names(tree: ast.Module) -> dict:
    """name -> line of every name the module binds by an import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                name = alias.asname or alias.name.split(".")[0]
                names[name] = node.lineno
    return names


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    # a name bound by an import must be read somewhere in the module, or
    # exported through __all__: deletions that leave an import behind fail
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(getattr(module, "__all__", ()))
    unused = {n: line for n, line in _imported_names(tree).items()
              if n not in used and n not in exported}
    assert not unused, f"{name} imports but never uses: {unused}"


def test_traced_names_resolve():
    # the tracer skips a missing name and its layer rows read 0, so a
    # rename would silently zero them; TRACED is read without importing
    # the benchmark
    tree = ast.parse(TRACING.read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED"
                          for t in node.targets))
    missing = []
    for module, attr, _ in traced:
        if (module, attr) in DEAD_TRACED:
            continue
        try:
            getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{attr}")
    assert traced and not missing, f"TRACED names missing: {missing}"


def test_dead_traced_names_stay_dead():
    # the tracer wraps a traced name wherever it exists, with the hook
    # written for its old API: a solve named power_control.min_snr_qam
    # would be called with details=True and read for .method and
    # .gamma_min, so a name must not come back under a dead row
    alive = []
    for module, attr in sorted(DEAD_TRACED):
        try:
            if hasattr(importlib.import_module(module), attr):
                alive.append(f"{module}.{attr}")
        except ImportError:  # the whole module is gone
            pass
    assert not alive, f"dead traced names exist again: {alive}"


def _quick_start() -> str:
    """The README's first code block under "## Quick start"."""
    text = README.read_text()
    section = text[text.index("## Quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quick_start_runs(capsys):
    # the quick start runs as written, so the docs cannot name an API the
    # package no longer has
    exec(compile(_quick_start(), str(README), "exec"), {})
    assert capsys.readouterr().out


# a small run of every subcommand; bep-curve with the analytic union bound
SMALL_RUN = """\
[run]
fixture = case1
scheme = qam
seed = 3
n_symbols = 500
snr_db = 6 12
acf = 0.99 0.9
orders = 4 16
detectors = so, uub
bep_thresholds = 1e-3 1e-5
sample_dt = 4e-4
"""

# scipy is only a test dependency: with every scipy import made to fail,
# the CLI imports, the quick start runs, every subcommand exits 0, and no
# scipy module was loaded
NO_SCIPY = """\
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import uavlink.cli
exec(compile(sys.argv[1], "README.md", "exec"), {})
for command in ("bep-curve", "adapt", "rate-opt", "power"):
    status = uavlink.cli.main([command, "--config", sys.argv[2], "--out",
                               sys.argv[3] + "/" + command])
    assert status == 0, (command, status)
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"
          and sys.modules[m] is not None]
assert not loaded, loaded
"""


def test_runs_without_scipy(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(SMALL_RUN)
    paths = [str(Path(uavlink.__file__).parent.parent)] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", NO_SCIPY,
         _quick_start(), str(config), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout
    rows = (tmp_path / "bep-curve" / "bep_curve.csv").read_text()
    assert "analytic-uub" in rows
    for command, csv in (("adapt", "adapt_schedule.csv"),
                         ("rate-opt", "rate_opt_contour.csv"),
                         ("power", "power_trace.csv")):
        assert (tmp_path / command / csv).stat().st_size > 0


# the modules the CLI loads only when a Monte Carlo run needs them: its
# bit generators and its worker pool
LAZY = """\
import sys
import numpy
if "numpy.random" in sys.modules:  # this numpy loads it itself
    print("skip")
    sys.exit(0)
import uavlink.cli
print(sorted(m for m in ("numpy.random", "concurrent.futures")
             if m in sys.modules))
"""


def test_cli_import_leaves_random_and_futures_unloaded():
    paths = [str(Path(uavlink.__file__).parent.parent)] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run([sys.executable, "-c", LAZY], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    if done.stdout.strip() == "skip":
        pytest.skip("importing numpy alone loads numpy.random")
    assert done.stdout.strip() == "[]"
