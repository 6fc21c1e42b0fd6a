"""The package's public surface: every name `uavlink.__all__` and the
`__all__` of each submodule list resolves, no module keeps an import it
neither uses nor exports, every function the benchmark's tracer wraps
exists, and README's quick start runs."""

import ast
import importlib
import pkgutil
import re
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


def test_readme_quick_start_runs(capsys):
    # the README's first code block under "## Quick start" runs as written,
    # so the docs cannot name an API the package no longer has
    text = README.read_text()
    section = text[text.index("## Quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out
