"""Each skewtrain module imports on its own, in a fresh interpreter.

The package root imports nothing, so an import cycle or a missing
import in one module shows up only when that module is the first one
loaded.
"""

import ast
import dataclasses
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import skewtrain

SRC = Path(skewtrain.__path__[0])
MODULES = sorted(m.name for m in pkgutil.iter_modules(skewtrain.__path__))


def test_every_module_is_listed():
    assert MODULES == [
        "autodiff", "cli", "config", "data", "diagnostics", "harness", "losses", "models", "optim",
    ]


def _trees():
    return {module: ast.parse((SRC / f"{module}.py").read_text()) for module in MODULES}


def _top_level_names(tree) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    src = str(SRC.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", f"import skewtrain.{module}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


# Public module-level functions and classes that no code in src/ refers to,
# each kept on purpose:
# - the tape reference that the numpy training step and acceptance
#   criterion 1 are tested against;
# - entry points that the benchmark calls.
UNREFERENCED_IN_SRC = {
    "autodiff.check_gradients", "models.forward_stack", "losses.vicreg_loss",
    "losses.joint_loss", "harness.supervised_loss",
    "harness.run_ratio_grid", "harness.apply_method", "diagnostics.minority_margin",
}


def test_every_public_definition_has_a_reference_in_src():
    # A function that only tests call is a second entry point to keep in
    # step with the one the program runs. Imports are not references.
    trees = _trees()
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    public = {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    unreferenced = {name for name in public if name.split(".")[1] not in referenced}
    assert sorted(unreferenced - UNREFERENCED_IN_SRC) == []
    # the allowlist names only what is defined and still unreferenced
    assert sorted(UNREFERENCED_IN_SRC - unreferenced) == []


def test_config_imports_no_skewtrain_module():
    # the bottom of the import graph: every layer may import the config
    tree = ast.parse((SRC / "config.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert [name for name in imported if name.startswith((".", "skewtrain"))] == []


def test_every_spec_of_the_config_is_defined_in_config():
    from skewtrain.config import ExperimentConfig

    seen, todo = set(), [ExperimentConfig]
    while todo:
        cls = todo.pop()
        seen.add(cls)
        hints = typing.get_type_hints(cls)
        todo += [hint for hint in hints.values() if dataclasses.is_dataclass(hint) and hint not in seen]
    assert len(seen) == 11
    assert sorted(c.__name__ for c in seen if c.__module__ != "skewtrain.config") == []


def test_each_module_imports_the_config_names_it_uses_and_no_others():
    # Annotations count as uses: under `from __future__ import annotations` a missing
    # import of a name used only in annotations would fail nowhere else.
    trees = _trees()
    config_names = _top_level_names(trees.pop("config"))
    for module, tree in trees.items():
        imported = {alias.asname or alias.name for node in tree.body
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module == "config" for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert sorted(imported - used) == [], module
        assert sorted((used & config_names) - imported) == [], module
        assert sorted(_top_level_names(tree) & config_names) == [], module
