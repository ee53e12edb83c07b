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


ROOT = Path(__file__).resolve().parents[1]

# Imported and never used in their module, each kept on purpose: bench/tracing.py
# rebinds these names on harness to time the tape reference through them.
UNUSED_IMPORTS = {
    "src/skewtrain/harness.py": {"backward", "forward_stack", "named_to_mlp", "vicreg_loss"},
}


def _unused_imports(tree) -> set:
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_top_level_import_is_used_in_its_module():
    # The allowlist must match exactly, so a listed name that becomes used or
    # disappears fails here too.
    unused = {}
    for folder in ("src/skewtrain", "tests", "tools"):
        for path in sorted((ROOT / folder).glob("*.py")):
            names = _unused_imports(ast.parse(path.read_text()))
            if names:
                unused[f"{folder}/{path.name}"] = names
    assert unused == UNUSED_IMPORTS


# train_model's roots and the data steps that build a training split. A trial's
# training must not depend on how it is evaluated, so one trained model can be
# scored under every config that differs only in these fields.
TRAINING_ROOTS = ("train_model", "_train_trials", "_stackable", "build_pools", "curate_train_split")
EVALUATION_ONLY_FIELDS = {"use_ema_eval", "r_test"}


def test_training_reads_no_evaluation_only_field():
    tree = ast.parse((SRC / "harness.py").read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    todo, walked = list(TRAINING_ROOTS), set()
    while todo:
        name = todo.pop()
        if name in walked:
            continue
        walked.add(name)
        # the harness helpers it calls or builds are walked too
        todo += [node.id for node in ast.walk(defs[name])
                 if isinstance(node, ast.Name) and node.id in defs]
    assert {"batch_loss_and_grads", "_accuracy", "_seed_children", "StepPlan"} <= walked
    read = {(name, node.attr) for name in walked for node in ast.walk(defs[name])
            if isinstance(node, ast.Attribute) and node.attr in EVALUATION_ONLY_FIELDS}
    assert sorted(read) == []
