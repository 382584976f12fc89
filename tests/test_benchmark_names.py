"""The benchmark uses critex functions by name; every name must resolve.

``perfbench/run.py`` maps each per-layer metric in ``CALL_TIMES`` to a
``"module.func"`` span name, and ``perfbench/probes.py`` calls layer modules
directly (``solver.step``, ``fields.transform_inverse``, ...).  A renamed,
privatised or deleted name would leave a metric with no spans or crash a
traced benchmark run, so the names are read here from the source with
``ast`` (perfbench is not imported).
"""

import ast
import importlib
import inspect
from pathlib import Path

RUN_PY = Path(__file__).parents[1] / "perfbench" / "run.py"
PROBES_PY = Path(__file__).parents[1] / "perfbench" / "probes.py"


def call_time_names() -> list[str]:
    tree = ast.parse(RUN_PY.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "CALL_TIMES"
                for target in node.targets):
            return [entry[0] for entry in ast.literal_eval(node.value).values()]
    raise AssertionError(f"no CALL_TIMES assignment in {RUN_PY}")


def test_call_times_name_public_functions():
    names = call_time_names()
    assert "radial.evolve_damped" in names
    for name in names:
        module_name, _, attr = name.partition(".")
        module = importlib.import_module(f"critex.{module_name}")
        fn = getattr(module, attr, None)
        assert not attr.startswith("_"), name
        assert inspect.isfunction(fn), name
        assert fn.__module__ == module.__name__, name


def probe_names() -> set[str]:
    """Every ``module.attr`` access on a module that probes.py imports from critex."""
    tree = ast.parse(PROBES_PY.read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "critex"
               for alias in node.names}
    return {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def test_probe_names_resolve():
    names = probe_names()
    assert {"solver.State", "solver.step", "fields.transform_inverse",
            "experiments.experiment_testfn"} <= names
    for name in sorted(names):
        module_name, _, attr = name.partition(".")
        module = importlib.import_module(f"critex.{module_name}")
        assert hasattr(module, attr), name
