"""The benchmark uses critex functions, parameters and flags by name; every
one must still resolve.

``perfbench/run.py`` maps each per-layer metric in ``CALL_TIMES`` to a
``"module.func"`` span name, ``perfbench/probes.py`` calls layer modules
directly (``solver.step``, ``fields.transform_inverse``, ...), and
``perfbench/workloads.py`` generates CLI argv.  A renamed, privatised or
deleted name, parameter or flag would leave a metric with no spans or crash
a benchmark run, so run.py and probes.py are read here from the source with
``ast``, and only workloads.py (stdlib only) is loaded from its path.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from critex import CritexError, cli

PERFBENCH = Path(__file__).parents[1] / "perfbench"
RUN_PY = PERFBENCH / "run.py"
PROBES_PY = PERFBENCH / "probes.py"
WORKLOADS_PY = PERFBENCH / "workloads.py"


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


def critex_attributes(tree: ast.AST) -> list[ast.Attribute]:
    """Every ``module.attr`` access on a module imported from critex."""
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "critex"
               for alias in node.names}
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules]


def probe_names() -> set[str]:
    """Every ``module.attr`` access on a module that probes.py imports from critex."""
    return {f"{node.value.id}.{node.attr}"
            for node in critex_attributes(ast.parse(PROBES_PY.read_text()))}


def test_probe_names_resolve():
    names = probe_names()
    assert {"solver.State", "solver.step", "fields.transform_inverse",
            "experiments.experiment_testfn"} <= names
    for name in sorted(names):
        module_name, _, attr = name.partition(".")
        module = importlib.import_module(f"critex.{module_name}")
        assert hasattr(module, attr), name


def test_probe_arguments_bind():
    # every probes.py call of a critex callable binds to its signature
    tree = ast.parse(PROBES_PY.read_text())
    attributes = critex_attributes(tree)
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and any(node.func is attribute for attribute in attributes)]
    names = {f"{call.func.value.id}.{call.func.attr}" for call in calls}
    assert {"solver.SolverConfig", "experiments.experiment_evolve"} <= names
    for call in calls:
        name = f"{call.func.value.id}.{call.func.attr}"
        module = importlib.import_module(f"critex.{call.func.value.id}")
        signature = inspect.signature(getattr(module, call.func.attr))
        assert not any(isinstance(arg, ast.Starred) for arg in call.args), name
        assert all(keyword.arg is not None for keyword in call.keywords), name
        try:
            signature.bind_partial(*call.args,
                                   **{k.arg: k.value for k in call.keywords})
        except TypeError as error:
            raise AssertionError(f"{name} at probes.py:{call.lineno}: {error}")


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


WORKLOADS = load_workloads()


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", WORKLOADS.WORKLOADS)
def test_workload_argv_resolves(name, seed, tmp_path):
    parser = cli.build_parser()
    for item in WORKLOADS.build(name, seed).items:
        argv = [str(tmp_path) if arg == WORKLOADS.PREVIOUS_RUN_DIR else arg
                for arg in item.argv]
        try:
            cli.resolve(parser.parse_args(argv))
        except CritexError as error:
            raise AssertionError(f"{argv}: {error}")
