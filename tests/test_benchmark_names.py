"""The benchmark uses critex functions, parameters and flags by name; every
one must still resolve.

``perfbench/run.py`` maps each per-layer metric in ``CALL_TIMES`` to a
``"module.func"`` span name, ``perfbench/probes.py`` calls layer modules
directly (``solver.step``, ``fields.transform_inverse``, ...), and
``perfbench/workloads.py`` generates CLI argv.  A renamed, privatised or
deleted name, parameter or flag would leave a metric with no spans or crash
a benchmark run, so run.py and probes.py are read here from the source with
``ast``, and only workloads.py and spans.py (stdlib only) are loaded from
their paths.  ``spans.py`` chains an observer of two positional arguments
into ``solver.run``, so the observer contract is pinned here as well.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from critex import CritexError, GridSpec, SolverConfig, cli, make_initial_data, solver

PERFBENCH = Path(__file__).parents[1] / "perfbench"
RUN_PY = PERFBENCH / "run.py"
PROBES_PY = PERFBENCH / "probes.py"
WORKLOADS_PY = PERFBENCH / "workloads.py"
SPANS_PY = PERFBENCH / "spans.py"


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


def load_perfbench(path: Path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


WORKLOADS = load_perfbench(WORKLOADS_PY)
SPANS = load_perfbench(SPANS_PY)


@pytest.mark.parametrize("eps, status", [(0.05, solver.STATUS_COMPLETED),
                                         (2.0, solver.STATUS_BLOW_UP)])
def test_traced_run_times_every_step_and_keeps_the_observer(eps, status):
    # the tracer binds run's arguments by name and forwards exactly
    # (t, second argument) to the caller's observer
    grid = GridSpec(dim=1, length=16 * np.pi, points=64)
    data = make_initial_data("critical_tail", grid, amplitude=1.0, gamma=0.5)
    config = SolverConfig(p=2.0, eps=eps, dt=0.05, t_end=20.0)
    tracer = SPANS.Tracer()
    history = solver.NormHistory(grid, 1.0, 0.5)
    result = tracer.wrap_run(solver.run)(config, data, data, grid, observer=history)
    assert result.status == status
    steps = SPANS.step_sizes(tracer.spans)
    assert len(steps) == len(result.times) - 1 > 1
    assert steps == np.diff(result.times).tolist()
    assert [row[0] for row in history.rows] == result.times.tolist()
    assert [span[0] for span in tracer.spans].count(SPANS.TAIL) == 1


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
