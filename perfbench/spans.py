"""In-memory spans around calls into critex's public functions.

The tracer replaces every public function of the layer modules, wherever a
critex module holds a reference to it, with a wrapper that records a span.
``solver.run`` also gets an observer chained in front of the caller's, which
opens one span per accepted step: the interval between two observer
callbacks, i.e. one accepted step plus the attempts it rejected.  Nothing in
the package's files changes.

A span is ``[name, start, end, parent, h]``: ``parent`` indexes the
enclosing span (-1 at the root) and ``h`` is the step size of an accepted
step interval (None elsewhere).
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

LAYERS = ("exponents", "propagators", "fields", "radial", "solver", "experiments")
STEP = "solver.step_interval"
# What a run does after its last accepted step (final record and return).
TAIL = "solver.tail"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), None, parent, None])

    def close(self) -> list:
        span = self.spans[self._stack.pop()]
        span[2] = perf_counter()
        return span

    def drain(self) -> list[list]:
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def call(self, name: str, fn, *args, **kwargs):
        depth = len(self._stack)
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            while len(self._stack) > depth:
                self.close()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def wrap_run(self, fn):
        """Wrap ``solver.run`` and time each accepted step through its observer."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.arguments["observer"] = self._step_observer(
                bound.arguments.get("observer"))
            depth = len(self._stack)
            self.open("solver.run")
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                while len(self._stack) > depth + 1:
                    span = self.close()
                    if span[0] == STEP and span[4] is None:
                        span[0] = TAIL
                self.close()
        return traced

    def _step_observer(self, inner):
        last = []

        def observer(t, u_phys):
            if last:
                span = self.close()
                span[4] = t - last[0]
                last[0] = t
            else:
                last.append(t)
            self.open(STEP)
            if inner is not None:
                inner(t, u_phys)
        return observer


def instrument(tracer: Tracer) -> None:
    """Trace every public function of the layer modules."""
    modules = [importlib.import_module(f"critex.{name}")
               for name in LAYERS + ("cli",)] + [importlib.import_module("critex")]
    wrappers = {}
    for module in modules[:len(LAYERS)]:
        layer = module.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj) \
                    or obj.__module__ != module.__name__:
                continue
            wrappers[obj] = (tracer.wrap_run(obj) if (layer, attr) == ("solver", "run")
                             else tracer.wrap(f"{layer}.{attr}", obj))
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])


# ---------------------------------------------------------------------------
# reading spans back
# ---------------------------------------------------------------------------

def layer_of(name: str) -> str:
    """The layer a span belongs to; CLI items count as experiments."""
    layer = name.split(".", 1)[0]
    return "experiments" if layer == "cli" else layer


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans on one thread nest without overlap, so the children's durations
    add up to the part of the parent they cover.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_self_seconds(spans: list[list]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = layer_of(span[0])
        if layer != "pass":
            totals[layer] = totals.get(layer, 0.0) + own
    return totals


def durations(spans: list[list], name: str) -> list[float]:
    return [end - start for span_name, start, end, _, _ in spans if span_name == name]


def step_sizes(spans: list[list]) -> list[float]:
    return [span[4] for span in spans if span[0] == STEP]


def write_seconds(spans: list[list]) -> float:
    """Per item, the time from the end of its last call into a layer other
    than experiments until the item returns, summed over items."""
    last_end: dict[int, float] = {}
    item_of = {}
    total = 0.0
    for index, (name, start, end, parent, _) in enumerate(spans):
        if name.startswith("cli."):
            item_of[index] = index
        elif parent in item_of:
            item_of[index] = item_of[parent]
            if layer_of(name) != "experiments":
                item = item_of[index]
                last_end[item] = max(last_end.get(item, end), end)
    for item, end in last_end.items():
        total += spans[item][2] - end
    return total
