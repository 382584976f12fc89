"""Command line interface.

Each command is one function in ``COMMANDS``, and its signature is the
command's only description:

* every parameter is a long flag named after it, with ``_`` written as
  ``-`` (``eps_start`` is ``--eps-start``, ``N`` is ``--N``);
* the annotation gives the value's type; ``list[float]`` reads a comma list
  (``--R 2,4,8``) or, in a config file, a JSON list;
* the signature's default is the flag's default, and a parameter without a
  default is required unless its type admits ``None``;
* ``--config FILE`` reads a flat JSON object keyed by parameter name (with
  ``_``); explicit flags win over it, and ``null`` stands for the default.
  An unknown key, a value that cannot be read as its type (a float must
  be finite), or a ``kind`` other than the command is an error, so a run's
  ``config.json`` re-runs it.

A run command prints ``run_dir`` plus the report it wrote to ``report.json``;
``exponents`` prints a JSON payload and ``probe`` a CSV table.  Run
artifacts land under ``--out``, the ``CRITEX_OUT`` environment variable, or
``./runs``, in that order.  Bad input exits with status 2 and one
``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys
import typing
from pathlib import Path

from . import experiments
from .errors import CritexError
from .exponents import (RegimeParams, alpha0, classify_regime, gamma_tilde,
                        lifespan_exponent, p_crit, p_fujita,
                        sharp_lifespan_admissible)
from .propagators import kernel_entries


def exponents(n: float, gamma: float, p: float | None = None,
              s: float = 1.0) -> dict:
    """Thresholds and regime verdict."""
    derived = {"p_crit": p_crit(n, gamma), "p_fujita": p_fujita(n),
               "gamma_tilde": gamma_tilde(n)}
    payload = {"params": {"n": n, "gamma": gamma}, "derived": derived}
    if p is not None:
        params = RegimeParams(n=n, gamma=gamma, s=s, p=p)
        payload["params"].update({"p": p, "s": s})
        try:
            regime, reasons = classify_regime(params)
            payload["verdict"] = {"regime": regime.value,
                                  "reasons": [r._asdict() for r in reasons]}
        except CritexError as error:
            # e.g. the formal boundary gamma = n/2: lifespan arithmetic still
            # applies but the existence/blow-up classification does not
            payload["verdict_error"] = str(error)
        admissible = sharp_lifespan_admissible(params)
        payload["sharp_lifespan_admissible"] = admissible.admissible
        if p < derived["p_crit"]:
            derived["lifespan_exponent"] = lifespan_exponent(p, n, gamma)
            derived["alpha0"] = alpha0(p, n, gamma)
    return payload


def probe(t: list[float], r: list[float]) -> str:
    """Propagator entries at every (t, r) pair, as CSV; once all four have
    decayed below 1e-300 (t > 0) they print as 0.0, not subnormals or -0.0."""
    lines = ["t,r,k00,k01,k10,k11\n"]
    for time in t:
        for radius in r:
            entries = [float(k[0]) for k in kernel_entries(time, [radius])]
            if time > 0 and all(abs(k) < 1e-300 for k in entries):
                entries = [0.0] * 4
            lines.append(",".join(map(repr, [time, radius, *entries])) + "\n")
    return "".join(lines)


_REQUIRED = inspect.Parameter.empty

COMMANDS = {
    "exponents": exponents,
    "probe": probe,
    "linear-decay": experiments.experiment_linear_decay,
    "diffusion": experiments.experiment_diffusion,
    "evolve": experiments.experiment_evolve,
    "lifespan": experiments.experiment_lifespan,
    "phase-diagram": experiments.experiment_phase_diagram,
    "testfn": experiments.experiment_testfn,
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


@functools.cache  # else every call evaluates every signature's annotations
def _parameters(fn) -> dict[str, tuple[object, object]]:
    """Name -> (type, default) of every parameter of ``fn``.  ``X | None``
    reads as ``X`` with default None; ``_REQUIRED`` marks no default."""
    parameters = {}
    for name, param in inspect.signature(fn, eval_str=True).parameters.items():
        hint, default = param.annotation, param.default
        if type(None) in typing.get_args(hint):
            (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
            default = None if default is _REQUIRED else default
        parameters[name] = (hint, default)
    return parameters


def _coerce(name: str, value, hint):
    """``value`` (a flag's text or a JSON value) as the type ``hint``."""
    try:
        if typing.get_origin(hint) is list:
            items = value.split(",") if isinstance(value, str) else value
            if not isinstance(items, list):
                raise TypeError(value)
            (item_type,) = typing.get_args(hint)
            return [_scalar(item_type, item) for item in items if item != ""]
        return _scalar(hint, value)
    except (TypeError, ValueError):
        raise CritexError(f"{_flag(name)}: cannot read {value!r} as "
                          f"{inspect.formatannotation(hint)}") from None


def _scalar(kind: type, value):
    # float, int and Path reject lists, objects and null themselves
    if isinstance(value, bool) or (kind is str and not isinstance(value, str)):
        raise TypeError(value)
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    value = kind(value)
    if kind is float and not math.isfinite(value):
        raise ValueError(value)
    return value


def _read_config(path: str, command: str, names) -> dict:
    try:
        stored = json.loads(Path(path).read_text())
    except OSError as error:
        raise CritexError(f"--config {path}: {error.strerror}") from None
    except ValueError as error:
        raise CritexError(f"--config {path}: not JSON: {error}") from None
    if not isinstance(stored, dict):
        raise CritexError(f"--config {path}: expected a JSON object")
    kind = stored.pop("kind", command)
    if kind != command:
        raise CritexError(f"--config {path}: kind {kind!r} is not {command!r}")
    unknown = sorted(set(stored) - set(names))
    if unknown:
        raise CritexError(f"--config {path}: unknown keys {', '.join(unknown)}")
    return stored


def resolve(args: argparse.Namespace) -> tuple[typing.Callable, dict]:
    """The command's function and its arguments: each parameter from its
    flag, else from the ``--config`` file, else from its default."""
    fn = COMMANDS[args.command]
    parameters = _parameters(fn)
    stored = _read_config(args.config, args.command, parameters) \
        if args.config else {}
    values, missing = {}, []
    for name, (hint, default) in parameters.items():
        value = getattr(args, name)
        if value is None:
            value = stored.get(name)
        if value is not None:
            values[name] = _coerce(name, value, hint)
        elif default is not _REQUIRED:
            values[name] = default
        else:
            missing.append(_flag(name))
    if missing:
        raise CritexError("missing required options: " + ", ".join(missing))
    # called through its module, so a wrapper installed there (a tracer or a
    # test double) also sees CLI calls
    return getattr(sys.modules[fn.__module__], fn.__name__), values


@functools.lru_cache(maxsize=1)  # parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critex",
        description="Numerical laboratory for the damped wave equation with "
                    "low-frequency-flat data: exponent calculus, linear decay "
                    "and diffusion measurements, nonlinear evolution, lifespan "
                    "sweeps, and phase diagrams.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, fn in COMMANDS.items():
        sub = subs.add_parser(command, help=fn.__doc__.splitlines()[0],
                              allow_abbrev=False)
        for name, (hint, default) in _parameters(fn).items():
            kind = inspect.formatannotation(hint)
            text = "required" if default is _REQUIRED else f"default {default!r}"
            sub.add_argument(_flag(name), help=f"{kind}, {text}")
        sub.add_argument("--config", help="flat JSON file of parameter values")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        fn, values = resolve(args)
        result = fn(**values)
    except CritexError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if isinstance(result, str):
        sys.stdout.write(result)
        return 0
    if isinstance(result, tuple):
        run_dir, report = result
        result = {"run_dir": str(run_dir), **report}
    json.dump(result, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
