"""Seeded inputs for the benchmark workloads.

Each workload is a list of ``critex`` CLI commands (argv lists).  The seed
sets the epsilon jitter and the (n, gamma) draw; seed 0 gives the reference
inputs: eps 7e-3 for the lifespan sweep, gamma at 0.2, 0.4, 0.6 and 0.8 of
n/2 for the radial rates, eps 1e-2 for the 2-D evolution.  The program sees
only the generated argv.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# Real dimensions of the radial rates workload.
DIMS = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0)
# Relative epsilon jitter.  The step count grows like log T, so a 2 % jitter
# barely moves the cost of a pass while still varying every lifespan.
EPS_JITTER = 0.02
# gamma / (n/2) is drawn from this range; every value in it meets the rate
# tolerances for every dimension in DIMS (the profile exponent
# a = n/2 - gamma - 0.05 stays positive down to n = 1).
GAMMA_FRACTIONS = (0.15, 0.8)

# The testfn item reads the run directory written by the item before it.
PREVIOUS_RUN_DIR = "<run-dir-of-previous-item>"


@dataclass(frozen=True)
class Item:
    """One CLI command plus the parameters its correctness check needs."""

    command: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Grid:
    """The periodic grid a solver workload runs on, for the layer probes."""

    dim: int
    points: int
    length: float
    gamma: float
    p: float
    eps: float


@dataclass(frozen=True)
class Workload:
    name: str
    items: tuple[Item, ...]
    grid: Grid | None


def _flags(**values) -> list[str]:
    argv = []
    for key, value in values.items():
        argv += ["--" + key.replace("_", "-"), value if isinstance(value, str) else repr(value)]
    return argv


def _jitter(rng: random.Random, seed: int) -> float:
    return 1.0 if seed == 0 else 1.0 + rng.uniform(-EPS_JITTER, EPS_JITTER)


def lifespan_1d(seed: int) -> Workload:
    rng = random.Random(seed)
    eps = 7e-3 * _jitter(rng, seed)
    argv = ["lifespan"] + _flags(dim=1, gamma=0.5, s=1.0, p=2.0, count=4,
                                 tend=2e4, workers=1, eps_start=eps)
    item = Item("lifespan", tuple(argv), {"n": 1.0, "gamma": 0.5, "p": 2.0})
    # the CLI's default 1-D grid
    grid = Grid(dim=1, points=16384, length=800.0 * math.pi, gamma=0.5, p=2.0,
                eps=eps)
    return Workload("lifespan-1d", (item,), grid)


def rates_radial(seed: int) -> Workload:
    rng = random.Random(seed)
    if seed == 0:
        fractions = [0.2, 0.4, 0.6, 0.8]
    else:
        fractions = sorted(rng.uniform(*GAMMA_FRACTIONS) for _ in range(4))
    items = []
    for n in DIMS:
        for fraction in fractions:
            gamma = fraction * n / 2.0
            profile = f"powerlaw:a={n / 2.0 - gamma - 0.05!r}"
            params = {"n": n, "gamma": gamma, "s": 1.0}
            flags = _flags(n=n, gamma=gamma, s=1.0, profile=profile)
            items.append(Item("linear-decay", tuple(["linear-decay"] + flags), params))
            items.append(Item("diffusion", tuple(["diffusion"] + flags), params))
    n = 3.0 if seed == 0 else rng.choice(DIMS)
    flags = _flags(n=n, s=1.0, gamma_min=0.05, gamma_max=n / 2.0 - 0.05,
                   gamma_steps=100, p_min=1.05, p_max=5.0, p_steps=100)
    items.append(Item("phase-diagram", tuple(["phase-diagram"] + flags),
                      {"n": n, "cells": 100 * 100}))
    return Workload("rates-radial", tuple(items), None)


def evolve_2d_artifacts(seed: int) -> Workload:
    rng = random.Random(seed)
    eps = 1e-2 * _jitter(rng, seed)
    length = 50.0 * math.pi
    argv = ["evolve"] + _flags(dim=2, N=256, L=length, p=3.0, gamma=0.5, s=1.0,
                               dt=0.02, tend=1000.0, snapshots=64, eps=eps)
    radii = (2.0, 4.0, 8.0, 16.0, 30.0)
    testfn = ["testfn", "--run", PREVIOUS_RUN_DIR,
              "--R", ",".join(repr(r) for r in radii)]
    items = (Item("evolve", tuple(argv)),
             Item("testfn", tuple(testfn), {"radii": radii}))
    grid = Grid(dim=2, points=256, length=length, gamma=0.5, p=3.0, eps=eps)
    return Workload("evolve-2d-artifacts", items, grid)


_GENERATORS = {"lifespan-1d": lifespan_1d, "rates-radial": rates_radial,
             "evolve-2d-artifacts": evolve_2d_artifacts}
WORKLOADS = tuple(_GENERATORS)


def build(name: str, seed: int) -> Workload:
    """The workload's items for this seed; the same seed gives the same argv."""
    return _GENERATORS[name](seed)
