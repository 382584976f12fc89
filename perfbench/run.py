"""Benchmark for critex: runs one workload's CLI commands, checks every
output, and prints the end-to-end metrics (``--trace 0``) or the per-layer
metrics of a traced run (``--trace 1``).

    python3 perfbench/run.py --workload lifespan-1d --seed 0 --seconds 40 --trace 0

Run it from the root of a checkout: it imports critex from ``src/``.  Each
pass runs in a fresh interpreter (``child.py``), so set-up and lazy caches
are paid inside the pass as a CLI user pays them.  Passes repeat until the
next one would end after ``--seconds``, with at least three.  A traced run
alternates untraced and traced passes; the difference of their wall times
is the tracing overhead.  Every pass of a run uses the same seed, so all of
them must write byte-identical report.json and CSV files.

The last line of standard output is the JSON result; the lines before it
give each metric with its quartiles and sample count, the self time per
layer and the machine block.  Artifacts go to ``.perfbench_out/`` in the
checkout and are deleted after each pass; traced runs leave their spans in
``.perfbench_out/traces/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

import spans
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
MIN_PASSES = 3
# Extra interpreter starts per run that stop at the first CLI call, so that
# setup_s is a median over several samples.
SETUP_SAMPLES = 3
# A run must end within 180 s; stop starting passes well before that.
RUN_DEADLINE_S = 165.0
# One complex 1024^2 transform, the largest array the benchmark makes.
LARGEST_ARRAY_BYTES = 16 * 1024 * 1024
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# per-layer metric: (span name, scale, unit); the median over every call
CALL_TIMES = {
    "fields.fwd_ms": ("fields.transform_forward", 1e3, "ms"),
    "fields.inv_ms": ("fields.transform_inverse", 1e3, "ms"),
    "propagators.kernel_ms": ("propagators.kernel_entries", 1e3, "ms"),
    "solver.step_ms": ("solver.step", 1e3, "ms"),
    "radial.damped_ms": ("radial.evolve_damped", 1e3, "ms"),
    "radial.heat_ms": ("radial.evolve_heat", 1e3, "ms"),
    "radial.difference_ms": ("radial.diffusion_difference", 1e3, "ms"),
    "radial.norm_us": ("radial.norm_radial", 1e6, "us"),
    "radial.fit_us": ("radial.fit_rate", 1e6, "us"),
    "exponents.classify_us": ("exponents.classify_regime", 1e6, "us"),
}


class PassFailed(Exception):
    pass


def machine_block() -> dict:
    import numpy
    import scipy
    llc = None
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    levels = []
    for index in caches.glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
        levels.append((level, int(size.rstrip("KM")) * scale))
    if levels:
        llc = max(levels)[1]
    pocketfft = importlib.util.find_spec("numpy.fft._pocketfft_umath") is not None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_backend": "numpy.fft (pocketfft)" if pocketfft else "numpy.fft",
        "llc_bytes": llc,
        "child_threads": {var: "1" for var in THREAD_VARS},
        "largest_array_bytes": LARGEST_ARRAY_BYTES,
        "note": "every array is far below 4x the last-level cache, so byte "
                "counts are computed, not measured bandwidth",
    }


class Runner:
    """Spawns the passes of one run and collects their results."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / OUT_DIR / f"{workload}-seed{seed}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.count = 0
        paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, TMPDIR=str(self.work),
                        PYTHONPATH=os.pathsep.join(p for p in paths if p),
                        **{var: "1" for var in THREAD_VARS})
        self.env.pop("CRITEX_OUT", None)

    def spawn(self, *flags: str) -> dict:
        self.count += 1
        out = self.work / f"pass{self.count}"
        result = self.work / f"pass{self.count}.json"
        command = [sys.executable, str(HERE / "child.py"),
                   "--workload", self.workload, "--seed", str(self.seed),
                   "--out", str(out), "--result", str(result), *flags]
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise PassFailed("run deadline reached")
        started = time.perf_counter()
        try:
            proc = subprocess.run(command + ["--spawned-at", repr(time.time())],
                                  cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as error:
            raise PassFailed(f"pass timed out after {error.timeout:.0f} s") from None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if proc.returncode != 0:
            raise PassFailed(f"pass exited {proc.returncode}: {proc.stderr[-2000:]}")
        payload = json.loads(result.read_text())
        payload["duration_s"] = time.perf_counter() - started
        return payload

    def close(self, keep_spans: list[dict]) -> None:
        traces = self.root / OUT_DIR / "traces"
        for index, payload in enumerate(keep_spans):
            traces.mkdir(exist_ok=True)
            target = traces / f"{self.workload}-seed{self.seed}-pass{index}.json"
            os.replace(payload["spans"], target)
            payload["spans"] = str(target)
        shutil.rmtree(self.work, ignore_errors=True)


def measure(runner: Runner, seconds: float, trace: bool):
    """Set-up samples, then passes until the next would overrun ``seconds``."""
    runner.spawn("--setup-only")  # warm-up: byte-compiles and pages in libraries
    started = time.perf_counter()
    setups = [runner.spawn("--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)]
    passes, failures = [], []
    longest = 0.0
    while len(passes) + len(failures) < MIN_PASSES or \
            time.perf_counter() - started + longest <= seconds:
        traced = trace and len(passes) % 2 == 1
        try:
            payload = runner.spawn(*(["--trace"] if traced else []))
        except PassFailed as error:
            failures.append(str(error))
            break
        payload["traced"] = traced
        passes.append(payload)
        longest = max(longest, payload["duration_s"])
    return setups, passes, failures


def check_passes(passes: list[dict], item_count: int, failures: list[str]):
    """Every item of every pass, with an artifact mismatch against the first
    pass counted as a problem.  Returns (attempted, failed, problem lines)."""
    attempted = failed = 0
    lines = []
    reference = passes[0]["items"] if passes else []
    for number, payload in enumerate(passes):
        for index, item in enumerate(payload["items"]):
            problems = list(item["problems"])
            if item["digests"] != reference[index]["digests"]:
                problems.append("report.json or CSV differs from the first pass")
            attempted += 1
            if problems:
                failed += 1
                lines.append(f"pass {number} item {index} ({item['command']}): "
                             + "; ".join(problems))
    for failure in failures:
        attempted += item_count
        failed += item_count
        lines.append(failure)
    return attempted, failed, lines


def summary(values: list[float]) -> str:
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return f"median {median(values):.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


def end_to_end(setups, untraced, attempted, failed) -> tuple[dict, list[str]]:
    samples = {
        "setup_s": (setups + [p["setup_s"] for p in untraced], "s"),
        "wall_s": ([p["wall_s"] for p in untraced], "s"),
        "peak_rss_mb": ([p["peak_rss_mb"] for p in untraced], "MB"),
    }
    metrics, lines = {}, []
    for name, (values, unit) in samples.items():
        metrics[name] = {"value": median(values), "unit": unit}
        lines.append(f"  {name:<12} {unit:<5} {summary(values)}")
    metrics["ok_ratio"] = {"value": (attempted - failed) / attempted, "unit": "ratio"}
    lines.append(f"  {'ok_ratio':<12} {'ratio':<5} {attempted - failed}/{attempted} items")
    return metrics, lines


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes' spans.  A layer the workload
    never calls is measured on the reference probe instead."""
    sections = [json.loads(Path(p["spans"]).read_text()) for p in traced]
    own = [s["pass"] + s.get("grid", []) for s in sections]
    reference = [s["reference"] for s in sections]

    def pick(has):
        return own if any(has(g) for g in own) else reference

    def pooled(name):
        return [d for g in pick(lambda g: spans.durations(g, name))
                for d in spans.durations(g, name)]

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for metric, (name, scale, unit) in CALL_TIMES.items():
        put(metric, median(pooled(name)) * scale, unit)

    grids = [p.get("grid", p["reference_grid"]) for p in traced]
    put("fields.fft_bytes_computed", median(g["nbytes"] for g in grids), "B")
    put("fields.fft_flops_computed",
        median(5 * g["points"] * math.log2(g["points"]) for g in grids),
        "flop")

    stepping = pick(spans.step_sizes)
    put("solver.accepted_steps", median(len(spans.step_sizes(g)) for g in stepping),
        "count")
    put("solver.distinct_h",
        median(len({float(f"{h:.6g}") for h in spans.step_sizes(g)}) for g in stepping),
        "count")
    intervals = [d * 1e3 for g in stepping for d in spans.durations(g, spans.STEP)]
    cuts = quantiles(intervals, n=100)
    put("solver.step_interval_ms_p50", median(intervals), "ms")
    put("solver.step_interval_ms_p99", cuts[98], "ms")

    put("experiments.artifact_bytes",
        median(sum(i["bytes"] for i in p["items"]) for p in traced), "B")
    put("experiments.write_s", median(spans.write_seconds(s["pass"]) for s in sections), "s")
    testfn = "experiments.experiment_testfn"
    put("experiments.testfn_s",
        median(sum(spans.durations(g, testfn))
               for g in pick(lambda g: spans.durations(g, testfn))), "s")
    self_seconds = [spans.layer_self_seconds(s["pass"]) for s in sections]
    put("experiments.self_s", median(s["experiments"] for s in self_seconds), "s")
    put("trace.overhead_s", median(p["wall_s"] for p in traced)
        - median(p["wall_s"] for p in untraced), "s")
    for key in traced[0]["probe"]:
        put(key, median(p["probe"][key] for p in traced), "ms")
    put("probe.step_1d_ms",
        median(d for g in reference for d in spans.durations(g, "solver.step")) * 1e3, "ms")

    lines = [f"  {name:<30} {m['unit']:<5} {m['value']:.6g}" for name, m in metrics.items()]
    lines.append("  self time per layer (s, median over traced passes):")
    for layer in spans.LAYERS:
        values = [s.get(layer, 0.0) for s in self_seconds]
        lines.append(f"    {layer:<12} {median(values):.6g}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run still kills and waits for its child (subprocess.run does
    # so when SystemExit interrupts it)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "critex" / "cli.py").is_file():
        print("error: run from the root of a critex checkout (src/critex not found)",
              file=sys.stderr)
        return 2

    runner = Runner(root, args.workload, args.seed)
    passes = []
    try:
        setups, passes, failures = measure(runner, args.seconds, bool(args.trace))
    except PassFailed as error:
        print(f"error: set-up failed: {error}", file=sys.stderr)
        return 1
    finally:
        runner.close([p for p in passes if p["traced"]])
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    if not untraced or (args.trace and not traced):
        print("error: no complete pass: " + "; ".join(failures), file=sys.stderr)
        return 1

    item_count = len(workloads.build(args.workload, args.seed).items)
    attempted, failed, problems = check_passes(passes, item_count, failures)
    print(f"workload {args.workload}  seed {args.seed}  passes: "
          f"{len(untraced)} untraced, {len(traced)} traced")
    for line in problems:
        print("FAILED " + line)
    metrics, lines = end_to_end(setups, untraced, attempted, failed)
    print("end to end (untraced passes):")
    print("\n".join(lines))
    if args.trace:
        metrics, lines = per_layer(traced, untraced)
        print("per layer (traced passes; spans in "
              f"{OUT_DIR}/traces/{args.workload}-seed{args.seed}-pass*.json):")
        print("\n".join(lines))
    print("machine: " + json.dumps(machine_block()))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
