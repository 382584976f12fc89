"""One benchmark pass, in a fresh interpreter.

Runs a workload's CLI commands in-process through ``critex.cli.main`` and
writes a JSON result: set-up time, pass wall time, peak memory, and per item
the problems its correctness check found and the digests of its artifacts.
With ``--trace`` it also records spans, runs the layer probes and writes
the spans next to the result.

    python3 perfbench/child.py --workload NAME --seed N --out DIR \
        --result FILE --spawned-at EPOCH_SECONDS [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import checks
import workloads
from critex import cli


def _run_items(workload, out: Path, call) -> list[dict]:
    outputs = []
    previous_run = None
    for index, item in enumerate(workload.items):
        argv = [previous_run if arg == workloads.PREVIOUS_RUN_DIR else arg
                for arg in item.argv] + ["--out", str(out / f"{index:03d}")]
        buffer = io.StringIO()
        record = {"command": item.command}
        try:
            with redirect_stdout(buffer):
                code = call(item.command, argv)
            record["code"] = code
            record["output"] = json.loads(buffer.getvalue()) if code == 0 else None
        except Exception:  # a crashing command is a failed item, not a crashed pass
            record["code"] = None
            record["error"] = traceback.format_exc(limit=3)
        if record.get("output"):
            previous_run = record["output"]["run_dir"]
        outputs.append(record)
    return outputs


def _check(workload, outputs: list[dict]) -> list[dict]:
    items = []
    for item, record in zip(workload.items, outputs):
        if record.get("output") is None:
            problems = [record.get("error") or f"exit code {record['code']}"]
            items.append({"command": item.command, "problems": problems,
                          "digests": {}, "bytes": 0})
            continue
        run_dir = Path(record["output"]["run_dir"])
        try:
            problems = checks.check_item(item.command, item.params,
                                         record["output"], run_dir)
        except (OSError, KeyError, TypeError, ValueError) as error:
            problems = [f"unreadable output: {error!r}"]
        items.append({
            "command": item.command, "problems": problems,
            "digests": checks.digests(run_dir),
            "bytes": sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file()),
        })
    return items


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.instrument(tracer)
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        args.result.write_text(json.dumps({"setup_s": setup_s}))
        return 0

    started = time.perf_counter()
    if tracer is None:
        outputs = _run_items(workload, args.out, lambda command, argv: cli.main(argv))
    else:
        tracer.open("pass")
        outputs = _run_items(workload, args.out, lambda command, argv: tracer.call(
            f"cli.{command}", cli.main, argv))
        tracer.close()
    wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "items": _check(workload, outputs)}
    if tracer is not None:
        import probes
        sections = {"pass": tracer.drain()}
        if workload.grid is not None:
            result["grid"] = probes.grid_probe(workload.grid)
            sections["grid"] = tracer.drain()
        result["probe"], result["reference_grid"] = probes.reference_probe(
            args.out / "probe")
        sections["reference"] = tracer.drain()
        spans_path = args.result.with_suffix(".spans.json")
        spans_path.write_text(json.dumps(sections))
        result["spans"] = str(spans_path)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
