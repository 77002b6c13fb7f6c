#!/usr/bin/env python3
"""websift desk-run benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload capture --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; websift is imported from ``src/`` of
that checkout and nowhere else.  Workloads: ``capture`` (live crawl of
small generated pages), ``scripts`` (live crawl of script-heavy pages),
``backlog`` (offline label/extract/train/classify/report on a store
captured in set-up).  Units of timed work repeat while the next one
should still end within ``--seconds`` (at least one runs); end-to-end
metrics are their medians.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` the run times a unit with every module's public functions
wrapped between two plain units, and reports the per-layer metrics plus
the tracing overhead against the plain units' mean; its spans are written to
``.perfbench_out/``.  Metric names, units and order come from
``BENCHMARK.json``.  The last line of stdout is the result object; the
lines before it stamp the environment and give details.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("capture", "scripts", "backlog")
HELD_OUT_SEED = 7919     # never used while tuning; later claims must hold on it
TUNING_SEEDS = tuple(range(1, 21))


def load_metrics(kind: str) -> dict[str, str]:
    """name -> unit of BENCHMARK.json's `kind` list ("end_to_end" or "per_layer")."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_websift():
    """Put this checkout's src/ first and check websift really comes from it."""
    src = ROOT / "src"
    if not (src / "websift" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no websift package under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import websift

    if Path(websift.__file__).resolve().parent != (src / "websift").resolve():
        raise SystemExit(f"perfbench: websift imported from {websift.__file__}, not {src}")


def measure(args) -> tuple[dict, dict, list[str]]:
    from perfbench import layers, stats, workloads
    from perfbench.tracing import LAYERS, PROBES

    wl = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    tally = workloads.Tally()
    env = None
    setups, captures, units = [], [], []
    try:
        for i in range(wl.setups):
            if env is not None:
                env.close()
            start = perf_counter()
            env = workloads.setup(wl, args.seed, ROOT, workdir / f"setup-{i}", tally)
            setups.append(perf_counter() - start)
            if env.capture is not None:
                captures.append(env.capture)
        if captures:
            # backlog: its capture metrics are the median of its set-up captures
            env.capture.update({k: statistics.median([c[k] for c in captures])
                                for k in ("capture_cpu_ms_per_record", *workloads.READINGS)
                                if k in env.capture})
        rss_after_setup_mb = workloads.peak_rss_mb()
        stamp = workloads.environment(ROOT, workdir)
        if args.trace:
            # the traced unit between two plain ones, so drift cancels
            for rep, plan in enumerate((PROBES, LAYERS, PROBES)):
                units.append(workloads.run_unit(env, rep, plan, tally))
        else:
            # units of the same work run back to back while one more,
            # at their mean length, still ends within --seconds
            start = perf_counter()
            while not units or (perf_counter() - start) * (len(units) + 1) / len(units) <= args.seconds:
                units.append(workloads.run_unit(env, len(units), PROBES, tally))
    finally:
        if env is not None:
            env.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # another run may still use it
            workdir.parent.rmdir()

    digests = sorted({u["digest"] for u, _ in units})
    tally.expect(len(digests) == 1, "output digests differ between units")
    detail = {
        "units": len(units),
        "digest": digests[0] if len(digests) == 1 else digests,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": stats.ratio(tally.failed, tally.attempted),
        "setup_runs_s": setups,
        "rss_after_setup_mb": rss_after_setup_mb,
        "fetch_latency_ms": units[0][0].get("fetch_latency_ms"),
        "readings": {k: statistics.median([u[k] for u, _ in units])
                     for k in workloads.READINGS if k in units[0][0]},
    }
    if args.trace:
        (before, _), (traced, tracer), (after, _) = units
        untraced_wall_s = (before["wall_s"] + after["wall_s"]) / 2
        names = load_metrics("per_layer")
        values = layers.layer_metrics(names, tracer, traced, untraced_wall_s)
        write_spans(tracer, f"{wl.name}-seed{args.seed}")
        detail["wall_s"] = {"untraced": [before["wall_s"], after["wall_s"]],
                            "traced": traced["wall_s"]}
    else:
        names = load_metrics("end_to_end")
        values = {k: statistics.median([u[k] for u, _ in units])
                  for k in names if k not in ("setup_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
        # the first unit's reading: later ones would include the
        # benchmark's own read-back of earlier units' stores
        values["peak_rss_mb"] = units[0][0]["peak_rss_mb"]
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in names.items()}
    stamp.update(workload=wl.name, pages=wl.pages, seed=args.seed,
                 held_out_seed=HELD_OUT_SEED, tuning_seeds=list(TUNING_SEEDS),
                 seconds=args.seconds, trace=args.trace)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return result, {"stamp": stamp, "detail": detail}, tally.problems


def write_spans(tracer, tag: str) -> None:
    """Spans as one JSON array per line: id, parent, name, exchange, start, end."""
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"{tag}-spans.jsonl", "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_websift()
    result, info, problems = measure(args)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"stamp": info["stamp"]}, sort_keys=True))
    print(json.dumps({"detail": info["detail"]}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
