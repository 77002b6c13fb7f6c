#!/usr/bin/env python3
"""End-to-end desk run against a synthetic site.

Generates a site, serves it locally, crawls it through the capture
pipeline, runs the label workers, trains a forest on the extracted
features, and prints the collection report.  Everything happens
in-process; the only sockets involved are loopback.

    python3 scripts/desk_run.py --benign 60 --malicious 40 --seed 17

Each stage prints one JSON document so runs can be diffed.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from websift.cli import _train_and_evaluate, _training_data, build_report
from websift.flowstore import FlowStore
from websift.labels import SignatureSet, SimulatedEngineSet
from websift.pipeline import LabelSources, run_crawl
from websift.synthweb import (
    SynthWebServer,
    engine_fixture_for,
    generate_site,
    signature_line,
)


def emit(stage: str, doc: dict) -> None:
    print(json.dumps({"stage": stage, **doc}, sort_keys=True), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--benign", type=int, default=60)
    ap.add_argument("--malicious", type=int, default=40)
    ap.add_argument("--agents", type=int, default=4)
    ap.add_argument("--budget", type=int, default=0,
                    help="interactions per seed beyond the seed fetch")
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--trees", type=int, default=10)
    ap.add_argument("--store", type=Path, default=None,
                    help="store directory (default: a fresh temp dir)")
    args = ap.parse_args(argv)

    doc = generate_site(args.benign, args.malicious, seed=args.seed)
    site = SynthWebServer(doc)
    site.start()
    tmp = None
    if args.store is None:
        tmp = tempfile.TemporaryDirectory(prefix="desk-run-")
        args.store = Path(tmp.name) / "store"
    try:
        sources = LabelSources(
            signatures=SignatureSet.from_text(signature_line()),
            engines=SimulatedEngineSet(engine_fixture_for(doc)),
        )
        seeds = [site.base_url + p["path"] for p in doc["pages"]]
        with FlowStore(args.store) as store:
            summary = run_crawl(store, sources, seeds, focus="malware",
                                n_agents=args.agents, budget=args.budget)
            emit("crawl", summary.to_doc())

            samples, labels, undetermined = _training_data(store)
            emit("dataset", {"samples": len(samples),
                             "malicious": sum(labels),
                             "undetermined": undetermined})
            _, trained = _train_and_evaluate(samples, labels, args.trees, args.seed)
            emit("train", trained)

            report = build_report(store)
            emit("report", {
                "unique_malicious": report["unique_malicious"],
                "top_signatures": report["top_signatures"],
                "top_countries": report["top_countries"],
            })
    finally:
        site.stop()
        if tmp is not None:
            tmp.cleanup()
    return 0


if __name__ == "__main__":
    sys.exit(main())
