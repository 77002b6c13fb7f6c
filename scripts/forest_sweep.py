#!/usr/bin/env python3
"""Forest hyperparameter sweep on synthetic pages, no sockets involved.

Renders every page of a generated site directly to bytes, extracts the
feature vectors, then trains one forest per (trees, bootstrap) cell and
prints the held-out confusion counts and per-class metric table.

    python3 scripts/forest_sweep.py --benign 120 --malicious 80 --trees 1 5 10
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from websift.cli import _train_and_evaluate
from websift.features import extract_features
from websift.synthweb import generate_site, load_site_spec, render_page


def build_dataset(n_benign: int, n_malicious: int, seed: int):
    doc = generate_site(n_benign, n_malicious, seed=seed)
    samples, labels = [], []
    for spec in load_site_spec(doc).values():
        body = render_page(spec, seed=doc["seed"])
        samples.append(extract_features(body, declared_type="text/html"))
        labels.append(1 if spec.kind == "malicious" else 0)
    return samples, labels


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--benign", type=int, default=120)
    ap.add_argument("--malicious", type=int, default=80)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trees", type=int, nargs="+", default=[1, 5, 10, 25])
    args = ap.parse_args(argv)

    samples, labels = build_dataset(args.benign, args.malicious, args.seed)
    header_printed = False
    for bootstrap in (True, False):
        for n_trees in args.trees:
            _, doc = _train_and_evaluate(samples, labels, n_trees, args.seed,
                                         bootstrap=bootstrap)
            if not header_printed:  # every cell splits the same way
                print(json.dumps({"train_size": doc["train_size"],
                                  "test_size": doc["test_size"],
                                  "malicious_total": sum(labels)}), flush=True)
                header_printed = True
            print(json.dumps({
                "trees": n_trees,
                "bootstrap": bootstrap,
                "confusion": doc["confusion"],
                "metrics": doc["metrics"],
            }, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
