#!/usr/bin/env python3
"""Enforce-mode walkthrough: block a malicious page, keep the evidence.

Starts the capture pipeline in enforce mode in front of a synthetic
site, fetches one malicious and one benign page through the proxy, and
shows that the client saw the warning page while the store kept the
original response body byte for byte.

    python3 scripts/enforce_demo.py --seed 5
"""

import argparse
import gzip
import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from websift.agents import proxy_request
from websift.flowstore import FlowStore
from websift.labels import SignatureSet, SimulatedEngineSet
from websift.pipeline import LabelSources, Pipeline
from websift.synthweb import (
    SynthWebServer,
    engine_fixture_for,
    generate_site,
    render_page,
    signature_line,
)
from websift.wire import AGENT_HEADER, WARNING_PAGE


def emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args(argv)

    doc = generate_site(2, 1, seed=args.seed)
    site = SynthWebServer(doc)
    site.start()
    sources = LabelSources(
        signatures=SignatureSet.from_text(signature_line()),
        engines=SimulatedEngineSet(engine_fixture_for(doc)),
    )
    mal_path = next(p["path"] for p in doc["pages"]
                    if p["kind"] == "malicious")
    ben_path = next(p["path"] for p in doc["pages"]
                    if p["kind"] == "benign")

    with tempfile.TemporaryDirectory(prefix="enforce-demo-") as tmp:
        with FlowStore(Path(tmp) / "store") as store:
            pipeline = Pipeline(store, sources, mode="enforce").start()
            try:
                headers = [(AGENT_HEADER, "demo-1")]
                status, resp_headers, body = proxy_request(
                    pipeline.proxy_addr, "GET", site.base_url + mal_path,
                    headers)
                blocked = any(k.lower() == "x-websift-blocked"
                              for k, _ in resp_headers)
                emit({"fetch": mal_path, "status": status,
                      "blocked_header": blocked,
                      "client_saw_warning_page": body == WARNING_PAGE})

                status, resp_headers, body = proxy_request(
                    pipeline.proxy_addr, "GET", site.base_url + ben_path,
                    headers)
                original = render_page(site.pages[ben_path], site.seed)
                if site.pages[ben_path].gzip:
                    original = gzip.compress(original, mtime=0)
                emit({"fetch": ben_path, "status": status,
                      "passed_through_unmodified": body == original})
            finally:
                pipeline.stop_capture()

            page = render_page(site.pages[mal_path], site.seed)
            # body_sha1 addresses the wire body, before content decoding
            want = gzip.compress(page, mtime=0) if site.pages[mal_path].gzip \
                else page
            stored = None
            for record in store.records():
                if record.exchange.request.url.endswith(mal_path):
                    stored = store.get_blob(record.body_sha1).data
                    break
            decoded = gzip.decompress(stored) if site.pages[mal_path].gzip \
                else stored
            emit({"record_for": mal_path,
                  "stored_body_sha1": hashlib.sha1(stored).hexdigest(),
                  "wire_body_preserved": stored == want,
                  "page_recovered_after_decode": decoded == page})
    site.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
