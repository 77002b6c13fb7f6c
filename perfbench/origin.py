"""The workloads' origin: a synthweb site served from its own process.

    python3 perfbench/origin.py --spec site.json

Serves the spec with ``websift.synthweb.SynthWebServer`` (the server
behind ``websift synthweb``), so the origin's CPU does not compete with
the program's interpreter lock.  It prints ``{"address": [host, port]}``
once listening, then answers one command per stdin line with one JSON
line: ``stats`` gives the ledger's totals since the last ``reset``
(requests, and how many carried a ``Via`` header).  End of input stops
the server and exits.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from websift.synthweb import SynthWebServer, load_site_file  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True)
    args = ap.parse_args(argv)
    server = SynthWebServer(load_site_file(args.spec)).start()
    try:
        print(json.dumps({"address": list(server.address)}), flush=True)
        since = 0
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                ledger = server.ledger()[since:]
                doc = {"requests": len(ledger),
                       "via": sum(1 for r in ledger if r["via"])}
            elif command == "reset":
                since = server.request_count()
                doc = {"reset": since}
            else:
                doc = {"error": f"unknown command {command!r}"}
            print(json.dumps(doc), flush=True)
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
