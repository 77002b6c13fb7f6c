"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL verdict line on the real stdout and
enforces the agreed runtime budget.  Expected values are hand-derived or
recomputed by small independent oracles inside this file.
"""

import datetime as dt
import gzip
import io
import itertools
import json
import random
import time
import zlib
from contextlib import contextmanager
from fractions import Fraction

import pytest

from test_golden_corpus import GOLDEN

from websift import forest
from websift.augment import AugmentInfo
from websift.cli import build_report, main
from websift.contentprep import decode_body
from websift.features import BOOL_FEATURES, FEATURE_ORDER, FLOAT_FEATURES, extract_features
from websift.flowstore import FlowRecord, FlowStore
from websift.forest import ConfusionMatrix, ForestConfig, best_split, metric_table, metrics_exact
from websift.labels import (
    GROUND_TRUTH_THRESHOLD,
    LabelSet,
    ScanTicket,
    TicketStateError,
    TicketStatus,
    ground_truth,
)
from websift.synthweb import SynthWebServer, engine_fixture_for, generate_site, signature_line
from websift.wire import (
    HttpExchange,
    HttpRequest,
    HttpResponse,
    build_reqmod,
    encapsulate,
    exchange_from_respmod,
    parse_icap,
)


@contextmanager
def verdict(capsys, label: str, budget_s: float):
    started = time.monotonic()
    ok = False
    try:
        yield
        elapsed = time.monotonic() - started
        assert elapsed < budget_s, f"took {elapsed:.2f}s, budget {budget_s}s"
        ok = True
    finally:
        with capsys.disabled():
            print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}", flush=True)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    docs = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
    return code, docs


# --- criterion 1: metric tables from the reference confusion matrix ---

def test_metric_tables_from_reference_matrix(capsys):
    with verdict(capsys, "criterion 1 (reference metric tables)", 1.0):
        cm = ConfusionMatrix(tp=8001, fp=13, tn=9987, fn=2091)
        oracle = {
            "malware": {
                "precision": Fraction(8001, 8014),
                "recall": Fraction(8001, 10092),
                "accuracy": Fraction(17988, 20092),
            },
            "benign": {
                "precision": Fraction(9987, 12078),
                "recall": Fraction(9987, 10000),
                "accuracy": Fraction(17988, 20092),
            },
        }
        exact = metrics_exact(cm)
        for category, expected in oracle.items():
            for name, frac in expected.items():
                # pre-render tolerance on the computed value
                assert abs(float(exact[category][name]) - float(frac)) <= 0.00005

        # rendered 4-decimal table, truncated toward zero
        assert metric_table(cm) == {
            "malware": {"precision": "0.9983", "recall": "0.7928",
                        "accuracy": "0.8952"},
            "benign": {"precision": "0.8268", "recall": "0.9987",
                       "accuracy": "0.8952"},
        }


# --- criterion 2: ground-truth threshold and ticket state machine ---

_TICKET_OPS = ("submit", "finish", "fail", "requeue")

# independent transition table: (state, op) -> next state
_LEGAL = {
    ("unscanned", "submit"): "scan_in_progress",
    ("unscanned", "fail"): "error",
    ("scan_in_progress", "finish"): "scan_finished",
    ("scan_in_progress", "fail"): "error",
    ("scan_finished", "requeue"): "unscanned",
    ("error", "requeue"): "unscanned",
}


def _apply_op(ticket: ScanTicket, op: str, step: int) -> None:
    if op == "submit":
        ticket.to_in_progress(f"scan-{step}")
    elif op == "finish":
        ticket.to_finished(11, {"engine-01": "hit"})
    elif op == "fail":
        ticket.to_error()
    else:
        ticket.requeue()


def test_detection_threshold_and_ticket_transitions(capsys):
    with verdict(capsys, "criterion 2 (threshold and ticket machine)", 5.0):
        assert GROUND_TRUTH_THRESHOLD == 10

        def finished(detections: int) -> ScanTicket:
            t = ScanTicket()
            t.to_in_progress("scan-x")
            t.to_finished(detections)
            return t

        assert ground_truth(finished(10)) is True
        assert ground_truth(finished(9)) is False
        assert ground_truth(None) is None
        assert ground_truth(ScanTicket()) is None
        errored = ScanTicket()
        errored.to_error()
        assert ground_truth(errored) is None

        rng = random.Random(2)
        for _ in range(1000):
            d = rng.randint(0, 12)
            assert ground_truth(finished(d)) is (d >= 10)

        # exhaustive op sequences of length 1..5 against the table above
        checked = 0
        for length in range(1, 6):
            for ops in itertools.product(_TICKET_OPS, repeat=length):
                ticket = ScanTicket()
                state = "unscanned"
                report_filled = False
                archived = 0
                for step, op in enumerate(ops):
                    if (state, op) in _LEGAL:
                        _apply_op(ticket, op, step)
                        if op == "finish":
                            report_filled = True
                        elif op == "requeue":
                            archived += int(report_filled)
                            report_filled = False
                        state = _LEGAL[(state, op)]
                    else:
                        with pytest.raises(TicketStateError):
                            _apply_op(ticket, op, step)
                    assert ticket.status.value == state
                assert len(ticket.archived) == archived
                checked += 1
        assert checked == 4 + 16 + 64 + 256 + 1024

        # argument guards fire without moving the state
        fresh = ScanTicket()
        with pytest.raises(TicketStateError):
            fresh.to_in_progress("")
        assert fresh.status is TicketStatus.UNSCANNED
        fresh.to_in_progress("scan-1")
        with pytest.raises(TicketStateError):
            fresh.to_finished(fresh.engines_total + 1)
        assert fresh.status is TicketStatus.SCAN_IN_PROGRESS


# --- criterion 3: report tallies vs brute force on a 5000-record store ---

def _ms(day: dt.datetime) -> int:
    return int(day.timestamp() * 1000)


def test_report_tallies_match_brute_force(capsys, tmp_path):
    with verdict(capsys, "criterion 3 (report tallies vs brute force)", 30.0):
        rng = random.Random(30)
        body_pool = [
            b"<html>" + b"<form></form>" * (i % 3)
            + b"<iframe src=i></iframe>" * (i % 2)
            + b"<p>doc %d</p></html>" % i
            for i in range(600)
        ]
        vec_pool = [extract_features(b, "text/html") for b in body_pool[:15]]
        countries = ["US", "DE", "FR", "CN", "RU", "BR", ""]
        signames = ["Sig.A", "Sig.B", "Sig.C", "Sig.D", "Sig.E", "Sig.F"]
        ctypes = ["text/html", "application/javascript; charset=utf-8",
                  "TEXT/PLAIN", None]
        base = dt.datetime(2017, 6, 1, tzinfo=dt.timezone.utc)

        entries = []
        inserted_digests = set()
        with FlowStore(tmp_path / "store") as store:
            for n in range(5000):
                body = body_pool[rng.randrange(600)] if rng.random() < 0.9 else None
                gt = rng.choice([True, True, False, None])
                country = rng.choice(countries)
                hits = sorted(rng.sample(signames, rng.randint(0, 3)))
                vec = rng.choice(vec_pool) if rng.random() < 0.8 else None
                ctype = rng.choice(ctypes)
                started = _ms(base + dt.timedelta(days=rng.randrange(120),
                                                  hours=rng.randrange(24)))
                headers = [("Content-Type", ctype)] if ctype else []
                sha1 = store.put_blob(body) if body else None
                if sha1:
                    inserted_digests.add(sha1)
                store.put_record(FlowRecord(
                    exchange=HttpExchange(
                        request=HttpRequest("GET", f"http://h{n % 97}.test/p",
                                            [("Host", f"h{n % 97}.test")]),
                        response=HttpResponse(200, "OK", headers),
                        started_at=started,
                        agent_id="agent-1",
                    ),
                    body_sha1=sha1,
                    labels=LabelSet(ground_truth=gt, signature_hits=hits),
                    features=vec,
                    augment=AugmentInfo(country=country) if country else None,
                ))
                entries.append((sha1, gt, country, hits, vec, ctype, started))

            # dedup invariant: one blob per distinct body, stable digests
            assert store.blob_count() == len(inserted_digests)
            assert store.put_blob(body_pool[0]) in inserted_digests

            bundle = build_report(store)

        # brute-force oracle over the insertion mirror
        unique = {}
        for entry in entries:
            sha1, gt = entry[0], entry[1]
            if gt is True and sha1 and sha1 not in unique:
                unique[sha1] = entry
        rows = list(unique.values())

        days, countries_tally, sigs_tally, ctypes_tally = {}, {}, {}, {}
        trends = {}
        for sha1, gt, country, hits, vec, ctype, started in rows:
            stamp = dt.datetime.fromtimestamp(started / 1000, dt.timezone.utc)
            day = stamp.strftime("%Y-%m-%d")
            days[day] = days.get(day, 0) + 1
            norm = (ctype or "unknown").split(";")[0].strip().lower() or "unknown"
            ctypes_tally[norm] = ctypes_tally.get(norm, 0) + 1
            if country:
                countries_tally[country] = countries_tally.get(country, 0) + 1
            for name in hits:
                sigs_tally[name] = sigs_tally.get(name, 0) + 1
            if vec is not None:
                month = stamp.strftime("%Y-%m")
                doc = vec.as_dict()
                for feat in ("NumLongStrings", "form", "iframe"):
                    trends.setdefault((month, feat), []).append(float(doc[feat]))

        def top10(tally):
            ordered = sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))
            return [[k, v] for k, v in ordered[:10]]

        cumulative, total = [], 0
        for day in sorted(days):
            total += days[day]
            cumulative.append([day, total])

        expected = {
            "collection_progress": cumulative,
            "top_countries": top10(countries_tally),
            "top_signatures": top10(sigs_tally),
            "feature_trends": [[m, f, sum(v) / len(v)]
                               for (m, f), v in sorted(trends.items())],
            "content_type_breakdown": sorted(
                ([k, v] for k, v in ctypes_tally.items()),
                key=lambda kv: (-kv[1], kv[0])),
            "unique_malicious": len(rows),
        }
        assert bundle == expected


# --- criterion 4: feature golden corpus and fuzz totality ---

def test_feature_corpus_and_fuzz_totality(capsys):
    with verdict(capsys, "criterion 4 (golden corpus and fuzz)", 60.0):
        assert len(GOLDEN) == 40
        for name, body, ctype, expected in GOLDEN:
            got = extract_features(body, ctype).as_dict()
            assert got == expected, name

        rng = random.Random(4)
        declared = ["", "text/html", "application/javascript",
                    "application/octet-stream"]
        for n in range(10_000):
            body = rng.randbytes(rng.randint(0, 1500))
            doc = extract_features(body, declared[n % 4]).as_dict()
            assert set(doc) == set(FEATURE_ORDER) and len(doc) == 58
            assert doc["Filesize"] == len(body)
            assert 0.0 <= doc["TotalEntropy"] <= 8.0
            assert 0.0 <= doc["MaxStringEntropy"] <= 8.0
            assert 0.0 <= doc["TotalStringEntropy"] <= 8.0
            assert 0.0 <= doc["EntropyDensity"] <= 1.0
            assert 0.0 <= doc["ShellcodeProbability"] <= 1.0
            for feat in BOOL_FEATURES:
                assert doc[feat] in (0, 1)
            for feat in FEATURE_ORDER:
                if feat not in FLOAT_FEATURES:
                    assert isinstance(doc[feat], int) and doc[feat] >= 0
                else:
                    assert doc[feat] >= 0.0


# --- criterion 5: end-to-end capture, label, train ---

def test_end_to_end_capture_and_training(capsys, tmp_path):
    with verdict(capsys, "criterion 5 (end-to-end run)", 120.0):
        doc = generate_site(60, 40, seed=17)
        seeds = tmp_path / "seeds.txt"
        sigs = tmp_path / "sigs.txt"
        engines = tmp_path / "engines.json"
        sigs.write_text(signature_line() + "\n", encoding="utf-8")
        engines.write_text(json.dumps(engine_fixture_for(doc)), encoding="utf-8")
        store_path = tmp_path / "store"
        model_path = tmp_path / "model.json"

        server = SynthWebServer(doc).start()
        try:
            seeds.write_text("".join(f"{server.base_url}{p['path']}\n"
                                     for p in doc["pages"]), encoding="utf-8")
            code, docs = run_cli(
                capsys, "--store", str(store_path), "crawl",
                "--seeds", str(seeds), "--signatures", str(sigs),
                "--engines", str(engines), "--agents", "4", "--budget", "0",
                "--focus", "malware")
            assert code == 0
            summary = docs[-1]
            assert summary["errors"] == 0 and summary["refused"] == 0
            ledger = server.request_count()
        finally:
            server.stop()

        # perfect agreement between the store and the origin's ledger
        assert summary["records"] == summary["agent_requests"] == ledger == 100
        with FlowStore(store_path, writable=False) as store:
            assert store.record_count() == ledger
            truths = [r.labels.ground_truth is True for r in store.records()]
        assert sum(truths) == 40

        code, docs = run_cli(capsys, "--store", str(store_path), "train",
                             "--out", str(model_path), "--trees", "10")
        assert code == 0
        out = docs[-1]
        assert out["train_size"] == 50 and out["test_size"] == 50
        cm = out["confusion"]
        held_out = (cm["tp"] + cm["tn"]) / (cm["tp"] + cm["fp"] + cm["tn"] + cm["fn"])
        assert held_out >= 0.95
        assert forest.load_model(model_path).feature_count == 58


# --- criterion 6: wire round-trip and encapsulated offsets ---

def _encapsulated_line(raw: bytes) -> bytes:
    head = raw.split(b"\r\n\r\n", 1)[0]
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"encapsulated:"):
            return line.split(b":", 1)[1].strip()
    raise AssertionError("no Encapsulated header")


def test_wire_round_trip_and_offsets(capsys):
    with verdict(capsys, "criterion 6 (wire conformance)", 10.0):
        rng = random.Random(6)
        hosts = ["alpha.test", "beta.example", "gw.test"]
        paths = ["/", "/a", "/a/b.html", "/deep/path/index.htm"]
        names = ["Content-Type", "Server", "Cache-Control", "X-Tag", "Accept"]
        values = ["text/html", "no-store", "synth/1.0", "abc123", "*/*"]
        statuses = [(200, "OK"), (204, "No Content"), (404, "Not Found"),
                    (500, "Server Error")]
        marker_pool = [("wire.upstream_ip", "10.0.0.1"), ("agent.step", "7"),
                       ("lab.note", "ok")]

        for n in range(1000):
            host = rng.choice(hosts)
            status, reason = rng.choice(statuses)
            exchange = HttpExchange(
                request=HttpRequest(
                    rng.choice(["GET", "POST", "PUT"]),
                    f"http://{host}{rng.choice(paths)}",
                    [("Host", host)] + [(rng.choice(names), rng.choice(values))
                                        for _ in range(rng.randint(0, 4))],
                ),
                response=HttpResponse(
                    status, reason,
                    [(rng.choice(names), rng.choice(values))
                     for _ in range(rng.randint(0, 4))],
                ),
                body=rng.randbytes(rng.randint(0, 96)),
                started_at=rng.randint(1_400_000_000_000, 1_600_000_000_000),
                agent_id=f"agent-{n % 7}",
                seeder_tag=rng.choice(["benign", "malware", "phishing"]),
            )
            markers = dict(rng.sample(marker_pool, rng.randint(0, 3)))
            raw = encapsulate(exchange, exchange_id=f"x-{n}", markers=markers)
            rebuilt, xid, got_markers = exchange_from_respmod(parse_icap(io.BytesIO(raw)))
            assert rebuilt == exchange
            assert xid == f"x-{n}"
            assert got_markers == markers

        # hand-built fixtures with byte-exact offsets
        fix_a = HttpExchange(
            request=HttpRequest("GET", "http://fixture.test/samples/page.html", [
                ("Host", "fixture.test"),
                ("User-Agent", "probe/1.0"),
                ("Accept", "*/*"),
                ("Accept-Encoding", "identity"),
            ]),
            response=HttpResponse(200, "OK", [
                ("Content-Type", "text/html; charset=utf-8"),
                ("Content-Length", "25"),
                ("Server", "synthweb"),
                ("Cache-Control", "no-store"),
                ("Date", "Tue, 01 Aug 2017 00:00:00 GMT"),
            ]),
            body=b"fixture body of 25 bytes!",
            started_at=1_500_000_000_000,
            agent_id="agent-0",
        )
        raw_a = encapsulate(fix_a)
        assert _encapsulated_line(raw_a) == b"req-hdr=0, res-hdr=137, res-body=296"
        msg_a = parse_icap(io.BytesIO(raw_a))
        assert list(msg_a.sections) == ["req-hdr", "res-hdr", "res-body"]
        assert len(msg_a.sections["req-hdr"]) == 137
        assert len(msg_a.sections["res-hdr"]) == 159
        assert msg_a.sections["res-body"] == b"fixture body of 25 bytes!"

        fix_b = HttpExchange(
            request=HttpRequest("GET", "http://a.test/", [("Host", "a.test")]),
            response=HttpResponse(204, "No Content", []),
            body=b"",
            started_at=1_500_000_000_000,
            agent_id="agent-0",
        )
        raw_b = encapsulate(fix_b)
        assert _encapsulated_line(raw_b) == b"req-hdr=0, res-hdr=45, null-body=72"
        assert parse_icap(io.BytesIO(raw_b)).sections["req-hdr"] == (
            b"GET http://a.test/ HTTP/1.1\r\nHost: a.test\r\n\r\n")

        raw_c = build_reqmod(
            HttpRequest("POST", "http://b.test/f", [
                ("Host", "b.test"), ("Content-Type", "text/plain")]),
            body=b"hello")
        assert _encapsulated_line(raw_c) == b"req-hdr=0, req-body=73"
        assert raw_c.endswith(b"\r\n\r\n" + b"POST http://b.test/f HTTP/1.1\r\n"
                              b"Host: b.test\r\nContent-Type: text/plain\r\n\r\n"
                              b"5\r\nhello\r\n0\r\n\r\n")
        assert parse_icap(io.BytesIO(raw_c)).sections["req-body"] == b"hello"

        raw_d = build_reqmod(
            HttpRequest("GET", "http://c.test/", [("Host", "c.test")]))
        assert _encapsulated_line(raw_d) == b"req-hdr=0, null-body=45"

        fix_e = HttpExchange(
            request=HttpRequest("GET", "http://d.test/x", [("Host", "d.test")]),
            response=HttpResponse(200, "OK", [("Content-Length", "3")]),
            body=b"abc",
            started_at=1_500_000_000_000,
            agent_id="agent-0",
        )
        raw_e = encapsulate(fix_e)
        assert _encapsulated_line(raw_e) == b"req-hdr=0, res-hdr=46, res-body=84"
        assert raw_e.endswith(b"3\r\nabc\r\n0\r\n\r\n")


# --- criterion 7: split search, tree convergence, determinism ---

def _oracle_gini(c0: int, c1: int) -> float:
    total = float(c0 + c1)
    return 1.0 - ((c0 / total) ** 2 + (c1 / total) ** 2)


def _oracle_best_split(rows, labels, n_features):
    """Exhaustive candidate scan with the documented tie-break."""
    n = len(rows)
    c0 = labels.count(0)
    c1 = labels.count(1)
    if c0 == 0 or c1 == 0 or n < 2:
        return None
    parent = _oracle_gini(c0, c1)
    best = None
    best_child = None
    for f in range(n_features):
        distinct = sorted({row[f] for row in rows})
        for a, b in zip(distinct, distinct[1:]):
            threshold = (a + b) / 2.0
            if not (a <= threshold < b):
                continue
            left = [i for i in range(n) if rows[i][f] <= threshold]
            l0 = sum(1 for i in left if labels[i] == 0)
            l1 = len(left) - l0
            r0, r1 = c0 - l0, c1 - l1
            wl, wr = float(l0 + l1), float(r0 + r1)
            if wl <= 0 or wr <= 0:
                continue
            child = (wl * _oracle_gini(l0, l1)
                     + wr * _oracle_gini(r0, r1)) / float(n)
            key = (round(child, 12), f, threshold)
            if best is None or key < best:
                best = key
                best_child = child
    if best is None or best_child >= parent - 1e-12:
        return None
    return best[1], best[2]


def test_split_search_and_tree_mechanics(capsys):
    with verdict(capsys, "criterion 7 (classifier mechanics)", 30.0):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(2, 10)
            k = rng.randint(2, 4)
            rows = [[float(rng.randint(0, 4)) for _ in range(k)]
                    for _ in range(n)]
            labels = [rng.randint(0, 1) for _ in range(n)]
            got = best_split(rows, labels, [1.0] * n, list(range(n)), range(k))
            assert got == _oracle_best_split(rows, labels, k)

        # a single unlimited tree drives consistent data to zero training error
        rows = [[float(rng.randint(0, 9)) for _ in range(6)] for _ in range(120)]
        labels = [1 if row[0] + row[3] >= 10.0 else 0 for row in rows]
        assert 10 < sum(labels) < 110
        model = forest.train_forest(
            rows, labels, ForestConfig(n_trees=1, seed=5, bootstrap=False))
        predictions = [forest.predict(model, row)[0] for row in rows]
        assert predictions == labels

        # same seed, same serialized model
        config = ForestConfig(n_trees=7, seed=11, bootstrap=True)
        first = forest.train_forest(rows, labels, config)
        second = forest.train_forest(rows, labels, config)
        paths = []
        import tempfile
        for model in (first, second):
            fh = tempfile.NamedTemporaryFile(suffix=".json", delete=False)
            fh.close()
            forest.save_model(model, fh.name)
            paths.append(fh.name)
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()


# --- criterion 8: content decoding round-trips and bomb guard ---

_ENCODERS = {
    "gzip": gzip.compress,
    "x-gzip": gzip.compress,
    "deflate": zlib.compress,
    "identity": lambda data: data,
}


def test_decoding_round_trips_and_bomb_guard(capsys):
    with verdict(capsys, "criterion 8 (decoding and bomb guard)", 10.0):
        rng = random.Random(8)
        codings = list(_ENCODERS)
        for _ in range(500):
            payload = rng.randbytes(rng.randint(0, 2048))
            chain = [rng.choice(codings) for _ in range(rng.randint(0, 3))]
            data = payload
            for coding in chain:
                data = _ENCODERS[coding](data)
            headers = ([("Content-Encoding", ", ".join(chain))]
                       if chain else [])
            decoded = decode_body(data, headers)
            assert decoded.data == payload
            assert decoded.applied_codings == list(reversed(chain))
            assert decoded.truncated is False
            assert decoded.pending_codings == []

        # guard boundary: tune a zeros run plus a tiny incompressible tail
        # until the plaintext is exactly 128x its compressed size
        tail = random.Random(88).randbytes(8)
        boundary = None
        for t in range(9):
            for m in range(4600, 5900):
                data = b"\x00" * m + tail[:t]
                packed = gzip.compress(data)
                if 128 * len(packed) == len(data):
                    boundary = (data, packed)
                    break
            if boundary:
                break
        assert boundary is not None
        data, packed = boundary
        at_ratio = decode_body(packed, [("Content-Encoding", "gzip")])
        assert at_ratio.truncated is False
        assert at_ratio.data == data  # output == ratio x input, untouched

        over = gzip.compress(b"\x00" * 5120)
        limit = 128 * len(over)
        assert limit < 5120  # this stream does exceed the ratio
        clipped = decode_body(over, [("Content-Encoding", "gzip")])
        assert clipped.truncated is True
        assert clipped.data == b"\x00" * limit  # cut at exactly the ratio

        # fully compressible but under the ratio: decodes in full
        mild = zlib.compress(b"abc" * 1000)
        assert 3000 <= 128 * len(mild)
        plain = decode_body(mild, [("Content-Encoding", "deflate")])
        assert plain.truncated is False and plain.data == b"abc" * 1000
