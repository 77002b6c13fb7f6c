"""End-to-end command line flows: capture, extract, label, train, report."""

import datetime as dt
import gzip
import hashlib
import json

import pytest

from websift import forest
from websift import pipeline as pipeline_module
from websift.augment import AugmentInfo
from websift.cli import _read_seed_file, main
from websift.features import extract_features
from websift.flowstore import FlowRecord, FlowStore
from websift.labels import LabelSet, ScanTicket, ThreatType, TicketStatus
from websift.synthweb import (
    SIGNATURE_MARKER,
    SIGNATURE_NAME,
    SynthWebServer,
    engine_fixture_for,
    generate_site,
    signature_line,
)
from websift.wire import HttpExchange, HttpRequest, HttpResponse

MARKER = b"PIPE-SIG-MARKER-55aa"
SIG_TEXT = "Pipe.Sig:" + MARKER.hex()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    docs = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
    return code, docs, captured.err


def ms_at(year, month, day):
    stamp = dt.datetime(year, month, day, 12, 0, tzinfo=dt.timezone.utc)
    return int(stamp.timestamp() * 1000)


def make_exchange(url="http://site.test/page", started_at=None,
                  headers=None, status=200):
    return HttpExchange(
        request=HttpRequest("GET", url, [("Host", "site.test")]),
        response=HttpResponse(status, "OK",
                              headers or [("Content-Type", "text/html")]),
        started_at=started_at if started_at is not None else ms_at(2017, 7, 1),
        agent_id="agent-1",
    )


def put_body_record(store, body, url="http://site.test/page", labels=None,
                    features=None, decoded_sha1=None, augment=None,
                    started_at=None, headers=None):
    sha1 = store.put_blob(body) if body else None
    record = FlowRecord(
        exchange=make_exchange(url, started_at=started_at, headers=headers),
        body_sha1=sha1,
        decoded_sha1=decoded_sha1,
        labels=labels or LabelSet(),
        features=features,
        augment=augment,
    )
    return store.put_record(record)


# --- config handling ---

def test_missing_config_file_is_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "--store", str(tmp_path / "s"),
                           "--config", str(tmp_path / "absent.ini"), "extract")
    assert code == 2
    assert "cannot read config" in err


def test_config_without_section_header_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("store = /tmp/x\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "--config", str(path), "extract")
    assert code == 2
    assert "line 1" in err
    assert "missing section header" in err


def test_config_parse_error_reports_line_numbers(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[pipeline]\nthis line has no equals sign\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "--config", str(path), "extract")
    assert code == 2
    assert "config parse error" in err
    assert "2" in err


def test_config_supplies_store_path(tmp_path, capsys):
    store_path = tmp_path / "cfg-store"
    ini = tmp_path / "websift.ini"
    ini.write_text(f"[pipeline]\nstore = {store_path}\n", encoding="utf-8")
    # crawl creates the store it is given (no seeds: nothing is fetched)
    code, docs, _ = run_cli(capsys, "--config", str(ini), "crawl")
    assert code == 0
    assert docs[-1]["records"] == 0
    assert store_path.is_dir()


def test_store_flag_wins_over_config(tmp_path, capsys):
    ini = tmp_path / "websift.ini"
    ini.write_text(f"[pipeline]\nstore = {tmp_path / 'config-store'}\n",
                   encoding="utf-8")
    flag_store = tmp_path / "flag-store"
    code, _, _ = run_cli(capsys, "--config", str(ini),
                         "--store", str(flag_store), "crawl")
    assert code == 0
    assert flag_store.is_dir()
    assert not (tmp_path / "config-store").exists()


def test_config_bad_integer_is_exit_2(tmp_path, capsys):
    ini = tmp_path / "websift.ini"
    ini.write_text(f"[pipeline]\nstore = {tmp_path / 's'}\nagents = ten\n",
                   encoding="utf-8")
    code, _, err = run_cli(capsys, "--config", str(ini), "crawl")
    assert code == 2
    assert "agents" in err


def test_missing_store_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "extract")
    assert code == 2
    assert "no store path" in err


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# --- synthweb command ---

def test_synthweb_emits_deterministic_spec_and_engines(tmp_path, capsys):
    spec_a = tmp_path / "site-a.json"
    engines_a = tmp_path / "engines-a.json"
    code, docs, _ = run_cli(capsys, "--seed", "9", "synthweb",
                            "--benign", "4", "--malicious", "2",
                            "--emit-spec", str(spec_a),
                            "--emit-engines", str(engines_a))
    assert code == 0
    assert docs[-1] == {"pages": 6}

    doc = json.loads(spec_a.read_text(encoding="utf-8"))
    assert doc == generate_site(4, 2, seed=9)  # global --seed drives generation
    fixture = json.loads(engines_a.read_text(encoding="utf-8"))
    assert fixture == engine_fixture_for(doc)

    spec_b = tmp_path / "site-b.json"
    engines_b = tmp_path / "engines-b.json"
    run_cli(capsys, "--seed", "9", "synthweb", "--benign", "4", "--malicious", "2",
            "--emit-spec", str(spec_b), "--emit-engines", str(engines_b))
    assert spec_b.read_bytes() == spec_a.read_bytes()
    assert engines_b.read_bytes() == engines_a.read_bytes()


def test_synthweb_refuses_a_mistyped_page_field_with_exit_2(tmp_path, capsys):
    spec = tmp_path / "site.json"
    spec.write_text(json.dumps({"pages": [{"path": "/a", "kind": "malicious", "body": 5}]}),
                    encoding="utf-8")
    code, docs, err = run_cli(capsys, "synthweb", "--spec", str(spec),
                              "--emit-engines", str(tmp_path / "engines.json"))
    assert (code, docs) == (2, [])
    assert err.startswith("error: ") and err.count("\n") == 1 and "body" in err
    assert not (tmp_path / "engines.json").exists()


# --- crawl command ---

@pytest.fixture
def live_site(tmp_path):
    doc = generate_site(3, 1, seed=5)
    (tmp_path / "site.json").write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "sigs.txt").write_text(signature_line() + "\n", encoding="utf-8")
    (tmp_path / "engines.json").write_text(
        json.dumps(engine_fixture_for(doc)), encoding="utf-8")
    server = SynthWebServer(doc).start()
    try:
        yield server, doc
    finally:
        server.stop()


def test_seed_file_skips_comments_blank_lines_and_surrounding_spaces(tmp_path):
    path = tmp_path / "seeds.txt"
    path.write_text("# malware feed\nhttp://a.test/\n\n  http://b.test/  \n",
                    encoding="utf-8")
    assert _read_seed_file(str(path)) == ["http://a.test/", "http://b.test/"]


def test_crawl_zero_seeds_is_a_clean_noop(tmp_path, capsys):
    code, docs, _ = run_cli(capsys, "--store", str(tmp_path / "store"), "crawl")
    assert code == 0
    assert docs[-1]["records"] == 0
    assert docs[-1]["agent_requests"] == 0


def test_crawl_whose_agents_cannot_start_is_exit_2_and_starts_nothing(
        tmp_path, capsys, monkeypatch):
    started = []
    monkeypatch.setattr(pipeline_module.Pipeline, "start",
                        lambda self: started.append(self) or self)
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("http://a.test/\nhttp://b.test/\n", encoding="utf-8")
    for flag, value, message in (("--budget", "-1", "interaction_budget must be >= 0"),
                                 ("--seed-cap", "-1", "seed_cap must be >= 0"),
                                 ("--agents", "0", "n_agents must be >= 1")):
        store_path = tmp_path / flag.strip("-")
        code, docs, err = run_cli(capsys, "--store", str(store_path), "crawl",
                                  "--seeds", str(seeds), flag, value)
        assert (code, docs, started) == (2, [], [])
        assert message in err
        with FlowStore(store_path, writable=False) as store:
            assert store.record_count() == 0


def test_crawl_stores_one_record_per_request(tmp_path, capsys, live_site):
    server, doc = live_site
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("".join(f"{server.base_url}{p['path']}\n"
                             for p in doc["pages"]), encoding="utf-8")
    store_path = tmp_path / "store"
    code, docs, _ = run_cli(
        capsys, "--store", str(store_path), "crawl",
        "--seeds", str(seeds), "--signatures", str(tmp_path / "sigs.txt"),
        "--engines", str(tmp_path / "engines.json"),
        "--agents", "2", "--budget", "1", "--focus", "malware")
    assert code == 0
    summary = docs[-1]
    assert summary["errors"] == 0
    assert summary["records"] == summary["agent_requests"] == server.request_count()
    assert summary["tickets"].get("scan_finished", 0) >= 1

    with FlowStore(store_path, writable=False, create=False) as store:
        assert store.record_count() == summary["records"]
        assert all(r.features is not None for r in store.records())


# --- extract command ---

def seed_unfeatured_store(store_path):
    page = b"<html><script>eval(x)</script>" + MARKER + b"</html>"
    zipped = gzip.compress(page, mtime=0)
    with FlowStore(store_path) as store:
        rid_gz = put_body_record(
            store, zipped,
            headers=[("Content-Type", "text/html"), ("Content-Encoding", "gzip")])
        rid_plain = put_body_record(store, b"<html><p>plain</p></html>")
    return rid_gz, rid_plain, page


def test_extract_decodes_and_features_then_noops(tmp_path, capsys):
    store_path = tmp_path / "store"
    rid_gz, rid_plain, page = seed_unfeatured_store(store_path)

    code, docs, _ = run_cli(capsys, "--store", str(store_path), "extract")
    assert code == 0
    assert docs[-1] == {"extracted": 2}

    with FlowStore(store_path, writable=False) as store:
        gz = store.get_record(rid_gz)
        assert gz.decoded_sha1 == hashlib.sha1(page).hexdigest()
        assert gz.decoded_sha1 != gz.body_sha1
        assert gz.features.as_dict()["Numeval"] == 1
        plain = store.get_record(rid_plain)
        assert plain.decoded_sha1 == plain.body_sha1  # raw equals decoded
        assert plain.features.as_dict()["ishtml"] == 1
        assert store.blob_count() == 3  # 2 raw bodies plus 1 decoded page

    # rerun: nothing left to do
    code, docs, _ = run_cli(capsys, "--store", str(store_path), "extract")
    assert docs[-1] == {"extracted": 0}
    code, docs, _ = run_cli(capsys, "--store", str(store_path), "extract", "--force")
    assert docs[-1] == {"extracted": 2}


# --- label command ---

def seed_labelable_store(tmp_path):
    store_path = tmp_path / "store"
    body = b"<html>" + MARKER + b"</html>"
    with FlowStore(store_path) as store:
        sha1 = store.put_blob(body)
        rid = store.put_record(FlowRecord(
            exchange=make_exchange(), body_sha1=sha1, decoded_sha1=sha1,
            features=extract_features(body, "text/html")))
        put_body_record(store, b"<html><p>benign</p></html>",
                        features=extract_features(b"<html><p>benign</p></html>",
                                                  "text/html"))
    sigs = tmp_path / "sigs.txt"
    sigs.write_text(SIG_TEXT + "\n", encoding="utf-8")
    fixture = {hashlib.sha256(body).hexdigest():
               [f"engine-{i:02d}" for i in range(1, 13)]}
    engines = tmp_path / "engines.json"
    engines.write_text(json.dumps(fixture), encoding="utf-8")
    return store_path, sigs, engines, rid


def test_label_applies_fast_sources_and_runs_workers(tmp_path, capsys):
    store_path, sigs, engines, rid = seed_labelable_store(tmp_path)
    code, docs, _ = run_cli(capsys, "--store", str(store_path), "label",
                            "--signatures", str(sigs), "--engines", str(engines))
    assert code == 0
    assert docs[-1] == {"relabeled": 2, "submitted": 1, "fetched": 1, "cycles": 2}

    with FlowStore(store_path, writable=False) as store:
        record = store.get_record(rid)
        assert record.labels.signature_hits == ["Pipe.Sig"]
        assert record.labels.scan_ticket.status is TicketStatus.SCAN_FINISHED
        assert record.labels.ground_truth is True

    # rerun: the hit-bearing record is skipped; the benign one carries no
    # label state and is re-verdicted, which is idempotent
    code, docs, _ = run_cli(capsys, "--store", str(store_path), "label",
                            "--signatures", str(sigs), "--engines", str(engines))
    assert docs[-1] == {"relabeled": 1, "submitted": 0, "fetched": 0, "cycles": 1}


def test_relabel_keeps_a_ticketed_record_that_a_clean_verdict_reaches(tmp_path, capsys):
    store_path, sigs, _, rid = seed_labelable_store(tmp_path)
    run_cli(capsys, "--store", str(store_path), "label", "--signatures", str(sigs))
    with FlowStore(store_path, writable=False) as store:
        before = store.get_record(rid).labels
    assert before.scan_ticket is not None
    other = tmp_path / "other.txt"
    other.write_text("Other.Sig:" + b"matches-nothing".hex() + "\n", encoding="utf-8")
    code, docs, _ = run_cli(capsys, "--store", str(store_path), "label", "--relabel",
                            "--signatures", str(other))
    assert code == 0
    assert docs[-1] == {"relabeled": 1, "submitted": 0, "fetched": 0, "cycles": 0,
                        "kept": [rid]}
    with FlowStore(store_path, writable=False) as store:
        assert store.get_record(rid).labels == before


def test_relabel_scans_the_body_of_a_record_whose_url_does_not_canonicalize(tmp_path, capsys):
    # capture scans such a record's content; relabeling must not skip it
    store_path = tmp_path / "store"
    with FlowStore(store_path) as store:
        rid = put_body_record(store, b"<html>" + SIGNATURE_MARKER + b"</html>",
                              url="http://:80/x")
    blacklist = tmp_path / "blacklist.txt"
    blacklist.write_text("# nothing listed\n", encoding="utf-8")
    sigs = tmp_path / "sigs.txt"
    sigs.write_text(signature_line() + "\n", encoding="utf-8")
    code, docs, _ = run_cli(capsys, "--store", str(store_path), "label", "--relabel",
                            "--blacklist", str(blacklist), "--signatures", str(sigs))
    assert code == 0
    assert docs[-1]["relabeled"] == 1
    with FlowStore(store_path, writable=False) as store:
        labels = store.get_record(rid).labels
        assert labels.blacklist is ThreatType.NONE
        assert labels.signature_hits == [SIGNATURE_NAME]


def test_label_requeue_rescans_and_archives(tmp_path, capsys):
    store_path, sigs, engines, rid = seed_labelable_store(tmp_path)
    run_cli(capsys, "--store", str(store_path), "label",
            "--signatures", str(sigs), "--engines", str(engines))

    code, docs, _ = run_cli(capsys, "--store", str(store_path), "label",
                            "--signatures", str(sigs), "--engines", str(engines),
                            "--requeue", str(rid))
    assert code == 0
    assert docs[-1]["submitted"] == 1 and docs[-1]["fetched"] == 1

    with FlowStore(store_path, writable=False) as store:
        ticket = store.get_record(rid).labels.scan_ticket
        assert ticket.status is TicketStatus.SCAN_FINISHED
        assert len(ticket.archived) == 1


def test_label_requeue_without_ticket_is_exit_2(tmp_path, capsys):
    store_path = tmp_path / "store"
    with FlowStore(store_path) as store:
        rid = put_body_record(store, b"<html></html>")
        unscanned = put_body_record(store, b"<html></html>",
                                    labels=LabelSet(signature_hits=["Pipe.Sig"],
                                                    scan_ticket=ScanTicket()))
    for target, message in ((rid, "no scan ticket"), (rid + 4, f"no record {rid + 4}"),
                            (unscanned, f"record {unscanned}: cannot requeue a ticket "
                                        "in state unscanned")):
        code, _, err = run_cli(capsys, "--store", str(store_path), "label",
                               "--requeue", str(target))
        assert code == 2
        assert message in err


def test_cycle_and_tree_counts_that_mean_nothing(tmp_path, capsys):
    store_path, sigs, engines, _ = seed_labelable_store(tmp_path)
    log = (store_path / "records.log").read_bytes()
    code, docs, err = run_cli(capsys, "--store", str(store_path), "label",
                              "--signatures", str(sigs), "--engines", str(engines),
                              "--cycles", "-1")
    assert (code, docs) == (2, [])
    assert "--cycles must be >= 0, got -1" in err
    assert (store_path / "records.log").read_bytes() == log
    code, docs, _ = run_cli(capsys, "--store", str(store_path), "label",
                            "--signatures", str(sigs), "--engines", str(engines),
                            "--cycles", "0")
    assert code == 0
    assert docs[-1] == {"relabeled": 2, "submitted": 0, "fetched": 0, "cycles": 0}
    with FlowStore(store_path, writable=False) as store:
        assert store.query("scan_in_progress") == []

    training = tmp_path / "training"
    seed_training_store(training)
    model_path = tmp_path / "model.json"
    code, docs, err = run_cli(capsys, "--store", str(training), "train",
                              "--out", str(model_path), "--trees", "0")
    assert (code, docs) == (2, [])
    assert "n_trees must be >= 1, got 0" in err
    assert not model_path.exists()


def test_store_errors_are_exit_2(tmp_path, capsys):
    store_path = tmp_path / "store"
    with FlowStore(store_path) as store:
        put_body_record(store, b"<html></html>")
    log = store_path / "records.log"
    good = log.read_bytes()
    log.write_bytes(b"not json\n" + good)
    code, _, err = run_cli(capsys, "--store", str(store_path), "report")
    assert code == 2
    assert "error: StoreError: " in err and "line 1" in err
    log.write_bytes(good)
    with FlowStore(store_path):  # the writer lock is held
        code, _, err = run_cli(capsys, "--store", str(store_path), "extract")
    assert code == 2
    assert "error: StoreLockError: another writer holds" in err


@pytest.mark.parametrize("command", ["extract", "label", "train", "classify", "report"])
def test_a_command_that_reads_a_store_refuses_a_missing_one(tmp_path, capsys, command):
    # only crawl and serve create a store; a mistyped path is refused, not made
    model_path = tmp_path / "model.json"
    forest.save_model(forest.train_forest([[0.0] * 58, [1.0] * 58], [0, 1],
                                          forest.ForestConfig(n_trees=1)), model_path)
    options = {"train": ["--out", str(tmp_path / "trained.json")],
               "classify": ["--model", str(model_path)]}.get(command, [])
    missing = tmp_path / "typo_store"
    code, docs, err = run_cli(capsys, "--store", str(missing), command, *options)
    assert (code, docs) == (2, [])
    assert "error: StoreError: " in err and "does not exist" in err
    assert not missing.exists() and not (tmp_path / "trained.json").exists()


# --- train and classify ---

def seed_training_store(store_path, n_mal=6, n_ben=10):
    with FlowStore(store_path) as store:
        for i in range(n_mal):
            body = (f"<html><script>eval(unescape('p{i}'));"
                    f"eval(s{i});</script></html>").encode()
            put_body_record(store, body, url=f"http://mal{i}.test/x",
                            labels=LabelSet(ground_truth=True),
                            features=extract_features(body, "text/html"))
        for i in range(n_ben):
            body = f"<html><body><p>plain text {i}</p></body></html>".encode()
            put_body_record(store, body, url=f"http://ok{i}.test/",
                            labels=LabelSet(ground_truth=False),
                            features=extract_features(body, "text/html"))


def test_train_then_classify_records_and_files(tmp_path, capsys):
    store_path = tmp_path / "store"
    seed_training_store(store_path)
    model_path = tmp_path / "model.json"

    code, docs, _ = run_cli(capsys, "--store", str(store_path), "--seed", "3",
                            "train", "--out", str(model_path), "--trees", "5")
    assert code == 0
    out = docs[-1]
    assert out["model"] == str(model_path)
    assert out["train_size"] == 8 and out["test_size"] == 8
    assert set(out["confusion"]) == {"tp", "fp", "tn", "fn"}
    assert set(out["metrics"]) == {"malware", "benign"}
    assert set(out["metrics"]["malware"]) == {"precision", "recall", "accuracy"}
    model = forest.load_model(model_path)
    assert model.feature_count == 58

    # classify every featured record in the store and persist the verdicts
    code, docs, _ = run_cli(capsys, "--store", str(store_path), "classify",
                            "--model", str(model_path), "--update")
    assert code == 0
    assert len(docs) == 16
    assert all(d["category"] in ("benign", "malicious") for d in docs)
    with FlowStore(store_path, writable=False) as store:
        record = store.get_record(docs[0]["record_id"])
        assert record.extra["classify.category"] == docs[0]["category"]

    # classify a single record and a standalone file
    code, docs, _ = run_cli(capsys, "--store", str(store_path), "classify",
                            "--model", str(model_path), "--record", "1")
    assert [d["record_id"] for d in docs] == [1]
    code, docs, err = run_cli(capsys, "--store", str(store_path), "classify",
                              "--model", str(model_path), "--record", "99")
    assert code == 2 and docs == [] and "no record 99" in err

    page = tmp_path / "sample.html"
    page.write_bytes(b"<html><script>eval(unescape('pX'));eval(x);</script></html>")
    code, docs, _ = run_cli(capsys, "classify", "--model", str(model_path),
                            "--input", str(page))
    assert code == 0
    assert docs[-1]["input"] == str(page)
    assert 0.0 <= docs[-1]["score"] <= 1.0


def test_train_leaves_out_records_whose_scan_did_not_decide_them(tmp_path, capsys):
    store_path = tmp_path / "store"
    seed_training_store(store_path)
    body = b"<html><script>eval(unescape('pq'));eval(q);</script></html>"
    features = extract_features(body, "text/html")
    errored = ScanTicket()
    errored.to_error()  # say, a body the engines refused
    with FlowStore(store_path) as store:
        for ticket in (errored, ScanTicket()):
            put_body_record(store, body, features=features,
                            labels=LabelSet(signature_hits=["Pipe.Sig"], scan_ticket=ticket))
        put_body_record(store, body, features=features)  # no ticket: benign as before
    code, docs, _ = run_cli(capsys, "--store", str(store_path), "train",
                            "--out", str(tmp_path / "model.json"), "--trees", "2")
    assert code == 0
    assert docs[-1]["undetermined"] == 2
    assert docs[-1]["train_size"] + docs[-1]["test_size"] == 17


def test_train_names_the_undetermined_records_when_none_are_left(tmp_path, capsys):
    store_path = tmp_path / "store"
    body = b"<html><script>eval(unescape('pq'));eval(q);</script></html>"
    with FlowStore(store_path) as store:
        put_body_record(store, body, features=extract_features(body, "text/html"),
                        labels=LabelSet(signature_hits=["Pipe.Sig"], scan_ticket=ScanTicket()))
    code, _, err = run_cli(capsys, "--store", str(store_path), "train",
                           "--out", str(tmp_path / "m.json"))
    assert code == 2
    assert "no feature-bearing records to train on (1 left out as undetermined)" in err


def test_train_empty_store_is_exit_2(tmp_path, capsys):
    with FlowStore(tmp_path / "store"):
        pass
    code, _, err = run_cli(capsys, "--store", str(tmp_path / "store"),
                           "train", "--out", str(tmp_path / "m.json"))
    assert code == 2
    assert "no feature-bearing records" in err


# --- report command ---

def seed_report_store(store_path):
    body_a = b"<html><p>mal A</p></html>"
    body_b = b"<html><p>mal B</p><form></form></html>"
    body_c = b"<html><p>mal C</p></html>"
    mal = LabelSet(ground_truth=True)
    with FlowStore(store_path) as store:
        put_body_record(store, body_a, started_at=ms_at(2017, 7, 1),
                        labels=LabelSet(ground_truth=True, signature_hits=["Sig.A"]),
                        features=extract_features(body_a, "text/html"),
                        augment=AugmentInfo(country="DE"))
        # same body again: deduplicated by body digest
        put_body_record(store, body_a, started_at=ms_at(2017, 7, 9),
                        labels=LabelSet(ground_truth=True, signature_hits=["Sig.A"]),
                        features=extract_features(body_a, "text/html"))
        put_body_record(store, body_b, started_at=ms_at(2017, 7, 2),
                        labels=LabelSet(ground_truth=True,
                                        signature_hits=["Sig.A", "Sig.B"]),
                        features=extract_features(body_b, "text/html"),
                        augment=AugmentInfo(country="DE"))
        put_body_record(store, body_c, started_at=ms_at(2017, 8, 1),
                        labels=LabelSet(ground_truth=True),
                        features=extract_features(body_c, "text/html"),
                        augment=AugmentInfo(country="US"))
        put_body_record(store, b"<html><p>benign</p></html>",
                        labels=LabelSet(ground_truth=False))


def test_report_aggregates_unique_malicious(tmp_path, capsys):
    store_path = tmp_path / "store"
    seed_report_store(store_path)
    out_dir = tmp_path / "report"
    code, docs, _ = run_cli(capsys, "--store", str(store_path), "report",
                            "--out", str(out_dir))
    assert code == 0
    bundle = docs[-1]
    assert bundle["unique_malicious"] == 3
    assert bundle["collection_progress"] == [["2017-07-01", 1],
                                             ["2017-07-02", 2],
                                             ["2017-08-01", 3]]
    assert bundle["top_countries"] == [["DE", 2], ["US", 1]]
    assert bundle["top_signatures"] == [["Sig.A", 2], ["Sig.B", 1]]
    assert bundle["content_type_breakdown"] == [["text/html", 3]]
    months = {row[0] for row in bundle["feature_trends"]}
    assert months == {"2017-07", "2017-08"}
    form_row = [r for r in bundle["feature_trends"]
                if r[0] == "2017-07" and r[1] == "form"]
    assert form_row == [["2017-07", "form", 1.0]]  # open+close tags over 2 pages

    names = ["collection_progress.csv", "top_countries.csv", "top_signatures.csv",
             "feature_trends.csv", "content_types.csv"]
    for name in names:
        assert (out_dir / name).is_file()
    assert (out_dir / "top_countries.csv").read_text(encoding="utf-8") == \
        "country,count\nDE,2\nUS,1\n"


def test_report_csvs_are_byte_identical_across_reruns(tmp_path, capsys):
    store_path = tmp_path / "store"
    seed_report_store(store_path)
    run_cli(capsys, "--store", str(store_path), "report",
            "--out", str(tmp_path / "r1"))
    run_cli(capsys, "--store", str(store_path), "report",
            "--out", str(tmp_path / "r2"))
    for name in ("collection_progress.csv", "top_countries.csv",
                 "top_signatures.csv", "feature_trends.csv", "content_types.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == \
            (tmp_path / "r2" / name).read_bytes()


def test_report_custom_trend_features(tmp_path, capsys):
    store_path = tmp_path / "store"
    seed_report_store(store_path)
    code, docs, _ = run_cli(capsys, "--store", str(store_path), "report",
                            "--features", "Numeval")
    assert code == 0
    assert all(row[1] == "Numeval" for row in docs[-1]["feature_trends"])


def test_report_unknown_trend_feature_is_exit_2(tmp_path, capsys):
    store_path = tmp_path / "store"
    seed_report_store(store_path)
    code, _, err = run_cli(capsys, "--store", str(store_path), "report",
                           "--features", "NoSuchColumn")
    assert code == 2
    assert "unknown trend feature" in err
