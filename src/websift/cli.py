"""Command line front end binding capture, labeling, training and reports.

Commands: serve, crawl, extract, label, train, classify, report,
synthweb.  Global flags --store/--config/--seed apply to every command.
An INI config file can supply [pipeline] store, seeds, focus, agents,
budget, seed_cap; [wire] mode, fail_policy; [agents] credentials;
[labels] blacklist, signatures, engines; [augment] geoip, whois,
suffixes.  A flag wins over its key; no other flag has one.
Every command is re-runnable against the same store: reruns append or
no-op, and report CSVs are byte-identical for identical store contents.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import datetime as dt
import json
import sys
import time
from pathlib import Path

from . import forest, synthweb
from .agents import load_credentials
from .augment import GeoIpDb, WhoIsDb
from .features import FEATURE_ORDER, extract_features
from .fixtures import fixture_lines
from .flowstore import FlowStore, RecordNotFoundError, StoreError
from .labels import (
    LabelSet,
    SignatureSet,
    SimulatedEngineSet,
    TicketStateError,
    UrlBlacklist,
    fast_verdict,
)
from .pipeline import LabelSources, Pipeline, run_crawl, run_label_cycles, store_body
from .wire import SEEDER_TAGS, HttpResponse

DEFAULT_TREND_FEATURES = ("NumLongStrings", "form", "iframe")


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# config file

class Config:
    """INI-style config; missing file or section degrades to defaults."""

    def __init__(self, path: str | None):
        self._parser = configparser.ConfigParser()
        if path:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    self._parser.read_file(fh, source=path)
            except OSError as exc:
                raise CliError(f"cannot read config {path}: {exc}")
            except configparser.MissingSectionHeaderError as exc:
                # subclass of ParsingError but carries no .errors list
                raise CliError(
                    f"config parse error in {path} at line {exc.lineno}: "
                    "missing section header")
            except configparser.ParsingError as exc:
                lines = ", ".join(str(n) for n, _ in exc.errors)
                raise CliError(f"config parse error in {path} at line(s) {lines}")
            except configparser.Error as exc:
                raise CliError(f"config parse error in {path}: {exc}")

    def get(self, section: str, key: str, fallback=None):
        return self._parser.get(section, key, fallback=fallback)

    def getint(self, section: str, key: str, fallback=None):
        try:
            return self._parser.getint(section, key, fallback=fallback)
        except ValueError as exc:
            raise CliError(f"config [{section}] {key}: {exc}")


def _pick(flag_value, cfg: Config, section: str, key: str, default=None):
    if flag_value is not None:
        return flag_value
    got = cfg.get(section, key)
    return got if got is not None else default


def _load_sources(args, cfg: Config) -> LabelSources:
    sources = LabelSources()
    blacklist = _pick(args.blacklist, cfg, "labels", "blacklist")
    signatures = _pick(args.signatures, cfg, "labels", "signatures")
    engines = _pick(args.engines, cfg, "labels", "engines")
    geoip = _pick(getattr(args, "geoip", None), cfg, "augment", "geoip")
    whois = _pick(getattr(args, "whois", None), cfg, "augment", "whois")
    suffixes = _pick(getattr(args, "suffixes", None), cfg, "augment", "suffixes")
    if blacklist:
        sources.blacklist = UrlBlacklist.from_file(blacklist)
    if signatures:
        sources.signatures = SignatureSet.from_file(signatures)
    if engines:
        sources.engines = SimulatedEngineSet.from_file(engines)
    if geoip:
        sources.geoip = GeoIpDb.from_file(geoip)
    if whois:
        sources.whois = WhoIsDb.from_file(whois, suffix_path=suffixes)
    return sources


def _open_store(args, cfg: Config, *, writable: bool, create: bool) -> FlowStore:
    """The store --store or [pipeline] store names; only capture may `create` it."""
    store_path = _pick(args.store, cfg, "pipeline", "store")
    if not store_path:
        raise CliError("no store path: pass --store or set [pipeline] store")
    return FlowStore(store_path, writable=writable, create=create)


def _emit(doc) -> None:
    # flush so long-running commands reveal their address through pipes
    print(json.dumps(doc, sort_keys=True), flush=True)


def _wait(duration: float) -> None:
    """Sleep `duration` seconds, or until interrupted when it is 0 or less."""
    try:
        if duration > 0:
            time.sleep(duration)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass


# ---------------------------------------------------------------------------
# serve

def cmd_serve(args, cfg: Config) -> int:
    sources = _load_sources(args, cfg)
    mode = _pick(args.mode, cfg, "wire", "mode", "collect")
    fail_policy = _pick(args.fail_policy, cfg, "wire", "fail_policy", "closed")
    store = _open_store(args, cfg, writable=True, create=True)
    pipeline = Pipeline(store, sources, mode=mode, fail_policy=fail_policy,
                        gateway_port=args.gateway_port, proxy_port=args.proxy_port)
    pipeline.start()
    _emit({"gateway": list(pipeline.gateway.address),
           "proxy": list(pipeline.proxy.address), "mode": mode})
    try:
        _wait(args.duration)
    finally:
        pipeline.stop_capture()
        pipeline.run_labels()
        summary = pipeline.summary()
        store.close()
    _emit(summary.to_doc())
    return 0


# ---------------------------------------------------------------------------
# crawl

def _read_seed_file(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line for _, line in fixture_lines(fh)]


def cmd_pipeline(args, cfg: Config) -> int:
    sources = _load_sources(args, cfg)
    seeds_path = _pick(args.seeds, cfg, "pipeline", "seeds")
    seed_urls = _read_seed_file(seeds_path) if seeds_path else []
    focus = _pick(args.focus, cfg, "pipeline", "focus", "benign")
    n_agents = args.agents if args.agents is not None else cfg.getint(
        "pipeline", "agents", 2)
    budget = args.budget if args.budget is not None else cfg.getint(
        "pipeline", "budget", 10)
    seed_cap = args.seed_cap if args.seed_cap is not None else cfg.getint(
        "pipeline", "seed_cap", None)
    mode = _pick(args.mode, cfg, "wire", "mode", "collect")
    fail_policy = _pick(args.fail_policy, cfg, "wire", "fail_policy", "closed")
    creds_path = _pick(args.credentials, cfg, "agents", "credentials")
    creds = load_credentials(creds_path) if creds_path else {}

    store = _open_store(args, cfg, writable=True, create=True)
    try:
        summary = run_crawl(store, sources, seed_urls, focus=focus,
                            n_agents=n_agents, budget=budget, seed_cap=seed_cap,
                            mode=mode, fail_policy=fail_policy, creds=creds)
    finally:
        store.close()
    _emit(summary.to_doc())
    return 0


# ---------------------------------------------------------------------------
# extract

def cmd_extract(args, cfg: Config) -> int:
    store = _open_store(args, cfg, writable=True, create=False)
    done = 0
    try:
        for record in store.records():
            if record.features is not None and not args.force:
                continue
            response = record.exchange.response if record.exchange else HttpResponse(0)
            data = store.content(record)
            updates = {}
            if record.decoded_sha1 is None:  # not yet decoded: content is the raw body
                extra = dict(record.extra)
                data, _, decoded_sha1 = store_body(store, data, response.headers, extra)
                updates = {"decoded_sha1": decoded_sha1, "extra": extra}
            ctype = response.header("Content-Type") or ""
            updates["features"] = extract_features(data, ctype)
            store.update_record(record.record_id, **updates)
            done += 1
    finally:
        store.close()
    _emit({"extracted": done})
    return 0


# ---------------------------------------------------------------------------
# label

def _get_record(store: FlowStore, record_id: int):
    try:
        return store.get_record(record_id)
    except RecordNotFoundError:
        raise CliError(f"no record {record_id}") from None


def cmd_label(args, cfg: Config) -> int:
    # run_label_cycles refuses it too, but only after the relabel pass has written
    if args.cycles is not None and args.cycles < 0:
        raise CliError(f"--cycles must be >= 0, got {args.cycles}")
    sources = _load_sources(args, cfg)
    store = _open_store(args, cfg, writable=True, create=False)
    relabeled = 0
    kept = []  # ticketed records a clean verdict left as they were
    try:
        if args.requeue:
            for rid in args.requeue:
                record = _get_record(store, rid)
                if record.labels.scan_ticket is None:
                    raise CliError(f"record {rid} has no scan ticket to requeue")
                try:
                    record.labels.scan_ticket.requeue()
                except TicketStateError as exc:
                    raise CliError(f"record {rid}: {exc}") from None
                record.labels.ground_truth = None
                store.update_record(rid, labels=record.labels)
        for record in store.records():
            if not args.relabel and record.labels != LabelSet():
                continue
            if record.exchange is None:
                continue
            verdict = fast_verdict(record.exchange.request.url, store.content(record),
                                   sources.blacklist, sources.signatures)
            if not record.labels.apply_verdict(verdict):
                kept.append(record.record_id)
                continue
            store.update_record(record.record_id, labels=record.labels)
            relabeled += 1
        worker = {"submitted": 0, "fetched": 0, "cycles": 0}
        if sources.engines is not None:
            cycles = {} if args.cycles is None else {"max_cycles": args.cycles}
            worker = run_label_cycles(store, sources.engines, **cycles)
    finally:
        store.close()
    summary = {"relabeled": relabeled, **worker}
    if kept:
        summary["kept"] = kept
    _emit(summary)
    return 0


# ---------------------------------------------------------------------------
# train

def _training_data(store: FlowStore) -> tuple[list, list[int], int]:
    """(feature vectors, 1 for malicious ground truth else 0, records left out).

    Of the feature-bearing records, one whose scan ticket has not decided
    its ground truth (errored or unfinished) is left out, not taken as benign.
    """
    samples, labels = [], []
    undetermined = 0
    for record in store.records():
        if record.features is None:
            continue
        truth = record.labels.ground_truth
        if truth is None and record.labels.scan_ticket is not None:
            undetermined += 1
            continue
        samples.append(record.features)
        labels.append(1 if truth is True else 0)
    return samples, labels, undetermined


def _train_and_evaluate(samples, labels, trees: int, seed: int, policy: str = "scaled",
                        bootstrap: bool = True) -> tuple[forest.ForestModel, dict]:
    """Split, train and evaluate: (model, its split sizes, confusion and metrics)."""
    train_idx, test_idx = forest.split_dataset(samples, labels, policy=policy, seed=seed)
    config = forest.ForestConfig(n_trees=trees, seed=seed, bootstrap=bootstrap)
    model = forest.train_forest([samples[i] for i in train_idx],
                                [labels[i] for i in train_idx], config)
    cm = forest.evaluate(model, [samples[i] for i in test_idx],
                         [labels[i] for i in test_idx])
    return model, {
        "train_size": len(train_idx),
        "test_size": len(test_idx),
        "confusion": {"tp": cm.tp, "fp": cm.fp, "tn": cm.tn, "fn": cm.fn},
        "metrics": forest.metric_table(cm),
    }


def cmd_train(args, cfg: Config) -> int:
    store = _open_store(args, cfg, writable=False, create=False)
    try:
        samples, labels, undetermined = _training_data(store)
    finally:
        store.close()
    if not samples:
        left_out = f" ({undetermined} left out as undetermined)" if undetermined else ""
        raise CliError(f"store has no feature-bearing records to train on{left_out}")
    model, doc = _train_and_evaluate(samples, labels, args.trees, args.seed,
                                     args.policy, not args.no_bootstrap)
    forest.save_model(model, args.out)
    _emit({"model": str(args.out), "undetermined": undetermined, **doc})
    return 0


# ---------------------------------------------------------------------------
# classify

def cmd_classify(args, cfg: Config) -> int:
    model = forest.load_model(args.model)
    if args.input:
        data = Path(args.input).read_bytes()
        fv = extract_features(data)
        category, score = forest.predict(model, fv)
        _emit({"input": args.input, "category": forest.CATEGORY_NAMES[category],
               "score": score})
        return 0
    store = _open_store(args, cfg, writable=bool(args.update), create=False)
    try:
        records = (store.records() if args.record is None
                   else [_get_record(store, args.record)])
        for record in records:
            if record.features is None:
                continue
            category, score = forest.predict(model, record.features)
            _emit({"record_id": record.record_id,
                   "category": forest.CATEGORY_NAMES[category], "score": score})
            if args.update:
                extra = dict(record.extra)
                extra["classify.category"] = forest.CATEGORY_NAMES[category]
                extra["classify.score"] = score
                store.update_record(record.record_id, extra=extra)
    finally:
        store.close()
    return 0


# ---------------------------------------------------------------------------
# report

def _date_of(epoch_ms: int) -> str:
    """The UTC date as YYYY-MM-DD; its first 7 characters are the month."""
    return dt.datetime.fromtimestamp(epoch_ms / 1000, dt.timezone.utc).date().isoformat()


def build_report(store: FlowStore, trend_features=DEFAULT_TREND_FEATURES) -> dict:
    """Aggregates over ground-truth-malicious records, unique by body SHA-1.

    One pass over the store: a record counts when it is the first, by id,
    to carry its body SHA-1.
    """
    seen: set[str] = set()
    progress: dict[str, int] = {}
    countries: dict[str, int] = {}
    signatures: dict[str, int] = {}
    trends: dict[tuple[str, str], list[float]] = {}
    ctypes: dict[str, int] = {}
    for record in store.records():
        if (record.labels.ground_truth is not True or not record.body_sha1
                or record.body_sha1 in seen):
            continue
        seen.add(record.body_sha1)
        if record.exchange is not None:
            day = _date_of(record.exchange.started_at)
            progress[day] = progress.get(day, 0) + 1
            ctype = (record.exchange.response.header("Content-Type") or "unknown")
            ctype = ctype.split(";")[0].strip().lower() or "unknown"
            ctypes[ctype] = ctypes.get(ctype, 0) + 1
        if record.augment is not None and record.augment.country:
            countries[record.augment.country] = countries.get(
                record.augment.country, 0) + 1
        for name in record.labels.signature_hits:
            signatures[name] = signatures.get(name, 0) + 1
        if record.features is not None and record.exchange is not None:
            month = _date_of(record.exchange.started_at)[:7]
            for feat in trend_features:
                trends.setdefault((month, feat), []).append(float(record.features[feat]))

    def top10(counter: dict[str, int]) -> list[list]:
        ordered = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
        return [[k, v] for k, v in ordered[:10]]

    cumulative = []
    total = 0
    for day in sorted(progress):
        total += progress[day]
        cumulative.append([day, total])

    trend_rows = [[month, feat, sum(vals) / len(vals)]
                  for (month, feat), vals in sorted(trends.items())]
    return {
        "collection_progress": cumulative,
        "top_countries": top10(countries),
        "top_signatures": top10(signatures),
        "feature_trends": trend_rows,
        "content_type_breakdown": sorted(
            ([k, v] for k, v in ctypes.items()), key=lambda kv: (-kv[1], kv[0])),
        "unique_malicious": len(seen),
    }


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(c) if isinstance(c, float) else c for c in row])


# file name, header, bundle key
REPORT_CSVS = (
    ("collection_progress.csv", ["date", "cumulative_malicious"], "collection_progress"),
    ("top_countries.csv", ["country", "count"], "top_countries"),
    ("top_signatures.csv", ["signature", "count"], "top_signatures"),
    ("feature_trends.csv", ["month", "feature", "mean"], "feature_trends"),
    ("content_types.csv", ["content_type", "count"], "content_type_breakdown"),
)


def write_report_csvs(bundle: dict, out_dir) -> list[str]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, header, key in REPORT_CSVS:
        _write_csv(out / name, header, bundle[key])
    return [name for name, _, _ in REPORT_CSVS]


def cmd_report(args, cfg: Config) -> int:
    features = (tuple(args.features.split(",")) if args.features
                else DEFAULT_TREND_FEATURES)
    for feat in features:
        if feat not in FEATURE_ORDER:
            raise CliError(f"unknown trend feature {feat!r}")
    store = _open_store(args, cfg, writable=False, create=False)
    try:
        bundle = build_report(store, features)
    finally:
        store.close()
    if args.out:
        write_report_csvs(bundle, args.out)
    _emit(bundle)
    return 0


# ---------------------------------------------------------------------------
# synthweb

def cmd_synthweb(args, cfg: Config) -> int:
    if args.spec:
        doc = synthweb.load_site_file(args.spec)
    else:
        doc = synthweb.generate_site(args.benign, args.malicious, args.seed)
    if args.emit_spec:
        Path(args.emit_spec).write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if args.emit_engines:
        fixture = synthweb.engine_fixture_for(doc)
        Path(args.emit_engines).write_text(
            json.dumps(fixture, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if args.duration == 0 and (args.emit_spec or args.emit_engines):
        _emit({"pages": len(doc["pages"])})
        return 0
    server = synthweb.SynthWebServer(doc, port=args.port).start()
    _emit({"address": list(server.address), "pages": len(doc["pages"])})
    try:
        _wait(args.duration)
    finally:
        server.stop()
    _emit({"requests": server.request_count()})
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="websift",
        description="web traffic capture, labeling and classification toolkit")
    parser.add_argument("--store", help="flow store root directory")
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--seed", type=int, default=1, help="global RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sources(p):
        p.add_argument("--blacklist")
        p.add_argument("--signatures")
        p.add_argument("--engines")
        p.add_argument("--geoip")
        p.add_argument("--whois")
        p.add_argument("--suffixes")

    p = sub.add_parser("serve", help="run gateway and proxy until interrupted")
    add_sources(p)
    p.add_argument("--mode", choices=["collect", "enforce"])
    p.add_argument("--fail-policy", choices=["open", "closed"])
    p.add_argument("--gateway-port", type=int, default=0)
    p.add_argument("--proxy-port", type=int, default=0)
    p.add_argument("--duration", type=float, default=0)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("crawl", help="run agents over seeds through the pipeline")
    add_sources(p)
    p.add_argument("--seeds")
    p.add_argument("--focus", choices=SEEDER_TAGS)
    p.add_argument("--agents", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--seed-cap", type=int)
    p.add_argument("--mode", choices=["collect", "enforce"])
    p.add_argument("--fail-policy", choices=["open", "closed"])
    p.add_argument("--credentials")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("extract", help="decode bodies and extract feature vectors")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("label", help="apply fast labels and run scan workers")
    add_sources(p)
    p.add_argument("--relabel", action="store_true")
    p.add_argument("--cycles", type=int)
    p.add_argument("--requeue", type=int, action="append")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="train a forest from stored records")
    p.add_argument("--out", required=True)
    p.add_argument("--policy", choices=["scaled", "paper2017"], default="scaled")
    p.add_argument("--trees", type=int, default=10)
    p.add_argument("--no-bootstrap", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="classify records or a file with a model")
    p.add_argument("--model", required=True)
    p.add_argument("--input")
    p.add_argument("--record", type=int)
    p.add_argument("--update", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("report", help="aggregate malicious-record statistics")
    p.add_argument("--out")
    p.add_argument("--features")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("synthweb", help="serve a deterministic synthetic site")
    p.add_argument("--spec")
    p.add_argument("--benign", type=int, default=10)
    p.add_argument("--malicious", type=int, default=5)
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--duration", type=float, default=0)
    p.add_argument("--emit-spec")
    p.add_argument("--emit-engines")
    p.set_defaults(func=cmd_synthweb)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = Config(args.config)
        return args.func(args, cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, StoreError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
