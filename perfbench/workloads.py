"""The three workloads: set-up, timed phase, output checks and digest.

Every workload drives websift through its public entry points: the
capture is ``websift crawl`` (``cli.main`` in-process, which calls
``run_crawl``) and the offline stages are ``cli.main`` calls that reopen
the store as the command line does.  ``capture`` and ``scripts`` crawl
and settle labels, then reprocess the new store offline; ``backlog``
captures its store in set-up (one agent, no engines, so tickets stay
unscanned) and times the offline stages on a pristine copy of it.

Inputs come from ``inputs`` and depend only on the seed.  Each unit of
timed work is checked (records, origin ledger, tickets, ground truth,
stage outputs) and digested; failures are counted, not raised.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlsplit

import websift.cli
from websift.flowstore import FlowStore
from websift.labels import TicketStatus

from . import inputs, stats
from .tracing import PROBES, Tracer

TREES = 50


@dataclass(frozen=True)
class Workload:
    name: str
    pages: int
    agents: int
    site: object                  # seed, pages -> site spec
    noisy_labels: bool = False    # demote a tenth of the flagged digests
    setups: int = 5               # set-ups per run; setup_s is their median


WORKLOADS = {
    "capture": Workload("capture", 1500, 2, inputs.capture_site),
    "scripts": Workload("scripts", 100, 2, inputs.scripts_site),
    "backlog": Workload("backlog", 1500, 1, inputs.backlog_site,
                        noisy_labels=True, setups=3),
}

# wall-clock readings reported beside the metrics, not gated: on a shared
# host they move with other tenants' load by more than any bound allows
READINGS = ("capture_rps", "capture_mbps", "fetch_p50_ms", "fetch_p90_ms",
            "settle_s", "extract_s", "train_s", "classify_s", "report_s")


# ---------------------------------------------------------------------------
# failure accounting

@dataclass
class Tally:
    """Attempted and failed operations behind error_rate."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, what: str) -> None:
        if count:
            self.failed += count
            self.problems.append(f"{what} (x{count})")

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(1, what)


def run_cli(tally: Tally, argv: list[str]) -> tuple[int, str]:
    """websift's command line in-process; stdout is captured and returned."""
    tally.attempted += 1
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = websift.cli.main(argv)
    except Exception as exc:  # a crashing stage is a failed operation
        print(f"perfbench: {argv[4]}: {type(exc).__name__}: {exc}", file=sys.stderr)
        rc = 1
    tally.expect(rc == 0, f"websift {argv[4]} exited {rc}")
    return rc, buf.getvalue()


def timed_cli(tracer: Tracer, tally: Tally, stage: str, argv: list[str]) -> tuple[int, str]:
    """One command as span "stage.<stage>", starting from a collected heap.

    Each websift command normally runs in a fresh process; collecting
    first keeps the garbage of earlier stages out of this one's time.
    """
    gc.collect()
    with tracer.span("stage." + stage):
        return run_cli(tally, argv)


def json_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# the origin process

class Origin:
    """perfbench/origin.py in a child process, spoken to over its stdin."""

    def __init__(self, root: Path, spec: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(root / "perfbench" / "origin.py"), "--spec", str(spec)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=root)
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("origin exited before listening")
        host, port = json.loads(line)["address"]
        self.base_url = f"http://{host}:{port}"

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def stop(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# set-up

@dataclass
class Env:
    workload: Workload
    seed: int
    workdir: Path
    files: dict
    seeds: list[str]
    expected_malicious: int
    flagged: int
    origin: Origin | None = None
    pristine: Path | None = None
    capture: dict | None = None   # backlog: metrics of the set-up capture

    def close(self) -> None:
        if self.origin is not None:
            self.origin.stop()
            self.origin = None


def setup(wl: Workload, seed: int, root: Path, workdir: Path, tally: Tally) -> Env:
    """Generate inputs, start the origin; backlog also captures its store."""
    doc = wl.site(seed, wl.pages)
    fixture = (inputs.noisy_fixture(doc, seed) if wl.noisy_labels
               else inputs.engine_fixture_for(doc))
    files = inputs.write_inputs(workdir, doc, fixture)
    seeds_file = workdir / "seeds.txt"
    env = Env(wl, seed, workdir, files, [],
              expected_malicious=inputs.expected_malicious(doc, fixture),
              flagged=sum(1 for p in doc["pages"] if p["kind"] == "malicious"),
              origin=Origin(root, files["spec"]))
    try:
        env.seeds = [env.origin.base_url + page["path"] for page in doc["pages"]]
        seeds_file.write_text("\n".join(env.seeds) + "\n", encoding="utf-8")
        files["seeds"] = seeds_file
        if wl.name == "backlog":
            # the set-up capture: one agent keeps record order fixed, and
            # without engines every ticket stays unscanned
            env.pristine = workdir / "pristine"
            tracer = Tracer().install(PROBES)
            try:
                summary = crawl(env, env.pristine, tracer, tally, engines=False)
            finally:
                tracer.restore()
            env.capture = capture_metrics(tracer, summary.get("records", 0))
            check_capture(env, summary, tracer, tally, settled=False)
            env.close()
    except BaseException:
        env.close()
        raise
    return env


# ---------------------------------------------------------------------------
# the timed units

def crawl(env: Env, store: Path, tracer: Tracer, tally: Tally, engines: bool) -> dict:
    """`websift crawl` over the seeds: agents, proxy, gateway, commit, labels."""
    env.origin.ask("reset")
    argv = ["--store", str(store), "--seed", str(env.seed), "crawl",
            "--seeds", str(env.files["seeds"]), "--focus", "malware",
            "--agents", str(env.workload.agents), "--budget", "0",
            "--signatures", str(env.files["signatures"])]
    if engines:
        argv += ["--engines", str(env.files["engines"])]
    rc, out = timed_cli(tracer, tally, "crawl", argv)
    summary = json_lines(out)[-1] if rc == 0 else {}
    summary["origin"] = env.origin.ask("stats")
    return summary


def offline(env: Env, store: Path, tracer: Tracer, tally: Tally, label: bool) -> dict:
    """The reprocessing stages, each a fresh `websift` command on the store."""
    work = store.parent
    base = ["--store", str(store), "--seed", str(env.seed)]
    stages = [
        ("extract", ["extract", "--force"]),
        ("train", ["train", "--out", str(work / "model.json"), "--trees", str(TREES)]),
        ("classify", ["classify", "--model", str(work / "model.json")]),
        ("report", ["report", "--out", str(work / "report")]),
    ]
    if label:
        stages.insert(0, ("label", ["label", "--engines", str(env.files["engines"])]))
    outputs = {}
    for name, argv in stages:
        rc, out = timed_cli(tracer, tally, name, base + argv)
        outputs[name] = json_lines(out) if rc == 0 else []
    return outputs


def run_unit(env: Env, rep: int, plan, tally: Tally) -> tuple[dict, Tracer]:
    """One unit of timed work on a fresh store, with `plan` wrapped."""
    store = env.workdir / f"unit-{rep}" / "store"
    shutil.rmtree(store.parent, ignore_errors=True)
    store.parent.mkdir(parents=True)
    if env.pristine is not None:
        shutil.copytree(env.pristine, store)
    tracer = Tracer().install(plan)
    try:
        if env.pristine is None:
            summary = crawl(env, store, tracer, tally, engines=True)
            outputs = offline(env, store, tracer, tally, label=False)
        else:
            summary = None
            outputs = offline(env, store, tracer, tally, label=True)
    finally:
        tracer.restore()
    rss_mb = peak_rss_mb()     # before the benchmark reads the store back
    facts = store_facts(store)
    unit = {"store_mb": facts["store_bytes"] / 1e6, "peak_rss_mb": rss_mb, "facts": facts}
    for stage in ("extract", "train", "classify", "report"):
        unit[f"{stage}_s"] = sum(tracer.durations("stage." + stage))
    if summary is None:
        unit["settle_s"] = sum(tracer.durations("stage.label"))
        unit.update(env.capture)
        check_backlog(env, outputs, facts, tally)
    else:
        unit["settle_s"] = sum(tracer.durations("pipeline.run_labels"))
        unit.update(capture_metrics(tracer, summary.get("records", 0), facts["body_bytes"]))
        check_capture(env, summary, tracer, tally, settled=True)
        check_offline(env, outputs, facts, tally)
    unit["digest"] = digest(facts, outputs, work=store.parent,
                            with_model=env.pristine is not None)
    del facts["features"], facts["labels"]     # not kept alive through later units
    unit["wall_s"] = sum(s[5] - s[4] for s in tracer.spans if s[2].startswith("stage."))
    shutil.rmtree(store.parent, ignore_errors=True)
    return unit, tracer


def capture_metrics(tracer: Tracer, records: int, body_bytes: int | None = None) -> dict:
    """The capture over first fetch -> stop_capture returning.

    Its metric is the websift process's CPU time per committed record
    over that interval; throughput and fetch latency over the same
    interval are wall-clock readings, reported but not gated.
    """
    fetches = tracer.by_name("agents.proxy_request")
    stops = tracer.by_name("pipeline.stop_capture")
    if not fetches or not stops or not records:
        return {"capture_cpu_ms_per_record": 0.0}
    interval = stops[-1][5] - min(s[4] for s in fetches)
    cpu_s = tracer.marks["capture_cpu_end"] - tracer.marks["capture_cpu_start"]
    lat_ms = [(s[5] - s[4]) * 1000 for s in fetches]
    out = {
        "capture_cpu_ms_per_record": cpu_s * 1000 / records,
        "capture_rps": records / interval,
        "fetch_p50_ms": stats.percentile(lat_ms, 50),
        "fetch_p90_ms": stats.percentile(lat_ms, 90),
        "fetch_latency_ms": stats.timing_summary(lat_ms),
        "capture_interval_s": interval,
    }
    if body_bytes is not None:
        out["capture_mbps"] = body_bytes / 1e6 / interval
    return out


# ---------------------------------------------------------------------------
# checks

def check_capture(env: Env, summary: dict, tracer: Tracer, tally: Tally,
                  settled: bool) -> None:
    n = len(env.seeds)
    fetches = len(tracer.by_name("agents.proxy_request"))
    tally.attempted += fetches
    origin = summary.get("origin", {})
    tally.fail(abs(n - fetches), "agent fetches differ from seeds")
    tally.fail(abs(n - summary.get("records", 0)), "records differ from seeds")
    tally.fail(summary.get("errors", 0), "pipeline errors")
    tally.fail(summary.get("refused", 0), "gateway refusals")
    tally.fail(tracer.counts["agents.visit_errors"], "agent visit errors")
    tally.fail(tracer.counts["agents.non_200"], "non-200 fetches")
    tally.expect(origin.get("requests") == fetches, "origin requests differ from fetches")
    tally.expect(origin.get("via") == origin.get("requests"), "origin requests without Via")
    tickets = summary.get("tickets", {})
    want = TicketStatus.SCAN_FINISHED.value if settled else TicketStatus.UNSCANNED.value
    tally.fail(sum(v for k, v in tickets.items() if k != want), "unsettled tickets")
    tally.expect(tickets.get(want, 0) == env.flagged, "ticket count differs from flagged pages")


def check_offline(env: Env, outputs: dict, facts: dict, tally: Tally) -> None:
    n = len(env.seeds)
    extract = outputs.get("extract") or [{}]
    train = outputs.get("train") or [{}]
    report = outputs.get("report") or [{}]
    tally.expect(extract[-1].get("extracted") == n, "extract count differs from records")
    tally.expect(train[-1].get("train_size", 0) + train[-1].get("test_size", 0) == n,
                 "train split does not cover the records")
    tally.expect(len(outputs.get("classify", [])) == n, "classify count differs from records")
    tally.expect(report[-1].get("unique_malicious") == env.expected_malicious,
                 "report malicious count differs from expected")
    tally.fail(n - facts["featured"], "records without features")
    tally.expect(facts["malicious"] == env.expected_malicious,
                 "ground-truth malicious count differs from expected")


def check_backlog(env: Env, outputs: dict, facts: dict, tally: Tally) -> None:
    n = len(env.seeds)
    label = outputs.get("label") or [{}]
    tally.expect(label[-1].get("relabeled") == n - env.flagged,
                 "label relabeled count differs from unflagged pages")
    tally.fail(abs(env.flagged - label[-1].get("fetched", 0)), "unsettled tickets")
    tally.fail(sum(v for k, v in facts["tickets"].items()
                   if k != TicketStatus.SCAN_FINISHED.value), "unsettled tickets")
    check_offline(env, outputs, facts, tally)


# ---------------------------------------------------------------------------
# store facts and the semantic digest

def store_facts(store: Path) -> dict:
    """Per-URL features and labels plus sizes, read back from the store."""
    features, labels, tickets = {}, {}, {}
    body_bytes = malicious = featured = 0
    with FlowStore(store, writable=False, create=False) as fs:
        for record in fs.records():
            path = urlsplit(record.exchange.request.url).path
            features[path] = record.features.as_row() if record.features else None
            labels[path] = record.labels.to_doc()
            featured += record.features is not None
            malicious += record.labels.ground_truth is True
            ticket = record.labels.scan_ticket
            if ticket is not None:
                tickets[ticket.status.value] = tickets.get(ticket.status.value, 0) + 1
            if record.body_sha1:
                body_bytes += fs.get_blob(record.body_sha1).size
        records = fs.record_count()
    log = store / "records.log"
    log_lines = sum(1 for _ in open(log, "rb")) if log.exists() else 0
    blob_bytes = sum(f.stat().st_size for f in (store / "blobs").rglob("*") if f.is_file())
    log_bytes = log.stat().st_size if log.exists() else 0
    return {"features": features, "labels": labels, "tickets": tickets,
            "records": records, "featured": featured, "malicious": malicious,
            "body_bytes": body_bytes, "log_bytes": log_bytes, "log_lines": log_lines,
            "store_bytes": log_bytes + blob_bytes}


def _undated(bundle: dict) -> dict:
    out = dict(bundle)
    out["collection_progress"] = [row[1:] for row in bundle.get("collection_progress", [])]
    out["feature_trends"] = [row[1:] for row in bundle.get("feature_trends", [])]
    return out


def digest(facts: dict, outputs: dict, work: Path, with_model: bool) -> str:
    """SHA-256 over URL -> features, URL -> labels, model and dateless report.

    The crawl workloads leave the model out: two agents commit in a
    racy order, and the forest's split and bootstrap follow record order.
    """
    report = (outputs.get("report") or [{}])[-1]
    doc = {"features": facts["features"], "labels": facts["labels"],
           "report": _undated(report)}
    model = work / "model.json"
    if with_model and model.exists():
        doc["model"] = json.loads(model.read_text(encoding="utf-8"))
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment(root: Path, store_dir: Path) -> dict:
    """Commit, interpreter, CPUs and the store's filesystem type."""
    return {
        "commit": _git_commit(root),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "store_fs": _fs_type(store_dir),
        "cache_note": "page cache and fsync behave as the host leaves them; "
                      "nothing is dropped or tuned",
    }


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _fs_type(path: Path) -> str:
    """Filesystem type of the longest mount point containing `path`."""
    best, fs = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fs = mount, parts[2]
    except OSError:
        pass
    return fs

