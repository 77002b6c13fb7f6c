"""Smoke tests for the scripts under scripts/."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_desk_run_prints_its_four_stages(capsys):
    desk_run = load_script("desk_run")
    assert desk_run.main(["--benign", "6", "--malicious", "4", "--trees", "2"]) == 0
    docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [d["stage"] for d in docs] == ["crawl", "dataset", "train", "report"]
    crawl, dataset, train, report = docs
    assert crawl["records"] == 10 and crawl["errors"] == 0
    assert dataset == {"stage": "dataset", "samples": 10, "malicious": 4, "undetermined": 0}
    assert train["train_size"] + train["test_size"] == 10
    assert set(train["confusion"]) == {"tp", "fp", "tn", "fn"}
    assert report["unique_malicious"] == 4


def test_forest_sweep_prints_one_line_per_cell(capsys):
    sweep = load_script("forest_sweep")
    assert sweep.main(["--benign", "12", "--malicious", "8", "--trees", "1", "3"]) == 0
    docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert docs[0] == {"train_size": 10, "test_size": 10, "malicious_total": 8}
    assert [(d["bootstrap"], d["trees"]) for d in docs[1:]] == [
        (True, 1), (True, 3), (False, 1), (False, 3)]
    for d in docs[1:]:
        assert sum(d["confusion"].values()) == 10
        assert set(d["metrics"]) == {"benign", "malware"}


def test_enforce_demo_blocks_the_page_and_keeps_its_body(capsys):
    demo = load_script("enforce_demo")
    assert demo.main(["--seed", "5"]) == 0
    blocked, passed, stored = [json.loads(line)
                               for line in capsys.readouterr().out.splitlines()]
    assert blocked["status"] == 200
    assert blocked["blocked_header"] and blocked["client_saw_warning_page"]
    assert passed["status"] == 200 and passed["passed_through_unmodified"]
    assert stored["record_for"] == blocked["fetch"]
    assert stored["wire_body_preserved"] and stored["page_recovered_after_decode"]
