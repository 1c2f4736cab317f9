"""The fuzz CLI: sharding, events, corpus output, exit codes."""

import json

from repro.fuzz.cli import (
    _summarize,
    _write_divergences,
    main,
    run_fuzz,
    run_shard,
)
from repro.obs.events import read_events
from repro.obs.report import render_fuzz


def test_run_shard_returns_records_and_events(tmp_path):
    out = str(tmp_path / "fuzz.jsonl")
    records = run_shard(("isa", 0, 3, (False,), out, None))
    assert len(records) == 3
    assert all(r["ok"] for r in records)
    events = list(read_events(out))
    kinds = [e["ev"] for e in events]
    assert kinds.count("fuzz_run") == 3
    assert kinds.count("fuzz_summary") == 1
    summary = events[-1]
    assert summary["programs"] == 3
    assert summary["shard"] == [0, 3]


def test_run_shard_respects_deadline():
    records = run_shard(("isa", 0, 50, (False,), None, 0.0))
    assert records == []


def test_run_fuzz_covers_every_seed_once():
    records = run_fuzz(("isa",), seeds=5, workers=1, timings=(False,))
    assert sorted(r["seed"] for r in records) == [0, 1, 2, 3, 4]


def test_summarize_mentions_divergent_seeds():
    records = [
        {"seed": 0, "level": "isa", "status": "exit", "trap": None,
         "ok": True, "config": {}},
        {"seed": 3, "level": "isa", "status": "trap",
         "trap": "BoundsError", "ok": False, "config": {}},
    ]
    text = _summarize(records)
    assert "DIVERGENT SEEDS: isa:3" in text
    assert "REPRO_FUZZ_SEED" in text
    assert "BoundsError=1" in text


def test_write_divergences_creates_corpus_entries(tmp_path):
    corpus = str(tmp_path / "corpus")
    records = [{
        "seed": 4, "level": "isa", "status": "exit", "trap": None,
        "ok": False, "config": {"mode": "off"},
        "program": "main:\n    mov r1, 1\n    halt r1\n",
        "divergences": [{"kind": "engine", "engine": "decoded",
                         "timing": False, "fields": ["cycles"],
                         "detail": "", "optimize": None}],
    }]
    written = _write_divergences(records, corpus, minimize=False)
    assert len(written) == 1
    meta = json.loads((tmp_path / "corpus" /
                       "isa-seed4.json").read_text())
    assert meta["seed"] == 4
    assert meta["divergences"][0]["engine"] == "decoded"


def test_main_exit_zero_and_report_renders(tmp_path, capsys):
    out = str(tmp_path / "fuzz.jsonl")
    code = main(["--level", "isa", "--seeds", "3", "--workers", "1",
                 "--functional-only", "--out", out])
    assert code == 0
    printed = capsys.readouterr().out
    assert "3 programs" in printed
    assert "divergences: none" in printed
    report = render_fuzz(list(read_events(out)))
    assert "Fuzzed programs" in report
    assert "Divergences (none recorded)" in report


def test_main_rejects_negative_seeds(tmp_path):
    try:
        main(["--seeds", "-1"])
    except SystemExit as exc:
        assert exc.code == 2
    else:
        raise AssertionError("argparse should reject --seeds -1")
