"""Smoke test of the benchmark at toy sizes.

Every workload runs, traced and untraced, and emits every metric that
BENCHMARK.json names; the output checks and the reproducibility gate
catch what they are there to catch.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pipeline  # noqa: E402
from seqtag import training  # noqa: E402
from seqtag.corpus import Dataset, Sentence  # noqa: E402
from seqtag.errors import NumericError  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TARGETS = json.loads((HERE / "layer_targets.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
ENV = {"nproc": 1}


def run_tiny(name, tmp_path, seed=3, trace=False):
    w = pipeline.tiny(pipeline.WORKLOADS[name])
    return pipeline.run(name, w, seed, 0.0, trace, ROOT, tmp_path, ENV)


def test_benchmark_json_lists_each_why_and_each_layer_target():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(pipeline.WORKLOADS)
    assert all(w["why"].strip() and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    assert set(TARGETS) == PER_LAYER
    for target in TARGETS.values():
        assert target["moves"] and set(target["moves"]) <= END_TO_END
        assert target["workloads"] and set(target["workloads"]) <= set(names)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(pipeline.WORKLOADS))
def test_workload_emits_every_metric(name, trace, tmp_path):
    result = run_tiny(name, tmp_path, trace=trace)
    assert result.problems == []
    assert result.correct and result.failed == 0 and result.attempted > 0
    assert set(result.metrics) == (PER_LAYER if trace else END_TO_END)
    assert all(math.isfinite(v) for v in result.metrics.values())
    if trace:
        spans = json.loads((tmp_path / "spans" / f"{name}-seed3.json").read_text())
        assert {s[0] for s in spans["spans"]} >= {"training.train", "training.tag",
                                                  "bench.gauge"}
        shares = [v for k, v in result.metrics.items() if k.endswith(".self_share")]
        assert sum(shares) <= 1.0 + 1e-9  # the gauge's own time is in no layer
    else:
        assert all(v > 0 for v in result.metrics.values())
        assert result.metrics["repro_ok"] == 1.0 and result.metrics["ok_ratio"] == 1.0
        timings = {"train_tok_s", "tag_tok_s", "tag_doc_ms_p50", "tag_doc_ms_p90",
                   "glove_pairs_s", "setup_s"}
        assert set(result.unscaled) >= timings and all(result.unscaled[k] > 0 for k in timings)


def test_reproducibility_gate_compares_runs_of_the_same_seed(tmp_path):
    assert run_tiny("train_crf_feat_long", tmp_path).metrics["repro_ok"] == 1.0
    assert run_tiny("train_crf_feat_long", tmp_path).metrics["repro_ok"] == 1.0
    store = tmp_path / "digests.json"
    store.write_text(json.dumps({key: "0" * 64 for key in json.loads(store.read_text())}))
    changed = run_tiny("train_crf_feat_long", tmp_path)
    assert changed.metrics["repro_ok"] == 0.0
    assert not changed.correct and changed.failed == 1


def test_invalid_tags_count_as_failed_documents(tmp_path, monkeypatch):
    real_tag = training.tag

    def dangling_inside(ckpt, doc):
        out = real_tag(ckpt, doc)
        first = out.sentences[0]
        bad = (replace(first.tokens[0], pred_tag="I-problem"),) + first.tokens[1:]
        return Dataset((Sentence(bad),) + out.sentences[1:])

    monkeypatch.setattr(training, "tag", dangling_inside)
    result = run_tiny("train_crf_feat_long", tmp_path)
    docs = pipeline.tiny(pipeline.WORKLOADS["train_crf_feat_long"]).docs
    assert not result.correct and result.failed >= docs
    assert all("invalid BIO" in p for p in result.problems)
    assert "tag_tok_s" not in result.metrics


@pytest.mark.parametrize("name, failing_call", [("train", 1), ("tag", 2)])
def test_seqtag_error_in_a_timed_call_is_a_failure_not_a_crash(
    name, failing_call, tmp_path, monkeypatch
):
    real, calls = getattr(training, name), []

    def fails_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == failing_call:
            raise NumericError("non-finite loss")
        return real(*args, **kwargs)

    monkeypatch.setattr(training, name, fails_once)
    result = run_tiny("train_crf_feat_long", tmp_path)
    assert not result.correct and result.failed == 1
    assert result.problems == [f"training.{name}: NumericError: non-finite loss"]


@pytest.mark.parametrize("tags, spans", [
    (["B-a", "I-a", "O", "B-b"], {(0, 2, "a"), (3, 4, "b")}),
    (["O", "I-a"], None),
    (["B-a", "I-b"], None),
    (["O", "O"], set()),
])
def test_bio_oracle(tags, spans):
    assert pipeline.bio_spans(tags) == spans


def test_without_program_sources_the_benchmark_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "train_char_crf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
