"""Tracing for the benchmark's traced run: spans around calls into seqtag.

The benchmark records spans from its own files only.  It replaces public
functions of seqtag's modules with wrappers that time each call.  Because
``training`` and ``network`` bind names with ``from ... import``, a
function is patched where its caller looks it up, which is sometimes the
importing module rather than the defining one.  Spans stay in memory and
are written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
import time
from typing import Callable

LAYERS = (
    "training", "network", "autograd", "crf", "features",
    "embeddings", "checkpoint", "glove", "evaluation", "corpus",
)


def _rows(args):
    """Tokens in a sentence argument, or rows in a lattice argument."""
    return len(args[1]) if len(args) > 1 else 0


def _tape_nodes(args):
    """Tracked nodes reachable from the loss through ``parents``: the tape
    that ``autograd.backward`` walks."""
    seen, todo = set(), [args[0]]
    while todo:
        node = todo.pop()
        if id(node) in seen or not node.tracked:
            continue
        seen.add(id(node))
        todo.extend(node.parents)
    return len(seen)


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _pair_count(args, result):
    return len(result)


def _iterations(args):
    return args[1].iterations


# (module looked up by the caller, attribute, span name, count before, count after)
PATCHES: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("training", "train", "training.train", None, None),
    ("training", "tag", "training.tag", None, None),
    ("training", "build_model", "training.build_model", None, None),
    ("training", "save_checkpoint", "training.save_checkpoint", None, None),
    ("training", "load_checkpoint", "training.load_checkpoint", None, None),
    ("training", "sgd_update", "training.sgd_update", None, None),
    ("training", "tag_with_model", "training.tag_with_model", None, None),
    ("training", "crf_baseline_loss_and_gradients",
     "training.crf_baseline_loss_and_gradients", _rows, None),
    ("training", "loss_and_gradients", "network.loss_and_gradients", _rows, None),
    ("training", "crf_inputs", "network.crf_inputs", _rows, None),
    ("network", "crf_inputs", "network.crf_inputs", _rows, None),
    ("training", "predict_tag_ids", "network.predict_tag_ids", _rows, None),
    ("training", "init_model", "network.init_model", None, None),
    ("network", "sentence_logits", "network.sentence_logits", _rows, None),
    ("network", "viterbi", "crf.viterbi", _rows, None),
    ("network", "encode_surface", "features.encode_surface", None, None),
    ("crf", "nll_and_gradient", "crf.nll_and_gradient", _rows, None),
    ("training", "input_nll_and_gradient", "crf.input_nll_and_gradient", _rows, None),
    ("autograd", "backward", "autograd.backward", _tape_nodes, None),
    ("training", "evaluate", "evaluation.evaluate", None, None),
    ("evaluation", "evaluate", "evaluation.evaluate", None, None),
    ("training", "split_train_valid", "corpus.split_train_valid", None, None),
    ("training", "repair_bio", "corpus.repair_bio", None, None),
    ("training", "build_vocabulary", "embeddings.build_vocabulary", None, None),
    ("training", "random_table", "embeddings.random_table", None, None),
    ("training", "assemble", "embeddings.assemble", None, None),
    ("training", "load_embedding_table", "embeddings.load_embedding_table", None, None),
    ("checkpoint", "write_container", "checkpoint.write_container", None, _file_bytes),
    ("checkpoint", "read_container", "checkpoint.read_container", None, None),
    ("glove", "fit_glove", "glove.fit_glove", _iterations, None),
    ("glove", "count_vocabulary", "glove.count_vocabulary", None, None),
    ("glove", "build_cooccurrence", "glove.build_cooccurrence", None, _pair_count),
)

NAME, START, END, PARENT, ROOT, COUNT = range(6)
GAUGE_SPAN = "bench.gauge"  # the benchmark's own calibration samples, not seqtag's work


class Tracer:
    """Spans of wrapped calls: name, start and end (ns), parent, root, count.

    ``root`` is the index of the outermost span of the same benchmark
    operation, so spans of one operation share it.  ``count`` is the
    layer's own work count for that call (tokens, lattice rows, tape
    nodes, bytes or pairs), or ``None``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            count = before(args) if before else None
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, 0, 0, parent, spans[parent][ROOT] if parent >= 0 else idx, count]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after:
                span[COUNT] = after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry of :data:`PATCHES` for the enclosed block."""
        saved = []
        try:
            for module_name, attr, span_name, before, after in PATCHES:
                module = importlib.import_module(f"seqtag.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original, before, after))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path, env: dict):
        """Write every span as one JSON document (times in ns from the first span)."""
        t0 = self.spans[0][START] if self.spans else 0
        rows = [[s[NAME], s[START] - t0, s[END] - t0, s[PARENT], s[ROOT], s[COUNT]]
                for s in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "fields": ["name", "start_ns", "end_ns", "parent", "root",
                                              "count"], "spans": rows}, fh)


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[list], work_tokens: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``work_tokens`` is every token the pass handed to seqtag: learn and
    validation tokens of each training epoch plus the tagged tokens.  A
    layer the workload does not use reports 0.  Time in :data:`GAUGE_SPAN`
    spans, some of which run inside ``training.train`` between epochs,
    counts towards no layer and no share.
    """
    dur = [(s[END] - s[START]) / 1e9 for s in spans]
    children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]] += dur[i]
    self_time = [d - c for d, c in zip(dur, children)]

    def where(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    def total(idx, times=dur):
        return sum(times[i] for i in idx)

    def count(idx):
        return sum(spans[i][COUNT] or 0 for i in idx)

    loss = where("network.loss_and_gradients")
    backward = where("autograd.backward")
    logits = where("network.sentence_logits")
    viterbi = where("crf.viterbi")
    nll = where("crf.nll_and_gradient")
    inputs = where("network.crf_inputs")
    encode = where("features.encode_surface")
    trains = where("training.train")
    gauge = where(GAUGE_SPAN)
    train_roots = set(trains)
    gauge_in_trains = sum(dur[i] for i in gauge if spans[i][ROOT] in train_roots)
    fits = where("glove.fit_glove")
    cooc = where("glove.build_cooccurrence")
    validation = [i for i, s in enumerate(spans)
                  if s[NAME] in ("training.tag_with_model", "evaluation.evaluate")
                  and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "training.train"]
    loss_tokens = count(loss)

    out = {
        "autograd.backward.ms_per_tok": _per(1e3 * total(backward), loss_tokens),
        "autograd.tape_nodes_per_tok": _per(count(backward), loss_tokens),
        "network.loss_and_gradients.self_ms_per_tok": _per(1e3 * total(loss, self_time),
                                                           loss_tokens),
        "training.sgd_update.ms_per_step": _per(1e3 * total(where("training.sgd_update")),
                                                len(where("training.sgd_update"))),
        "network.sentence_logits.ms_per_tok": _per(1e3 * total(logits), count(logits)),
        "crf.viterbi.us_per_tok": _per(1e6 * total(viterbi), count(viterbi)),
        "crf.nll_and_gradient.us_per_tok": _per(1e6 * total(nll), count(nll)),
        "network.crf_inputs.ms_per_tok": _per(1e3 * total(inputs), count(inputs)),
        "features.encode_surface.calls_per_tok": _per(len(encode), work_tokens),
        "features.encode_surface.us_per_call": _per(1e6 * total(encode), len(encode)),
        "training.validation_share": _per(total(validation), total(trains) - gauge_in_trains),
        "training.build_model_s": _median([dur[i] for i in where("training.build_model")]),
        "checkpoint.write_container_s": _median(
            [dur[i] for i in where("checkpoint.write_container")]),
        "checkpoint.read_container_s": _median(
            [dur[i] for i in where("checkpoint.read_container")]),
        "checkpoint.bytes": _median(
            [spans[i][COUNT] for i in where("checkpoint.write_container")]),
        "glove.build_cooccurrence_s": _median([dur[i] for i in cooc]),
        "glove.pairs": _median([spans[i][COUNT] for i in cooc]),
        "glove.fit_s_per_iter": _median([self_time[i] / spans[i][COUNT] for i in fits]),
    }
    roots = total([i for i, s in enumerate(spans) if s[PARENT] < 0]) - total(gauge)
    for layer in LAYERS:
        own = sum(t for s, t in zip(spans, self_time) if s[NAME].split(".", 1)[0] == layer)
        out[f"{layer}.self_share"] = _per(own, roots)
    return out
