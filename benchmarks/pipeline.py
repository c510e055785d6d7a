"""Workloads of the seqtag benchmark: generated inputs, the pipeline one run
drives through seqtag's public API, and the checks on every output it times.

Every run drives the pipeline a user of the paper's system runs: fit GloVe
vectors on a pseudo-corpus, build a model and round-trip it through a
checkpoint (the set-up), train a tagger, reload the trained checkpoint and
tag documents one at a time with one client in a closed loop.  So every
end-to-end metric has a value on every workload.  A workload fixes the
tagger and the shape of its inputs.  Training repeats until the run's
seconds are spent; the other stages run in rounds spread over the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from seqtag import checkpoint, corpus, embeddings, evaluation, glove, synth, training
from seqtag.corpus import Dataset, Sentence, TagScheme
from seqtag.errors import SeqtagError
from seqtag.network import dense_arrays, table_arrays

from gauge import Gauge
from spans import GAUGE_SPAN, Tracer, layer_metrics

PAPER_DIMS = dict(d_w=300, d_c=25, H_c=25, H_w=100)
GLOVE = dict(dim=50, window=10)
GLOVE_LENGTHS = (20, 60)  # pseudo-sentences are cells of a free-text column
ROUNDS = 3  # times each stage other than training runs in one pass
DOC_GROUP = 10  # documents tagged between two calibration samples


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the tagger that runs on them."""

    config: dict  # TrainConfig fields of the tagger
    train_sentences: int
    train_lengths: tuple[int, int]
    doc_lengths: tuple[int, int]
    docs: int = 100  # documents tagged every round and scored; p90 has 10 beyond it
    doc_sentences: tuple[int, int] = (3, 4)
    glove_sentences: int = 60
    glove_iterations: int = 3
    glove_repeats: int = 6  # per round
    setup_repeats: int = 5  # per round


# Faithful TrainConfig defaults (uniform init, lr 0.01, dropout 0.5) at the
# paper's dimensions; seed 0 for the program, while --seed makes the inputs.
WORKLOADS = {
    "train_char_crf": Workload(
        config=dict(variant="blstm_crf", use_char=True, epochs=3, **PAPER_DIMS),
        train_sentences=60, train_lengths=(5, 12), doc_lengths=(3, 80), doc_sentences=(2, 3),
    ),
    "train_crf_feat_long": Workload(
        config=dict(variant="crf", use_char=False, use_features=True, epochs=10, **PAPER_DIMS),
        train_sentences=40, train_lengths=(40, 120), doc_lengths=(40, 120),
    ),
}


def tiny(w: Workload) -> Workload:
    """The same workload at toy sizes, for the benchmark's smoke test."""
    config = dict(w.config, epochs=1)
    config.update(d_w=8, d_c=4, H_c=4, H_w=6)
    return replace(
        w, config=config, train_sentences=12, docs=6, glove_sentences=20,
        glove_iterations=2, glove_repeats=1, setup_repeats=2,
        doc_lengths=(3, min(w.doc_lengths[1], 12)), train_lengths=(3, min(w.train_lengths[1], 12)),
    )


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    scheme: TagScheme
    train: Dataset
    docs: list[Dataset]
    glove_corpus: list[list[str]]
    glove_pairs: int
    learn_tokens: int
    valid_tokens: int
    doc_tokens: int


def _subseed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _shape(stream: int, n: int, lo: int, hi: int) -> list[int]:
    """``n`` integers spread evenly over [lo, hi], in an order fixed by ``stream``.

    Sentence lengths and document sizes come from here, so they are the
    same for every seed: the workload fixes the shape of its inputs and
    the seed their words.  Otherwise latency percentiles and per-token
    rates would move with the lengths a seed happens to draw.
    """
    values = np.linspace(lo, hi, n).round().astype(int)
    return np.random.default_rng(stream).permutation(values).tolist()


def _sentences(seed: int, stream: int, lengths: list[int], seen: bool) -> list[Sentence]:
    """Synthetic sentences of exactly ``lengths``, in order, with words drawn
    from ``seed``; ``seen`` draws only words of the training share of each pool."""
    out: list[Sentence | None] = [None] * len(lengths)
    for length in sorted(set(lengths)):
        slots = [i for i, n in enumerate(lengths) if n == length]
        train, test = synth.generate(synth.default_spec(
            _subseed(seed, stream * 1000 + length), n_train=len(slots) if seen else 0,
            n_test=0 if seen else len(slots), length_range=(length, length),
        ))
        for i, sentence in zip(slots, train if seen else test):
            out[i] = sentence
    return out


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Everything a run feeds seqtag, made from ``seed`` alone."""
    spec = synth.default_spec()
    train = Dataset(tuple(_sentences(
        seed, 0, _shape(0, w.train_sentences, *w.train_lengths), seen=True)))
    sizes = _shape(1, w.docs, *w.doc_sentences)
    pool = _sentences(seed, 2, _shape(2, sum(sizes), *w.doc_lengths), seen=False)
    bounds = np.cumsum([0] + sizes).tolist()
    docs = [Dataset(tuple(pool[a:b])) for a, b in zip(bounds, bounds[1:])]
    glove_text = _sentences(seed, 3, _shape(3, w.glove_sentences, *GLOVE_LENGTHS), seen=True)
    records = [("clinical note", " ".join(s.surfaces)) for s in glove_text]
    glove_corpus = list(embeddings.build_pseudo_corpus(records))
    index = {word: i for i, word in enumerate(glove.count_vocabulary(glove_corpus, 1))}
    pairs = len(glove.build_cooccurrence(glove_corpus, index, GLOVE["window"]))
    cfg = training.TrainConfig(**w.config)
    learn, valid = corpus.split_train_valid(train, cfg.split_ratio, cfg.seed)
    return Inputs(
        scheme=TagScheme(tuple(sorted(spec.classes))),
        train=train,
        docs=docs,
        glove_corpus=glove_corpus,
        glove_pairs=pairs,
        learn_tokens=sum(len(s) for s in learn),
        valid_tokens=sum(len(s) for s in valid),
        doc_tokens=sum(len(s) for doc in docs for s in doc),
    )


# ---------------------------------------------------------------------------
# failures and checks
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed.  A ``SeqtagError`` from a timed call
    or an output that fails a check counts as one failed operation."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def call(self, label: str, fn, *args, **kwargs):
        """Time one program call; returns (result, seconds), or (None, None) on failure."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except SeqtagError as exc:
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None, None
        return result, time.perf_counter() - start

    def verify(self, label: str, problems: list[str]) -> bool:
        """Record the problems found in one operation's output as one failure."""
        if problems:
            self.fail(f"{label}: " + "; ".join(problems[:3]))
        return not problems

    def fail(self, message: str):
        self.failed += 1
        self.problems.append(message)


def _params(model) -> dict[str, np.ndarray]:
    return {**dense_arrays(model), **table_arrays(model)}


def _hash_params(h, model):
    for name, arr in sorted(_params(model).items()):
        h.update(f"{name}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _round_trip_problems(saved, loaded) -> list[str]:
    problems = []
    if loaded.config != saved.config:
        problems.append("config changed in the checkpoint round trip")
    if loaded.model.scheme.tags != saved.model.scheme.tags:
        problems.append("tag scheme changed in the checkpoint round trip")
    a, b = _params(saved.model), _params(loaded.model)
    if a.keys() != b.keys():
        problems.append(f"parameter names changed: {sorted(a.keys() ^ b.keys())}")
    problems += [f"{n} changed in the checkpoint round trip" for n in sorted(a.keys() & b.keys())
                 if a[n].shape != b[n].shape or not np.array_equal(a[n], b[n])]
    return problems


def bio_spans(tags: list[str]) -> set[tuple[int, int, str]] | None:
    """Strict spans of a valid BIO sequence; ``None`` when it is not valid BIO."""
    spans, start, cls = set(), None, None
    for i, tag in enumerate(list(tags) + ["O"]):
        if tag.startswith("I-"):
            if tag[2:] != cls:
                return None
            continue
        if start is not None:
            spans.add((start, i, cls))
        start, cls = (i, tag[2:]) if tag.startswith("B-") else (None, None)
    return spans


def _tag_problems(doc: Dataset, out, scheme: TagScheme) -> list[str]:
    if out is None or len(out) != len(doc):
        return ["tagger returned a different number of sentences"]
    problems = []
    for k, (gold, pred) in enumerate(zip(doc, out)):
        if pred.surfaces != gold.surfaces or pred.gold_tags != gold.gold_tags:
            problems.append(f"sentence {k}: tokens changed")
        tags = pred.pred_tags
        if any(t not in scheme.index for t in tags):
            problems.append(f"sentence {k}: tag outside the scheme")
        elif bio_spans(tags) is None:
            problems.append(f"sentence {k}: invalid BIO")
    return problems


def strict_micro_f1(gold: Dataset, pred: Dataset) -> float:
    """The benchmark's own strict span F1, to check ``evaluation.evaluate``."""
    tp = fp = fn = 0
    for g, p in zip(gold, pred):
        gs, ps = bio_spans(g.gold_tags), bio_spans(p.pred_tags)
        tp += len(gs & ps)
        fp += len(ps - gs)
        fn += len(gs - ps)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def _finite(values) -> bool:
    return all(np.all(np.isfinite(v)) for v in values)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    """Results of one pass through the pipeline."""

    metrics: dict[str, float]
    unscaled: dict[str, float]  # the same timings before the gauge scaled them
    digest: str  # trained parameters, predicted tags and fitted vectors
    reproducible: bool  # repeated units of each stage agreed bitwise
    work_tokens: int  # tokens handed to seqtag: train epochs plus tagging


class Stages:
    """The pipeline's stages and what their units measured so far.

    A unit is a GloVe fit, a set-up, a training epoch, or the tagging of
    one document.  Every repeat of a stage must reproduce the first
    bitwise.  The gauge is sampled before and after each GloVe fit and
    epoch and each group of set-ups and of documents; a unit's time is
    kept with the factor those samples give (see ``gauge.py``).  A metric
    is the median over repeats of the scaled times.
    """

    def __init__(self, w: Workload, inputs: Inputs, tmp: Path, tally: Tally,
                 tracer: Tracer | None = None):
        self.w, self.inputs, self.tmp, self.tally = w, inputs, tmp, tally
        self.cfg = training.TrainConfig(seed=0, **w.config)
        self.glove_params = glove.GloveParams(iterations=w.glove_iterations, seed=0, **GLOVE)
        self.vocab = set(glove.count_vocabulary(inputs.glove_corpus, self.glove_params.min_count))
        self.digests: dict[str, list[str]] = {"glove": [], "train": [], "tag": []}
        self.metrics: dict[str, float] = {}
        self.gauge = Gauge()
        if tracer is not None:  # so that layer metrics can leave the gauge out
            self.gauge.sample = tracer.wrap(GAUGE_SPAN, self.gauge.sample)
        # (seconds, gauge factor) of every unit, per stage and per document
        self.setup_times: list[tuple[float, float]] = []
        self.glove_times: list[tuple[float, float]] = []
        self.train_times: list[tuple[float, float]] = []
        self.trained = None
        self.work_tokens = 0
        n = len(inputs.docs)
        self.doc_times: list[list[tuple[float, float]]] = [[] for _ in range(n)]
        self.doc_tags: list[list | None] = [None] * n
        self.next_doc = 0

    # -- units ---------------------------------------------------------------

    def glove(self) -> bool:
        params, before = self.glove_params, self.gauge.last
        got, seconds = self.tally.call("glove.fit_glove", glove.fit_glove,
                                       self.inputs.glove_corpus, params)
        if got is None:
            return False
        self.glove_times.append((seconds, self.gauge.factor(before)))
        table, history = got
        self.tally.verify("glove.fit_glove", [msg for ok, msg in (
            (len(history) == params.iterations, "objective history has the wrong length"),
            (_finite(history), "objective is not finite"),
            (len(history) < 2 or history[-1] < history[0], "objective did not fall"),
            (table.dim == params.dim, "table has the wrong dimension"),
            (set(table.entries) == self.vocab, "table does not cover the vocabulary"),
            (_finite(table.entries.values()), "vectors are not finite"),
        ) if not ok])
        digest = hashlib.sha256(repr(history).encode())
        for word in sorted(table.entries):
            digest.update(word.encode() + table.entries[word].tobytes())
        self.digests["glove"].append(digest.hexdigest())
        self.metrics["glove_loss_last"] = history[-1]
        return True

    def setup(self) -> float | None:
        """Build a model and round-trip it through a checkpoint; returns its seconds."""
        self.tally.attempted += 1
        path = self.tmp / "setup.ckpt"
        start = time.perf_counter()
        try:
            model = training.build_model(self.cfg, self.inputs.scheme, self.inputs.train)
            saved = training.Checkpoint(checkpoint.VERSION, self.cfg, model, 0, [])
            training.save_checkpoint(saved, path)
            loaded = training.load_checkpoint(path)
        except SeqtagError as exc:
            self.tally.fail(f"set-up: {type(exc).__name__}: {exc}")
            return None
        seconds = time.perf_counter() - start
        self.tally.verify("set-up", _round_trip_problems(saved, loaded))
        return seconds

    def train(self) -> bool:
        """One training run; each epoch, validation included, is one unit.

        The gauge is sampled after every epoch, outside the epoch's time."""
        cfg, inputs = self.cfg, self.inputs
        losses, times = [], []
        before, start = self.gauge.last, time.perf_counter()

        def progress(epoch, loss, f1):
            nonlocal before, start
            seconds = time.perf_counter() - start
            losses.append(float(loss))
            times.append((seconds, self.gauge.factor(before)))
            before, start = self.gauge.last, time.perf_counter()

        ckpt, _ = self.tally.call("training.train", training.train, cfg, inputs.train,
                                  inputs.scheme, progress)
        if ckpt is None:
            return False
        self.train_times += times
        self.tally.verify("training.train", [msg for ok, msg in (
            (len(losses) == cfg.epochs and _finite(losses), "epoch losses are not finite"),
            (len(ckpt.history) == cfg.epochs and all(0.0 <= f <= 1.0 for f in ckpt.history),
             "validation F1 out of range"),
            (0 <= ckpt.best_epoch < cfg.epochs, "best epoch out of range"),
            (_finite(_params(ckpt.model).values()), "parameters are not finite"),
        ) if not ok])
        digest = hashlib.sha256(repr((losses, ckpt.history, ckpt.best_epoch)).encode())
        _hash_params(digest, ckpt.model)
        self.digests["train"].append(digest.hexdigest())
        self.work_tokens += (inputs.learn_tokens + inputs.valid_tokens) * cfg.epochs
        self.metrics["train_loss_last"] = losses[-1]
        if self.trained is None:
            self.trained = self._deploy(ckpt)
        return self.trained is not None

    def _deploy(self, ckpt):
        """Save the trained checkpoint and load it back, as a tagging service would."""
        path = self.tmp / "trained.ckpt"
        _, seconds = self.tally.call("training.save_checkpoint", training.save_checkpoint,
                                     ckpt, path)
        if seconds is None:
            return None
        loaded, _ = self.tally.call("training.load_checkpoint", training.load_checkpoint, path)
        if loaded is None or not self.tally.verify("checkpoint",
                                                   _round_trip_problems(ckpt, loaded)):
            return None
        return loaded

    def tag(self) -> tuple[int, float] | None:
        """Tag the next document; one client, so the next is sent when this returns.

        Returns the document's index and seconds, or None if it failed."""
        docs = self.inputs.docs
        k = self.next_doc % len(docs)
        self.next_doc += 1
        doc = docs[k]
        out, seconds = self.tally.call("training.tag", training.tag, self.trained, doc)
        if out is None or not self.tally.verify(
                f"document {k}", _tag_problems(doc, out, self.inputs.scheme)):
            return None
        self.work_tokens += sum(len(s) for s in doc)
        tags = [s.pred_tags for s in out]
        if self.doc_tags[k] is None:
            self.doc_tags[k] = tags
            if k == len(docs) - 1:
                self._score()
        elif tags != self.doc_tags[k]:
            self.digests["tag"].append(f"document {k} differs from its first tagging")
        return k, seconds

    def _score(self):
        """Strict F1 of the first tagging of every document, checked independently."""
        if any(tags is None for tags in self.doc_tags):
            return  # a document failed; the run is already incorrect
        gold = Dataset(tuple(s for doc in self.inputs.docs for s in doc))
        tags = [t for doc_tags in self.doc_tags for t in doc_tags]
        pred = Dataset(tuple(
            Sentence(tuple(replace(tok, pred_tag=p) for tok, p in zip(s.tokens, t)))
            for s, t in zip(gold, tags)
        ))
        scores, _ = self.tally.call("evaluation.evaluate", evaluation.evaluate, gold, pred,
                                    self.inputs.scheme)
        if scores is None:
            return
        f1, own = scores.micro_f1(), strict_micro_f1(gold, pred)
        self.tally.verify("evaluation.evaluate",
                          [] if abs(f1 - own) <= 1e-12 else [f"F1 {f1} != recomputed {own}"])
        self.digests["tag"].insert(0, hashlib.sha256(repr(tags).encode()).hexdigest())
        self.metrics["test_f1"] = f1

    # -- rounds --------------------------------------------------------------

    def round(self, train: bool) -> bool:
        """Every stage once, in pipeline order; every document once."""
        if not all(self.glove() for _ in range(self.w.glove_repeats)):
            return False
        before = self.gauge.last
        times = [self.setup() for _ in range(self.w.setup_repeats)]
        factor = self.gauge.factor(before)
        self.setup_times += [(t, factor) for t in times if t is not None]
        if train and not self.train():
            return False  # tagging needs the trained checkpoint
        for first in range(0, len(self.inputs.docs), DOC_GROUP):
            before = self.gauge.last
            tagged = [self.tag() for _ in self.inputs.docs[first:first + DOC_GROUP]]
            factor = self.gauge.factor(before)
            for k, seconds in filter(None, tagged):
                self.doc_times[k].append((seconds, factor))
        return True

    def timings(self, scaled: bool) -> dict[str, float]:
        """The timing metrics: medians of scaled times, or of the raw ones."""

        def median(times):
            return statistics.median([t * f if scaled else t for t, f in times])

        inputs, out = self.inputs, {}
        if self.setup_times:
            out["setup_s"] = median(self.setup_times)
        if self.glove_times:
            out["glove_pairs_s"] = (inputs.glove_pairs * self.glove_params.iterations
                                    / median(self.glove_times))
        if self.train_times:
            out["train_tok_s"] = inputs.learn_tokens / median(self.train_times)
        if all(self.doc_times):
            docs = [median(times) for times in self.doc_times]
            out["tag_tok_s"] = inputs.doc_tokens / sum(docs)
            out["tag_doc_ms_p50"] = 1e3 * statistics.median(docs)
            out["tag_doc_ms_p90"] = 1e3 * statistics.quantiles(docs, n=10)[8]
        return out

    def result(self) -> Pass:
        metrics = {**self.metrics, **self.timings(scaled=True)}
        unscaled = self.timings(scaled=False)
        unscaled["gauge_s_median"] = statistics.median(self.gauge.samples)
        unscaled["train_epochs"] = len(self.train_times)
        h = hashlib.sha256()
        for digests in self.digests.values():
            h.update((digests[0] if digests else "missing").encode())
        same = all(len(set(d)) <= 1 for d in self.digests.values())
        return Pass(metrics, unscaled, h.hexdigest(), same, self.work_tokens)


def run_pass(w: Workload, inputs: Inputs, budget: float, tmp: Path, tally: Tally,
             tracer: Tracer | None = None) -> Pass:
    """Training repeated until about ``budget`` seconds have passed, broken by
    rounds of the other stages at even intervals, the last one at the end.

    The first round runs every stage in pipeline order.  Spreading each
    stage's repeats over the run keeps its median from resting on one
    phase of the machine.
    """
    start = time.perf_counter()
    stages = Stages(w, inputs, tmp, tally, tracer)
    if stages.round(train=True):
        round_s = time.perf_counter() - start
        for k in range(1, ROUNDS):
            until = start + max(budget - round_s, 0.0) * k / (ROUNDS - 1)
            while time.perf_counter() < until:
                if not stages.train():
                    break
            stages.round(train=False)
    return stages.result()


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def code_digest(root: Path) -> str:
    """Digest of the program and benchmark sources: reference digests are kept per code."""
    h = hashlib.sha256()
    files = sorted((root / "src" / "seqtag").rglob("*.py"))
    files += sorted(Path(__file__).parent.glob("*.py"))
    for path in files:
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


def _check_reference(store: Path, key: str, digest: str, record: bool) -> bool:
    """Compare with the digest an earlier run of the same code and seed recorded.

    The first run without failures records its digest as the reference.
    """
    refs = json.loads(store.read_text()) if store.exists() else {}
    if key in refs or not record:
        return refs.get(key, digest) == digest
    refs[key] = digest
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(refs, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return True


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    problems: list[str]
    unscaled: dict[str, float] = field(default_factory=dict)


def run(name: str, w: Workload, seed: int, seconds: float, trace: bool, root: Path,
        state: Path, env: dict) -> Result:
    """One run: end-to-end metrics, or with ``trace`` the per-layer metrics.

    A traced run makes an untraced pass and then a traced pass, half the
    seconds each.  The two must agree bitwise, and their speed ratio is the
    tracing overhead.  ``state`` holds the reference digests, the span files
    and, while the run lasts, its checkpoint and vector files.
    """
    inputs = make_inputs(w, seed)
    tally = Tally()
    tmp = state / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            tracer = Tracer()
            passes = [run_pass(w, inputs, seconds / 2, tmp, tally)]
            with tracer.installed():
                passes.append(run_pass(w, inputs, seconds / 2, tmp, tally, tracer))
        else:
            passes = [run_pass(w, inputs, seconds, tmp, tally)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    tally.attempted += 1
    key = f"{name}:{seed}:{hashlib.sha256(repr(w).encode()).hexdigest()[:16]}:{code_digest(root)}"
    reproducible = (all(p.reproducible for p in passes)
                    and len({p.digest for p in passes}) == 1
                    and _check_reference(state / "digests.json", key, passes[0].digest,
                                         record=tally.failed == 0))
    if not reproducible:
        tally.fail("reproducibility: digests differ between runs of the same code and seed")

    last = passes[-1]
    if trace:
        metrics = layer_metrics(tracer.spans, last.work_tokens)
        for m in ("train_tok_s", "tag_tok_s"):
            base, now = passes[0].metrics.get(m), last.metrics.get(m)
            metrics[f"trace.{m}_ratio"] = now / base if base and now else 0.0
        tracer.write(state / "spans" / f"{name}-seed{seed}.json", env)
    else:
        metrics = dict(last.metrics)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["ok_ratio"] = 1.0 - tally.failed / tally.attempted
        metrics["repro_ok"] = 1.0 if reproducible else 0.0
    return Result(tally.failed == 0, tally.attempted, tally.failed, metrics, tally.problems,
                  passes[0].unscaled)
