"""Deterministic synthetic corpora for desk-scale end-to-end runs.

Sentences are filler words with embedded entities whose words come from
per-class lexicons.  Each class pool is ordered: a leading share serves
as entity-initial (head) words and the remainder as continuation (tail)
words, so span boundaries are never ambiguous.  Words carry class- and
role-typical suffixes, giving the character-level path enough signal to
classify even test-only words; the test split draws a configurable share
of its words from the subset already used in training and leaves the
rest deliberately out-of-vocabulary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Dataset, Sentence, Token
from .errors import ConfigError, check_fields

ENTITY_LENGTH_WEIGHTS = ((1, 0.6), (2, 0.3), (3, 0.1))


@dataclass(frozen=True)
class SynthSpec:
    lexicons: dict[str, tuple[str, ...]]  # entity class -> ordered word pool
    filler: tuple[str, ...]
    length_range: tuple[int, int] = (5, 12)
    density: float = 0.25
    n_train: int = 200
    n_test: int = 50
    head_fraction: float = 0.6  # leading share of each pool usable as span starts
    train_fraction: float = 0.7  # leading share of each role pool seen in training
    test_overlap: float = 0.9  # probability a test word comes from that share
    seed: int = 0

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(self.lexicons)

    def __post_init__(self):
        pools = [set(v) for v in self.lexicons.values()] + [set(self.filler)]
        for i, a in enumerate(pools):
            for b in pools[i + 1 :]:
                if a & b:
                    raise ConfigError(f"'lexicons' and 'filler' must be disjoint; shared: {a & b}")
        if any(word.split() != [word] for pool in pools for word in pool):
            raise ConfigError("'lexicons' and 'filler' words must be non-empty and whitespace-free")
        if len(self.length_range) != 2 or not 1 <= self.length_range[0] <= self.length_range[1]:
            raise ConfigError(f"'length_range' must be lo,hi with 1 <= lo <= hi: {self.length_range}")
        check_fields(self, (
            (("filler",), len, "non-empty"),
            (("density",), lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
            (("head_fraction", "train_fraction"), lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
            (("test_overlap",), lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
            (("n_train", "n_test", "seed"), lambda v: v >= 0, "at least 0"),
        ))


def _split(pool: tuple[str, ...], fraction: float) -> tuple[tuple[str, ...], tuple[str, ...]]:
    n = max(1, math.ceil(fraction * len(pool)))
    return pool[:n], pool[n:]


def _pick(rng: np.random.Generator, pool) -> str:
    return pool[int(rng.integers(0, len(pool)))]


def _draw(rng, pool, spec: SynthSpec, training: bool) -> str:
    common, rare = _split(pool, spec.train_fraction)
    if training or not rare or rng.random() < spec.test_overlap:
        return _pick(rng, common)
    return _pick(rng, rare)


def _sentence(spec: SynthSpec, rng: np.random.Generator, training: bool) -> Sentence:
    lo, hi = spec.length_range
    length = int(rng.integers(lo, hi + 1))
    ent_lengths = [n for n, _ in ENTITY_LENGTH_WEIGHTS]
    ent_weights = [w for _, w in ENTITY_LENGTH_WEIGHTS]
    tokens: list[Token] = []
    while len(tokens) < length:
        room = length - len(tokens)
        if spec.density > 0 and rng.random() < spec.density:
            cls = _pick(rng, spec.classes)
            heads, tails = _split(spec.lexicons[cls], spec.head_fraction)
            ent_len = min(int(rng.choice(ent_lengths, p=ent_weights)), room)
            if not tails:
                ent_len = 1
            tokens.append(Token(_draw(rng, heads, spec, training), f"B-{cls}"))
            for _ in range(ent_len - 1):
                tokens.append(Token(_draw(rng, tails, spec, training), f"I-{cls}"))
        else:
            tokens.append(Token(_draw(rng, spec.filler, spec, training), "O"))
    return Sentence(tuple(tokens))


def generate(spec: SynthSpec) -> tuple[Dataset, Dataset]:
    """Deterministically generate (train, test) gold-tagged datasets."""
    rng = np.random.default_rng(spec.seed)
    train = Dataset(tuple(_sentence(spec, rng, True) for _ in range(spec.n_train)))
    test = Dataset(tuple(_sentence(spec, rng, False) for _ in range(spec.n_test)))
    return train, test


def _suffix_pool(roots: tuple[str, ...], suffixes: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(f"{r}{s}" for r in roots for s in suffixes)


def default_spec(seed: int = 0, **overrides) -> SynthSpec:
    """Three clinical-flavored classes; head and tail words carry distinct suffixes."""
    roots = ("gastr", "derm", "nephr", "arthr", "hepat", "sinus", "bronch", "col")
    test_roots = ("angio", "colono", "spiro", "echo", "broncho", "uro", "arthro", "masto")
    rx_roots = ("ritu", "lisino", "ate", "ampi", "predni", "metro", "oxy", "cipro")
    problem = _suffix_pool(roots, ("itis", "osis", "oma")) + _suffix_pool(
        roots, ("algia", "edema")
    )
    test = _suffix_pool(test_roots, ("gram", "scopy", "metry")) + _suffix_pool(
        test_roots, ("graphy", "panel")
    )
    treatment = _suffix_pool(rx_roots, ("mab", "pril", "cillin")) + _suffix_pool(
        rx_roots, ("statin", "dryl")
    )
    filler = (
        "the", "patient", "was", "with", "after", "mild", "severe", "noted",
        "daily", "dose", "of", "and", "on", "for", "no", "signs", "stable",
        "improved", "review", "plan", "continue", "started", "since",
        "admission", "today", "morning", "follow", "up", "at", "home",
    )
    params = dict(
        lexicons={"problem": problem, "test": test, "treatment": treatment},
        filler=filler,
        head_fraction=0.6,  # 24 head words, 16 tail words per class
        seed=seed,
    )
    params.update(overrides)
    return SynthSpec(**params)
