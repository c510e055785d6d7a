"""Compare two seqtag trees in one process on the benchmark's inputs.

Usage, from the root of a checkout::

    python3 tools/ab.py BASE [CHANGE] [--workload train_char_crf] [--seeds 1 2 3] [--passes 12]

``BASE`` and ``CHANGE`` are each a git revision of this repository,
exported with ``git archive``, or a directory that holds a ``seqtag``
package, directly or under ``src/``.  ``CHANGE`` defaults to this
checkout's ``src/``.  Each tree is imported under its own package name
and builds its own datasets from the same CoNLL text: that of the
benchmark's ``pipeline.make_inputs`` for the workload and seed.

Each pass runs ``training.train`` and then tags every document, on each
tree in turn; the tree that runs first alternates from pass to pass.
One untimed pass per tree comes first.  On a shared host the speed of
the core drifts over seconds to minutes, so runs in separate processes
spread more than two trees timed in the same process, pass by pass.

For every seed the runner prints each tree's median and quartiles of
the train and tag milliseconds, the passes each tree won, and whether
the two trees' digests are equal: epoch losses, validation history and
best epoch, trained parameters, and the documents' tags.  It exits 1
if any digest differs, or changes from one pass of a tree to the next.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from run import pin_blas_threads  # noqa: E402

pin_blas_threads()  # before numpy is imported

import numpy as np  # noqa: E402
import pipeline  # noqa: E402
from seqtag import corpus  # noqa: E402

TREES = ("base", "change")


def package_root(spec: str | Path, scratch: Path) -> Path:
    """The directory that holds the ``seqtag`` package of ``spec``: a
    directory as it is, or a git revision exported under ``scratch``."""
    path = Path(spec)
    if path.is_dir():
        for root in (path, path / "src"):
            if (root / "seqtag" / "__init__.py").is_file():
                return root
        raise SystemExit(f"{spec}: no seqtag package here or under src/")
    exported = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", str(spec), "src/seqtag"],
        capture_output=True, check=False,
    )
    if exported.returncode != 0:
        raise SystemExit(f"{spec}: {exported.stderr.decode().strip()}")
    dest = Path(tempfile.mkdtemp(dir=scratch))
    with tarfile.open(fileobj=io.BytesIO(exported.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def load(root: Path, name: str) -> SimpleNamespace:
    """The ``seqtag`` package under ``root``, imported as package ``name``."""
    for loaded in [key for key in sys.modules if key.split(".")[0] == name]:
        del sys.modules[loaded]  # an earlier tree's, imported under the same name
    init = root / "seqtag" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return SimpleNamespace(**{
        module: importlib.import_module(f"{name}.{module}")
        for module in ("corpus", "network", "training")
    })


class Tree:
    """One tree's datasets, parsed by its own ``corpus`` from shared text."""

    def __init__(self, package: SimpleNamespace, config: dict, classes, train: str, docs):
        self.package = package
        self.scheme = package.corpus.TagScheme(tuple(classes))
        self.train_data = package.corpus.parse_conll(train, self.scheme)
        self.docs = [package.corpus.parse_conll(doc, self.scheme) for doc in docs]
        self.config = package.training.TrainConfig(seed=0, **config)

    def run(self) -> tuple[float, float, dict[str, str]]:
        """One pass: seconds to train, seconds to tag the documents, digests."""
        training, network = self.package.training, self.package.network
        losses = []
        start = time.perf_counter()
        ckpt = training.train(self.config, self.train_data, self.scheme,
                              lambda epoch, loss, f1: losses.append(float(loss)))
        train_s = time.perf_counter() - start
        start = time.perf_counter()
        tags = [[s.pred_tags for s in training.tag(ckpt, doc)] for doc in self.docs]
        tag_s = time.perf_counter() - start
        params = hashlib.sha256()
        arrays = {**network.dense_arrays(ckpt.model), **network.table_arrays(ckpt.model)}
        for name, arr in sorted(arrays.items()):
            params.update(f"{name}{arr.shape}".encode())
            params.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        digests = {
            "losses": repr(losses),
            "history": repr((ckpt.history, ckpt.best_epoch)),
            "params": params.hexdigest(),
            "tags": repr(tags),
        }
        digests = {k: hashlib.sha256(v.encode()).hexdigest() for k, v in digests.items()}
        return train_s, tag_s, digests


def compare(packages: dict[str, SimpleNamespace], workload: str, seed: int, passes: int,
            tiny: bool = False) -> dict:
    """Time ``passes`` alternating passes of the base and the change
    package on one seed's inputs; returns each tree's times in ms and
    its digests."""
    w = pipeline.WORKLOADS[workload]
    w = pipeline.tiny(w) if tiny else w
    inputs = pipeline.make_inputs(w, seed)
    train_text = corpus.write_conll(inputs.train)
    doc_texts = [corpus.write_conll(doc) for doc in inputs.docs]
    trees = {
        label: Tree(packages[label], w.config, inputs.scheme.classes, train_text, doc_texts)
        for label in TREES
    }
    result = {label: {"train_ms": [], "tag_ms": [], "digests": None, "stable": True}
              for label in TREES}
    for label, tree in trees.items():  # untimed: lazy set-up and caches
        result[label]["digests"] = tree.run()[2]
    for k in range(passes):
        for label in TREES if k % 2 == 0 else TREES[::-1]:
            train_s, tag_s, digests = trees[label].run()
            own = result[label]
            own["train_ms"].append(train_s * 1e3)
            own["tag_ms"].append(tag_s * 1e3)
            own["stable"] &= digests == own["digests"]
    return result


def summary(result: dict, metric: str) -> str:
    """Each tree's median [quartiles] of ``metric`` and the passes each won."""
    base, change = (result[label][metric] for label in TREES)
    parts = []
    for label, values in zip(TREES, (base, change)):
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        parts.append(f"{label} {median:.1f} [{q1:.1f}, {q3:.1f}]")
    wins = sum(c < b for b, c in zip(base, change)), sum(b < c for b, c in zip(base, change))
    move = statistics.median(change) / statistics.median(base) - 1.0
    return (f"{metric:<9}" + "  ".join(parts)
            + f"  change {move:+.1%}; won: change {wins[0]}, base {wins[1]} of {len(base)}")


def digest_report(result: dict) -> tuple[str, bool]:
    """Which digests the trees share, and whether all of them are equal
    and stable across each tree's passes."""
    base, change = (result[label]["digests"] for label in TREES)
    equal = {k: base[k] == change[k] for k in base}
    stable = all(result[label]["stable"] for label in TREES)
    words = [f"{k} {'equal' if same else 'DIFFER'}" for k, same in equal.items()]
    words.append("every pass reproduced its tree's first" if stable
                 else "a pass did NOT reproduce its tree's first")
    return "digests: " + ", ".join(words), all(equal.values()) and stable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision, or directory holding a seqtag package")
    parser.add_argument("change", nargs="?", default=str(ROOT / "src"),
                        help="git revision or directory (default: this checkout's src/)")
    parser.add_argument("--workload", default="train_char_crf", choices=sorted(pipeline.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--passes", type=int, default=12)
    parser.add_argument("--tiny", action="store_true", help="the benchmark's toy sizes")
    args = parser.parse_args(argv)
    ok = True
    with tempfile.TemporaryDirectory() as scratch:
        packages = {
            label: load(package_root(spec, Path(scratch)), f"seqtag_{label}")
            for label, spec in zip(TREES, (args.base, args.change))
        }
        for seed in args.seeds:
            result = compare(packages, args.workload, seed, args.passes, args.tiny)
            line, same = digest_report(result)
            ok &= same
            print(f"{args.workload} seed {seed}, {args.passes} passes (ms)")
            for metric in ("train_ms", "tag_ms"):
                print("  " + summary(result, metric))
            print("  " + line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
