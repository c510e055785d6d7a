"""Run one workload of the seqtag benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload train_char_crf --seed 1 --seconds 42 --trace 0

``--trace 0`` prints every end-to-end metric named in BENCHMARK.json;
``--trace 1`` prints every per-layer metric and writes the run's spans to
``.bench_state/spans/``.  Each metric is printed on its own line with its
unit, then one line describing the environment, and last one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the same checkout; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_blas_threads() -> int:
    """One client and no extra threads: one BLAS thread, which is at most nproc.

    Must run before numpy is imported, because BLAS reads these once.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return 1


def blas_threads(np) -> int | None:
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    for lib in sorted(Path(np.__file__).parent.with_name("numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np, pinned: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": pinned,
        "blas_threads": blas_threads(np),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")

    src = ROOT / "src"
    if not (src / "seqtag" / "__init__.py").is_file():
        print(f"error: no seqtag sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    pinned = pin_blas_threads()
    sys.path.insert(0, str(src))
    import numpy as np
    import seqtag

    if Path(seqtag.__file__).resolve().parent != (src / "seqtag").resolve():
        print(f"error: imported seqtag from {seqtag.__file__}, not {src}", file=sys.stderr)
        return 2
    import pipeline

    env = environment(np, pinned)
    workload = pipeline.WORKLOADS[args.workload]
    result = pipeline.run(args.workload, workload, args.seed, args.seconds, bool(args.trace),
                          ROOT, ROOT / ".bench_state", env)

    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(units.keys() - result.metrics.keys())
    if missing:
        result.problems.append(f"metrics not measured: {missing}")
    for problem in result.problems:
        print(f"problem: {problem}", file=sys.stderr)
    for name, unit in units.items():
        note = f"  (over {workload.docs} documents)" if name.startswith("tag_doc_ms") else ""
        print(f"{name:<44} {result.metrics.get(name, float('nan')):>16.6g} {unit}{note}")
    print("unscaled " + json.dumps(result.unscaled, sort_keys=True))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": result.correct and not missing,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {n: {"value": result.metrics.get(n, 0.0), "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
