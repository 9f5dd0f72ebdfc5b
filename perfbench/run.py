#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the root of a checkout.  ``--trace 0`` prints every
end-to-end metric, ``--trace 1`` every per-layer metric (see
``BENCHMARK.json`` and ``perfbench/README.md``).  The last line of
standard output is the result object; the line before it, prefixed
``report``, holds provenance, sample counts and the checks made.

Workloads: ``train_nyc360`` (train.py), ``serve_city360`` and
``serve_ragged`` (serve.py).  ``--scale tiny`` shrinks every model and
city for the self-test (selftest.py); benchmark runs use the default
paper sizes.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

# One BLAS thread per process: the serving workloads run the frontend,
# the fleet workers and the client on the same cores, and training is
# measured under the same setting so runs stay comparable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train_nyc360", "serve_city360", "serve_ragged")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "tiny"),
                        default="paper")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {root / 'src'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]

    from benchlib import emit, provenance, work_dir

    if args.workload == "train_nyc360":
        import train as workload
    else:
        import serve as workload

    work = work_dir(root)
    try:
        table, report = workload.run(root, work, args.workload, args.seed,
                                     args.seconds, bool(args.trace),
                                     args.scale)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:   # another run still uses it
            pass
    report = {"provenance": provenance(root, args.seed, args.workload,
                                       bool(args.trace)), **report}
    emit(table, correct=report["correct"], attempted=report["attempted"],
         failed=report["failed"], report=report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
