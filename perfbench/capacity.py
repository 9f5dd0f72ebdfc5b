#!/usr/bin/env python3
"""Capacity sweep of the serve_ragged fleet: the measurement behind
``inputs.CAPACITY_PER_S``.

    python3 perfbench/capacity.py [--rates 1,2,3,4,5,6,8,10,16] \\
        [--seconds 15] [--seed 1]

Run from the root of a checkout.  For each offered rate it makes one
traced serve_ragged run (the benchmark's traffic mix, fleet and checks,
only the rate changed) and prints one line: offered and answered
requests per second, median and p90 latency, median frontend wait,
mean batch size, serve-time records, shed and refused requests.
Answered requests per second follow the offered rate until a backlog
grows; the highest offered rate answered at ``KEEP_UP`` of its rate or
better is printed last as the fleet's capacity.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

# The benchmark's setting (see run.py): one BLAS thread per process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
#: Share of the offered rate a run must answer to count as keeping up.
KEEP_UP = 0.95


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rates", default="1,2,3,4,5,6,8,10,16")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"capacity: no repro sources under {root / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]

    import serve
    from benchlib import work_dir

    capacity = 0.0
    print(f"{'offered/s':>9} {'answered/s':>10} {'p50_ms':>8} "
          f"{'p90_ms':>8} {'wait_ms':>8} {'batch':>5} {'records':>7} "
          f"{'shed':>4} {'refused':>7} correct")
    for rate in (float(r) for r in args.rates.split(",")):
        work = work_dir(root)
        try:
            table, report = serve.run(root, work, "serve_ragged", args.seed,
                                      args.seconds, True, "paper",
                                      rate=rate)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        v = table.values
        if report["answered_per_s"] >= KEEP_UP * report["offered_per_s"]:
            capacity = max(capacity, report["offered_per_s"])
        print(f"{report['offered_per_s']:9.2f} "
              f"{report['answered_per_s']:10.2f} "
              f"{v['trace.latency_p50_ms']:8.0f} "
              f"{v['trace.latency_p90_ms']:8.0f} "
              f"{v['serving.frontend.wait_p50_ms']:8.0f} "
              f"{v['serving.scheduler.batch_size']:5.2f} "
              f"{v['nn.plancache.records']:7.0f} "
              f"{v['serving.frontend.shed']:4.0f} "
              f"{v['serving.frontend.rejected']:7.0f} "
              f"{report['correct']}", flush=True)
    print(f"capacity {capacity:.2f} requests/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
