"""Serving side of the serve_* workloads, run as its own process.

    python3 perfbench/server.py pack  '<spec json>'
    python3 perfbench/server.py serve '<spec json>'

``pack`` builds the deployed model and its :class:`WarmupPack` in
``<work_dir>/pack`` and exits, printing its timings as one JSON line.
``serve`` starts a :class:`ServingFleet` warmed from that pack and a
:class:`ServingFrontend` over it, prints one ``ready`` JSON line (port,
pids, start time), then serves until its standard input closes or
reads ``stop``.  The spec keys are documented in ``inputs.py``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.core import make_batch
from repro.nn import RECORD_STATS
from repro.serving import (FrontendThread, ServingFleet, ServingFrontend,
                           WarmupPack)

import inputs

#: Seed offset of the warm-up traffic sample: never the measured schedule.
PACK_TRAFFIC_SEED = 7919
#: Seconds of schedule the warm-up traffic sample spans.
PACK_TRAFFIC_SECONDS = 4.0


def pack(spec: dict) -> dict:
    start = time.perf_counter()
    service = inputs.build_service(spec)
    traffic = None
    if spec["workload"] == "serve_ragged":
        traffic = [a.request.views for a in inputs.ragged_schedule(
            spec, spec["seed"] + PACK_TRAFFIC_SEED, PACK_TRAFFIC_SECONDS)]
    RECORD_STATS.reset()
    pack_ = WarmupPack.build(service,
                             inputs.pack_shape_grid(spec, service.n_max),
                             directory=Path(spec["work_dir"]) / "pack",
                             traffic=traffic)
    return {"pack_s": time.perf_counter() - start,
            "records": RECORD_STATS.total, "shapes": len(pack_.shapes)}


def serve(spec: dict) -> None:
    start = time.perf_counter()
    sizes = inputs.serve_sizes(spec)
    shape = make_batch([c.views() for c in inputs.cities(spec)])
    fleet = ServingFleet(inputs.build_service, (spec,),
                         n_workers=sizes.n_workers,
                         pack_dir=Path(spec["work_dir"]) / "pack",
                         start_method="spawn")
    fleet.start(timeout=150.0)
    frontend = ServingFrontend(fleet, n_max=shape.n_max,
                               view_dims=shape.view_dims,
                               view_names=shape.view_names,
                               policy=inputs.POLICY)
    thread = FrontendThread(frontend).start()
    try:
        print(json.dumps({"ready": True, "port": frontend.port,
                          "worker_pids": fleet.pids(),
                          "start_s": time.perf_counter() - start}),
              flush=True)
        for line in sys.stdin:
            if line.strip() == "stop":
                break
    finally:
        thread.stop(stop_fleet=True)


def main(argv: list[str]) -> int:
    phase, spec = argv[0], json.loads(argv[1])
    if phase == "pack":
        print(json.dumps(pack(spec)), flush=True)
    elif phase == "serve":
        serve(spec)
    else:
        raise SystemExit(f"unknown phase {phase!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
