"""Seeded inputs and deployment configuration of the serving workloads.

Imported by the benchmark process, the server process and (through
:func:`build_service`) every fleet worker, so all of them derive the
same model and the same traffic from one ``spec`` dict:

``workload``     ``"serve_city360"`` or ``"serve_ragged"``;
``seed``         the benchmark seed (cities, model weights, schedule);
``scale``        ``"paper"`` or ``"tiny"`` (the self-test's sizes);
``work_dir``     scratch directory inside the checkout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import HAFusionConfig, shard_viewset
from repro.data import load_city
from repro.data.features import ViewSet
from repro.nn import PlanCache
from repro.serving import (EmbedRequest, EmbeddingService, FlushPolicy,
                           default_bucket_edges, default_shape_grid)

#: The flush policy every serving script in the repository deploys.
POLICY = FlushPolicy(max_batch=4)

#: Resident plans kept per worker.  A ragged (4, 180) plan holds about
#: 0.5 GB, so the library default (32) would not fit an 8 GB host.
PLAN_CAPACITY = 2

#: serve_ragged's offered load, in requests per second, is
#: ``LOAD_FRACTION`` of the fleet's capacity ``CAPACITY_PER_S``: the
#: highest offered rate ``capacity.py`` saw the fleet keep up with on the
#: reference host (see README.md).  At half of it the frontend wait stays
#: near its unloaded value while both workers record most of the time.
CAPACITY_PER_S = 5.0
LOAD_FRACTION = 0.5

#: Share of ragged requests that arrive in bursts of ``max_batch``
#: shards: every run holds several bursts, and singles, whose latency
#: the median measures, stay the majority.
BURST_SHARE = 0.25

#: Share of ragged requests carrying a ``region_subset`` of 2–3 regions,
#: and dtypes alternating default/float32, as in the mixed trace of
#: ``benchmarks/test_serving_frontend.py`` (``make_trace``: 2 of its 9
#: shards carry a subset of 2 or 3 regions, every second one asks for
#: float32).
SUBSET_SHARE = 2 / 9


@dataclass(frozen=True)
class ServeSizes:
    cities: tuple[str, ...]     # presets sizing the model (n_max, widths)
    config: dict                # HAFusionConfig overrides
    n_workers: int              # fleet size
    connections: int = 1        # client connections
    pool: int = 4               # distinct full-city requests (city360)
    rate: float = 0.0           # ragged: offered requests per second
    min_regions: int = 8        # ragged shard sizes
    max_regions: int = 45


def serve_sizes(spec: dict) -> ServeSizes:
    """Sizes of a serving workload; ``spec["rate"]``, when present,
    overrides the ragged offered rate (``capacity.py`` sweeps it)."""
    tiny = spec["scale"] == "tiny"
    small = dict(d=16, d_prime=8, memory_size=6, num_heads=2,
                 intra_layers=1, inter_layers=1, fusion_layers=1)
    if spec["workload"] == "serve_city360":
        return ServeSizes(cities=("chi",) if tiny else ("nyc_360",),
                          config=small if tiny else {},
                          n_workers=1, pool=2 if tiny else 4)
    rate = spec.get("rate") or (
        2.0 if tiny else LOAD_FRACTION * CAPACITY_PER_S)
    return ServeSizes(cities=("chi", "chi") if tiny else ("nyc", "chi"),
                      config=small if tiny else {},
                      n_workers=2, connections=2, rate=rate,
                      min_regions=8, max_regions=20 if tiny else 45)


def cities(spec: dict) -> list:
    """The cities behind the model's capacity and the traffic."""
    sizes = serve_sizes(spec)
    return [load_city(name, seed=spec["seed"] + i)
            for i, name in enumerate(sizes.cities)]


def build_service(spec: dict) -> EmbeddingService:
    """The deployed service (module level: fleet workers call it)."""
    config = HAFusionConfig.for_city("nyc", conv_channels=4, dropout=0.0,
                                     **serve_sizes(spec).config)
    return EmbeddingService.build(
        [c.views() for c in cities(spec)], config,
        seed=spec["seed"], policy=POLICY,
        plan_cache=PlanCache(capacity=PLAN_CAPACITY))


# ----------------------------------------------------------------------
# serve_city360: a pool of whole cities
# ----------------------------------------------------------------------

def city_pool(spec: dict) -> list[EmbedRequest]:
    """Distinct whole-city requests the closed loop cycles through."""
    sizes = serve_sizes(spec)
    preset = sizes.cities[0]
    return [EmbedRequest(load_city(preset, seed=spec["seed"] * 1000 + i),
                         name=f"{preset}-{i}")
            for i in range(sizes.pool)]


# ----------------------------------------------------------------------
# serve_ragged: a seeded open-loop schedule of small shards
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Arrival:
    due: float                  # seconds after the schedule starts
    request: EmbedRequest


def _shard(views: ViewSet, start: int, stop: int) -> ViewSet:
    return ViewSet(names=views.names,
                   matrices=[m[start:stop] for m in views.matrices])


def ragged_schedule(spec: dict, seed: int, horizon: float) -> list[Arrival]:
    """Singles plus bursts of one city's shards, over ``horizon`` seconds.

    ``rate * horizon`` requests, ``BURST_SHARE`` of them in bursts.
    Arrivals are stratified: single ``i`` is due at a uniform instant of
    the ``i``-th of equal slots over the horizon, and burst ``j`` in the
    middle half of its slot, so every seed offers the same load and only
    the content and exact instants vary; sizes are stratified over their
    range for the same reason.  A single is a random contiguous slice of
    a random city.  A burst is one client splitting a slice into
    ``max_batch`` shards of equal size in one dtype, sent 2 ms apart,
    so the scheduler co-batches them into one full flush.  Dtypes
    alternate default/float32, singles by their order and bursts by
    theirs, and ``SUBSET_SHARE`` of requests keep 2–3 regions.
    """
    sizes = serve_sizes(spec)
    views = [c.views() for c in cities(spec)]
    rng = np.random.default_rng(seed)
    arrivals: list[Arrival] = []
    k = POLICY.max_batch

    def stratified(count: int, lo: int, hi: int) -> list[int]:
        """``count`` sizes in [lo, hi], one per equal-width stratum."""
        span = hi - lo + 1
        picks = [lo + int((i + rng.random()) * span / count)
                 for i in range(count)]
        return [int(x) for x in rng.permutation(picks)]

    def request(shard: ViewSet, float32: bool, name: str) -> EmbedRequest:
        subset = None
        if rng.random() < SUBSET_SHARE:
            size = int(rng.integers(2, 4))
            subset = sorted(rng.choice(shard.n_regions, size=size,
                                       replace=False).tolist())
        return EmbedRequest(shard, dtype="float32" if float32 else None,
                            region_subset=subset, name=name)

    def single(at: float, n: int, float32: bool) -> None:
        v = views[rng.integers(len(views))]
        start = int(rng.integers(0, v.n_regions - n + 1))
        arrivals.append(Arrival(at, request(
            _shard(v, start, start + n), float32,
            f"single-{len(arrivals)}")))

    def burst(at: float, n: int, float32: bool) -> None:
        fits = [v for v in views if v.n_regions >= k * n]
        v = fits[rng.integers(len(fits))]
        start = int(rng.integers(0, v.n_regions - k * n + 1))
        for i, shard in enumerate(shard_viewset(
                _shard(v, start, start + k * n), k)):
            arrivals.append(Arrival(at + 0.002 * i, request(
                shard, float32, f"burst-{len(arrivals)}")))

    total = int(round(sizes.rate * horizon))
    bursts = int(round(total * BURST_SHARE / k))
    singles = total - k * bursts
    for i, n in enumerate(stratified(singles, sizes.min_regions,
                                     sizes.max_regions)):
        single((i + float(rng.random())) * horizon / singles, n,
               i % 2 == 1)
    widest = max(v.n_regions for v in views) // k
    for j, n in enumerate(stratified(bursts, sizes.min_regions,
                                     min(sizes.max_regions, widest))):
        burst((j + float(rng.uniform(0.25, 0.75))) * horizon / bursts, n,
              j % 2 == 1)
    arrivals.sort(key=lambda a: a.due)
    return arrivals


def pack_shape_grid(spec: dict, n_max: int) -> list[tuple[int, int]]:
    """Shapes the warm-up pack records before any traffic.

    serve_city360: the one full-width batch its single closed-loop
    connection forms.  serve_ragged: the default grid over the bucket
    edges its shard sizes can reach; the edges above them would only
    ever serve requests this traffic never sends.
    """
    sizes = serve_sizes(spec)
    if spec["workload"] == "serve_city360":
        return [(1, n_max)]
    edges = default_bucket_edges(n_max)
    top = min(e for e in edges if e >= sizes.max_regions)
    return default_shape_grid(POLICY.max_batch,
                              [e for e in edges
                               if sizes.min_regions <= e <= top])
