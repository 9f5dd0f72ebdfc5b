"""The train_nyc360 workload: paper-scale compiled training.

Set-up (``setup_s``) generates the city, builds the paper model
(``HAFusionConfig.for_city("nyc_360")``, float32, as the experiment
runners train it) and records the compiled step with Adam folded into
the plan.  The window then replays epochs, checkpointing through
:class:`repro.train.Checkpointer` every ``CHECKPOINT_EVERY`` epochs,
until ``seconds`` have passed.

Untraced runs time each ``CompiledStep.run()``.  Traced runs alternate:
even epochs call ``Plan.forward``/``backward``/``update`` with a timer
around each, odd epochs call ``CompiledStep.run()`` as untraced runs do,
so the tracing overhead is measured within the run.  The op breakdown comes
from ``Plan.profile(include_update=True)`` after the checks.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.core import HAFusionConfig
from repro.core.model import HAFusion
from repro.core.trainer import TrainingHistory
from repro.data import load_city
from repro.nn.compile import CompiledStep
from repro.nn.optim import Adam
from repro.nn.tensor import use_dtype
from repro.serving import EmbedRequest, EmbeddingService
from repro.train import Checkpointer

from benchlib import (END_TO_END, PER_LAYER, SLO_SECONDS, MetricTable,
                      vm_hwm_mb)

CHECKPOINT_EVERY = 5
#: Served (compiled float32 plan) vs eager embeddings of the trained
#: model, relative to the embeddings' largest magnitude.
SERVE_RTOL = 1e-4
#: Op kinds reported per layer (forward + backward summed).
OPS = ("fused_gate", "conv2d", "matmul", "softmax", "fused_layernorm")


def _setup(seed: int, scale: str):
    start = time.perf_counter()
    city = load_city("chi" if scale == "tiny" else "nyc_360", seed=seed)
    load_s = time.perf_counter() - start
    overrides = (dict(d=16, d_prime=8, conv_channels=4, memory_size=6,
                      num_heads=2, intra_layers=1, inter_layers=1,
                      fusion_layers=1) if scale == "tiny" else {})
    config = HAFusionConfig.for_city(city.name, **overrides)
    views = city.views()
    model = HAFusion(views.dims(), views.n_regions, config,
                     mobility_view=views.names.index("mobility"),
                     rng=np.random.default_rng(seed))
    optimizer = Adam(model.parameters(), lr=config.lr)
    step = CompiledStep(
        lambda: model.loss(views),
        signature_fn=lambda: tuple(m.shape for m in views.matrices),
        optimizer=optimizer, grad_clip=config.grad_clip)
    record = time.perf_counter()
    first_loss = step.run()
    record_s = time.perf_counter() - record
    return dict(city=city, views=views, model=model, optimizer=optimizer,
                step=step, first_loss=first_loss, load_s=load_s,
                record_s=record_s, setup_s=time.perf_counter() - start)


def _served_matches_eager(model, views) -> tuple[bool, float]:
    """Serve the trained model like the experiment runners do and
    compare with its eager forward."""
    service = EmbeddingService(model, n_max=views.n_regions)
    served = service.run([EmbedRequest(views)])[0].embeddings
    eager = model.embed(views)
    err = float(np.abs(served - eager).max() / max(np.abs(eager).max(),
                                                    1e-30))
    return err <= SERVE_RTOL, err


def run(root: Path, work: Path, workload: str, seed: int, seconds: float,
        trace: bool, scale: str) -> tuple[MetricTable, dict]:
    table = MetricTable(PER_LAYER if trace else END_TO_END)
    with use_dtype(np.float32):
        s = _setup(seed, scale)
        model, step, views = s["model"], s["step"], s["views"]
        plan = step.plan
        checkpointer = Checkpointer(model, s["optimizer"], work / "ckpt",
                                    every=CHECKPOINT_EVERY, keep=2)
        history = TrainingHistory(losses=[s["first_loss"]])
        epochs: list[float] = []          # untraced step times
        traced: list[float] = []          # traced epoch totals
        layer = {"forward": [], "backward": [], "update": []}
        saves: list[float] = []
        save_bytes = 0
        window = time.perf_counter()
        stop_at = window + seconds
        while time.perf_counter() < stop_at:
            epoch = len(history.losses) + 1
            if trace and epoch % 2 == 0:
                t0 = time.perf_counter()
                loss = plan.forward()
                t1 = time.perf_counter()
                plan.backward()
                t2 = time.perf_counter()
                plan.update()
                t3 = time.perf_counter()
                layer["forward"].append(t1 - t0)
                layer["backward"].append(t2 - t1)
                layer["update"].append(t3 - t2)
                traced.append(t3 - t0)
            else:
                t0 = time.perf_counter()
                loss = step.run()
                epochs.append(time.perf_counter() - t0)
            history.losses.append(loss)
            t0 = time.perf_counter()
            path = checkpointer.maybe_save(epoch, history)
            if path is not None:
                saves.append(time.perf_counter() - t0)
                save_bytes = path.stat().st_size
        wall = time.perf_counter() - window
        peak = vm_hwm_mb()

        losses = history.losses
        finite = bool(np.all(np.isfinite(losses)))
        decreased = losses[-1] < losses[0]
        served_ok, served_err = _served_matches_eager(model, views)
        correct = finite and decreased and served_ok
        attempted = len(losses) - 1
        # An epoch is correct when its loss is finite and the run as a
        # whole trained (loss fell, served output matches eager).
        ok = (sum(1 for x in losses[1:] if np.isfinite(x))
              if decreased and served_ok else 0)
        report = {"epochs": attempted, "first_loss": losses[0],
                  "last_loss": losses[-1], "checkpoints": len(saves),
                  "served_vs_eager_rel_err": served_err,
                  "served_rtol": SERVE_RTOL, "wall_s": wall,
                  "attempted": attempted, "failed": attempted - ok,
                  "correct": correct}

        if not trace:
            n = s["views"].n_regions
            # Untraced runs time every epoch, so ``epochs`` pairs with
            # ``losses[1:]``; only correct epochs count.
            within = (sum(1 for t, x in zip(epochs, losses[1:])
                          if t <= SLO_SECONDS and np.isfinite(x))
                      if decreased and served_ok else 0)
            table.set("setup_s", s["setup_s"])
            table.set_percentile("latency_p50_ms", epochs, 50, 1e3)
            table.set("regions_per_s", n * ok / wall, attempted)
            table.set("slo_attainment", within / len(epochs), len(epochs))
            table.set("ok_ratio", ok / attempted, attempted)
            table.set("peak_rss_mb", peak)
            return table, report

        profile = plan.profile(replays=1, include_update=True)
        ops = profile["ops"]

        def op_seconds(kind: str) -> float:
            return sum(ops.get(f"{p}:{kind}", {}).get("seconds", 0.0)
                       for p in ("F", "B", "U"))

        table.set("data.load_city_s", s["load_s"])
        table.set("nn.compile.record_s", s["record_s"])
        for name, values in layer.items():
            table.set_percentile(f"nn.compile.{name}_s", values, 50)
        for kind in OPS:
            table.set(f"nn.compile.op.{kind}_s", op_seconds(kind), 1)
        table.set("nn.compile.op.adam_s", op_seconds("adam"), 1)
        table.set("nn.compile.kernels", plan.num_forward_ops
                  + plan.num_backward_ops + plan.num_update_ops)
        table.set_percentile("train.checkpoint.save_s", saves, 50)
        table.set("train.checkpoint.bytes", save_bytes, len(saves))
        for q in (50, 90, 99):
            table.set_percentile(f"trace.latency_p{q}_ms", traced, q, 1e3)
        untraced = np.median(epochs)
        table.set("trace.overhead_ratio",
                  np.median(traced) / untraced - 1.0, len(traced))
        layers = sum(np.median(v) for v in layer.values())
        table.set("trace.accounted_ratio", layers / untraced, len(traced))
        report["profile_seconds_per_replay"] = profile["seconds_per_replay"]
        return table, report
