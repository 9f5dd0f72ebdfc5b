"""Shared helpers of the benchmark: metric table, memory and provenance
readers.

Every metric a workload reports goes through :class:`MetricTable`,
which knows each metric's unit (the same table ``BENCHMARK.json``
lists) and its sample count, and renders the two output lines:
a ``report`` line (provenance, sample counts, accounting) and the
final result line (``correct``, ``attempted``, ``failed``, ``metrics``).
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

#: End-to-end metrics (printed by every untraced run).  One *unit of
#: work* is a compiled training epoch on ``train_*`` workloads and one
#: request on ``serve_*`` workloads.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "regions_per_s": "1/s",
    "slo_attainment": "ratio",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: Latency limit of ``slo_attainment``: the share of attempted units
#: of work that finished correctly within this many seconds.
SLO_SECONDS = 5.0

#: Per-layer metrics (printed by every traced run).  A layer a workload
#: never enters reports 0 with 0 samples.
PER_LAYER = {
    "data.load_city_s": "s",
    "nn.compile.record_s": "s",
    "nn.compile.forward_s": "s",
    "nn.compile.backward_s": "s",
    "nn.compile.update_s": "s",
    "nn.compile.op.fused_gate_s": "s",
    "nn.compile.op.conv2d_s": "s",
    "nn.compile.op.matmul_s": "s",
    "nn.compile.op.softmax_s": "s",
    "nn.compile.op.fused_layernorm_s": "s",
    "nn.compile.op.adam_s": "s",
    "nn.compile.kernels": "count",
    "nn.compile.infer_replay_ms": "ms",
    "nn.compile.infer_op.fused_gate_ms": "ms",
    "nn.plancache.records": "count",
    "nn.plancache.hit_ratio": "ratio",
    "train.checkpoint.save_s": "s",
    "train.checkpoint.bytes": "bytes",
    "serving.api.request_encode_ms": "ms",
    "serving.api.request_decode_ms": "ms",
    "serving.api.response_encode_ms": "ms",
    "serving.api.response_decode_ms": "ms",
    "serving.frontend.wait_p50_ms": "ms",
    "serving.frontend.wait_p99_ms": "ms",
    "serving.frontend.shed": "count",
    "serving.frontend.rejected": "count",
    "serving.frontend.deadline_failures": "count",
    "serving.scheduler.batch_size": "count",
    "serving.scheduler.padding_waste": "ratio",
    "serving.service.compute_p50_ms": "ms",
    "serving.service.compute_p99_ms": "ms",
    "serving.fleet.crashes": "count",
    "serving.fleet.retries": "count",
    "serving.fleet.respawns": "count",
    "serving.fleet.record_epochs": "count",
    "loadgen.lag_p99_ms": "ms",
    "trace.latency_p50_ms": "ms",
    "trace.latency_p90_ms": "ms",
    "trace.latency_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}


def vm_hwm_mb(pid: int | None = None) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    try:
        with open(path) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class MetricTable:
    """Metric values with units and sample counts, for one run."""

    def __init__(self, units: dict[str, str]):
        self.units = units
        self.values: dict[str, float] = {}
        self.samples: dict[str, int] = {}

    def set(self, name: str, value: float, samples: int = 1) -> None:
        if name not in self.units:
            raise KeyError(f"unknown metric {name!r}")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        self.values[name] = value
        self.samples[name] = int(samples)

    def set_percentile(self, name: str, values, q: float,
                       scale: float = 1.0) -> None:
        """The ``q``-th percentile of a sample, times ``scale``.  An
        empty sample leaves the metric to :meth:`fill_missing`."""
        if len(values):
            self.set(name, np.percentile(values, q) * scale, len(values))

    def fill_missing(self) -> None:
        """Layers a workload never entered report 0 with 0 samples."""
        for name in self.units:
            if name not in self.values:
                self.values[name] = 0.0
                self.samples[name] = 0

    def metrics(self) -> dict:
        return {name: {"value": self.values[name], "unit": self.units[name]}
                for name in self.units}

    def sample_counts(self) -> dict:
        return {name: self.samples[name] for name in self.units}


def provenance(root: Path, seed: int, workload: str, trace: bool) -> dict:
    """Where and how this run was made."""
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=5,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": commit,
    }


def emit(table: MetricTable, *, correct: bool, attempted: int, failed: int,
         report: dict) -> None:
    """Print the report line, then the result line (always last)."""
    table.fill_missing()
    report = dict(report)
    report["samples"] = table.sample_counts()
    print("report " + json.dumps(report, sort_keys=True, default=str))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": table.metrics()}))
    sys.stdout.flush()


def work_dir(root: Path) -> Path:
    """A fresh per-process scratch directory inside the checkout."""
    path = root / ".perfbench-work" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path
